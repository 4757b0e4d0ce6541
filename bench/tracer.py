"""Outside-in span tracer for the ``asympatch`` package.

:func:`install` replaces every binding of every public module-level function
of ``asympatch.*`` with a timing wrapper. Bindings are replaced in every
module, because ``train`` and ``cli`` import names with ``from .x import y``
and would otherwise keep calling the unwrapped originals.

Each wrapped call records one span ``(parent, name, start_ns, end_ns)`` in
memory. A span's self time is its duration minus the durations of its direct
children, so the self times of all spans sum exactly to the summed duration
of the root spans; time in an unwrapped function counts as its caller's self
time. :meth:`Tracer.problems` therefore checks the wrapping itself: that no
binding of an original function is left and that the spans nest. Counters
that are exact functions of the arguments (call counts, tokens encoded,
matmul flops, bytes written) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns


def _rows(x):
    """Number of rows a matmul sees when ``x`` (..., k) is flattened to 2-D."""
    return x.size // x.shape[-1]


def _linear_flops(args):
    x, w = args[0], args[1]
    return 2 * _rows(x) * w.shape[0] * w.shape[1]


def _linear_backward_flops(args):
    dy, (x, w) = args[0], args[1][:2]
    return 2 * 2 * _rows(dy) * w.shape[0] * w.shape[1]   # dx and dw


def _attention_flops(batch, length, dim):
    # qkv and output projections: 2*B*L*D*(3D + D); scores and context: 2 * 2*B*L*L*D
    return 8 * batch * length * dim * dim + 4 * batch * length * length * dim


def _attention_forward_flops(args):
    return _attention_flops(*args[0].shape)


def _attention_backward_flops(args):
    return 2 * _attention_flops(*args[1][0].shape)


def _patchify_flops(args):
    cfg, indices = args[0], args[3]
    return 2 * indices.size * cfg.patch_dim * cfg.token_dim


def _patchify_backward_flops(args):
    cfg, gathered = args[0], args[2][0]
    return 2 * _rows(gathered) * gathered.shape[-1] * cfg.token_dim


# Floating-point operations of the matrix products each encoder function
# performs, computed from its argument shapes.
MATMUL_FLOPS = {
    "encoder.linear_forward": _linear_flops,
    "encoder.matmul_forward": _linear_flops,
    "encoder.linear_backward": _linear_backward_flops,
    "encoder.matmul_backward": _linear_backward_flops,
    "encoder.attention_forward": _attention_forward_flops,
    "encoder.attention_backward": _attention_backward_flops,
    "encoder.patchify": _patchify_flops,
    "encoder.patchify_backward": _patchify_backward_flops,
}


class Tracer:
    """In-memory span and counter store shared by all wrappers."""

    def __init__(self):
        self.spans = []          # (parent index, name, start_ns, end_ns)
        self.stack = []
        self.counts = Counter()
        self.trials = Counter()  # Monte Carlo trials per strategy
        self.trial_ns = Counter()  # Monte Carlo inclusive ns per strategy
        self.wrappers = set()
        self.enabled = False

    def wrap(self, name, fn):
        tracer = self
        flops = MATMUL_FLOPS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[sid] = (parent, name, start, end)
                tracer._count(name, flops, args, kwargs, end - start)

        self.wrappers.add(wrapper)
        return wrapper

    def _count(self, name, flops, args, kwargs, ns):
        self.counts[name + ".calls"] += 1
        if flops is not None:
            try:
                self.counts["encoder.matmul_flop"] += flops(args)
            except (AttributeError, IndexError, TypeError, ValueError):
                self.counts["encoder.matmul_unparsed_calls"] += 1
        elif name == "encoder.encode":
            tokens = args[2] if len(args) > 2 else kwargs["tokens"]
            self.counts["encoder.tokens_encoded"] += tokens.shape[0] * tokens.shape[1]
        elif name == "serialize.save_arrays":
            path = args[0] if args else kwargs["path"]
            self.counts["serialize.bytes_written"] += os.path.getsize(path)
        elif name == "asymmetry.monte_carlo_overlap":
            strategy = args[0] if args else kwargs["strategy"]
            trials = args[6] if len(args) > 6 else kwargs["trials"]
            self.trials[strategy] += trials
            self.trial_ns[strategy] += ns

    def profile(self):
        """Per-function and per-module self time (ns) and inclusive time (ns)."""
        child = [0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int)
        incl_ns = defaultdict(int)
        for i, (_, name, start, end) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            incl_ns[name] += end - start
        return self_ns, incl_ns

    def problems(self, package_name: str = "asympatch"):
        """Faults that would make the per-layer table wrong: a public function
        of the package still bound unwrapped in a loaded module (its time
        would count as its caller's), or a span that did not end or does not
        lie within its parent span."""
        found = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package_name
                                   or mod_name.startswith(package_name + ".")):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and obj.__module__.startswith(package_name) \
                        and obj not in self.wrappers:
                    found.append(f"unwrapped binding {mod_name}.{attr}")
        if self.stack:
            found.append(f"{len(self.stack)} spans still open")
        for i, span in enumerate(self.spans):
            if span is None:
                found.append(f"span {i} never ended")
                continue
            parent, name, start, end = span
            if parent >= 0 and self.spans[parent] is not None:
                _, pname, pstart, pend = self.spans[parent]
                if not pstart <= start <= end <= pend:
                    found.append(f"span {i} {name} outside its parent {pname}")
        return found

    def dump(self, path):
        """Write the spans as JSON lines: parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, package_name: str = "asympatch") -> None:
    """Wrap every public module-level function of the package, everywhere it
    is bound."""
    package = importlib.import_module(package_name)
    modules = [importlib.import_module(f"{package_name}.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    bound = [m for name, m in sys.modules.items()
             if m is not None and (name == package_name
                                   or name.startswith(package_name + "."))]
    for mod in bound:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
