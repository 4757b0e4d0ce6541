"""The worker pool: processes forked from the calling process that run its
independent jobs, each result byte-identical to running them in order on
the caller.

A job is data; a worker runs only this package's own functions (see
:func:`_worker`). A message holds jobs of one kind: an encoder pass
(:func:`_encode`) or its backward (:func:`_encode_backward`), or one Monte
Carlo chunk of the analyzer (:func:`_chunks`). Job i of a call runs on
process i % n, the caller being process 0, and the caller gathers the
results in job order. There is one process per core the process may use,
at most one per job (:func:`_processes`): the first call sets numpy's
OpenBLAS to one thread, overriding ``OPENBLAS_NUM_THREADS``, so that the
processes fill the cores and outputs do not depend on the environment; with
another BLAS the jobs stay serial. They run in order on the caller when
there is one process or one job, and while the encoder's functions are
wrapped, as ``bench/tracer.py`` wraps them, since a span timed in a worker
would stay there. Workers fork, and ``mmap`` and ``multiprocessing`` load,
at the first call that needs them.

An encoder job names the crop it reads: sources and, for a training step's
views, their augmentation draws. Each process renders the crops its own
jobs read, once per encode (:func:`_pixels`), so rendered pixels never
cross a pipe.

The networks do not cross by pickling: at every parallel encode the caller
copies them into an anonymous shared buffer the workers were forked with,
and a worker writes each view's encoder gradients into that view's slot of
it. Processes, not threads: threads hand the interpreter lock back and
forth at every numpy operation, so a thread that loses its core stalls the
other.
"""

from __future__ import annotations

import functools
import os
import warnings

import numpy as np

from . import data
from . import encoder as enc

# processes that run jobs; workers are forked, and where the platform cannot
# fork, every job runs serially
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1) if hasattr(os, "fork") else 1
_procs = []        # (process, connection) per worker, forked by the first parallel call
_buffer = None     # the anonymous shared memory the workers were forked with
_layout = {}       # name -> (shape, offset) of each array of a network in _buffer
_kept = {}         # job index -> cache or None, of the last encode's jobs run here
_away = {}         # job index -> (connection, gradient slot), of each kept on a worker

_ALIGN = 64        # bytes; each array in the shared buffer starts on a multiple


def _wrapped() -> bool:
    """Whether the encoder's functions are wrapped, as by a span tracer."""
    return hasattr(enc.encode_view, "__wrapped__")


@functools.cache
def _one_blas_thread() -> bool:
    """Set numpy's OpenBLAS to one thread, in this process and in the workers
    it forks from then on, whatever ``OPENBLAS_NUM_THREADS`` says; False,
    setting nothing, where numpy links another BLAS. The setter is looked up
    through a numpy extension (``_umath_linalg``, in numpy 1 and 2 alike),
    whose handle also finds the symbols of the libraries it links."""
    import ctypes
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_set_num_threads64_",
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        if hasattr(lib, name):
            getattr(lib, name)(1)
            return True
    return False


def _processes(jobs: list) -> int:
    """Processes that run ``jobs``, the caller's included: one per core, at
    most one per job, but one where numpy links another BLAS, for fewer than
    two jobs and while the encoder is wrapped. The first call sets OpenBLAS
    to one thread (:func:`_one_blas_thread`) whatever the jobs."""
    if _one_blas_thread() and len(jobs) > 1 and not _wrapped():
        return min(_CORES, len(jobs))
    return 1


def _at(buffer, layout: dict, base: int) -> dict:
    """Views of the network that ``layout``, name -> (shape, offset), places
    in ``buffer`` from byte ``base`` on."""
    return {name: np.ndarray(shape, float, buffer, base + offset)
            for name, (shape, offset) in layout.items()}


def _pixels(crops):
    """``pixels(c)``: the pixels of crop ``crops[c]``, ``(sources, draws)``,
    rendered by :func:`~asympatch.data.render_views` at the first call."""
    @functools.cache
    def pixels(c):
        return data.render_views(*crops[c])
    return pixels


def _run(fn, jobs) -> list:
    """Triples (job index, ok, ``fn(*job)`` or its exception) for ``jobs``,
    tuples that start with the job's index."""
    out = []
    for job in jobs:
        try:
            out.append((job[0], True, fn(*job)))
        except Exception as exc:  # noqa: BLE001 -- raised by the caller, in order
            out.append((job[0], False, exc))
    return out


def _worker(conn, inherited, buffer) -> None:
    """A worker process: run each batch of jobs the caller sends, under the
    caller's ``np.errstate``, and send back the outcomes and the warnings.
    An ``"encode"`` job ``(i, base, crop, indices, keep)`` encodes the
    message's crop ``crop`` with the network at byte ``base`` of ``buffer``
    and returns the representation; if ``keep``, it keeps the cache, until
    the next encode, for the ``"backward"`` job ``(i, drep, slot)``, which
    writes the encoder gradients to the network-sized ``slot`` and returns
    their names. A ``"chunk"`` job ``(i, *args)`` returns
    ``asymmetry._simulate_chunk(*args)``.
    It closes its copies of the caller's ends of the pipes, ``inherited``,
    so that it reads end-of-file, and ends, when the caller closes its own;
    an interrupt from the terminal is the caller's to handle.
    """
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    kept = {}

    def forward(i, base, crop, indices, keep):
        rep, kept[i] = enc.encode_view(bb, _at(buffer, layout, base),
                                       pixels(crop), indices, cache=keep)
        return rep

    def backward(i, drep, slot):
        grads = enc.encode_view_backward(bb, drep, kept[i])
        place = _at(buffer, layout, slot)
        for name, g in grads.items():
            place[name][...] = g
        # held until the next encode, as the cache is (see _encode)
        kept[i] = kept[i], grads
        return list(grads)

    while True:
        try:
            kind, err, *args = conn.recv()
        except EOFError:
            return
        if kind == "chunk":
            fn, (jobs,) = _chunk, args
        elif kind == "encode":
            bb, layout, crops, jobs = args
            fn, pixels = forward, _pixels(crops)
            kept.clear()
        else:
            bb, layout, jobs = args
            fn = backward
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(**err):
            warnings.simplefilter("always")
            out = _run(fn, jobs)
        caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        try:
            conn.send((out, caught))
        except Exception as exc:  # noqa: BLE001 -- an outcome that does not pickle
            conn.send(([(i, False, RuntimeError(f"job {i}: {exc!r}"))
                        for i, _, _ in out], caught))


def _start_workers(size: int, n: int) -> None:
    """Have ``n - 1`` workers or more, sharing a buffer of ``size`` bytes or
    more. A restart keeps the larger count and buffer, so calls that need
    different sizes in turn (a probe's and a step's) keep the same workers."""
    global _buffer
    if _procs:
        if len(_procs) >= n - 1 and len(_buffer) >= size:
            return
        n, size = max(n, len(_procs) + 1), max(size, len(_buffer))
    _stop_workers()
    # imported here: a process that forks no worker need not load them
    import mmap
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    _buffer = mmap.mmap(-1, max(size, mmap.PAGESIZE))
    for _ in range(n - 1):
        mine, theirs = ctx.Pipe()
        proc = ctx.Process(target=_worker, daemon=True,
                           args=(theirs, [mine] + [c for _, c in _procs],
                                 _buffer),
                           name="asympatch-worker")
        proc.start()
        theirs.close()
        _procs.append((proc, mine))


def _stop_workers() -> None:
    """End the worker processes and let their buffer go, once no view of it
    is left; the next parallel call forks new ones."""
    global _buffer
    for proc, conn in _procs:
        conn.close()
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
    _procs.clear()
    _buffer = None


def _warn_again(caught) -> None:
    """Issue again the warnings a worker caught."""
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno)


def _dispatch(messages: dict, fn, jobs) -> list:
    """Send each worker connection its message ``(kind, *rest)`` with the
    caller's ``np.errstate`` after the kind, run ``fn`` on the caller's own
    ``jobs``, and gather the workers' outcomes; returns every job's result
    in job order. A worker's warnings are issued again here, and every job
    ends before the first exception in job order is raised."""
    err = np.geterr()
    try:
        for conn, (kind, *rest) in messages.items():
            conn.send((kind, err, *rest))
        outcomes = _run(fn, jobs)
        for conn in messages:
            out, caught = conn.recv()
            outcomes += out
            _warn_again(caught)
    except BaseException as exc:
        # a worker's reply may still be in flight: start afresh next time
        _stop_workers()
        if isinstance(exc, (EOFError, ConnectionError)):
            raise RuntimeError("a worker process ended") from exc
        raise
    outcomes.sort(key=lambda o: o[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


def _encode(bb, nets: list, crops: list, jobs: list) -> list:
    """The representation of each job ``(net, crop, indices, keep)``: an
    ``enc.encode_view`` pass of ``nets[net]`` over the pixels of
    ``crops[crop]`` (see :func:`_pixels`), which each process renders once
    for the jobs it runs; a worker is sent the crops its jobs read, each
    once. A kept job's cache stays in the process that ran it, for
    :func:`_encode_backward`, until the next encode, whose jobs reuse its
    memory (freed at once, it faulted back in).
    With more than one process the networks, each with ``nets[0]``'s names
    and shapes, are copied one after another into the shared buffer, then
    comes a network-sized gradient slot for each job a worker keeps; an
    encode that needs more room restarts the workers with a larger buffer.
    """
    _kept.clear()
    _away.clear()
    n = _processes(jobs)
    if n > 1:
        _layout.clear()
        span = 0
        for name, a in nets[0].items():
            _layout[name] = (a.shape, span)
            span += -(-a.nbytes // _ALIGN) * _ALIGN
        end = span * len(nets)           # where the gradient slots start
        size = end + span * sum(job[3] for i, job in enumerate(jobs) if i % n)
        _start_workers(size, n)
        for j, net in enumerate(nets):
            for name, place in _at(_buffer, _layout, span * j).items():
                place[...] = net[name]
    messages = {}
    for i, (net, crop, indices, keep) in enumerate(jobs):
        if i % n:
            conn = _procs[i % n - 1][1]
            if keep:
                _away[i] = conn, end + span * len(_away)
            message = messages.setdefault(conn, ("encode", bb, _layout, {}, []))
            message[3][crop] = crops[crop]
            message[4].append((i, span * net, crop, indices, keep))
    pixels = _pixels(crops)

    def here(i, net, crop, indices, keep):
        rep, _kept[i] = enc.encode_view(bb, nets[net], pixels(crop), indices,
                                        cache=keep)
        return rep

    return _dispatch(messages, here, [(i, *job) for i, job in enumerate(jobs)
                                      if i % n == 0])


def _encode_backward(bb, dreps: list) -> list:
    """The encoder gradients of job i of the last :func:`_encode`, which must
    have kept it, from ``dreps[i]``, its representation's gradient, computed
    in the process that holds the job's cache. A worker's gradients are
    views of the job's slot of the shared buffer, valid only until the next
    encode."""
    messages = {}
    for i, drep in enumerate(dreps):
        if i in _away:
            conn, slot = _away[i]
            messages.setdefault(conn, ("backward", bb, _layout, []))[3].append(
                (i, drep, slot))
    grads = _dispatch(
        messages, lambda i, drep: enc.encode_view_backward(bb, drep, _kept[i]),
        [(i, drep) for i, drep in enumerate(dreps) if i not in _away])
    for i, names in enumerate(grads):
        if i in _away:
            place = _at(_buffer, _layout, _away[i][1])
            grads[i] = {name: place[name] for name in names}
    return grads


def _chunk(i, *args):
    """Chunk job i: ``asymmetry._simulate_chunk(*args)``."""
    from .asymmetry import _simulate_chunk   # asymmetry imports this module
    return _simulate_chunk(*args)


def _chunks(jobs: list) -> list:
    """The pair overlaps of each Monte Carlo chunk, ``jobs[i]`` holding the
    arguments of ``asymmetry._simulate_chunk``. A chunk's values depend on
    its arguments alone, so not on the process that runs it."""
    n = _processes(jobs)
    if n > 1:
        _start_workers(0, n)
    messages = {}
    for i, job in enumerate(jobs):
        if i % n:
            messages.setdefault(_procs[i % n - 1][1], ("chunk", []))[1].append(
                (i, *job))
    return _dispatch(messages, _chunk,
                     [(i, *job) for i, job in enumerate(jobs) if i % n == 0])
