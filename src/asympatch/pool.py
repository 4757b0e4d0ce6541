"""The worker pool: processes forked from the calling process that run its
independent jobs, each result byte-identical to running them in order on
the caller.

A job is data; a worker runs only this package's own functions (see
:func:`_worker`). A message holds jobs of one kind: an encoder pass
(:func:`_encode`) or its backward (:func:`_encode_backward`), the trainer's
next-step draw (``train._draw_ahead``), or one Monte Carlo chunk of the
analyzer (:func:`_chunks`). Job i of a call runs on process i % n, the
caller being process 0, and the caller gathers the results in job order.
There is one process per core the process may use, divided by the BLAS
threads per call (:func:`_pool_size`), so jobs run in parallel only where
BLAS is limited (say ``OPENBLAS_NUM_THREADS=1``) or, as for small chunks
(:func:`_chunks`), runs them on one thread. They run in order on the
caller when there is one process or one job, and while the encoder's
functions are wrapped, as ``bench/tracer.py`` wraps them, since a span
timed in a worker would stay there. Workers fork, and ``mmap`` and
``multiprocessing`` load, at the first call that needs them.

The networks do not cross by pickling: at every parallel encode the caller
copies them into an anonymous shared buffer the workers were forked with,
and a worker writes each view's encoder gradients into that view's slot of
it. Processes, not threads: threads hand the interpreter lock back and
forth at every numpy operation, so a thread that loses its core stalls the
other.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from . import encoder as enc

# The variables each BLAS family reads its thread count from at load, first
# set positive one winning; with none set it takes every core.
_BLAS_THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _pool_size(blas: str, environ, cores: int) -> int:
    """Processes that run jobs, the caller's included: as many BLAS thread
    teams as fit the cores, for the BLAS named ``blas`` (numpy's build
    configuration). Jobs that each start a whole team oversubscribe the
    cores, so a BLAS of unknown family leaves the jobs serial. A limit set
    at run time (say by threadpoolctl) is not seen here."""
    family = next((f for f in _BLAS_THREAD_VARS if f in blas.lower()), None)
    for var in _BLAS_THREAD_VARS.get(family, ()):
        value = environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


# processes that run small chunk jobs, then encoder jobs; workers are
# forked, and where the platform cannot fork, every job runs serially
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1) if hasattr(os, "fork") else 1
_BLAS = (np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
         .get("name", ""))
_WORKERS = _pool_size(_BLAS, os.environ, _CORES)
# m * n * k up to which OpenBLAS runs a matrix product on one thread (its
# default GEMM_MULTITHREAD_THRESHOLD, 4, times 65,536): grid 64
_ONE_THREAD_GEMM = 262_144
_procs = []        # (process, connection) per worker, forked by the first parallel call
_buffer = None     # the anonymous shared memory the workers were forked with
_layout = {}       # name -> (shape, offset) of each array of a network in _buffer
_kept = {}         # job index -> cache or None, of the last encode's jobs run here
_away = {}         # job index -> (connection, gradient slot), of each kept on a worker
_ahead = {}        # the draw sent ahead: what it was made for, and its connection or reply

_ALIGN = 64        # bytes; each array in the shared buffer starts on a multiple


def _wrapped() -> bool:
    """Whether the encoder's functions are wrapped, as by a span tracer."""
    return hasattr(enc.encode_view, "__wrapped__")


def _at(buffer, layout: dict, base: int) -> dict:
    """Views of the network that ``layout``, name -> (shape, offset), places
    in ``buffer`` from byte ``base`` on."""
    return {name: np.ndarray(shape, float, buffer, base + offset)
            for name, (shape, offset) in layout.items()}


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
    An ``"encode"`` job ``(i, base, pixels, indices, keep)`` encodes with
    the network at byte ``base`` of ``buffer`` and returns the
    representation; if ``keep``, it keeps the cache, until the next encode,
    for the ``"backward"`` job ``(i, drep, slot)``, which writes the encoder
    gradients to the network-sized ``slot`` and returns their names. A
    ``"draw"`` message's one job ``(0, cfg, rng state, records)`` runs
    ``train._draw`` on a generator in that state and returns ``(pix1, pix2,
    views1, views2, rng state after)``. A ``"chunk"`` job ``(i, *args)``
    returns ``asymmetry._simulate_chunk(*args)``.
    It closes its copies of the caller's ends of the pipes, ``inherited``,
    so that it reads end-of-file, and ends, when the caller closes its own;
    an interrupt from the terminal is the caller's to handle.
    """
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    from . import train     # loaded by the package, before any fork
    kept = {}

    def forward(i, base, pixels, indices, keep):
        rep, kept[i] = enc.encode_view(bb, _at(buffer, layout, base), pixels,
                                       indices, cache=keep)
        return rep

    def backward(i, drep, slot):
        grads = enc.encode_view_backward(bb, drep, kept[i])
        place = _at(buffer, layout, slot)
        for name, g in grads.items():
            place[name][...] = g
        # held until the next encode, as the cache is (see _encode)
        kept[i] = kept[i], grads
        return list(grads)

    def draw(i, cfg, rng_state, records):
        rng = train._generator(rng_state)
        return (*train._draw(cfg, rng, records)[:4], rng.bit_generator.state)

    while True:
        try:
            kind, err, *args = conn.recv()
        except EOFError:
            return
        if kind == "draw":
            fn, jobs = draw, [(0, *args)]
        elif kind == "chunk":
            fn, (jobs,) = _chunk, args
        else:
            bb, layout, jobs = args
            fn = forward if kind == "encode" else backward
        if kind == "encode":
            kept.clear()
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
    """Fork ``n - 1`` workers that share a buffer of ``size`` bytes, unless
    that many, or more, run with as large a buffer; otherwise those that run
    are ended first."""
    global _buffer
    if _procs and len(_procs) >= n - 1 and len(_buffer) >= size:
        return
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
    """End the worker processes, once the draw sent ahead is read and
    dropped, and let their buffer go, once no view of it is left; the next
    parallel call forks new ones."""
    global _buffer
    _settle_draw()
    _ahead.clear()
    for proc, conn in _procs:
        conn.close()
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
    _procs.clear()
    _buffer = None


def _settle_draw() -> None:
    """Read the reply to the draw sent ahead, if it is still in flight, so
    that no other reply crosses it. A worker lost meanwhile leaves none, and
    the next call finds it lost."""
    conn = _ahead.pop("conn", None)
    if conn is None:
        return
    try:
        _ahead["reply"] = conn.recv()
    except (EOFError, OSError):
        _ahead.clear()
    except BaseException:
        _ahead.clear()
        _stop_workers()         # it may be half read: start afresh
        raise


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


def _encode(bb, nets: list, jobs: list) -> list:
    """The representation of each job ``(net, pixels, indices, keep)``: an
    ``enc.encode_view`` pass of ``nets[net]``. A kept job's cache stays in
    the process that ran it, for :func:`_encode_backward`, until the next
    encode, whose jobs reuse its memory (freed at once, it faulted back in).
    With more than one process the networks, each with ``nets[0]``'s names
    and shapes, are copied one after another into the shared buffer, then
    comes a network-sized gradient slot for each job a worker keeps; an
    encode that needs more room restarts the workers with a larger buffer.
    """
    _settle_draw()
    _kept.clear()
    _away.clear()
    n = 1 if len(jobs) < 2 or _wrapped() else _WORKERS
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
    for i, (net, pixels, indices, keep) in enumerate(jobs):
        if i % n:
            conn = _procs[i % n - 1][1]
            if keep:
                _away[i] = conn, end + span * len(_away)
            messages.setdefault(conn, ("encode", bb, _layout, []))[3].append(
                (i, span * net, pixels, indices, keep))

    def here(i, net, pixels, indices, keep):
        rep, _kept[i] = enc.encode_view(bb, nets[net], pixels, indices,
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


def _chunks(jobs: list, gemm: int) -> list:
    """The pair overlaps of each Monte Carlo chunk, ``jobs[i]`` holding the
    arguments of ``asymmetry._simulate_chunk``. A chunk's values depend on
    its arguments alone, so not on the process that runs it. ``gemm`` is
    m * n * k of a chunk's matrix products: up to ``_ONE_THREAD_GEMM`` on
    OpenBLAS, each runs on one thread, so the chunks run on one process per
    core, as many as there are chunks; otherwise they keep the BLAS rule."""
    _settle_draw()
    small = "openblas" in _BLAS.lower() and gemm <= _ONE_THREAD_GEMM
    n = 1 if len(jobs) < 2 or _wrapped() else min(
        _CORES if small else _WORKERS, len(jobs))
    if n > 1:
        _start_workers(0, n)
    messages = {}
    for i, job in enumerate(jobs):
        if i % n:
            messages.setdefault(_procs[i % n - 1][1], ("chunk", []))[1].append(
                (i, *job))
    return _dispatch(messages, _chunk,
                     [(i, *job) for i, job in enumerate(jobs) if i % n == 0])
