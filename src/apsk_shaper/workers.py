"""Per-thread scratch and the helper threads of Monte Carlo's strata.

Every bounded-memory walk sizes its blocks from one budget, _BLOCK_ELEMENTS
doubles (1 MB, so a block stays in a 2 MB L2 cache from the operation that
forms it to its reduction), or from its least block if that is more.
Monte Carlo, `min_distance`'s pair blocks, `lemma_scan` and
`point_set_cf` fit all of a block's buffers in one budget together. The
quadrature (`capacity._grid_mi`) fits each of its three in one budget:
the factors, the (nb, R, R) sums and the (3, nb, M) differences, so its
one `take` asks for up to three budgets and the pruning mask (185,440
doubles, 1.48 MB, at box_muller n=16 and order 40). Every walk takes its
buffers from the calling thread's `_Workspace`: flat float buffers on
64-byte lines, kept across calls up to four budgets, so a run of calls
does not fault the same pages in again. Each walk reads
`workers._BLOCK_ELEMENTS` and `workers._WORKSPACE` at call time, so a test
changes them in one place.

Monte Carlo's strata run on the calling thread and on helper threads, one
thread per available core in all (`_run_strata`). The helpers are one
module-level pool of daemon threads that serve one `queue.SimpleQueue`,
started on the first call that needs one, never at import, shared by every
later call and never shrunk; a forked child drops it and makes its own.
The pool is plain `threading`: `concurrent.futures` (and the `logging` it
imports, about 0.7 MB resident together) is never loaded.
"""

import itertools
import os
import queue
import threading

import numpy as np

# doubles in one block budget (1 MB), the unit of every bounded walk
_BLOCK_ELEMENTS = 1 << 17
# doubles of scratch a thread keeps between calls (4 MB); see _Workspace
_WORKSPACE_DOUBLES = 4 * _BLOCK_ELEMENTS
# threads for the Monte Carlo strata: the caller and _WORKERS - 1 helpers
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no sched_getaffinity on macOS or Windows
    _WORKERS = os.cpu_count() or 1


class _Workspace(threading.local):
    """Flat float buffers that one thread keeps from call to call.

    Each thread sees its own buffer. It grows to the largest request up to
    _WORKSPACE_DOUBLES and is kept for the thread's next call: made
    afresh per call, glibc trimmed the heap after each call and the next one
    faulted the same pages in again (1,640 minor faults per Monte Carlo
    call at qam n=2, 72 per quadrature row at box_muller n=16). A larger
    request gets a buffer for that call alone.
    """

    flat = np.empty(0)

    def take(self, *sizes) -> list:
        """Flat views of the given sizes, disjoint, each on a 64-byte line.

        They are the thread's to use until its next `take`, which may hand
        out the same memory again, so a caller takes all it needs at once.
        The offset moves no bit, but at malloc's 16-byte alignment
        box_muller n=32 at 10 dB took 29.5 ms in the quadrature, not 23.3,
        and 200,000 Monte Carlo draws at n=8, 15 dB up to 48.3 ms, not 39.3.
        Reshaping is left to the caller: here, it cost a small quadrature
        row 5-15 us.
        """
        need = sum(size + -size % 8 for size in sizes) + 7
        flat = self.flat
        if len(flat) < need:
            flat = np.empty(need)
            if need <= _WORKSPACE_DOUBLES:
                self.flat = flat
        at, views = (-flat.ctypes.data % 64) // 8, []
        for size in sizes:
            views.append(flat[at : at + size])
            at += size + -size % 8  # whole lines of 8 doubles
        return views


_WORKSPACE = _Workspace()


def _blocks(count: int, size: int):
    """(lo, hi) of each block of `size` >= 2 rows over `count`, a lone last
    row joined to the block before, for the gemm walks of Monte Carlo and
    the CF: only a walk of one row has a one-row block, which goes through gemv."""
    ends = range(size, count - 1, size)
    return zip((0, *ends), (*ends, count))


_pool = None  # [helper count, the SimpleQueue its helpers serve], made on first use
_pool_lock = threading.Lock()


def _serve(tasks):
    """A helper thread's loop: run each task queued."""
    while True:
        tasks.get()()


def _helpers(count: int):
    """The task queue of the module's helper threads, at least `count` of them.

    The first call makes the queue; a call that asks for more helpers than
    are running (a larger _WORKERS) starts the missing ones.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = [0, queue.SimpleQueue()]
        while _pool[0] < count:
            threading.Thread(target=_serve, args=(_pool[1],), name=f"apsk-mc_{_pool[0]}",
                             daemon=True).start()
            _pool[0] += 1
        return _pool[1]


def _forget_pool():
    """In a forked child: drop the parent's pool, whose threads did not fork."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_forget_pool)


def _run_strata(strata: int, run) -> None:
    """run(i) for i in range(strata) on the calling thread and the pool's helpers.

    Every worker takes the next stratum from one shared index, so with one
    worker no pool is used. The caller queues one task per helper it can
    use, which may sit behind another call's; once the caller runs out of
    strata it closes the call, so a task that starts after that returns at
    once, and it waits only for the helpers already running one. A stratum
    that raises, or a Ctrl-C, stops every worker before its next stratum;
    once the running strata have finished the call raises that error (the
    lowest failing stratum's, if several fail).
    """
    index = itertools.count()  # next() on it is atomic under the GIL
    stop = threading.Event()  # set once a stratum fails and when the call closes
    failed = []
    running = [0]  # helpers inside work(), counted under `idle`
    idle = threading.Condition()

    def work():
        while not stop.is_set():
            i = next(index)
            if i >= strata:
                return
            try:
                run(i)
            except BaseException as exc:  # the caller raises it
                failed.append((i, exc))
                stop.set()

    def helper():
        with idle:
            if stop.is_set():
                return
            running[0] += 1
        try:
            work()
        finally:
            with idle:
                running[0] -= 1
                idle.notify()

    if min(_WORKERS, strata) > 1:
        tasks = _helpers(_WORKERS - 1)
        for _ in range(min(_WORKERS, strata) - 1):
            tasks.put(helper)
    try:
        work()
    finally:
        with idle:
            stop.set()
            idle.wait_for(lambda: not running[0])
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
