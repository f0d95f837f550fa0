"""The MI kernels: Monte Carlo's point-major log-partition blocks against a
row-major reference, their row sums, the exp clip and its gate, node pruning,
and the separable tensor-rule kernel of the quadrature."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from apsk_shaper import (
    SQUARE_QAM,
    Constellation,
    SnrSpec,
    cf_convergence_scan,
    make_constellation,
    mi_monte_carlo,
    mi_quadrature,
    min_distance,
)
from apsk_shaper import capacity, numerics, workers
from apsk_shaper.convergence import lemma_scan
from apsk_shaper.symmetry import orbits, product_axes
from quadrature_rule import log_partition, tensor_rule


def random_case(k, m, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, 2))
    diff = pts[0] - pts
    return 3.0 * rng.standard_normal((k, 2)), diff, np.sum(diff * diff, axis=1)


def python_c(code):
    """The stdout of `python -c code` with the package's source on the path."""
    src = str(Path(capacity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def peak_of(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_blocks(monkeypatch):
    """Wrap capacity.logsumexp_rows; return the list of (size, M) it receives."""
    blocks = []
    inner = capacity.logsumexp_rows

    def recording(a, out=None, **kw):
        blocks.append((a.size, a.shape[-1]))
        return inner(a, out=out, **kw)

    monkeypatch.setattr(capacity, "logsumexp_rows", recording)
    return blocks


def stratum_rows(monkeypatch, pts, count, spans=None):
    """Run `count` draws of point 0 through `_mc_stratum` in one chunk.

    Returns the bytes of every row's log-partition, as its block left it,
    and of the stratum's (sum, M2). Each block's (lo, hi) rows are
    appended to `spans`, when given, in the order the walk forms them.
    """
    rows, base = np.full(count, np.nan), []
    inner = capacity._log_partition

    def recording(lhs, rhs, clip, block, out):
        got = inner(lhs, rhs, clip, block, out)
        if not base:
            base.append(out.ctypes.data)  # the chunk's row 0
        lo = (out.ctypes.data - base[0]) // out.itemsize
        rows[lo : lo + len(out)] = out
        if spans is not None:
            spans.append((lo, lo + len(out)))
        return got

    monkeypatch.setattr(capacity, "_log_partition", recording)
    got = capacity._mc_stratum(pts, 0, count, 3, 0.7)
    monkeypatch.setattr(capacity, "_log_partition", inner)
    assert not np.isnan(rows).any()
    return rows.tobytes(), np.array(got).tobytes()


class TestBlocks:
    @pytest.mark.parametrize("k", [1, 2, 1001])
    @pytest.mark.parametrize("m", [2, 7, 64])
    def test_block_size_does_not_change_bits(self, monkeypatch, k, m):
        # k draws for one of m random points, walked in blocks by the stratum
        pts = np.random.default_rng(k * m).standard_normal((m, 2))
        want = stratum_rows(monkeypatch, pts, k)
        # budgets of 1 and 3 give two-row blocks, so k = 1001 ends in a
        # block of three, its lone last row joined; M - 1 gives one row per
        # budget and blocks of two. Blocks of n rows take (M + 3)*(n + 1) of
        # the budget, room for a joined row. Blocks of 300 and 655 rows
        # moved a row's last bit when the exponents were a two-term product
        # and a separate add. With the folded (M, 3) operand, every width of
        # 2 to 1,001 rows kept the bits here (and of 2 to 4,000 on 16 to 300
        # points) on the FMA kernel, SandyBridge and Prescott, up to
        # 3*M*width = 10**6 on FMA (see _mc_stratum)
        for budget in (1, 3, m - 1, 301 * (m + 3), 656 * (m + 3)):
            monkeypatch.setattr(workers, "_BLOCK_ELEMENTS", budget)
            assert stratum_rows(monkeypatch, pts, k) == want, budget

    @pytest.mark.parametrize(
        "family,n,samples", [("qam", 4, 16 * 41 + 3), ("box_muller", 8, 64 * 9 + 1)]
    )
    def test_mc_does_not_depend_on_the_block_size(self, monkeypatch, family, n, samples):
        c = make_constellation(family, n)
        snr = SnrSpec.from_db(20.0)
        want = mi_monte_carlo(c, snr, samples, 11)
        for budget in (1, 3, c.M - 1):
            monkeypatch.setattr(workers, "_BLOCK_ELEMENTS", budget)
            got = mi_monte_carlo(c, snr, samples, 11)
            assert (got.value, got.std_error) == (want.value, want.std_error), budget

    def test_mc_blocks_stay_within_budget(self, monkeypatch):
        c = make_constellation("box_muller", 8)
        step = capacity._block_rows(c.M)
        blocks = record_blocks(monkeypatch)
        # two blocks per point, the second with a lone last row joined
        mi_monte_carlo(c, SnrSpec.from_db(10.0), c.M * (2 * step + 1), 1)
        assert {m for _, m in blocks} == {c.M}
        assert max(size // c.M for size, _ in blocks) == step + 1
        # a block's exponents and its (3, n) operand share the budget
        assert max(size // c.M * (c.M + 3) for size, _ in blocks) <= workers._BLOCK_ELEMENTS
        assert len(blocks) == 2 * c.M

    @pytest.mark.parametrize("blocks", [0, 1, 2])
    def test_every_row_is_formed_once(self, monkeypatch, blocks):
        # 1, step + 1 and 2*step + 1 draws: a lone last row joins the block
        # before it, so no row is formed twice and no block has one row
        # (gemv) unless the walk has
        pts = np.random.default_rng(blocks).standard_normal((16, 2))
        k = blocks * capacity._block_rows(16) + 1
        spans = []
        stratum_rows(monkeypatch, pts, k, spans)
        assert [r for lo, hi in spans for r in range(lo, hi)] == list(range(k))
        assert len(spans) == max(blocks, 1)
        assert min(hi - lo for lo, hi in spans) >= min(k, 2)

    def test_mc_scratch_starts_on_cache_lines(self, monkeypatch):
        offsets = []
        inner = workers._Workspace.take

        def recording(self, *sizes):
            # off a 64-byte line, box_muller n=8 at 15 dB ran up to 23% slower
            views = inner(self, *sizes)
            offsets.append([a.ctypes.data % 64 for a in views])
            return views

        monkeypatch.setattr(workers._Workspace, "take", recording)
        # chunks of 5, 8 and 5,000 draws: at 5 the row (5 doubles) and block
        # (45, its first 10 the noise) buffers end off a line, so packing
        # them would misalign the next. A stratum takes the (row, block,
        # operand) set, the operand (3 rows of the block's width) last; each
        # starts a block's rows at its first element
        for family, n, samples in [("qam", 3, 9 * 5), ("box_muller", 5, 25 * 7 + 3),
                                   ("box_muller", 8, 64 * 5000)]:
            mi_monte_carlo(make_constellation(family, n), SnrSpec.from_db(15.0), samples, 4)
        assert offsets and all(o == [0, 0, 0] for o in offsets)

    def test_a_workspace_is_kept_up_to_its_cap(self):
        space, cap = workers._Workspace(), workers._WORKSPACE_DOUBLES
        small = space.take(5, 9)
        kept = space.flat
        # a request that fits reuses the buffer; a larger one under the cap
        # replaces it, and one past the cap is made for that call alone
        assert np.shares_memory(space.take(24)[0], kept)
        assert all(np.shares_memory(v, kept) for v in small)
        grown = space.take(cap // 2)[0]
        assert space.flat is not kept and np.shares_memory(grown, space.flat)
        kept = space.flat
        huge = space.take(cap)[0]
        assert space.flat is kept and not np.shares_memory(huge, kept)
        assert len(huge) == cap and huge.ctypes.data % 64 == 0
        # another thread starts from an empty buffer of its own
        other = []
        worker = threading.Thread(target=lambda: other.append(len(space.flat)))
        worker.start()
        worker.join()
        assert other == [0]

    def test_audits_reuse_a_warm_workspace(self, monkeypatch):
        # min_distance's pair blocks (1.0 MB at box_muller n=48), the lemma
        # walk (1.05 MB) and the CF blocks take the thread's workspace: a
        # second call allocates only its results and, for the CF scan, the
        # constellations it builds (two point arrays each, 128 kB at n=64).
        # At n=16 a fresh np.tri mask of the 255 x 255 pairs per block took
        # 65 kB of the 106 kB
        monkeypatch.setattr(workers, "_WORKSPACE", workers._Workspace())
        c, small = make_constellation("box_muller", 48), make_constellation("box_muller", 16)
        build = peak_of(lambda: make_constellation("box_muller", 64))
        calls = {"min_distance": (lambda: min_distance(c), 0),
                 "min_distance n=16": (lambda: min_distance(small), 0),
                 "lemma_scan": (lambda: lemma_scan([1, 10**6]), 0),
                 "cf_convergence_scan": (
                     lambda: cf_convergence_scan("box_muller", [4, 8, 16, 32, 64]), build)}
        for name, (call, built) in calls.items():
            call()
            peak = peak_of(call)
            assert peak < built + 64 * 1024, (name, peak, built)

    def test_a_warm_quadrature_reuses_its_workspace(self, monkeypatch):
        # the differences, the pruning mask and a pruned block's kept columns
        # live in the workspace; a broadcast subtraction took a 134 kB buffer
        # of numpy's at box_muller n=16, and at 30 dB the gathered columns
        # and their indices were new arrays (330 kB in all at n=32)
        monkeypatch.setattr(workers, "_WORKSPACE", workers._Workspace())
        for n, snr_db in [(16, 10.0), (16, 30.0), (32, 30.0)]:
            c, snr = make_constellation("box_muller", n), SnrSpec.from_db(snr_db)
            mi_quadrature(c, snr)
            peak = peak_of(lambda: mi_quadrature(c, snr))
            assert peak < 64 * 1024, (n, snr_db, peak)

    def test_quadrature_blocks_and_temporaries_stay_bounded(self, monkeypatch):
        factors = []
        inner = capacity._chunk_sums

        def recording(coef, d, ends, lo, buf, s):
            # off a 64-byte line, box_muller n=32 ran up to 27% slower
            assert buf.ctypes.data % 64 == 0 and s.ctypes.data % 64 == 0
            hi = inner(coef, d, ends, lo, buf, s)
            size = len(coef) // 2 * (hi - lo)  # A and B are (R, n) each
            factors.append((size, size))
            return hi

        monkeypatch.setattr(capacity, "_chunk_sums", recording)
        lse_blocks = record_blocks(monkeypatch)
        # the square grid's two 1D problems take the same kernel. At order
        # 256 (R = 80) the stack of (R, R) sums of a block of representatives
        # is the larger buffer; box_muller n=15 has 120 representatives of
        # 225 points
        cases = [("box_muller", 32, 40), ("qam", 32, 40), ("box_muller", 15, 256),
                 ("qam", 64, 256)]
        for family, n, order in cases:
            factors.clear()
            r = len(numerics.gauss_hermite_2d(order)[0])
            c = make_constellation(family, n)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                mi_quadrature(c, SnrSpec.from_db(10.0), order)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert factors and not lse_blocks, family
            assert max(max(f) for f in factors) <= max(workers._BLOCK_ELEMENTS, r), family
            # the unblocked kernel held 53 MB of exponents at once at box n=32,
            # and a stack bounded by M alone 7.7 MB at box n=15, order 256
            assert peak <= 4e6, (family, n, order, peak)

    def test_quadrature_factor_blocks_do_not_change_the_value(self, monkeypatch):
        c = make_constellation("box_muller", 8)
        snr = SnrSpec.from_db(10.0)
        want = mi_quadrature(c, snr, 40).value
        # one column per block, and blocks that split the 64 points unevenly
        for budget in (1, 60 * 7):
            monkeypatch.setattr(workers, "_BLOCK_ELEMENTS", budget)
            assert abs(mi_quadrature(c, snr, 40).value - want) <= 1e-14, budget


def mc_result(c, samples, seed=5):
    got = mi_monte_carlo(c, SnrSpec.from_db(20.0), samples, seed)
    return got.value, got.std_error


def track_strata(monkeypatch, fails, error=RuntimeError):
    """Wrap capacity._mc_stratum; a stratum i with fails(i) raises `error`.

    It raises once another stratum has started, and every other stratum
    sleeps 50 ms first, so one is still running when the failing one raises.
    fails(i) runs on the stratum's thread. Returns (the strata started,
    [the number running]).
    """
    lock, other = threading.Lock(), threading.Event()
    started, running = [], [0]
    inner = capacity._mc_stratum

    def tracked(pts, i, *args):
        with lock:
            started.append(i)
            running[0] += 1
        try:
            if fails(i):
                other.wait(timeout=10)
                raise error(f"stratum {i}")
            other.set()
            time.sleep(0.05)
            return inner(pts, i, *args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(capacity, "_mc_stratum", tracked)
    return started, running


class TestWorkers:
    @pytest.mark.parametrize(
        "family,n",
        [("box_muller", 4), ("dvb_variant", 4), ("qam", 4), ("box_muller", 12)],
        ids=["box_muller", "dvb_variant", "qam", "box_muller-12"],
    )
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, family, n):
        # M = 16 and 144 points
        c = make_constellation(family, n)
        for samples in (1, c.M - 1, c.M + 1):
            monkeypatch.setattr(workers, "_WORKERS", 1)
            want = mc_result(c, samples)
            for count in (2, 3, c.M + 1):
                monkeypatch.setattr(workers, "_WORKERS", count)
                assert mc_result(c, samples) == want, (samples, count)

    def test_multi_chunk_strata_with_an_uneven_split(self, monkeypatch):
        c = make_constellation("qam", 2)
        # two or three chunks per point; three workers take 2, 1 and 1 points
        samples = 2 * capacity._MC_CHUNK_ROWS * c.M + 3
        monkeypatch.setattr(workers, "_WORKERS", 1)
        want = mc_result(c, samples)
        for count in (2, 3, c.M + 1):
            monkeypatch.setattr(workers, "_WORKERS", count)
            assert mc_result(c, samples) == want, count

    @pytest.mark.parametrize("count,samples", [(1, 100), (4, 1)])
    def test_one_worker_runs_every_stratum_on_one_thread(self, monkeypatch, count, samples):
        # one stratum (a single draw) also leaves a single worker: the caller
        threads = set()
        inner = capacity._log_partition

        def recording(*args):
            threads.add(threading.get_ident())
            return inner(*args)

        monkeypatch.setattr(workers, "_WORKERS", count)
        monkeypatch.setattr(capacity, "_log_partition", recording)
        mc_result(make_constellation("qam", 2), samples)
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_a_failing_stratum_raises_once_no_stratum_runs(self, monkeypatch, where):
        # at two workers a point fails on the calling thread or on the
        # helper while the other thread's point sleeps; the call waits for
        # that one and starts no other
        caller = threading.get_ident()
        on_caller = where == "caller"
        monkeypatch.setattr(workers, "_WORKERS", 2)
        started, running = track_strata(
            monkeypatch, lambda i: (threading.get_ident() == caller) == on_caller)
        with pytest.raises(RuntimeError, match="stratum"):
            mc_result(make_constellation("qam", 2), 1000)
        assert running == [0] and len(started) == 2
        time.sleep(0.1)
        assert running == [0] and len(started) == 2

    def test_a_failing_stratum_cancels_the_strata_not_started(self, monkeypatch):
        # 64 points of 10,000 draws each; point 0 fails
        monkeypatch.setattr(workers, "_WORKERS", 2)
        started, running = track_strata(monkeypatch, lambda i: i == 0)
        c = make_constellation("box_muller", 8)
        with pytest.raises(RuntimeError, match="stratum 0"):
            mi_monte_carlo(c, SnrSpec.from_db(10.0), c.M * 10000, 0)
        assert running == [0] and len(started) < c.M

    def test_a_ctrl_c_stops_the_helpers(self, monkeypatch):
        # Ctrl-C lands in the caller's stratum while the helper's runs
        caller = threading.get_ident()
        monkeypatch.setattr(workers, "_WORKERS", 2)
        started, running = track_strata(
            monkeypatch, lambda i: threading.get_ident() == caller, KeyboardInterrupt)
        c = make_constellation("box_muller", 4)
        with pytest.raises(KeyboardInterrupt):
            mi_monte_carlo(c, SnrSpec.from_db(10.0), c.M * 100, 0)
        assert running == [0] and len(started) == 2

    def test_a_second_call_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(workers, "_WORKERS", 3)
        c = make_constellation("qam", 4)
        want = mc_result(c, 16 * 200)
        before = set(threading.enumerate())
        seen = set()
        inner = capacity._mc_stratum

        def recording(*args):
            seen.add(threading.current_thread())
            time.sleep(0.002)  # lets the helpers take strata
            return inner(*args)

        monkeypatch.setattr(capacity, "_mc_stratum", recording)
        assert mc_result(c, 16 * 200) == want
        assert len(seen) > 1 and seen <= before
        assert set(threading.enumerate()) <= before

    def test_no_thread_starts_at_import(self):
        out = python_c("import threading; from apsk_shaper import capacity, workers; "
                       "print(threading.active_count(), workers._pool)")
        assert out.split() == ["1", "None"]

    def test_the_first_call_with_helpers_starts_one_and_loads_no_pool_module(self):
        # a quadrature row starts no thread; the first Monte Carlo row at two
        # workers starts the pool's helper, and neither loads
        # concurrent.futures, the logging it imports or numpy.polynomial
        out = python_c(
            "import sys, threading; from apsk_shaper import cli, workers\n"
            "def loaded(): print('loaded', threading.active_count(), *(m in sys.modules for m in "
            "('concurrent.futures', 'logging', 'numpy.polynomial')))\n"
            "row = ['evaluate', '--family', 'qam', '--n', '2', '--snr-db', '10']\n"
            "cli.main(row)\n"
            "loaded()\n"
            "workers._WORKERS = 2\n"
            "cli.main(row + ['--method', 'mc', '--samples', '1000'])\n"
            "loaded()\n")
        lines = [line.split()[1:] for line in out.splitlines() if line.startswith("loaded")]
        assert lines == [["1", "False", "False", "False"], ["2", "False", "False", "False"]]

    def test_threads_that_call_at_once_get_the_serial_bits(self, monkeypatch):
        # the calls share the pool's helpers; each still merges its own
        # strata in point order
        monkeypatch.setattr(workers, "_WORKERS", 3)
        cases = [(make_constellation("qam", 2), 4 * 3001),
                 (make_constellation("box_muller", 4), 16 * 500),
                 (make_constellation("dvb_variant", 4), 16 * 77 + 5)]
        want = [mc_result(c, samples) for c, samples in cases]
        got = {}

        def work(k):
            got[k] = [mc_result(c, samples) for c, samples in cases]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {k: want for k in range(4)}

    # a fork from a process with threads warns on Python 3.12 and later
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_a_forked_child_gets_the_parents_bits(self, monkeypatch):
        # the parent's pool has a helper thread, which a fork does not copy
        monkeypatch.setattr(workers, "_WORKERS", 2)
        c = make_constellation("qam", 2)
        want = mc_result(c, 4 * 3001)
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: writer.send(mc_result(c, 4 * 3001)))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child hung in mi_monte_carlo")
        assert child.exitcode == 0
        assert reader.poll(1) and reader.recv() == want

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_temporaries_stay_within_a_budget_per_worker(self, monkeypatch, count):
        snr = SnrSpec.from_db(10.0)
        monkeypatch.setattr(workers, "_WORKERS", count)
        # the first call imports numpy.random, which numpy loads lazily, and
        # starts the pool's threads; neither is a temporary of the estimator
        mi_monte_carlo(make_constellation("box_muller", 2), snr, 4000, 0)
        # (family, n, samples, budget per worker), each from cold workspaces.
        # At box_muller n=2 each worker holds a 0.5 MB row buffer, a 0.6 MB
        # exponent block (its front the block's noise) and its 0.45 MB
        # (3, 18724) operand, room for 18,723 rows and a joined last one,
        # block and operand within one 1 MB budget: about 1.58 MB (2.37 MB
        # when the block alone filled the budget and the operand came on
        # top). qam n=2 draws 25,000 per point: the same block and operand
        # and 0.2 MB of rows, about 1.26 MB. At box_muller n=8 the 1 MB
        # block of 1,955 rows and a joined one dominates: about 1.12 MB. At
        # qam n=32 with one draw per point each stratum's (M, 3) operand and
        # differences dominate, with the call's per-point sums and moments:
        # about 0.12 MB (0.19 MB with a window of 64 pending strata per worker)
        cases = [("box_muller", 2, 10**6, 1.7e6), ("qam", 2, 10**5, 1.35e6),
                 ("box_muller", 8, 2 * 10**5, 1.2e6), ("qam", 32, 32**2, 0.2e6)]
        for family, n, samples, budget in cases:
            c = make_constellation(family, n)
            monkeypatch.setattr(workers, "_WORKSPACE", workers._Workspace())
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                mi_monte_carlo(c, snr, samples, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budget * min(count, c.M), (family, n, peak)

    def test_temporaries_do_not_grow_with_the_sample_count(self, monkeypatch):
        # 64 and 512 chunks of 16 draws per point at qam n=2: the call held a
        # table of every chunk's moments (6 KB, then 49 KB); now each point
        # merges its own chunks into one row
        monkeypatch.setattr(capacity, "_MC_CHUNK_ROWS", 16)
        monkeypatch.setattr(workers, "_WORKERS", 1)
        c, snr = make_constellation("qam", 2), SnrSpec.from_db(10.0)
        peaks = []
        for samples in (4 * 16 * 64, 8 * 4 * 16 * 64):
            mi_monte_carlo(c, snr, samples, 0)  # the workspace takes its size
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                mi_monte_carlo(c, snr, samples, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096, peaks


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("family,n,samples", [("box_muller", 3, 9 * 250 + 5),
                                              ("qam", 17, 289 * 2 + 100)])
def test_std_error_matches_a_per_draw_recomputation(monkeypatch, count, family, n, samples):
    # box_muller n=3 at 10 dB: five points of 251 draws and four of 250, in
    # chunks of 100, so every point adds three chunks, the last uneven; qam
    # n=17: 289 points of 2 or 3 draws, past the 256 strata the pooling once
    # took at a time. The reference draws each point's Philox stream at once
    # and takes a row-wise log-sum-exp with a max pass, over every draw
    # together
    monkeypatch.setattr(capacity, "_MC_CHUNK_ROWS", 100)
    monkeypatch.setattr(workers, "_WORKERS", count)
    c, snr = make_constellation(family, n), SnrSpec.from_db(10.0)
    seed = 13
    got = mi_monte_carlo(c, snr, samples, seed)
    n0 = c.power / snr.snr
    strata = []
    for i in range(c.M):
        count = samples // c.M + (i < samples % c.M)
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, i, 0, 0]))
        noise = math.sqrt(n0 / 2.0) * rng.standard_normal((count, 2))
        d = c.points[i] - c.points
        e = -(np.sum(d * d, axis=1) + 2.0 * noise @ d.T) / n0
        top = e.max(axis=1)
        lse = top + np.log(np.exp(e - top[:, None]).sum(axis=1))
        strata.append((math.log(c.M) - lse) / math.log(2.0))
    g = np.concatenate(strata)
    assert got.std_error == pytest.approx(g.std(ddof=1) / math.sqrt(samples), rel=1e-12)
    assert got.value == pytest.approx(np.mean([s.mean() for s in strata]), abs=1e-13)


def test_std_error_does_not_depend_on_the_blas_threads():
    # 10,201 strata of 3 or 4 draws, past the 10,000 terms above which
    # OpenBLAS splits a dot product over its threads. Fixed stratum sums and
    # zero M2 stand in for the draws, so std_error is the between-strata
    # term alone; at 1 and 2 threads a dot product moved the last bit of 3
    # of these 8 row sets
    code = (
        "import os; os.environ['OPENBLAS_NUM_THREADS'] = '{}'\n"
        "import math\n"
        "from apsk_shaper import SnrSpec, capacity, make_constellation, mi_monte_carlo\n"
        "c = make_constellation('qam', 101)\n"
        "for k in range(8):\n"
        "    capacity._mc_stratum = lambda pts, i, count, seed, n0: "
        "(count * (1.5 + math.sin(i + k)), 0.0)\n"
        "    print(mi_monte_carlo(c, SnrSpec(10.0), 3 * c.M + 7, 0).std_error.hex())\n"
    )
    one, two = (python_c(code.format(threads)) for threads in (1, 2))
    assert one == two


# row lengths on both sides of numpy's pairwise-summation switches: its
# unroll (8) and its block (128)
ROW_LENGTHS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127, 128, 129]


def layouts(a):
    """`a` in C order and as the point-major view of a C-order (M, rows) block."""
    return {"c_order": a.copy(), "point_major": np.ascontiguousarray(a.T).T}


class TestLogSumExp:
    @pytest.mark.parametrize("m", ROW_LENGTHS)
    def test_row_sum_matches_numpy_on_both_sides_of_the_switch(self, m):
        # exponents over a wide range, each row with an exact 0; the kernel
        # sums rows in numpy's own order for the layout it is handed
        a = -np.abs(8.0 * np.random.default_rng(m).standard_normal((37, m)))
        a[np.arange(37), np.arange(37) % m] = 0.0
        for layout, b in layouts(a).items():
            want = np.log(np.sum(np.exp(b), axis=-1)).tobytes()
            out = np.full(37, np.nan)
            assert numerics.logsumexp_rows(b, out=out) is out
            assert out.tobytes() == want, layout

    def test_clipped_rows_match_exact_sums(self):
        # every row holds an exact 0, as the log-partition rows do; each sum
        # has at most two terms above the floor's e**-700, so it rounds once
        rows = np.array(
            [
                [0.0, -750.0, -1e4, -1e300],
                [-1e300, 0.0, -700.5, -699.0],
                [-1e300, -1e300, -1e300, 0.0],
                [3.0, 0.0, -747.0, -1e300],
                [-2.0, -745.0, 0.0, -700.0],
            ]
        )
        want = np.log([math.fsum(np.exp(row).tolist()) for row in rows])
        got = numerics.logsumexp_rows(rows.copy())
        assert np.all(np.isfinite(got))
        assert got.tobytes() == want.tobytes()


# -- point-major blocks and the clip gate -------------------------------------

LAYOUT_SNR_DBS = (0.0, 30.0, 60.0)


def mc_like_case(k, m, snr_db, seed):
    """Doubled noise as Monte Carlo draws it at N0 = 10**(-snr_db/10), random points."""
    noise2, diff, sq = random_case(k, m, seed)
    n0 = 10.0 ** (-snr_db / 10.0)
    # random_case scales its noise by 3; Monte Carlo's scale is 2*sqrt(N0/2)
    noise2 *= 2.0 * math.sqrt(n0 / 2.0) / 3.0
    return noise2, diff, sq, n0


def record_minima(monkeypatch):
    """Wrap capacity.logsumexp_rows; return (clip, min exponent) per block."""
    seen = []
    inner = capacity.logsumexp_rows

    def recording(a, out=None, **kw):
        seen.append((kw["clip"], float(np.min(a))))
        return inner(a, out=out, **kw)

    monkeypatch.setattr(capacity, "logsumexp_rows", recording)
    return seen


def row_major_log_partition(noise2, diff, sq, n0):
    """The row-major kernel in plain numpy: one (K, M) block, np.max, np.sum."""
    expo = noise2 @ diff.T
    expo += sq
    expo *= -1.0 / n0
    mx = np.max(expo, axis=-1)
    expo -= mx[:, None]
    np.maximum(expo, numerics.EXP_FLOOR, out=expo)
    out = np.log(np.sum(np.exp(expo), axis=-1))
    out += mx
    return out


# the point-major blocks fold -1/N0 into the points' operand, sum each row
# in another order than the reference and skip its max shift; 6.7e-15 nats
# is the largest difference seen for 1 to 1024 points (6.5e-15 with the
# scale as a pass of its own), at this test's row counts and SNRs
LAYOUT_TOL = 2e-14


class TestLayout:
    @pytest.mark.parametrize("k", [1, 2, 3, 40, 257, 1001])
    @pytest.mark.parametrize("snr_db", LAYOUT_SNR_DBS)
    def test_blocks_match_the_row_major_reference(self, snr_db, k):
        for m in range(1, 301):
            noise2, diff, sq, n0 = mc_like_case(k, m, snr_db, seed=k + m)
            got = log_partition(noise2, diff, sq, n0)
            want = row_major_log_partition(noise2, diff, sq, n0)
            assert np.max(np.abs(got - want)) <= LAYOUT_TOL, m

    def test_the_clip_is_skipped_only_where_it_cannot_bite(self, monkeypatch):
        seen = record_minima(monkeypatch)
        for snr_db in np.arange(-10.0, 40.0, 2.5):
            for m in (2, 4, 16, 64, 200):
                log_partition(*mc_like_case(4096, m, snr_db, seed=m))
        skipped = [low for clip, low in seen if not clip]
        taken = [low for clip, low in seen if clip]
        # both branches run, and a skipped block keeps every exponent inside
        # the gate's margin, 100 nats above EXP_FLOOR
        assert skipped and taken
        assert min(skipped) >= -capacity._CLIP_FREE_NATS
        assert min(taken) < numerics.EXP_FLOOR

    def test_the_gate_holds_where_its_bound_is_attained(self, monkeypatch):
        # every draw is N = (1, 1) and the farthest point d = (3, 3) lies on
        # the same diagonal, so its exponent -(|d|^2 + 2<N, d>)/N0 = -30/N0
        # is the gate's bound -(|d|max^2 + 2|N|max |d|max)/N0
        seen = record_minima(monkeypatch)
        diff = np.array([[0.0, 0.0], [3.0, 3.0], [-1.0, 2.0]])
        sq = np.sum(diff * diff, axis=1)
        for nats in np.linspace(500.5, 699.5, 40):
            log_partition(np.full((4096, 2), 2.0), diff, sq, 30.0 / nats)
        skipped = [low for clip, low in seen if not clip]
        assert skipped and len(skipped) < len(seen)
        assert -capacity._CLIP_FREE_NATS <= min(skipped) < -capacity._CLIP_FREE_NATS + 6.0

    def test_60_db_box_muller_takes_the_clip(self, monkeypatch):
        seen = record_minima(monkeypatch)
        # 200 draws per point for 64 points
        mi_monte_carlo(make_constellation("box_muller", 8), SnrSpec.from_db(60.0), 64 * 200, 2)
        assert seen and all(clip for clip, _ in seen)
        assert min(low for _, low in seen) < numerics.EXP_FLOOR


# _gauss_hermite against hermgauss at orders 2-256, on OpenBLAS's default
# (FMA), SandyBridge and Prescott kernels: nodes within 1.1e-14, kept
# weights within 2.2e-9 relative (their eigenvector components are exact to
# about an ulp of 1, not of themselves). The bounds leave 9x room
RULE_NODE_ATOL = 1e-13
RULE_WEIGHT_RTOL = 2e-8
RULE_ORDERS = range(2, 257)


class TestPrunedRule:
    def test_the_1d_rule_is_hermgauss_where_it_is_kept(self):
        # numerics takes the rule from one eigh (Golub-Welsch), so that the
        # package need not import numpy.polynomial. A 1D node is kept by the
        # tensor rule iff its weight times the largest one reaches
        # MIN_NODE_WEIGHT; the same nodes are kept as under hermgauss
        def kept(w):
            return w * w.max() / np.pi >= numerics.MIN_NODE_WEIGHT

        for order in RULE_ORDERS:
            (x, w), (hx, hw) = numerics._gauss_hermite(order), hermgauss(order)
            assert np.array_equal(kept(w), kept(hw)), order
            assert np.abs(x - hx).max() <= RULE_NODE_ATOL, order
            assert np.abs(w[kept(w)] / hw[kept(w)] - 1.0).max() <= RULE_WEIGHT_RTOL, order

    def test_the_2d_rule_keeps_the_square_symmetry_bit_for_bit(self):
        # symmetry.orbits folds the points by the square's rotations and
        # reflections, which is exact only if the rule is invariant under them
        for order in RULE_ORDERS:
            z, w, _ = numerics.gauss_hermite_2d(order)
            # equal as numbers: an odd order's middle node is 0.0, its image -0.0
            assert np.array_equal(z, -z[::-1]), order
            for image in (w.T, w[::-1], w[:, ::-1]):
                assert image.tobytes() == w.tobytes(), order  # tobytes is C order

    @pytest.mark.parametrize("order", [40, 60])
    def test_dropped_mass_is_negligible(self, order):
        _, w = hermgauss(order)
        full = np.outer(w, w).reshape(-1) / np.pi
        _, kept = tensor_rule(order)
        dropped = full[full < numerics.MIN_NODE_WEIGHT]
        assert len(kept) == len(full) - len(dropped) < len(full)
        assert 0.0 < math.fsum(dropped) < 1e-14

    @pytest.mark.parametrize("order", [2, 40, 256])
    def test_rho_is_the_largest_kept_radius(self, order):
        nodes, _ = tensor_rule(order)
        rho = numerics.gauss_hermite_2d(order)[2]
        assert rho == math.sqrt(float(np.max(np.sum(nodes**2, axis=1))))


# -- the separable tensor-rule kernel -----------------------------------------

KERNEL_ORDERS = (2, 40, 60, 256)
KERNEL_SNR_DBS = (-10.0, 0.0, 10.0, 20.0, 30.0, 60.0, 100.0)
POWERS = (1e-6, 1.0, 1e6)
# the kernel forms each term as a product of two exponentials; against the
# row-wise sums this moves MI by rounding only (3.6e-15 bits at most seen)
SEPARABLE_TOL = 1e-13


def random_set(power, seed=3, m=12):
    """An asymmetric point set of realised power `power` (budget equal)."""
    pts = np.random.default_rng(seed).standard_normal((m, 2))
    pts *= math.sqrt(power / np.mean(np.sum(pts**2, axis=1)))
    return Constellation("random", SQUARE_QAM, 1, power, pts)


def case_id(name):
    return name if name == "random" else f"{name[0]}-{name[1]}"


def kernel_case(name, power):
    return random_set(power) if name == "random" else make_constellation(*name, power=power)


def direct_mi(c, snr, order):
    """Row-wise log-sum-exp over every point j at every kept tensor node."""
    n0 = c.power / snr.snr
    nodes, weights = tensor_rule(order)
    noise2 = (2.0 * math.sqrt(n0)) * nodes
    pts, total = c.points, 0.0
    for i, mult in zip(*(a.tolist() for a in orbits(pts))):
        diff = pts[i] - pts
        sq = np.sum(diff * diff, axis=1)
        total += mult * float(log_partition(noise2, diff, sq, n0) @ weights)
    return max(math.log2(c.M) - total / (c.M * numerics.LN2), 0.0)


def record_partitions(monkeypatch):
    """Wrap capacity._chunk_sums; return (min S, S all finite) per finished S.

    An S is finished by the chunk its representative's columns end in.
    """
    seen = []
    inner = capacity._chunk_sums

    def recording(coef, d, ends, lo, buf, s):
        hi = inner(coef, d, ends, lo, buf, s)
        for j, end in enumerate(ends):
            if lo < end <= hi:
                seen.append((float(s[j].min()), bool(np.all(np.isfinite(s[j])))))
        return hi

    monkeypatch.setattr(capacity, "_chunk_sums", recording)
    return seen


SEPARABLE_CASES = (
    [("box_muller", n) for n in (2, 3, 5, 8, 16)]
    + [("dvb_variant", n) for n in (2, 4, 8, 16)]
    + ["random"]
)


def margin_mask(sq, rho, m, n0):
    """The points kept for x_i as a margin per column, as the kernel once did.

    At a node with |z| <= rho a term is at most
    exp(-(|d|^2 - 2 sqrt(N0) rho |d|)/N0), so j is kept while that margin is
    within (ln M + 37) N0; `capacity._kept_reach` is its closed form.
    """
    margin = np.sqrt(sq) * (2.0 * math.sqrt(n0) * rho)
    return sq - margin <= (math.log(m) + 37.0) * n0


def loop_grid_mi(pts, reps, mults, z, w, rho, n0):
    """The separable kernel one representative at a time, as it was.

    Blocks of nb representatives share the weighted sum of their logs. Each
    representative forms its own factors, in chunks of at most
    _BLOCK_ELEMENTS // (2R) of its kept columns, and sums S = A B^T over
    them; the kernel's stream of a block's columns must give the same bits.
    """
    m, r = len(pts), len(z)
    budget = workers._BLOCK_ELEMENTS
    coef = np.zeros((2 * r, 3))
    coef[:r, 0] = coef[r:, 1] = (-2.0 / math.sqrt(n0)) * z
    coef[r:, 2] = 1.0
    nb = min(len(reps), max(1, min(budget // (3 * m), budget // (r * r))))
    cols = min(m, max(1, budget // (2 * r)))
    total = 0.0
    for lo in range(0, len(reps), nb):
        rows = reps[lo : lo + nb]
        sums = np.empty((len(rows), r, r))
        for s, i in zip(sums, rows.tolist()):
            dx, dy = pts[i, 0] - pts[:, 0], pts[i, 1] - pts[:, 1]
            sq = dx * dx + dy * dy
            keep = margin_mask(sq, rho, m, n0)
            d = np.array([dx, dy, sq / -n0])[:, keep]
            for c in range(0, d.shape[1], cols):
                e = np.exp(coef @ d[:, c : c + cols])
                if c == 0:
                    s[...] = e[:r] @ e[r:].T
                else:
                    s += e[:r] @ e[r:].T
        total += float(mults[lo : lo + len(rows)] @ np.tensordot(np.log(sums), w))
    return math.log2(m) - total / (m * numerics.LN2)


def loop_mi(c, snr, order):
    """MI through `loop_grid_mi`, a square grid as its two axes in turn."""
    n0 = c.power / snr.snr
    z, w, rho = numerics.gauss_hermite_2d(order)
    axes = product_axes(c.points)
    parts = [c.points] if axes is None else [np.column_stack((a, np.zeros_like(a))) for a in axes]
    return max(sum(loop_grid_mi(p, *orbits(p), z, w, rho, n0) for p in parts), 0.0)


# budgets of 1 (one column per chunk) and 420 (2 to 105 columns, so chunks
# end inside a representative's kept columns) and the default. 0 dB keeps
# every column; 30 and 60 dB prune some
STREAM_BUDGETS = {
    1: range(2, 5),
    420: (2, 3, 5, 8, 12, 16),
    workers._BLOCK_ELEMENTS: range(2, 25),
}


class TestStream:
    @pytest.mark.parametrize("budget", list(STREAM_BUDGETS))
    @pytest.mark.parametrize("family", ["box_muller", "dvb_variant", "qam"])
    def test_matches_the_per_representative_loop_bit_for_bit(self, monkeypatch, family, budget):
        monkeypatch.setattr(workers, "_BLOCK_ELEMENTS", budget)
        for n in STREAM_BUDGETS[budget]:
            if family == "dvb_variant" and n % 2:
                continue
            c = make_constellation(family, n)
            for snr_db in (0.0, 30.0, 60.0):
                snr = SnrSpec.from_db(snr_db)
                for order in (2, 40, 61, 256):
                    got = mi_quadrature(c, snr, order).value
                    assert got == loop_mi(c, snr, order), (n, snr_db, order)


class TestSeparableKernel:
    @pytest.mark.parametrize("name", SEPARABLE_CASES, ids=case_id)
    def test_matches_the_row_wise_sums(self, monkeypatch, name):
        # n = 16 costs 2 s per power in the reference; one power covers it
        powers = (1.0,) if name != "random" and name[1] == 16 else POWERS
        seen = record_partitions(monkeypatch)
        for power in powers:
            c = kernel_case(name, power)
            assert product_axes(c.points) is None
            for snr_db in KERNEL_SNR_DBS:
                snr = SnrSpec.from_db(snr_db)
                for order in KERNEL_ORDERS:
                    got = mi_quadrature(c, snr, order).value
                    want = direct_mi(c, snr, order)
                    assert abs(got - want) <= SEPARABLE_TOL, (power, snr_db, order, got - want)
        # every node sum is finite and holds the exact 1 of j = i
        assert seen and all(finite and low >= 1.0 for low, finite in seen)

    @pytest.mark.parametrize("family,n", [("box_muller", 3), ("dvb_variant", 4),
                                          ("box_muller", 6)])
    def test_the_kernel_keeps_what_the_margin_form_keeps_at_the_reach(self, monkeypatch,
                                                                     family, n):
        # a dropped term is below half an ulp of S, so values cannot tell two
        # masks apart; the kernel's kept columns per representative can
        kept = []
        inner = capacity._chunk_sums

        def recording(coef, d, ends, lo, buf, s):
            if lo == 0:
                kept.extend(np.diff(ends, prepend=0).tolist())
            return inner(coef, d, ends, lo, buf, s)

        monkeypatch.setattr(capacity, "_chunk_sums", recording)
        pts = make_constellation(family, n).points
        m = len(pts)
        reps, mults = orbits(pts)
        sq = np.sum((pts[reps][:, None] - pts[None]) ** 2, axis=-1)
        for order in (2, 40, 256):
            z, w, rho = numerics.gauss_hermite_2d(order)
            unit = capacity._kept_reach(rho, m, 1.0)  # the reach at N0 = 1
            for j in (1, m // 2, m - 1):
                # N0 that puts |x_0 - x_j| at the reach, then 1e-9 in or out
                edge = float(np.sum((pts[0] - pts[j]) ** 2)) / unit
                for n0 in (edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)):
                    kept.clear()
                    capacity._grid_mi(pts, reps, mults, z, w, rho, n0)
                    want = np.count_nonzero(margin_mask(sq, rho, m, n0), axis=1).tolist()
                    assert kept == want, (order, j, n0)

    @pytest.mark.parametrize("name", [("box_muller", 3), ("dvb_variant", 4), "random"],
                             ids=case_id)
    def test_pruned_terms_are_negligible_at_every_kept_node(self, name):
        c = kernel_case(name, 1.0)
        pts, m = c.points, c.M
        pruned = 0
        for order in (2, 40, 256):
            rho = numerics.gauss_hermite_2d(order)[2]
            nodes, _ = tensor_rule(order)
            for snr_db in (0.0, 10.0, 20.0, 30.0, 60.0):
                n0 = c.power / SnrSpec.from_db(snr_db).snr
                for i in range(m):
                    diff = pts[i] - pts
                    sq = np.sum(diff * diff, axis=1)
                    keep = sq <= capacity._kept_reach(rho, m, n0)
                    # the closed form keeps what the margin per column keeps
                    assert np.array_equal(keep, margin_mask(sq, rho, m, n0))
                    terms = np.exp(-(sq + 2.0 * math.sqrt(n0) * (nodes @ diff.T)) / n0)
                    bound = math.exp(-37.0) / m * terms.sum(axis=1)
                    assert keep[i]
                    assert np.all(terms[:, ~keep] < bound[:, None]), (order, snr_db, i)
                    pruned += int(np.count_nonzero(~keep))
        assert pruned > 0
