"""Convergence-lab tests: lemma bound, characteristic functions, power audit."""

import cmath
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from apsk_shaper import convergence, workers
from apsk_shaper import (
    DomainError,
    box_muller_apsk,
    cf_convergence_scan,
    default_t_grid,
    dvb_variant_apsk,
    gaussian_cf,
    lemma_scan,
    make_constellation,
    point_set_cf,
    power_audit,
)


def _lemma_direct(k):
    """(k*ln(k) - k, sum_{j<k} ln(j + 1/2)) by a plain loop."""
    return k * math.log(k) - k, math.fsum(math.log(j + 0.5) for j in range(k))


def _lemma_whole(k_max):
    """(lhs, rhs) at every k in [1, k_max] as whole arrays, one cumsum for rhs."""
    whole = np.arange(1, k_max + 1, dtype=np.int64)
    return whole * np.log(whole) - whole, np.cumsum(np.log(np.arange(k_max) + 0.5))


def _margin(k):
    """rhs - lhs of the lemma in closed form: sum_{j<k} ln(j + 1/2) is
    lgamma(k + 1/2) - lgamma(1/2); from k = 50 on, where that difference
    cancels, the Stirling series of the margin."""
    if k < 50:
        return math.lgamma(k + 0.5) - math.lgamma(0.5) - (k * math.log(k) - k)
    return math.log(2) / 2 - 1 / (24 * k) + 7 / (2880 * k**3) - 31 / (40320 * k**5)


# k values per lemma block: its three buffers share the block budget
LEMMA_BLOCK = workers._BLOCK_ELEMENTS // 3


def _block_edges(k_max):
    """The last k of every lemma block and the first of the next, up to k_max."""
    return {k for j in range(1, k_max // LEMMA_BLOCK + 1)
            for k in (j * LEMMA_BLOCK, j * LEMMA_BLOCK + 1) if k <= k_max}


class TestLemma:
    def test_known_values(self):
        rows, ok = lemma_scan(range(1, 11))
        assert ok
        assert [row[0] for row in rows] == list(range(1, 11))
        assert rows[0][1:3] == pytest.approx((-1.0, -0.6931471805599453), abs=1e-14)
        assert rows[1][1:3] == pytest.approx(
            (-0.6137056388801094, -0.2876820724517809), abs=1e-13
        )
        assert rows[9][1:3] == pytest.approx(
            (13.02585092994046, 13.368260276479063), abs=1e-11
        )

    def test_rejects_a_k_past_the_exact_doubles(self):
        message = r"keep entry must be an integer in \[1, 9007199254740992\]"
        with pytest.raises(DomainError, match=message):
            lemma_scan([1, 2**53 + 1])

    def test_accepts_numpy_integers(self):
        rows, ok = lemma_scan([np.int32(3), np.int64(10)])
        assert ok and rows == lemma_scan([3, 10])[0]
        assert [type(row[0]) for row in rows] == [int, int]

    def test_scan_matches_direct_sums(self):
        ks = (1, 2, 17, 500, 1000)
        rows, _ = lemma_scan(ks)
        assert [row[0] for row in rows] == list(ks)
        for k, lhs, rhs, _ in rows:
            direct = _lemma_direct(k)
            assert lhs == pytest.approx(direct[0], rel=1e-14, abs=1e-14)
            assert rhs == pytest.approx(direct[1], rel=1e-12)

    def test_bound_holds_to_1e5(self):
        rows, ok = lemma_scan(range(1, 100_001))
        assert ok and len(rows) == 100_000
        assert all(lhs <= rhs + 1e-9 * abs(rhs) for _, lhs, rhs, _ in rows)

    @pytest.mark.parametrize("k_max", [LEMMA_BLOCK - 1, LEMMA_BLOCK, LEMMA_BLOCK + 1, 10**6])
    def test_blocks_have_the_bits_of_one_cumsum(self, k_max):
        lhs, rhs = _lemma_whole(k_max)
        # every k over one or two blocks; at 10**6 every 1000th and the edges
        stride = 1 if k_max <= LEMMA_BLOCK + 1 else 1000
        keep = sorted(set(range(1, k_max + 1, stride)) | _block_edges(k_max) | {k_max})
        rows, ok = lemma_scan(keep)
        assert ok and [row[0] for row in rows] == keep
        at = np.asarray(keep) - 1
        assert np.array([row[1] for row in rows]).tobytes() == lhs[at].tobytes()
        assert np.array([row[2] for row in rows]).tobytes() == rhs[at].tobytes()

    def test_memory_is_bounded(self, monkeypatch):
        # a cold workspace takes the walk's three buffers (1.05 MB) whatever
        # the largest k; the whole arrays took 24 bytes per k (24 MB at 10**6)
        monkeypatch.setattr(workers, "_WORKSPACE", workers._Workspace())
        tracemalloc.start()
        try:
            rows, ok = lemma_scan([1, 10**7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and [row[0] for row in rows] == [1, 10**7]
        assert peak <= 1.2e6


class TestLemmaAudit:
    @pytest.mark.parametrize("k_max", [1, LEMMA_BLOCK + 1, 100_000, 10**6])
    def test_rows_have_the_bits_of_the_whole_arrays(self, k_max):
        lhs, rhs = _lemma_whole(k_max)
        # the last k of every block and the first of the next, across the carry
        keep = sorted({1, max(1, k_max // 2), k_max} | _block_edges(k_max))
        rows, ok = lemma_scan(keep)
        assert ok
        assert [row[0] for row in rows] == keep
        for k, left, right, margin in rows:
            assert (left, right) == (lhs[k - 1], rhs[k - 1])
            assert margin == rhs[k - 1] - lhs[k - 1]

    def test_keeps_each_row_once_in_ascending_order(self):
        # the rows came back in the order given, a repeated k twice
        rows, ok = lemma_scan([40_000, 3, np.int64(3), 1])
        assert ok and [row[0] for row in rows] == [1, 3, 40_000]
        assert rows == lemma_scan([1, 3, 40_000])[0]

    @pytest.mark.parametrize("rtol", [-1.0, math.nan])
    def test_reports_a_failed_bound(self, monkeypatch, rtol):
        # rhs - |rhs| < lhs at k = 1, where both sides are negative, and a
        # NaN bound holds nowhere; the kept rows are the same either way
        rows, ok = lemma_scan([1, 10])
        assert ok
        monkeypatch.setattr(convergence, "_LEMMA_RTOL", rtol)
        assert lemma_scan([1, 10]) == (rows, False)

    def test_margins_follow_the_closed_form(self):
        # the walk's cumsum drifts from the closed form by 8.6e-8 at
        # k = 10**6 and by under 4e-12 up to k = 1000
        keep = [*range(1, 101), 1000, 10_000, 100_000, 999_999, 10**6]
        rows, ok = lemma_scan(keep)
        assert ok and [row[0] for row in rows] == keep
        for k, _, _, margin in rows:
            assert margin == pytest.approx(_margin(k), rel=0, abs=1e-10 if k <= 1000 else 1e-7)

    def test_rejects_an_empty_keep(self):
        with pytest.raises(DomainError, match="keep must name at least one k"):
            lemma_scan([])

    # a str keep entry raised TypeError and a float IndexError, True kept the
    # row of k = 1, and a k below 1 was dropped without a word
    @pytest.mark.parametrize("entry", ["5", 5.0, True, 0, -3],
                             ids=["str", "float", "bool", "zero", "negative"])
    def test_rejects_keep_entries_that_are_not_ks(self, entry):
        with pytest.raises(DomainError, match=r"keep entry must be an integer in \[1, "):
            lemma_scan([1, entry])


def _psi_double_sum(family, n, power, t):
    """Independent CF oracle: evaluate the generator-grid double sum directly."""
    t1, t2 = t
    if family == "box_muller":
        u = (2 * np.arange(n) + 1) / (2.0 * n)
        v = (2 * np.arange(n) + 1) / (2.0 * n)
    else:
        u = (2 * np.arange(n // 2) + 1) / float(n)
        v = (2 * np.arange(2 * n) + 1) / (4.0 * n)
    total = 0.0 + 0.0j
    for uu in u:
        r = math.sqrt(-power * math.log(uu))
        for vv in v:
            total += cmath.exp(1j * r * (t1 * math.cos(2 * math.pi * vv) + t2 * math.sin(2 * math.pi * vv)))
    return total / (len(u) * len(v))


def _mean(terms):
    """The mean of each column of `terms`, its real and imaginary sums each
    divided by the row count as doubles."""
    total = terms.sum(axis=0)
    total.real /= len(terms)
    total.imag /= len(terms)
    return total


def _cf_block(t_count):
    """Points per `point_set_cf` block at `t_count` t: a block and a lone
    last point joined to it take (3 size + 5) t_count doubles of the budget."""
    return max(2, (workers._BLOCK_ELEMENTS // t_count - 5) // 3)


def empirical(family, n, power, t):
    """CF of one constellation family at a single evaluation point t=(t1,t2)."""
    return point_set_cf(make_constellation(family, n, power).points, [t])[0]


class TestEmpiricalCf:
    def test_at_origin_is_one(self):
        for family, n in (("box_muller", 3), ("dvb_variant", 4), ("qam", 2)):
            assert empirical(family, n, 1.0, (0.0, 0.0)) == 1.0 + 0.0j

    def test_single_point_value(self):
        value = empirical("box_muller", 1, 1.0, (1.0, 0.0))
        assert value.real == pytest.approx(0.6729884322761298, abs=1e-14)
        assert value.imag == pytest.approx(-0.7396530064986669, abs=1e-14)

    def test_axis_degeneracy(self):
        # all box n=2 points sit on the imaginary axis, so <t, w> vanishes
        value = empirical("box_muller", 2, 1.0, (1.0, 0.0))
        assert value == pytest.approx(1.0 + 0.0j, abs=1e-15)

    @pytest.mark.parametrize("family,n", [("box_muller", 1), ("box_muller", 2),
                                          ("box_muller", 5), ("dvb_variant", 2),
                                          ("dvb_variant", 4), ("dvb_variant", 8)])
    @pytest.mark.parametrize("t", [(1.0, 0.0), (0.5, -1.0), (2.0, 2.0)])
    def test_grid_double_sum_identity(self, family, n, t):
        assert empirical(family, n, 1.0, t) == pytest.approx(
            _psi_double_sum(family, n, 1.0, t), abs=1e-12
        )

    def test_bounded_by_one(self):
        grid = default_t_grid()
        values = point_set_cf(box_muller_apsk(7).points, grid)
        assert np.all(np.abs(values) <= 1 + 1e-12)

    # blocks of 256 points at any t count: a lone last point (257, 513
    # points) joins the block before it
    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 513, 1000])
    @pytest.mark.parametrize("t_count", [1, 2, 49])
    def test_blocks_have_the_bits_of_one_mean(self, monkeypatch, m, t_count):
        monkeypatch.setattr(workers, "_BLOCK_ELEMENTS", (3 * 256 + 5) * t_count)
        assert _cf_block(t_count) == 256
        rng = np.random.default_rng(m + t_count)
        pts, t = rng.standard_normal((m, 2)), 2.0 * rng.standard_normal((t_count, 2))
        whole = _mean(np.exp(1j * (pts @ t.T)))
        got = point_set_cf(pts, t)
        if t_count == 1:  # `.sum(axis=0)` of one column sums pairwise
            assert abs(got[0] - whole[0]) <= 1e-14
        else:
            assert got.tobytes() == whole.tobytes()

    # sets not closed under negation, so no two sines cancel exactly: odd
    # box_muller n (289 points at n = 17, two blocks) and a random set
    @pytest.mark.parametrize("pts", [
        *(box_muller_apsk(n).points for n in (3, 5, 7, 17)),
        np.random.default_rng(41).standard_normal((300, 2)),
    ], ids=["box_muller-3", "box_muller-5", "box_muller-7", "box_muller-17", "random-300"])
    def test_terms_have_the_bits_of_complex_exp(self, pts):
        grid = default_t_grid()
        got = point_set_cf(pts, grid)
        assert got.tobytes() == _mean(np.exp(1j * (pts @ grid.T))).tobytes()

    # 889 points is the default budget's block at 49 t
    @pytest.mark.parametrize("size", [2, 3, 7, 889])
    def test_a_block_size_keeps_the_bits(self, monkeypatch, size):
        # 1,849 points in blocks of `size`, the budget set to fit them at 49 t
        pts = box_muller_apsk(43).points
        grid = default_t_grid()
        assert _cf_block(len(grid)) == 889
        monkeypatch.setattr(workers, "_BLOCK_ELEMENTS", (3 * size + 5) * len(grid))
        assert _cf_block(len(grid)) == size
        assert point_set_cf(pts, grid).tobytes() == _mean(np.exp(1j * (pts @ grid.T))).tobytes()

    # the total of M ones is M, and its real part divided by M as a double
    # is 1; a complex `total / m` rounded as M * (1/M): 1 - 2**-53 at M = 49
    @pytest.mark.parametrize("n", [3, 5, 7, 17])
    def test_the_origin_column_is_one(self, n):
        grid = default_t_grid()
        got = point_set_cf(box_muller_apsk(n).points, grid)
        assert got[np.all(grid == 0.0, axis=1)].tobytes() == np.array([1 + 0j]).tobytes()

    def test_a_minus_zero_phase_adds_as_plus_zero(self, monkeypatch):
        # OpenBLAS's gemm sums from +0.0, so the t = 0 phases of a point with
        # both coordinates negative come out +0.0; a gemm that starts from
        # its first product, (-1)*0.0, gives -0.0, whose sine is -0.0 where
        # exp(1j*phase) has +0.0. Every zero phase is made -0.0 here
        def matmul(a, b, out):
            np.matmul(a, b, out=out)
            out[out == 0.0] = -0.0
            return out

        pts = -np.abs(np.random.default_rng(7).standard_normal((300, 2)))
        grid = default_t_grid()
        origin = np.all(grid == 0.0, axis=1)
        phases = matmul(pts, grid.T, np.empty((300, len(grid))))
        assert np.signbit(phases[:, origin]).all()
        monkeypatch.setattr(convergence, "np", SimpleNamespace(**{**vars(np), "matmul": matmul}))
        got = point_set_cf(pts, grid)
        assert got.tobytes() == _mean(np.exp(1j * phases)).tobytes()
        assert got[origin].tobytes() == np.array([1 + 0j]).tobytes()

    def test_a_single_t_has_bounded_memory(self):
        # all M phases and exponentials in one array took 8.4 MB at n = 512
        pts = make_constellation("box_muller", 512).points
        point_set_cf(pts, [(1.0, -0.5)])
        tracemalloc.start()
        try:
            point_set_cf(pts, [(1.0, -0.5)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2e6, peak

    def test_many_t_have_bounded_memory(self, monkeypatch):
        # blocks of 256 points took 124 MB of scratch at 20,000 t, 389 times
        # the result; two-point blocks take 1.76 MB
        pts = make_constellation("box_muller", 32).points
        t = np.random.default_rng(3).standard_normal((20_000, 2))
        monkeypatch.setattr(workers, "_WORKSPACE", workers._Workspace())
        tracemalloc.start()
        try:
            point_set_cf(pts, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, peak

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_every_point_is_in_one_block(self, monkeypatch, blocks):
        # one and two blocks of 49 t and a point more: the lone last point
        # joins the block before it, so no phase is formed twice and no
        # block has one point (gemv)
        m = blocks * _cf_block(len(default_t_grid())) + 1
        pts = np.random.default_rng(m).standard_normal((m, 2))
        spans = []

        def matmul(a, b, out):
            lo = (a.ctypes.data - pts.ctypes.data) // pts.strides[0]
            spans.append((lo, lo + len(a)))
            return np.matmul(a, b, out=out)

        monkeypatch.setattr(convergence, "np", SimpleNamespace(**{**vars(np), "matmul": matmul}))
        point_set_cf(pts, default_t_grid())
        assert [r for lo, hi in spans for r in range(lo, hi)] == list(range(m))
        assert len(spans) == blocks
        assert min(hi - lo for lo, hi in spans) >= 2

    @pytest.mark.parametrize("t_count", [1, 49])
    def test_rejects_an_empty_set(self, t_count):
        with pytest.raises(DomainError, match=r"points must be .* M >= 1"):
            point_set_cf(np.empty((0, 2)), np.ones((t_count, 2)))

    def test_hermitian_symmetry(self):
        grid = default_t_grid()
        pts = dvb_variant_apsk(6).points
        plus = point_set_cf(pts, grid)
        minus = point_set_cf(pts, -grid)
        np.testing.assert_allclose(minus, np.conj(plus), atol=1e-15)


class TestGaussianCf:
    def test_known_values(self):
        unit = gaussian_cf(1.0, [(0.0, 0.0), (1.0, 0.0)])
        assert unit[0] == 1.0
        assert unit[1] == pytest.approx(0.7788007830714049, abs=1e-15)
        assert gaussian_cf(4.0, [(1.0, 1.0)])[0] == pytest.approx(0.1353352832366127, abs=1e-15)

    def test_shape_properties(self):
        radii = np.linspace(0.0, 3.0, 13)
        values = gaussian_cf(1.0, np.column_stack([radii, np.zeros_like(radii)]))
        assert values.shape == (13,)
        assert np.all(values > 0)
        assert np.all(np.diff(values) < 0)
        # radial symmetry; the CF of a zero-mean Gaussian is real
        a, b = gaussian_cf(2.0, [(0.6, 0.8), (1.0, 0.0)])
        assert a == pytest.approx(b, rel=1e-12)
        assert not np.iscomplexobj(values)

    @pytest.mark.parametrize("t", [1e200, -1e200, 1.7e308])
    def test_a_t_whose_square_overflows_gives_zero(self, t):
        # |t|^2 passes the double range above about 1.3e154: that raised an
        # overflow RuntimeWarning, where the cap already makes the value 0
        got = gaussian_cf(1.0, [[t, 0.0], [1.0, 0.0], [t, t]])
        assert got[0] == got[2] == 0.0
        assert got[1] == gaussian_cf(1.0, [[1.0, 0.0]])[0]

    def test_rejects_bad_power(self):
        for power in (0.0, "1", True, 10**400):
            with pytest.raises(DomainError):
                gaussian_cf(power, [(1.0, 0.0)])


# a flat (t1, t2) pair raised IndexError in point_set_cf and AxisError in
# gaussian_cf, and (M, 1) points a matmul ValueError; non-numeric or ragged
# rows raised ValueError, a NaN t gave NaN, and complex points lost their
# imaginary parts
@pytest.mark.parametrize(
    "cf,args",
    [
        (point_set_cf, (np.ones((3, 2)), [1.0, 2.0])),
        (point_set_cf, (np.ones((3, 1)), np.ones((4, 2)))),
        (point_set_cf, (np.ones((3, 1)), np.ones((1, 2)))),
        (point_set_cf, (np.ones(2), np.ones((4, 2)))),
        (point_set_cf, (np.ones((3, 2)), np.ones((4, 3)))),
        (point_set_cf, ([["x", 0.0]], np.ones((4, 2)))),
        (point_set_cf, (np.ones((3, 2)), [[1.0, 2.0], [3.0]])),
        (point_set_cf, (np.ones((3, 2)), [[math.nan, 0.0]])),
        (point_set_cf, (np.ones((3, 2)) + 1j, np.ones((4, 2)))),
        (point_set_cf, (np.ones((3, 2)) > 0, np.ones((4, 2)))),
        (gaussian_cf, (1.0, [1.0, 2.0])),
        (gaussian_cf, (1.0, np.ones((4, 3)))),
        (gaussian_cf, (1.0, np.ones((2, 4, 2)))),
        (gaussian_cf, (1.0, [["1", "2"]])),
        (gaussian_cf, (1.0, [[math.inf, 0.0]])),
    ],
    ids=["flat-t", "m-by-1-points", "m-by-1-points-one-t", "flat-points", "t-by-3",
         "str-points", "ragged-t", "nan-t", "complex-points", "bool-points",
         "gaussian-flat-t", "gaussian-t-by-3", "gaussian-3d-t", "gaussian-str-t",
         "gaussian-inf-t"],
)
def test_cfs_reject_arrays_that_are_not_pairs(cf, args):
    with pytest.raises(DomainError, match=r"array of \(x, y\) rows"):
        cf(*args)


class TestConvergenceScan:
    def test_error_shrinks_with_n(self):
        report = cf_convergence_scan("box_muller", [4, 8, 16, 32, 64])
        maxes = report.max_errors()
        assert maxes[-1] < maxes[0]
        assert maxes[-1] <= 0.5 * maxes[0]

    def test_per_point_refinement(self):
        report = cf_convergence_scan("box_muller", [4, 64])
        assert np.all(report.errors[1] <= report.errors[0] / 2)

    def test_zero_error_at_origin(self):
        report = cf_convergence_scan("box_muller", [4, 64])
        at_origin = np.all(report.t_grid == 0.0, axis=1)
        assert np.all(report.errors[:, at_origin] == 0.0)

    def test_degenerate_n1_is_finite(self):
        report = cf_convergence_scan("box_muller", [1])
        assert np.all(np.isfinite(report.errors))

    def test_rejects_bad_n_list(self):
        with pytest.raises(DomainError):
            cf_convergence_scan("box_muller", [])
        with pytest.raises(DomainError):
            cf_convergence_scan("box_muller", [8, 4])
        # sizes that are not integers; int() would scan n = 4, 8 and 1
        for n_list in ([4.5, 8], [4, "8"], [True, 4]):
            with pytest.raises(DomainError, match="n must be an integer"):
                cf_convergence_scan("box_muller", n_list)

    def test_rows_cover_grid(self):
        report = cf_convergence_scan("box_muller", [4, 8])
        rows = list(report.rows())
        assert len(rows) == 2 * len(report.t_grid)


class TestPowerAudit:
    def test_known_slacks(self):
        audit = power_audit("box_muller", [2, 4])
        assert audit.slacks == pytest.approx(
            [0.1630117832141642, 0.08404854585954491], abs=1e-14
        )
        dvb = power_audit("dvb_variant", [2])
        assert dvb.slacks[0] == pytest.approx(0.3068528194400547, abs=1e-14)

    # an APSK set of R rings falls short of P by P*margin(R)/R: R = n for
    # box_muller, n/2 for dvb_variant, at every n the command audits
    @pytest.mark.parametrize("power", [1.0, 2.5])
    @pytest.mark.parametrize("family,n_values,rings", [
        ("box_muller", range(1, 65), lambda n: n),
        ("dvb_variant", range(2, 65, 2), lambda n: n // 2),
    ], ids=["box_muller", "dvb_variant"])
    def test_slack_is_the_lemma_margin_per_ring(self, family, n_values, rings, power):
        audit = power_audit(family, n_values, power)
        expected = [power * _margin(rings(n)) / rings(n) for n in n_values]
        assert audit.slacks == pytest.approx(expected, rel=1e-12, abs=0)

    def test_slack_positive_and_decreasing(self):
        audit = power_audit("box_muller", range(1, 257))
        assert np.all(audit.slacks > 0)
        assert np.all(np.diff(audit.slacks) < 0)

    @pytest.mark.parametrize("n_values", [[2.9], ["3"], [2, True]])
    def test_rejects_sizes_that_are_not_integers(self, n_values):
        with pytest.raises(DomainError, match="n must be an integer"):
            power_audit("box_muller", n_values)

    def test_rejects_no_sizes(self):
        with pytest.raises(DomainError, match="n_values must be non-empty"):
            power_audit("box_muller", [])

    def test_rows(self):
        audit = power_audit("box_muller", [2])
        ((n, avg, nominal, slack),) = list(audit.rows())
        assert (n, nominal) == (2, 1.0)
        assert avg + slack == pytest.approx(1.0, abs=1e-15)
