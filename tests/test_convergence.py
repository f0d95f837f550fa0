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


def _block_edges(k_max):
    """The last k of every lemma block and the first of the next, up to k_max."""
    block = convergence._LEMMA_BLOCK
    return {k for j in range(1, k_max // block + 1) for k in (j * block, j * block + 1)
            if k <= k_max}


class TestLemma:
    def test_known_values(self):
        rows, ok = lemma_scan(10, range(1, 11), 1e-9)
        assert ok
        assert [row[0] for row in rows] == list(range(1, 11))
        assert rows[0][1:3] == pytest.approx((-1.0, -0.6931471805599453), abs=1e-14)
        assert rows[1][1:3] == pytest.approx(
            (-0.6137056388801094, -0.2876820724517809), abs=1e-13
        )
        assert rows[9][1:3] == pytest.approx(
            (13.02585092994046, 13.368260276479063), abs=1e-11
        )

    def test_rejects_k_max_past_the_exact_doubles(self):
        # the bad rtol stops the call at once should k_max ever pass
        message = r"k_max must be an integer in \[1, 9007199254740992\]"
        with pytest.raises(DomainError, match=message):
            lemma_scan(2**53 + 1, [1], None)

    def test_accepts_numpy_integers(self):
        rows, ok = lemma_scan(np.int64(10), [np.int32(3), np.int64(10)], np.float64(1e-9))
        assert ok and rows == lemma_scan(10, [3, 10], 1e-9)[0]
        assert [type(row[0]) for row in rows] == [int, int]

    def test_scan_matches_direct_sums(self):
        ks = (1, 2, 17, 500, 1000)
        rows, _ = lemma_scan(1000, ks, 1e-9)
        assert [row[0] for row in rows] == list(ks)
        for k, lhs, rhs, _ in rows:
            direct = _lemma_direct(k)
            assert lhs == pytest.approx(direct[0], rel=1e-14, abs=1e-14)
            assert rhs == pytest.approx(direct[1], rel=1e-12)

    def test_bound_holds_to_1e5(self):
        rows, ok = lemma_scan(100_000, range(1, 100_001), 1e-9)
        assert ok and len(rows) == 100_000
        assert all(lhs <= rhs + 1e-9 * abs(rhs) for _, lhs, rhs, _ in rows)

    @pytest.mark.parametrize("k_max", [
        convergence._LEMMA_BLOCK - 1,
        convergence._LEMMA_BLOCK,
        convergence._LEMMA_BLOCK + 1,
        10**6,
    ])
    def test_blocks_have_the_bits_of_one_cumsum(self, k_max):
        lhs, rhs = _lemma_whole(k_max)
        # every k over one or two blocks; at 10**6 every 1000th and the edges
        stride = 1 if k_max <= convergence._LEMMA_BLOCK + 1 else 1000
        keep = sorted(set(range(1, k_max + 1, stride)) | _block_edges(k_max) | {k_max})
        rows, ok = lemma_scan(k_max, keep, 1e-9)
        assert ok and [row[0] for row in rows] == keep
        at = np.asarray(keep) - 1
        assert np.array([row[1] for row in rows]).tobytes() == lhs[at].tobytes()
        assert np.array([row[2] for row in rows]).tobytes() == rhs[at].tobytes()

    def test_memory_is_bounded(self, monkeypatch):
        # a cold workspace takes the walk's four buffers (1.05 MB) whatever
        # k_max; the whole arrays took 24 bytes per k (24 MB at 10**6)
        monkeypatch.setattr(workers, "_WORKSPACE", workers._Workspace())
        tracemalloc.start()
        try:
            rows, ok = lemma_scan(10**7, [1, 10**7], 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and [row[0] for row in rows] == [1, 10**7]
        assert peak <= 1.2e6


class TestLemmaAudit:
    @pytest.mark.parametrize("k_max", [1, convergence._LEMMA_BLOCK + 1, 100_000, 10**6])
    def test_rows_have_the_bits_of_the_whole_arrays(self, k_max):
        lhs, rhs = _lemma_whole(k_max)
        # the last k of every block and the first of the next, across the carry
        keep = sorted({1, max(1, k_max // 2), k_max} | _block_edges(k_max))
        rows, ok = lemma_scan(k_max, keep, 1e-9)
        assert ok
        assert [row[0] for row in rows] == keep
        for k, left, right, margin in rows:
            assert (left, right) == (lhs[k - 1], rhs[k - 1])
            assert margin == rhs[k - 1] - lhs[k - 1]

    def test_keeps_each_row_once_in_ascending_order(self):
        # the rows came back in the order given, a repeated k twice
        rows, ok = lemma_scan(100_000, [40_000, 3, np.int64(3), 1], 1e-9)
        assert ok and [row[0] for row in rows] == [1, 3, 40_000]
        assert rows == lemma_scan(100_000, [1, 3, 40_000], 1e-9)[0]

    def test_reports_a_failed_bound(self):
        # rhs - |rhs| < lhs at k = 1, where both sides are negative
        rows, ok = lemma_scan(10, [], -1.0)
        assert (rows, ok) == ([], False)
        # a NaN bound holds nowhere
        assert lemma_scan(10, [], math.nan) == ([], False)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            lemma_scan(0, [1], 1e-9)

    # a str keep entry raised TypeError and a float IndexError, True kept the
    # row of k = 1, and a k outside [1, k_max] was dropped without a word; a
    # str or None rtol raised numpy's UFuncTypeError, and True was taken as 1.0
    @pytest.mark.parametrize("entry, rtol, message", [
        ("5", 1e-9, r"keep entry must be an integer in \[1, 10\]"),
        (5.0, 1e-9, r"keep entry must be an integer in \[1, 10\]"),
        (True, 1e-9, r"keep entry must be an integer in \[1, 10\]"),
        (0, 1e-9, r"keep entry must be an integer in \[1, 10\]"),
        (11, 1e-9, r"keep entry must be an integer in \[1, 10\]"),
        (5, "1e-9", "rtol must be a real number"),
        (5, None, "rtol must be a real number"),
        (5, True, "rtol must be a real number"),
    ], ids=["str", "float", "bool", "zero", "past-k-max", "rtol-str", "rtol-none", "rtol-bool"])
    def test_rejects_keep_entries_that_are_not_ks_and_rtols_that_are_not_reals(
        self, entry, rtol, message
    ):
        with pytest.raises(DomainError, match=message):
            lemma_scan(10, [1, entry], rtol)


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

    # a lone last point (257, 513 points) joins the block before it
    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 513, 1000])
    @pytest.mark.parametrize("t_count", [1, 2, 49])
    def test_blocks_have_the_bits_of_one_mean(self, m, t_count):
        rng = np.random.default_rng(m + t_count)
        pts, t = rng.standard_normal((m, 2)), 2.0 * rng.standard_normal((t_count, 2))
        whole = np.exp(1j * (pts @ t.T)).mean(axis=0)
        assert point_set_cf(pts, t).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_every_point_is_in_one_block(self, monkeypatch, blocks):
        # 257 and 513 points: the lone last point joins the block before it,
        # so no phase is formed twice and no block has one point (gemv)
        m = blocks * convergence._CF_BLOCK + 1
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

    def test_slack_positive_and_decreasing(self):
        audit = power_audit("box_muller", range(1, 257))
        assert np.all(audit.slacks > 0)
        assert np.all(np.diff(audit.slacks) < 0)

    @pytest.mark.parametrize("n_values", [[2.9], ["3"], [2, True]])
    def test_rejects_sizes_that_are_not_integers(self, n_values):
        with pytest.raises(DomainError, match="n must be an integer"):
            power_audit("box_muller", n_values)

    def test_rows(self):
        audit = power_audit("box_muller", [2])
        ((n, avg, nominal, slack),) = list(audit.rows())
        assert (n, nominal) == (2, 1.0)
        assert avg + slack == pytest.approx(1.0, abs=1e-15)
