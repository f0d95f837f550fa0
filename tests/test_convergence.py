"""Convergence-lab tests: lemma bound, characteristic functions, power audit."""

import cmath
import math

import numpy as np
import pytest

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


class TestLemma:
    def test_known_values(self):
        ks, lhs, rhs = lemma_scan(10)
        assert list(ks) == list(range(1, 11))
        assert (lhs[0], rhs[0]) == pytest.approx((-1.0, -0.6931471805599453), abs=1e-14)
        assert (lhs[1], rhs[1]) == pytest.approx(
            (-0.6137056388801094, -0.2876820724517809), abs=1e-13
        )
        assert (lhs[9], rhs[9]) == pytest.approx(
            (13.02585092994046, 13.368260276479063), abs=1e-11
        )

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            lemma_scan(0)

    def test_scan_matches_direct_sums(self):
        ks, lhs, rhs = lemma_scan(1000)
        for k in (1, 2, 17, 500, 1000):
            direct = _lemma_direct(k)
            assert lhs[k - 1] == pytest.approx(direct[0], rel=1e-14, abs=1e-14)
            assert rhs[k - 1] == pytest.approx(direct[1], rel=1e-12)

    def test_bound_holds_to_1e5(self):
        _, lhs, rhs = lemma_scan(100_000)
        assert np.all(lhs <= rhs + 1e-9 * np.abs(rhs))


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
        with pytest.raises(DomainError):
            gaussian_cf(0.0, [(1.0, 0.0)])


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

    def test_rows(self):
        audit = power_audit("box_muller", [2])
        ((n, avg, nominal, slack),) = list(audit.rows())
        assert (n, nominal) == (2, 1.0)
        assert avg + slack == pytest.approx(1.0, abs=1e-15)
