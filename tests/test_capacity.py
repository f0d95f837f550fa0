"""Capacity and mutual-information estimator tests."""

import math

import numpy as np
import pytest

from apsk_shaper import (
    Constellation,
    DomainError,
    EstimatorError,
    SnrSpec,
    average_power,
    box_muller_apsk,
    dvb_variant_apsk,
    gap_metrics,
    gaussian_capacity,
    mi_monte_carlo,
    mi_quadrature,
    square_qam,
)

LOG2_11 = 3.4594316186372973
GAPDB_HALF_BIT_AT_0DB = 3.82775685337863  # 10*log10(1/(2**0.5 - 1))

# regression value for box_muller n=2 at 5 dB, order-40 quadrature;
# cross-checked against a 10^7-sample Monte Carlo run (1.1958048 +- 2.8e-4)
V2_BOX2_5DB = 1.195561927616628


class TestSnrSpec:
    def test_db_round_trip(self):
        for db in (-7.0, 0.0, 3.01, 10.0, 25.0):
            spec = SnrSpec.from_db(db)
            assert spec.snr == 10.0 ** (db / 10.0)
            assert 10.0 * math.log10(spec.snr) == pytest.approx(db, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            SnrSpec(0.0)
        with pytest.raises(DomainError):
            SnrSpec(-2.0)


class TestNoiseVariance:
    def test_from_power_and_snr(self):
        # N0 = P/snr: scaling P by 4 doubles every point and quadruples N0
        big, unit = box_muller_apsk(2, 4.0), box_muller_apsk(2, 1.0)
        snr = SnrSpec(2.0)
        assert mi_quadrature(big, snr).value == pytest.approx(
            mi_quadrature(unit, snr).value, abs=1e-12
        )
        assert mi_monte_carlo(big, snr, 10_000, 5).value == pytest.approx(
            mi_monte_carlo(unit, snr, 10_000, 5).value, abs=1e-12
        )
        # the budget, not the points, sets N0: P=4 at snr 2 is N0 = 2
        relabeled = Constellation(unit.label, unit.family, unit.n, 4.0, unit.points)
        assert mi_quadrature(relabeled, snr).value == pytest.approx(
            mi_quadrature(unit, SnrSpec(0.5)).value, abs=1e-12
        )

    def test_rejects_bad_variance(self):
        c = box_muller_apsk(2)
        silent = Constellation(c.label, c.family, c.n, 0.0, c.points)
        with pytest.raises(DomainError, match="noise variance"):
            mi_quadrature(silent, SnrSpec(2.0))
        with pytest.raises(DomainError, match="noise variance"):
            mi_monte_carlo(silent, SnrSpec(2.0), 100, 0)


class TestGaussianCapacity:
    def test_known_values(self):
        assert gaussian_capacity(SnrSpec(1.0)) == pytest.approx(1.0, abs=1e-15)
        assert gaussian_capacity(SnrSpec.from_db(10.0)) == pytest.approx(LOG2_11, abs=1e-12)
        assert gaussian_capacity(SnrSpec(1e-9)) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            gaussian_capacity(0.0)


class TestQuadrature:
    def test_single_point_is_zero(self):
        est = mi_quadrature(box_muller_apsk(1), SnrSpec.from_db(7.0))
        assert est.value == 0.0
        assert est.method == "quadrature"
        assert est.std_error == 0.0

    def test_saturates_at_high_snr(self):
        est = mi_quadrature(square_qam(2), SnrSpec.from_db(100.0))
        assert est.value == pytest.approx(2.0, abs=1e-6)

    def test_regression_box2_5db(self):
        est = mi_quadrature(box_muller_apsk(2), SnrSpec.from_db(5.0), order=40)
        assert est.value == pytest.approx(V2_BOX2_5DB, abs=1e-9)

    def test_rejects_small_order(self):
        with pytest.raises(DomainError):
            mi_quadrature(square_qam(2), SnrSpec(1.0), order=1)

    def test_deterministic(self):
        a = mi_quadrature(dvb_variant_apsk(4), SnrSpec.from_db(8.0))
        b = mi_quadrature(dvb_variant_apsk(4), SnrSpec.from_db(8.0))
        assert a == b

    def test_monotone_in_snr(self):
        c = box_muller_apsk(4)
        values = [
            mi_quadrature(c, SnrSpec.from_db(db)).value
            for db in np.arange(-5.0, 20.5, 2.5)
        ]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9)

    @pytest.mark.parametrize(
        "c,snr_db",
        [
            (square_qam(2), 5.0),
            (box_muller_apsk(4), 10.0),
            (dvb_variant_apsk(4), 0.0),
        ],
    )
    def test_upper_bounds(self, c, snr_db):
        est = mi_quadrature(c, SnrSpec.from_db(snr_db))
        n0 = c.power / SnrSpec.from_db(snr_db).snr
        assert est.value <= math.log2(c.M) + 1e-6
        assert est.value <= math.log2(1 + average_power(c) / n0) + 1e-6

    def test_rotation_invariance(self):
        # pi/2 rotations are an exact symmetry of the tensor rule; a generic
        # angle is checked where the rule resolves 1e-9 (low snr)
        def rotated(c, th):
            rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            return Constellation(c.label, c.family, c.n, c.power, c.points @ rot.T)

        for c, db in ((box_muller_apsk(4), 10.0), (box_muller_apsk(8), 15.0)):
            a = mi_quadrature(c, SnrSpec.from_db(db)).value
            b = mi_quadrature(rotated(c, math.pi / 2), SnrSpec.from_db(db)).value
            assert abs(a - b) <= 1e-9
        for n in (2, 4, 8):
            c = box_muller_apsk(n)
            a = mi_quadrature(c, SnrSpec.from_db(0.0)).value
            b = mi_quadrature(rotated(c, 0.3), SnrSpec.from_db(0.0)).value
            assert abs(a - b) <= 1e-9


class TestMonteCarlo:
    def test_single_point_is_zero(self):
        est = mi_monte_carlo(box_muller_apsk(1), SnrSpec(1.0), 1000, 7)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_seed_determinism(self):
        c = square_qam(2)
        a = mi_monte_carlo(c, SnrSpec.from_db(10.0), 100_000, 42)
        b = mi_monte_carlo(c, SnrSpec.from_db(10.0), 100_000, 42)
        assert a == b
        d = mi_monte_carlo(c, SnrSpec.from_db(10.0), 100_000, 43)
        assert d.value != a.value

    def test_agrees_with_quadrature(self):
        c = box_muller_apsk(8)
        mc = mi_monte_carlo(c, SnrSpec.from_db(10.0), 10**6, 12345)
        quad = mi_quadrature(c, SnrSpec.from_db(10.0), order=40)
        assert abs(quad.value - mc.value) <= 3 * mc.std_error
        assert mc.std_error > 0

    def test_uneven_split_is_valid(self):
        c = square_qam(2)
        est = mi_monte_carlo(c, SnrSpec.from_db(5.0), 10_001, 3)
        assert 0.0 <= est.value <= 2.0

    def test_rejects_bad_args(self):
        c = square_qam(2)
        with pytest.raises(DomainError):
            mi_monte_carlo(c, SnrSpec(1.0), 0, 1)
        with pytest.raises(DomainError):
            mi_monte_carlo(c, SnrSpec(1.0), 10, -1)


class TestGapMetrics:
    def test_on_capacity_is_zero(self):
        snr = SnrSpec.from_db(10.0)
        gap_bits, gap_db = gap_metrics(gaussian_capacity(snr), snr)
        assert gap_bits == pytest.approx(0.0, abs=1e-12)
        assert gap_db == pytest.approx(0.0, abs=1e-9)

    def test_half_bit_at_0db(self):
        gap_bits, gap_db = gap_metrics(0.5, SnrSpec(1.0))
        assert gap_bits == pytest.approx(0.5, abs=1e-15)
        assert gap_db == pytest.approx(GAPDB_HALF_BIT_AT_0DB, abs=1e-12)

    def test_zero_mi_gives_infinite_db_gap(self):
        gap_bits, gap_db = gap_metrics(0.0, SnrSpec(1.0))
        assert gap_bits == 1.0
        assert math.isinf(gap_db)

    def test_rejects_mi_above_capacity(self):
        with pytest.raises(EstimatorError):
            gap_metrics(1.1, SnrSpec(1.0))

    def test_rejects_negative_mi(self):
        with pytest.raises(DomainError):
            gap_metrics(-0.1, SnrSpec(1.0))
