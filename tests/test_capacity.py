"""Capacity and mutual-information estimator tests."""

import gc
import math
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apsk_shaper import (
    Constellation,
    DomainError,
    EstimatorError,
    SnrSpec,
    average_power,
    box_muller_apsk,
    dvb_variant_apsk,
    evaluate_row,
    gap_metrics,
    gaussian_capacity,
    make_constellation,
    mi_monte_carlo,
    mi_quadrature,
    min_distance,
    papr,
    square_qam,
)
from apsk_shaper import capacity, symmetry

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

    @pytest.mark.parametrize("db", [3083.0, 4000.0, 1e308])
    def test_from_db_overflow_is_a_domain_error(self, db):
        # 10 ** (db / 10) overflows a float above about 3082.5 dB
        with pytest.raises(DomainError, match="finite"):
            SnrSpec.from_db(db)

    @pytest.mark.parametrize("db,got", [(10**400, "inf"), (-10**400, "0.0")],
                             ids=["above", "below"])
    def test_from_db_of_an_int_past_a_double(self, db, got):
        # 10 ** (db / 10) overflows for both signs; below 0 dB the SNR is 0.0
        with pytest.raises(DomainError, match=f"finite number > 0, got {got}$"):
            SnrSpec.from_db(db)

    def test_from_db_largest_finite(self):
        assert SnrSpec.from_db(3082.0).snr == 10.0 ** 308.2


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

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.sampled_from(["box_muller", "dvb_variant", "qam"]),
        st.integers(1, 3),
        st.floats(0.5, 2.0),
        st.integers(-510, 510),
        st.sampled_from([-10.0, 0.0, 10.0, 30.0]),
    )
    # N0 in the caller's units overflows at one end and is subnormal at the other
    @example("box_muller", 1, 1.9, 510, -10.0)
    @example("qam", 2, 0.5, -510, 30.0)
    def test_power_times_4_to_the_k_moves_no_bit(self, family, half_n, power, k, snr_db):
        # P * 4**k for k across the double range: the points are those at P
        # times 2**k, and every estimator and figure works on the same scaled
        # set, whatever N0 = P * 4**k / snr is in the caller's units
        n = 2 * half_n if family == "dvb_variant" else half_n + 1
        base = make_constellation(family, n, power)
        c = make_constellation(family, n, math.ldexp(power, 2 * k))
        assert c.points.tobytes() == np.ldexp(base.points, k).tobytes()
        assert min_distance(c) == math.ldexp(min_distance(base), k)
        assert papr(c) == papr(base)
        snr = SnrSpec.from_db(snr_db)
        assert mi_quadrature(c, snr, 8) == mi_quadrature(base, snr, 8)

        def monte_carlo(c):  # 64 draws can put the mean below 0: the same error
            try:
                return mi_monte_carlo(c, snr, 64, 3)
            except EstimatorError as exc:
                return str(exc)

        assert monte_carlo(c) == monte_carlo(base)

    def test_rejects_bad_variance(self):
        # P = 1e-300 passes construction, but P/snr underflows to 0
        c = box_muller_apsk(2)
        silent = Constellation(c.label, c.family, c.n, 1e-300, c.points)
        with pytest.raises(DomainError, match="noise variance"):
            mi_quadrature(silent, SnrSpec(1e300))
        with pytest.raises(DomainError, match="noise variance"):
            mi_monte_carlo(silent, SnrSpec(1e300), 100, 0)


class TestGaussianCapacity:
    def test_known_values(self):
        assert gaussian_capacity(SnrSpec(1.0)) == pytest.approx(1.0, abs=1e-15)
        assert gaussian_capacity(SnrSpec.from_db(10.0)) == pytest.approx(LOG2_11, abs=1e-12)
        assert gaussian_capacity(SnrSpec(1e-9)) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            gaussian_capacity(0.0)

    @pytest.mark.parametrize("snr", ["2", True, 10**400, None],
                             ids=["str", "bool", "huge", "none"])
    def test_rejects_snr_that_is_not_a_finite_real(self, snr):
        with pytest.raises(DomainError, match="snr must be a finite number"):
            gaussian_capacity(snr)
        with pytest.raises(DomainError, match="snr must be a finite number"):
            SnrSpec(snr)
        with pytest.raises(DomainError, match="snr must be a finite number"):
            gap_metrics(0.5, snr)
        # as dB, a str or None raised TypeError and True was read as 1 dB; an
        # int past a double is an infinite SNR
        db_match = "snr must be a finite number > 0, got inf" if snr == 10**400 else (
            "snr_db must be a real number")
        with pytest.raises(DomainError, match=db_match):
            SnrSpec.from_db(snr)
        with pytest.raises(DomainError, match=db_match):
            evaluate_row(square_qam(2), snr)


class TestQuadrature:
    def test_single_point_is_zero(self):
        est = mi_quadrature(box_muller_apsk(1), SnrSpec.from_db(7.0))
        assert est.value == 0.0
        assert est.method == "quadrature"
        assert est.std_error == 0.0

    def test_saturates_at_high_snr(self):
        est = mi_quadrature(square_qam(2), SnrSpec.from_db(100.0))
        assert est.value == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
    @pytest.mark.parametrize("family,n", [("qam", 2), ("box_muller", 4), ("box_muller", 8)])
    @pytest.mark.parametrize("db", [3074.0, 3076.0, 3078.0, 3080.0, 3082.0, None],
                             ids=["3074dB", "3076dB", "3078dB", "3080dB", "3082dB", "max"])
    def test_snr_up_to_the_largest_double_gives_log2_m(self, method, family, n, db):
        # |d|^2/N0 passes the double range: the quadrature divided pruned
        # columns too, and Monte Carlo scaled by -1/N0, which is -inf once
        # N0 < 2**-1024 (box_muller from about 3078 dB): 0 times inf gave a
        # NaN estimate, exit 3. From 3074 dB (box_muller) and 3078 dB (qam)
        # Monte Carlo's folded |d|^2/N0 overflows while 1/N0 is finite, and
        # an inf in its operand would make NaN in the product. A
        # RuntimeWarning is an error in this suite
        snr = SnrSpec(sys.float_info.max) if db is None else SnrSpec.from_db(db)
        c = make_constellation(family, n)
        if method == "quadrature":
            est = mi_quadrature(c, snr)
        else:
            est = mi_monte_carlo(c, snr, 1000, 3)
        assert (est.value, est.std_error) == (math.log2(c.M), 0.0)

    def test_regression_box2_5db(self):
        est = mi_quadrature(box_muller_apsk(2), SnrSpec.from_db(5.0), order=40)
        assert est.value == pytest.approx(V2_BOX2_5DB, abs=1e-9)

    def test_rejects_small_order(self):
        with pytest.raises(DomainError):
            mi_quadrature(square_qam(2), SnrSpec(1.0), order=1)

    def test_a_nan_value_is_an_estimator_error(self, monkeypatch):
        # NaN fails no comparison, so a bound written as two rejections let it through
        monkeypatch.setattr(capacity, "_grid_mi", lambda *args: math.nan)
        with pytest.raises(EstimatorError, match="nan"):
            mi_quadrature(box_muller_apsk(2), SnrSpec(1.0))

    def test_rejects_order_above_cap_before_building_nodes(self, monkeypatch):
        def no_nodes(*args):
            raise AssertionError("nodes built for a rejected order")

        monkeypatch.setattr(capacity, "gauss_hermite_2d", no_nodes)
        for order in (capacity._MAX_ORDER + 1, 100_000):
            with pytest.raises(DomainError, match=str(capacity._MAX_ORDER)):
                mi_quadrature(square_qam(2), SnrSpec(1.0), order=order)

    def test_accepts_order_at_cap(self):
        c, snr = box_muller_apsk(2), SnrSpec.from_db(5.0)
        top = mi_quadrature(c, snr, order=capacity._MAX_ORDER).value
        assert top == pytest.approx(V2_BOX2_5DB, abs=1e-6)

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


def copy_of(c):
    """A new Constellation with the same fields, so nothing is cached for it."""
    return Constellation(c.label, c.family, c.n, c.power, c.points)


class TestStructureCache:
    # square QAM's two axes are the same points, so its one axis takes orbits
    @pytest.mark.parametrize("c,sets", [(box_muller_apsk(4), 1), (square_qam(4), 1)],
                             ids=["box_muller", "qam"])
    def test_structure_is_computed_once_per_constellation(self, monkeypatch, c, sets):
        calls = {"orbits": 0, "product_axes": 0}

        def counting(name):
            inner = getattr(symmetry, name)

            def wrapper(points):
                calls[name] += 1
                return inner(points)

            return wrapper

        for name in calls:
            monkeypatch.setattr(symmetry, name, counting(name))
        c = copy_of(c)
        grid = [(SnrSpec.from_db(db), order) for db in (0, 10, 20, 30) for order in (40, 60)]
        values = [mi_quadrature(c, snr, order).value for snr, order in grid]
        # one product_axes, and orbits for the set or for a grid's one axis
        assert calls == {"orbits": sets, "product_axes": 1}
        # the same bits as a Constellation evaluated for the first time
        assert values == [mi_quadrature(copy_of(c), snr, order).value for snr, order in grid]

    def test_a_grid_with_two_axes_takes_both(self):
        # X x Y, listed x-slowest, with X != Y: MI(X) + MI(Y), each axis
        # taken as its own set on the x axis at the grid's power; the cached
        # axes are the points times 2**-k, here 2**-2
        xs, ys = [-1.5, 0.25, 2.0], [-0.5, 0.75, 1.0]
        pts = np.array([(x, y) for x in xs for y in ys])
        c = Constellation("grid", "qam", 3, 2.0, pts)
        sets = c._parts
        assert [count for count, *_ in sets] == [1, 1]
        assert c._exponent == 2
        assert [np.ldexp(p[:, 0], 2).tolist() for _, p, _, _ in sets] == [xs, ys]

        def axis(a):
            return Constellation("axis", "qam", 3, 2.0, np.column_stack((a, np.zeros(3))))

        for snr in (SnrSpec.from_db(0.0), SnrSpec.from_db(20.0)):
            for order in (8, 40):
                parts = [mi_quadrature(axis(a), snr, order).value for a in (xs, ys)]
                assert mi_quadrature(c, snr, order).value == parts[0] + parts[1]

    def test_a_grid_whose_axes_differ_by_one_ulp_keeps_both(self):
        xs = square_qam(4).points[::4, 0]
        ys = xs.copy()
        ys[-1] = np.nextafter(ys[-1], np.inf)
        pts = np.array([(x, y) for x in xs for y in ys])
        c = Constellation("grid", "qam", 4, 1.0, pts)
        assert [count for count, *_ in c._parts] == [1, 1]
        same = Constellation("grid", "qam", 4, 1.0, np.array([(x, y) for x in xs for y in xs]))
        assert [count for count, *_ in same._parts] == [2]

    def test_an_edit_to_the_callers_array_does_not_reach_the_entry(self):
        # built from a view of a writable array, the set owns a copy: the
        # cached split and the value stay those of the points it was given
        big = np.zeros((20, 2))
        big[:16] = box_muller_apsk(4).points
        c = Constellation("view", "box_muller_apsk", 4, 1.0, big[:16])
        snr = SnrSpec.from_db(10.0)
        first = mi_quadrature(c, snr).value
        big[3] *= 2.0
        assert mi_quadrature(c, snr).value == first
        assert big.flags.writeable
        assert not any(a.flags.writeable for _, *arrays in c._parts for a in arrays)

    def test_an_entry_dies_with_its_constellation(self):
        c = copy_of(box_muller_apsk(4))
        mi_quadrature(c, SnrSpec(1.0))
        (_, pts, reps, _), = vars(c)["_parts"]
        refs = [weakref.ref(c), weakref.ref(reps)]
        del c, pts, reps
        gc.collect()
        # nothing outside the constellation keeps it or its split alive
        assert [r() for r in refs] == [None, None]

    def test_threads_that_share_a_constellation_get_the_serial_values(self):
        # a race on a miss only computes the same entry twice
        grid = [(SnrSpec.from_db(db), order) for db in (0, 20) for order in (8, 40)]
        shapes = [box_muller_apsk(3), dvb_variant_apsk(2), square_qam(3)]
        want = [[mi_quadrature(copy_of(c), snr, o).value for snr, o in grid] for c in shapes]
        shared = [copy_of(c) for c in shapes]
        got = []

        def work():
            got.append([[mi_quadrature(c, snr, o).value for snr, o in grid] for c in shared])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * len(threads)

    def test_monte_carlo_does_not_use_the_cache(self, monkeypatch):
        monkeypatch.setattr(symmetry, "orbits", None)
        monkeypatch.setattr(symmetry, "product_axes", None)
        c = copy_of(square_qam(2))
        mi_monte_carlo(c, SnrSpec(1.0), 100, 0)
        assert "_parts" not in vars(c)


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
        # samples past 2**53, where the merged draw counts (doubles) stop
        # being exact, and beyond int64; at one point every sample lands in
        # one count. 4e18 passed the old int64 check and asked numpy for a
        # 1.3 PiB table of chunk moments
        for samples in (2**53 + 1, 4 * 10**18, 2**63, 10**23):
            with pytest.raises(DomainError, match=r"samples must be an integer in "
                                                  r"\[1, 9007199254740992\], got "):
                mi_monte_carlo(square_qam(1), SnrSpec(1.0), samples, 0)

    def test_numpy_integers_give_the_same_estimates(self):
        c, snr = box_muller_apsk(2), SnrSpec.from_db(5.0)
        assert mi_quadrature(c, snr, np.int64(40)) == mi_quadrature(c, snr, 40)
        assert mi_monte_carlo(c, snr, np.int64(1000), np.uint64(7)) == mi_monte_carlo(
            c, snr, 1000, 7
        )


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

    def test_rejects_an_int_past_a_double(self):
        # np.isfinite raised TypeError on an int it cannot take as a double
        with pytest.raises(DomainError, match="mi must be a finite value >= 0"):
            gap_metrics(10**400, SnrSpec(1.0))

    def test_takes_any_real(self):
        # np.isfinite raised TypeError on a Fraction
        assert gap_metrics(Fraction(1, 4), SnrSpec(1.0)) == gap_metrics(0.25, SnrSpec(1.0))

    @pytest.mark.parametrize("mi", ["1", True, None], ids=["str", "bool", "none"])
    def test_rejects_mi_that_is_not_a_real(self, mi):
        # a str or None raised TypeError, and True was read as 1 bit
        with pytest.raises(DomainError, match="mi must be a real number"):
            gap_metrics(mi, SnrSpec.from_db(10.0))
