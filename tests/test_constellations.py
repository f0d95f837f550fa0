"""Tests for the constellation families and their metrics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apsk_shaper import (
    BOX_MULLER,
    DVB_VARIANT,
    SQUARE_QAM,
    Constellation,
    DomainError,
    SnrSpec,
    average_power,
    box_muller_apsk,
    canonical_family,
    dumps_constellation,
    dvb_variant_apsk,
    evaluate_row,
    loads_constellation,
    make_constellation,
    mi_monte_carlo,
    mi_quadrature,
    min_distance,
    papr,
    peak_power,
    square_qam,
    validate_constellation,
)
from apsk_shaper import constellations
from apsk_shaper.constellations import MAX_N

SQRT_LN2 = 0.8325546111576977
SQRT_LN4 = 1.1774100225154747
SQRT_LN4_3 = 0.5363600213026516
BM2_AVG = 0.8369882167858357
BM4_AVG = 0.9159514541404551  # == (1/4) ln(4096/105)
LN8 = 2.0794415416798357
LN4 = 1.3862943611198906
BM4_PAPR = 2.2702530055277004  # ln8 / ((1/4) ln(4096/105))
DVB4_PAPR = 1.6562889815145494  # ln4 / ((ln4 + ln(4/3))/2)


def closed_form_avg_box(n, power):
    # independent route: the ring-radius sum, not the point mean
    k = np.arange(n)
    return -(power / n) * np.log((2 * k + 1) / (2.0 * n)).sum()


class TestConstruction:
    SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

    def build(self, points=SQUARE, power=1.0):
        return Constellation("hand-built", SQUARE_QAM, 2, power, points)

    @pytest.mark.parametrize("shape", [(4, 3), (0, 2), (4,)], ids=str)
    def test_rejects_points_not_of_shape_m_by_2(self, shape):
        with pytest.raises(DomainError, match=r"\(M, 2\) array of finite numbers, M >= 1"):
            self.build(np.ones(shape))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    def test_rejects_coordinates_that_are_not_finite(self, value):
        pts = self.SQUARE.copy()
        pts[2, 1] = value
        with pytest.raises(DomainError, match="finite numbers"):
            self.build(pts)

    @pytest.mark.parametrize("big", [1e154, -1e154, 1e200, 1.7e308])
    def test_coordinates_whose_squared_distances_overflow_give_the_scaled_sets_values(
        self, big
    ):
        # |x_i - x_j|^2 reaches 8 big^2; such a set was rejected, as its MI
        # once came out NaN. Now every figure is that of the points times
        # 2**-k, scaled back, and MI that of the scaled set, bit for bit
        pts = self.SQUARE.copy()
        pts[1, 1] = big
        c = self.build(pts, power=1e308)
        k = math.frexp(abs(big))[1]
        assert c._exponent == k and c.points.tobytes() == pts.tobytes()
        unit = self.build(np.ldexp(pts, -k), power=math.ldexp(1e308, -2 * k))
        assert unit._exponent == 0
        assert peak_power(c) == big * big  # inf past the double range
        assert papr(c) == papr(unit) == 4.0
        snr = SnrSpec(10.0 * unit.power)  # N0 = 0.1 in the scaled units
        assert mi_quadrature(c, snr) == mi_quadrature(unit, snr)
        assert mi_monte_carlo(c, snr, 200, 1) == mi_monte_carlo(unit, snr, 200, 1)

    def test_accepts_coordinates_up_to_the_distance_bound(self):
        # 8 big^2 just below the largest double: every squared distance and
        # the quadrature stay finite
        big = 4.7e153
        pts = np.array([[big, big], [-big, -big], [big, -big], [-big, big]])
        c = self.build(pts, power=4.0 * big * big)
        assert np.all(c.points == pts)
        assert average_power(c) == pytest.approx(2.0 * big * big, rel=1e-15)
        assert min_distance(c) == 2.0 * big
        assert 0.0 < mi_quadrature(c, SnrSpec.from_db(10.0)).value <= 2.0

    def test_apsk_past_the_old_distance_bound_is_the_scaled_set(self):
        # box_muller n=2 at P = 1e308 keeps its squared radii (1.4e308) but
        # not the squared distance across the centre, and was rejected
        c = make_constellation("box_muller", 2, 1e308)
        unit = make_constellation("box_muller", 2, math.ldexp(1e308, -1022))
        assert c.points.tobytes() == np.ldexp(unit.points, 511).tobytes()
        validate_constellation(c)
        assert min_distance(c) == math.ldexp(min_distance(unit), 511)
        snr = SnrSpec.from_db(10.0)
        assert mi_quadrature(c, snr).value == mi_quadrature(unit, snr).value

    # a complex array lost its imaginary parts with only a ComplexWarning,
    # numeric strings were parsed and a bool array read as 0.0 and 1.0
    @pytest.mark.parametrize(
        "points",
        [[[0.0, 1.0], [2.0]], [["x", 0.0]], [[10**400, 0]],
         SQUARE + 1j, [["1e0", " 2 "]], SQUARE > 0],
        ids=["ragged", "str", "huge", "complex", "numeric-str", "bool"],
    )
    def test_rejects_points_that_are_not_numbers(self, points):
        with pytest.raises(DomainError, match="finite numbers"):
            self.build(points)

    @pytest.mark.parametrize("power", [0.0, 10**400, "1", True],
                             ids=["zero", "huge", "str", "bool"])
    def test_rejects_power_that_is_not_a_finite_real(self, power):
        # else the division P/snr would raise OverflowError or TypeError, or
        # take True as 1
        with pytest.raises(DomainError, match="power must be a finite number > 0"):
            self.build(power=power)

    def test_stores_power_as_a_float(self):
        c = self.build(power=np.float32(2.0))
        assert type(c.power) is float and c.power == 2.0

    def test_owns_a_read_only_c_order_float64_copy(self):
        given = np.asfortranarray(np.arange(32).reshape(16, 2))  # int64, F order
        c = self.build(given)
        assert c.points.dtype == np.float64 and c.points.flags.c_contiguous
        assert not c.points.flags.writeable and given.flags.writeable
        given[3] = 99  # an edit to the caller's array does not reach c
        assert np.array_equal(c.points, np.arange(32).reshape(16, 2))

    def test_power_figures_are_those_of_the_points(self):
        c = box_muller_apsk(5, 3.0)
        sq = np.sum(c.points**2, axis=1)
        assert average_power(c) == float(np.mean(sq))
        assert peak_power(c) == float(np.max(sq))

    # |x| below 1e150 keeps x*x finite
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.tuples(*2 * [st.floats(-1e150, 1e150)]), min_size=1, max_size=64))
    def test_power_figures_keep_the_bits_of_the_row_sum(self, points):
        # x*x + y*y in place of np.sum(points**2, axis=1), the same bits, over
        # the points times 2**-k and scaled back by 4**k. That is the caller's
        # row sum wherever no square is subnormal; below 2**-1022 the row sum
        # rounds every square to the subnormal grid, the scaled one only once
        c = self.build(points)
        k = c._exponent
        sq = np.sum(np.ldexp(np.array(points), -k) ** 2, axis=1)
        assert average_power(c).hex() == math.ldexp(float(np.mean(sq)), 2 * k).hex()
        assert peak_power(c).hex() == math.ldexp(float(np.max(sq)), 2 * k).hex()


class TestBoxMuller:
    def test_single_point(self):
        c = box_muller_apsk(1)
        assert c.points.shape == (1, 2)
        assert c.points[0, 0] == pytest.approx(-SQRT_LN2, abs=1e-15)
        assert abs(c.points[0, 1]) < 1e-15
        assert np.hypot(*c.points[0]) == pytest.approx(SQRT_LN2, abs=1e-15)
        phase = math.atan2(c.points[0, 1], c.points[0, 0]) % (2 * math.pi)
        assert phase == pytest.approx(math.pi, abs=1e-15)

    def test_n2_geometry(self):
        c = box_muller_apsk(2)
        # two rings on the imaginary axis, phase indices fastest
        assert np.allclose(np.abs(c.points[:, 0]), 0.0, atol=1e-15)
        assert c.points[:, 1] == pytest.approx(
            [SQRT_LN4, -SQRT_LN4, SQRT_LN4_3, -SQRT_LN4_3], abs=1e-15
        )
        # two points per ring
        radii = np.hypot(c.points[:, 0], c.points[:, 1]).reshape(2, 2)
        assert radii.ravel() == pytest.approx([SQRT_LN4, SQRT_LN4, SQRT_LN4_3, SQRT_LN4_3])

    def test_cardinality(self):
        for n in (1, 2, 3, 5, 8, 17):
            assert box_muller_apsk(n).points.shape == (n * n, 2)

    def test_average_power_examples(self):
        assert average_power(box_muller_apsk(2)) == pytest.approx(BM2_AVG, abs=1e-14)
        assert average_power(box_muller_apsk(4)) == pytest.approx(BM4_AVG, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64])
    @pytest.mark.parametrize("power", [0.5, 1.0, 10.0])
    def test_average_power_matches_closed_form(self, n, power):
        avg = average_power(box_muller_apsk(n, power))
        ref = closed_form_avg_box(n, power)
        assert avg == pytest.approx(ref, rel=1e-12)

    def test_power_bound_strict(self):
        for n in range(1, 129):
            assert average_power(box_muller_apsk(n)) < 1.0

    def test_ring_membership(self):
        c = box_muller_apsk(6)
        radii = np.sqrt((c.points**2).sum(axis=1)).reshape(6, 6)
        ring_radii = np.sqrt(-np.log((2 * np.arange(6) + 1) / 12.0))
        for ring_radius, row in zip(ring_radii, radii):
            assert np.all(np.abs(row - ring_radius) <= 1e-9 * ring_radius)

    def test_rotational_symmetry(self):
        c = box_muller_apsk(5)
        th = 2 * math.pi / 5
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rotated = c.points @ rot.T
        for p in rotated:
            assert np.min(np.sum((c.points - p) ** 2, axis=1)) < (1e-9) ** 2

    def test_scaling_equivariance(self):
        base = box_muller_apsk(4, 1.0).points
        scaled = box_muller_apsk(4, 2.5).points
        np.testing.assert_allclose(scaled, math.sqrt(2.5) * base, rtol=1e-12, atol=1e-15)

    def test_deterministic(self):
        a = box_muller_apsk(9, 2.0)
        b = box_muller_apsk(9, 2.0)
        assert np.array_equal(a.points, b.points)
        assert (a.label, a.family, a.n, a.power) == (b.label, b.family, b.n, b.power)

    def test_normalize(self):
        c = box_muller_apsk(4, 2.0, normalize=True)
        assert average_power(c) == pytest.approx(2.0, rel=1e-12)
        validate_constellation(c)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            box_muller_apsk(0)
        with pytest.raises(DomainError):
            box_muller_apsk(2, power=0.0)
        with pytest.raises(DomainError):
            box_muller_apsk(2, power=-1.0)
        for power in ("1", True, 10**400):  # not a finite real number
            with pytest.raises(DomainError, match="power must be a finite number > 0"):
                box_muller_apsk(2, power=power)


class TestDvbVariant:
    def test_n2_single_ring(self):
        c = dvb_variant_apsk(2)
        # one ring of four points
        assert np.hypot(c.points[:, 0], c.points[:, 1]) == pytest.approx([SQRT_LN2] * 4, abs=1e-15)
        phases = np.arctan2(c.points[:, 1], c.points[:, 0])
        expected = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4 - 2 * math.pi, 7 * math.pi / 4 - 2 * math.pi]
        assert phases == pytest.approx(expected, abs=1e-12)

    def test_n4_two_rings(self):
        c = dvb_variant_apsk(4)
        # two rings of eight points
        radii = np.hypot(c.points[:, 0], c.points[:, 1]).reshape(2, 8)
        assert radii.ravel() == pytest.approx([SQRT_LN4] * 8 + [SQRT_LN4_3] * 8, abs=1e-15)
        assert c.points.shape == (16, 2)
        assert average_power(c) == pytest.approx(BM2_AVG, abs=1e-14)

    def test_odd_n_rejected(self):
        with pytest.raises(DomainError, match="even"):
            dvb_variant_apsk(3)

    def test_rotational_symmetry(self):
        c = dvb_variant_apsk(4)
        th = 2 * math.pi / 8  # 2n points per ring
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rotated = c.points @ rot.T
        for p in rotated:
            assert np.min(np.sum((c.points - p) ** 2, axis=1)) < (1e-9) ** 2

    def test_power_bound_strict(self):
        for n in range(2, 129, 2):
            assert average_power(dvb_variant_apsk(n)) < 1.0


class TestSquareQam:
    def test_n2(self):
        c = square_qam(2)
        d = 0.7071067811865476
        order = np.lexsort((c.points[:, 1], c.points[:, 0]))
        np.testing.assert_allclose(
            c.points[order], [[-d, -d], [-d, d], [d, -d], [d, d]], atol=1e-15
        )
        assert average_power(c) == pytest.approx(1.0, rel=1e-12)

    def test_n4_coordinates(self):
        c = square_qam(4)
        coords = np.unique(np.round(c.points, 12))
        np.testing.assert_allclose(
            coords,
            [-0.9486832980505138, -0.31622776601683794, 0.31622776601683794, 0.9486832980505138],
            atol=1e-12,
        )
        assert average_power(c) == pytest.approx(1.0, rel=1e-12)

    def test_n1_origin(self):
        c = square_qam(1)
        assert np.array_equal(c.points, [[0.0, 0.0]])
        assert average_power(c) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_exact_normalization(self, n):
        assert average_power(square_qam(n, 3.0)) == pytest.approx(3.0, rel=1e-12)


class TestMetrics:
    def test_peak_and_papr(self):
        assert peak_power(box_muller_apsk(4)) == pytest.approx(LN8, abs=1e-14)
        assert papr(box_muller_apsk(4)) == pytest.approx(BM4_PAPR, abs=1e-12)
        assert peak_power(dvb_variant_apsk(4)) == pytest.approx(LN4, abs=1e-14)
        assert papr(dvb_variant_apsk(4)) == pytest.approx(DVB4_PAPR, abs=1e-12)
        assert papr(dvb_variant_apsk(2)) == pytest.approx(1.0, rel=1e-12)

    def test_papr_rejects_origin(self):
        with pytest.raises(DomainError):
            papr(square_qam(1))

    def test_a_peak_power_past_the_double_range_is_inf_and_papr_stays_finite(self):
        # qam n=8 at P = 1.7e308 peaks at 98/42 P; the CSV printed papr inf
        c, unit = square_qam(8, 1.7e308), square_qam(8, math.ldexp(1.7e308, -1022))
        assert peak_power(c) == math.inf
        assert average_power(c) == math.ldexp(average_power(unit), 1022)
        assert papr(c) == papr(unit) == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert evaluate_row(c, 10.0).papr == papr(c)

    def test_min_distance(self):
        assert min_distance(square_qam(2)) == pytest.approx(1.4142135623730951, abs=1e-14)
        assert min_distance(box_muller_apsk(2)) == pytest.approx(
            SQRT_LN4 - SQRT_LN4_3, abs=1e-12
        )
        with pytest.raises(DomainError):
            min_distance(box_muller_apsk(1))

    def test_min_distance_flags_duplicates(self):
        c = square_qam(2)
        dup = np.array(c.points)
        dup[1] = dup[0]
        broken = type(c)(c.label, c.family, c.n, c.power, dup)
        assert min_distance(broken) == 0.0
        with pytest.raises(DomainError, match="distinct"):
            validate_constellation(broken)

    @pytest.mark.parametrize("m", [2, 3, 57, 58, 300])
    def test_min_distance_matches_all_pairs_at_once(self, monkeypatch, m):
        # 58 points fill 10 rows of 580 doubles exactly; 57 and 300 do not
        monkeypatch.setattr(constellations, "_PAIR_BLOCK", 580)
        rng = np.random.default_rng(m)
        pts = rng.standard_normal((m, 2))
        c = Constellation("random", SQUARE_QAM, 1, 1.0, pts)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        d2[np.tril_indices(m)] = np.inf
        assert min_distance(c) == float(np.sqrt(d2.min()))
        rows = max(1, min(m - 1, 580 // m))
        # a duplicate within the first block of rows, and one across two blocks
        for i, j in [(0, rows - 1)] * (rows > 1) + [(rows - 1, rows)] * (rows < m - 1):
            dup = np.array(pts)
            dup[j] = dup[i]
            assert min_distance(Constellation("dup", SQUARE_QAM, 1, 1.0, dup)) == 0.0

    @pytest.mark.parametrize("far", [1e150, 1.0])
    def test_min_distance_of_a_pair_far_below_the_largest_coordinate(self, far):
        # squared in the scaled units the pair's distance underflowed: 0.0
        # for distinct points, and 1.999988867151698e-160 next to 1.0
        pts = np.array([[far, 0.0], [0.0, 1e-160], [0.0, -1e-160]])
        c = Constellation("close", SQUARE_QAM, 1, 1.0, pts)
        assert min_distance(c) == pytest.approx(2e-160, rel=1e-15, abs=0.0)

    def test_min_distance_past_the_double_range_is_inf(self):
        # the close pair takes the second pass, where 1e308 - -1e308 overflows
        pts = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 3e-300], [0.0, 6e-300]])
        assert min_distance(Constellation("far", SQUARE_QAM, 1, 1.0, pts)) == 3e-300
        assert min_distance(Constellation("far", SQUARE_QAM, 1, 1.0, pts[:2])) == math.inf

    def test_min_distance_memory_is_bounded(self):
        c = box_muller_apsk(48)
        # with a duplicate point the least square is 0, so the second pass
        # takes hypot of every pair
        dup = np.array(c.points)
        dup[1] = dup[0]
        for c in (c, Constellation("dup", BOX_MULLER, 48, 1.0, dup)):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                min_distance(c)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # all 2304 rows at once held 96 MB of differences and squares
            assert peak <= 4e6, (c.label, peak)


class TestFamilies:
    def test_aliases(self):
        assert canonical_family("box_muller") == BOX_MULLER
        assert canonical_family("dvb_variant_apsk") == DVB_VARIANT
        assert canonical_family("qam") == SQUARE_QAM
        with pytest.raises(DomainError):
            canonical_family("psk")

    def test_make_constellation_dispatch(self):
        assert make_constellation("qam", 2).family == SQUARE_QAM
        assert make_constellation("box_muller", 2).family == BOX_MULLER
        assert make_constellation("dvb_variant", 2).family == DVB_VARIANT
        # square QAM is already at exactly P: normalize changes nothing
        plain, normalized = make_constellation("qam", 2), make_constellation("qam", 2, normalize=True)
        assert normalized.label == plain.label
        assert normalized.points.tobytes() == plain.points.tobytes()

    @pytest.mark.parametrize("family", ["box_muller", "dvb_variant", "qam"])
    @pytest.mark.parametrize("n", [MAX_N + 2, 100_000])
    def test_make_constellation_caps_n_before_allocating(self, family, n):
        with pytest.raises(DomainError, match=rf"\[1, {MAX_N}\], got {n}"):
            make_constellation(family, n)

    @pytest.mark.parametrize("family", ["box_muller", "dvb_variant", "qam"])
    def test_numpy_integer_n_builds_the_same_points(self, family):
        c, want = make_constellation(family, np.int64(4)), make_constellation(family, 4)
        assert type(c.n) is int and c.label == want.label
        assert c.points.tobytes() == want.points.tobytes()

    @pytest.mark.parametrize("family", ["box_muller", "dvb_variant"])
    @pytest.mark.parametrize("n,power,normalize", [
        (2, 1e308, True),  # the mean of the squared norms overflows
        (8, 1e307, True),
        (8, 1e308, False),  # the outer ring's squared radius overflows
        (8, 5e-324, False),  # the inner ring's squared radius rounds to 0
        (8, 5e-324, True),
    ])
    def test_power_once_outside_the_double_range_builds_the_scaled_set(
        self, family, n, power, normalize
    ):
        # these were rejected: built at P they overflowed or underflowed. Now
        # the set is built at P * 4**-e and scaled by 2**e, and no
        # RuntimeWarning is raised either (the suite turns one into an error)
        e = math.frexp(power)[1] // 2
        c = make_constellation(family, n, power, normalize)
        unit = make_constellation(family, n, math.ldexp(power, -2 * e), normalize)
        assert c.points.tobytes() == np.ldexp(unit.points, e).tobytes()
        assert papr(c) == papr(unit)
        validate_constellation(c)

    @pytest.mark.parametrize("family", ["box_muller", "dvb_variant"])
    def test_power_near_the_double_range_still_builds(self, family):
        c = make_constellation(family, 2, 1e307, normalize=True)
        assert average_power(c) == pytest.approx(1e307, rel=1e-12)
        validate_constellation(c)

    def test_validate_passes_on_fresh_constellations(self):
        for c in (box_muller_apsk(3), dvb_variant_apsk(4), square_qam(4), square_qam(1)):
            validate_constellation(c)

    def test_validate_rejects_near_equal_ring_radii(self):
        # box_muller n=2 with its two rings moved to radii 0.5 and 0.5*(1+1e-12)
        c = box_muller_apsk(2)
        radii = np.hypot(c.points[:, 0], c.points[:, 1])[:, None]
        target = np.array([0.5, 0.5, 0.5 * (1 + 1e-12), 0.5 * (1 + 1e-12)])[:, None]
        close = Constellation(c.label, c.family, c.n, c.power, c.points / radii * target)
        with pytest.raises(DomainError, match="ring radii must be distinct"):
            validate_constellation(close)
        with pytest.raises(DomainError, match="ring radii must be distinct"):
            loads_constellation(dumps_constellation(close))

    def test_qam_builds_in_no_more_memory_than_box_muller(self):
        # through two meshgrid arrays and a stack, qam peaked at 3.1 MiB here
        # (200 MiB at MAX_N) against box_muller's 2.1 MiB (136 MiB)
        peaks = {}
        for family in ("box_muller", "qam"):
            make_constellation(family, 2)  # first-call imports are not the build's
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                make_constellation(family, 256)
                peaks[family] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["qam"] <= peaks["box_muller"], peaks

    @pytest.mark.parametrize("family", ["box_muller", "dvb_variant", "qam"])
    def test_build_peaks_at_two_point_arrays(self, family):
        # the points as filled and the Constellation's copy; a finiteness
        # mask over every coordinate added 512 KiB here (8 MiB at MAX_N)
        n = 512
        make_constellation(family, 2)  # first-call imports are not the build's
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            make_constellation(family, n, normalize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * n * n + 2**17, peak

    def test_points_are_read_only(self):
        c = box_muller_apsk(2)
        with pytest.raises(ValueError):
            c.points[0, 0] = 1.0
