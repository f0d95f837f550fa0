"""Quadrature over symmetry orbits and product grids against the full loop."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apsk_shaper import (
    SQUARE_QAM,
    Constellation,
    SnrSpec,
    box_muller_apsk,
    dvb_variant_apsk,
    make_constellation,
    mi_quadrature,
    square_qam,
    validate_constellation,
)
from apsk_shaper import capacity, numerics
from apsk_shaper import symmetry
from apsk_shaper.symmetry import D4, _matches, orbits, product_axes
from quadrature_rule import log_partition, tensor_rule

SNR_DBS = (0.0, 10.0, 20.0, 30.0)
ORDERS = (40, 60)
# the shortcuts move a value by rounding only
PATH_TOL = 1.5e-13

ALL_D4 = {"identity", *(name for name, _, _ in D4)}
D2 = {"identity", "rot180", "mirror_x", "mirror_y"}
MIRROR_X = {"identity", "mirror_x"}


def full_loop(c, snr, order):
    """The plain loop over every point against the tensor rule."""
    n0 = c.power / snr.snr
    nodes, weights = tensor_rule(order)
    noise2 = (2.0 * math.sqrt(n0)) * nodes
    pts = c.points
    total = 0.0
    for i in range(len(pts)):
        diff = pts[i] - pts
        sq = np.sum(diff * diff, axis=1)
        total += float(log_partition(noise2, diff, sq, n0) @ weights)
    return max(math.log2(len(pts)) - total / (len(pts) * numerics.LN2), 0.0)


def every_point(c, snr, order):
    """The quadrature's separable kernel run once over every point."""
    n0 = c.power / snr.snr
    m = c.M
    value = capacity._grid_mi(c.points, np.arange(m), np.ones(m, dtype=int),
                              *numerics.gauss_hermite_2d(order), n0)
    return max(value, 0.0)


def symmetry_group(points):
    return {"identity", *_matches(points)}


def apply(name, points):
    if name == "identity":
        return points.copy()
    _, cols, signs = next(g for g in D4 if g[0] == name)
    return points[:, cols] * signs


def rebuilt(c, points):
    return Constellation("edited", c.family, c.n, c.power, points)


CASES = (
    [("box_muller", n) for n in (*range(1, 10), 16)]
    + [("dvb_variant", n) for n in range(2, 17, 2)]
    + [("qam", n) for n in range(1, 17)]
)


@pytest.mark.parametrize("family,n", CASES, ids=[f"{f}-{n}" for f, n in CASES])
def test_shortcut_matches_the_full_loop(family, n):
    c = make_constellation(family, n)
    # a single point is a 1 x 1 grid
    assert (product_axes(c.points) is not None) == (family == "qam" or n == 1)
    for snr_db in SNR_DBS:
        snr = SnrSpec.from_db(snr_db)
        for order in ORDERS:
            got = mi_quadrature(c, snr, order).value
            want = full_loop(c, snr, order)
            assert abs(got - want) <= PATH_TOL, (snr_db, order, got - want)


@pytest.mark.parametrize("n", range(1, 33))
def test_box_muller_group(n):
    want = ALL_D4 if n % 4 == 0 else D2 if n % 2 == 0 else MIRROR_X
    assert symmetry_group(box_muller_apsk(n).points) == want


@pytest.mark.parametrize("n", range(2, 33, 2))
def test_dvb_variant_group(n):
    assert symmetry_group(dvb_variant_apsk(n).points) == ALL_D4


@pytest.mark.parametrize("n", range(1, 33))
def test_qam_is_a_symmetric_product(n):
    pts = square_qam(n).points
    assert symmetry_group(pts) == ALL_D4
    xs, ys = product_axes(pts)
    assert xs.tolist() == ys.tolist() == sorted(set(pts[:, 0].tolist()))


def loop_matches(points):
    """The D4 search one element at a time: a rint and lexsort per image."""
    scale = float(np.max(np.abs(points), initial=0.0)) or 1.0
    unit = scale * symmetry._SORT_BIN

    def sort_order(p):
        key = np.rint(p / unit)
        return np.lexsort((key[:, 1], key[:, 0]))

    base = sort_order(points)
    tol = symmetry._MATCH_ULPS * np.spacing(scale)
    found = {}
    for name, cols, signs in D4:
        image = points[:, cols] * signs
        perm = np.empty(len(points), dtype=np.intp)
        perm[sort_order(image)] = base
        if np.max(np.abs(points[perm] - image), initial=0.0) <= tol:
            found[name] = perm
    return found


def match_cases():
    """Every family for n = 1-64 with and without normalize, each set's 1D
    axes, scaled and reversed copies, and random sets closed under a random
    part of D4, each also with one point nudged."""
    sets = []
    for family, ns in (("box_muller", range(1, 65)), ("dvb_variant", range(2, 65, 2)),
                       ("qam", range(1, 65))):
        for n in ns:
            for normalize in (False, True):
                pts = make_constellation(family, n, normalize=normalize).points
                axes = product_axes(pts)
                axes = [] if axes is None else axes
                for p in [pts] + [np.column_stack((a, np.zeros_like(a))) for a in axes]:
                    sets += [p, 3.7 * p, p[::-1]]
    rng = np.random.default_rng(14)
    for k in range(150):
        pts = rng.standard_normal((1 + k % 12, 2))
        names = [name for name, _, _ in D4 if rng.random() < 0.4]
        pts = np.unique(np.concatenate([pts] + [apply(name, pts) for name in names]), axis=0)
        nudged = pts.copy()
        nudged[rng.integers(len(pts))] *= 1.0 + 1e-9
        sets += [pts, nudged]
    return sets


def test_one_pass_matches_the_loop_over_the_images():
    cases = match_cases()
    assert len(cases) > 2000
    for points in cases:
        want, got = loop_matches(points), _matches(points)
        assert list(got) == list(want)
        assert all(np.array_equal(got[name], perm) for name, perm in want.items())


@pytest.mark.parametrize("c", [box_muller_apsk(32), dvb_variant_apsk(32)], ids=["box", "dvb"])
def test_free_orbits_at_n32(c):
    # no point lies on a mirror line, so every orbit has all 8 images
    reps, mults = orbits(c.points)
    assert len(reps) == c.M // 8 and set(mults.tolist()) == {8}


def test_orbit_multiplicities_cover_every_point():
    for c in (box_muller_apsk(6), box_muller_apsk(7), dvb_variant_apsk(2), square_qam(5)):
        reps, mults = orbits(c.points)
        assert int(mults.sum()) == c.M and len(reps) < c.M


@pytest.mark.parametrize("c", [box_muller_apsk(8), dvb_variant_apsk(4), box_muller_apsk(5)],
                         ids=["box8", "dvb4", "box5"])
def test_nudged_phase_falls_back_to_the_full_loop_bit_for_bit(c):
    pts = c.points.copy()
    radius = math.hypot(*pts[3])
    phase = math.atan2(pts[3, 1], pts[3, 0]) + 1e-9
    pts[3] = radius * math.cos(phase), radius * math.sin(phase)
    nudged = rebuilt(c, pts)
    validate_constellation(nudged)
    assert symmetry_group(nudged.points) == {"identity"}
    for snr_db in (0.0, 20.0):
        snr = SnrSpec.from_db(snr_db)
        got = mi_quadrature(nudged, snr).value
        assert got == every_point(nudged, snr, 40)
        assert abs(got - full_loop(nudged, snr, 40)) <= PATH_TOL


@pytest.mark.parametrize("n", [4, 8])
def test_qam_rotated_45_degrees_takes_the_orbit_path(n):
    c = square_qam(n)
    cos, sin = math.cos(math.pi / 4), math.sin(math.pi / 4)
    x, y = c.points[:, 0], c.points[:, 1]
    rotated = rebuilt(c, np.stack([cos * x - sin * y, sin * x + cos * y], axis=1))
    validate_constellation(rotated)
    assert product_axes(rotated.points) is None
    assert symmetry_group(rotated.points) == ALL_D4
    for snr_db in SNR_DBS:
        snr = SnrSpec.from_db(snr_db)
        for order in ORDERS:
            got = mi_quadrature(rotated, snr, order).value
            assert abs(got - full_loop(rotated, snr, order)) <= PATH_TOL, (snr_db, order)


@pytest.mark.parametrize("family,n,counts", [
    ("box_muller", 4, [1]), ("qam", 4, [2]), ("dvb_variant", 4, [1]),
])
def test_parts_are_read_only_and_leave_the_callers_array_writable(family, n, counts):
    pts = make_constellation(family, n).points.copy()
    sets = symmetry.parts(pts)
    assert [count for count, *_ in sets] == counts
    assert not any(a.flags.writeable for _, *arrays in sets for a in arrays)
    assert pts.flags.writeable
    for _, p, reps, mults in sets:
        assert [reps.tolist(), mults.tolist()] == [a.tolist() for a in orbits(p)]


@pytest.mark.parametrize("n", [128, 256])
def test_the_scan_peaks_at_a_few_copies_of_the_points(n):
    points = box_muller_apsk(n)._scaled()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        symmetry.parts(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one D4 element at a time; all seven images at once peaked at 38x
    assert peak < 12 * points.nbytes, peak / points.nbytes


# -- properties ---------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

coordinate = st.integers(-40, 40).map(lambda k: k / 16.0)


@st.composite
def point_sets(draw):
    """A family constellation, or up to 16 distinct points of a fine grid."""
    kind = draw(st.sampled_from(["box_muller", "dvb_variant", "qam", "random"]))
    if kind != "random":
        n = draw(st.integers(1, 6).map(lambda k: 2 * k) if kind == "dvb_variant"
                 else st.integers(1, 6))
        return make_constellation(kind, n)
    pts = np.array(draw(st.lists(st.tuples(coordinate, coordinate), min_size=1,
                                 max_size=16, unique=True)))
    # the capacity bound needs the budget at or above the realised power;
    # mi_quadrature reads only the points and the budget, not family or n
    power = float(np.mean(np.sum(pts**2, axis=1))) or 1.0
    return Constellation("random", SQUARE_QAM, 1, power, pts)


snr_dbs = st.floats(-10.0, 40.0)
orders = st.sampled_from([8, 20, 40])


@PROPERTY_SETTINGS
@given(c=point_sets(), snr_db=snr_dbs, order=orders)
def test_mi_is_invariant_under_the_square_symmetries(c, snr_db, order):
    snr = SnrSpec.from_db(snr_db)
    want = mi_quadrature(c, snr, order).value
    for name in sorted(ALL_D4):
        got = mi_quadrature(rebuilt(c, apply(name, c.points)), snr, order).value
        assert abs(got - want) <= 1e-12, name


@PROPERTY_SETTINGS
@given(c=point_sets(), snr_db=snr_dbs, order=orders, seed=st.integers(0, 2**32 - 1))
def test_mi_is_invariant_under_point_order(c, snr_db, order, seed):
    snr = SnrSpec.from_db(snr_db)
    perm = np.random.default_rng(seed).permutation(c.M)
    got = mi_quadrature(rebuilt(c, c.points[perm]), snr, order).value
    assert abs(got - mi_quadrature(c, snr, order).value) <= 1e-12


@PROPERTY_SETTINGS
@given(c=point_sets(), snr_db=snr_dbs, order=orders)
def test_mi_lies_between_zero_and_both_bounds(c, snr_db, order):
    snr = SnrSpec.from_db(snr_db)
    value = mi_quadrature(c, snr, order).value
    upper = min(math.log2(c.M), capacity.gaussian_capacity(snr))
    assert 0.0 <= value <= upper + 1e-9


@st.composite
def product_grids(draw):
    """(X, Y, points) of a grid X x Y with unequal, asymmetric axes.

    The points are listed with x or with y varying slowest.
    """
    n = draw(st.integers(2, 5))
    axis = st.lists(coordinate, min_size=n, max_size=n, unique=True).filter(
        lambda v: set(v) != {-t for t in v})
    xs, ys = draw(axis), draw(axis)
    assume(sorted(xs) != sorted(ys))
    if draw(st.booleans()):
        pts = [(x, y) for x in xs for y in ys]
    else:
        pts = [(x, y) for y in ys for x in xs]
    return xs, ys, np.array(pts)


@PROPERTY_SETTINGS
@given(grid=product_grids(), snr_db=snr_dbs, order=st.integers(8, 60))
def test_asymmetric_product_grids_match_the_full_loop(grid, snr_db, order):
    xs, ys, pts = grid
    assert [a.tolist() for a in product_axes(pts)] == [xs, ys]
    power = float(np.mean(np.sum(pts**2, axis=1)))
    c = Constellation("grid", SQUARE_QAM, 1, power, pts)
    snr = SnrSpec.from_db(snr_db)
    got = mi_quadrature(c, snr, order).value
    assert abs(got - full_loop(c, snr, order)) <= PATH_TOL
