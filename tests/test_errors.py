"""The checks every value from outside passes: `integer`, `real`, `positive`
and, for (x, y) rows, `pairs`."""

from fractions import Fraction

import numpy as np
import pytest

from apsk_shaper import DomainError
from apsk_shaper.errors import integer, pairs, positive, real

HUGE = 10**400  # a JSON integer with 401 digits; no double holds it


class TestInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.array(3)])
    def test_returns_a_python_int(self, value):
        got = integer("n", value, 1, 5)
        assert got == 3 and type(got) is int

    def test_bounds_are_inclusive(self):
        assert integer("n", 1, 1, 5) == 1
        assert integer("n", 5, 1, 5) == 5

    @pytest.mark.parametrize(
        "value",
        [True, False, np.True_, 2.0, 4.5, np.float64(3.0), "3", None, 0, 6, -1,
         pytest.param(HUGE, id="huge")],
    )
    def test_rejects(self, value):
        with pytest.raises(DomainError, match=r"n must be an integer in \[1, 5\], got "):
            integer("n", value, 1, 5)


class TestReal:
    @pytest.mark.parametrize(
        "value,want",
        [(-2, -2.0), (0.5, 0.5), (np.float32(0.5), 0.5), (np.int64(-7), -7.0),
         (Fraction(1, 4), 0.25), (np.float32(10.3), 10.300000190734863),
         (float("-inf"), float("-inf")),
         pytest.param(HUGE, float("inf"), id="huge"),
         pytest.param(-HUGE, float("-inf"), id="minus-huge"),
         pytest.param(Fraction(HUGE), float("inf"), id="huge-fraction")],
    )
    def test_returns_a_float(self, value, want):
        # converted once: a single-precision value reaches the caller as its
        # exact double, and a value past the double range as +-inf
        got = real("snr_db", value)
        assert got == want and type(got) is float

    def test_returns_nan_as_a_float(self):
        got = real("snr_db", np.float32("nan"))
        assert got != got and type(got) is float

    @pytest.mark.parametrize("value", [True, np.True_, "1", b"1", None, 1j, np.array(1.0)])
    def test_rejects(self, value):
        with pytest.raises(DomainError, match="snr_db must be a real number, got "):
            real("snr_db", value)


class TestPositive:
    @pytest.mark.parametrize(
        "value,want",
        [(2, 2.0), (0.5, 0.5), (np.float32(0.5), 0.5), (np.int64(7), 7.0),
         (Fraction(1, 4), 0.25), (5e-324, 5e-324)],
    )
    def test_returns_a_float(self, value, want):
        got = positive("power", value)
        assert got == want and type(got) is float

    @pytest.mark.parametrize(
        "value",
        [True, "1", b"1", None, 1j, 0, 0.0, -1.0, float("nan"), float("inf"),
         pytest.param(HUGE, id="huge"), pytest.param(Fraction(HUGE), id="huge-fraction"),
         np.array([1.0])],
    )
    def test_rejects(self, value):
        with pytest.raises(DomainError, match="power must be a finite number > 0, got "):
            positive("power", value)


SQUARE = [[1, 0], [0, 1], [-1, 0], [0, -1]]


class TestPairs:
    @pytest.mark.parametrize(
        "rows",
        [SQUARE, tuple(map(tuple, SQUARE)), np.array(SQUARE, dtype=np.int8),
         np.asfortranarray(np.array(SQUARE, dtype=np.float32)),
         [[np.float32(x), np.int64(y)] for x, y in SQUARE], [np.array(row) for row in SQUARE]],
        ids=["list", "tuple", "int8", "float32-f-order", "numpy-scalars", "array-rows"],
    )
    def test_returns_a_c_order_float64_array(self, rows):
        got = pairs("points", rows)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tolist() == np.array(SQUARE, dtype=float).tolist()

    def test_copies_an_array_only_when_asked(self):
        given = np.array(SQUARE, dtype=float)
        assert pairs("points", given) is given
        assert not np.shares_memory(pairs("points", given, copy=True), given)

    @pytest.mark.parametrize(
        "rows",
        [np.array(SQUARE) > 0, np.array(SQUARE) + 1j, [["1e0", " 2 "]], [[b"1", b"2"]],
         [[1.0, 2.0], [3.0]], [[HUGE, 0]], [[float("nan"), 0.0]], [[0.0, float("inf")]],
         np.empty((0, 2)), [1.0, 2.0], np.ones((2, 3)), np.ones((1, 2, 2)), None,
         [[True, 0.0]], [(0.0, np.False_)], [[1.0, 2.0], (np.True_, 0)],
         [np.array([1.0, 0.0]), np.array([True, False])], [[np.array(True), 0.0]],
         [[np.array(1.5), 0.0]]],
        ids=["bool", "complex", "str", "bytes", "ragged", "huge", "nan", "inf", "empty",
             "flat", "2-by-3", "3d", "none", "listed-true", "tupled-numpy-false",
             "second-row-numpy-true", "bool-array-row", "0d-bool", "0d-float"],
    )
    def test_rejects(self, rows):
        with pytest.raises(DomainError, match=r"t_points must be an array of \(x, y\) rows"):
            pairs("t_points", rows)
