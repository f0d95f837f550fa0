"""The two checks every value from outside passes: `integer` and `positive`."""

from fractions import Fraction

import numpy as np
import pytest

from apsk_shaper import DomainError
from apsk_shaper.errors import integer, positive

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
