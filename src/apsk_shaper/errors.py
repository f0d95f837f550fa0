"""Exception types, CLI exit codes, and the one way in for outside values, each converted once."""

import math
import numbers
import operator
from itertools import chain

import numpy as np


class DomainError(ValueError):
    """Invalid argument, configuration value, or constellation file."""


class EstimatorError(RuntimeError):
    """An estimate violates a bound it must satisfy.

    For quadrature that is an estimator bug; for Monte Carlo it can also be
    sampling noise from too few samples, and the message then gives the
    standard error and the sample count.
    """


class ContractError(RuntimeError):
    """A validated design inequality failed during a convergence audit."""


def integer(name: str, value, lo: int, hi: int) -> int:
    """`value` as an int in [lo, hi]: anything `operator.index` takes but a bool."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or not lo <= n <= hi:
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return n


def real(name: str, value) -> float:
    """A real number `value`, not a bool (a str is not one), as a float: +-inf past a double."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or a Fraction past the double range
        return math.inf if value > 0 else -math.inf


def positive(name: str, value) -> float:
    """A real `value` (not a bool, a str or an int past a double) as a finite float > 0."""
    try:
        x = real(name, value)
    except DomainError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be a finite number > 0, got {value!r}")
    return x


def pairs(name: str, rows, *, copy: bool = False) -> np.ndarray:
    """`rows` as a C-order float64 (M, 2) array of finite reals, M >= 1.

    Anything else raises DomainError: bool, complex, string and object
    arrays (ragged rows, ints past a double), a bool or np.bool_ (neither has
    subclasses) in a list or tuple of rows, which numpy takes as 0 or 1, other
    shapes, NaN and +-inf. A list or tuple is converted once; `copy` copies an array.
    """
    listed = isinstance(rows, (list, tuple))
    try:
        a = np.asarray(rows)
    except (TypeError, ValueError):  # ragged rows
        a = np.empty(0, dtype=object)
    if a.dtype.kind in "iuf" and a.ndim == 2 and a.shape[1] == 2 and len(a) > 0 and not (
        listed and not {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(rows)))
    ):
        a = a.astype(np.float64, order="C", copy=copy and not listed)
        # NaN and +-inf reach the min or the max, so no (M, 2) mask is needed
        if math.isfinite(a.min()) and math.isfinite(a.max()):
            return a
    raise DomainError(f"{name} must be an array of (x, y) rows: an (M, 2) array of "
                      "finite numbers, M >= 1")


EXIT_OK = 0
# the CLI's exit code per error type: usage or validation, estimator, contract
EXIT_CODES = {DomainError: 2, EstimatorError: 3, ContractError: 4}
