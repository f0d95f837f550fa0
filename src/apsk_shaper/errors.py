"""Exception types, the checks on values from outside, and the CLI exit codes."""

import math
import numbers
import operator


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


def positive(name: str, value) -> float:
    """A real `value` (not a bool, a str or an int past a double) as a finite float > 0."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be a finite number > 0, got {value!r}")
    return x


EXIT_OK = 0
# the CLI's exit code per error type: usage or validation, estimator, contract
EXIT_CODES = {DomainError: 2, EstimatorError: 3, ContractError: 4}
