"""Numerical audits of the limit behaviour behind the constellation design.

Three families of checks live here: the log-integral bound that guarantees
the power budget is respected for every size (`lemma_scan`), the budget slack
itself (`power_audit`), and the convergence of the constellation's
characteristic function to the Gaussian one (`point_set_cf`,
`gaussian_cf`, `cf_convergence_scan`).
"""

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .constellations import average_power, canonical_family, make_constellation
from .errors import DomainError

DEFAULT_T_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def lemma_scan(k_max: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lemma table for every k in [1, k_max]: (k, k*ln(k) - k, sum_{j<k} ln(j + 1/2)).

    The left side never exceeds the right; the margin is what keeps the
    ring-radius construction inside its power budget.
    """
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
        raise DomainError(f"k_max must be an integer >= 1, got {k_max!r}")
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    lhs = ks * np.log(ks) - ks
    rhs = np.cumsum(np.log(np.arange(k_max) + 0.5))
    return ks, lhs, rhs


def point_set_cf(points: np.ndarray, t_points: np.ndarray) -> np.ndarray:
    """Characteristic function of the uniform distribution on `points`.

    (1/M) * sum_w exp(i*<t, w>) evaluated at each row of `t_points`.
    """
    phases = points @ np.asarray(t_points, dtype=np.float64).T
    return np.exp(1j * phases).mean(axis=0)


def gaussian_cf(power: float, t_points: np.ndarray) -> np.ndarray:
    """CF of the limiting zero-mean Gaussian with variance P/2 per axis.

    Real-valued, evaluated at each (t1, t2) row of `t_points`.
    """
    if not np.isfinite(power) or power <= 0:
        raise DomainError(f"power must be > 0, got {power!r}")
    t_points = np.asarray(t_points, dtype=np.float64)
    return np.exp(-power * np.sum(t_points**2, axis=1) / 4.0)


def default_t_grid() -> np.ndarray:
    """The default CF evaluation grid: the Cartesian square of DEFAULT_T_VALUES."""
    vals = np.asarray(DEFAULT_T_VALUES, dtype=np.float64)
    g1, g2 = np.meshgrid(vals, vals, indexing="ij")
    return np.stack([g1.ravel(), g2.ravel()], axis=1)


@dataclass(frozen=True)
class CfConvergenceReport:
    """|CF_constellation - CF_gaussian| over an (n, t) grid."""

    family: str
    power: float
    n_list: Tuple[int, ...]
    t_grid: np.ndarray
    errors: np.ndarray  # shape (len(n_list), len(t_grid))

    def max_errors(self) -> np.ndarray:
        return self.errors.max(axis=1)

    def rows(self) -> Iterator[Tuple[int, float, float, float]]:
        for i, n in enumerate(self.n_list):
            for (t1, t2), err in zip(self.t_grid, self.errors[i]):
                yield n, float(t1), float(t2), float(err)


def cf_convergence_scan(
    family: str,
    n_list: Sequence[int],
    power: float = 1.0,
    t_grid: Optional[np.ndarray] = None,
) -> CfConvergenceReport:
    """Tabulate the CF approximation error for each size in `n_list`.

    `n_list` must be non-empty and ascending. Deterministic; the error at
    t = 0 is identically zero because both CFs equal 1 there.
    """
    n_list = tuple(int(n) for n in n_list)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError(f"n_list must be non-empty and ascending, got {n_list!r}")
    grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[1] != 2 or not len(grid):
        raise DomainError("t_grid must be a non-empty array of (t1, t2) rows")
    gauss = gaussian_cf(power, grid)
    errors = np.empty((len(n_list), len(grid)))
    for i, n in enumerate(n_list):
        c = make_constellation(family, n, power)
        errors[i] = np.abs(point_set_cf(c.points, grid) - gauss)
    return CfConvergenceReport(canonical_family(family), float(power), n_list, grid, errors)


@dataclass(frozen=True)
class PowerAuditReport:
    """Realized average power vs. the budget P for a range of sizes."""

    family: str
    power: float
    n_values: Tuple[int, ...]
    avg_powers: np.ndarray

    @property
    def slacks(self) -> np.ndarray:
        return self.power - self.avg_powers

    def rows(self) -> Iterator[Tuple[int, float, float, float]]:
        for n, avg, slack in zip(self.n_values, self.avg_powers, self.slacks):
            yield int(n), float(avg), self.power, float(slack)


def power_audit(family: str, n_values: Sequence[int], power: float = 1.0) -> PowerAuditReport:
    """Measure the power-budget slack P - E|W|^2 for each size in `n_values`."""
    n_values = tuple(int(n) for n in n_values)
    if not n_values:
        raise DomainError("n_values must be non-empty")
    avgs = np.asarray(
        [average_power(make_constellation(family, n, power)) for n in n_values]
    )
    return PowerAuditReport(canonical_family(family), float(power), n_values, avgs)
