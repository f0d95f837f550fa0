"""Numerical audits of the limit behaviour behind the constellation design.

Three families of checks live here: the log-integral bound that guarantees
the power budget is respected for every size (`lemma_scan`), the budget slack
itself (`power_audit`), and the convergence of the constellation's
characteristic function to the Gaussian one (`point_set_cf`,
`gaussian_cf`, `cf_convergence_scan`).
"""

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .constellations import MAX_N, average_power, canonical_family, make_constellation
from .errors import DomainError, integer, positive

DEFAULT_T_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


# k values per lemma block: three 2**15-entry arrays, 0.75 MB in all
_LEMMA_BLOCK = 1 << 15
# points per CF block: a (257, T) complex buffer, 200 kB on the default grid
_CF_BLOCK = 256


def _lemma_chunks(k_max: int) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """`lemma_scan`'s (k, lhs, rhs) for k in [1, k_max], in blocks of _LEMMA_BLOCK.

    rhs carries across blocks as the first term of each block's cumsum
    (0.0 before the first, which adds exactly); numpy's cumsum adds in
    sequence, so every value has the bits of one cumsum over all of
    [1, k_max].
    """
    carry = 0.0
    for lo in range(0, k_max, _LEMMA_BLOCK):
        ks = np.arange(lo + 1, min(lo + _LEMMA_BLOCK, k_max) + 1, dtype=np.int64)
        lhs = ks * np.log(ks) - ks
        terms = np.log(np.arange(lo, lo + len(ks)) + 0.5)
        rhs = np.cumsum(np.concatenate(([carry], terms)))[1:]
        carry = rhs[-1]
        yield ks, lhs, rhs


def lemma_scan(k_max: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lemma table for every k in [1, k_max]: (k, k*ln(k) - k, sum_{j<k} ln(j + 1/2)).

    The left side never exceeds the right; the margin is what keeps the
    ring-radius construction inside its power budget. The three arrays
    returned take 24 bytes per k, as they must; a caller that only checks
    the bound or reads a few rows can walk `_lemma_chunks` in fixed-size
    blocks instead, as the `convergence` command does.
    """
    k_max = integer("k_max", k_max, 1, 2**63 - 2)  # ks are int64
    table = (np.empty(k_max, dtype=np.int64), np.empty(k_max), np.empty(k_max))
    lo = 0
    for block in _lemma_chunks(k_max):
        for whole, part in zip(table, block):
            whole[lo : lo + len(part)] = part
        lo += len(block[0])
    return table


def point_set_cf(points: np.ndarray, t_points: np.ndarray) -> np.ndarray:
    """Characteristic function of the uniform distribution on `points`.

    (1/M) * sum_w exp(i*<t, w>) evaluated at each row of `t_points`.

    The phases are one gemm (its bits can depend on its shape); their
    exponentials are formed and summed _CF_BLOCK points at a time, each
    block's sum starting from the running total, which is the order in which
    `.mean(axis=0)` adds the rows of the whole (M, T) array. With a single
    t that mean sums pairwise instead, so it is taken whole, as is an empty
    set.
    """
    phases = points @ np.asarray(t_points, dtype=np.float64).T
    m, nt = phases.shape
    if nt < 2 or m == 0:
        return np.exp(1j * phases).mean(axis=0)
    rows = min(m, _CF_BLOCK)
    buf = np.empty((rows + 1, nt), dtype=np.complex128)
    total = None
    for lo in range(0, m, rows):
        block = phases[lo : lo + rows]
        terms = buf[1 : len(block) + 1]
        np.multiply(1j, block, out=terms)
        np.exp(terms, out=terms)
        if total is None:
            total = terms.sum(axis=0)
        else:
            buf[0] = total
            total = buf[: len(block) + 1].sum(axis=0)
    return total / m


def gaussian_cf(power: float, t_points: np.ndarray) -> np.ndarray:
    """CF of the limiting zero-mean Gaussian with variance P/2 per axis.

    Real-valued, evaluated at each (t1, t2) row of `t_points`.
    """
    power = positive("power", power)
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
    family: str, n_list: Sequence[int], power: float = 1.0
) -> CfConvergenceReport:
    """Tabulate the CF approximation error on `default_t_grid()` per n in `n_list`.

    `n_list` must be non-empty and ascending. Deterministic; the error at
    t = 0 is identically zero because both CFs equal 1 there.
    """
    n_list = tuple(integer("n", n, 1, MAX_N) for n in n_list)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError(f"n_list must be non-empty and ascending, got {n_list!r}")
    grid = default_t_grid()
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
            yield n, float(avg), self.power, float(slack)


def power_audit(family: str, n_values: Sequence[int], power: float = 1.0) -> PowerAuditReport:
    """Measure the power-budget slack P - E|W|^2 for each size in `n_values`."""
    n_values = tuple(integer("n", n, 1, MAX_N) for n in n_values)
    if not n_values:
        raise DomainError("n_values must be non-empty")
    avgs = np.asarray(
        [average_power(make_constellation(family, n, power)) for n in n_values]
    )
    return PowerAuditReport(canonical_family(family), float(power), n_values, avgs)
