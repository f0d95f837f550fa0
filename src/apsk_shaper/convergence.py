"""Numerical audits of the limit behaviour behind the constellation design.

Three families of checks live here: the log-integral bound that guarantees
the power budget is respected for every size (`lemma_scan`), the budget
slack itself (`power_audit`), and the convergence of the constellation's
characteristic function to the Gaussian one (`point_set_cf`, `gaussian_cf`,
`cf_convergence_scan`).

`lemma_scan`'s walk and `point_set_cf`'s blocks keep their memory fixed for
any k, point count or t count, and take their scratch from the calling
thread's kept workspace (`workers._WORKSPACE`), all of a call's buffers in
one `take`, so a run of audits reuses pages that an earlier call, an
estimator's included, faulted in.
"""

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from . import workers
from .constellations import MAX_N, average_power, canonical_family, make_constellation
from .errors import DomainError, integer, pairs, positive

DEFAULT_T_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


_LEMMA_RTOL = 1e-9  # the lemma holds where lhs <= rhs + _LEMMA_RTOL*|rhs|
# k values per lemma block. `lemma_scan` fills four float64 buffers of about
# this many doubles (k, lhs, the terms and their cumsum), reused for the
# whole call: 1.05 MB in all
_LEMMA_BLOCK = 1 << 15
# points per CF block, and a lone last one: their phases go to a reused (257, T)
# float64 buffer, their exponentials to a (258, T) complex one, 300 kB in all
_CF_BLOCK = 256


def lemma_scan(keep: Sequence[int]) -> Tuple[List[Tuple[int, float, float, float]], bool]:
    """Check the lemma k*ln(k) - k <= sum_{j<k} ln(j + 1/2) at every k up to max(keep).

    The left side (lhs) never exceeds the right (rhs); the margin is what
    keeps the ring-radius construction inside its power budget. The check
    is lhs <= rhs + _LEMMA_RTOL*|rhs|. Returns (rows, ok): one
    (k, lhs, rhs, rhs - lhs) row per k of `keep` (a non-empty list of
    integers in [1, 2**53], else DomainError), ascending and once each, and
    whether the bound held at every k in [1, max(keep)].

    The walk takes _LEMMA_BLOCK values of k (a double, exact to 2**53) at a
    time, in buffers of fixed size whatever max(keep). Each term j + 1/2 is
    k - 1/2. rhs carries across blocks as a float, the first term of each
    block's cumsum (0.0 before the first, which adds exactly), and numpy's
    cumsum adds in sequence: the bits of one cumsum over all the terms. Once
    summed, the terms hold bound - lhs, >= 0 exactly where lhs <= bound
    (NaN is neither).
    """
    keep = sorted({integer("keep entry", kk, 1, 2**53) for kk in keep})
    if not keep:
        raise DomainError("keep must name at least one k")
    k_max = keep[-1]
    size = min(k_max, _LEMMA_BLOCK)
    k, lhs, terms, sums = workers._WORKSPACE.take(size, size, size + 1, size + 1)
    terms[:size] = 1.0
    np.cumsum(terms[:size], out=k)  # 1.0 to size, exact
    carry, rows, ok, at = 0.0, [], True, 0  # keep[at] is the next row to take
    for lo in range(0, k_max, size):
        n = min(size, k_max - lo)
        kb, lb, tb, sb = k[:n], lhs[:n], terms[: n + 1], sums[: n + 1]
        np.log(kb, out=lb)
        lb *= kb
        lb -= kb
        tb[0] = carry
        np.subtract(kb, 0.5, out=tb[1:])
        np.log(tb[1:], out=tb[1:])
        np.cumsum(tb, out=sb)
        carry = float(sb[-1])
        rhs, margin = sb[1:], tb[1:]
        np.abs(rhs, out=margin)
        np.multiply(_LEMMA_RTOL, margin, out=margin)
        margin += rhs
        margin -= lb
        ok &= float(margin.min()) >= 0.0
        while at < len(keep) and keep[at] <= lo + n:
            i = keep[at] - lo - 1
            rows.append((keep[at], lb[i], rhs[i], rhs[i] - lb[i]))
            at += 1
        k += size
    return rows, ok


def point_set_cf(points: np.ndarray, t_points: np.ndarray) -> np.ndarray:
    """Characteristic function of the uniform distribution on `points`.

    (1/M) * sum_w exp(i*<t, w>) at each row of the (T, 2) `t_points`, for
    (M, 2) `points`; either failing `errors.pairs` raises DomainError.

    The phases and their exponentials are formed _CF_BLOCK points at a
    time, in two buffers from the calling thread's workspace (the complex
    one a view of its doubles) reused for the whole call, each block's sum
    starting from the running total, which is the order in which
    `.mean(axis=0)` adds the rows of the whole (M, T) array. Each block's
    phases are its own gemm, which rounds as the rows of one gemm over all
    M points do; a lone last point joins the block before it, as a one-row
    product would go through gemv (`workers._blocks`). A term is the cosine
    and sine of its phase: the bits of exp(1j*phase), but for a -0.0 sine
    where the phase is -0.0. The total starts at +0.0, and +0.0 + -0.0 is
    +0.0, so the sums keep the bits of the whole-array mean. With a single
    t, that mean sums pairwise, and agrees to rounding, not to the bit.
    """
    points, t_cols = pairs("points", points), pairs("t_points", t_points).T
    m, nt = len(points), t_cols.shape[1]
    rows = min(m, _CF_BLOCK + 1)
    phases, buf = workers._WORKSPACE.take(rows * nt, 2 * (rows + 1) * nt)
    phases, buf = phases.reshape(rows, nt), buf.view(np.complex128).reshape(rows + 1, nt)
    total = 0.0
    for lo, hi in workers._blocks(m, _CF_BLOCK):
        block = np.matmul(points[lo:hi], t_cols, out=phases[: hi - lo])
        terms = buf[1 : hi - lo + 1]
        np.cos(block, out=terms.real)
        np.sin(block, out=terms.imag)
        buf[0] = total
        total = buf[: hi - lo + 1].sum(axis=0)
    return total / m


def gaussian_cf(power: float, t_points: np.ndarray) -> np.ndarray:
    """CF of the limiting zero-mean Gaussian with variance P/2 per axis.

    Real-valued, at each (t1, t2) row of the (T, 2) `t_points` (`errors.pairs`).
    """
    power = positive("power", power)
    t_points = pairs("t_points", t_points)
    # capped where the exponent passes -750 (exp is 0 there, and |t|^2 may be inf)
    with np.errstate(over="ignore"):
        sq = np.minimum(np.sum(t_points**2, axis=1), 3000.0 / power)
    return np.exp(-power * sq / 4.0)


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
