"""Constellation families: Box-Muller APSK, its DVB-style variant, square QAM.

Each family produces an immutable set of n^2 signal points in the plane under
a nominal power budget P. The APSK families place points on concentric rings
whose squared radii are -P*ln(u) for a midpoint grid of u values in (0, 1);
feeding a uniform grid through the polar normal-sampling map makes the point
set mimic a zero-mean Gaussian pair with variance P/2 per axis, which is what
drives the capacity results this package audits. Square QAM is the uniformly
spaced baseline, rescaled to average power exactly P.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import symmetry
from .errors import DomainError, integer, positive

BOX_MULLER = "box_muller_apsk"
DVB_VARIANT = "dvb_variant_apsk"
SQUARE_QAM = "square_qam"
FAMILIES = (BOX_MULLER, DVB_VARIANT, SQUARE_QAM)

_FAMILY_ALIASES = {
    "box_muller": BOX_MULLER,
    "box_muller_apsk": BOX_MULLER,
    "dvb_variant": DVB_VARIANT,
    "dvb_variant_apsk": DVB_VARIANT,
    "qam": SQUARE_QAM,
    "square_qam": SQUARE_QAM,
}

# relative tolerances used by the structural validator
_POWER_RTOL = 1e-9
_RING_RTOL = 1e-9

# the largest n accepted: its (n^2, 2) float64 point array takes 64 MiB, and
# building it (filled in place, then the Constellation's copy) peaks at
# 128 MiB for every family, normalized or not, by tracemalloc. Past it no
# estimator is in reach anyway (quadrature costs O(n^4)), and an unchecked n
# asked numpy for 74.5 GiB at n = 100000.
_MAX_POINT_BYTES = 64 * 2**20
MAX_N = math.isqrt(_MAX_POINT_BYTES // 16)  # 2048
# squared pair distances per min_distance block: 1 << 17 doubles, about 1 MB
_PAIR_BLOCK = 1 << 17


def canonical_family(name: str) -> str:
    """Map a family name or CLI alias to its canonical identifier."""
    try:
        return _FAMILY_ALIASES[name]
    except KeyError:
        raise DomainError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILY_ALIASES)}"
        ) from None


@dataclass(frozen=True, eq=False)
class Constellation:
    """Immutable labeled point set with its nominal power budget.

    `points` is an (n^2, 2) array in canonical order (ring-major for APSK,
    grid-major for QAM). `power` is the budget P the family was constructed
    for, not the realized average power. Construction keeps its own
    read-only C-order float64 copy of the points and raises DomainError
    unless they have shape (M, 2), M >= 1, and finite coordinates small
    enough that every squared distance between two points is a double
    (8 c^2 finite for the largest magnitude c), and P is a finite real > 0;
    `validate_constellation` adds the family's invariants.
    """

    label: str
    family: str
    n: int
    power: float
    points: np.ndarray

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=np.float64, order="C")  # a copy
        except (OverflowError, TypeError, ValueError):  # an int past a double, not numbers
            pts = np.empty(0)  # rejected below
        shaped = pts.ndim == 2 and pts.shape[1] == 2 and len(pts)
        lo, hi = (float(pts.min()), float(pts.max())) if shaped else (math.nan, math.nan)
        # NaN and +-inf reach the min or the max, so no (M, 2) mask is needed
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("points must be an (M, 2) array of finite numbers, M >= 1")
        # |x_i - x_j|^2 <= 8 c^2 for the largest coordinate magnitude c; the
        # estimators form it, and past the double range MI came out NaN
        big = max(-lo, hi)
        if not 8.0 * big * big < math.inf:
            raise DomainError(
                f"coordinates up to {big:.4g} in magnitude put the squared distances"
                " between points outside the double range"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "power", positive("power", self.power))

    @property
    def M(self) -> int:
        """Number of signal points."""
        return self.points.shape[0]

    @cached_property
    def _powers(self) -> tuple:
        """(mean, max) of |w|^2 over the points, computed on first use."""
        p = _squared_norms(self.points)
        return float(np.mean(p)), float(np.max(p))

    @cached_property
    def _parts(self) -> list:
        """`symmetry.parts` of the (read-only) points, computed on first use."""
        return symmetry.parts(self.points)


def _squared_norms(pts) -> np.ndarray:
    """|w|^2 per row of an (M, 2) array: x*x + y*y, the bits of a row sum."""
    x, y = pts.T
    return x * x + y * y


def _check_common(n, power) -> tuple:
    return integer("n", n, 1, MAX_N), positive("power", power)


def _ring_layout(family: str, n: int) -> tuple:
    """(rings, points per ring) of an APSK family: n x n, or n/2 x 2n."""
    return (n, n) if family == BOX_MULLER else (n // 2, 2 * n)


def _apsk(family, n, power, normalize, label):
    rings, per_ring = _ring_layout(family, n)
    with np.errstate(over="ignore"):  # overflows are rejected below
        radii = np.sqrt(-power * np.log((2 * np.arange(rings) + 1) / (2.0 * rings)))
        phases = 2.0 * np.pi * (2 * np.arange(per_ring) + 1) / (2.0 * per_ring)
        grid = np.empty((rings, per_ring, 2))  # filled in place, one array
        for axis, f in enumerate((np.cos, np.sin)):
            np.multiply.outer(radii, f(phases), out=grid[..., axis])
        points = grid.reshape(-1, 2)
        mean = np.mean(_squared_norms(points)) if normalize else 1.0
    # a squared radius that rounded to 0 or overflowed, or a mean that
    # overflowed (P/inf would scale every point to 0)
    if not (radii.min() > 0.0 and radii.max() < math.inf and 0.0 < mean < math.inf):
        raise DomainError(f"power {power!r} takes the squared radii outside the double range")
    if normalize:
        points *= np.sqrt(power / mean)
    if label is None:
        label = f"{family}_n{n}" + ("_normalized" if normalize else "")
    return Constellation(label, family, n, power, points)


def box_muller_apsk(
    n: int,
    power: float = 1.0,
    normalize: bool = False,
    label: Optional[str] = None,
) -> Constellation:
    """Shaped APSK constellation with n rings of n points each.

    Ring k has radius sqrt(-P*ln((2k+1)/(2n))) and carries n points at phases
    2*pi*(2l+1)/(2n); points are ordered ring-major, phase index fastest. The
    realized average power stays strictly below the budget P unless
    `normalize` rescales it to exactly P.

    Args:
        n: number of rings and of points per ring (n**2 points total).
        power: nominal power budget P.
        normalize: rescale so the average power equals P exactly.
        label: optional label; defaults to a descriptive one.
    """
    n, power = _check_common(n, power)
    return _apsk(BOX_MULLER, n, power, normalize, label)


def dvb_variant_apsk(
    n: int,
    power: float = 1.0,
    normalize: bool = False,
    label: Optional[str] = None,
) -> Constellation:
    """Variant APSK that splits the n^2 points over n/2 rings of 2n points.

    Ring k has radius sqrt(-P*ln((2k+1)/n)); each ring carries 2n points at
    phases 2*pi*(2l+1)/(4n). Requires even n so that n/2 rings are integral.
    """
    n, power = _check_common(n, power)
    if n % 2:
        raise DomainError(f"dvb_variant_apsk requires an even n, got {n}")
    return _apsk(DVB_VARIANT, n, power, normalize, label)


def square_qam(n: int, power: float = 1.0, label: Optional[str] = None) -> Constellation:
    """Square n-by-n QAM grid scaled to average power exactly P.

    Coordinates are (2i-n+1)*d with d chosen so the mean of |w|^2 equals P;
    n = 1 degenerates to the origin (zero power). Points are ordered
    row-major in (i, j).
    """
    n, power = _check_common(n, power)
    if n == 1:
        points = np.zeros((1, 2))
    else:
        # mean of x^2+y^2 over the unscaled grid is 2*(n^2-1)/3
        d = np.sqrt(3.0 * power / (2.0 * (n * n - 1)))
        coords = (2 * np.arange(n) - n + 1) * d
        grid = np.empty((n, n, 2))  # filled in place, one array
        grid[..., 0], grid[..., 1] = coords[:, None], coords
        points = grid.reshape(-1, 2)
    if label is None:
        label = f"{SQUARE_QAM}_n{n}"
    return Constellation(label, SQUARE_QAM, n, power, points)


def make_constellation(
    family: str,
    n: int,
    power: float = 1.0,
    normalize: bool = False,
    label: Optional[str] = None,
) -> Constellation:
    """Construct any family by (canonical or alias) name, for n in [1, MAX_N].

    `normalize` rescales the APSK families to average power exactly P; it is
    a no-op for square QAM, which is built at exactly P.
    """
    fam = canonical_family(family)
    if fam == BOX_MULLER:
        return box_muller_apsk(n, power, normalize, label)
    if fam == DVB_VARIANT:
        return dvb_variant_apsk(n, power, normalize, label)
    return square_qam(n, power, label)


def average_power(c: Constellation) -> float:
    """Mean of |w|^2 over the signal points."""
    return c._powers[0]


def peak_power(c: Constellation) -> float:
    """Max of |w|^2 over the signal points."""
    return c._powers[1]


def papr(c: Constellation) -> float:
    """Peak-to-average power ratio. Undefined for a zero-power point set."""
    avg = average_power(c)
    if avg == 0.0:
        raise DomainError("PAPR is undefined for a constellation with zero average power")
    return peak_power(c) / avg


def min_distance(c: Constellation) -> float:
    """Minimum pairwise Euclidean distance, exact over all pairs.

    Rows i of the pair matrix go in blocks against the columns j > i, with
    the squared distances of a block formed in two buffers of about
    _PAIR_BLOCK doubles each (one row at least).
    """
    pts = c.points
    m = len(pts)
    if m < 2:
        raise DomainError("min_distance requires at least two points")
    xs, ys = np.ascontiguousarray(pts.T)
    rows = max(1, min(m - 1, _PAIR_BLOCK // m))
    d2, dy = np.empty(rows * m), np.empty(rows * m)
    best = np.inf
    for s in range(0, m - 1, rows):
        e = min(s + rows, m - 1)
        k, cols = e - s, m - 1 - s
        # rows i in [s, e) against columns j in [s + 1, m)
        dk = np.subtract.outer(xs[s:e], xs[s + 1 :], out=d2[: k * cols].reshape(k, cols))
        yk = np.subtract.outer(ys[s:e], ys[s + 1 :], out=dy[: k * cols].reshape(k, cols))
        dk *= dk
        yk *= yk
        dk += yk
        np.copyto(dk[:, :k], np.inf, where=np.tri(k, k, -1, dtype=bool))  # pairs j <= i
        best = min(best, float(dk.min()))
    return float(np.sqrt(best))


def validate_constellation(c: Constellation) -> None:
    """Check the family's invariants; raise DomainError on violation.

    On top of construction's checks: a known family, n in [1, MAX_N] (even
    for dvb_variant), n^2 distinct points, and the family's power and rings.
    Used by the file reader and available to callers that build
    Constellation values by hand.
    """
    if c.family not in FAMILIES:
        raise DomainError(f"unknown family {c.family!r}")
    n, power, pts = integer("n", c.n, 1, MAX_N), c.power, c.points
    if c.family == DVB_VARIANT and n % 2:
        raise DomainError(f"family {DVB_VARIANT} requires an even n, got {n}")
    if pts.shape[0] != n**2:
        raise DomainError(f"expected {n ** 2} points for n={n}, found {pts.shape[0]}")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    srt = pts[order]
    if len(srt) > 1 and np.any(np.all(srt[1:] == srt[:-1], axis=1)):
        raise DomainError("points must be distinct")

    avg = average_power(c)
    if c.family == SQUARE_QAM:
        # the n=1 grid degenerates to the origin and cannot carry power P
        if n == 1:
            if np.any(pts != 0.0):
                raise DomainError("square_qam with n=1 must be the origin")
        elif abs(avg - power) > _POWER_RTOL * power:
            raise DomainError(
                f"square_qam average power {avg!r} must equal the budget {power!r}"
            )
        return

    if avg > power * (1.0 + _POWER_RTOL):
        raise DomainError(f"average power {avg!r} exceeds the budget {power!r}")
    # ring-major order
    radii = np.sqrt(_squared_norms(pts)).reshape(_ring_layout(c.family, n)[0], -1)
    ring_radii = radii.mean(axis=1)
    if np.any(np.abs(radii - ring_radii[:, None]) > _RING_RTOL * ring_radii[:, None]):
        raise DomainError("every point must lie on its ring radius")
    if np.any(np.abs(np.diff(np.sort(ring_radii))) <= _RING_RTOL * ring_radii.max()):
        raise DomainError("ring radii must be distinct")
