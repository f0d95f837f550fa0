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

from . import symmetry, workers
from .errors import DomainError, integer, pairs, positive

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
# pairs per min_distance block: 1 << 16, so its three buffers of differences
# and coordinates take about 1.5 MB in all
_PAIR_BLOCK = 1 << 16
# a least squared distance from which min_distance takes the points' own
# differences: above it no square that decides it underflowed
_TINY_SQUARE = 2.0**-960


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
    read-only copy of the points as `errors.pairs` returns them (finite
    float64, (M, 2), M >= 1) and needs P to be a finite real > 0, else
    DomainError; `validate_constellation` adds the family's invariants.
    Every computation on the points takes them times 2**-k and N0 times 4**-k
    (k = `_exponent`, from `math.frexp` of the largest coordinate magnitude):
    exact at any size. Physical outputs are scaled back, inf past the range.
    """

    label: str
    family: str
    n: int
    power: float
    points: np.ndarray

    def __post_init__(self):
        pts = pairs("points", self.points, copy=True)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "power", positive("power", self.power))
        object.__setattr__(self, "_exponent", math.frexp(max(-pts.min(), pts.max()))[1])

    @property
    def M(self) -> int:
        """Number of signal points."""
        return self.points.shape[0]

    def _scaled(self) -> np.ndarray:  # a new (M, 2) array
        return np.ldexp(self.points, -self._exponent)

    @cached_property
    def _powers(self) -> tuple:
        """(mean, max) of |w|^2 over the scaled points, computed on first use."""
        p = _squared_norms(self._scaled())
        return float(np.mean(p)), float(np.max(p))

    @cached_property
    def _parts(self) -> list:
        """`symmetry.parts` of the scaled points, computed on first use."""
        return symmetry.parts(self._scaled())


def _ldexp(x: float, k: int) -> float:
    """x * 2**k, inf past the double range (where `math.ldexp` raises)."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def _squared_norms(pts) -> np.ndarray:
    """|w|^2 per row of an (M, 2) array: x*x + y*y, the bits of a row sum."""
    x, y = pts.T
    return x * x + y * y


def _check_common(n, power) -> tuple:
    """(n, P, P * 4**-e, e): a family builds at P * 4**-e in [0.5, 2), then scales by 2**e."""
    n, power = integer("n", n, 1, MAX_N), positive("power", power)
    e = math.frexp(power)[1] // 2
    return n, power, math.ldexp(power, -2 * e), e


def _ring_layout(family: str, n: int) -> tuple:
    """(rings, points per ring) of an APSK family: n x n, or n/2 x 2n."""
    return (n, n) if family == BOX_MULLER else (n // 2, 2 * n)


def _apsk(family, n, power, unit, e, normalize, label):
    rings, per_ring = _ring_layout(family, n)
    radii = np.sqrt(-unit * np.log((2 * np.arange(rings) + 1) / (2.0 * rings)))
    phases = 2.0 * np.pi * (2 * np.arange(per_ring) + 1) / (2.0 * per_ring)
    grid = np.empty((rings, per_ring, 2))  # filled in place, one array
    for axis, f in enumerate((np.cos, np.sin)):
        np.multiply.outer(radii, f(phases), out=grid[..., axis])
    points = grid.reshape(-1, 2)
    if normalize:
        points *= np.sqrt(unit / np.mean(_squared_norms(points)))
    np.ldexp(points, e, out=points)
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
    return _apsk(BOX_MULLER, *_check_common(n, power), normalize, label)


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
    n, power, unit, e = _check_common(n, power)
    if n % 2:
        raise DomainError(f"dvb_variant_apsk requires an even n, got {n}")
    return _apsk(DVB_VARIANT, n, power, unit, e, normalize, label)


def square_qam(n: int, power: float = 1.0, label: Optional[str] = None) -> Constellation:
    """Square n-by-n QAM grid scaled to average power exactly P.

    Coordinates are (2i-n+1)*d with d chosen so the mean of |w|^2 equals P;
    n = 1 degenerates to the origin (zero power). Points are ordered
    row-major in (i, j).
    """
    n, power, unit, e = _check_common(n, power)
    if n == 1:
        points = np.zeros((1, 2))
    else:
        # mean of x^2+y^2 over the unscaled grid is 2*(n^2-1)/3
        d = np.sqrt(3.0 * unit / (2.0 * (n * n - 1)))
        coords = (2 * np.arange(n) - n + 1) * d
        grid = np.empty((n, n, 2))  # filled in place, one array
        grid[..., 0], grid[..., 1] = coords[:, None], coords
        points = grid.reshape(-1, 2)
        np.ldexp(points, e, out=points)
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
    """Mean of |w|^2 over the signal points; inf past the double range."""
    return _ldexp(c._powers[0], 2 * c._exponent)


def peak_power(c: Constellation) -> float:
    """Max of |w|^2 over the signal points; inf past the double range."""
    return _ldexp(c._powers[1], 2 * c._exponent)


def papr(c: Constellation) -> float:
    """Peak-to-average power ratio, finite for any set. Undefined at zero power."""
    mean, peak = c._powers
    if mean == 0.0:
        raise DomainError("PAPR is undefined for a constellation with zero average power")
    return peak / mean


def _closest(xs, ys, dist) -> float:
    """The least dist(x_i - x_j, y_i - y_j) over the pairs i < j.

    Rows i of the pair matrix go in blocks against the columns j > i, with a
    block's differences formed in two buffers of about _PAIR_BLOCK doubles
    each (one row at least), and a third of the same size that holds the
    columns' coordinates, all from the calling thread's kept workspace
    (`workers._WORKSPACE`); `dist` writes its value into the first. Both
    operands of a subtraction are written out whole first: numpy buffers a
    broadcast operand, 112 kB a block at box_muller n=48. Only the pairs
    j = i are masked: row j of the same block forms a block's pairs j < i,
    with the same bits (x_j - x_i is exactly -(x_i - x_j); `dist` is even).
    """
    m = len(xs)
    rows = max(1, min(m - 1, _PAIR_BLOCK // m))
    bufs = workers._WORKSPACE.take(rows * m, rows * m, rows * m)
    best = np.inf
    for s in range(0, m - 1, rows):
        e = min(s + rows, m - 1)
        k, cols = e - s, m - 1 - s
        # rows i in [s, e) against columns j in [s + 1, m)
        dk, yk, vj = (b[: k * cols].reshape(k, cols) for b in bufs)
        for d, v in ((dk, xs), (yk, ys)):
            np.copyto(d, v[s:e, None])
            np.copyto(vj, v[s + 1 :])
            np.subtract(d, vj, out=d)
        dist(dk, yk)
        # pairs j = i, at (r, r - 1); np.fill_diagonal took 5.5 kB a call
        dk.reshape(-1)[cols : k * cols : cols + 1] = np.inf
        best = min(best, float(dk.min()))
    return best


def _squared(dx, dy):
    dx *= dx
    dy *= dy
    dx += dy


def min_distance(c: Constellation) -> float:
    """Minimum pairwise Euclidean distance, exact over all pairs.

    The squared distances of the scaled points give it, unless the least is
    below _TINY_SQUARE: a pair that close (under about 2**-480 of the
    largest coordinate) may have lost bits to underflow in its square or in
    a scaled coordinate, so a second pass takes `np.hypot` of the points'
    own differences, which squares nothing (inf where a difference passes
    the double range, as the distance then does).
    """
    if c.M < 2:
        raise DomainError("min_distance requires at least two points")
    # each coordinate as a strided column: a transposed copy took 75 kB at n=48
    scaled = c._scaled()
    best = _closest(scaled[:, 0], scaled[:, 1], _squared)
    if best >= _TINY_SQUARE:
        return _ldexp(math.sqrt(best), c._exponent)
    with np.errstate(over="ignore"):
        return _closest(c.points[:, 0], c.points[:, 1], lambda dx, dy: np.hypot(dx, dy, out=dx))


def validate_constellation(c: Constellation) -> None:
    """Check the family's invariants; raise DomainError on violation.

    On top of construction's checks: a known family, n in [1, MAX_N] (even
    for dvb_variant), n^2 distinct points, and the family's power and rings.
    The ring checks, all relative, take a scaled (M, 2) copy. Used by the
    file reader and by callers that build Constellation values by hand.
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
    radii = np.sqrt(_squared_norms(c._scaled())).reshape(_ring_layout(c.family, n)[0], -1)
    ring_radii = radii.mean(axis=1)
    if np.any(np.abs(radii - ring_radii[:, None]) > _RING_RTOL * ring_radii[:, None]):
        raise DomainError("every point must lie on its ring radius")
    if np.any(np.abs(np.diff(np.sort(ring_radii))) <= _RING_RTOL * ring_radii.max()):
        raise DomainError("ring radii must be distinct")
