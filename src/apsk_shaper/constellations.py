"""Constellation families: Box-Muller APSK, its DVB-style variant, square QAM.

Each family produces an immutable set of n^2 signal points in the plane under
a nominal power budget P. The APSK families place points on concentric rings
whose squared radii are -P*ln(u) for a midpoint grid of u values in (0, 1);
feeding a uniform grid through the polar normal-sampling map makes the point
set mimic a zero-mean Gaussian pair with variance P/2 per axis, which is what
drives the capacity results this package audits. Square QAM is the uniformly
spaced baseline, rescaled to average power exactly P.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError

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

    `points` is an (n^2, 2) float64 array in canonical order (ring-major for
    APSK, grid-major for QAM) and is marked read-only. `power` is the budget
    P the family was constructed for, not the realized average power.
    """

    label: str
    family: str
    n: int
    power: float
    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def M(self) -> int:
        """Number of signal points."""
        return self.points.shape[0]


def _check_common(n: int, power: float) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    if not np.isfinite(power) or power <= 0:
        raise DomainError(f"power must be > 0, got {power!r}")


def _ring_points(radii: np.ndarray, phases: np.ndarray) -> np.ndarray:
    x = radii[:, None] * np.cos(phases)[None, :]
    y = radii[:, None] * np.sin(phases)[None, :]
    return np.stack([x.ravel(), y.ravel()], axis=1)


def _apsk(family, n, power, radii, phases, normalize, label):
    points = _ring_points(radii, phases)
    if normalize:
        points = points * np.sqrt(power / np.mean(np.sum(points**2, axis=1)))
    if label is None:
        label = f"{family}_n{n}" + ("_normalized" if normalize else "")
    return Constellation(label, family, n, float(power), points)


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
    _check_common(n, power)
    k = np.arange(n)
    u = (2 * k + 1) / (2.0 * n)
    radii = np.sqrt(-power * np.log(u))
    phases = 2.0 * np.pi * (2 * k + 1) / (2.0 * n)
    return _apsk(BOX_MULLER, n, power, radii, phases, normalize, label)


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
    _check_common(n, power)
    if n % 2:
        raise DomainError(f"dvb_variant_apsk requires an even n, got {n}")
    k = np.arange(n // 2)
    u = (2 * k + 1) / float(n)
    radii = np.sqrt(-power * np.log(u))
    phases = 2.0 * np.pi * (2 * np.arange(2 * n) + 1) / (4.0 * n)
    return _apsk(DVB_VARIANT, n, power, radii, phases, normalize, label)


def square_qam(n: int, power: float = 1.0, label: Optional[str] = None) -> Constellation:
    """Square n-by-n QAM grid scaled to average power exactly P.

    Coordinates are (2i-n+1)*d with d chosen so the mean of |w|^2 equals P;
    n = 1 degenerates to the origin (zero power). Points are ordered
    row-major in (i, j).
    """
    _check_common(n, power)
    if n == 1:
        points = np.zeros((1, 2))
    else:
        # mean of x^2+y^2 over the unscaled grid is 2*(n^2-1)/3
        d = np.sqrt(3.0 * power / (2.0 * (n * n - 1)))
        coords = (2 * np.arange(n) - n + 1) * d
        gx, gy = np.meshgrid(coords, coords, indexing="ij")
        points = np.stack([gx.ravel(), gy.ravel()], axis=1)
    if label is None:
        label = f"{SQUARE_QAM}_n{n}"
    return Constellation(label, SQUARE_QAM, n, float(power), points)


def make_constellation(
    family: str,
    n: int,
    power: float = 1.0,
    normalize: bool = False,
    label: Optional[str] = None,
) -> Constellation:
    """Construct any family by (canonical or alias) name."""
    fam = canonical_family(family)
    if fam == BOX_MULLER:
        return box_muller_apsk(n, power, normalize, label)
    if fam == DVB_VARIANT:
        return dvb_variant_apsk(n, power, normalize, label)
    if normalize:
        raise DomainError("normalize applies to the APSK families only")
    return square_qam(n, power, label)


def average_power(c: Constellation) -> float:
    """Mean of |w|^2 over the signal points."""
    return float(np.mean(np.sum(c.points**2, axis=1)))


def peak_power(c: Constellation) -> float:
    """Max of |w|^2 over the signal points."""
    return float(np.max(np.sum(c.points**2, axis=1)))


def papr(c: Constellation) -> float:
    """Peak-to-average power ratio. Undefined for a zero-power point set."""
    avg = average_power(c)
    if avg == 0.0:
        raise DomainError("PAPR is undefined for a constellation with zero average power")
    return peak_power(c) / avg


def min_distance(c: Constellation) -> float:
    """Minimum pairwise Euclidean distance, exact over all pairs."""
    pts = c.points
    m = len(pts)
    if m < 2:
        raise DomainError("min_distance requires at least two points")
    best = np.inf
    chunk = max(1, 4_000_000 // m)
    cols = np.arange(m)
    for s in range(0, m, chunk):
        block = pts[s : s + chunk]
        d2 = np.sum((block[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        rows = np.arange(s, s + len(block))
        d2[cols[None, :] <= rows[:, None]] = np.inf  # upper triangle only
        best = min(best, float(d2.min()))
    return float(np.sqrt(best))


def validate_constellation(c: Constellation) -> None:
    """Check every structural invariant; raise DomainError on violation.

    Used by the file reader and available to callers that build
    Constellation values by hand.
    """
    if c.family not in FAMILIES:
        raise DomainError(f"unknown family {c.family!r}")
    _check_common(c.n, c.power)
    if c.family == DVB_VARIANT and c.n % 2:
        raise DomainError(f"family {DVB_VARIANT} requires an even n, got {c.n}")
    pts = c.points
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"points must have shape (M, 2), got {pts.shape}")
    if pts.shape[0] != c.n**2:
        raise DomainError(f"expected {c.n ** 2} points for n={c.n}, found {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    srt = pts[order]
    if len(srt) > 1 and np.any(np.all(srt[1:] == srt[:-1], axis=1)):
        raise DomainError("points must be distinct")

    avg = average_power(c)
    if c.family == SQUARE_QAM:
        # the n=1 grid degenerates to the origin and cannot carry power P
        if c.n == 1:
            if np.any(pts != 0.0):
                raise DomainError("square_qam with n=1 must be the origin")
        elif abs(avg - c.power) > _POWER_RTOL * c.power:
            raise DomainError(
                f"square_qam average power {avg!r} must equal the budget {c.power!r}"
            )
        return

    if avg > c.power * (1.0 + _POWER_RTOL):
        raise DomainError(f"average power {avg!r} exceeds the budget {c.power!r}")
    # ring-major order: n rings of n points, or n/2 rings of 2n points
    n_rings = c.n if c.family == BOX_MULLER else c.n // 2
    radii = np.sqrt(np.sum(pts**2, axis=1)).reshape(n_rings, -1)
    ring_radii = radii.mean(axis=1)
    if np.any(np.abs(radii - ring_radii[:, None]) > _RING_RTOL * ring_radii[:, None]):
        raise DomainError("every point must lie on its ring radius")
    if np.any(np.abs(np.diff(np.sort(ring_radii))) <= _RING_RTOL * ring_radii.max()):
        raise DomainError("ring radii must be distinct")
