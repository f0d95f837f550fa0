"""Gaussian channel capacity and mutual information of finite constellations.

The channel is y = x + N with complex (2D) noise of total variance N0,
split N0/2 per real axis, and N0 = P/snr where P is the constellation's
nominal power budget. For an equiprobable point set {x_i} the mutual
information in bits per 2D channel use is

    I = log2(M) - (1/M) * sum_i E_N[ log2 sum_j exp(-(|x_i+N-x_j|^2 - |N|^2)/N0) ]

which this module evaluates two independent ways: a deterministic tensor
Gauss-Hermite rule (`mi_quadrature`) and a seeded stratified Monte Carlo
(`mi_monte_carlo`) that serves as its cross-check. Both form their inner
sums in one helper, `_log_partition`, which uses log-sum-exp with max
subtraction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constellations import Constellation
from .errors import DomainError, EstimatorError
from .numerics import LN2, gauss_hermite_2d, logsumexp_rows

DEFAULT_ORDER = 40

# cap on chunk * nodes * points temporaries in the quadrature loop
_CHUNK_ELEMENTS = 8_000_000
_MC_CHUNK_ROWS = 65536
# counter advance separating per-point Philox streams
_MC_STREAM_STRIDE = 1 << 64

_MI_SLACK = 1e-9
_CAPACITY_SLACK = 1e-6


@dataclass(frozen=True)
class SnrSpec:
    """Signal-to-noise ratio as a linear power ratio."""

    snr: float

    def __post_init__(self):
        _as_snr(self.snr)

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrSpec":
        return cls(10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class MiEstimate:
    """Mutual information in bits per 2D use with its provenance."""

    value: float
    method: str
    std_error: float


def _as_snr(snr) -> float:
    value = snr.snr if isinstance(snr, SnrSpec) else float(snr)
    if not np.isfinite(value) or value <= 0:
        raise DomainError(f"snr must be a positive finite ratio, got {snr!r}")
    return value


def _noise_variance(c: Constellation, snr) -> float:
    """Total 2D noise variance N0 = P/snr, split N0/2 per real axis."""
    n0 = c.power / _as_snr(snr)
    # a hand-built Constellation can carry power 0
    if not np.isfinite(n0) or n0 <= 0:
        raise DomainError(f"noise variance must be > 0, got {n0!r}")
    return n0


def _log_partition(noise2, diff, sq, n0):
    """log sum_j exp(-(|x_i-x_j|^2 + <2*noise, x_i-x_j>)/N0) per noise row.

    `noise2` is (K, 2) doubled noise, `diff` is (..., M, 2) of x_i - x_j and
    `sq` is (..., M) of |x_i - x_j|^2; the result has shape (..., K).
    """
    expo = np.matmul(noise2, np.swapaxes(diff, -1, -2))
    expo += sq[..., None, :]
    expo *= -1.0 / n0
    return logsumexp_rows(expo)


def gaussian_capacity(snr) -> float:
    """log2(1 + snr), the Gaussian capacity in bits per 2D use."""
    return math.log2(1.0 + _as_snr(snr))


def _finish_value(value: float, m: int) -> float:
    if value > math.log2(m) + _MI_SLACK or value < -_MI_SLACK:
        raise EstimatorError(
            f"MI estimate {value!r} outside [0, log2({m})]; estimator bug"
        )
    return max(value, 0.0)


def mi_quadrature(c: Constellation, snr, order: int = DEFAULT_ORDER) -> MiEstimate:
    """Deterministic MI estimate via a tensor Gauss-Hermite rule.

    `order` nodes per noise axis; the expectation over the noise uses the
    substitution N = sqrt(N0) * z against the weight exp(-z^2)/sqrt(pi) on
    each axis. Exactly reproducible across runs.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 2:
        raise DomainError(f"quadrature order must be an integer >= 2, got {order!r}")
    n0 = _noise_variance(c, snr)
    pts = c.points
    m = len(pts)
    nodes, weights = gauss_hermite_2d(order)
    # 2*N for the noise N = sqrt(N0) * z at every node
    noise2 = (2.0 * math.sqrt(n0)) * nodes
    total = 0.0
    chunk = max(1, _CHUNK_ELEMENTS // (len(nodes) * m))
    for s in range(0, m, chunk):
        diff = pts[s : s + chunk, None, :] - pts[None, :, :]
        sq = np.einsum("imd,imd->im", diff, diff)
        total += float((_log_partition(noise2, diff, sq, n0) @ weights).sum())
    value = math.log2(m) - total / (m * LN2)
    return MiEstimate(_finish_value(value, m), "quadrature", 0.0)


def _merge_moments(state, count, mean, m2):
    n_a, mean_a, m2_a = state
    n = n_a + count
    delta = mean - mean_a
    mean_out = mean_a + delta * (count / n)
    m2_out = m2_a + m2 + delta * delta * (n_a * count / n)
    return n, mean_out, m2_out


def mi_monte_carlo(c: Constellation, snr, samples: int, seed: int) -> MiEstimate:
    """Stratified Monte Carlo MI estimate, the quadrature cross-check.

    `samples` noise draws in total, split as evenly as possible over the
    transmitted points (the first `samples % M` points receive one extra).
    Each point draws from its own Philox stream, offset from `seed` by a
    fixed counter stride, so the result is independent of evaluation order
    and bitwise reproducible for identical inputs. std_error is the sample
    standard deviation of the per-draw contributions divided by
    sqrt(samples).
    """
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise DomainError(f"samples must be an integer >= 1, got {samples!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    n0 = _noise_variance(c, snr)
    pts = c.points
    m = len(pts)
    counts = np.full(m, samples // m, dtype=np.int64)
    counts[: samples % m] += 1
    sigma = math.sqrt(n0 / 2.0)
    log_m = math.log(m)
    stratum_means = np.zeros(m)
    moments = (0.0, 0.0, 0.0)  # pooled per-draw count/mean/M2
    for i in range(m):
        if counts[i] == 0:
            continue
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(i * _MC_STREAM_STRIDE)
        rng = np.random.Generator(bitgen)
        diff = pts[i] - pts
        sq = np.sum(diff * diff, axis=1)
        acc = 0.0
        left = int(counts[i])
        while left > 0:
            k = min(left, _MC_CHUNK_ROWS)
            noise2 = rng.standard_normal((k, 2))
            noise2 *= 2.0 * sigma
            g = log_m - _log_partition(noise2, diff, sq, n0)
            g /= LN2
            acc += float(g.sum())
            gm = float(g.mean())
            moments = _merge_moments(moments, k, gm, float(np.sum((g - gm) ** 2)))
            left -= k
        stratum_means[i] = acc / counts[i]
    if samples >= m:
        value = float(stratum_means.mean())
    else:
        # not enough draws to condition on every point; plain sample mean
        value = float(np.sum(stratum_means * counts) / samples)
    _, _, m2 = moments
    std_error = math.sqrt(m2 / (samples - 1) / samples) if samples > 1 else 0.0
    return MiEstimate(_finish_value(value, m), "monte_carlo", std_error)


def gap_metrics(mi: float, snr) -> tuple:
    """Vertical and horizontal distance of a rate point to the capacity curve.

    gap_bits = log2(1+snr) - mi. gap_db is the SNR overhead at equal rate,
    10*log10(snr / (2**mi - 1)), reported as +inf when mi == 0. Raises
    EstimatorError when mi exceeds capacity beyond tolerance (the estimator
    bug sentinel) and DomainError for negative mi.
    """
    s = _as_snr(snr)
    if not np.isfinite(mi) or mi < 0:
        raise DomainError(f"mi must be a finite value >= 0, got {mi!r}")
    capacity = math.log2(1.0 + s)
    if mi > capacity + _CAPACITY_SLACK:
        raise EstimatorError(
            f"MI {mi!r} exceeds capacity {capacity!r} beyond tolerance"
        )
    gap_bits = capacity - mi
    if mi == 0.0:
        return gap_bits, math.inf
    return gap_bits, 10.0 * math.log10(s / (2.0**mi - 1.0))
