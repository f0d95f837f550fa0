"""Gaussian channel capacity and mutual information of finite constellations.

The channel is y = x + N with complex (2D) noise of total variance N0,
split N0/2 per real axis, and N0 = P/snr where P is the constellation's
nominal power budget. For an equiprobable point set {x_i} the mutual
information in bits per 2D channel use is

    I = log2(M) - (1/M) * sum_i E_N[ log2 sum_j exp(-(|x_i+N-x_j|^2 - |N|^2)/N0) ]

which this module evaluates two independent ways: a deterministic tensor
Gauss-Hermite rule (`mi_quadrature`) and a seeded stratified Monte Carlo
(`mi_monte_carlo`) that serves as its cross-check.

Monte Carlo forms its inner sums for one transmitted point x_i at a time
in `_log_partition`. It walks the noise rows in blocks of about
_BLOCK_ELEMENTS exponents, small enough to stay in cache, each laid out
point-major (one contiguous row of exponents per point j). A block's
exponents are one product, [d_x, d_y, |d|^2] (M, 3) times the block's
doubled noise over a row of ones (3, n), scaled by -1/N0; |d|^2 enters as
the last term of gemm's multiply-add chain, with the bits of a separate
add. Each block is reduced with `numerics.logsumexp_rows`: exponents
clipped at a floor that cannot change a row sum, then `exp`, a row sum and
`log`. There is no max pass: the j = i exponent is exactly 0, so every row
sum is at least 1, and no exponent exceeds |N|^2/N0, half the squared norm
of the draw's standard-normal pair. The clip runs only when the bound
-(|d|max^2 + 2|N|max |d|max)/N0 on the exponents says it can bite. A
value's bits are fixed by the draws per point, M, _BLOCK_ELEMENTS and the
gemm kernel (gemm can round an element of the exponent product differently
at another block width); they do not depend on the number of threads or
the order in which the points run.

The quadrature uses that the tensor rule's nodes z = (z_a, z_b) form a
grid, and that with d_j = x_i - x_j the term of j at node z factors as

    exp(-2 z_a d_jx/sqrt(N0)) * exp(-2 z_b d_jy/sqrt(N0) - |d_j|^2/N0).

So the inner sums at all nodes are one product S = A B^T of two (R, M)
matrices over the R 1D nodes, not one exponential per node and point.
Points whose term is below e**-37/M at every kept node, those beyond one
squared distance (`_kept_reach`), are left out first; that moves MI by
about 1e-16 bits and bounds every exponent, so S needs no max pass or clip
(`_chunk_sums`). The rule leaves out tensor nodes of weight below 1e-16.

The quadrature takes the outer mean over (representative point,
multiplicity) pairs against the tensor rule, and reads two structures from
the points (see `symmetry`). A point set is evaluated at one point per
orbit of the largest subgroup of the square's symmetries that maps it onto
itself, weighted by the orbit's size; with no symmetry that is every point
once. A square grid X x Y first splits into two 1D problems,
MI = MI(X) + MI(Y), each a point set on the x axis against the same
kernel: there d_y = 0 for every pair, so the y noise cancels from the
exponent and B reduces to exp(-|d|^2/N0); equal axes are one problem,
counted twice. Both structures depend on the points alone: `symmetry.parts`
splits the set, and the Constellation caches that split on first use
(`Constellation._parts`, beside its powers) until it is freed. Blocks of
representatives (`_grid_mi`) share differences, pruning masks, logs and
weighted sums, chunks of their kept columns A and B, and only S is per
representative. Monte Carlo always draws for every point and never reads
the split: it is the independent check on both shortcuts. Its points
(strata) run on a pool of one worker thread per available core,
each drawing from its own Philox stream, and are merged in point order, so
the value and std_error have the same bits for any number of threads.
"""

import bisect
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constellations import Constellation
from .errors import DomainError, EstimatorError, integer, positive
from .numerics import EXP_FLOOR, LN2, gauss_hermite_2d, logsumexp_rows

DEFAULT_ORDER = 40

# exponents per logsumexp block, and per block of the tensor rule's two
# factors together: 1 << 17 doubles (about 1 MB), so a block stays in a
# 2 MB L2 cache from the operation that forms it to its reduction
_BLOCK_ELEMENTS = 1 << 17
# the EXP_FLOOR clip is skipped when every exponent provably stays
# above -_CLIP_FREE_NATS (see _clip_can_bite)
_CLIP_FREE_NATS = -EXP_FLOOR - 100.0
# the tensor rule leaves out point j for transmitted point i when its term
# is below e**-_PRUNE_NATS / M at every kept node (see _kept_reach)
_PRUNE_NATS = 37.0
# order**2 nodes are built before pruning; this keeps them to 65,536
_MAX_ORDER = 256
_MC_CHUNK_ROWS = 65536
# counter advance separating per-point Philox streams
_MC_STREAM_STRIDE = 1 << 64
# worker threads for the Monte Carlo strata
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no sched_getaffinity on macOS or Windows
    _WORKERS = os.cpu_count() or 1

_MI_SLACK = 1e-9
_CAPACITY_SLACK = 1e-6


@dataclass(frozen=True)
class SnrSpec:
    """Signal-to-noise ratio as a linear power ratio."""

    snr: float

    def __post_init__(self):
        object.__setattr__(self, "snr", _as_snr(self.snr))

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrSpec":
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:  # above about 3082.5 dB; rejected as infinite below
            snr = math.inf
        return cls(snr)


@dataclass(frozen=True)
class MiEstimate:
    """Mutual information in bits per 2D use with its provenance."""

    value: float
    method: str
    std_error: float


def _as_snr(snr) -> float:
    return positive("snr", snr.snr if isinstance(snr, SnrSpec) else snr)


def _noise_variance(c: Constellation, snr) -> float:
    """N0 = P/snr, split N0/2 per real axis.

    The Constellation has checked P; N0 is checked as well, as a tiny P over
    a large snr can underflow to 0.
    """
    return positive("noise variance", c.power / _as_snr(snr))


def _log_partition(noise2, diff, sq, n0, out=None, buf=None):
    """log sum_j exp(-(|x_i-x_j|^2 + <2*noise, x_i-x_j>)/N0) per noise row.

    Monte Carlo's kernel; the quadrature takes `_grid_mi` instead.

    `noise2` is (K, 2) doubled noise, `diff` is (M, 2) of x_i - x_j for one
    transmitted point x_i and `sq` is (M,) of |x_i - x_j|^2; the result has
    shape (K,) and is written into `out` when given. Rows are formed and
    reduced in blocks of n = max(2, _BLOCK_ELEMENTS // M) rows. `buf`, when
    given, is a pair of flat buffers (block, operand) of at least
    min(K, n)*M and 3*min(K, n) elements. A block's exponents are one
    product, formed point-major as the C-order (M, n) product
    [d_x, d_y, |d|^2] @ [2N_x; 2N_y; 1] and then scaled by -1/N0, and
    reduced through its (n, M) view, so every step runs over contiguous
    columns. The (3, n) operand is the block's noise rows, copied in, over
    a row of ones. gemm's multiply-add chain adds |d|^2 last, as the
    separate broadcast add after a two-term product did, so the bits are
    the same. The scale stays a pass of its own: folded into the (M, 3)
    operand, -1/N0 moved a tenth of the rows, by up to 5.3e-15 nats (qam,
    box_muller and dvb_variant n=2 to 16, 0-30 dB). Against that add,
    which took as long as the product at M >= 32, a block costs a copy of
    2n doubles and a third term. A one-row matmul goes through gemv, which
    rounds differently from gemm, so no block has one row unless K is 1: a
    one-row tail starts a row early and recomputes that row. The bits of a
    row can depend on n, since gemm may round an element of the product
    differently at another width; they are fixed by K, M, _BLOCK_ELEMENTS
    and the gemm kernel.

    No max is subtracted: the j = i exponent is exactly 0 (diff and sq are
    0 there), which is what `logsumexp_rows` needs, and no exponent exceeds
    |N|^2/N0 with N = noise2/2. For Monte Carlo's draws that is |z|^2/2 for
    a standard-normal pair z, which reaches `exp`'s overflow at 709 only
    with a coordinate beyond 26 sigma.
    """
    k, m = len(noise2), len(diff)
    rows = _block_rows(m)
    width = min(rows, k)
    if out is None:
        out = np.empty(k)
    # one pair of buffers for every block: allocated afresh, at alternating
    # sizes, a block is mapped and unmapped by malloc each time (0.5 s of
    # page faults in 1.8 s at box_muller n=24)
    if buf is None:
        buf = _aligned(width * m, 3 * width)
    block, operand = buf
    rhs = operand[: 3 * width].reshape(3, width)
    rhs[2] = 1.0
    lhs = np.column_stack((diff, sq))
    clip = _clip_can_bite(noise2, sq, n0)
    for s in range(0, k, rows):
        lo, hi = max(0, min(s, k - 2)), min(s + rows, k)
        n = hi - lo
        rhs[:2, :n] = noise2[lo:hi].T
        expo = np.matmul(lhs, rhs[:, :n], out=block[: n * m].reshape(m, n))
        expo *= -1.0 / n0
        logsumexp_rows(expo.T, out=out[lo:hi], clip=clip)
    return out


def _clip_can_bite(noise2, sq, n0) -> bool:
    """Whether an exponent of `_log_partition` can fall below EXP_FLOOR.

    With N = noise2/2 the exponent of j is -(|d_j|^2 + 2<N, d_j>)/N0, which
    is at least -(|d_j|^2 + 2|N||d_j|)/N0 >= -(|d|max^2 + 2|N|max |d|max)/N0,
    with |N| at most sqrt(2) times its largest coordinate. Below
    _CLIP_FREE_NATS (100 nats inside the floor, far beyond rounding) the
    clip is a no-op.
    """
    coord = 0.5 * max(float(noise2.max()), -float(noise2.min()))
    reach = math.sqrt(float(sq.max()))
    return (reach + 2.0 * math.sqrt(2.0) * coord) * reach / n0 > _CLIP_FREE_NATS


def _block_rows(m: int) -> int:
    return max(2, _BLOCK_ELEMENTS // m)


def _aligned(*sizes) -> list:
    """Flat float arrays of the given sizes in one allocation, each on a 64-byte line.

    The offset moves no bit, but at malloc's 16-byte alignment box_muller
    n=32 at 10 dB took 29.5 ms in the quadrature, not 23.3, and 200,000 Monte
    Carlo draws at n=8, 15 dB up to 48.3 ms, not 39.3. Reshaping is left to
    the caller: here, it cost a small quadrature row 5-15 us.
    """
    flat = np.empty(sum(sizes) + 8 * len(sizes))
    at, views = (-flat.ctypes.data % 64) // 8, []
    for size in sizes:
        views.append(flat[at : at + size])
        at += size + -size % 8  # whole lines of 8 doubles
    return views


def gaussian_capacity(snr) -> float:
    """log2(1 + snr), the Gaussian capacity in bits per 2D use."""
    return math.log2(1.0 + _as_snr(snr))


def _finish_value(value: float, m: int, cause: str = "estimator bug") -> float:
    if not -_MI_SLACK <= value <= math.log2(m) + _MI_SLACK:  # a NaN fails too
        raise EstimatorError(f"MI estimate {value!r} outside [0, log2({m})]; {cause}")
    return max(value, 0.0)


def _kept_reach(rho, m, n0) -> float:
    """The squared distance up to which the tensor rule keeps a point j for x_i.

    At a node z with |z| <= rho the term of j, d_j = x_i - x_j, is at most
    exp(-(|d_j|^2 - 2*sqrt(N0)*rho*|d_j|)/N0): below e**-_PRUNE_NATS / M once
    |d_j| passes the root sqrt(N0)*(rho + sqrt(rho^2 + ln M + _PRUNE_NATS)).
    A row sum is at least 1 (the j = i term is exactly 1, and always kept), so
    all the dropped terms together move its log by less than e**-37 (1e-16).
    """
    return n0 * (rho + math.sqrt(rho * rho + math.log(m) + _PRUNE_NATS)) ** 2


def _chunk_sums(coef, d, ends, lo, buf, s) -> int:
    """Add the chunk of the stream `d` from column `lo` to the sums S; return its end.

    `d` holds a block's kept columns [d_x; d_y; -|d|^2/N0], representative
    j's from ends[j - 1] (0 for j = 0) to ends[j] (a range when each keeps
    all M). One matmul by `coef` = [[zs, 0, 0], [0, zs, 1]], zs = -2z/sqrt(N0)
    over the R 1D nodes z, and one exp form A = exp(zs (x) d_x) and
    B = exp(zs (x) d_y - |d|^2/N0) in the flat buffer `buf`; each
    representative's columns then set its (R, R) s[j] = A B^T, or add to it
    if they began in the chunk before (S >= 1: the j = i term is 1). A chunk
    has at most w = len(buf) // 2R columns and ends where a representative
    starts, unless that one starts it, so a representative is cut only
    every w columns and its S has the same bits whatever shares its chunk.
    """
    # kept columns have |d_j|^2 <= _kept_reach, |d_j|/sqrt(N0) < 15.3 (rho <=
    # 5.93 up to order 256, M up to 2048^2): A's exponents lie within +-182
    # and B's within [-416, 36], so nothing overflows or turns subnormal
    j = bisect.bisect_right(ends, lo)  # the representative at lo
    start = ends[j - 1] if j else 0
    hi = min(lo + len(buf) // len(coef), d.shape[1])
    cut = bisect.bisect_right(ends, hi) - 1  # the last one to end by hi
    if j <= cut and ends[cut] < hi:
        hi = ends[cut]
    e = np.matmul(coef, d[:, lo:hi], out=buf[: len(coef) * (hi - lo)].reshape(len(coef), -1))
    np.exp(e, out=e)
    a, b = e[: len(e) // 2], e[len(e) // 2 :]
    while start < hi:
        p, q = max(start, lo) - lo, min(ends[j], hi) - lo
        if start < lo:
            s[j] += a[:, p:q] @ b[:, p:q].T
        else:
            np.matmul(a[:, p:q], b[:, p:q].T, out=s[j])
        start, j = ends[j], j + 1
    return hi


def _grid_mi(pts, reps, mults, z, w, rho, n0) -> float:
    """log2(M) - (1/M) sum_i E[log2 sum_j ...] over the M points `pts`.

    The sum over i runs over the representatives `reps`, each standing for
    `mults` points; the expectation is the tensor rule in grid form (z, w),
    pruned (`_kept_reach`) at the rule's kept node radius `rho`. Blocks of nb
    representatives share differences, masks, log and weighted sum.
    """
    m, r = len(pts), len(z)
    coef = np.zeros((2 * r, 3))
    coef[:r, 0] = coef[r:, 1] = (-2.0 / math.sqrt(n0)) * z
    coef[r:, 2] = 1.0
    pts_t = np.ascontiguousarray(pts.T)
    # the 2R w factors, w = min(nb M, _BLOCK_ELEMENTS // 2R), the (nb, R, R)
    # sums and the (3, nb, M) differences, each at most _BLOCK_ELEMENTS doubles
    # or one representative's, are one allocation per call, each on a 64-byte
    # line: per point, malloc mapped a buffer each time, and as three, glibc
    # trimmed the heap after each call and faulted them in again (425 faults a
    # call at box_muller n=15, order 256). d_y^2 goes in the factors' memory,
    # idle until |d|^2 is formed. A pruned block gathers its kept columns (a
    # tenth at 30 dB, box_muller n=16 to 64) and their indices into new arrays
    nb = min(len(reps), max(1, min(_BLOCK_ELEMENTS // (3 * m), _BLOCK_ELEMENTS // (r * r))))
    cols = min(nb * m, max(1, _BLOCK_ELEMENTS // (2 * r)))
    work, s, d = _aligned(max(2 * r * cols, nb * m), nb * r * r, 3 * nb * m)
    s, d = s.reshape(nb, r, r), d.reshape(3, nb, m)
    buf, scratch = work[: 2 * r * cols], work[: nb * m].reshape(nb, m)
    mask = np.empty((nb, m), dtype=bool)
    reach = _kept_reach(rho, m, n0)
    total = 0.0
    for lo in range(0, len(reps), nb):
        rows = reps[lo : lo + nb]
        k = len(rows)
        dk, sk = d[:, :k], s[:k]
        np.subtract(pts_t[:, rows, None], pts_t[:, None, :], out=dk[:2])
        sq, tmp = dk[2], scratch[:k]
        np.multiply(dk[0], dk[0], out=sq)
        np.multiply(dk[1], dk[1], out=tmp)
        sq += tmp
        keep = np.less_equal(sq, reach, out=mask[:k])
        sq /= -n0
        stream = dk.reshape(3, k * m)
        if keep.all():
            ends = range(m, k * m + 1, m)
        else:
            stream = np.take(stream, np.flatnonzero(keep), axis=1)
            ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
        c = 0
        while c < stream.shape[1]:
            c = _chunk_sums(coef, stream, ends, c, buf, sk)
        np.log(sk, out=sk)
        total += float(mults[lo : lo + k] @ (sk.reshape(k, -1) @ w.ravel()))
    return math.log2(m) - total / (m * LN2)


def mi_quadrature(c: Constellation, snr, order: int = DEFAULT_ORDER) -> MiEstimate:
    """Deterministic MI estimate via a tensor Gauss-Hermite rule.

    `order` nodes per noise axis, 2 to 256, less the tensor nodes of
    negligible weight; the expectation over the noise uses the
    substitution N = sqrt(N0) * z against the weight exp(-z^2)/sqrt(pi) on
    each axis. The bits repeat on the same BLAS kernel and thread count (5
    of 2,400 inputs moved their last bits between 1 and 2 OpenBLAS threads).

    A point set is evaluated at one point per orbit of its symmetries of
    the square, weighted by the orbit's size; the tensor nodes are
    invariant under those symmetries, so this changes the value by rounding
    only (below 1.5e-13 bits on the families). A square grid X x Y is
    MI(X) + MI(Y), each axis embedded on the x axis and taken the same way
    (equal axes once, doubled: the same bits); there the y noise cancels,
    so the rule gives the 1D expectation less its pruned nodes' weight,
    about 3e-15. This split (`symmetry.parts`) depends on the points alone,
    so the Constellation computes it on the first call and keeps it
    (`Constellation._parts`) for every later SNR and order.

    For each point evaluated, the inner sums at all tensor nodes are one
    product S = A B^T of two (R, M) matrices over the R 1D nodes, as the
    exponent separates over the noise axes. Points whose term is below
    e**-37/M at every kept node are left out (`_kept_reach`): that moves
    the value by about 1e-16 bits and keeps every exponent within about
    [-416, 182] at any SNR or power. Against the row-wise log-sum-exp over
    every point the value moves by rounding only (below 1e-13 bits).
    Temporary buffers stay within about 1 MB each.
    """
    order = integer("quadrature order", order, 2, _MAX_ORDER)
    n0 = _noise_variance(c, snr)
    z, w, rho = gauss_hermite_2d(order)
    value = sum(count * _grid_mi(*part, z, w, rho, n0) for count, *part in c._parts)
    return MiEstimate(_finish_value(value, c.M), "quadrature", 0.0)


def _merge_moments(state, count, mean, m2):
    n_a, mean_a, m2_a = state
    n = n_a + count
    delta = mean - mean_a
    mean_out = mean_a + delta * (count / n)
    m2_out = m2_a + m2 + delta * delta * (n_a * count / n)
    return n, mean_out, m2_out


def _mc_stratum(pts, i, count, seed, n0, scratch):
    """`count` draws for transmitted point i from its own Philox stream.

    Returns (sum of the per-draw contributions, [(k, mean, M2) per chunk of
    at most _MC_CHUNK_ROWS draws]). `scratch` is a set of (noise, row,
    block, operand) buffers that no other stratum is using, sized for the
    largest chunk; the last two are `_log_partition`'s `buf`.
    """
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(i * _MC_STREAM_STRIDE)
    rng = np.random.Generator(bitgen)
    diff = pts[i] - pts
    dx, dy = diff.T
    sq = dx * dx + dy * dy
    scale = 2.0 * math.sqrt(n0 / 2.0)
    log_m = math.log(len(pts))
    noise, rows, *buf = scratch
    acc = 0.0
    chunks = []
    left = count
    while left > 0:
        k = min(left, _MC_CHUNK_ROWS)
        noise2 = rng.standard_normal(out=noise[:k])
        noise2 *= scale
        g = _log_partition(noise2, diff, sq, n0, out=rows[:k], buf=buf)
        np.subtract(log_m, g, out=g)
        g /= LN2
        acc += float(g.sum())
        gm = float(g.mean())
        g -= gm
        g *= g
        chunks.append((k, gm, float(g.sum())))
        left -= k
    return acc, chunks


def mi_monte_carlo(c: Constellation, snr, samples: int, seed: int) -> MiEstimate:
    """Stratified Monte Carlo MI estimate, the quadrature cross-check.

    `samples` noise draws in total, split as evenly as possible over the
    transmitted points (the first `samples % M` points receive one extra).
    Each point draws from its own Philox stream, offset from `seed` by a
    fixed counter stride, so the result is independent of evaluation order
    and bitwise reproducible for identical inputs. The points (strata) run
    on a pool of one worker thread per available core and are merged in
    point order, so the bits do not depend on the thread count. The value
    is the mean of the stratum means over the points that receive a draw;
    std_error is the sample standard deviation of the per-draw
    contributions divided by sqrt(samples).
    """
    samples = integer("samples", samples, 1, 2**63 - 1)  # counts are int64
    seed = integer("seed", seed, 0, 2**64 - 1)
    n0 = _noise_variance(c, snr)
    pts = c.points
    m = len(pts)
    counts = np.full(m, samples // m, dtype=np.int64)
    counts[: samples % m] += 1
    strata = min(samples, m)  # the points that receive a draw come first
    chunk = min(int(counts[0]), _MC_CHUNK_ROWS)  # the largest chunk
    rows = min(_block_rows(m), chunk)
    # one (noise, row, block, operand) set per thread the pool can start,
    # lent to one stratum at a time; made here, they cost about 0.7 MB less
    # peak resident memory than sets made by each worker thread
    spare = queue.SimpleQueue()
    for _ in range(min(_WORKERS, strata)):
        noise, *rest = _aligned(2 * chunk, chunk, rows * m, 3 * rows)
        spare.put((noise.reshape(chunk, 2), *rest))

    def stratum(i):
        scratch = spare.get()
        try:
            return _mc_stratum(pts, i, int(counts[i]), seed, n0, scratch)
        finally:
            spare.put(scratch)

    stratum_means = np.empty(strata)
    moments = (0.0, 0.0, 0.0)  # pooled per-draw count/mean/M2
    # windows of 64 strata per worker, merged as they come, bound the futures
    window = 64 * _WORKERS
    pool = ThreadPoolExecutor(_WORKERS)
    try:
        for lo in range(0, strata, window):
            ids = range(lo, min(lo + window, strata))
            for i, (acc, chunks) in zip(ids, pool.map(stratum, ids)):
                for k, gm, m2 in chunks:
                    moments = _merge_moments(moments, k, gm, m2)
                stratum_means[i] = acc / counts[i]
    finally:  # a failing stratum or Ctrl-C cancels the strata not yet started
        pool.shutdown(cancel_futures=True)
    value = float(stratum_means.mean())
    _, _, m2 = moments
    std_error = math.sqrt(m2 / (samples - 1) / samples) if samples > 1 else 0.0
    # sampling noise, not a bug, when too few draws put the mean outside
    cause = f"std_error {std_error:.3g} from {samples} samples; raise --samples"
    return MiEstimate(_finish_value(value, m, cause), "monte_carlo", std_error)


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
