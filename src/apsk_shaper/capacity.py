"""Gaussian channel capacity and mutual information of finite constellations.

The channel is y = x + N with complex (2D) noise of total variance N0,
split N0/2 per real axis, and N0 = P/snr where P is the constellation's
nominal power budget. For an equiprobable point set {x_i} the mutual
information in bits per 2D channel use is

    I = log2(M) - (1/M) * sum_i E_N[ log2 sum_j exp(-(|x_i+N-x_j|^2 - |N|^2)/N0) ]

which this module evaluates two independent ways: a deterministic tensor
Gauss-Hermite rule (`mi_quadrature`) and a seeded stratified Monte Carlo
(`mi_monte_carlo`) that serves as its cross-check, both on the points times
2**-k and N0 times 4**-k (see `Constellation`; Monte Carlo copies them per call).

Monte Carlo forms its inner sums for one transmitted point x_i at a time
(a stratum, `_mc_stratum`). It walks the point's noise rows in blocks
whose exponents and (3, n) operand together take about _BLOCK_ELEMENTS
doubles (`_block_rows`), small enough to stay in cache, drawing
each block's rows just before `_log_partition` forms its exponents, laid
out point-major (one contiguous row of exponents per point j). A block's
exponents are one product alone: -[d_x, d_y, |d|^2]/N0 (M, 3), folded
once per stratum (`_folded`), times the block's doubled noise over a row
of ones (3, n). Each block is reduced with `numerics.logsumexp_rows`:
exponents clipped at a floor that cannot change a row sum, then `exp`, a
row sum and `log`. There is no max pass: the j = i exponent is exactly
0, so every row sum is at least 1, and no exponent exceeds |N|^2/N0, half
the squared norm of the draw's standard-normal pair. The clip runs only
when the bound -(|d|max^2 + 2|N|max |d|max)/N0 on the exponents says it
can bite. A value's bits are fixed by the draws per point, M,
_BLOCK_ELEMENTS and the gemm kernel; they do not depend on the number of
threads or the order in which the points run. How the block width moves
them was measured on OpenBLAS's FMA, SandyBridge and Prescott kernels
(see `_mc_stratum`).

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
the split: it is the independent check on both shortcuts. Its strata run
on the calling thread and helper threads (`workers._run_strata`), each
drawing its own Philox stream into one (sum, M2) row, pooled in closed
form: the value and std_error have the same bits at any thread count.

Both estimators take their scratch from the calling thread's kept
workspace, `workers._WORKSPACE`; the pool of helper threads waits for the
first Monte Carlo call that needs helpers (see `workers`).
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .constellations import Constellation, _ldexp
from .errors import DomainError, EstimatorError, integer, positive, real
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
        db = real("snr_db", snr_db)
        try:
            return cls(10.0 ** (db / 10.0))
        except OverflowError:  # above about 3082.5 dB
            return cls(math.inf)  # rejected as inf


@dataclass(frozen=True)
class MiEstimate:
    """Mutual information in bits per 2D use with its provenance."""

    value: float
    method: str
    std_error: float


def _as_snr(snr) -> float:
    return positive("snr", snr.snr if isinstance(snr, SnrSpec) else snr)


def _noise_variance(c: Constellation, snr) -> float:
    """N0 * 4**-k = (P * 4**-k)/snr, N0/2 per axis, for points times 2**-k (k = c._exponent)."""
    return positive("noise variance", _ldexp(c.power, -2 * c._exponent) / _as_snr(snr))


def _folded(diff, sq, n0):
    """Monte Carlo's (M, 3) operand -[d_x, d_y, |d|^2]/N0 for d = x_i - x_j.

    Where 1/N0 overflows (N0 below 2**-1024) it divides by -N0 instead.
    Entries past the double range (|d|^2/N0 from about 3074 dB) are held at
    +-2**1020, still far below EXP_FLOOR, so no inf reaches the product,
    where inf times 0 or inf - inf is NaN. That needs N0 below 2**-1017
    (the scaled points lie in [-1, 1]^2), where a doubled noise coordinate
    is below 2**-508 times its standard-normal draw, so no term of the
    product nears the double range.
    """
    lhs = np.column_stack((diff, sq))
    with np.errstate(over="ignore"):
        if 1.0 / n0 < math.inf:
            lhs *= -1.0 / n0
        else:
            lhs /= -n0
    return np.clip(lhs, -(2.0**1020), 2.0**1020, out=lhs)


def _log_partition(lhs, rhs, clip, block, out):
    """log sum_j exp(-(|x_i-x_j|^2 + <2*noise, x_i-x_j>)/N0) per row of one block.

    Monte Carlo's kernel; the quadrature takes `_grid_mi` instead, and
    `_mc_stratum` walks a chunk's noise rows in blocks through it.

    `lhs` is the (M, 3) operand `_folded` makes for one transmitted point
    x_i, -[d_x, d_y, |d|^2]/N0, and `rhs` the (3, n) operand: the block's n
    doubled noise rows, transposed, over a row of ones. The exponents are
    the product alone, formed point-major as the C-order (M, n) lhs @ rhs
    in the flat buffer `block` and reduced through its (n, M) view into
    `out`, so every step runs over contiguous columns. `clip` is
    `_clip_can_bite` of the block. A one-row matmul goes through gemv,
    which rounds differently from gemm, and gemm on OpenBLAS's FMA kernel
    rounded some rows differently once 3*M*n passed 10**6, so a row's bits
    depend on its block; `_mc_stratum` forms each row in just one block.

    No max is subtracted: the j = i exponent is exactly 0 (d and |d|^2 are
    0 there), which is what `logsumexp_rows` needs, and no exponent exceeds
    |N|^2/N0 for the noise N. For Monte Carlo's draws that is |z|^2/2 for
    a standard-normal pair z, which reaches `exp`'s overflow at 709 only
    with a coordinate beyond 26 sigma.
    """
    m, n = len(lhs), rhs.shape[1]
    expo = np.matmul(lhs, rhs, out=block[: m * n].reshape(m, n))
    return logsumexp_rows(expo.T, out=out, clip=clip)


def _clip_can_bite(noise2, reach, n0) -> bool:
    """Whether an exponent of `_log_partition` can fall below EXP_FLOOR.

    `noise2` holds a block's doubled noise coordinates, in any layout. With
    N = noise2/2 the exponent of j is -(|d_j|^2 + 2<N, d_j>)/N0, which
    is at least -(|d_j|^2 + 2|N||d_j|)/N0 >= -(reach^2 + 2|N|max reach)/N0
    for reach = |d|max, with |N| at most sqrt(2) times its largest
    coordinate. Below _CLIP_FREE_NATS (100 nats inside the floor, far beyond
    rounding) the clip is a no-op.
    """
    coord = 0.5 * max(float(noise2.max()), -float(noise2.min()))
    return (reach + 2.0 * math.sqrt(2.0) * coord) * reach / n0 > _CLIP_FREE_NATS


def _block_rows(m: int) -> int:
    """Monte Carlo's rows n per block, at least two (see `_mc_stratum`).

    A block's M*n exponents and (3, n) operand, with a row more when a lone
    last row joins it, share _BLOCK_ELEMENTS doubles: at M=4 n is 18,723
    rows in 1.0 MB, where the exponents alone filled it with 32,768 rows.
    """
    return max(2, _BLOCK_ELEMENTS // (m + 3) - 1)


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


def _gather_kept(stream, keep, tmp):
    """Move the columns of `stream` where the (k, M) `keep` holds to its front.

    Returns the (3, kept) view and each representative's end in it, as
    `_chunk_sums` reads them. Each row goes through `tmp` (at least k*M
    doubles): numpy copies a `take` whose output overlaps its input, and
    mode="raise" copies into a buffer of its own. Only the kept indices
    are new, 8 bytes each (55 kB at box_muller n=32, 30 dB; finding them a
    piece at a time cost that row 4-10% of its time).
    """
    kept = np.flatnonzero(keep)
    for row in stream:
        np.take(row, kept, out=tmp[: len(kept)], mode="clip")
        row[: len(kept)] = tmp[: len(kept)]
    m = keep.shape[1]
    return stream[:, : len(kept)], np.searchsorted(kept, np.arange(m, keep.size + 1, m)).tolist()


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
    # the 2R w factors, w = min(nb M, _BLOCK_ELEMENTS // 2R), in a buffer of
    # at least 2 nb M doubles, the (nb, R, R) sums and the (3, nb, M)
    # differences, each at most _BLOCK_ELEMENTS doubles or one
    # representative's, and the (nb, M) pruning mask, as bools, come from
    # the thread's workspace: made per point, malloc mapped a buffer each
    # time, and made per call, they were trimmed from the heap after each
    # call and faulted in again (425 faults a call at box_muller n=15, order
    # 256). The factors' memory, idle until the chunks, first holds the
    # differences' second operand, then d_y^2, then a pruned block's kept
    # columns (a tenth at 30 dB, box_muller n=16 to 64) one row at a time,
    # gathered to the front of the row they came from
    nb = min(len(reps), max(1, min(_BLOCK_ELEMENTS // (3 * m), _BLOCK_ELEMENTS // (r * r))))
    cols = min(nb * m, max(1, _BLOCK_ELEMENTS // (2 * r)))
    work, s, d, flags = workers._WORKSPACE.take(
        max(2 * r * cols, 2 * nb * m), nb * r * r, 3 * nb * m, -(-nb * m // 8))
    s, d = s.reshape(nb, r, r), d.reshape(3, nb, m)
    buf, scratch = work[: 2 * r * cols], work[: nb * m].reshape(nb, m)
    mask = flags.view(bool)[: nb * m].reshape(nb, m)
    reach = _kept_reach(rho, m, n0)
    total = 0.0
    for lo in range(0, len(reps), nb):
        rows = reps[lo : lo + nb]
        k = len(rows)
        dk, sk, tmp = d[:, :k], s[:k], scratch[:k]
        # both operands whole (numpy buffers a broadcast one), the second in
        # the factors' memory
        other = work[: 2 * k * m].reshape(2, k, m)
        np.copyto(dk[:2], pts[rows].T[:, :, None])
        np.copyto(other, pts.T[:, None, :])
        np.subtract(dk[:2], other, out=dk[:2])
        sq = dk[2]
        np.multiply(dk[0], dk[0], out=sq)
        np.multiply(dk[1], dk[1], out=tmp)
        sq += tmp
        keep = np.less_equal(sq, reach, out=mask[:k])
        stream = dk.reshape(3, k * m)
        if keep.all():
            ends = range(m, k * m + 1, m)
        else:
            stream, ends = _gather_kept(stream, keep, tmp.reshape(-1))
        stream[2] /= -n0  # kept columns only: a pruned one's can overflow
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


def _mc_stratum(pts, i, count, seed, n0) -> tuple:
    """`count` draws for transmitted point i from Philox at counter [0, i, 0, 0].

    Returns (sum, M2) of the per-draw contributions. Chunks of at most
    _MC_CHUNK_ROWS draws add in order, a chunk of k adding its own M2 and
    delta**2 * first*k/(first + k), delta its mean less that of the `first`
    draws before it (Chan, Golub and LeVeque). The (M, 3) operand is folded
    with -1/N0 once (`_folded`), and a chunk's draws go through
    `_log_partition` in blocks of n = _block_rows(M) rows, a lone last row
    joined to the block before (`workers._blocks`): every row is formed
    once, and no block has one row (gemv, which rounds differently from
    gemm) unless the chunk has. A block's exponents and operand take at most
    _BLOCK_ELEMENTS doubles together. Each block's rows are drawn into the
    front of the thread's block buffer and written, scaled and transposed,
    into the operand before its product overwrites that memory; the stream
    is consumed in row order. A row's bits are fixed by the chunk's draws,
    M, _BLOCK_ELEMENTS and the gemm kernel. Measured against n (2 to 4,000
    rows on 2 to 300 points), they kept their bits on OpenBLAS's SandyBridge
    and Prescott kernels at every width, and on its FMA kernel up to 3*M*n =
    10**6 (the default budget keeps it below 4e5); past that, gemm rounded 1
    to 3 rows of some widths differently.
    """
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, i, 0, 0]))
    m = len(pts)
    diff = pts[i] - pts
    dx, dy = diff.T
    sq = dx * dx + dy * dy
    lhs = _folded(diff, sq, n0)
    reach = math.sqrt(float(sq.max()))
    scale = 2.0 * math.sqrt(n0 / 2.0)
    log_m = math.log(m)
    step = _block_rows(m)
    chunk = min(count, _MC_CHUNK_ROWS)
    width = min(step + 1, chunk)  # the most rows a block has
    # a block of n rows holds their 2n doubles of noise, then n*M exponents
    rows, block, operand = workers._WORKSPACE.take(chunk, width * max(m, 2), 3 * width)
    rhs = operand.reshape(3, width)
    rhs[2] = 1.0
    acc, m2 = 0.0, 0.0
    for first in range(0, count, _MC_CHUNK_ROWS):
        k = min(count - first, _MC_CHUNK_ROWS)
        g = rows[:k]
        for lo, hi in workers._blocks(k, step):
            noise2 = rng.standard_normal(out=block[: 2 * (hi - lo)].reshape(-1, 2))
            np.multiply(noise2.T, scale, out=rhs[:2, : hi - lo])
            clip = _clip_can_bite(rhs[:2, : hi - lo], reach, n0)
            _log_partition(lhs, rhs[:, : hi - lo], clip, block, g[lo:hi])
        np.subtract(log_m, g, out=g)
        g /= LN2
        total = float(g.sum())
        gm = total / k  # the bits of g.mean()
        g -= gm
        g *= g
        m2 += float(g.sum())
        if first:  # the `first` draws before it have mean acc / first
            delta = gm - acc / first
            m2 += delta * delta * (first * k / (first + k))
        acc += total
    return acc, m2


def mi_monte_carlo(c: Constellation, snr, samples: int, seed: int) -> MiEstimate:
    """Stratified Monte Carlo MI estimate, the quadrature cross-check.

    `samples` noise draws in total, 1 to 2**53 (counted in doubles), split
    as evenly as possible over the transmitted points (the first
    `samples % M` points receive one extra). Point i draws from Philox keyed
    by `seed` at counter [0, i, 0, 0], so the result is independent of
    evaluation order and bitwise reproducible for identical inputs. The
    points (strata) run on the calling thread and a module-level pool of
    helper threads, one thread per available core in all, made on the first
    call that needs helpers and shared by every later one (`workers`); each
    thread reuses its own scratch across strata and calls. The strata's
    (sum, M2) rows (`_mc_stratum`) pool in closed form, M2 = sum_i M2_i +
    sum_i n_i (m_i - m)**2 for n_i draws of mean m_i, m that of all draws,
    by elementwise products and sums: no thread count moves the bits, and the
    call keeps O(M) state. The value is the mean of the stratum means over
    the points that receive a draw; std_error is the sample standard
    deviation of the per-draw contributions divided by sqrt(samples).
    """
    samples = integer("samples", samples, 1, 2**53)  # draws are counted in doubles
    seed = integer("seed", seed, 0, 2**64 - 1)
    n0 = _noise_variance(c, snr)
    pts = c._scaled()
    m = len(pts)
    strata = min(samples, m)  # the points that receive a draw come first
    draws = samples // m + (np.arange(strata) < samples % m)
    rows = np.empty((strata, 2))  # (sum, M2) of each stratum

    def stratum(i):
        rows[i] = _mc_stratum(pts, i, int(draws[i]), seed, n0)

    workers._run_strata(strata, stratum)
    sums, m2s = rows.T
    means = sums / draws
    value = float(means.mean())
    # within strata, then between them; no `@`: OpenBLAS threads a long dot
    m2 = float(m2s.sum() + (draws * np.square(means - sums.sum() / samples)).sum())
    std_error = math.sqrt(m2 / (samples - 1) / samples) if samples > 1 else 0.0
    # sampling noise, not a bug, when too few draws put the mean outside
    cause = f"std_error {std_error:.3g} from {samples} samples; raise --samples"
    return MiEstimate(_finish_value(value, m, cause), "monte_carlo", std_error)


def gap_metrics(mi: float, snr) -> tuple:
    """Vertical and horizontal distance of a rate point to the capacity curve.

    gap_bits = log2(1+snr) - mi. gap_db is the SNR overhead at equal rate,
    10*log10(snr / (2**mi - 1)), reported as +inf when mi == 0. Raises
    EstimatorError when mi exceeds capacity beyond tolerance (the estimator
    bug sentinel) and DomainError unless mi is a real (`errors.real`) in [0, inf) as a double.
    """
    s = _as_snr(snr)
    bits = real("mi", mi)
    if not (math.isfinite(bits) and bits >= 0):
        raise DomainError(f"mi must be a finite value >= 0, got {mi!r}")
    capacity = math.log2(1.0 + s)
    if bits > capacity + _CAPACITY_SLACK:
        raise EstimatorError(f"MI {mi!r} exceeds capacity {capacity!r} beyond tolerance")
    gap_bits = capacity - bits
    if bits == 0.0:
        return gap_bits, math.inf
    return gap_bits, 10.0 * math.log10(s / (2.0**bits - 1.0))
