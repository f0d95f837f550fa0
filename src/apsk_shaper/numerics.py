"""Numerical helpers: Monte Carlo's row-wise log-sum-exp and the tensor
Gauss-Hermite rule of the quadrature."""

from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

LN2 = float(np.log(2.0))

# exp(-700) is about 1e-304; see logsumexp_rows for why clipping there is exact
EXP_FLOOR = -700.0
# tensor nodes below this normalized weight are dropped; the dropped mass is
# about 3e-15 at orders 40 and 60, where 764 of 1600 and 1192 of 3600 remain
MIN_NODE_WEIGHT = 1e-16
# numpy's pairwise-summation block (PW_BLOCKSIZE): np.sum adds a row of at
# most this many terms with one fixed order (see _row_sum), which a sum
# over column slices can reproduce bit for bit in any memory layout
PAIRWISE_BLOCK = 128


def _row_sum(a: np.ndarray, out=None) -> np.ndarray:
    """np.sum(a, axis=-1) with the same bits, in whole-column operations.

    numpy adds a row of fewer than 8 terms one after another, and a row of
    8 to 128 terms with 8 accumulators of stride 8 that it combines as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before adding the remainder one
    after another. Rows of up to PAIRWISE_BLOCK terms are summed here in
    that order over column slices, using the first 8 columns of `a` as the
    accumulators, so the bits do not depend on the layout; on a point-major
    view (the transpose of a C-order (M, rows) block) every slice is
    contiguous. Longer rows go to np.sum in C order, copied there first if
    need be, as np.sum over a strided row adds in another order. Consumes
    `a`.
    """
    m = a.shape[-1]
    if m > PAIRWISE_BLOCK:
        return np.sum(np.ascontiguousarray(a), axis=-1, out=out)
    if out is None:
        out = np.empty(a.shape[:-1])
    if m < 8:
        out[...] = a[..., 0]
        for j in range(1, m):
            out += a[..., j]
        return out
    tail = m - m % 8
    r = a[..., :8]
    for i in range(8, tail, 8):
        r += a[..., i : i + 8]
    # one column at a time: numpy copies an interleaved slice such as
    # r[..., 1::2] before adding it to r[..., 0::2], which overlaps it
    for j in (0, 2, 4, 6):
        r[..., j] += r[..., j + 1]
    r[..., 0] += r[..., 2]
    r[..., 4] += r[..., 6]
    np.add(r[..., 0], r[..., 4], out=out)
    for j in range(tail, m):
        out += a[..., j]
    return out


def logsumexp_rows(a: np.ndarray, out=None, *, row_max=None, clip=True) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, with max subtraction.

    `a` is (rows, M), in C order or as the point-major view `block.T` of a
    C-order (M, rows) block, and both give np.sum's bits over C-order rows
    (see _row_sum). Up to PAIRWISE_BLOCK terms per row the point-major view
    is the fast one: the max, the shift, `exp` and the sum all run over
    contiguous columns, where C order pays numpy's per-row reduction
    overhead on short rows. Longer rows are fastest in C order.

    After the max is subtracted every row holds a 0, so its sum of
    exponentials is at least 1. Exponents below EXP_FLOOR are then raised to
    it before `exp`: a row of M terms moves by at most M*exp(-700), which
    for any M that fits in memory is far below half an ulp of a sum >= 1,
    so the sum cannot change, and `exp` skips its slow underflow path. A
    caller that has shown every shifted exponent to be at least EXP_FLOOR
    passes clip=False to skip that pass, which would be a no-op; the
    log-partition blocks of `capacity` bound them by -(|N| + |d|max)^2/N0.

    Consumes `a` (overwrites it in place); inputs must be finite. The
    result is written into `out` when given, else into a new array, and
    the row maxima into `row_max` when given.
    """
    mx = a.max(axis=-1, out=row_max)
    a -= mx[..., None]
    if clip:
        np.maximum(a, EXP_FLOOR, out=a)
    np.exp(a, out=a)
    out = _row_sum(a, out=out)
    np.log(out, out=out)
    out += mx
    return out


@lru_cache(maxsize=8)
def gauss_hermite_2d(order: int):
    """Tensor-product Gauss-Hermite rule for two axes, in grid form.

    Nodes/weights for the physicists' weight exp(-z^2) per axis, computed by
    numpy's orthogonal-polynomial method and cached. Returns (z, w): the R
    1D nodes that some kept tensor node uses, shape (R,), and the (R, R)
    weight grid, w[a, b] being the weight of the node (z[a], z[b]). Weights
    are normalized so the full rule of order**2 nodes sums to 1, i.e. the
    rule approximates E[f(Z)] for Z with density exp(-|z|^2)/pi. Nodes whose
    weight is below MIN_NODE_WEIGHT are dropped (weight 0 in the grid) and
    the rest are not renormalized; the 1D nodes and weights are symmetric
    about 0, so the kept set stays invariant under the square's rotations
    and reflections. Both arrays are read-only so the cache is safe to share.
    """
    z, w = hermgauss(order)
    weights = np.outer(w, w) / np.pi
    weights[weights < MIN_NODE_WEIGHT] = 0.0
    used = np.any(weights > 0.0, axis=1)
    z, weights = z[used], weights[np.ix_(used, used)]
    z.setflags(write=False)
    weights.setflags(write=False)
    return z, weights
