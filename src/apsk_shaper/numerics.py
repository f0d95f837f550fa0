"""Shared numerical helpers: log-sum-exp and Gauss-Hermite rules."""

from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

LN2 = float(np.log(2.0))

# exp(-700) is about 1e-304; see logsumexp_rows for why clipping there is exact
EXP_FLOOR = -700.0
# tensor nodes below this normalized weight are dropped; the dropped mass is
# about 3e-15 at orders 40 and 60, where 764 of 1600 and 1192 of 3600 remain
MIN_NODE_WEIGHT = 1e-16
# rows shorter than this take their max column by column: a.max(axis=-1)
# pays a per-row overhead that dominates short rows (on a 2-core Xeon, 20x
# the column-wise time at 4 columns; the two meet between 48 and 64)
_COLUMN_MAX_BELOW = 64
# rows shorter than this are summed column by column: np.sum(axis=-1) adds
# a row of fewer than 8 terms one after another from 0.0 (its pairwise sum
# unrolls only from 8 terms), so the column-wise sum has the same bits, at
# about 1 instead of 6 ns per element for 4 columns on a 2-core Xeon
_COLUMN_SUM_BELOW = 8


def _row_max(a: np.ndarray) -> np.ndarray:
    # max is exact, so both ways give the same bits
    m = a.shape[-1]
    if m >= _COLUMN_MAX_BELOW:
        return a.max(axis=-1)
    mx = a[..., 0].copy()
    for j in range(1, m):
        np.maximum(mx, a[..., j], out=mx)
    return mx


def _row_sum(a: np.ndarray, out=None) -> np.ndarray:
    m = a.shape[-1]
    if m >= _COLUMN_SUM_BELOW:
        return np.sum(a, axis=-1, out=out)
    if out is None:
        out = np.empty(a.shape[:-1])
    out[...] = a[..., 0]
    for j in range(1, m):
        out += a[..., j]
    return out


def logsumexp_rows(a: np.ndarray, out=None) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, with max subtraction.

    After the max is subtracted every row holds a 0, so its sum of
    exponentials is at least 1. Exponents below EXP_FLOOR are then raised to
    it before `exp`: a row of M terms moves by at most M*exp(-700), which
    for any M that fits in memory is far below half an ulp of a sum >= 1,
    so the sum cannot change, and `exp` skips its slow underflow path.

    Consumes `a` (overwrites it in place); inputs must be finite. The
    result is written into `out` when given, else into a new array.
    """
    mx = _row_max(a)
    a -= mx[..., None]
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


@lru_cache(maxsize=8)
def gauss_hermite_1d(order: int):
    """Gauss-Hermite rule for one axis: (nodes, weights), both of shape (order,).

    hermgauss(order) with weights divided by sqrt(pi), so the rule
    approximates E[f(Z)] for Z with density exp(-z^2)/sqrt(pi). Every node
    is kept. Both arrays are read-only so the cache is safe to share.
    """
    z, w = hermgauss(order)
    w = w / np.sqrt(np.pi)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w
