"""Numerical helpers: Monte Carlo's row-wise log-sum-exp, which needs no max
pass because every row it gets holds an exact 0, and the tensor
Gauss-Hermite rule of the quadrature. Its 1D rule is one eigendecomposition,
not `hermgauss`, whose `numpy.polynomial` import is about 0.7 MB resident;
tests/test_kernel.py holds the two within 1e-13 (nodes) and 2e-8 (kept
weights, relative)."""

import math
from functools import lru_cache

import numpy as np

LN2 = float(np.log(2.0))

# exp(-700) is about 1e-304; see logsumexp_rows for why clipping there is exact
EXP_FLOOR = -700.0
# tensor nodes below this normalized weight are dropped; the dropped mass is
# about 3e-15 at orders 40 and 60, where 764 of 1600 and 1192 of 3600 remain
MIN_NODE_WEIGHT = 1e-16


def logsumexp_rows(a: np.ndarray, out=None, *, clip=True) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, for rows that each hold an exact 0.

    There is no max pass and no shift. The caller guarantees that every row
    holds an exponent of exactly 0, so its sum of exponentials is at least
    1, and that no exponent reaches the overflow of `exp` (about 709).
    `capacity._log_partition` passes `a` as the point-major view `block.T`
    of a C-order (M, rows) block, so the clip, `exp` and the row sum all run
    over contiguous columns.

    Exponents below EXP_FLOOR are raised to it before `exp`: a row of M
    terms moves by at most M*exp(-700), which for any M that fits in memory
    is far below half an ulp of a sum >= 1, so the sum cannot change, and
    `exp` skips its slow underflow path. A caller that has shown every
    exponent to be at least EXP_FLOOR passes clip=False to skip that pass,
    which would be a no-op; see `capacity._clip_can_bite`.

    Consumes `a` (overwrites it in place). The result is written into `out`
    when given, else into a new array.
    """
    if clip:
        np.maximum(a, EXP_FLOOR, out=a)
    np.exp(a, out=a)
    out = np.sum(a, axis=-1, out=out)
    np.log(out, out=out)
    return out


def _gauss_hermite(order: int):
    """The 1D Gauss-Hermite nodes and weights of `order` >= 2, by Golub-Welsch.

    One `eigh` of the Hermite Jacobi matrix (off-diagonal sqrt(k/2)) gives
    the nodes and, as squared first eigenvector components, the weights
    (Math. Comp. 23(106), 1969); the nodes are made exactly odd, and the
    weights exactly even and summing to sqrt(pi).
    """
    jacobi, off = np.zeros((order, order)), np.sqrt(0.5 * np.arange(1, order))
    jacobi.flat[1 :: order + 1] = jacobi.flat[order :: order + 1] = off
    x, vectors = np.linalg.eigh(jacobi)
    w = (vectors[0] ** 2 + vectors[0, ::-1] ** 2) / 2
    x = (x - x[::-1]) / 2
    w *= np.sqrt(np.pi) / w.sum()
    return x, w


@lru_cache(maxsize=8)
def gauss_hermite_2d(order: int):
    """Tensor-product Gauss-Hermite rule for two axes, in grid form.

    Nodes/weights for the physicists' weight exp(-z^2) per axis, from
    `_gauss_hermite`, cached. Returns (z, w, rho): the R 1D nodes that some
    kept tensor node uses, shape (R,), the (R, R) weight grid, w[a, b] being
    the weight of the node (z[a], z[b]), and rho, the largest radius
    |(z[a], z[b])| of a kept node. Weights are normalized so the full rule
    of order**2 nodes sums to 1, i.e. the rule approximates E[f(Z)] for Z
    with density exp(-|z|^2)/pi. Nodes whose weight is below MIN_NODE_WEIGHT
    are dropped (weight 0 in the grid) and the rest are not renormalized; z
    is odd and w equals its transpose and both flips bit for bit, the
    square's symmetry that `symmetry.orbits` rests on. Both arrays are
    read-only so the cache is safe to share.
    """
    z, w = _gauss_hermite(order)
    weights = np.outer(w, w) / np.pi
    weights[weights < MIN_NODE_WEIGHT] = 0.0
    used = np.any(weights > 0.0, axis=1)
    z, weights = z[used], weights[np.ix_(used, used)]
    z.setflags(write=False)
    weights.setflags(write=False)
    rho = math.sqrt(float(np.max(np.add.outer(z * z, z * z)[weights > 0.0])))
    return z, weights, rho
