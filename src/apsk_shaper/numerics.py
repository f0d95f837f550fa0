"""Shared numerical helpers: log-sum-exp and Gauss-Hermite nodes."""

from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

LN2 = float(np.log(2.0))


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, with max subtraction.

    Consumes `a` (overwrites it in place); inputs must be finite.
    """
    mx = a.max(axis=-1)
    a -= mx[..., None]
    np.exp(a, out=a)
    out = np.log(a.sum(axis=-1))
    out += mx
    return out


@lru_cache(maxsize=8)
def gauss_hermite_2d(order: int):
    """Tensor-product Gauss-Hermite rule for two axes.

    Nodes/weights for the physicists' weight exp(-z^2) per axis, computed by
    numpy's orthogonal-polynomial method and cached. Returns (nodes, weights)
    with nodes of shape (order**2, 2) and weights normalized to sum to 1,
    i.e. the rule approximates E[f(Z)] for Z with density exp(-|z|^2)/pi.
    Both arrays are read-only so the cache is safe to share.
    """
    z, w = hermgauss(order)
    nodes = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
    weights = (np.outer(w, w) / np.pi).reshape(-1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
