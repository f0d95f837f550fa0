"""References shared by the kernel tests: the quadrature's tensor rule as
explicit nodes, and Monte Carlo's one-block kernel over any number of rows."""

import math

import numpy as np

from apsk_shaper import capacity, numerics


def tensor_rule(order):
    """The kept tensor nodes (K, 2) and weights (K,) of the grid-form rule."""
    z, w, _ = numerics.gauss_hermite_2d(order)
    a, b = np.nonzero(w)
    return np.column_stack((z[a], z[b])), w[a, b]


def log_partition(noise2, diff, sq, n0):
    """Monte Carlo's `_log_partition` over every row of the (K, 2) doubled noise.

    `diff` is (M, 2) of x_i - x_j and `sq` (M,) of |x_i - x_j|^2. The rows
    go through the one-block kernel in blocks of `_block_rows(M)`, each with
    its own clip gate, as Monte Carlo's strata walk them; a one-row tail is
    a block of its own here.
    """
    k, m = len(noise2), len(diff)
    lhs = np.column_stack((diff, sq))
    reach = math.sqrt(float(sq.max()))
    step = capacity._block_rows(m)
    out, block = np.empty(k), np.empty(min(step, k) * m)
    for lo in range(0, k, step):
        rows = noise2[lo : lo + step]
        rhs = np.vstack((rows.T, np.ones(len(rows))))
        clip = capacity._clip_can_bite(rows, reach, n0)
        capacity._log_partition(lhs, rhs, n0, clip, block, out[lo : lo + len(rows)])
    return out
