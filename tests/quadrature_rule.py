"""The quadrature's tensor rule as explicit nodes, shared by the kernel tests."""

import numpy as np

from apsk_shaper import numerics


def tensor_rule(order):
    """The kept tensor nodes (K, 2) and weights (K,) of the grid-form rule."""
    z, w, _ = numerics.gauss_hermite_2d(order)
    a, b = np.nonzero(w)
    return np.column_stack((z[a], z[b])), w[a, b]
