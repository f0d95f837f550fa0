"""Structure of a point set that lets the quadrature skip work.

`capacity.mi_quadrature` uses two observations, both read from the points
alone and never from the family label:

- Symmetry orbits. The tensor Gauss-Hermite rule is bitwise invariant under
  the eight symmetries of the square (the dihedral group D4). When such a
  symmetry g also maps the point set onto itself, the inner expectation for
  x_i and for g(x_i) is the same sum over the same nodes, so one point per
  orbit, weighted by the orbit's size, stands for all of them (Forney,
  "Geometrically uniform codes", IEEE T-IT 37(5), 1991). A point matches
  its image when every coordinate agrees within _MATCH_ULPS ulps of the
  set's largest coordinate; a set with no matching element keeps the
  trivial group.
- Product grids. When the points are the grid X x Y, the exponent splits
  into an x part and a y part over independent noise axes, so the mutual
  information is MI(X) + MI(Y), the parallel-channel sum rule (Cover &
  Thomas, Elements of Information Theory, ch. 9).

Both searches hold a few copies of the points: a grid is recognised from
the (n, n, 2) reshape, and images are matched one D4 element at a time,
about 10x the points at the peak. `parts` combines them into the split
the quadrature evaluates, which each `Constellation` computes once and
caches with the instance (`Constellation._parts`).
"""

import math

import numpy as np

# the elements of D4 other than the identity: (name, source columns, signs);
# the image of p = (x, y) is (signs[0] * p[cols[0]], signs[1] * p[cols[1]])
D4 = (
    ("rot90", (1, 0), (-1.0, 1.0)),  # (-y, x)
    ("rot180", (0, 1), (-1.0, -1.0)),  # (-x, -y)
    ("rot270", (1, 0), (1.0, -1.0)),  # (y, -x)
    ("mirror_x", (0, 1), (1.0, -1.0)),  # (x, -y), the mirror in the x axis
    ("mirror_y", (0, 1), (-1.0, 1.0)),  # (-x, y)
    ("mirror_diag", (1, 0), (1.0, 1.0)),  # (y, x)
    ("mirror_anti", (1, 0), (-1.0, -1.0)),  # (-y, -x)
)

# an image matches a point within this many ulps of the largest coordinate;
# the families' mapped points land within 15 (n up to 300, with and without
# normalize), a phase nudged by 1e-9 misses by about 1e7
_MATCH_ULPS = 64
# points are sorted by their coordinates rounded to this fraction of the
# largest one: coarse enough that an image and its match share a bin, fine
# enough that distinct points of any family do not
_SORT_BIN = 2.0**-32


def _matches(points: np.ndarray) -> dict:
    """{name: perm} for each D4 element g that maps `points` onto themselves.

    perm[i] is the index of the point that g(points[i]) matches. The points
    are sorted once by rounded x and then rounded y, each image the same
    way, and each image is matched to the point at its rank.
    """
    scale = float(np.max(np.abs(points), initial=0.0)) or 1.0
    key = np.rint(points / (scale * _SORT_BIN))
    # as complex numbers (x + iy, the view of a C-order (M, 2) array) the
    # keys sort by x and then by y; rint is odd, so an image's keys are its
    # point's keys moved and negated
    base = np.argsort(key.view(np.complex128)[:, 0], kind="stable")
    tol = _MATCH_ULPS * np.spacing(scale)
    image = np.empty_like(key)  # one image at a time, in C order as the view needs
    found = {}
    for name, cols, signs in D4:
        np.multiply(key.take(cols, axis=1, out=image), signs, out=image)
        perm = np.empty_like(base)
        perm[np.argsort(image.view(np.complex128)[:, 0], kind="stable")] = base
        np.multiply(points.take(cols, axis=1, out=image), signs, out=image)
        image -= points[perm]
        if np.max(np.abs(image, out=image), initial=0.0) <= tol:
            found[name] = perm
    return found


def orbits(points: np.ndarray):
    """(representatives, multiplicities) of the point set's D4 orbits.

    Point i is represented by the smallest index among its images, and a
    representative's multiplicity counts the points it stands for, so the
    multiplicities sum to M. With the trivial group every point represents
    itself once.
    """
    images = [np.arange(len(points)), *_matches(points).values()]
    count = np.bincount(np.min(images, axis=0), minlength=len(points))
    reps = np.flatnonzero(count)
    return reps, count[reps]


def product_axes(points: np.ndarray):
    """(X, Y) when the points are exactly the n x n grid X x Y, else None.

    The points must be listed row by row, with x or with y varying slowest,
    as the (n, n, 2) reshape of the array shows.
    """
    n = math.isqrt(len(points))
    if n * n != len(points):
        return None
    grid = points.reshape(n, n, 2)
    for g in (grid, grid.transpose(1, 0, 2)):
        xs, ys = g[:, 0, 0], g[0, :, 1]
        if np.all(g[:, :, 0] == xs[:, None]) and np.all(g[:, :, 1] == ys[None, :]):
            return xs, ys
    return None


def parts(points: np.ndarray) -> list:
    """[(count, points, representatives, multiplicities)] of the sets `points` splits into.

    A square grid X x Y gives its two axes embedded on the x axis (one, with
    count 2, when they are np.array_equal), any other set a read-only view
    of itself (count 1), each with its D4 orbits. Every array is read-only,
    as `Constellation` caches the list.
    """
    axes = product_axes(points)
    if axes is None:
        sets = [(1, points.view())]
    else:  # equal axes are one problem, counted twice
        count, axes = (2, axes[:1]) if np.array_equal(*axes) else (1, axes)
        sets = [(count, np.column_stack((a, np.zeros_like(a)))) for a in axes]
    sets = [(count, p, *orbits(p)) for count, p in sets]
    for a in [a for _, *arrays in sets for a in arrays]:
        a.setflags(write=False)
    return sets
