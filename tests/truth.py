"""A converged MI reference from the channel output, in plain numpy.

For M equiprobable points x_j and complex noise of variance N0 (N0/2 per
axis), q(y) = sum_j exp(-|y - x_j|^2/N0) and

    I = ln M - 1 - (1/(M pi N0)) * integral of q ln q over the plane,

the output entropy less the noise's (Cover & Thomas, ch. 9). The integral
is a trapezoid on a Cartesian grid of spacing h*sigma (sigma = sqrt(N0/2))
reaching 10 sigma past the points, where q ln q is below 1e-20 and the
end weights do not matter; on a smooth integrand that decays like this the
rule converges geometrically in 1/h (Trefethen & Weideman, SIAM Review
56(3), 2014), so two spacings that agree bound the error. q on each tile of
TILE x TILE nodes is one product A B^T of the per-axis factors
exp(-(y_a - x_a)^2/N0), and q = 0 (past the double range) adds nothing.
A square QAM set is the product of two equal PAM axes, so its MI is twice
that of the 1D problem, I_1D = ln m - 1/2 - (1/(m sqrt(pi N0))) * integral
of q ln q.

The output form cancels near log2 M: a row within 1e-12 bits of it is
flagged saturated, and its value says only that the deficit is below that.

`python tests/truth.py` regenerates tests/data/mi_truth.json, in 2.5 s on
a 2-core Xeon at one BLAS thread: the inputs of tests/data/mi_golden.json,
of criterion 8 in tests/test_acceptance.py and of the default `sweep`
table, each at h = 0.1 with |v(0.13) - v(0.1)| beside it.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np

from apsk_shaper import make_constellation

SPACINGS = (0.1, 0.13)  # the table's value is at the first
REACH = 10.0  # sigmas past the outermost points
TILE = 512  # nodes per tile side
SATURATED = 1e-12  # bits below log2 M
TABLE = Path(__file__).parent / "data" / "mi_truth.json"


def _nodes(coords, sigma, h):
    """Grid nodes at spacing h*sigma over the coordinates' span and REACH sigmas past it."""
    lo, hi = coords.min() - REACH * sigma, coords.max() + REACH * sigma
    return lo + h * sigma * np.arange(math.ceil((hi - lo) / (h * sigma)) + 1)


def _factors(nodes, coords, n0):
    """exp(-(node - coord)^2/N0), one row per node and one column per point."""
    return np.exp(-np.subtract.outer(nodes, coords) ** 2 / n0)


def _q_log_q(q):
    """The sum of q ln q over an array of q >= 0, where 0 ln 0 is 0."""
    return float(np.sum(q * np.log(q, out=np.zeros_like(q), where=q > 0)))


def mi_bits_2d(points, n0, h):
    """The output-entropy MI in bits of the (M, 2) `points` at noise N0, spacing h."""
    sigma, m = math.sqrt(n0 / 2), len(points)
    a = _factors(_nodes(points[:, 0], sigma, h), points[:, 0], n0)
    b = _factors(_nodes(points[:, 1], sigma, h), points[:, 1], n0)
    total = sum(_q_log_q(a[i : i + TILE] @ b[j : j + TILE].T)
                for i in range(0, len(a), TILE) for j in range(0, len(b), TILE))
    # the node area (h sigma)^2 = h^2 N0/2 cancels the N0 of 1/(M pi N0)
    return (math.log(m) - 1 - h * h / (2 * math.pi * m) * total) / math.log(2)


def mi_bits_1d(axis, n0, h):
    """The MI in bits of m equiprobable levels `axis` on one axis of noise N0/2."""
    sigma, m = math.sqrt(n0 / 2), len(axis)
    total = _q_log_q(_factors(_nodes(axis, sigma, h), axis, n0).sum(axis=1))
    # the node width h sigma = h sqrt(N0/2) cancels the sqrt(N0) of 1/(m sqrt(pi N0))
    return (math.log(m) - 0.5 - h / (m * math.sqrt(2 * math.pi)) * total) / math.log(2)


def truth_bits(family, n, snr_db, h):
    """The MI in bits of `family` at size n, power 1 and `snr_db`, at spacing h."""
    points = make_constellation(family, n, 1.0).points
    n0 = 1.0 / 10.0 ** (snr_db / 10.0)
    if family == "qam":  # an n x n product of one n-level axis
        axis = np.unique(points[:, 0])
        assert len(axis) == n and len(points) == n * n
        return 2 * mi_bits_1d(axis, n0, h)
    return mi_bits_2d(points, n0, h)


def truth_row(family, n, snr_db):
    """One table row: the h = 0.1 value, its distance to h = 0.13, and the flag."""
    value, other = (truth_bits(family, n, snr_db, h) for h in SPACINGS)
    m = n * n
    return {"family": family, "n": n, "snr_db": snr_db, "bits": value,
            "self_diff": abs(other - value),
            "saturated": math.log2(m) - value < SATURATED}


def table_inputs():
    """(family, n, snr_db) -> the input sets that hold it, in a fixed order."""
    golden = json.loads((TABLE.parent / "mi_golden.json").read_text())["rows"]
    sets = {
        "golden": [(r["family"], r["n"], r["snr_db"]) for r in golden],
        "criterion_8": list(itertools.product(
            ("box_muller", "dvb_variant", "qam"), (2, 4, 8), (0.0, 5.0, 10.0, 15.0))),
        "sweep_default": list(itertools.product(
            ("box_muller", "qam"), range(2, 36), (5.0, 10.0, 15.0))),
    }
    inputs = {}
    for name, keys in sets.items():
        for key in keys:
            inputs.setdefault(key, []).append(name)
    return inputs


def main():
    rows = [{**truth_row(*key), "sets": sets} for key, sets in table_inputs().items()]
    about = ("MI in bits from the output entropy (tests/truth.py) at spacing 0.1 sigma; "
             "self_diff is |v(0.13) - v(0.1)|; saturated rows lie within 1e-12 of log2 M")
    lines = ",\n".join(json.dumps(row) for row in rows)
    TABLE.write_text(f'{{"about": {json.dumps(about)},\n "rows": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
