"""Golden MI values: the estimators must reproduce tests/data/mi_golden.json.

The table holds 17-digit mi_quadrature (orders 40 and 60) and mi_monte_carlo
values for {box_muller, dvb_variant, qam} x n in {2, 4, 8} x {0, 10, 20, 30}
dB, recorded from the commit named in the file. Kernel rewrites must keep
quadrature within 1e-11 bits and Monte Carlo bit for bit.
"""

import json
from pathlib import Path

import pytest

from apsk_shaper import SnrSpec, make_constellation, mi_monte_carlo, mi_quadrature

GOLDEN = json.loads((Path(__file__).parent / "data" / "mi_golden.json").read_text())
QUAD_TOL_BITS = 1e-11


@pytest.mark.parametrize("family", ["box_muller", "dvb_variant", "qam"])
def test_matches_golden_table(family):
    rows = [r for r in GOLDEN["rows"] if r["family"] == family]
    assert len(rows) == 12
    for r in rows:
        c = make_constellation(family, r["n"])
        snr = SnrSpec.from_db(r["snr_db"])
        where = f"{family} n={r['n']} {r['snr_db']} dB"
        for order in (40, 60):
            got = mi_quadrature(c, snr, order).value
            assert abs(got - r[f"quad{order}"]) <= QUAD_TOL_BITS, f"{where} order {order}"
        got = mi_monte_carlo(c, snr, GOLDEN["mc_samples"], GOLDEN["mc_seed"]).value
        assert got == r["mc"], where
