"""Golden MI values: the estimators must reproduce tests/data/mi_golden.json.

The table holds 17-digit mi_quadrature (orders 40 and 60) and mi_monte_carlo
values for {box_muller, dvb_variant, qam} x n in {2, 4, 8} x {0, 10, 20, 30}
dB. Kernel rewrites must keep quadrature within 1e-11 bits and Monte Carlo
bit for bit. The Monte Carlo bits were recorded with an OpenBLAS gemm kernel
that fuses multiply-adds; on kernels without FMA (SandyBridge, Prescott)
quadrature holds within 1.3e-13 bits and Monte Carlo within 1.1e-16 bits,
a last-bit move on 1 of the 36 rows, checked in a separate test.
"""

import json
from pathlib import Path

import pytest

from apsk_shaper import SnrSpec, make_constellation, mi_monte_carlo, mi_quadrature

GOLDEN = json.loads((Path(__file__).parent / "data" / "mi_golden.json").read_text())
QUAD_TOL_BITS = 1e-11
# rounding of the gemm kernel only; any change of the estimator moves more
MC_TOL_BITS = 1e-14
FAMILIES = ["box_muller", "dvb_variant", "qam"]


def golden_cases(family):
    """(row, constellation, SNR, label) for the family's 12 golden rows."""
    rows = [r for r in GOLDEN["rows"] if r["family"] == family]
    assert len(rows) == 12
    for r in rows:
        c = make_constellation(family, r["n"])
        yield r, c, SnrSpec.from_db(r["snr_db"]), f"{family} n={r['n']} {r['snr_db']} dB"


@pytest.mark.parametrize("family", FAMILIES)
def test_quadrature_matches_golden_table(family):
    for r, c, snr, where in golden_cases(family):
        for order in (40, 60):
            got = mi_quadrature(c, snr, order).value
            assert abs(got - r[f"quad{order}"]) <= QUAD_TOL_BITS, f"{where} order {order}"


@pytest.mark.parametrize("family", FAMILIES)
def test_monte_carlo_matches_golden_table(family):
    for r, c, snr, where in golden_cases(family):
        got = mi_monte_carlo(c, snr, GOLDEN["mc_samples"], GOLDEN["mc_seed"]).value
        assert got == r["mc"], where


@pytest.mark.parametrize("family", FAMILIES)
def test_monte_carlo_matches_golden_table_within_rounding(family):
    for r, c, snr, where in golden_cases(family):
        got = mi_monte_carlo(c, snr, GOLDEN["mc_samples"], GOLDEN["mc_seed"]).value
        assert abs(got - r["mc"]) <= MC_TOL_BITS, where
