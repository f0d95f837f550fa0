"""The output-entropy MI table, tests/data/mi_truth.json, against its generator."""

import json
import math

import numpy as np
import pytest

from apsk_shaper import make_constellation
from truth import SATURATED, TABLE, mi_bits_1d, mi_bits_2d, table_inputs, truth_row

ROWS = json.loads(TABLE.read_text())["rows"]


def test_the_table_holds_every_input_once():
    inputs = table_inputs()
    assert [(r["family"], r["n"], r["snr_db"]) for r in ROWS] == list(inputs)
    assert [r["sets"] for r in ROWS] == list(inputs.values())
    assert len(ROWS) == 240


def test_the_two_spacings_agree_on_every_row():
    worst = max(ROWS, key=lambda r: r["self_diff"])
    assert worst["self_diff"] <= 1e-12, worst


def test_saturated_rows_are_within_the_threshold_of_log2_m():
    for r in ROWS:
        assert r["saturated"] == (math.log2(r["n"] ** 2) - r["bits"] < SATURATED), r


# the widest grid (box_muller n=8, 30 dB), the largest set (n=35), order
# 40's worst golden row (dvb_variant n=2, 10 dB) and two square QAM rows,
# which go through 1D
@pytest.mark.parametrize("key", [
    ("box_muller", 8, 30.0), ("box_muller", 35, 15.0), ("dvb_variant", 2, 10.0),
    ("qam", 2, 10.0), ("qam", 8, 20.0),
], ids=lambda key: f"{key[0]}-{key[1]}-{key[2]:g}dB")
def test_rows_are_re_derived(key):
    row = next(r for r in ROWS if (r["family"], r["n"], r["snr_db"]) == key)
    again = truth_row(*key)
    # the tiles are gemm products, which round per BLAS kernel
    assert again["bits"] == pytest.approx(row["bits"], rel=0, abs=1e-13)
    assert again["self_diff"] <= 1e-12 and again["saturated"] == row["saturated"]


def test_square_qam_in_2d_is_twice_its_axis():
    points = make_constellation("qam", 4, 1.0).points
    n0 = 1.0 / 10.0
    axis = np.unique(points[:, 0])
    assert mi_bits_2d(points, n0, 0.1) == pytest.approx(2 * mi_bits_1d(axis, n0, 0.1), abs=1e-13)


def test_one_point_carries_nothing():
    assert mi_bits_2d(np.array([[0.3, -0.2]]), 0.05, 0.13) == pytest.approx(0.0, abs=1e-14)
    assert mi_bits_1d(np.array([0.7]), 0.05, 0.13) == pytest.approx(0.0, abs=1e-14)
