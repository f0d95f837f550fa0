"""Constellation file format: canonical writer, validating reader."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apsk_shaper import (
    DVB_VARIANT,
    FAMILIES,
    DomainError,
    box_muller_apsk,
    dumps_constellation,
    loads_constellation,
    make_constellation,
    read_constellation,
    square_qam,
    write_constellation,
)


@st.composite
def constellations(draw):
    """Any constellation the builders make: family, n, power, normalize, label."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 24))
    if family == DVB_VARIANT:
        n += n % 2
    power = draw(st.floats(1e-6, 1e6))
    label = draw(st.none() | st.text(max_size=12))
    return make_constellation(family, n, power, draw(st.booleans()), label)


@settings(max_examples=60, deadline=None, database=None)
@given(c=constellations())
def test_round_trip_exact(c):
    back = loads_constellation(dumps_constellation(c))
    assert (back.label, back.family, back.n, back.power) == (c.label, c.family, c.n, c.power)
    assert np.array_equal(back.points, c.points)


def test_writer_is_canonical_and_idempotent(tmp_path):
    c = box_muller_apsk(2)
    text = dumps_constellation(c)
    assert text == dumps_constellation(loads_constellation(text))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_constellation(c, p1)
    write_constellation(c, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_constellation(p1).points is not None


def test_seventeen_significant_digits():
    c = box_muller_apsk(2)
    doc = json.loads(dumps_constellation(c))
    # parsing the emitted digits reproduces the doubles exactly
    assert np.array_equal(np.asarray(doc["points"]), c.points)
    text = dumps_constellation(c)
    assert "1.1774100225154747" in text


def _doc(c):
    return json.loads(dumps_constellation(c))


def _reject(doc, match=None):
    with pytest.raises(DomainError, match=match):
        loads_constellation(json.dumps(doc))


def test_reader_rejects_bad_documents():
    base = _doc(box_muller_apsk(2))

    doc = dict(base)
    del doc["power"]
    _reject(doc, "missing")

    doc = dict(base)
    doc["extra"] = 1
    _reject(doc, "unknown")

    doc = dict(base)
    doc["family"] = "hexagonal"
    _reject(doc)

    doc = dict(base)
    doc["n"] = 3  # wrong cardinality for the stored 4 points
    _reject(doc)

    doc = dict(base)
    doc["power"] = -1.0
    _reject(doc)

    doc = dict(base)
    doc["points"] = [[0.0, "x"]] * 4
    _reject(doc)

    _reject([1, 2, 3])
    with pytest.raises(DomainError):
        loads_constellation("not json at all {")


HUGE = 10**400  # a 401-digit JSON integer; no double holds it


@pytest.mark.parametrize(
    "key,value",
    [("power", "1"), ("power", True), ("power", HUGE), ("n", 2.0), ("n", True)],
    ids=["power-str", "power-true", "power-huge", "n-float", "n-true"],
)
def test_reader_rejects_a_field_of_the_wrong_type(key, value):
    doc = _doc(box_muller_apsk(2))
    doc[key] = value
    _reject(doc, f"{key} must be")


@pytest.mark.parametrize(
    "point",
    [[True, 0.0], [0.0, False], [0.0, "1"], [None, 0.0], [[0.0], 0.0], [0.0], [0.0, 0.0, 0.0],
     0.0, "xy", {"x": 0.0, "y": 0.0}],
    ids=["true", "false", "str", "null", "nested-list", "one-element", "three-element",
         "number", "string", "object"],
)
def test_reader_rejects_a_point_that_is_not_a_number_pair(point):
    doc = _doc(box_muller_apsk(2))
    doc["points"][2] = point
    _reject(doc, r"points must be a list of \[x, y\] number pairs")


@pytest.mark.parametrize("points", [{"0": [0.0, 0.0]}, "points", None], ids=["object", "str", "null"])
def test_reader_rejects_points_that_are_not_a_list(points):
    doc = _doc(box_muller_apsk(2))
    doc["points"] = points
    _reject(doc, "points must be a list")


def test_reader_rejects_a_coordinate_too_large_for_a_double():
    doc = _doc(box_muller_apsk(2))
    doc["points"][0][0] = HUGE
    _reject(doc, "finite")


def test_reader_rejects_duplicate_points():
    doc = _doc(square_qam(2))
    doc["points"][1] = doc["points"][0]
    _reject(doc, "distinct")


def test_reader_rejects_off_ring_points():
    doc = _doc(box_muller_apsk(2))
    doc["points"][0][1] *= 1.001  # push one point off its ring
    _reject(doc)


def test_reader_rejects_power_budget_violations():
    doc = _doc(box_muller_apsk(2))
    doc["power"] = 0.5  # realized average power now exceeds the budget
    _reject(doc, "exceeds")

    doc = _doc(square_qam(2))
    doc["power"] = 2.0  # QAM must sit exactly at the budget
    _reject(doc)


def test_reader_rejects_non_finite_points():
    doc = _doc(square_qam(2))
    text = json.dumps(doc).replace(doc["points"][0][0].__repr__(), "1e999", 1)
    with pytest.raises(DomainError):
        loads_constellation(text)


def test_reader_accepts_normalized_apsk():
    c = box_muller_apsk(4, 2.0, normalize=True)
    back = loads_constellation(dumps_constellation(c))
    assert np.array_equal(back.points, c.points)


def test_read_missing_file():
    with pytest.raises(DomainError):
        read_constellation("/nonexistent/path.json")


def test_read_non_utf8_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff" + dumps_constellation(square_qam(2)).encode())
    with pytest.raises(DomainError, match=re.escape(f"cannot read {path}: 'utf-8' codec")):
        read_constellation(path)


def test_write_into_a_missing_directory(tmp_path):
    path = tmp_path / "missing" / "c.json"
    with pytest.raises(DomainError, match=re.escape(f"cannot write {path}")):
        write_constellation(square_qam(2), path)
    assert not path.parent.exists()
