"""End-to-end acceptance suite.

One test per shipped claim; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them all). Three clauses are
known not to hold for the constructions and estimators as designed and are
asserted at their stated tolerances anyway, so they fail with diagnostics
rather than being silently loosened:

- the rate ordering of the two APSK designs at (n=8, 5 dB), where the
  variant's larger unused power budget costs it 0.048 bits;
- the order-40 vs order-60 quadrature agreement at 1e-6 bits (order 40
  carries up to 2.6e-5 of intrinsic error on 4-point constellations at
  10-15 dB);
- the 3-sigma Monte Carlo agreement at (qam, n=2, 15 dB), where the rate
  deficit below saturation (~8e-8 bits) lives entirely in boundary-crossing
  noise events that 1e6 samples essentially never draw, so the empirical
  std_error collapses below the (numerically immaterial) true discrepancy.
"""

import math
import time

import numpy as np
import pytest

from apsk_shaper import (
    SnrSpec,
    average_power,
    box_muller_apsk,
    cf_convergence_scan,
    dvb_variant_apsk,
    gap_metrics,
    lemma_scan,
    make_constellation,
    mi_monte_carlo,
    mi_quadrature,
    papr,
    square_qam,
)
from apsk_shaper.cli import main

MC_SEED = 20250808

_MI_CACHE = {}
_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    # let the one-line verdicts bypass pytest's capture in any run mode
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _mi(family, n, snr_db, order=40):
    key = (family, n, snr_db, order)
    if key not in _MI_CACHE:
        c = make_constellation(family, n, 1.0)
        _MI_CACHE[key] = mi_quadrature(c, SnrSpec.from_db(snr_db), order).value
    return _MI_CACHE[key]


def _report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)


def test_criterion_1_lemma_bound_full_range():
    start = time.perf_counter()
    # the bound is checked at every k; only the end rows are kept
    (first, last), holds = lemma_scan([1, 10**6])
    elapsed = time.perf_counter() - start
    _report("lemma bound k in [1, 1e6]", holds and elapsed < 10,
            f"margin {first[3]:.6f} at k=1, {last[3]:.6f} at k=1e6, {elapsed:.2f}s")
    assert holds
    assert elapsed < 10


def test_criterion_2_power_constraint():
    worst_rel = 0.0
    ok = True
    for power in (0.5, 1.0, 10.0):
        for n in range(1, 257):
            avg = average_power(box_muller_apsk(n, power))
            k = np.arange(n)
            closed = -(power / n) * float(np.log((2 * k + 1) / (2.0 * n)).sum())
            ok = ok and avg < power
            worst_rel = max(worst_rel, abs(avg - closed) / closed)
    _report("power constraint n in [1,256], P in {0.5,1,10}", ok and worst_rel <= 1e-12,
            f"closed-form worst rel dev {worst_rel:.2e}")
    assert ok
    assert worst_rel <= 1e-12


def test_criterion_3_capacity_gap_trend():
    start = time.perf_counter()
    sizes = (2, 4, 8, 16, 32)
    problems = []
    for snr_db in (5.0, 10.0, 15.0):
        cap = math.log2(1.0 + 10 ** (snr_db / 10.0))
        gaps = [cap - _mi("box_muller", n, snr_db) for n in sizes]
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            problems.append(f"gap not strictly decreasing at {snr_db} dB: {gaps}")
        qam_gap = cap - _mi("qam", 32, snr_db)
        if not gaps[-1] < qam_gap:
            problems.append(
                f"box gap {gaps[-1]:.6f} not below qam gap {qam_gap:.6f} at {snr_db} dB"
            )
    elapsed = time.perf_counter() - start
    _report("capacity gap trend over n", not problems,
            f"checked {len(sizes)} sizes x 3 SNRs, {elapsed:.0f}s")
    assert not problems, problems


def test_criterion_4_qam_shaping_loss():
    snr = SnrSpec.from_db(20.0)
    mi = _mi("qam", 32, 20.0)
    _, gap_db = gap_metrics(mi, snr)
    ok = 1.0 <= gap_db <= 1.8
    _report("qam shaping loss bracket at 20 dB", ok, f"gap_db {gap_db:.4f} in [1.0, 1.8]")
    assert ok, f"gap_db {gap_db} outside [1.0, 1.8]"


def test_criterion_5_variant_rate_ordering():
    violations = []
    for snr_db in (5.0, 10.0, 15.0):
        for n in (2, 4, 8):
            diff = _mi("dvb_variant", n, snr_db) - _mi("box_muller", n, snr_db)
            if diff < -1e-4:
                violations.append(f"n={n}, {snr_db} dB: dvb - box = {diff:.6f}")
    _report("variant rate ordering (dvb >= box - 1e-4)", not violations,
            "; ".join(violations) if violations else "holds at all 9 grid points")
    assert not violations, violations


def test_criterion_6_papr_ordering_and_closed_forms():
    ok_order = all(
        papr(dvb_variant_apsk(n)) < papr(box_muller_apsk(n)) for n in (2, 4, 8, 16)
    )
    box4 = papr(box_muller_apsk(4))
    dvb4 = papr(dvb_variant_apsk(4))
    box4_ref = math.log(8) / (0.25 * math.log(4096.0 / 105.0))
    dvb4_ref = math.log(4) / ((math.log(4) + math.log(4.0 / 3.0)) / 2.0)
    ok_values = abs(box4 - box4_ref) <= 1e-6 and abs(dvb4 - dvb4_ref) <= 1e-6
    _report("papr ordering and closed forms", ok_order and ok_values,
            f"box4 {box4:.7f} vs {box4_ref:.7f}, dvb4 {dvb4:.7f} vs {dvb4_ref:.7f}")
    assert ok_order
    assert ok_values


def test_criterion_7_cf_convergence():
    report = cf_convergence_scan("box_muller", [4, 8, 16, 32, 64], power=1.0)
    maxes = report.max_errors()
    at_origin = np.all(report.t_grid == 0.0, axis=1)
    origin_exact = bool(np.all(report.errors[:, at_origin] == 0.0))
    halved = bool(maxes[-1] <= 0.5 * maxes[0])
    _report("cf convergence", halved and origin_exact,
            f"max err n=4: {maxes[0]:.5f}, n=64: {maxes[-1]:.5f}, origin exact: {origin_exact}")
    assert halved
    assert origin_exact


def test_criterion_8_estimator_cross_validation():
    start = time.perf_counter()
    grid = [
        (family, n, snr_db)
        for family in ("box_muller", "dvb_variant", "qam")
        for n in (2, 4, 8)
        for snr_db in (0.0, 5.0, 10.0, 15.0)
    ]
    mc_violations = []
    order_violations = []
    worst_sigma = 0.0
    worst_order_diff = 0.0
    for family, n, snr_db in grid:
        c = make_constellation(family, n, 1.0)
        snr = SnrSpec.from_db(snr_db)
        q40 = _mi(family, n, snr_db, 40)
        q60 = _mi(family, n, snr_db, 60)
        mc = mi_monte_carlo(c, snr, 10**6, MC_SEED)
        sigma = abs(q40 - mc.value) / mc.std_error if mc.std_error > 0 else math.inf
        worst_sigma = max(worst_sigma, sigma)
        if abs(q40 - mc.value) > 3 * mc.std_error:
            mc_violations.append(
                f"{family} n={n} {snr_db} dB: {sigma:.1f} sigma"
                f" (|diff| {abs(q40 - mc.value):.2e} bits)"
            )
        diff = abs(q40 - q60)
        worst_order_diff = max(worst_order_diff, diff)
        if diff > 1e-6:
            order_violations.append(f"{family} n={n} {snr_db} dB: {diff:.2e}")
    elapsed = time.perf_counter() - start
    _report(
        "estimator cross-validation",
        not mc_violations and not order_violations,
        f"mc agreement worst {worst_sigma:.2f} sigma"
        + (f" ({len(mc_violations)} cases beyond 3 sigma)" if mc_violations else "")
        + f"; order-40/60 worst diff {worst_order_diff:.2e}"
        + (f" ({len(order_violations)} cases beyond 1e-6)" if order_violations else "")
        + f"; {elapsed:.0f}s",
    )
    assert not mc_violations, mc_violations
    assert not order_violations, order_violations


def _run_twice(capsys, tmp_path, name, argv_builder):
    outputs = []
    for tag in ("a", "b"):
        workdir = tmp_path / f"{name}_{tag}"
        workdir.mkdir()
        argv, files = argv_builder(workdir)
        code = main(argv)
        assert code == 0, f"{name}: exit {code}"
        blob = capsys.readouterr().out.encode()
        for f in files:
            blob += (workdir / f).read_bytes()
        outputs.append(blob)
    return outputs[0] == outputs[1]


def test_criterion_9_cli_determinism(tmp_path, capsys):
    cases = {
        "generate": lambda d: (
            ["generate", "dvb_variant", "--n", "4", "--out", str(d / "c.json")],
            ["c.json"],
        ),
        "evaluate_quad": lambda d: (
            ["evaluate", "--family", "box_muller", "--n", "2", "--snr-db", "5"],
            [],
        ),
        "evaluate_mc": lambda d: (
            ["evaluate", "--family", "qam", "--n", "2", "--snr-db", "10",
             "--method", "mc", "--samples", "50000", "--seed", "7"],
            [],
        ),
        "sweep": lambda d: (
            ["sweep", "--family", "box_muller", "--n", "2,3", "--snr-db", "5,10",
             "--out", str(d / "s.csv")],
            ["s.csv"],
        ),
        "compare": lambda d: (
            ["compare", "--n", "2", "--snr-db", "5", "--out", str(d / "c.csv")],
            ["c.csv"],
        ),
        "convergence": lambda d: (
            ["convergence", "--out", str(d / "conv")],
            ["conv_lemma.csv", "conv_power.csv", "conv_cf.csv"],
        ),
    }
    unstable = [
        name
        for name, builder in cases.items()
        if not _run_twice(capsys, tmp_path, name, builder)
    ]
    _report("cli determinism", not unstable,
            f"{len(cases)} commands run twice"
            + (f"; unstable: {unstable}" if unstable else ", all byte-identical"))
    assert not unstable, unstable
