"""Self-tests for the benchmark, at a tiny size.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def tiny(workload, trace=0, seed=REFERENCE_SEED, references=None):
    """One run of `workload` on its tiny grid; returns (details, result)."""
    args = run.parse_args([
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ])
    return run.execute(args, references, size="tiny")


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_declared_metrics_match_the_code():
    from tracing import PER_LAYER

    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize(
    "workload, key, field",
    [("quad_sweep", "box_muller|6|30", None), ("mc_crosscheck", "qam|2|15", "mc")],
)
def test_corrupted_reference_raises_fail_frac(workload, key, field):
    refs = run.load_references()
    ops = refs[workload]["ops"]
    if field is None:
        ops[key] += 1e-9
    else:
        ops[key][field] += 1e-9
    details, result = tiny(workload, references=refs)
    assert details["fail_frac"] > 0
    assert result["failed"] == 1 and not result["correct"]
    assert any(p.startswith(key) for p in details["problems"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    details, result = tiny(workload)
    assert result["correct"], details["problems"]
    assert details["fail_frac"] == 0 and result["attempted"] > 0
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in values(result).values())
    assert details["seed"] == REFERENCE_SEED and details["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(workload):
    details, result = tiny(workload, trace=1)
    assert result["correct"], details["problems"]
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = values(result)
    if workload == "design_io":
        assert all(v == 0 for k, v in got.items() if k.startswith("capacity."))
    else:
        assert got["capacity.mi_quadrature.calls"] > 0
    if workload == "mc_crosscheck":
        # the traced pass follows a plain one but starts with an empty node cache
        assert 0 < got["numerics.gauss_hermite_2d.hit_ratio"] < 1
    if workload != "mc_crosscheck":
        assert got["storage.write_constellation.bytes"] > 0 and got["cli.main.s"] > 0


def test_tracer_wraps_every_binding_and_puts_them_back():
    from tracing import TARGETS, Tracer

    def bindings_of(functions):
        return sorted(
            (name, attr)
            for name, module in list(sys.modules.items())
            if name == "apsk_shaper" or name.startswith("apsk_shaper.")
            for attr, value in vars(module).items()
            if any(value is fn for fn in functions)
        )

    originals = [getattr(sys.modules[f"apsk_shaper.{m}"], f) for m, f, _ in TARGETS]
    before = bindings_of(originals)
    tracer = Tracer()
    tracer.install()
    try:
        left = bindings_of(originals)
        wrapped = sorted((name, attr) for name, attr, _ in tracer.bindings)
    finally:
        tracer.uninstall()
    # callers bind by name (capacity.logsumexp_rows, sweeps.mi_quadrature, ...),
    # so functions are held by more attributes than there are targets
    assert len(before) > len(originals)
    assert left == [] and wrapped == before
    assert bindings_of(originals) == before


def test_mc_at_another_seed_passes_the_statistical_check():
    details, result = tiny("mc_crosscheck", seed=REFERENCE_SEED + 1)
    assert result["correct"], details["problems"]


def test_seed_is_the_only_random_input():
    a, b, c = (WORKLOADS["mc_crosscheck"](seed, {}, "tiny") for seed in (7, 7, 8))
    assert a.ops == b.ops == c.ops
    assert (a.seed, c.seed) == (7, 8)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
