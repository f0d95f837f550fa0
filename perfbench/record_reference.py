#!/usr/bin/env python3
"""Record reference.json: the values every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload's full grid once at workloads.REFERENCE_SEED and stores
exact (round-trip) values: order-40 quadrature MI for every quad_sweep row,
MC and order-40/60 quadrature MI for every mc_crosscheck point, and the
design_io values and audit outputs. Re-record only on purpose, when a change
to the package is meant to change these numbers, and say so in CHANGES.md.
"""

import json
import shutil
import tempfile

import run


def main():
    run.bootstrap()
    from machine import machine_record
    from workloads import REFERENCE_SEED, WORKLOADS

    import apsk_shaper

    refs = {
        "seed": REFERENCE_SEED,
        "package_version": apsk_shaper.__version__,
        "machine": machine_record(),
    }
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(REFERENCE_SEED, None, "full", workdir)
            outs = [workload.run_op(op) for op in workload.ops]
            ops = {workload.key(op): workload.reference_for(op, out) for op, out in zip(workload.ops, outs)}
            refs[name] = {
                "ops": dict(sorted(ops.items())),
                "steps": workload.reference_steps(workload.run_steps(outs)),
            }
            print(f"{name}: {len(ops)} operations recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
