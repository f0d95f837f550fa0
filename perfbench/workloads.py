"""The benchmark's three workloads, driven only through apsk_shaper's public API.

Every call into the package goes through an attribute lookup on the package
or one of its modules at call time (`pkg.mi_quadrature(...)`, `cli.main(...)`),
so the timing wrappers that tracing.py installs on those attributes see it.

A workload is a fixed list of operations in a fixed order, plus a few steps
that run once per pass after the operations. The seed is the Monte Carlo
seed of mc_crosscheck; the other workloads have no random input. The order
is not shuffled by the seed because it changes which operations pay for
fresh memory pages while glibc's mmap threshold adapts (one 20 dB row took
28 ms in one order and 81 ms in another), which would add spread that no
code change caused. Each operation returns a plain value that the workload
checks against the range bounds and against the reference values in
reference.json, which were recorded from the package with
record_reference.py.
"""

import csv
import io
import math
from pathlib import Path

import numpy as np

import apsk_shaper as pkg
from apsk_shaper import cli

FAMILIES = ("box_muller", "dvb_variant", "qam")

# the seed whose Monte Carlo values reference.json holds
REFERENCE_SEED = 0

# quadrature must reproduce its reference within this many bits (the ROADMAP
# gate for kernel rewrites; it leaves room for a re-ordered summation)
QUAD_TOL = 1e-11
# MC at REFERENCE_SEED: bitwise reproducible today; this leaves room for a
# re-ordered summation while staying far below the MC standard error (~1e-3)
MC_REF_TOL = 1e-10
# MC at any seed against order-60 quadrature: |mc - q60| <= sigmas * std_error
# + floor. The floor covers the points whose std_error collapses (qam n=2 at
# 15 dB reports ~1e-10 while its bias is ~1e-7; dvb n=2 at 15 dB ~1e-5).
MC_SIGMAS = 5.0
MC_FLOOR = 1e-4
# slack on the [0, min(log2 M, capacity)] range, as the package's own check
RANGE_SLACK = 1e-9
# design values are plain reductions over the points
DESIGN_RTOL = 1e-12
# CLI CSVs carry 9 significant digits
CSV_RTOL = 1e-8
CSV_ATOL = 1e-15


def _close(value, ref, rtol, atol=0.0) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def _range_problem(label, value, m, snr_db):
    upper = min(math.log2(m), math.log2(1.0 + 10.0 ** (snr_db / 10.0)))
    if not (-RANGE_SLACK <= value <= upper + RANGE_SLACK):
        return [f"{label}={value!r} outside [0, {upper!r}]"]
    return []


def _csv_problems(name, text, ref_text):
    """Cell-by-cell comparison: text cells equal, numeric cells within CSV_RTOL."""
    rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} lines, reference has {len(ref_rows)}"]
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref_row):
            return [f"{name} line {i + 1}: {len(row)} cells, reference has {len(ref_row)}"]
        for cell, ref_cell in zip(row, ref_row):
            if cell == ref_cell:
                continue
            try:
                ok = _close(float(cell), float(ref_cell), CSV_RTOL, CSV_ATOL)
            except ValueError:
                ok = False
            if not ok:
                return [f"{name} line {i + 1}: {cell!r} != reference {ref_cell!r}"]
    return []


def _round_trip(c, path):
    """Write `c`, read it back (the reader validates) and compare the two."""
    pkg.write_constellation(c, path)
    back = pkg.read_constellation(path)
    same = (
        (back.label, back.family, back.n, back.power) == (c.label, c.family, c.n, c.power)
        and np.array_equal(back.points, c.points)
    )
    return back, same


def _convergence_cli(workdir):
    """`apsk-shaper convergence --out PREFIX` in-process, with its three CSVs."""
    prefix = Path(workdir) / "convergence"
    code = cli.main(["convergence", "--out", str(prefix)])
    texts = {}
    for part in ("lemma", "power", "cf"):
        path = Path(f"{prefix}_{part}.csv")
        texts[part] = path.read_text(encoding="ascii") if path.exists() else ""
    return {"exit_code": code, "csv": texts}


def _convergence_cli_problems(result, ref):
    problems = [] if result["exit_code"] == 0 else [f"exit code {result['exit_code']}"]
    for part, text in result["csv"].items():
        problems += _csv_problems(f"convergence_{part}.csv", text, ref["csv"][part])
    return problems


class Workload:
    """Fixed operations plus per-pass steps; see the module docstring."""

    name = ""
    # --seconds buys one pass per pass_budget_s, a fixed count, so every
    # commit does the same work whatever its speed. It is the time one pass
    # takes on the reference machine.
    pass_budget_s = 1.0
    steps = ()

    def __init__(self, seed: int, references, size: str = "full", workdir=None):
        self.seed = seed
        self.size = size
        self.workdir = Path(workdir) if workdir is not None else None
        refs = (references or {}).get(self.name, {})
        self.op_refs = refs.get("ops", {})
        self.step_refs = refs.get("steps")
        self.ops = self.make_ops()

    def make_ops(self) -> list:
        raise NotImplementedError

    def key(self, op) -> str:
        return "|".join(str(part) for part in op)

    def run_op(self, op):
        raise NotImplementedError

    def check_op(self, op, out) -> list:
        raise NotImplementedError

    def run_steps(self, outs) -> dict:
        return {}

    def check_steps(self, steps) -> dict:
        """Problems per step name; every step in `self.steps` has an entry."""
        return {}

    def reference_for(self, op, out):
        raise NotImplementedError

    def reference_steps(self, steps):
        return None

    def _ref(self, op):
        ref = self.op_refs.get(self.key(op))
        if ref is None:
            raise KeyError(f"no reference value for {self.key(op)}")
        return ref


class QuadSweep(Workload):
    name = "quad_sweep"
    pass_budget_s = 24.0
    steps = ("render_csv", "store", "convergence_cli")
    ORDER = 40
    GRID = {"full": ((6, 10, 16), (0, 10, 20, 30)), "tiny": ((6,), (0, 30))}

    def make_ops(self):
        ns, snrs = self.GRID[self.size]
        self.constellations = {
            (fam, n): pkg.make_constellation(fam, n) for fam in FAMILIES for n in ns
        }
        return [(fam, n, snr) for fam in FAMILIES for n in ns for snr in snrs]

    def run_op(self, op):
        fam, n, snr_db = op
        return pkg.evaluate_row(self.constellations[fam, n], snr_db, "quadrature", self.ORDER)

    def check_op(self, op, row):
        fam, n, snr_db = op
        problems = _range_problem("mi", row.mi_bits, row.m, snr_db)
        ref = self._ref(op)
        if abs(row.mi_bits - ref) > QUAD_TOL:
            problems.append(f"mi={row.mi_bits!r} differs from reference {ref!r}")
        return problems

    def run_steps(self, rows):
        store = {}
        for (fam, n), c in self.constellations.items():
            back, same = _round_trip(c, self.workdir / f"{fam}_n{n}.json")
            store[f"{fam}|{n}"] = {"same": same, "min_distance": pkg.min_distance(back)}
        return {
            "render_csv": pkg.render_csv([r for r in rows if r is not None]),
            "store": store,
            "convergence_cli": _convergence_cli(self.workdir),
        }

    def check_steps(self, steps):
        lines = steps["render_csv"].splitlines()
        header = ",".join(pkg.CSV_COLUMNS)
        mi_col = pkg.CSV_COLUMNS.index("mi_bits")
        problems = []
        if len(lines) != len(self.ops) + 1 or lines[0] != header:
            problems.append(f"csv has {len(lines)} lines for {len(self.ops)} rows")
        else:
            for op, line in zip(self.ops, lines[1:]):
                cells = line.split(",")
                if cells[0] != pkg.canonical_family(op[0]) or int(cells[1]) != op[1]:
                    problems.append(f"csv row {line!r} is not {op}")
                elif not _close(float(cells[mi_col]), self._ref(op), CSV_RTOL):
                    problems.append(f"csv mi {cells[mi_col]} differs from reference")
        refs = self.step_refs or {}
        store = []
        for key, got in steps["store"].items():
            if not got["same"]:
                store.append(f"{key}: constellation read back differs from the one written")
            if not _close(got["min_distance"], refs["store"][key], DESIGN_RTOL):
                store.append(f"{key}: min_distance {got['min_distance']!r} differs from reference")
        return {
            "render_csv": problems,
            "store": store,
            "convergence_cli": _convergence_cli_problems(
                steps["convergence_cli"], refs["convergence_cli"]
            ),
        }

    def reference_for(self, op, row):
        return row.mi_bits

    def reference_steps(self, steps):
        return {
            "store": {key: got["min_distance"] for key, got in steps["store"].items()},
            "convergence_cli": {"csv": steps["convergence_cli"]["csv"]},
        }


class McCrosscheck(Workload):
    name = "mc_crosscheck"
    pass_budget_s = 10.0
    SAMPLES = 10**6
    ORDERS = (40, 60)
    GRID = {"full": ((2, 4, 8), (0, 15)), "tiny": ((2,), (0, 15))}

    def make_ops(self):
        ns, snrs = self.GRID[self.size]
        self.constellations = {
            (fam, n): pkg.make_constellation(fam, n) for fam in FAMILIES for n in ns
        }
        return [(fam, n, snr) for fam in FAMILIES for n in ns for snr in snrs]

    def run_op(self, op):
        fam, n, snr_db = op
        c = self.constellations[fam, n]
        snr = pkg.SnrSpec.from_db(snr_db)
        mc = pkg.mi_monte_carlo(c, snr, self.SAMPLES, self.seed)
        quad = [pkg.mi_quadrature(c, snr, order).value for order in self.ORDERS]
        return (mc.value, mc.std_error, *quad)

    def check_op(self, op, out):
        fam, n, snr_db = op
        mc, std_error, q40, q60 = out
        m = n * n
        problems = []
        for label, value in (("mc", mc), ("q40", q40), ("q60", q60)):
            problems += _range_problem(label, value, m, snr_db)
        ref = self._ref(op)
        for label, value in (("q40", q40), ("q60", q60)):
            if abs(value - ref[label]) > QUAD_TOL:
                problems.append(f"{label}={value!r} differs from reference {ref[label]!r}")
        if abs(mc - q60) > MC_SIGMAS * std_error + MC_FLOOR:
            problems.append(f"mc={mc!r} (std_error {std_error!r}) disagrees with q60={q60!r}")
        if self.seed == REFERENCE_SEED and abs(mc - ref["mc"]) > MC_REF_TOL:
            problems.append(f"mc={mc!r} differs from reference {ref['mc']!r}")
        return problems

    def reference_for(self, op, out):
        mc, std_error, q40, q60 = out
        return {"mc": mc, "std_error": std_error, "q40": q40, "q60": q60}


class DesignIo(Workload):
    name = "design_io"
    # 8 passes at 50 s put the tail percentile (p97 of 368) inside the 24
    # n=256 operations; at 5 passes it sat at their edge with the ~380 ms
    # n=48 ones and jumped between the two groups
    pass_budget_s = 6.0
    steps = ("power_audit", "cf_convergence_scan", "convergence_cli")
    MIN_DISTANCE_MAX_N = 48
    GRID = {
        "full": ((2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256), 256,
                 (4, 8, 16, 32, 64, 128, 256)),
        "tiny": ((2, 3, 4, 8), 16, (4, 8, 16)),
    }
    APSK = ("box_muller", "dvb_variant")

    def make_ops(self):
        ns, self.audit_max_n, self.cf_ns = self.GRID[self.size]
        return [
            (fam, n) for fam in FAMILIES for n in ns if not (fam == "dvb_variant" and n % 2)
        ]

    def _audit_sizes(self, fam):
        return range(2, self.audit_max_n + 1, 2) if fam == "dvb_variant" else range(1, self.audit_max_n + 1)

    def run_op(self, op):
        fam, n = op
        c = pkg.make_constellation(fam, n)
        back, same = _round_trip(c, self.workdir / f"{fam}_n{n}.json")
        dmin = pkg.min_distance(back) if n <= self.MIN_DISTANCE_MAX_N else None
        return (same, pkg.papr(back), pkg.average_power(back), pkg.peak_power(back), dmin)

    def check_op(self, op, out):
        same, *values = out
        problems = [] if same else ["constellation read back differs from the one written"]
        ref = self._ref(op)
        for label, value in zip(("papr", "avg_power", "peak_power", "min_distance"), values):
            if (value is None) != (ref[label] is None) or (
                value is not None and not _close(value, ref[label], DESIGN_RTOL)
            ):
                problems.append(f"{label}={value!r} differs from reference {ref[label]!r}")
        return problems

    def run_steps(self, outs):
        audits = {
            fam: pkg.power_audit(fam, self._audit_sizes(fam)) for fam in self.APSK
        }
        scans = {fam: pkg.cf_convergence_scan(fam, self.cf_ns) for fam in self.APSK}
        return {
            "power_audit": {
                fam: {"avg_powers": a.avg_powers.tolist(), "slacks": a.slacks.tolist()}
                for fam, a in audits.items()
            },
            "cf_convergence_scan": {fam: s.errors.tolist() for fam, s in scans.items()},
            "convergence_cli": _convergence_cli(self.workdir),
        }

    def check_steps(self, steps):
        refs = self.step_refs or {}
        problems = {name: [] for name in self.steps}
        for fam, audit in steps["power_audit"].items():
            ref = refs["power_audit"][fam]["avg_powers"]
            if len(audit["avg_powers"]) != len(self._audit_sizes(fam)):
                problems["power_audit"].append(f"{fam}: {len(audit['avg_powers'])} sizes audited")
            if min(audit["slacks"]) <= 0:
                problems["power_audit"].append(f"{fam}: power budget exceeded")
            if not all(_close(v, r, DESIGN_RTOL) for v, r in zip(audit["avg_powers"], ref)):
                problems["power_audit"].append(f"{fam}: average powers differ from reference")
        for fam, errors in steps["cf_convergence_scan"].items():
            ref = refs["cf_convergence_scan"][fam]
            if len(errors) != len(self.cf_ns):
                problems["cf_convergence_scan"].append(f"{fam}: {len(errors)} sizes scanned")
            flat = [(v, r) for row, ref_row in zip(errors, ref) for v, r in zip(row, ref_row)]
            if not all(_close(v, r, DESIGN_RTOL, CSV_ATOL) for v, r in flat):
                problems["cf_convergence_scan"].append(f"{fam}: CF errors differ from reference")
            maxes = [max(row) for row in errors]
            if maxes[-1] > 0.5 * maxes[0]:
                problems["cf_convergence_scan"].append(f"{fam}: CF error does not halve")
        problems["convergence_cli"] = _convergence_cli_problems(
            steps["convergence_cli"], refs["convergence_cli"]
        )
        return problems

    def reference_for(self, op, out):
        _, papr, avg, peak, dmin = out
        return {"papr": papr, "avg_power": avg, "peak_power": peak, "min_distance": dmin}

    def reference_steps(self, steps):
        return {
            "power_audit": {
                fam: {"avg_powers": audit["avg_powers"]}
                for fam, audit in steps["power_audit"].items()
            },
            "cf_convergence_scan": steps["cf_convergence_scan"],
            "convergence_cli": {"csv": steps["convergence_cli"]["csv"]},
        }


WORKLOADS = {cls.name: cls for cls in (QuadSweep, McCrosscheck, DesignIo)}
