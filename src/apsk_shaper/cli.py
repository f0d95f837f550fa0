"""Command-line front end.

Subcommands: generate | evaluate | sweep | compare | convergence. Outputs are
canonical constellation JSON or plot-ready CSV; every command is
deterministic for fixed inputs and seed. Exit codes: 0 success, 2 usage or
validation failure, 3 estimator inconsistency, 4 contract violation from the
convergence audits.
"""

import argparse
import os
import sys

import numpy as np

from .constellations import (
    BOX_MULLER,
    DVB_VARIANT,
    SQUARE_QAM,
    canonical_family,
    make_constellation,
)
from .convergence import cf_convergence_scan, lemma_scan, power_audit
from .errors import (
    EXIT_CONTRACT,
    EXIT_ESTIMATOR,
    EXIT_OK,
    EXIT_USAGE,
    ContractError,
    DomainError,
    EstimatorError,
)
from .storage import dumps_constellation, read_constellation
from .sweeps import _fmt, evaluate_row, render_csv, sweep_rows

SEED_ENV_VAR = "APSK_SHAPER_SEED"

_METHODS = {"quad": "quadrature", "mc": "monte_carlo"}

_LEMMA_KS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 1000, 10_000, 100_000, 1_000_000)
_AUDIT_MAX_N = 64
_CF_DEFAULT_NS = (4, 8, 16, 32, 64)
_LEMMA_RTOL = 1e-9


def _int_list(text: str):
    return [int(t) for t in text.split(",") if t.strip()]


def _float_list(text: str):
    return [float(t) for t in text.split(",") if t.strip()]


def _str_list(text: str):
    return [t.strip() for t in text.split(",") if t.strip()]


def _bool(text: str):
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_CONFIG_PARSERS = {
    "families": _str_list,
    "n": _int_list,
    "snr_db": _float_list,
    "power": float,
    "method": str,
    "order": int,
    "samples": int,
    "seed": int,
    "out": str,
    "normalize": _bool,
}


def _load_config(path):
    """Parse the flat key = value config format; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from None
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _CONFIG_PARSERS:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            cfg[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return cfg


def _env_seed():
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _resolve(flag_value, cfg, key, default):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _resolve_seed(flag_value, cfg):
    if flag_value is not None:
        return flag_value
    if "seed" in cfg:
        return cfg["seed"]
    env = _env_seed()
    return env if env is not None else 0


def _resolve_method(name):
    if name in _METHODS:
        return _METHODS[name]
    raise DomainError(f"method must be one of {sorted(_METHODS)}, got {name!r}")


def _write_text(path, text):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def cmd_generate(args) -> int:
    c = make_constellation(args.family, args.n, args.power, args.normalize, args.label)
    text = dumps_constellation(c)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.constellation_file:
        if args.family is not None or args.n is not None:
            raise DomainError("give either a constellation file or --family/--n, not both")
        c = read_constellation(args.constellation_file)
    else:
        if args.family is None or args.n is None:
            raise DomainError("need a constellation file or both --family and --n")
        c = make_constellation(args.family, args.n, args.power, args.normalize)
    row = evaluate_row(
        c,
        args.snr_db,
        method=_resolve_method(args.method),
        order=args.order,
        samples=args.samples,
        seed=_resolve_seed(args.seed, {}),
    )
    sys.stdout.write(render_csv([row]))
    return EXIT_OK


_SWEEP_DEFAULTS = {
    "families": ("box_muller", "qam"),
    "n": tuple(range(2, 36)),
    "snr_db": (5.0, 10.0, 15.0),
}
_COMPARE_DEFAULTS = {
    "families": ("box_muller", "dvb_variant"),
    "n": (2, 4, 8),
    "snr_db": (0.0, 5.0, 10.0, 15.0, 20.0),
}


def _grid_command(args, defaults) -> int:
    cfg = _load_config(args.config) if args.config else {}
    families = _resolve(args.family, cfg, "families", defaults["families"])
    n_values = _resolve(args.n, cfg, "n", defaults["n"])
    snr_dbs = _resolve(args.snr_db, cfg, "snr_db", defaults["snr_db"])
    power = _resolve(args.power, cfg, "power", 1.0)
    method = _resolve_method(_resolve(args.method, cfg, "method", "quad"))
    order = _resolve(args.order, cfg, "order", 40)
    samples = _resolve(args.samples, cfg, "samples", 10**6)
    seed = _resolve_seed(args.seed, cfg)
    normalize = args.normalize or cfg.get("normalize", False)
    out = _resolve(args.out, cfg, "out", None)

    constellations = [
        # QAM is already at exactly P; --normalize only rescales the APSK rows
        make_constellation(fam, n, power, normalize and canonical_family(fam) != SQUARE_QAM)
        for fam in families
        for n in n_values
    ]
    rows = sweep_rows(constellations, snr_dbs, method, order, samples, seed)
    text = render_csv(rows)
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    return _grid_command(args, _SWEEP_DEFAULTS)


def cmd_compare(args) -> int:
    return _grid_command(args, _COMPARE_DEFAULTS)


def _lemma_csv():
    ks, lhs, rhs = lemma_scan(max(_LEMMA_KS))
    lines = ["k,lhs,rhs,margin"]
    for k in _LEMMA_KS:
        lines.append(
            f"{k},{_fmt(lhs[k - 1])},{_fmt(rhs[k - 1])},{_fmt(rhs[k - 1] - lhs[k - 1])}"
        )
    holds = bool(np.all(lhs <= rhs + _LEMMA_RTOL * np.abs(rhs)))
    return "\n".join(lines) + "\n", holds


def _power_csv(power):
    audits = [
        power_audit(BOX_MULLER, range(1, _AUDIT_MAX_N + 1), power),
        power_audit(DVB_VARIANT, range(2, _AUDIT_MAX_N + 1, 2), power),
    ]
    lines = ["family,n,avg_power,nominal_power,slack"]
    ok = True
    for audit in audits:
        ok = ok and bool(np.all(audit.slacks > 0))
        for n, avg, nominal, slack in audit.rows():
            lines.append(f"{audit.family},{n},{_fmt(avg)},{_fmt(nominal)},{_fmt(slack)}")
    return "\n".join(lines) + "\n", ok


def _cf_csv(family, n_list, power):
    report = cf_convergence_scan(family, n_list, power)
    lines = ["family,n,t1,t2,abs_error"]
    for n, t1, t2, err in report.rows():
        lines.append(f"{report.family},{n},{_fmt(t1)},{_fmt(t2)},{_fmt(err)}")
    maxes = report.max_errors()
    # the coarsest grid must be at least twice as far from the limit
    ok = len(n_list) < 2 or bool(maxes[-1] <= 0.5 * maxes[0])
    return "\n".join(lines) + "\n", ok


def cmd_convergence(args) -> int:
    family = canonical_family(args.family)
    if family not in (BOX_MULLER, DVB_VARIANT):
        raise DomainError("convergence audits apply to the APSK families only")
    n_list = tuple(args.n) if args.n else _CF_DEFAULT_NS
    lemma_text, lemma_ok = _lemma_csv()
    power_text, power_ok = _power_csv(args.power)
    cf_text, cf_ok = _cf_csv(family, n_list, args.power)
    if args.out:
        _write_text(f"{args.out}_lemma.csv", lemma_text)
        _write_text(f"{args.out}_power.csv", power_text)
        _write_text(f"{args.out}_cf.csv", cf_text)
    else:
        sys.stdout.write("# lemma\n" + lemma_text + "\n")
        sys.stdout.write("# power_audit\n" + power_text + "\n")
        sys.stdout.write("# cf_error\n" + cf_text)
    failed = [
        name
        for name, ok in (("lemma", lemma_ok), ("power_slack", power_ok), ("cf_ordering", cf_ok))
        if not ok
    ]
    if failed:
        raise ContractError(f"contracted inequalities failed: {', '.join(failed)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apsk-shaper",
        description="Construct shaped APSK constellations and audit their AWGN rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a constellation JSON file")
    gen.add_argument("family", help="box_muller | dvb_variant | qam")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--power", type=float, default=1.0)
    gen.add_argument("--normalize", action="store_true")
    gen.add_argument("--label", default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(handler=cmd_generate)

    ev = sub.add_parser("evaluate", help="one CSV row of rate metrics on stdout")
    ev.add_argument("constellation_file", nargs="?", default=None)
    ev.add_argument("--family", default=None)
    ev.add_argument("--n", type=int, default=None)
    ev.add_argument("--power", type=float, default=1.0)
    ev.add_argument("--normalize", action="store_true")
    ev.add_argument("--snr-db", type=float, required=True, dest="snr_db")
    ev.add_argument("--method", choices=sorted(_METHODS), default="quad")
    ev.add_argument("--order", type=int, default=40)
    ev.add_argument("--samples", type=int, default=10**6)
    ev.add_argument("--seed", type=int, default=None)
    ev.set_defaults(handler=cmd_evaluate)

    for name, help_text in (
        ("sweep", "rate-vs-size table for box_muller and qam"),
        ("compare", "rate table for the two APSK designs, with PAPR"),
    ):
        grid = sub.add_parser(name, help=help_text)
        grid.add_argument("--family", type=_str_list, default=None, metavar="LIST")
        grid.add_argument("--n", type=_int_list, default=None, metavar="LIST")
        grid.add_argument("--snr-db", type=_float_list, default=None, dest="snr_db", metavar="LIST")
        grid.add_argument("--power", type=float, default=None)
        grid.add_argument("--method", default=None)
        grid.add_argument("--order", type=int, default=None)
        grid.add_argument("--samples", type=int, default=None)
        grid.add_argument("--seed", type=int, default=None)
        grid.add_argument("--normalize", action="store_true")
        grid.add_argument("--config", default=None)
        grid.add_argument("--out", default=None)
        grid.set_defaults(handler=cmd_sweep if name == "sweep" else cmd_compare)

    conv = sub.add_parser("convergence", help="lemma, power-slack, and CF audits")
    conv.add_argument("--family", default="box_muller")
    conv.add_argument("--n", type=_int_list, default=None, metavar="LIST")
    conv.add_argument("--power", type=float, default=1.0)
    conv.add_argument("--out", default=None, help="prefix for the three CSV files")
    conv.set_defaults(handler=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EstimatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
