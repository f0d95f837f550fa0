"""Command-line front end.

Subcommands: generate | evaluate | sweep | compare | convergence. Outputs are
canonical constellation JSON or plot-ready CSV; every command is
deterministic for fixed inputs and seed. Settings resolve flag > config file
> default; an unset seed falls back to APSK_SHAPER_SEED, then 0. Exit codes:
0 success, 2 usage or validation failure (an unwritable output included),
3 estimator inconsistency, 4 contract violation from the convergence audits.
"""

import argparse
import os
import sys

import numpy as np

from .capacity import DEFAULT_ORDER
from .constellations import (
    BOX_MULLER,
    DVB_VARIANT,
    canonical_family,
    make_constellation,
)
from .convergence import cf_convergence_scan, lemma_scan, power_audit
from .errors import EXIT_CODES, EXIT_OK, ContractError, DomainError
from .storage import dumps_constellation, read_constellation, read_text, write_text
from .sweeps import evaluate_row, render_csv, render_table, sweep_rows

SEED_ENV_VAR = "APSK_SHAPER_SEED"

_METHODS = {"quad": "quadrature", "mc": "monte_carlo"}

# command -> (help, default families, n values, snr_db values)
_GRIDS = {
    "sweep": ("rate-vs-size table for box_muller and qam",
              ("box_muller", "qam"), tuple(range(2, 36)), (5.0, 10.0, 15.0)),
    "compare": ("rate table for the two APSK designs, with PAPR",
                ("box_muller", "dvb_variant"), (2, 4, 8), (0.0, 5.0, 10.0, 15.0, 20.0)),
}

_LEMMA_KS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 1000, 10_000, 100_000, 1_000_000)
_AUDIT_MAX_N = 64
_CF_DEFAULT_NS = (4, 8, 16, 32, 64)


def _list_of(kind, what):
    """Parser of a comma-separated list; argparse prefixes its errors with the flag."""

    def parse(text: str):
        try:
            items = [kind(t.strip()) for t in text.split(",") if t.strip()]
        except ValueError:
            items = []
        if not items:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {what}, got {text!r}"
            )
        return items

    return parse


_str_list = _list_of(str, "names")
_int_list = _list_of(int, "integers")
_float_list = _list_of(float, "numbers")


def _bool(text: str):
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _method(text: str):
    if text not in _METHODS:
        raise ValueError(f"must be one of {sorted(_METHODS)}, got {text!r}")
    return text


# config key -> parser; every key is also the dest of the grid flag it stands for
_CONFIG_PARSERS = {
    "families": _str_list,
    "n": _int_list,
    "snr_db": _float_list,
    "power": float,
    "method": _method,
    "order": int,
    "samples": int,
    "seed": int,
    "out": str,
    "normalize": _bool,
}


def _load_config(path):
    """Parse the flat key = value config format; unknown keys are rejected."""
    cfg = {}
    for lineno, raw in enumerate(read_text(path, "config ").splitlines(), 1):
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
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return cfg


def _seed(args) -> int:
    """The flag's or config's seed, else APSK_SHAPER_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _emit(path, text):
    """Write `text` to the file `path`, or to stdout when no path is given."""
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    c = make_constellation(args.family, args.n, args.power, args.normalize, args.label)
    _emit(args.out, dumps_constellation(c))
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
    row = evaluate_row(c, args.snr_db, _METHODS[args.method], args.order, args.samples, _seed(args))
    _emit(None, render_csv([row]))
    return EXIT_OK


def cmd_grid(args) -> int:
    """`sweep` and `compare`: one CSV row per (family, n, snr_db)."""
    seed, method = _seed(args), _METHODS[args.method]
    constellations = [
        make_constellation(f, n, args.power, args.normalize)
        for f in args.families
        for n in args.n
    ]
    rows = sweep_rows(constellations, args.snr_db, method, args.order, args.samples, seed)
    _emit(args.out, render_csv(rows))
    return EXIT_OK


def cmd_convergence(args) -> int:
    family = canonical_family(args.family)
    if family not in (BOX_MULLER, DVB_VARIANT):
        raise DomainError("convergence audits apply to the APSK families only")
    # the bound is checked at the printed rows, the k of _LEMMA_KS
    lemma_rows, lemma_ok = lemma_scan(_LEMMA_KS)
    audits = [
        power_audit(BOX_MULLER, range(1, _AUDIT_MAX_N + 1), args.power),
        power_audit(DVB_VARIANT, range(2, _AUDIT_MAX_N + 1, 2), args.power),
    ]
    cf = cf_convergence_scan(family, args.n, args.power)
    # (file suffix, stdout section, CSV text)
    tables = (
        ("lemma", "lemma", render_table(("k", "lhs", "rhs", "margin"), lemma_rows)),
        ("power", "power_audit", render_table(
            ("family", "n", "avg_power", "nominal_power", "slack"),
            ((a.family, *row) for a in audits for row in a.rows()),
        )),
        ("cf", "cf_error", render_table(
            ("family", "n", "t1", "t2", "abs_error"),
            ((cf.family, *row) for row in cf.rows()),
        )),
    )
    if args.out:
        for suffix, _, text in tables:
            _emit(f"{args.out}_{suffix}.csv", text)
    else:
        _emit(None, "\n".join(f"# {section}\n{text}" for _, section, text in tables))
    maxes = cf.max_errors()
    checks = {
        "lemma": lemma_ok,
        "power_slack": all(bool(np.all(a.slacks > 0)) for a in audits),
        # the coarsest grid must be at least twice as far from the limit
        "cf_ordering": len(args.n) < 2 or bool(maxes[-1] <= 0.5 * maxes[0]),
    }
    failed = [name for name, ok in checks.items() if not ok]
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

    # the options shared by evaluate, sweep and compare
    estimator = argparse.ArgumentParser(add_help=False)
    estimator.add_argument("--power", type=float, default=1.0)
    estimator.add_argument("--normalize", action="store_true")
    estimator.add_argument("--method", choices=sorted(_METHODS), default="quad")
    estimator.add_argument("--order", type=int, default=DEFAULT_ORDER)
    estimator.add_argument("--samples", type=int, default=10**6)
    estimator.add_argument("--seed", type=int, default=None)

    ev = sub.add_parser("evaluate", parents=[estimator], help="one CSV row of rates on stdout")
    ev.add_argument("constellation_file", nargs="?", default=None)
    ev.add_argument("--family", default=None)
    ev.add_argument("--n", type=int, default=None)
    ev.add_argument("--snr-db", type=float, required=True, dest="snr_db")
    ev.set_defaults(handler=cmd_evaluate)

    for name, (help_text, families, n_values, snr_dbs) in _GRIDS.items():
        grid = sub.add_parser(name, parents=[estimator], help=help_text)
        grid.add_argument("--family", type=_str_list, dest="families", metavar="LIST")
        grid.add_argument("--n", type=_int_list, metavar="LIST")
        grid.add_argument("--snr-db", type=_float_list, dest="snr_db", metavar="LIST")
        grid.add_argument("--config", default=None)
        grid.add_argument("--out", default=None)
        grid.set_defaults(
            handler=cmd_grid, grid=grid, families=families, n=n_values, snr_db=snr_dbs
        )

    conv = sub.add_parser("convergence", help="lemma, power-slack, and CF audits")
    conv.add_argument("--family", default="box_muller")
    conv.add_argument("--n", type=_int_list, default=_CF_DEFAULT_NS, metavar="LIST")
    conv.add_argument("--power", type=float, default=1.0)
    conv.add_argument("--out", default=None, help="prefix for the three CSV files")
    conv.set_defaults(handler=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's values become the grid's defaults, so flags still win
            args.grid.set_defaults(**_load_config(args.config))
            args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
