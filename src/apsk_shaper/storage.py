"""Canonical constellation file format (JSON).

Schema: {"label": str, "family": str, "n": int, "power": number,
"points": [[x, y], ...]} with points in generation order. The writer emits
floats with 17 significant digits so every value round-trips exactly, and
its output is byte-stable. The reader validates the full set of structural
invariants and rejects files that violate any of them.
"""

import json

from .constellations import Constellation, validate_constellation
from .errors import DomainError

_KEYS = ("label", "family", "n", "power", "points")


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def dumps_constellation(c: Constellation) -> str:
    """Render the canonical JSON text (deterministic bytes)."""
    rows = ",\n".join(f"    [{_f17(x)}, {_f17(y)}]" for x, y in c.points)
    return (
        "{\n"
        f'  "label": {json.dumps(c.label)},\n'
        f'  "family": {json.dumps(c.family)},\n'
        f'  "n": {c.n},\n'
        f'  "power": {_f17(c.power)},\n'
        '  "points": [\n'
        f"{rows}\n"
        "  ]\n"
        "}\n"
    )


def write_constellation(c: Constellation, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_constellation(c))


def loads_constellation(text: str) -> Constellation:
    """Parse and fully validate a constellation document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DomainError("constellation document must be a JSON object")
    if set(doc) != set(_KEYS):
        missing = sorted(set(_KEYS) - set(doc))
        extra = sorted(set(doc) - set(_KEYS))
        raise DomainError(f"bad document keys (missing={missing}, unknown={extra})")
    label, family, n, power, raw_points = (doc[k] for k in _KEYS)
    if not isinstance(label, str):
        raise DomainError("label must be a string")
    if not isinstance(family, str):
        raise DomainError("family must be a string")
    if not isinstance(raw_points, list) or not all(
        isinstance(p, list)
        and len(p) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)
        for p in raw_points
    ):
        raise DomainError("points must be a list of [x, y] number pairs")
    c = Constellation(label, family, n, power, raw_points)
    validate_constellation(c)
    return c


def read_constellation(path) -> Constellation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    return loads_constellation(text)
