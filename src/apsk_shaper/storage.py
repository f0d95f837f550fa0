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
_NUMBERS = frozenset((int, float))  # exact types: json's true and false are bool


def dumps_constellation(c: Constellation) -> str:
    """Render the canonical JSON text (deterministic bytes)."""
    # every number through one 17-digit format, the points one row at a time
    rows = ",\n".join("    [%.17g, %.17g]" % (x, y) for x, y in c.points.tolist())
    return (
        "{\n"
        f'  "label": {json.dumps(c.label)},\n'
        f'  "family": {json.dumps(c.family)},\n'
        f'  "n": {c.n},\n'
        f'  "power": {"%.17g" % c.power},\n'
        '  "points": [\n'
        f"{rows}\n"
        "  ]\n"
        "}\n"
    )


def read_text(path, what: str = "") -> str:
    """The UTF-8 file `path` as text; DomainError "cannot read <what><path>: ..." if not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise DomainError(f"cannot read {what}{path}: {exc}") from None


def write_text(path, text: str) -> None:
    """Write ASCII `text` to the file `path`; DomainError "cannot write <path>: ..." if not."""
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except (OSError, UnicodeError) as exc:
        raise DomainError(f"cannot write {path}: {exc}") from None


def write_constellation(c: Constellation, path) -> None:
    write_text(path, dumps_constellation(c))


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
    if type(raw_points) is not list or not all(
        type(p) is list and len(p) == 2 and type(p[0]) in _NUMBERS and type(p[1]) in _NUMBERS
        for p in raw_points
    ):
        raise DomainError("points must be a list of [x, y] number pairs")
    c = Constellation(label, family, n, power, raw_points)
    validate_constellation(c)
    return c


def read_constellation(path) -> Constellation:
    return loads_constellation(read_text(path))
