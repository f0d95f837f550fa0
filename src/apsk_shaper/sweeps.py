"""Rate-sweep rows and CSV rendering for the command-line front end."""

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, List, Sequence

from .capacity import (
    DEFAULT_ORDER,
    SnrSpec,
    gap_metrics,
    gaussian_capacity,
    mi_monte_carlo,
    mi_quadrature,
)
from .constellations import Constellation, average_power, papr
from .errors import DomainError

CSV_COLUMNS = (
    "family",
    "n",
    "M",
    "snr_db",
    "mi_bits",
    "capacity_bits",
    "gap_bits",
    "gap_db",
    "avg_power",
    "papr",
    "method",
)


@dataclass(frozen=True)
class SweepRow:
    """One output record: a constellation evaluated at one SNR.

    The fields follow CSV_COLUMNS in order; `render_csv` writes them as they are.
    """

    family: str
    n: int
    m: int
    snr_db: float
    mi_bits: float
    capacity_bits: float
    gap_bits: float
    gap_db: float
    avg_power: float
    papr: float
    method: str

    def __post_init__(self):
        if self.m != self.n * self.n:
            raise DomainError(f"M must equal n^2, got M={self.m} for n={self.n}")
        if abs(self.gap_bits - (self.capacity_bits - self.mi_bits)) > 1e-9:
            raise DomainError("gap_bits must equal capacity_bits - mi_bits")


def evaluate_row(
    c: Constellation,
    snr_db: float,
    method: str = "quadrature",
    order: int = DEFAULT_ORDER,
    samples: int = 10**6,
    seed: int = 0,
) -> SweepRow:
    """Evaluate one constellation at one SNR and package the result."""
    snr = SnrSpec.from_db(snr_db)
    if method == "quadrature":
        est = mi_quadrature(c, snr, order)
    elif method == "monte_carlo":
        est = mi_monte_carlo(c, snr, samples, seed)
    else:
        raise DomainError(f"method must be 'quadrature' or 'monte_carlo', got {method!r}")
    gap_bits, gap_db = gap_metrics(est.value, snr)
    try:
        ratio = papr(c)
    except DomainError:  # a zero-power set: nan in the CSV
        ratio = math.nan
    return SweepRow(
        family=c.family,
        n=c.n,
        m=c.M,
        snr_db=float(snr_db),
        mi_bits=est.value,
        capacity_bits=gaussian_capacity(snr),
        gap_bits=gap_bits,
        gap_db=gap_db,
        avg_power=average_power(c),
        papr=ratio,
        method=est.method,
    )


def sweep_rows(
    constellations: Sequence[Constellation],
    snr_dbs: Sequence[float],
    method: str = "quadrature",
    order: int = DEFAULT_ORDER,
    samples: int = 10**6,
    seed: int = 0,
) -> List[SweepRow]:
    """Evaluate a grid and return rows sorted by (family, snr_db, n)."""
    rows = [
        evaluate_row(c, snr_db, method, order, samples, seed)
        for c in constellations
        for snr_db in snr_dbs
    ]
    rows.sort(key=lambda r: (r.family, r.snr_db, r.n))
    return rows


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(value, ".9g")


def render_table(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: the header line, then one line per row; numbers at 9 significant digits."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_csv(rows: Iterable[SweepRow]) -> str:
    """CSV text with the fixed column list, one line per row."""
    return render_table(CSV_COLUMNS, map(attrgetter(*(f.name for f in fields(SweepRow))), rows))
