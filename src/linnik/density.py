"""Upper bounds on N(lambda), the number of characters with a zero in the
rescaled box, via the quadratic counting inequality.

The inequality compares the weighted zero sum of N characters against its
Cauchy-Schwarz majorant and yields a downward parabola h(N) >= 0, so
N <= floor(larger root); a prior bound N(lambda0) >= N0 sharpens it.  The
kernel parameter comes from a fitted formula in (lambda, lambda11, N0) and
is clamped to the kernel's validity floor 0.5.

The published tables 12 and 13 are regenerated once per process
(``regenerated_tables``): the CLI writes them from those records and the
final verification looks its cells up in the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Optional

from . import _data
from .kernel import WeightKernel, classic_density_bound

__all__ = ["DensityQuery", "DensityBound", "density_gamma", "quadratic_N_bound",
           "gen_density_tables", "DensityTables",
           "classic_density_bound"]

#: slack added before flooring the root, absorbing representation error at
#: integer boundaries
ROOT_SLACK = 1e-12

#: the epsilon of the counting inequality; h(N) has the constant term EPSILON - beta^2
EPSILON = 1e-7


@dataclass(frozen=True)
class DensityQuery:
    """Inputs of one counting-bound evaluation."""

    lam: float
    lambda11: float
    lambda0: float = 0.0
    n0: int = 0

    def __post_init__(self):
        if not (0.0 < self.lam < 2.0):
            raise ValueError("lam must lie in (0, 2)")
        if self.lambda11 <= 0:
            raise ValueError("lambda11 must be positive")
        if self.lambda11 >= self.lam:
            raise ValueError("need lambda11 < lam for a nontrivial bound")
        if not (0.0 <= self.lambda0 <= self.lam):
            raise ValueError("need 0 <= lambda0 <= lam")
        if not (0 <= self.n0 <= 10000):
            raise ValueError("n0 must be a count <= 10000")


@dataclass(frozen=True)
class DensityBound:
    """The parabola h(N) = a N^2 + b N + c with its roots and integer bound.

    bound is None when the bound is vacuous: applicability or concavity guard
    failed, or no real roots.
    """

    a: float
    b: float
    c: float
    gamma: float
    guards_ok: bool
    roots: Optional[tuple]
    bound: Optional[int]

    def h(self, n: float) -> float:
        return (self.a * n + self.b) * n + self.c


def density_gamma(query: DensityQuery) -> float:
    """Fitted kernel parameter, clamped to the 0.5 validity floor."""
    g = (0.975 + 0.525 * query.lam - 0.550 * query.lambda11
         - 0.014 * query.n0 * (query.lam - query.lambda0))
    return max(g, 0.5)


def quadratic_N_bound(query: DensityQuery) -> DensityBound:
    """Integer bound on N(lam) from the downward parabola.

    Guards: F(lam - lambda11) > f(0)/6 (applicability) and
    (F(lam - lambda11) - f(0)/6)^2 > F(-lambda11) f(0)/6 (concavity).
    Raises FloatingPointError when a coefficient of the parabola is not
    finite and OverflowError when an F argument's exponential overflows.
    """
    gamma = density_gamma(query)
    kern = WeightKernel(gamma)
    p = kern.F_real(query.lam - query.lambda11)
    g = kern.F_real(-query.lambda11)
    beta = query.n0 * (kern.F_real(query.lambda0 - query.lambda11) - p) if query.n0 else 0.0
    c6 = kern.f0 / 6.0
    alpha = p - c6
    a = g * c6 - alpha * alpha
    b = g * (g - c6) - 2.0 * alpha * beta
    c = EPSILON - beta * beta
    # a NaN fails both guards below and would read as a vacuous bound
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise FloatingPointError(f"non-finite parabola {(a, b, c)!r}")
    guards_ok = (p > c6) and (alpha * alpha > g * c6)
    if not guards_ok:
        return DensityBound(a, b, c, gamma, False, None, None)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return DensityBound(a, b, c, gamma, True, None, None)
    # sign-aware stable quadratic roots
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
    r1, r2 = q / a, (c / q if q != 0.0 else 0.0)
    lo, hi = sorted((r1, r2))
    return DensityBound(a, b, c, gamma, True, (lo, hi), int(math.floor(hi + ROOT_SLACK)))


# --------------------------------------------------------------------------
# Table regeneration
# --------------------------------------------------------------------------

def gen_density_tables():
    """Recompute every published counting-table cell and compare.

    Numeric cells must match integer-exactly.  Dash cells carry no claim; for
    them we record the computed value (the published tables omit entries whose
    quadratic bound is weaker than the classic one).  Returns the full list of
    cell records; mismatches are flagged, not raised.  A fault in a cell's
    query or bound, a missing column or a non-finite parabola, is named
    after the table and the cell by ``_data.named``, and one in reading the
    shipped table, a non-numeric cell, after the table.
    """
    records = []
    for table in (12, 13):
        try:
            rows = _data.published_table(table)
        except _data.FAULTS as exc:
            raise _data.named(f"table {table}", exc)
        for raw in rows:
            try:
                query = DensityQuery(lam=raw["lam"], lambda11=raw["lambda1"],
                                     lambda0=raw["lambda0"] or 0.0, n0=int(raw["n0"] or 0))
                published = raw["bound"]
                claim = None if published == "-" else int(published)
                result = quadratic_N_bound(query)
            except _data.FAULTS as exc:
                raise _data.named(f"table {table} cell lambda11={raw.get('lambda1')} "
                                  f"lam={raw.get('lam')}", exc)
            rec = {
                "table": table, "lambda1": query.lambda11, "lambda0": query.lambda0 or None,
                "n0": query.n0 or None, "lam": query.lam,
                "published": published, "computed": result.bound,
                "gamma": result.gamma,
                "parabola": (result.a, result.b, result.c),
                "roots": result.roots,
            }
            if claim is None:
                rec["match"] = None  # unprinted cell: no integer claim to check
                rec["weaker_than_classic"] = (
                    result.bound is None
                    or result.bound >= classic_density_bound(query.lam))
            else:
                rec["match"] = (result.bound == claim)
            records.append(rec)
    return records


class DensityTables:
    """Regenerated counting-table cells, keyed for the final verification.

    ``records`` holds the cell records of one gen_density_tables() run as
    read-only mappings.  Lookup raises KeyError naming the column and the
    missing lambda value, so a broken schedule is loud, never silently
    padded, and RuntimeError for a printed cell whose bound vanished.
    ``schedules`` keeps each final case's counting schedule that
    ``final.n0_schedule`` read from these cells and checked, so it is
    dropped with them; a schedule that fails its checks is never kept.
    """

    def __init__(self):
        self.records = tuple(MappingProxyType(rec) for rec in gen_density_tables())
        self._cells = {(rec["table"], rec["lambda1"], rec["n0"] or 0, round(rec["lam"], 3)):
                       rec["computed"] for rec in self.records if rec["published"] != "-"}
        self.schedules = {}

    def lookup(self, table: int, column: float, lam: float, n0: int = 0) -> int:
        key = (table, column, n0, round(lam, 3))
        try:
            bound = self._cells[key]
        except KeyError:
            raise KeyError(
                f"counting table {table}, column lambda1 >= {column}, "
                f"assumption n0={n0}: no cell at lambda = {lam}") from None
        if bound is None:
            raise RuntimeError(f"table {table} column {column} cell {lam}: bound vanished")
        return bound


@lru_cache(maxsize=1)
def regenerated_tables() -> DensityTables:
    """The counting tables, regenerated once per process and shared by
    ``linnik table 12``/``13`` and the final verification."""
    return DensityTables()
