"""The final positivity verification: W < 1 across every case row.

Each case row fixes a first-zero window, lower bounds for the other relevant
zeros, a split point Lambda, and (usually) a counting-table column with a
branch hypothesis.  W collects every contribution to the weighted zero sum
relative to the main term; W < 1 for all rows is exactly the positivity that
the headline exponent L reduces to.

What does not depend on the parameters is built and checked once.  Per
object the registry loader returns, ``load_registry`` builds the cases and
lists the distinct ``w`` arguments they read, and refuses a registry whose
``both_real`` windows do not reach down to HB92's ``lambda1_min_both_real``;
each ``FinalCase`` refuses a malformed row and computes its lambda3*, Lambda
grid and ``w`` arguments once.  Per case and counting-table regeneration,
``n0_schedule`` reads the counting column and refuses one that is not
monotone or ends below 4; the case keeps only a column that passes, so a
dropped case takes its schedule with it.  ``verify_all`` and
``compute_W`` do only per-parameter-set arithmetic, kept in the set: once per
set the ``w`` batch and the penalty, once per (set, Lambda) the terms of
``_at_split``, once per (set, grid) the ``_C_column`` of C values, and the
rest of each case's ``W``, every value rounded as when each case computed it.
``load_registry`` and ``verify_all`` name each fault of a case after it by
``_data.named``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Optional, Tuple

from . import _data
from .density import regenerated_tables
from .kernel import LinnikParams, _require_finite, per_set

#: a case is certified only if W stays below 1 by this margin
W_MARGIN = 1e-4

#: reproduction window against the published W values (rounded up to 4-5dp)
PUBLISHED_W_SLACK_HI = 1e-4
PUBLISHED_W_SLACK_LO = 5e-3

#: (n_chi, alpha) per case family
FAMILIES = {
    "both_real": (1, 1),
    "chi_real_rho_complex": (1, 2),
    "chi_complex": (2, 1),
}

DENSITY_GRID = 0.025

#: the shipped parameters, the only ones the published W values hold for
SHIPPED = LinnikParams()


@dataclass(frozen=True)
class DensityRef:
    """A case's counting column and its branch: N(lambda0) in [n_lo, n_hi].
    It refuses a non-finite field, a count that is not a non-negative int, a
    count without lambda0 and n_hi < n_lo."""

    table: int
    column: float
    lambda0: Optional[float] = None
    n_lo: int = 0
    n_hi: Optional[int] = None  # None = unbounded branch

    def __post_init__(self):  # a NaN or +inf lambda0 would cap every point at n_hi
        _require_finite(self)
        for name, count in (("n_lo", self.n_lo), ("n_hi", self.n_hi)):
            if count is not None and (type(count) is not int or count < 0):
                raise ValueError(f"{name} must be a non-negative integer, got {count!r}")
        if self.lambda0 is None and (self.n_lo or self.n_hi is not None):
            raise ValueError("a branch count needs lambda0")
        if self.n_hi is not None and self.n_hi < self.n_lo:
            raise ValueError(f"empty count branch [{self.n_lo}, {self.n_hi}]")

    @staticmethod
    def from_json(obj) -> Optional["DensityRef"]:
        if obj is None:
            return None
        if not isinstance(obj, Mapping):
            raise TypeError(f"density must be a mapping or null, got {obj!r}")
        branch = obj.get("branch") or {}
        return DensityRef(table=obj["table"], column=float(obj["column"]),
                          lambda0=branch.get("lambda0"),
                          n_lo=branch.get("n_lo", 0), n_hi=branch.get("n_hi"))


@dataclass(frozen=True)
class FinalCase:
    """One row of the case registry.  It refuses a number field that is not
    a finite real (a bool included), a null outside ``Optional``, an
    empty lambda1 window, a counting table's Lambda off the density grid and
    a row with no counting table whose lambda3 is below Lambda (its density
    terms vanish only by C(lambda3*) = C(Lambda) = 0); ``from_json`` refuses
    a density that is not a mapping or null."""

    id: str
    family: str
    lambda1_lo: float
    lambda1_hi: Optional[float]  # None = unbounded window
    lambda_prime_lo: Optional[float]
    lambda2_lo: float
    lambda3_lo: float
    Lambda: float
    density: Optional[DensityRef]
    published_W: float
    note: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown case family {self.family}")
        _require_finite(self)
        if self.density is not None:
            steps = self.Lambda / DENSITY_GRID
            if abs(steps - round(steps)) > 1e-9:
                raise ValueError(f"Lambda={self.Lambda} is off the density grid")
        if self.lambda1_hi is not None and not self.lambda1_lo < self.lambda1_hi:
            raise ValueError(f"empty lambda1 window [{self.lambda1_lo!r}, "
                             f"{self.lambda1_hi!r}]")
        if self.density is None and self.lambda3_lo < self.Lambda:
            raise ValueError("density-free row needs lambda3 >= Lambda")

    @cached_property
    def l3_star(self) -> float:
        """min(lambda3, Lambda), the third-zero bound the schedule stops at."""
        return min(self.lambda3_lo, self.Lambda)

    @cached_property
    def grid(self) -> Tuple[float, ...]:
        """(Lambda_0 .. Lambda_s) with Lambda_r = Lambda - DENSITY_GRID r and
        s = floor((Lambda - lambda3*) / DENSITY_GRID); when the third-zero
        bound reaches Lambda the schedule collapses to the single point Lambda
        and every density term carries the factor C(Lambda) = 0."""
        s = int(math.floor((self.Lambda - self.l3_star) / DENSITY_GRID + 1e-9))
        return tuple(self.Lambda - DENSITY_GRID * r for r in range(s + 1))

    @cached_property
    def w_arguments(self) -> Tuple[Optional[float], ...]:
        """Every argument at which ``compute_W`` reads ``w`` for this case: the
        grid (Lambda first), lambda1_hi, lambda', lambda2 and lambda3*; a None
        is +infinity, where w is 0 without an integral."""
        return (*self.grid, self.lambda1_hi, self.lambda_prime_lo, self.lambda2_lo,
                self.l3_star)

    @property
    def n_chi(self) -> int:
        return FAMILIES[self.family][0]

    @property
    def alpha(self) -> int:
        return FAMILIES[self.family][1]

    @staticmethod
    def from_json(obj) -> "FinalCase":
        return FinalCase(
            id=obj["id"], family=obj["family"],
            lambda1_lo=obj["lambda1_lo"], lambda1_hi=obj["lambda1_hi"],
            lambda_prime_lo=obj["lambda_prime_lo"], lambda2_lo=obj["lambda2_lo"],
            lambda3_lo=obj["lambda3_lo"], Lambda=obj["Lambda"],
            density=DensityRef.from_json(obj.get("density")),
            published_W=obj["published_W"], note=obj.get("note", ""))


@dataclass
class CaseResult:
    case: FinalCase
    W: float
    certified: bool
    margin: float
    terms: dict
    schedule: List[Tuple[float, int]]
    reproduces: Optional[bool] = None


#: the last registry built: (the loader's object, its cases, the distinct
#: finite arguments at which they read ``w``, in the order they read them)
_registry = (None, (), ())


def load_registry() -> Tuple[FinalCase, ...]:
    """The case rows, built once per object ``_data.final_cases()`` returns;
    a row with a missing field or a value its case refuses raises
    RuntimeError named after the case by ``_data.named``, and a registry that
    does not parse, has no cases, or whose ``both_real`` windows do not start
    at or below HB92's ``lambda1_min_both_real`` raises RuntimeError."""
    global _registry
    try:
        source = _data.final_cases()
        if source is _registry[0]:
            return _registry[1]
        objs = source["cases"]
    except _data.FAULTS as exc:
        raise _data.named("the case registry", exc)
    cases = []
    for obj in objs:
        try:
            cases.append(FinalCase.from_json(obj))
        except _data.FAULTS as exc:
            raise _data.named(f"case {obj.get('id')}", exc)
    if not cases:
        raise RuntimeError("the case registry has no cases")
    try:
        start = _data.hb92()["lambda1_min_both_real"]
        if not any(c.lambda1_lo <= start for c in cases if c.family == "both_real"):
            raise RuntimeError(f"no both_real window starts at or below "
                               f"lambda1_min_both_real = {start}")
    except _data.FAULTS as exc:
        raise _data.named("the case registry", exc)
    cases = tuple(cases)
    _registry = (source, cases, tuple(dict.fromkeys(
        s for case in cases for s in case.w_arguments if s is not None)))
    return cases


def n0_schedule(case: FinalCase) -> Tuple[int, ...]:
    """Counting bounds N0(Lambda_r) along the case's grid, read once per case
    and counting-table regeneration: the case keeps the checked tuple in its
    ``__dict__``, as ``cached_property`` does, with the tables it read, and
    reads the cells again once ``regenerated_tables()`` returns other tables.
    A column that is not monotone or ends below the floor of 4 raises
    RuntimeError; neither it nor a failed lookup is kept, so each call raises
    again.

    Branch semantics: above lambda0 the column regenerated under the branch's
    lower hypothesis applies; at or below lambda0 the unconditional column is
    capped by the branch's upper hypothesis.
    """
    if case.density is None:
        raise ValueError(f"case {case.id} uses no counting table")
    tables = regenerated_tables()
    kept = case.__dict__.get("_n0_schedule")
    if kept is not None and kept[0] is tables:
        return kept[1]
    ref = case.density
    out = []
    for lam in case.grid:
        if ref.lambda0 is not None and lam > ref.lambda0 + 1e-9:
            # above the branch point: the column regenerated under the
            # branch's lower hypothesis (the unconditional one for n_lo = 0)
            out.append(tables.lookup(ref.table, ref.column, lam, n0=ref.n_lo))
        else:
            base = tables.lookup(ref.table, ref.column, lam)
            out.append(base if ref.n_hi is None else min(base, ref.n_hi))
    if any(a < b for a, b in zip(out, out[1:])):
        raise RuntimeError("counting schedule not monotone")
    if out[-1] < 4:
        raise RuntimeError("schedule end below the floor of 4")
    out = tuple(out)
    case.__dict__["_n0_schedule"] = (tables, out)
    return out


def _finite(name: str, value: float) -> float:
    """value, or FloatingPointError if it is a NaN or an inf (which max() and
    comparisons would otherwise drop or pass)."""
    if not math.isfinite(value):
        raise FloatingPointError(f"{name} is not finite ({value!r})")
    return value


@per_set
def _at_split(params: LinnikParams, Lambda: float) -> Tuple[float, float]:
    """(base, ratio_L) at split point Lambda, once per (parameter set, Lambda):
    W's base term penalty / (c1 c2^2) e^{-(L-2K) Lambda} B(Lambda) / w(Lambda)
    and c_star's e^{-(L-2K) Lambda} B(Lambda), each rounded as written."""
    scale = params.penalty_integral() / (params.c1 * params.c2 ** 2)
    damp, b = math.exp(-params.decay * Lambda), params.B(Lambda)
    return scale * damp * b / params.w(Lambda), damp * b


@per_set
def _C_column(params: LinnikParams, grid: Tuple[float, ...]) -> Tuple[float, ...]:
    """C(Lambda_0, Lambda_r), r = 1 .. s, along a case's grid, once per
    (parameter set, grid): the cases that share a grid share its column."""
    return tuple(params.C(grid[0], lam) for lam in grid[1:])


def c_star(case: FinalCase, params: LinnikParams) -> float:
    """Max of the three first-zero contribution candidates.

    The unbounded-window sentinel lambda1_hi=None zeroes the w-ratio term; a
    missing second-zero bound (None) zeroes its exponential and C term.
    Raises FloatingPointError if a candidate is not finite.
    """
    lp = case.lambda_prime_lo
    l11, l12 = case.lambda1_lo, case.lambda1_hi
    K2 = params.K * params.K
    exp_lp = 0.0 if lp is None else math.exp(-params.decay * lp)
    c_lp = params.C(case.Lambda, lp)
    ratio_L = _at_split(params, case.Lambda)[1]
    w_ratio = params.w(l12) / params.w(case.Lambda)
    h2 = case.alpha * params.H2(l11) / K2
    lead = _finite("B(lambda1) - H2 term", params.B(l11) - h2)
    moved = (exp_lp * max(0.0, lead)
             - ratio_L * w_ratio
             + h2 * math.exp(-params.decay * l11))
    return max(0.0, _finite("C(lambda')", c_lp), _finite("moved term", moved))


def compute_W(case: FinalCase, params: LinnikParams) -> CaseResult:
    """W for one case row, with its full term breakdown; a failed check raises
    without naming the case, which ``verify_all`` names."""
    base = _at_split(params, case.Lambda)[0]
    c_l2 = _finite("C(lambda2)", params.C(case.Lambda, case.lambda2_lo))
    second = max(2.0 * c_l2, 0.0)
    c_l3 = _finite("C(lambda3*)", params.C(case.Lambda, case.l3_star))

    if case.density is not None:
        n0 = n0_schedule(case)
        floor_term = (n0[-1] - 4) * c_l3
        # sum((a - b) * C(Lambda, lam)) in grid order; an empty sum is int 0
        tele = sum(map(operator.mul, map(operator.sub, n0, n0[1:]),
                       _C_column(params, case.grid)))
        schedule = list(zip(case.grid, n0))
    else:
        # no counting table: C(lambda3*) = C(Lambda) = 0 makes both terms vanish
        floor_term, tele, schedule = 0.0, 0.0, []

    third = (2 - case.n_chi) * c_l3
    cstar_term = case.n_chi * c_star(case, params)
    terms = {
        "epsilon": params.epsilon,
        "base": base,
        "second_zero": second,
        "density_floor": floor_term,
        "density_sum": tele,
        "third_zero": third,
        "c_star": cstar_term,
    }
    for name, value in terms.items():
        if not -1e-12 <= value < math.inf:  # a NaN fails too
            _finite(f"term {name}", value)
            raise RuntimeError(f"term {name} negative ({value})")
    W = _finite("W", sum(terms.values()))
    return CaseResult(case=case, W=W, certified=W < 1.0 - W_MARGIN,
                      margin=1.0 - W, terms=terms, schedule=schedule)


@dataclass
class Report:
    params: LinnikParams
    results: List[CaseResult]

    @property
    def all_certified(self) -> bool:
        return all(r.certified for r in self.results)

    @property
    def all_reproduced(self) -> bool:
        return all(r.reproduces for r in self.results if r.reproduces is not None)

    @property
    def passed(self) -> bool:
        return self.all_certified and self.all_reproduced


def verify_all(params: Optional[LinnikParams] = None) -> Report:
    """Certify every case row, and compare it against the published W when
    ``params`` are the shipped parameters, the only ones it was published for.
    A fault of a counting-table cell keeps the cell's name; any other fault
    met in a case is named after it, a QuadratureError keeping its fields.
    Every per-set value is computed on a copy of the set, so none outlives
    the call; the report holds the caller's set.
    """
    caller = params or SHIPPED
    shipped = caller == SHIPPED
    params = replace(caller)
    cases = load_registry()
    # every case's w integrals in one batch, from the registry's list (an
    # argument missing there is integrated when first read, to the same
    # bits); a failing one is not stored, so its reader raises its fault below
    params.prime_w(_registry[2])
    results = []
    for case in cases:
        try:
            res = compute_W(case, params)
            if shipped:
                res.reproduces = (res.W <= case.published_W + PUBLISHED_W_SLACK_HI
                                  and res.W >= case.published_W - PUBLISHED_W_SLACK_LO)
        except _data.FAULTS as exc:
            raise _data.named(f"case {case.id}", exc)
        results.append(res)
    return Report(params=caller, results=results)
