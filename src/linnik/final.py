"""The final positivity verification: W < 1 across every case row.

Each case row fixes a first-zero window, lower bounds for the other relevant
zeros, a split point Lambda, and (usually) a counting-table column with a
branch hypothesis.  W collects every contribution to the weighted zero sum
relative to the main term; W < 1 for all rows is exactly the positivity that
the headline exponent L reduces to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import _data
from .density import regenerated_tables
from .kernel import LinnikParams

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


@dataclass(frozen=True)
class DensityRef:
    table: int
    column: float
    lambda0: Optional[float] = None
    n_lo: int = 0
    n_hi: Optional[int] = None  # None = unbounded branch

    @staticmethod
    def from_json(obj) -> Optional["DensityRef"]:
        if obj is None:
            return None
        branch = obj.get("branch") or {}
        return DensityRef(table=obj["table"], column=float(obj["column"]),
                          lambda0=branch.get("lambda0"),
                          n_lo=branch.get("n_lo", 0), n_hi=branch.get("n_hi"))


@dataclass(frozen=True)
class FinalCase:
    """One row of the case registry."""

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
        if self.density is not None:
            steps = self.Lambda / DENSITY_GRID
            if abs(steps - round(steps)) > 1e-9:
                raise ValueError(
                    f"case {self.id}: Lambda={self.Lambda} is off the density grid")

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


def load_registry() -> List[FinalCase]:
    return [FinalCase.from_json(obj) for obj in _data.final_cases()["cases"]]


def lambda_schedule(case: FinalCase):
    """(lambda3*, s, [Lambda_0 .. Lambda_s]) with Lambda_r = Lambda - 0.025 r.

    s = floor(40 (Lambda - lambda3*)); when the third-zero bound reaches
    Lambda the schedule collapses to the single point Lambda and every
    density term carries the factor C(Lambda) = 0.
    """
    l3_star = min(case.lambda3_lo, case.Lambda)
    s = int(math.floor(40.0 * (case.Lambda - l3_star) + 1e-9))
    grid = [case.Lambda - DENSITY_GRID * r for r in range(s + 1)]
    return l3_star, s, grid


def n0_schedule(case: FinalCase) -> List[int]:
    """Counting bounds N0(Lambda_r) along the schedule.

    Branch semantics: above lambda0 the column regenerated under the branch's
    lower hypothesis applies; at or below lambda0 the unconditional column is
    capped by the branch's upper hypothesis.
    """
    if case.density is None:
        raise ValueError(f"case {case.id} uses no counting table")
    tables = regenerated_tables()
    ref = case.density
    _, _, grid = lambda_schedule(case)
    out = []
    for lam in grid:
        if ref.lambda0 is not None and lam > ref.lambda0 + 1e-9:
            # above the branch point: the column regenerated under the
            # branch's lower hypothesis (or the unconditional one for a
            # bounded-above branch)
            out.append(tables.lookup(ref.table, ref.column, lam,
                                     n0=ref.n_lo if ref.n_lo > 0 else 0))
        else:
            base = tables.lookup(ref.table, ref.column, lam)
            if ref.lambda0 is not None and ref.n_hi is not None:
                base = min(base, ref.n_hi)
            out.append(base)
    return out


def _finite(case: FinalCase, name: str, value: float) -> float:
    """value, or FloatingPointError if it is a NaN or an inf (which max() and
    comparisons would otherwise drop or pass)."""
    if not math.isfinite(value):
        raise FloatingPointError(f"case {case.id}: {name} is not finite ({value!r})")
    return value


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
    ratio_L = math.exp(-params.decay * case.Lambda) * params.B(case.Lambda)
    w_ratio = params.w(l12) / params.w(case.Lambda)
    h2 = case.alpha * complex(params.H2(l11)).real / K2
    lead = _finite(case, "B(lambda1) - H2 term", params.B(l11) - h2)
    moved = (exp_lp * max(0.0, lead)
             - ratio_L * w_ratio
             + h2 * math.exp(-params.decay * l11))
    return max(0.0, _finite(case, "C(lambda')", c_lp), _finite(case, "moved term", moved))


def compute_W(case: FinalCase, params: LinnikParams) -> CaseResult:
    """W for one case row, with its full term breakdown."""
    l3_star, s, grid = lambda_schedule(case)
    base = (params.penalty_integral() / (params.c1 * params.c2 ** 2)
            * math.exp(-params.decay * case.Lambda) * params.B(case.Lambda)
            / params.w(case.Lambda))
    c_l2 = _finite(case, "C(lambda2)", params.C(case.Lambda, case.lambda2_lo))
    second = max(2.0 * c_l2, 0.0)
    c_l3 = _finite(case, "C(lambda3*)", params.C(case.Lambda, l3_star))

    if case.density is not None:
        n0 = n0_schedule(case)
        floor_term = (n0[-1] - 4) * c_l3
        tele = sum((n0[r] - n0[r + 1]) * params.C(case.Lambda, grid[r + 1])
                   for r in range(s))
        schedule = list(zip(grid, n0))
        if any(a < b for a, b in zip(n0, n0[1:])):
            raise RuntimeError(f"case {case.id}: counting schedule not monotone")
        if n0[-1] < 4:
            raise RuntimeError(f"case {case.id}: schedule end below the floor of 4")
    else:
        # no counting table: C(lambda3*) = C(Lambda) = 0 makes both terms vanish
        if abs(c_l3) > 1e-9:
            raise RuntimeError(
                f"case {case.id}: density-free row needs lambda3 >= Lambda")
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
        if _finite(case, f"term {name}", value) < -1e-12:
            raise RuntimeError(f"case {case.id}: term {name} negative ({value})")
    W = _finite(case, "W", sum(terms.values()))
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
    """
    params = params or LinnikParams()
    shipped = params == LinnikParams()
    results = []
    for case in load_registry():
        res = compute_W(case, params)
        if shipped:
            res.reproduces = (res.W <= case.published_W + PUBLISHED_W_SLACK_HI
                              and res.W >= case.published_W - PUBLISHED_W_SLACK_LO)
        results.append(res)
    return Report(params=params, results=results)
