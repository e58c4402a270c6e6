"""Certification of the zero-free-region tables.

Each table row claims a lower bound on a rescaled zero location (lambda',
lambda_2, lambda_3 or lambda_1) under a hypothesis lambda_1 <= cap.  A row is
certified by evaluating the right-hand side of the corresponding
trigonometric-weight inequality at the claimed bound, with every supremum
replaced by a certified upper bound from :mod:`linnik.supbound`, and checking
strict negativity.  Certification threshold is RHS < -1e-6 so that
double-precision noise cannot flip a row.

The inequalities fall into four families:

* second zero of the leading character (high order / low order),
* second character's zero via an eight-case penalty term D and
  delta-stepping in the claimed bound,
* third character's zero (complex and real-real variants, each protected by
  a guard supremum),
* first zero via a degree-four trigonometric polynomial with fixed integer
  coefficients 14379 / 24480 / 14900 / 6000 / 1250.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import _data
from .kernel import WeightKernel
from .supbound import GridSpec, SupProblem, sup_bound

#: a row is certified only if its decision RHS is below -CERT_MARGIN
CERT_MARGIN = 1e-6

#: reproduction tolerance against published sup-bound caps (rounded up to 4dp)
PUBLISHED_C_SLACK = 1e-4

#: the delta-stepping split needs 2k - (k^2 + 1/2) >= 0
STEP_K_RANGE = (0.3, 1.7)


class Inequality(Enum):
    LPRIME_HIGH_ORDER = "lprime_high_order"
    LPRIME_LOW_ORDER = "lprime_low_order"
    L2_CASE1 = "l2_case1"
    L2_CASE2 = "l2_case2"
    L2_CASE3 = "l2_case3"
    L2_CASE4 = "l2_case4"
    L2_CASE5 = "l2_case5"
    L2_CASE6 = "l2_case6"
    L2_CASE7 = "l2_case7"
    L2_CASE8 = "l2_case8"
    L3_COMPLEX = "l3_complex"
    L3_REAL = "l3_real"
    L1_POLY = "l1_poly"
    WARMUP = "warmup"


@dataclass(frozen=True)
class InequalityConfig:
    """Kernel, multiplier k, character constant phi, and attached certificates."""

    kernel: WeightKernel
    k: float
    phi: float
    kind: Inequality
    certificates: tuple = ()


@dataclass
class TableRow:
    """One certified table row with its decision margin and audit data."""

    table: int
    label: str
    lambda1_lo: float
    lambda1_hi: Optional[float]
    lambda_star: Optional[float]
    claimed_bound: float
    published_C: tuple = ()
    computed_C: tuple = ()
    certified: bool = False
    margin: float = math.nan
    detail: dict = field(default_factory=dict)

    @property
    def c_reproduced(self) -> bool:
        """Every computed sup bound within the published cap plus slack."""
        return all(c <= p + PUBLISHED_C_SLACK
                   for c, p in zip(self.computed_C, self.published_C))


# --------------------------------------------------------------------------
# Right-hand sides
# --------------------------------------------------------------------------

def warmup_l1(kernel: WeightKernel, lam: float) -> float:
    """3 F(-lam) - 4 F(0) + (5/6) f(0): negative iff lam is an admissible
    first-zero bound for the cubic starting inequality."""
    return 3.0 * kernel.F_real(-lam) - 4.0 * kernel.F0 + (5.0 / 6.0) * kernel.f0


def rhs_lprime_high(kernel: WeightKernel, k: float, lambda_star: float,
                    lambda1: float, lambda_prime: Optional[float], supC: float) -> float:
    """Second-zero inequality, character order >= 5.

    (k^2+1/2)(F(-l*) - F(l'-l*)) - 2k F(l1-l*) + f(0)/6 (k^2+3k+3/2) + supC.
    Increasing in lambda1 and lambda_prime; lambda_prime=None is the
    +infinity sentinel (its F term vanishes).
    """
    f_lp = 0.0 if lambda_prime is None else kernel.F_real(lambda_prime - lambda_star)
    return ((k * k + 0.5) * (kernel.F_real(-lambda_star) - f_lp)
            - 2.0 * k * kernel.F_real(lambda1 - lambda_star)
            + kernel.f0 / 6.0 * (k * k + 3.0 * k + 1.5)
            + supC)


def rhs_lprime_low(kernel: WeightKernel, k: float, lambda1: float,
                   lambda_prime: Optional[float], supC1: float, supC2: float) -> float:
    """Second-zero inequality, character order 2..4.

    supC1 bounds sup_t Re{k F(-l1+it) - (k^2+3/4) F(it)} and enters doubled;
    supC2 bounds sup_t Re{F(-l1+it)/2 - 2k F(it)}.
    """
    f_lp = 0.0 if lambda_prime is None else kernel.F_real(lambda_prime - lambda1)
    return ((k * k + 0.5) * (kernel.F_real(-lambda1) - f_lp)
            - 2.0 * k * kernel.F0
            + kernel.f0 / 8.0 * (k * k + 3.0 * k + 1.5)
            + 2.0 * supC1 + supC2)


_L2_CASES = {
    1: (0.0, 0.0, 1.0 / 6.0, 1.5),
    2: (1.0, 0.0, 1.0 / 6.0, 1.25),
    3: (2.0, 0.0, 1.0 / 8.0, 1.0),
    4: (1.0, 1.0, 1.0 / 8.0, 1.25),
    5: (0.0, 1.0, 1.0 / 6.0, 1.5),
    6: (0.0, 2.0, 1.0 / 8.0, 1.5),
}


def lambda2_D(case: int, k: float, f0: float, supA: float, supB: float) -> float:
    """The eight-case additive penalty of the second-character inequality."""
    if case in _L2_CASES:
        ca, cb, frac, tail = _L2_CASES[case]
        return ca * supA + cb * supB + f0 * frac * (k * k + 4.0 * k + tail)
    if case == 7:
        return 2.0 * supA + f0 / 6.0 * (k * k + 3.5 * k + 1.0)
    if case == 8:
        return 2.0 * supB + f0 / 6.0 * (k * k + 3.5 * k + 11.0 / 8.0)
    raise ValueError(f"unknown case {case}; the case split has exactly eight branches")


def rhs_lambda2_case(kernel: WeightKernel, k: float, case: int, lambda_star: float,
                     lambda1: float, lambda_j: float, supA: float, supB: float) -> float:
    """(k^2+1/2)(F(-l*) - F(lj-l*)) - 2k F(l1-l*) + D(case)."""
    return ((k * k + 0.5) * (kernel.F_real(-lambda_star) - kernel.F_real(lambda_j - lambda_star))
            - 2.0 * k * kernel.F_real(lambda1 - lambda_star)
            + lambda2_D(case, k, kernel.f0, supA, supB))


def delta_step_max(kernel: WeightKernel, k: float, lambda1_hi: float,
                   start: float, target: float, delta: float, D: float):
    """Worst step RHS of the split second-character inequality.

    Steps j = 0 .. floor((target-start)/delta) cover the claimed bound; the
    step over [a, b] = [start + j delta, start + (j+1) delta] is evaluated as
    (k^2+1/2)(F(-b) - F(l1-b) - F(0)) - (2k - (k^2+1/2)) F(l1-a) + D, which
    dominates the inequality throughout the step interval.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not (STEP_K_RANGE[0] <= k <= STEP_K_RANGE[1]):
        raise ValueError(f"stepping requires k in {STEP_K_RANGE}, got {k}")
    n = int(math.ceil((target - start) / delta - 1e-9))
    j = np.arange(n)
    a = start + j * delta
    b = start + (j + 1) * delta
    b[-1] = max(b[-1], target)  # exact coverage of [start, target]
    rhs = ((k * k + 0.5) * (kernel.F_real(-b) - kernel.F_real(lambda1_hi - b) - kernel.F0)
           - (2.0 * k - (k * k + 0.5)) * kernel.F_real(lambda1_hi - a)
           + D)
    worst = int(np.argmax(rhs))
    return float(rhs[worst]), worst, n


def delta_step_certify(kernel: WeightKernel, k: float, lambda1_box, start: float,
                       target: float, delta: float, D: float, *, table: int = 0,
                       label: str = "", lambda_star=None, claimed=None) -> TableRow:
    """Certify a stepped second-character bound; the row records the worst step."""
    lo, hi = lambda1_box
    worst, worst_j, n = delta_step_max(kernel, k, hi, start, target, delta, D)
    row = TableRow(table=table, label=label or f"{hi}", lambda1_lo=lo, lambda1_hi=hi,
                   lambda_star=lambda_star, claimed_bound=claimed if claimed is not None else target,
                   certified=worst < -CERT_MARGIN, margin=-worst,
                   detail={"worst_step": worst_j, "steps": n, "worst_rhs": worst, "D": D})
    return row


def rhs_lambda3_complex(kernel: WeightKernel, lambda1_lo: float, lambda1_hi: float,
                        lambda2_hi: float, lambda3_hi: float) -> float:
    """Endpoint form of the third-zero inequality for a complex leading character.

    F(-l12) - F(l32-l12) - F(l22-l11) - F(0) + 7/6 f(0); valid while the guard
    supremum stays below f(0)/6.
    """
    return (kernel.F_real(-lambda1_hi)
            - kernel.F_real(lambda3_hi - lambda1_hi)
            - kernel.F_real(lambda2_hi - lambda1_lo)
            - kernel.F0
            + 7.0 / 6.0 * kernel.f0)


def rhs_lambda3_real(kernel: WeightKernel, lambda2_lo: float, lambda2_hi: float,
                     lambda1_hi: float, lambda3_hi: float) -> float:
    """Endpoint form of the third-zero inequality when the leading character and
    zero are both real; guarded by a supremum below (5/48) f(0)."""
    return (kernel.F_real(-lambda2_hi)
            - kernel.F_real(lambda3_hi - lambda2_hi)
            - kernel.F0
            - kernel.F_real(lambda1_hi - lambda2_lo)
            + 9.0 / 8.0 * kernel.f0)


def rhs_lambda1(kernel: WeightKernel, lambda_star: float, lambda1: float, D: float) -> float:
    """14379 F(-l*) - 24480 F(l1-l*) + D; increasing in lambda1."""
    return (14379.0 * kernel.F_real(-lambda_star)
            - 24480.0 * kernel.F_real(lambda1 - lambda_star)
            + D)


# --------------------------------------------------------------------------
# Table generators
# --------------------------------------------------------------------------

def _lambda1_lo(caps: Sequence[float], i: int, first_lo: float) -> float:
    return first_lo if i == 0 else caps[i - 1]


def gen_table2():
    """Second-zero bounds, character order >= 5 (25 rows).

    Rows with cap <= 0.68 pin s1 at an imported lambda* and sweep the first
    zero in s2; beyond 0.68 lambda* = lambda1 and the problem moves to the
    (s1, k3) form.
    """
    rows, audit = [], []
    lam_star_map = _data.hb92_map("lambda_star_table2")
    caps = [r["lambda1_hi"] for r in _data.published_table(2)]
    for i, pub in enumerate(_data.published_table(2)):
        cap = pub["lambda1_hi"]
        lo = _lambda1_lo(caps, i, 0.34)
        gamma = 1.13 - cap / 5.0
        k = 0.75 + cap / 7.0
        kern = WeightKernel(gamma)
        if cap <= 0.68:
            lam_star = lam_star_map[cap]
            prob = SupProblem(kern, k1=k, k2=k * k + 0.75, k3=0.0,
                              s11=lam_star, s12=lam_star, s21=lo, s22=cap)
            grid = GridSpec(ds1=0.0, ds2=0.004, dt=0.004, x1=15.0)
        else:
            lam_star = cap
            prob = SupProblem(kern, k1=k, k2=0.0, k3=k * k + 0.75,
                              s11=lo, s12=cap, s21=0.0, s22=0.0)
            grid = GridSpec(ds1=0.004, ds2=0.0, dt=0.004, x1=15.0)
        cert = sup_bound(prob, grid)
        rhs = rhs_lprime_high(kern, k, lam_star, cap, pub["lambda_prime"], cert.bound)
        rows.append(TableRow(table=2, label=f"{cap:g}", lambda1_lo=lo, lambda1_hi=cap,
                             lambda_star=lam_star, claimed_bound=pub["lambda_prime"],
                             published_C=(pub["C"],), computed_C=(cert.bound,),
                             certified=rhs < -CERT_MARGIN, margin=-rhs,
                             detail={"gamma": gamma, "k": k, "rhs": rhs}))
        audit.append(cert.as_record())
    return rows, audit


def gen_table3():
    """Second-zero bounds, character order 2..4 (19 rows, two suprema each)."""
    rows, audit = [], []
    caps = [r["lambda1_hi"] for r in _data.published_table(3)]
    for i, pub in enumerate(_data.published_table(3)):
        cap = pub["lambda1_hi"]
        lo = _lambda1_lo(caps, i, 0.34)
        gamma = 1.21 - 5.0 * cap / 12.0
        k = 0.77 + cap / 10.0
        kern = WeightKernel(gamma)
        grid = GridSpec(ds1=0.004, ds2=0.0, dt=0.004, x1=15.0)
        # the doubling of the first supremum lives in its coefficients
        cert_a = sup_bound(SupProblem(kern, k1=2.0 * k, k2=0.0, k3=2.0 * (k * k + 0.75),
                                      s11=lo, s12=cap, s21=0.0, s22=0.0), grid)
        cert_b = sup_bound(SupProblem(kern, k1=0.5, k2=0.0, k3=2.0 * k,
                                      s11=lo, s12=cap, s21=0.0, s22=0.0), grid)
        rhs = rhs_lprime_low(kern, k, cap, pub["lambda_prime"],
                             cert_a.bound / 2.0, cert_b.bound)
        rows.append(TableRow(table=3, label=f"{cap:g}", lambda1_lo=lo, lambda1_hi=cap,
                             lambda_star=None, claimed_bound=pub["lambda_prime"],
                             published_C=(pub["C1"], pub["C2"]),
                             computed_C=(cert_a.bound, cert_b.bound),
                             certified=rhs < -CERT_MARGIN, margin=-rhs,
                             detail={"gamma": gamma, "k": k, "rhs": rhs}))
        audit.extend([cert_a.as_record(), cert_b.as_record()])
    return rows, audit


def _t4_sup_certs(cap: float, lo: float, alt: float, neu: float):
    """The two supremum certificates attached to a second-character row."""
    gamma = 0.42 + cap
    k = 0.59 + 0.4 * cap
    kern = WeightKernel(gamma)
    grid = GridSpec(ds1=0.015, ds2=0.007, dt=0.015, x1=7.0)
    cert_a = sup_bound(SupProblem(kern, k1=0.25, k2=k, k3=0.0,
                                  s11=alt, s12=neu, s21=lo, s22=cap), grid)
    cert_b = sup_bound(SupProblem(kern, k1=0.0, k2=0.25, k3=0.0,
                                  s11=alt, s12=neu, s21=lo, s22=cap), grid)
    return kern, k, cert_a, cert_b


def gen_table4():
    """Second-character bounds for cases 1,2,3,4,6,8 via delta-stepping.

    Each row steps from the imported old bound to the new one twice (case-1
    and case-2 penalties) and checks that the case-2 penalty dominates those
    of cases 3, 4, 6, 8.
    """
    rows, audit = [], []
    alt_map = _data.hb92_map("lambda2_alt")
    caps = [r["lambda1_hi"] for r in _data.published_table(4)]
    for i, pub in enumerate(_data.published_table(4)):
        cap = pub["lambda1_hi"]
        lo = _lambda1_lo(caps, i, 0.34)
        alt, neu = pub["lambda2_alt"], pub["lambda2_new"]
        assert alt == alt_map[cap]
        kern, k, cert_a, cert_b = _t4_sup_certs(cap, lo, alt, neu)
        f0 = kern.f0
        d_by_case = {c: lambda2_D(c, k, f0, cert_a.bound, cert_b.bound)
                     for c in (1, 2, 3, 4, 6, 8)}
        dominance = all(d_by_case[c] <= d_by_case[2] for c in (3, 4, 6, 8))
        worst = -math.inf
        for case in (1, 2):
            w, wj, n = delta_step_max(kern, k, cap, alt, neu, 1e-4, d_by_case[case])
            worst = max(worst, w)
        rows.append(TableRow(table=4, label=f"{cap:g}", lambda1_lo=lo, lambda1_hi=cap,
                             lambda_star=None, claimed_bound=neu,
                             published_C=(pub["C1"], pub["C2"]),
                             computed_C=(cert_a.bound, cert_b.bound),
                             certified=(worst < -CERT_MARGIN) and dominance, margin=-worst,
                             detail={"gamma": kern.gamma, "k": k, "lambda2_alt": alt,
                                     "D_by_case": d_by_case, "dominance": dominance}))
        audit.extend([cert_a.as_record(), cert_b.as_record()])
    return rows, audit


def gen_table5():
    """Second-character bounds for case 5 (one supremum, own gamma and k)."""
    rows, audit = [], []
    caps = [r["lambda1_hi"] for r in _data.published_table(5)]
    for i, pub in enumerate(_data.published_table(5)):
        cap = pub["lambda1_hi"]
        lo = _lambda1_lo(caps, i, 0.34)
        alt, neu = pub["lambda2_alt"], pub["lambda2_new"]
        gamma, k = 0.76 + cap / 2.0, 0.84
        kern = WeightKernel(gamma)
        grid = GridSpec(ds1=0.010, ds2=0.007, dt=0.010, x1=7.0)
        cert_b = sup_bound(SupProblem(kern, k1=0.0, k2=0.25, k3=0.0,
                                      s11=alt, s12=neu, s21=lo, s22=cap), grid)
        D = lambda2_D(5, k, kern.f0, 0.0, cert_b.bound)
        row = delta_step_certify(kern, k, (lo, cap), alt, neu, 1e-4, D,
                                 table=5, label=f"{cap:g}")
        row.published_C = (pub["C2"],)
        row.computed_C = (cert_b.bound,)
        row.detail.update({"gamma": gamma, "k": k, "lambda2_alt": alt})
        rows.append(row)
        audit.append(cert_b.as_record())
    return rows, audit


def gen_table6():
    """Second-character bounds for case 7 (real leading character, complex zero).

    Rows start at lambda1 >= 0.50; above 0.70 the stepping base is the trivial
    lambda2 >= lambda1 lower end.
    """
    rows, audit = [], []
    alt_map = _data.hb92_map("lambda2_alt")
    for pub in _data.published_table(6):
        cap = pub["lambda1_hi"]
        lo = round(max(0.50, cap - 0.04), 10)
        alt, neu = pub["lambda2_alt"], pub["lambda2_new"]
        assert math.isclose(alt, alt_map[cap] if cap <= 0.70 else lo)
        gamma, k = 0.61 + cap / 2.0, 0.81
        kern = WeightKernel(gamma)
        grid = GridSpec(ds1=0.015, ds2=0.015, dt=0.015, x1=7.0)
        cert_a = sup_bound(SupProblem(kern, k1=0.25, k2=k, k3=0.0,
                                      s11=alt, s12=neu, s21=lo, s22=cap), grid)
        D = lambda2_D(7, k, kern.f0, cert_a.bound, 0.0)
        row = delta_step_certify(kern, k, (lo, cap), alt, neu, 1e-4, D,
                                 table=6, label=f"{cap:g}")
        row.published_C = (pub["C1"],)
        row.computed_C = (cert_a.bound,)
        row.detail.update({"gamma": gamma, "k": k, "lambda2_alt": alt})
        rows.append(row)
        audit.append(cert_a.as_record())
    return rows, audit


def table6_bound_at(cap: float, table6_rows=None) -> float:
    """Case-7 second-character bound valid for lambda1 <= cap (smallest row
    covering the cap)."""
    source = table6_rows or _data.published_table(6)
    best = None
    for r in source:
        hi = r["lambda1_hi"] if isinstance(r, dict) else r.lambda1_hi
        val = r["lambda2_new"] if isinstance(r, dict) else r.claimed_bound
        if hi >= cap and (best is None or hi < best[0]):
            best = (hi, val)
    if best is None:
        raise ValueError(f"no case-7 row covers lambda1 <= {cap}")
    return best[1]


def gen_table7(precomputed=None):
    """All-case second-character bounds: row-wise minimum of tables 4, 5, 6."""
    if precomputed is None:
        rows4, _ = gen_table4()
        rows5, _ = gen_table5()
        rows6, _ = gen_table6()
    else:
        rows4, rows5, rows6 = precomputed
    by_cap4 = {r.lambda1_hi: r for r in rows4}
    by_cap5 = {r.lambda1_hi: r for r in rows5}
    # the real-character/complex-zero case only exists for lambda1 above the
    # imported order-2 first-zero bound, so its column joins the minimum only
    # for caps beyond it
    case7_floor = _data.hb92()["lambda1_old_by_ord"]["values"]["2"]
    rows = []
    for pub in _data.published_table(7):
        cap = pub["lambda1_hi"]
        if pub["lambda2_new"] is None:
            continue  # rows beyond 0.68 only restate the imported bounds
        candidates = [by_cap4[cap].claimed_bound, by_cap5[cap].claimed_bound]
        certified = by_cap4[cap].certified and by_cap5[cap].certified
        if cap > case7_floor:
            candidates.append(table6_bound_at(cap, rows6))
        value = min(candidates)
        rows.append(TableRow(table=7, label=f"{cap:g}", lambda1_lo=by_cap4[cap].lambda1_lo,
                             lambda1_hi=cap, lambda_star=None, claimed_bound=value,
                             certified=certified and value == pub["lambda2_new"],
                             margin=min(by_cap4[cap].margin, by_cap5[cap].margin),
                             detail={"candidates": candidates,
                                     "published": pub["lambda2_new"]}))
    return rows, []


def table7_bound_at(cap: float) -> float:
    """Published all-case second-character bound at a row cap."""
    for r in _data.published_table(7):
        if r["lambda1_hi"] == cap and r["lambda2_new"] is not None:
            return r["lambda2_new"]
    raise KeyError(f"no all-case second-character row at cap {cap}")


def table2_bound_at(cap: float) -> float:
    for r in _data.published_table(2):
        if r["lambda1_hi"] == cap:
            return r["lambda_prime"]
    raise KeyError(f"no second-zero row at cap {cap}")


def gen_table8():
    """Third-character bounds for lambda1 in [0.52, 0.62] (three case columns).

    Case-1 and case-2348 columns are fresh negativity checks at a fixed
    lambda* = min(second-zero, second-character bounds); the case-7 column is
    the case-7 second-character table read at the covering cap.  The published
    all-case column must equal the minimum of the three.
    """
    rows, audit = [], []
    for pub in _data.published_table(8):
        cap = pub["lambda1_hi"]
        lo = cap - 0.02
        lam_star = pub["lambda_star"]
        assert lam_star == min(table2_bound_at(cap), table7_bound_at(cap))
        alt, neu = None, None
        for t4 in _data.published_table(4):
            if t4["lambda1_hi"] == cap:
                alt, neu = t4["lambda2_alt"], t4["lambda2_new"]
        assert alt is not None and alt <= lam_star <= neu, \
            "the reused supremum certificates must cover the fixed lambda*"
        kern, k, cert_a, cert_b = _t4_sup_certs(cap, lo, alt, neu)
        f0 = kern.f0
        d_by_case = {c: lambda2_D(c, k, f0, cert_a.bound, cert_b.bound)
                     for c in (1, 2, 3, 4, 6, 8)}
        dominance = all(d_by_case[c] <= d_by_case[2] for c in (3, 4, 6, 8))
        rhs1 = rhs_lambda2_case(kern, k, 1, lam_star, cap, pub["case1"], 0.0, 0.0)
        rhs2 = rhs_lambda2_case(kern, k, 2, lam_star, cap, pub["case2348"],
                                cert_a.bound, cert_b.bound)
        case7 = table6_bound_at(cap)
        all_cases = min(pub["case1"], pub["case2348"], case7)
        worst = max(rhs1, rhs2)
        rows.append(TableRow(table=8, label=f"{cap:g}", lambda1_lo=lo, lambda1_hi=cap,
                             lambda_star=lam_star, claimed_bound=pub["all_cases"],
                             certified=(worst < -CERT_MARGIN and dominance
                                        and case7 == pub["case7"]
                                        and all_cases == pub["all_cases"]),
                             margin=-worst,
                             detail={"gamma": kern.gamma, "k": k,
                                     "rhs_case1": rhs1, "rhs_case2348": rhs2,
                                     "case7": case7, "dominance": dominance}))
        audit.extend([cert_a.as_record(), cert_b.as_record()])
    # chained coverage: each row's bound must be implied for smaller lambda1
    chain_source = [table7_bound_at(0.50)] + [r.claimed_bound for r in rows]
    for row, prev in zip(rows, chain_source):
        if not row.claimed_bound <= prev:
            row.certified = False
            row.detail["chain_broken"] = prev
    return rows, audit


def step_lambda3_complex(kern: WeightKernel, lambda1_lo: float, lambda1_hi: float,
                         lambda2_hi: float, lambda3_hi: float, delta: float = 1e-4):
    """Worst stepped RHS of the complex-character third-zero inequality,
    stepping the first zero across its window."""
    n = int(math.ceil((lambda1_hi - lambda1_lo) / delta - 1e-12))
    j = np.arange(n)
    a = lambda1_lo + j * delta
    b = np.minimum(lambda1_lo + (j + 1) * delta, lambda1_hi)
    rhs = (kern.F_real(-b) - kern.F_real(lambda3_hi - b)
           - kern.F_real(lambda2_hi - a) - kern.F0 + 7.0 / 6.0 * kern.f0)
    worst = int(np.argmax(rhs))
    return float(rhs[worst]), worst, n


def step_lambda3_real(kern: WeightKernel, lambda1_lo: float, lambda1_hi: float,
                      lambda3_hi: float, delta: float = 1e-3):
    """Worst stepped RHS of the real-real third-zero inequality, stepping the
    second zero from the window's lower end up to the claimed bound."""
    n = int(math.ceil((lambda3_hi - lambda1_lo) / delta - 1e-9))
    j = np.arange(n)
    a = lambda1_lo + j * delta
    b = lambda1_lo + (j + 1) * delta
    b[-1] = max(b[-1], lambda3_hi)
    rhs = (kern.F_real(-b) - kern.F_real(lambda3_hi - b) - kern.F0
           - kern.F_real(lambda1_hi - a) + 9.0 / 8.0 * kern.f0)
    worst = int(np.argmax(rhs))
    return float(rhs[worst]), worst, n


def gen_table9():
    """Third-zero bounds for a complex leading character, lambda1 in [0.62, 0.72].

    Refuses to certify unless the guard supremum stays below f(0)/6 (and
    below the recorded 0.18 cap).
    """
    kern = WeightKernel(1.25)
    guard = sup_bound(SupProblem(kern, k1=1.0, k2=0.0, k3=2.0,
                                 s11=0.44, s12=0.85, s21=0.0, s22=0.0),
                      GridSpec(ds1=0.03, ds2=0.0, dt=0.03, x1=6.0))
    guard_ok = guard.bound < 0.18 and guard.bound < kern.f0 / 6.0
    rows = []
    for pub in _data.published_table(9):
        lo, hi, l3 = pub["lambda1_lo"], pub["lambda1_hi"], pub["lambda3"]
        l2cap = pub["lambda2_cap"]
        worst, worst_j, n = step_lambda3_complex(
            kern, lo, hi, l2cap if l2cap is not None else l3, l3)
        label = f"[{lo:g},{hi:g}]" + (f" l2<={l2cap:g}" if l2cap is not None else "")
        rows.append(TableRow(table=9, label=label, lambda1_lo=lo, lambda1_hi=hi,
                             lambda_star=None, claimed_bound=l3,
                             certified=worst < -CERT_MARGIN and guard_ok,
                             margin=-worst,
                             detail={"worst_step": worst_j, "steps": n,
                                     "lambda2_cap": l2cap,
                                     "guard_bound": guard.bound}))
    return rows, [guard.as_record()]


#: kernel parameter per real-real third-zero window; the middle window cannot
#: be certified with the 1.04 kernel of its neighbours (the inequality fails
#: pointwise near lambda2 = lambda3 = 1.077) and takes 1.06, whose own guard
#: bound still clears both the 0.10 cap and its 5/48 f(0) threshold
_T10_GAMMA = {0.44: 1.04, 0.60: 1.06, 0.68: 1.04}


def gen_table10():
    """Third-zero bounds when leading character and zero are both real.

    Each kernel parameter in use gets its own guard certificate; a row is
    certified only under a valid guard for its kernel.
    """
    rows, audit = [], []
    guards = {}
    for gamma in sorted(set(_T10_GAMMA.values())):
        kern = WeightKernel(gamma)
        cert = sup_bound(SupProblem(kern, k1=1.0, k2=1.0, k3=1.0,
                                    s11=0.44, s12=1.175, s21=0.44, s22=0.80),
                         GridSpec(ds1=0.03, ds2=0.03, dt=0.03, x1=6.0))
        guards[gamma] = (cert, cert.bound < 0.10 and cert.bound < 5.0 / 48.0 * kern.f0)
        audit.append(cert.as_record())
    for pub in _data.published_table(10):
        lo, hi, l3 = pub["lambda1_lo"], pub["lambda1_hi"], pub["lambda3"]
        gamma = _T10_GAMMA[lo]
        kern = WeightKernel(gamma)
        guard, guard_ok = guards[gamma]
        worst, worst_j, n = step_lambda3_real(kern, lo, hi, l3)
        rows.append(TableRow(table=10, label=f"[{lo:g},{hi:g}]", lambda1_lo=lo,
                             lambda1_hi=hi, lambda_star=None, claimed_bound=l3,
                             certified=worst < -CERT_MARGIN and guard_ok,
                             margin=-worst,
                             detail={"worst_step": worst_j, "steps": n,
                                     "gamma": gamma, "guard_bound": guard.bound}))
    return rows, audit


_L1_SUPS = {
    "5": ((0.0, 1250.0),),
    "4": ((1250.0, 6000.0),),
    "3": ((6000.0, 16150.0),),
    "2": ((14900.0, 30480.0), (1250.0, 6000.0)),
}
_L1_FRACTION = {"ge6": 46630.0 / 6.0, "5": 46630.0 / 8.0, "4": 45380.0 / 8.0,
                "3": 40630.0 / 8.0, "2": 30480.0 / 8.0}


def gen_table11():
    """First-zero bounds by character order (five branches).

    Branch data: assumed cap, imported old bound (s2 box), lambda* read from
    the second-zero/second-character tables at the assumed cap.
    """
    rows, audit = [], []
    old_map = _data.hb92()["lambda1_old_by_ord"]["values"]
    t3 = {r["lambda1_hi"]: r["lambda_prime"] for r in _data.published_table(3)}
    for pub in _data.published_table(11):
        ordc = pub["ord"]
        kern = WeightKernel(pub["gamma"])
        lam_star, l_old, l_ann = pub["lambda_star"], pub["lambda1_old"], pub["lambda1_assumed"]
        l_new = pub["lambda1_new"]
        assert l_old == old_map[ordc] and l_new <= l_ann
        # lambda* precedence: order-2 reads the low-order second-zero and
        # case-7 tables, the others the high-order second-zero and all-case
        # second-character tables, each at the assumed cap
        if ordc == "2":
            assert lam_star == min(t3[l_ann], table6_bound_at(l_ann))
        else:
            assert lam_star == min(table2_bound_at(l_ann), table7_bound_at(l_ann))
        total_c = 0.0
        for k1, k2 in _L1_SUPS.get(ordc, ()):
            cert = sup_bound(SupProblem(kern, k1=k1, k2=k2, k3=0.0,
                                        s11=lam_star, s12=lam_star, s21=l_old, s22=l_ann),
                             GridSpec(ds1=0.0, ds2=0.005, dt=0.005, x1=12.0))
            total_c += cert.bound
            audit.append(cert.as_record())
        D = _L1_FRACTION[ordc] * kern.f0 + total_c
        rhs = rhs_lambda1(kern, lam_star, l_new, D)
        published_c = (pub["C"],) if pub["C"] is not None else ()
        rows.append(TableRow(table=11, label=f"ord {ordc}", lambda1_lo=l_old,
                             lambda1_hi=l_ann, lambda_star=lam_star, claimed_bound=l_new,
                             published_C=published_c,
                             computed_C=(total_c,) if published_c else (),
                             certified=rhs < -CERT_MARGIN, margin=-rhs,
                             detail={"gamma": pub["gamma"], "rhs": rhs, "D": D}))
    return rows, audit


_GENERATORS = {2: gen_table2, 3: gen_table3, 4: gen_table4, 5: gen_table5,
               6: gen_table6, 7: gen_table7, 8: gen_table8, 9: gen_table9,
               10: gen_table10, 11: gen_table11}


def generate_table(n: int):
    """Certify table n (2..11); density tables 12..13 live in linnik.density."""
    if n not in _GENERATORS:
        raise ValueError(f"no certification generator for table {n}")
    return _GENERATORS[n]()
