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

The ``rhs_*`` functions below are the inequalities that decide the rows.
The stepped rows (tables 4-6, 9 and 10) evaluate them, or the split form
of ``delta_step_max``, on the one step lattice of ``_step_ends``.

Tables 4, 5 and 6 share one generator, ``gen_second_character_table``: they
differ only in the entry of ``_SECOND_CHARACTER`` that names their suprema,
stepped and dominated penalty cases, kernel and lattice.  Every one of their
rows checks that its stepping start lambda2_alt is HB92's value at the cap
(the window's lower end above lambda1 = 0.70, where HB92 stops).

Every generator yields rows, and every row is built by ``_row``: it
carries the supremum certificates its decision used (``certificates``) and
the certified rows it read (``upstream``).  Tables 2-6, 9 and 10 certify
their own suprema.  The others read certified rows of the tables they
depend on:

* table 7 <- 4, 5, 6: the row-wise minimum, with no supremum of its own;
* table 8 <- 2, 4, 6, 7: table 4's window and certificates at each cap,
  lambda* = min(table 2, table 7) and the case-7 column from table 6;
* table 11 <- 2, 3, 6, 7: lambda* at the assumed cap.

A row that reads upstream rows is certified only if every one of them is
(the ``upstream_certified`` check).  ``generate_table`` certifies each table
at most once per process: the result, a tuple of frozen rows and the tuple
of their certificates, each once in first-use order, is memoised and shared
by every caller.  A NaN or inf in any decision RHS raises FloatingPointError
instead of deciding the row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

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


@dataclass(frozen=True)
class TableRow:
    """One certified table row with its decision margin and audit data.

    ``certificates`` are the supremum certificates its decision used and
    ``upstream`` the certified rows it read.  Rows are shared through the
    memo, so ``detail`` is a read-only view.
    """

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
    detail: Mapping = field(default_factory=dict)
    certificates: tuple = field(default=(), repr=False, compare=False)
    upstream: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "detail", MappingProxyType(dict(self.detail)))

    @property
    def c_reproduced(self) -> bool:
        """Every computed sup bound within the published cap plus slack."""
        return all(c <= p + PUBLISHED_C_SLACK
                   for c, p in zip(self.computed_C, self.published_C))


def _finite_max(rhs) -> tuple:
    """(max, argmax) of decision RHS values, scalars or a stepped array.

    Raises FloatingPointError if any value is a NaN or an inf: builtin
    max(-inf, nan) returns -inf and np.argmax passes over a -inf, so either
    would decide a row on a value that was never computed.
    """
    arr = np.asarray(rhs, dtype=float).ravel()
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite decision RHS among {arr.size} value(s)")
    j = int(np.argmax(arr))
    return float(arr[j]), j


def _row(rhs, detail: dict, checks: dict, **fields) -> TableRow:
    """The row with ``fields``, decided at ``rhs``.

    Certified iff the worst RHS is below -CERT_MARGIN and every named check
    holds, ``upstream_certified`` among them when the row reads upstream
    rows; the names of the failing checks go to detail["failed_checks"].
    """
    upstream = fields.get("upstream", ())
    if upstream:
        checks = {**checks, "upstream_certified": all(r.certified for r in upstream)}
    worst, _ = _finite_max(rhs)
    failed = tuple(name for name, ok in checks.items() if not ok)
    if failed:
        detail = {**detail, "failed_checks": failed}
    return TableRow(certified=worst < -CERT_MARGIN and not failed, margin=-worst,
                    detail=detail, **fields)


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


def _step_ends(lo: float, hi: float, delta: float) -> tuple:
    """Ends (a, b) of the steps covering [lo, hi], the one step lattice of
    every stepped row.

    Steps j = 0 .. ceil((hi-lo)/delta) - 1 run over [lo + j delta,
    lo + (j+1) delta]; the last b is raised to hi when it falls short, so
    b[-1] >= hi.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    j = np.arange(int(math.ceil((hi - lo) / delta - 1e-9)))
    a = lo + j * delta
    b = lo + (j + 1) * delta
    b[-1] = max(b[-1], hi)
    return a, b


def delta_step_max(kernel: WeightKernel, k: float, lambda1_hi: float,
                   start: float, target: float, delta: float, D: float):
    """Worst step RHS of the split second-character inequality.

    The steps [a, b] of ``_step_ends(start, target, delta)`` cover the
    claimed bound; each is evaluated as
    (k^2+1/2)(F(-b) - F(l1-b) - F(0)) - (2k - (k^2+1/2)) F(l1-a) + D, which
    dominates the inequality throughout the step interval.
    """
    if not (STEP_K_RANGE[0] <= k <= STEP_K_RANGE[1]):
        raise ValueError(f"stepping requires k in {STEP_K_RANGE}, got {k}")
    a, b = _step_ends(start, target, delta)
    rhs = ((k * k + 0.5) * (kernel.F_real(-b) - kernel.F_real(lambda1_hi - b) - kernel.F0)
           - (2.0 * k - (k * k + 0.5)) * kernel.F_real(lambda1_hi - a)
           + D)
    return _finite_max(rhs)[0]


def rhs_lambda3_complex(kernel: WeightKernel, lambda1_lo: float, lambda1_hi: float,
                        lambda2_hi: float, lambda3_hi: float) -> float:
    """Endpoint form of the third-zero inequality for a complex leading character.

    F(-l12) - F(l32-l12) - F(l22-l11) - F(0) + 7/6 f(0); valid while the guard
    supremum stays below f(0)/6.  Table 9 evaluates it on the step ends
    (l11, l12) = (a, b) of the first zero's window.
    """
    return (kernel.F_real(-lambda1_hi)
            - kernel.F_real(lambda3_hi - lambda1_hi)
            - kernel.F_real(lambda2_hi - lambda1_lo)
            - kernel.F0
            + 7.0 / 6.0 * kernel.f0)


def rhs_lambda3_real(kernel: WeightKernel, lambda2_lo: float, lambda2_hi: float,
                     lambda1_hi: float, lambda3_hi: float) -> float:
    """Endpoint form of the third-zero inequality when the leading character and
    zero are both real; guarded by a supremum below (5/48) f(0).  Table 10
    evaluates it on the step ends (l21, l22) = (a, b) of the second zero."""
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

def _chained(n: int, first_lo: float):
    """(published row, window lower end) for each row of table n: a window
    starts at the previous row's cap, the first at first_lo."""
    lo = first_lo
    for pub in _data.published_table(n):
        yield pub, lo
        lo = pub["lambda1_hi"]


def gen_table2():
    """Second-zero bounds, character order >= 5 (25 rows).

    Rows with cap <= 0.68 pin s1 at an imported lambda* and sweep the first
    zero in s2; beyond 0.68 lambda* = lambda1 and the problem moves to the
    (s1, k3) form.
    """
    lam_star_map = _data.hb92_map("lambda_star_table2")
    for pub, lo in _chained(2, 0.34):
        cap = pub["lambda1_hi"]
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
        yield _row(rhs, {"gamma": gamma, "k": k, "rhs": rhs}, {},
                   table=2, label=f"{cap:g}", lambda1_lo=lo, lambda1_hi=cap,
                   lambda_star=lam_star, claimed_bound=pub["lambda_prime"],
                   published_C=(pub["C"],), computed_C=(cert.bound,), certificates=(cert,))


def gen_table3():
    """Second-zero bounds, character order 2..4 (19 rows, two suprema each)."""
    for pub, lo in _chained(3, 0.34):
        cap = pub["lambda1_hi"]
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
        yield _row(rhs, {"gamma": gamma, "k": k, "rhs": rhs}, {},
                   table=3, label=f"{cap:g}", lambda1_lo=lo, lambda1_hi=cap,
                   lambda_star=None, claimed_bound=pub["lambda_prime"],
                   published_C=(pub["C1"], pub["C2"]),
                   computed_C=(cert_a.bound, cert_b.bound), certificates=(cert_a, cert_b))


#: HB92's second-character bounds stop at lambda1 = 0.70; beyond it the
#: stepping starts at the trivial lambda2 >= lambda1, the window's lower end
HB92_LAMBDA2_ALT_MAX = 0.70


#: table -> (first window's lower end, (gamma, k) at the cap, lattice, the
#: suprema of each row, the penalty cases stepped from lambda2_alt to the
#: claimed bound, the cases the last stepped one must dominate); supremum A
#: has k1 = 1/4, k2 = k (column C1), B has k2 = 1/4 (column C2)
_SECOND_CHARACTER = {
    # cases 1, 2, 3, 4, 6, 8
    4: (0.34, lambda cap: (0.42 + cap, 0.59 + 0.4 * cap),
        GridSpec(ds1=0.015, ds2=0.007, dt=0.015, x1=7.0), ("A", "B"), (1, 2), (3, 4, 6, 8)),
    # case 5
    5: (0.34, lambda cap: (0.76 + cap / 2.0, 0.84),
        GridSpec(ds1=0.010, ds2=0.007, dt=0.010, x1=7.0), ("B",), (5,), ()),
    # case 7 (real leading character, complex zero): rows start at lambda1 >= 0.50
    6: (0.50, lambda cap: (0.61 + cap / 2.0, 0.81),
        GridSpec(ds1=0.015, ds2=0.015, dt=0.015, x1=7.0), ("A",), (7,), ()),
}


def gen_second_character_table(n: int):
    """Second-character bounds of table 4, 5 or 6 via delta-stepping.

    Each row certifies its suprema over the box [lambda2_alt, claimed] x
    [lambda1_lo, cap], steps its penalty cases from lambda2_alt to the
    claimed bound, and checks that lambda2_alt is the imported HB92 start.
    Table 8 reuses a table-4 row's ``certificates`` at the same cap.
    """
    first_lo, gamma_k, grid, sups, stepped, dominated = _SECOND_CHARACTER[n]
    alt_map = _data.hb92_map("lambda2_alt")
    for pub, lo in _chained(n, first_lo):
        cap, alt, neu = pub["lambda1_hi"], pub["lambda2_alt"], pub["lambda2_new"]
        gamma, k = gamma_k(cap)
        kern = WeightKernel(gamma)
        k1k2 = {"A": (0.25, k), "B": (0.0, 0.25)}
        row_certs = tuple(sup_bound(SupProblem(kern, *k1k2[s], k3=0.0, s11=alt, s12=neu,
                                               s21=lo, s22=cap), grid)
                          for s in sups)
        sup = {s: c.bound for s, c in zip(sups, row_certs)}
        d_by_case = MappingProxyType({
            c: lambda2_D(c, k, kern.f0, sup.get("A", 0.0), sup.get("B", 0.0))
            for c in stepped + dominated})
        steps = [delta_step_max(kern, k, cap, alt, neu, 1e-4, d_by_case[c])
                 for c in stepped]
        d_dominant = d_by_case[stepped[-1]]
        start = alt_map.get(cap, math.nan) if cap <= HB92_LAMBDA2_ALT_MAX else lo
        yield _row(steps, {"gamma": gamma, "k": k, "lambda2_alt": alt, "D_by_case": d_by_case},
                   {"dominance": all(d_by_case[c] <= d_dominant for c in dominated),
                    "lambda2_alt_imported": alt == start},
                   table=n, label=f"{cap:g}", lambda1_lo=lo, lambda1_hi=cap,
                   lambda_star=None, claimed_bound=neu,
                   published_C=tuple(pub[{"A": "C1", "B": "C2"}[s]] for s in sups),
                   computed_C=tuple(sup.values()), certificates=row_certs)


def _rows_by_cap(n: int) -> dict:
    """The certified rows of table n keyed by their cap lambda1_hi."""
    return {r.lambda1_hi: r for r in _certify(n)[0]}


def table6_bound_at(cap: float, rows6) -> TableRow:
    """The case-7 second-character row valid for lambda1 <= cap: the row with
    the smallest cap covering it."""
    covering = [r for r in rows6 if r.lambda1_hi >= cap]
    if not covering:
        raise ValueError(f"no case-7 row covers lambda1 <= {cap}")
    return min(covering, key=lambda r: r.lambda1_hi)


def gen_table7():
    """All-case second-character bounds: row-wise minimum of tables 4, 5, 6."""
    by_cap4, by_cap5 = _rows_by_cap(4), _rows_by_cap(5)
    rows6 = _certify(6)[0]
    # the real-character/complex-zero case only exists for lambda1 above the
    # imported order-2 first-zero bound, so its column joins the minimum only
    # for caps beyond it
    case7_floor = _data.hb92()["lambda1_old_by_ord"]["values"]["2"]
    for pub in _data.published_table(7):
        cap = pub["lambda1_hi"]
        if pub["lambda2_new"] is None:
            continue  # rows beyond 0.68 only restate the imported bounds
        used = (by_cap4[cap], by_cap5[cap])
        if cap > case7_floor:
            used += (table6_bound_at(cap, rows6),)
        candidates = tuple(r.claimed_bound for r in used)
        value = min(candidates)
        yield _row([-r.margin for r in used],
                   {"candidates": candidates, "published": pub["lambda2_new"]},
                   {"published": value == pub["lambda2_new"]},
                   table=7, label=f"{cap:g}", lambda1_lo=used[0].lambda1_lo,
                   lambda1_hi=cap, lambda_star=None, claimed_bound=value, upstream=used)


def gen_table8():
    """Third-character bounds for lambda1 in [0.52, 0.62] (three case columns).

    Case-1 and case-2348 columns are fresh negativity checks at a fixed
    lambda* = min(second-zero, all-case second-character bounds), with table
    4's window and suprema at the same cap; the case-7 column is the case-7
    second-character row covering the cap.  The published all-case column
    must equal the minimum of the three.
    """
    by_cap2, by_cap4, by_cap7 = _rows_by_cap(2), _rows_by_cap(4), _rows_by_cap(7)
    rows6 = _certify(6)[0]
    # chained coverage: each row's bound must be implied for smaller lambda1
    prev = by_cap7[0.50]
    for pub in _data.published_table(8):
        cap = pub["lambda1_hi"]
        row2, row4, row7 = by_cap2[cap], by_cap4[cap], by_cap7[cap]
        row6 = table6_bound_at(cap, rows6)
        cert_a, cert_b = row4.certificates
        kern, k = cert_a.problem.kernel, row4.detail["k"]
        lam_star = min(row2.claimed_bound, row7.claimed_bound)
        rhs1 = rhs_lambda2_case(kern, k, 1, lam_star, cap, pub["case1"], 0.0, 0.0)
        rhs2 = rhs_lambda2_case(kern, k, 2, lam_star, cap, pub["case2348"],
                                cert_a.bound, cert_b.bound)
        case7 = row6.claimed_bound
        all_cases = min(pub["case1"], pub["case2348"], case7)
        prev = _row((rhs1, rhs2),
                    {"gamma": kern.gamma, "k": k, "rhs_case1": rhs1,
                     "rhs_case2348": rhs2, "case7": case7},
                    {"lambda_star_published": lam_star == pub["lambda_star"],
                     # the reused supremum certificates must cover the fixed lambda*
                     "certificates_cover": (row4.detail["lambda2_alt"] <= lam_star
                                            <= row4.claimed_bound),
                     "case7_published": case7 == pub["case7"],
                     "all_cases_is_min": all_cases == pub["all_cases"],
                     "chain": pub["all_cases"] <= prev.claimed_bound},
                    table=8, label=f"{cap:g}", lambda1_lo=row4.lambda1_lo, lambda1_hi=cap,
                    lambda_star=lam_star, claimed_bound=pub["all_cases"],
                    certificates=row4.certificates,
                    # a certified table-4 row also holds its case dominance
                    upstream=(row2, row4, row6, row7, prev))
        yield prev


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
    for pub in _data.published_table(9):
        lo, hi, l3 = pub["lambda1_lo"], pub["lambda1_hi"], pub["lambda3"]
        l2cap = pub["lambda2_cap"]
        a, b = _step_ends(lo, hi, 1e-4)
        worst, worst_j = _finite_max(rhs_lambda3_complex(
            kern, a, b, l2cap if l2cap is not None else l3, l3))
        label = f"[{lo:g},{hi:g}]" + (f" l2<={l2cap:g}" if l2cap is not None else "")
        yield _row(worst, {"worst_step": worst_j, "steps": a.size, "lambda2_cap": l2cap,
                           "guard_bound": guard.bound},
                   {"guard": guard_ok},
                   table=9, label=label, lambda1_lo=lo, lambda1_hi=hi,
                   lambda_star=None, claimed_bound=l3, certificates=(guard,))


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
    guards = {}
    for gamma in sorted(set(_T10_GAMMA.values())):
        kern = WeightKernel(gamma)
        cert = sup_bound(SupProblem(kern, k1=1.0, k2=1.0, k3=1.0,
                                    s11=0.44, s12=1.175, s21=0.44, s22=0.80),
                         GridSpec(ds1=0.03, ds2=0.03, dt=0.03, x1=6.0))
        guards[gamma] = (cert, cert.bound < 0.10 and cert.bound < 5.0 / 48.0 * kern.f0)
    for pub in _data.published_table(10):
        lo, hi, l3 = pub["lambda1_lo"], pub["lambda1_hi"], pub["lambda3"]
        gamma = _T10_GAMMA[lo]
        kern = WeightKernel(gamma)
        guard, guard_ok = guards[gamma]
        # the second zero steps from the window's lower end up to the claimed bound
        a, b = _step_ends(lo, l3, 1e-3)
        worst, worst_j = _finite_max(rhs_lambda3_real(kern, a, b, hi, l3))
        yield _row(worst, {"worst_step": worst_j, "steps": a.size, "gamma": gamma,
                           "guard_bound": guard.bound},
                   {"guard": guard_ok},
                   table=10, label=f"[{lo:g},{hi:g}]", lambda1_lo=lo, lambda1_hi=hi,
                   lambda_star=None, claimed_bound=l3, certificates=(guard,))


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

    Branch data: assumed cap, imported old bound (s2 box), and lambda* read
    from the certified second-zero/second-character rows at the assumed cap.
    """
    old_map = _data.hb92()["lambda1_old_by_ord"]["values"]
    by_cap2, by_cap3, by_cap7 = _rows_by_cap(2), _rows_by_cap(3), _rows_by_cap(7)
    rows6 = _certify(6)[0]
    for pub in _data.published_table(11):
        ordc = pub["ord"]
        kern = WeightKernel(pub["gamma"])
        l_old, l_ann, l_new = pub["lambda1_old"], pub["lambda1_assumed"], pub["lambda1_new"]
        # lambda* precedence: order-2 reads the low-order second-zero and
        # case-7 tables, the others the high-order second-zero and all-case
        # second-character tables, each at the assumed cap
        if ordc == "2":
            upstream = (by_cap3[l_ann], table6_bound_at(l_ann, rows6))
        else:
            upstream = (by_cap2[l_ann], by_cap7[l_ann])
        lam_star = min(r.claimed_bound for r in upstream)
        certs = tuple(sup_bound(SupProblem(kern, k1=k1, k2=k2, k3=0.0, s11=lam_star,
                                           s12=lam_star, s21=l_old, s22=l_ann),
                                GridSpec(ds1=0.0, ds2=0.005, dt=0.005, x1=12.0))
                      for k1, k2 in _L1_SUPS.get(ordc, ()))
        total_c = sum(c.bound for c in certs)
        D = _L1_FRACTION[ordc] * kern.f0 + total_c
        rhs = rhs_lambda1(kern, lam_star, l_new, D)
        published_c = (pub["C"],) if pub["C"] is not None else ()
        yield _row(rhs, {"gamma": pub["gamma"], "rhs": rhs, "D": D},
                   {"lambda_star_published": lam_star == pub["lambda_star"],
                    "lambda1_old_imported": l_old == old_map.get(ordc),
                    "within_assumed_cap": l_new <= l_ann},
                   table=11, label=f"ord {ordc}", lambda1_lo=l_old, lambda1_hi=l_ann,
                   lambda_star=lam_star, claimed_bound=l_new, published_C=published_c,
                   computed_C=(total_c,) if published_c else (),
                   certificates=certs, upstream=upstream)


_GENERATORS = {2: gen_table2, 3: gen_table3,
               **{n: functools.partial(gen_second_character_table, n) for n in _SECOND_CHARACTER},
               7: gen_table7, 8: gen_table8, 9: gen_table9,
               10: gen_table10, 11: gen_table11}


@functools.lru_cache(maxsize=None)
def _certify(n: int) -> tuple:
    try:
        rows = tuple(_GENERATORS[n]())
    except FloatingPointError as exc:
        raise FloatingPointError(f"table {n}: {exc}") from exc
    # each certificate once, in first-use order: table 9's guard serves every
    # row, table 10's one guard per kernel
    certificates = {id(c): c for r in rows for c in r.certificates}
    return rows, tuple(certificates.values())


def generate_table(n: int) -> tuple:
    """(rows, certificates) of table n (2..11), certified at most once per
    process; density tables 12..13 live in linnik.density."""
    if n not in _GENERATORS:
        raise ValueError(f"no certification generator for table {n}")
    return _certify(n)
