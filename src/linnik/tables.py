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
* third zero, for a complex leading character or a real one with a real
  zero, each protected by a guard supremum,
* first zero via a degree-four trigonometric polynomial with fixed integer
  coefficients 14379 / 24480 / 14900 / 6000 / 1250.

The ``rhs_*`` functions below are the inequalities that decide the rows.
The stepped rows (tables 4-6, 9 and 10) evaluate them, or the split form
of ``delta_step_max``, on the one step lattice of ``_step_ends``;
``delta_step_max`` evaluates F once per step end for all the stepped
penalty cases of a row.  Every supremum is certified by ``sup_bounds``
on the lattice ``supbound.budget_grid`` chooses: a table gives only its
tail cutoff x1.  The rows of tables 3 and 4 and table 11's order-2 branch
pass their pair of suprema, which share kernel and box, to one call.

Tables 4, 5 and 6 share one generator, ``gen_second_character_table``: they
differ only in the entry of ``_SECOND_CHARACTER`` that names their suprema,
stepped and dominated penalty cases, kernel and tail cutoff.  Every one of their
rows checks that its stepping start lambda2_alt is HB92's value at the cap
(the window's lower end above lambda1 = 0.70, where HB92 stops).  Tables 9
and 10 share ``gen_third_zero_table`` in the same way: their entries of
``_THIRD_ZERO`` name the stepped RHS and its columns, the step, the kernel
of each window and the guard.

Every generator yields rows, and every row is built by ``_row``: it
carries the supremum certificates its decision used (``certificates``) and
the certified rows it read (``upstream``).  Tables 2-6, 9 and 10 certify
their own suprema.  The others read certified rows of the tables they
depend on:

* table 7 <- 4, 5, 6: the minimum, with no supremum of its own;
* table 8 <- 2, 4, 6, 7: table 4's suprema, lambda* = min(table 2, table 7),
  the case-7 column from table 6 and, below its first window, table 7;
* table 11 <- 2, 3, 6, 7: lambda* over the s2 box [lambda1_old, lambda1_assumed].

Each reads through one window rule, ``_window_rows``: the least claim of
the rows whose windows meet the reader's window and cover it.  A row that
reads upstream rows is certified only if every one of them is (the
``upstream_certified`` check).  ``generate_table`` certifies each table
at most once per process: the result, a tuple of frozen rows and the tuple
of their certificates, each once in first-use order, is memoised and shared
by every caller.  ``_certify`` names each fault by ``_data.named``, once,
after the innermost table that met it: a NaN or inf in a decision RHS keeps
its FloatingPointError, and shipped columns that are missing, blank where a
claim is due or leave a row an empty step interval raise RuntimeError.
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
from .supbound import SupProblem, sup_bounds

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
    c_reproduced: bool = False
    margin: float = math.nan
    detail: Mapping = field(default_factory=dict)
    certificates: tuple = field(default=(), repr=False, compare=False)
    upstream: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "detail", MappingProxyType(dict(self.detail)))


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
    Reproduced (``c_reproduced``) iff every computed sup bound is within its
    published cap plus PUBLISHED_C_SLACK.
    """
    upstream = fields.get("upstream", ())
    if upstream:
        checks = {**checks, "upstream_certified": all(r.certified for r in upstream)}
    worst, _ = _finite_max(rhs)
    failed = tuple(name for name, ok in checks.items() if not ok)
    if failed:
        detail = {**detail, "failed_checks": failed}
    reproduced = all(c <= p + PUBLISHED_C_SLACK for c, p in
                     zip(fields.get("computed_C", ()), fields.get("published_C", ())))
    return TableRow(certified=worst < -CERT_MARGIN and not failed, c_reproduced=reproduced,
                    margin=-worst, detail=detail, **fields)


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

    Steps j = 0 .. max(1, ceil((hi-lo)/delta)) - 1 run over [lo + j delta,
    lo + (j+1) delta]; the last b is raised to hi when it falls short, so
    b[-1] >= hi.  An empty interval, hi <= lo, raises ValueError.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not hi > lo:
        raise ValueError(f"empty step interval [{lo:g}, {hi:g}]")
    j = np.arange(max(1, math.ceil((hi - lo) / delta - 1e-9)))
    a = lo + j * delta
    b = lo + (j + 1) * delta
    b[-1] = max(b[-1], hi)
    return a, b


def delta_step_max(kernel: WeightKernel, k: float, lambda1_hi: float,
                   start: float, target: float, delta: float, Ds: tuple) -> tuple:
    """Worst step RHS of the split second-character inequality, one for
    each penalty D of ``Ds``.

    The steps [a, b] of ``_step_ends(start, target, delta)`` cover the
    claimed bound; each is evaluated as
    (k^2+1/2)(F(-b) - F(l1-b) - F(0)) - (2k - (k^2+1/2)) F(l1-a) + D, which
    dominates the inequality throughout the step interval.  Consecutive
    steps share an end (a[j+1] == b[j]), so F(-e) and F(l1-e) are evaluated
    once on the n+1 step ends e and serve every D.  D is added after the
    maximum: rounding x + D is monotone in x, so fl(max x + D) is the
    maximum of fl(x + D) bit for bit.
    """
    if not (STEP_K_RANGE[0] <= k <= STEP_K_RANGE[1]):
        raise ValueError(f"stepping requires k in {STEP_K_RANGE}, got {k}")
    a, b = _step_ends(start, target, delta)
    ends = np.append(a, b[-1])
    f_neg, f_l1 = kernel.F_real(-ends), kernel.F_real(lambda1_hi - ends)
    worst, _ = _finite_max((k * k + 0.5) * (f_neg[1:] - f_l1[1:] - kernel.F0)
                           - (2.0 * k - (k * k + 0.5)) * f_l1[:-1])
    return tuple(_finite_max(worst + D)[0] for D in Ds)


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
            if cap not in lam_star_map:
                raise RuntimeError(f"the imported lambda_star_table2 has no "
                                   f"entry for cap {cap:g}")
            lam_star = lam_star_map[cap]
            prob = SupProblem(kern, k1=k, k2=k * k + 0.75, k3=0.0,
                              s11=lam_star, s12=lam_star, s21=lo, s22=cap)
        else:
            lam_star = cap
            prob = SupProblem(kern, k1=k, k2=0.0, k3=k * k + 0.75,
                              s11=lo, s12=cap, s21=0.0, s22=0.0)
        (cert,) = sup_bounds((prob,), 15.0)
        rhs = rhs_lprime_high(kern, k, lam_star, cap, pub["lambda_prime"], cert.bound)
        # a blank published lambda* stands for lambda* = lambda1
        published_star = cap if pub["lambda_star"] is None else pub["lambda_star"]
        yield _row(rhs, {"gamma": gamma, "k": k, "rhs": rhs},
                   {"lambda_star_imported": lam_star == published_star},
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
        # the doubling of the first supremum lives in its coefficients
        cert_a, cert_b = sup_bounds(
            (SupProblem(kern, k1=2.0 * k, k2=0.0, k3=2.0 * (k * k + 0.75),
                        s11=lo, s12=cap, s21=0.0, s22=0.0),
             SupProblem(kern, k1=0.5, k2=0.0, k3=2.0 * k,
                        s11=lo, s12=cap, s21=0.0, s22=0.0)), 15.0)
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


#: table -> (first window's lower end, (gamma, k) at the cap, tail cutoff x1, the
#: suprema of each row, the penalty cases stepped from lambda2_alt to the
#: claimed bound, the cases the last stepped one must dominate); supremum A
#: has k1 = 1/4, k2 = k (column C1), B has k2 = 1/4 (column C2)
_SECOND_CHARACTER = {
    # cases 1, 2, 3, 4, 6, 8
    4: (0.34, lambda cap: (0.42 + cap, 0.59 + 0.4 * cap),
        7.0, ("A", "B"), (1, 2), (3, 4, 6, 8)),
    # case 5
    5: (0.34, lambda cap: (0.76 + cap / 2.0, 0.84),
        7.0, ("B",), (5,), ()),
    # case 7 (real leading character, complex zero): rows start at lambda1 >= 0.50
    6: (0.50, lambda cap: (0.61 + cap / 2.0, 0.81),
        7.0, ("A",), (7,), ()),
}


def gen_second_character_table(n: int):
    """Second-character bounds of table 4, 5 or 6 via delta-stepping.

    Each row certifies its suprema over the box [lambda2_alt, claimed] x
    [lambda1_lo, cap], steps its penalty cases from lambda2_alt to the
    claimed bound, and checks that lambda2_alt is the imported HB92 start.
    Table 8 reuses a table-4 row's ``certificates`` at the same cap.
    """
    first_lo, gamma_k, x1, sups, stepped, dominated = _SECOND_CHARACTER[n]
    alt_map = _data.hb92_map("lambda2_alt")
    for pub, lo in _chained(n, first_lo):
        cap, alt, neu = pub["lambda1_hi"], pub["lambda2_alt"], pub["lambda2_new"]
        gamma, k = gamma_k(cap)
        kern = WeightKernel(gamma)
        k1k2 = {"A": (0.25, k), "B": (0.0, 0.25)}
        row_certs = sup_bounds(tuple(SupProblem(kern, *k1k2[s], k3=0.0, s11=alt, s12=neu,
                                                s21=lo, s22=cap) for s in sups), x1)
        sup = {s: c.bound for s, c in zip(sups, row_certs)}
        d_by_case = MappingProxyType({
            c: lambda2_D(c, k, kern.f0, sup.get("A", 0.0), sup.get("B", 0.0))
            for c in stepped + dominated})
        steps = delta_step_max(kern, k, cap, alt, neu, 1e-4,
                               tuple(d_by_case[c] for c in stepped))
        d_dominant = d_by_case[stepped[-1]]
        start = alt_map.get(cap, math.nan) if cap <= HB92_LAMBDA2_ALT_MAX else lo
        yield _row(steps, {"gamma": gamma, "k": k, "lambda2_alt": alt, "D_by_case": d_by_case},
                   {"dominance": all(d_by_case[c] <= d_dominant for c in dominated),
                    "lambda2_alt_imported": alt == start},
                   table=n, label=f"{cap:g}", lambda1_lo=lo, lambda1_hi=cap,
                   lambda_star=None, claimed_bound=neu,
                   published_C=tuple(pub[{"A": "C1", "B": "C2"}[s]] for s in sups),
                   computed_C=tuple(sup.values()), certificates=row_certs)


def _window_rows(n: int, lo: float, hi: float) -> tuple:
    """The certified rows of table n whose windows meet [lo, hi].

    A row [a, b] meets the window when a < hi and b > lo.  A reader takes
    the least claim of these rows, the bound that holds across the whole
    window.  Raises RuntimeError, a certification failure and not bad input,
    unless the rows cover the window.
    """
    rows = tuple(r for r in _certify(n)[0] if r.lambda1_lo < hi and r.lambda1_hi > lo)
    reach = (lo,) + tuple(r.lambda1_hi for r in rows)
    if not rows or reach[-1] < hi or any(r.lambda1_lo > e for r, e in zip(rows, reach)):
        raise RuntimeError(f"the rows of table {n} do not cover lambda1 in [{lo:g}, {hi:g}]")
    return rows


def gen_table7():
    """All-case second-character bounds: the minimum of tables 4, 5, 6."""
    # the real-character/complex-zero case only exists for lambda1 above the
    # imported order-2 first-zero bound, so its column joins the minimum only
    # for caps beyond it
    case7_floor = _data.hb92()["lambda1_old_by_ord"]["values"]["2"]
    for pub, lo in _chained(7, 0.34):
        cap = pub["lambda1_hi"]
        if pub["lambda2_new"] is None:
            if cap < HB92_LAMBDA2_ALT_MAX:
                raise ValueError(f"row {cap:g} has no lambda2_new below lambda1 = 0.7")
            continue  # from HB92's last cap on, the rows restate its imported bounds
        used = tuple(r for m in ((4, 5, 6) if cap > case7_floor else (4, 5))
                     for r in _window_rows(m, lo, cap))
        candidates = tuple(r.claimed_bound for r in used)
        value = min(candidates)
        yield _row([-r.margin for r in used],
                   {"candidates": candidates, "published": pub["lambda2_new"]},
                   {"published": value == pub["lambda2_new"]},
                   table=7, label=f"{cap:g}", lambda1_lo=lo,
                   lambda1_hi=cap, lambda_star=None, claimed_bound=value, upstream=used)


def gen_table8():
    """Third-character bounds for lambda1 in [0.50, 0.62] (three case columns).

    Case-1 and case-2348 columns are fresh negativity checks at a fixed
    lambda* = min(second-zero, all-case second-character bounds), with the
    kernel and suprema of each table-4 row over the window; the case-7
    column is table 6's least claim over it.  The published all-case column
    must equal the minimum of the three.
    """
    # chained coverage: each row's bound must be implied for smaller lambda1,
    # below 0.50 by table 7 down to its first window
    prev = _window_rows(7, 0.34, 0.50)
    for pub, lo in _chained(8, 0.50):
        cap = pub["lambda1_hi"]
        rows2, rows4, rows6, rows7 = (_window_rows(m, lo, cap) for m in (2, 4, 6, 7))
        lam_star = min(r.claimed_bound for r in rows2 + rows7)
        rhs = []
        for row4 in rows4:
            # its suprema hold on its part of the window, where the RHS,
            # increasing in lambda1, is worst at the part's upper end
            cert_a, cert_b = row4.certificates
            kern, k = cert_a.problem.kernel, row4.detail["k"]
            l1 = min(cap, row4.lambda1_hi)
            rhs += [rhs_lambda2_case(kern, k, 1, lam_star, l1, pub["case1"], 0.0, 0.0),
                    rhs_lambda2_case(kern, k, 2, lam_star, l1, pub["case2348"],
                                     cert_a.bound, cert_b.bound)]
        case7 = min(r.claimed_bound for r in rows6)
        all_cases = min(pub["case1"], pub["case2348"], case7)
        row = _row(rhs, {"rhs": tuple(rhs), "case7": case7},
                   {"lambda_star_published": lam_star == pub["lambda_star"],
                    # the reused supremum certificates must cover the fixed lambda*
                    "certificates_cover": all(r.detail["lambda2_alt"] <= lam_star
                                              <= r.claimed_bound for r in rows4),
                    "case7_published": case7 == pub["case7"],
                    "all_cases_is_min": all_cases == pub["all_cases"],
                    "chain": pub["all_cases"] <= min(r.claimed_bound for r in prev)},
                   table=8, label=f"{cap:g}", lambda1_lo=lo, lambda1_hi=cap,
                   lambda_star=lam_star, claimed_bound=pub["all_cases"],
                   certificates=tuple(c for r in rows4 for c in r.certificates),
                   # a certified table-4 row also holds its case dominance
                   upstream=rows2 + rows4 + rows6 + rows7 + prev)
        prev = (row,)
        yield row


#: table -> (stepped right-hand side, the published column its steps run up
#: to from the window's lower end, the column of its fourth argument, step,
#: kernel parameter by window lower end, and the guard supremum's (k1, k2,
#: k3), box (s11, s12, s21, s22), tail cutoff x1, cap and fraction of f(0))
_THIRD_ZERO = {
    # complex leading character: the first zero steps over its window
    9: (rhs_lambda3_complex, "lambda1_hi", "lambda2_cap", 1e-4,
        dict.fromkeys((0.62, 0.64, 0.66, 0.68), 1.25),
        (1.0, 0.0, 2.0), (0.44, 0.85, 0.0, 0.0),
        6.0, 0.18, 1.0 / 6.0),
    # leading character and zero both real: the second zero steps up to the
    # claimed bound.  The middle window cannot be certified with the 1.04
    # kernel of its neighbours (the inequality fails pointwise near lambda2 =
    # lambda3 = 1.077) and takes 1.06, whose own guard bound still clears both
    # the 0.10 cap and its 5/48 f(0) threshold
    10: (rhs_lambda3_real, "lambda3", "lambda1_hi", 1e-3,
         {0.44: 1.04, 0.60: 1.06, 0.68: 1.04},
         (1.0, 1.0, 1.0), (0.44, 1.175, 0.44, 0.80),
         6.0, 0.10, 5.0 / 48.0),
}


def gen_third_zero_table(n: int):
    """Third-zero bounds of table 9 or 10: one guard per kernel in use, in
    gamma order; each row is decided by its worst step and certified only
    under the guard of its own kernel.  A blank fourth-argument column
    (table 9's lambda2 cap) is bounded by the claimed lambda3."""
    rhs, step_to, fourth, delta, gamma_by_lo, coeffs, box, x1, cap, frac = _THIRD_ZERO[n]
    guards = {gamma: sup_bounds((SupProblem(WeightKernel(gamma), *coeffs, *box),), x1)[0]
              for gamma in sorted(set(gamma_by_lo.values()))}
    for pub in _data.published_table(n):
        lo, hi, l3 = pub["lambda1_lo"], pub["lambda1_hi"], pub["lambda3"]
        l2cap = pub.get("lambda2_cap")
        if lo not in gamma_by_lo:
            raise RuntimeError(f"no kernel parameter for the window starting at {lo:g}")
        gamma = gamma_by_lo[lo]
        guard, kern = guards[gamma], WeightKernel(gamma)
        a, b = _step_ends(lo, pub[step_to], delta)
        worst, worst_j = _finite_max(rhs(kern, a, b,
                                         l3 if pub[fourth] is None else pub[fourth], l3))
        label = f"[{lo:g},{hi:g}]" + (f" l2<={l2cap:g}" if l2cap is not None else "")
        yield _row(worst, {"worst_step": worst_j, "steps": a.size, "gamma": gamma,
                           "lambda2_cap": l2cap, "guard_bound": guard.bound},
                   {"guard": guard.bound < cap and guard.bound < frac * kern.f0},
                   table=n, label=label, lambda1_lo=lo, lambda1_hi=hi,
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

    Branch data: assumed cap, imported old bound, and lambda* = the least
    claim of the certified second-zero/second-character rows across the s2
    box [old bound, assumed cap].
    """
    old_map = _data.hb92()["lambda1_old_by_ord"]["values"]
    for pub in _data.published_table(11):
        ordc = pub["ord"]
        kern = WeightKernel(pub["gamma"])
        l_old, l_ann, l_new = pub["lambda1_old"], pub["lambda1_assumed"], pub["lambda1_new"]
        # order 2 reads the low-order second-zero and case-7 tables, the
        # others the high-order second-zero and all-case second-character ones
        upstream = tuple(r for m in ((3, 6) if ordc == "2" else (2, 7))
                         for r in _window_rows(m, l_old, l_ann))
        lam_star = min(r.claimed_bound for r in upstream)
        sups = _L1_SUPS.get(ordc, ())
        # a row that certifies suprema reproduces their published sum; only
        # ord ge6, which has none, may leave C blank
        if sups and pub["C"] is None:
            raise ValueError(f"row ord {ordc} has no C for its suprema")
        certs = sup_bounds(tuple(SupProblem(kern, k1=k1, k2=k2, k3=0.0, s11=lam_star,
                                            s12=lam_star, s21=l_old, s22=l_ann)
                                 for k1, k2 in sups),
                           12.0)
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
               7: gen_table7, 8: gen_table8,
               **{n: functools.partial(gen_third_zero_table, n) for n in _THIRD_ZERO},
               11: gen_table11}


@functools.lru_cache(maxsize=None)
def _certify(n: int) -> tuple:
    try:
        rows = tuple(_GENERATORS[n]())
        if not rows:
            raise RuntimeError("the shipped table has no rows")
    except _data.FAULTS as exc:
        raise _data.named(f"table {n}", exc)
    # each certificate once, in first-use order: tables 9 and 10 have one
    # guard per kernel, which serves every row of that kernel
    certificates = {id(c): c for r in rows for c in r.certificates}
    return rows, tuple(certificates.values())


def generate_table(n: int) -> tuple:
    """(rows, certificates) of table n (2..11), certified at most once per
    process; density tables 12..13 live in linnik.density."""
    if n not in _GENERATORS:
        raise ValueError(f"no certification generator for table {n}")
    return _certify(n)
