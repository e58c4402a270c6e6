"""Certified upper bounds for box suprema of A(s1, s2, t).

A(s1, s2, t) = Re{ k1 F(-s1+it) - k2 F(-(s1-s2)+it) - k3 F(it) } has to be
bounded above over a parameter box times all real t.  By conjugate symmetry
t >= 0 suffices.  The certificate combines three ingredients:

  * a finite-grid maximum M0 over a lattice covering the box x [0,x1],
  * a slack bounding A off the lattice,
  * closed-form tail majorants A1..A4 valid for every t >= x1 (monotone
    decreasing in t, so evaluating them at x1 covers the whole tail).

The slack of a lattice with spacings h_i is sum_i h_i^2/8 M_ii, with M11,
M22, Mtt the second-derivative bounds of ``curvature_bounds``.  On
a lattice cell the tensor-product linear interpolant of A is a convex
combination of its corner values, so it stays <= M0; interpolating one
coordinate at a time errs by at most h_i^2/8 sup |d_i^2 A| per coordinate
(de Boor, A Practical Guide to Splines, ch. 2; Tucker, Validated Numerics,
2011).  With M2(c) = int x^2 f(x) e^{cx} dx, increasing in c since f >= 0,
|d^2 Re F(-s+it)| <= M2(s) in s and in t, so M11 = k1 M2(s12) + k2 M2(s32),
M22 = k2 M2(s32) and Mtt = M11 + k3 M2(0).

Each problem takes one of two lattices, chosen by its own coefficients and
box:

  * the (s1, s2, t) lattice over [s11,s12] x [s21,s22] x [0,x1], with the
    bound max(tail, M0 + ds1^2/8 M11 + ds2^2/8 M22 + dt^2/8 Mtt);
  * when k1 = k3 = 0 < k2 and s11 < s12, A = -k2 Re F(-s3+it) depends on
    s3 = s1 - s2 alone, and the (s3, t) lattice over [s11 - s22, s12 - s21]
    x [0,x1] with ds3 = max(ds1, ds2) gives max(tail, M0 + ds3^2/8 M22 +
    dt^2/8 Mtt); there M11 = M22 = Mtt = k2 M2(s32) bounds both second
    derivatives.

Either bound dominates A everywhere on box x [0, inf).

The spacings come from a ``GridSpec``: one given by the caller, or the one
``budget_grid`` chooses for a tail cutoff x1.  The budget rule spends
SLACK_BUDGET min_p(k1 + k2 + k3) of second-order slack, an equal share
beta per coordinate the walks step along, and takes on each the coarsest
spacing h_i = min(width_i, sqrt(8 beta / max_p M_ii)) that keeps every
problem of the group within its share.

Several suprema of one table row often share kernel, box and tail cutoff
and differ only in k1, k2, k3.  ``sup_bounds`` certifies such a group on
the one lattice ``budget_grid`` chooses for it; ``sup_bound`` is the group
of one.  The Monte-Carlo audit ``domination_checks`` groups certificates
by the same key and x1: a group draws its samples once and evaluates each
F term that one of its certificates reads once, and each certificate gets
the record it would get alone; ``domination_check`` is the group of one.

M0 is computed by ``_walk``, one walk per problem, on the s1, s2 and t
values of the (s1, s2, t) lattice or on s3, {0} and t for the (s3, t)
lattice; ``sup_bounds`` picks them and ``grid_max`` walks the former.  When
the t lattice is fine enough that every COARSE_STEP-th t alone would keep
the t slack within the budget, Mtt (COARSE_STEP dt)^2/8 <= SLACK_BUDGET (k1
+ k2 + k3), the walk first evaluates those coarse columns and then only the
columns between them that the bound |d^2A/dt^2| <= Mtt, plus an error
budget, cannot rule out; the points of a pruned segment are never
evaluated.  The lattices ``budget_grid`` chooses for the tables do not pass
this gate, so their walks evaluate every point.  Each pass runs one block
loop: per block of s1 rows the base k1 F(-s1+it) - k3 F(it) is built once,
and the k2 rows F(-(s1-s2)+it) of a chunk of s2 values are evaluated in one
call, at most BLOCK_POINTS points unless one t row alone is longer, and
subtracted from the broadcast base; each block is reduced to its maximum at
once, so no lattice-sized array is built.  One ``kernel.LatticeWork`` per
group computes the trigonometric factors of the t lattice once, and the k3
row is evaluated once per pass, on that pass's columns.

Certification fails closed: ``SupProblem`` and ``GridSpec`` refuse a
number field that is not a finite number with a ValueError that names it,
and a NaN or inf anywhere the walk evaluates, in the tail or in the slack
raises FloatingPointError, and no certificate is produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .kernel import LatticeWork, WeightKernel, _require_finite

#: lattice points evaluated by one re_F call of a walk and reduced to their
#: maximum at once: a call holds at most max(1, BLOCK_POINTS // n_t) t rows
BLOCK_POINTS = 4096

#: a walk whose t lattice passes the coarse gate first evaluates every
#: COARSE_STEP-th t value (see ``_walk``)
COARSE_STEP = 8

#: second-order slack ``budget_grid`` spends per unit of the least
#: coefficient sum k1 + k2 + k3 of a group, shared among its coordinates
SLACK_BUDGET = 1e-3


@dataclass(frozen=True)
class SupProblem:
    """One boxed supremum task: kernel, coefficients, and the (s1, s2) box."""

    kernel: WeightKernel
    k1: float
    k2: float
    k3: float
    s11: float
    s12: float
    s21: float
    s22: float

    def __post_init__(self):
        _require_finite(self)
        if not (0.0 <= self.s11 <= self.s12 <= 4.0):
            raise ValueError(f"need 0 <= s11 <= s12 <= 4, got [{self.s11}, {self.s12}]")
        if not (0.0 <= self.s21 <= self.s22):
            raise ValueError(f"need 0 <= s21 <= s22, got [{self.s21}, {self.s22}]")
        if min(self.k1, self.k2, self.k3) < 0:
            raise ValueError("coefficients k1, k2, k3 must be nonnegative")

    @property
    def s31(self) -> float:
        return max(0.0, self.s11 - self.s22)

    @property
    def s32(self) -> float:
        return self.s12 - self.s21

    def as_record(self) -> dict:
        return {
            "gamma": self.kernel.gamma,
            "k1": self.k1, "k2": self.k2, "k3": self.k3,
            "s1_box": [self.s11, self.s12],
            "s2_box": [self.s21, self.s22],
        }


@dataclass(frozen=True)
class GridSpec:
    """Lattice spacings and the tail cutoff x1 (x1 >= 4 for valid tails)."""

    ds1: float
    ds2: float
    dt: float
    x1: float

    def __post_init__(self):
        _require_finite(self)
        if self.ds1 < 0 or self.ds2 < 0 or self.dt < 0:
            raise ValueError("spacings must be nonnegative")

    def as_record(self) -> dict:
        return {"ds1": self.ds1, "ds2": self.ds2, "dt": self.dt, "x1": self.x1}


@dataclass(frozen=True)
class SupCertificate:
    """A proven bound: A(s1,s2,t) <= bound on box x [0, inf).

    ``m11``, ``m22``, ``mtt`` bound the second derivatives.  ``ds3`` is the
    s3 spacing of a certificate from the (s3, t) walk, and None for one from
    the (s1, s2, t) walk; only the former records it.
    """

    problem: SupProblem
    grid: GridSpec
    m0: float
    m11: float
    m22: float
    mtt: float
    tail: float
    bound: float
    ds3: Optional[float] = None

    def as_record(self) -> dict:
        s3_walk = {} if self.ds3 is None else {"ds3": self.ds3}
        return {
            "problem": self.problem.as_record(),
            "grid": self.grid.as_record(),
            **s3_walk,
            "m0": self.m0,
            "m11": self.m11, "m22": self.m22, "mtt": self.mtt,
            "tail": self.tail,
            "bound": self.bound,
        }


def _A_sum(problem: SupProblem, t: np.ndarray, f1, f2, f3):
    """A = k1 f1 - k2 f2 - k3 f3 over t, summed from zero in that order, of
    f1 = Re F(-s1+it), f2 = Re F(-(s1-s2)+it) and f3 = Re F(it); a term whose
    coefficient is zero is skipped, and its f is not read."""
    val = np.zeros_like(t)
    if problem.k1:
        val = val + problem.k1 * f1
    if problem.k2:
        val = val - problem.k2 * f2
    if problem.k3:
        val = val - problem.k3 * f3
    return val


def A_eval(problem: SupProblem, s1, s2, t) -> np.ndarray:
    """A at a box point, vectorized over t (and over s1, s2 of t's shape)."""
    kern = problem.kernel
    t_arr = np.asarray(t, dtype=float)
    it = 1j * t_arr
    # a zero coefficient's term is 0 and its F is never evaluated
    val = _A_sum(problem, t_arr,
                 problem.k1 and np.real(kern.F(-s1 + it)),
                 problem.k2 and np.real(kern.F(-(s1 - s2) + it)),
                 problem.k3 and np.real(kern.F(it)))
    if np.isscalar(t):
        return float(val)
    return val


def tail_bound(problem: SupProblem, x1: float) -> float:
    """Sum of the four tail majorants at t = x1; valid for every t >= x1."""
    if x1 < 4.0:
        raise ValueError("tail bounds require x1 >= 4")
    g = problem.kernel.gamma
    k1, k2 = problem.k1, problem.k2
    s11, s12 = problem.s11, problem.s12
    s31, s32 = problem.s31, problem.s32
    t = x1
    t2 = t * t
    a1 = problem.kernel.f0 * (
        t2 * max(0.0, s32 * k2 - s11 * k1) + s11 * s32 * max(0.0, s11 * k2 - s32 * k1)
    ) / ((s32 * s32 + t2) * (s11 * s11 + t2))
    a2 = 8.0 * g**3 * k2 * s32 * t2 / (s31 * s31 + t2) ** 3
    e12 = math.exp(2.0 * g * s12)
    e32 = math.exp(2.0 * g * s32)
    a3 = 4.0 * g * g * (k1 * (1.0 + e12) / (s12 * s12 + t2) ** 2
                        + k2 * (1.0 + e32) / (s32 * s32 + t2) ** 2)
    a4 = 4.0 * (k1 * (1.0 + e12 + 2.0 * g * math.hypot(s12, t) * e12)
                + k2 * (1.0 + e32 + 2.0 * g * math.hypot(s32, t) * e32)) / t**6
    return a1 + a2 + a3 + a4


def curvature_bounds(problem: SupProblem) -> Tuple[float, float, float]:
    """Uniform bounds (M11, M22, Mtt) on |d^2A/ds1^2|, |d^2A/ds2^2| and
    |d^2A/dt^2| over the box: k1 M2(s12) + k2 M2(s32), k2 M2(s32) and
    M11 + k3 M2(0), with M2 ``WeightKernel.xf_moments``.  When A depends on
    s3 = s1 - s2 alone (k1 = k3 = 0), all three are k2 M2(s32), which
    bounds |d^2A/ds3^2| as well."""
    moments = problem.kernel.xf_moments
    m22 = problem.k2 * moments(problem.s32) if problem.k2 else 0.0
    m11 = (problem.k1 * moments(problem.s12) if problem.k1 else 0.0) + m22
    mtt = m11 + (problem.k3 * moments(0.0) if problem.k3 else 0.0)
    return m11, m22, mtt


def _lattice(a: float, b: float, step: float) -> np.ndarray:
    """Clamped lattice min(a + j*step, b) covering [a, b] with gaps <= step."""
    if step == 0.0:
        if a != b:
            raise ValueError("zero spacing is only allowed on a degenerate interval")
        return np.array([a])
    n = int(math.floor((b - a) / step)) + 1
    vals = np.minimum(a + step * np.arange(n + 1), b)
    # sorted, and only the clamped tail repeats b
    return vals[:np.searchsorted(vals, b) + 1]


def _fold_max(best: float, block: np.ndarray) -> float:
    """max(best, max(block)), refusing a block that holds a NaN or an inf.

    np.max propagates NaN and a -inf can only show in the minimum, so both
    extremes are tested; a comparison with ``>`` would skip a NaN block.
    """
    hi = float(block.max())
    if not (math.isfinite(hi) and math.isfinite(float(block.min()))):
        raise FloatingPointError(f"non-finite value in a lattice block of {block.size} points")
    return max(best, hi)


def _lattice_error(p: SupProblem) -> float:
    """(k1 + k2 + k3) (2e-10 + 1e-12 F(-s12)), the error budget of one
    lattice value of A: per term, the lattice kernel and ``F`` each keep the
    1e-10 closed-form budget, plus rounding relative to |Re F(-s+it)| <=
    F(-s) <= F(-s12).  It bounds the distance of a lattice value from
    ``A_eval``'s, and so from A; ``_walk`` allows it once for each of the
    two values it compares."""
    return (p.k1 + p.k2 + p.k3) * (2e-10 + 1e-12 * p.kernel.F_real(-p.s12))


def grid_max(problem: SupProblem, grid: GridSpec) -> float:
    """Exact maximum of A over the (s1, s2, t) lattice, by ``_walk``, which
    evaluates only the t columns that can hold it.  Raises
    FloatingPointError if a value the walk evaluates is not finite."""
    return _walk(problem, _lattice(problem.s11, problem.s12, grid.ds1),
                 _lattice(problem.s21, problem.s22, grid.ds2),
                 LatticeWork(problem.kernel, _lattice(0.0, grid.x1, grid.dt)), grid.dt,
                 curvature_bounds(problem)[2])


def _walk(p: SupProblem, s1_vals: np.ndarray, s2_vals: np.ndarray, work: LatticeWork,
          dt: float, mtt: float) -> float:
    """Maximum of A = k1 Re F(-s1+it) - k2 Re F(-(s1-s2)+it) - k3 Re F(it)
    over the lattice s1_vals x s2_vals x t_vals, with ``work`` the workspace
    of the t lattice t_vals, spaced dt, and |d^2A/dt^2| <= mtt.

    When the coarse lattice, every COARSE_STEP-th t, keeps the t slack
    within the budget, mtt (COARSE_STEP dt)^2/8 <= SLACK_BUDGET (k1 + k2 +
    k3), the walk takes two passes.  The coarse pass evaluates every s row
    on t_vals[::COARSE_STEP] and the last t, and keeps each column's
    maximum.  On a segment of width h between neighbouring coarse columns,
    every row of A lies below the larger of its two end values plus h^2/8
    mtt, and each computed value within ``_lattice_error`` of the true one;
    so where the larger column maximum plus h^2/8 mtt + 2 ``_lattice_error``
    stays below the coarse maximum, no value inside the segment can reach
    it, and the segment is pruned: its points are never evaluated.  The
    second pass evaluates the interior columns of the other segments, and
    the maximum is that of both passes.  Otherwise one pass evaluates the
    whole lattice.  Either way each lattice point is evaluated at most
    once, by the same elementwise operations, so the maximum is the
    lattice's, bit for bit.

    Each pass runs ``_blocks``, and every block it evaluates goes through
    ``_fold_max``: raises FloatingPointError if a value the walk evaluates
    is not finite.
    """
    best = -math.inf
    if mtt * (COARSE_STEP * dt) ** 2 / 8.0 <= SLACK_BUDGET * (p.k1 + p.k2 + p.k3):
        coarse = np.arange(0, work.size, COARSE_STEP)
        if coarse[-1] != work.size - 1:
            coarse = np.append(coarse, work.size - 1)
        col = np.full(coarse.size, -math.inf)
        for block in _blocks(p, work.take(coarse), s1_vals, s2_vals):
            best = _fold_max(best, block)
            np.maximum(col, block.reshape(-1, coarse.size).max(axis=0), out=col)
        h = np.diff(work.t[coarse])
        reach = np.maximum(col[:-1], col[1:]) + h * h / 8.0 * mtt + 2.0 * _lattice_error(p)
        # column k lies in the segment that starts at the last coarse column
        # <= k; a NaN reach keeps its segment
        inside = np.repeat(~(reach < best), np.diff(coarse))
        inside[coarse[:-1]] = False
        kept = np.flatnonzero(inside)
        if not kept.size:
            return best
        work = work.take(kept)
    for block in _blocks(p, work, s1_vals, s2_vals):
        best = _fold_max(best, block)
    return best


def _blocks(p: SupProblem, work: LatticeWork, s1_vals: np.ndarray, s2_vals: np.ndarray):
    """A over s1_vals x s2_vals x the t values of ``work``, as blocks whose
    last axis is t.

    With n_t t values, an s1 block holds rows = max(1, BLOCK_POINTS // n_t)
    values of s1.  Per s1 block the base k1 Re F(-s1+it) - k3 Re F(it) is
    built once and, without a k2 term, is the block; otherwise each block
    takes a chunk of max(1, rows // (values in the s1 block)) s2 values, and
    one ``re_F`` call evaluates its rows s1 - s2 for all of them, so a call
    holds at most BLOCK_POINTS points unless one t row alone is longer.  The
    block, of shape (s2 chunk, s1 block, n_t), is the base, broadcast, minus
    k2 times those rows.  The k3 row is evaluated once per pass.
    """
    n_t = work.size
    rows = max(1, BLOCK_POINTS // n_t)
    f3 = work.re_F(np.zeros(1))[0] * p.k3 if p.k3 else None
    for i in range(0, s1_vals.size, rows):
        s1 = s1_vals[i:i + rows]
        base = work.re_F(s1) * p.k1 if p.k1 else np.zeros((s1.size, n_t))
        if p.k3:
            base -= f3
        if not p.k2:
            yield base
            continue
        chunk = max(1, rows // s1.size)
        for j in range(0, s2_vals.size, chunk):
            s2 = s2_vals[j:j + chunk]
            yield base - (work.re_F((s1 - s2[:, None]).ravel()) * p.k2).reshape(
                s2.size, s1.size, n_t)


def _depends_on_s3(p: SupProblem) -> bool:
    """Whether A of p is -k2 Re F(-s3+it), a function of s3 = s1 - s2 and t
    alone, on a box whose s1 side is not a point."""
    return p.k1 == 0.0 and p.k3 == 0.0 and p.k2 > 0.0 and p.s11 < p.s12


def _two_digits_down(x: float) -> float:
    """x > 0 rounded down to two significant decimal digits, up to the one
    rounding of x 10^e: the spacing is then a short decimal, the same on
    every platform unless x lies within rounding of one, where a last-bit
    difference in a moment could move it."""
    e = 1 - math.floor(math.log10(x))  # 10 <= x 10^e < 100
    scale = 10.0 ** abs(e)  # exact: a power of ten below 1e23
    return math.floor(x * scale) / scale if e >= 0 else math.floor(x / scale) * scale


def budget_grid(problems: Sequence[SupProblem], x1: float,
                bounds: Sequence[Tuple[float, float, float]]) -> GridSpec:
    """A lattice with tail cutoff x1, as coarse as an equal split of the
    budget allows, on which the second-order slack of each problem of a
    group that shares kernel and box stays within SLACK_BUDGET min_p(k1 +
    k2 + k3); ``bounds`` holds each problem's ``curvature_bounds``.

    The walks step along t over [0, x1] and along s1 and s2 where the box is
    not a point; when every problem depends on s3 alone (``_depends_on_s3``)
    the one walk steps along t and s3 over [s11 - s22, s12 - s21], and ds1
    = ds2 = ds3 where the box is not a point.  Each coordinate walked gets an
    equal share beta of the budget and the spacing h = min(width, sqrt(8
    beta / max_p M_ii)), the root rounded down to two significant digits,
    and the whole width where no problem curves along it.
    The minimum runs over the problems with a nonzero coefficient: A of one
    without is 0 and takes no slack.  Raises ValueError when x1 < 4.
    """
    if x1 < 4.0:
        raise ValueError("tail bounds require x1 >= 4")
    p = problems[0]
    m11, m22, mtt = (max(m) for m in zip(*bounds))
    on_s3 = all(map(_depends_on_s3, problems))
    if on_s3:
        coords = ((p.s12 - p.s21) - (p.s11 - p.s22), m22), (x1, mtt)
    else:
        coords = (p.s12 - p.s11, m11), (p.s22 - p.s21, m22), (x1, mtt)
    least = min((q.k1 + q.k2 + q.k3 for q in problems if q.k1 + q.k2 + q.k3 > 0), default=0.0)
    beta = SLACK_BUDGET * least / sum(width > 0 for width, _ in coords)
    h = [min(width, _two_digits_down(math.sqrt(8.0 * beta / m))) if m > 0 else width
         for width, m in coords]
    if on_s3:
        return GridSpec(ds1=h[0], ds2=h[0] if p.s22 > p.s21 else 0.0, dt=h[1], x1=x1)
    return GridSpec(ds1=h[0], ds2=h[1], dt=h[2], x1=x1)


def _group_key(p: SupProblem) -> tuple:
    """What the problems of a supremum group share: kernel and (s1, s2) box."""
    return p.kernel, p.s11, p.s12, p.s21, p.s22


def sup_bounds(problems: Sequence[SupProblem],
               grid: Union[GridSpec, float]) -> Tuple[SupCertificate, ...]:
    """Certify an upper bound for sup A over box x [0, inf) for each problem
    of a group that shares kernel and box.

    ``grid`` is a GridSpec, or a tail cutoff x1 for which ``budget_grid``
    chooses the lattice.  Each problem's ``curvature_bounds`` are computed
    once, and the group's t lattice and its ``kernel.LatticeWork`` once.
    Each problem is walked alone by ``_walk`` on one of two lattices, by its
    own coefficients and box whatever its group: a problem that depends on
    s3 = s1 - s2 alone (``_depends_on_s3``) on s3 x {0} x t with ds3 =
    max(ds1, ds2), every other on the (s1, s2, t) lattice of ``grid_max``.
    Each bound is max(tail, M0 + sum_i h_i^2/8 M_ii).

    Raises ValueError when the problems differ in kernel or box, or (from
    tail_bound) when x1 < 4, and FloatingPointError instead of certifying
    when a tail or the slack is not finite (builtin max(tail, nan) would
    return tail; M0 is finite by ``_fold_max``).
    An empty group certifies nothing.
    """
    problems = tuple(problems)
    if not problems:
        return ()
    if len(set(map(_group_key, problems))) > 1:
        raise ValueError("a supremum group must share its kernel and (s1, s2) box")
    bounds = [curvature_bounds(p) for p in problems]
    if not isinstance(grid, GridSpec):
        grid = budget_grid(problems, grid, bounds)
    work = LatticeWork(problems[0].kernel, _lattice(0.0, grid.x1, grid.dt))
    certs = []
    for p, (m11, m22, mtt) in zip(problems, bounds):
        tail = tail_bound(p, grid.x1)
        if _depends_on_s3(p):
            # A = -k2 Re F(-s3+it) on s3 x {0}: the base is 0, s3 - 0.0 is s3
            # exactly, and the s3 range may reach below 0, where s31 clamps.
            # |d^2A/ds3^2| <= M22 = M11 and ds3^2 <= ds1^2 + ds2^2: the slack
            # is never above the (s1, s2) walk's
            ds3 = max(grid.ds1, grid.ds2)
            s_vals = _lattice(p.s11 - p.s22, p.s12 - p.s21, ds3), np.zeros(1)
            steps = ((ds3, m22), (grid.dt, mtt))
        else:
            ds3 = None
            s_vals = _lattice(p.s11, p.s12, grid.ds1), _lattice(p.s21, p.s22, grid.ds2)
            steps = ((grid.ds1, m11), (grid.ds2, m22), (grid.dt, mtt))
        m0 = _walk(p, *s_vals, work, grid.dt, mtt)
        slack = sum(h * h / 8.0 * m for h, m in steps)
        if not (math.isfinite(tail) and math.isfinite(slack)):
            raise FloatingPointError(f"non-finite sup bound: tail {tail!r}, "
                                     f"second-order slack {slack!r}")
        certs.append(SupCertificate(problem=p, grid=grid, m0=m0, m11=m11, m22=m22, mtt=mtt,
                                    tail=tail, bound=max(tail, m0 + slack), ds3=ds3))
    return tuple(certs)


def sup_bound(problem: SupProblem, grid: Union[GridSpec, float]) -> SupCertificate:
    """Certify an upper bound for sup A over box x [0, inf): the group of
    one, ``sup_bounds((problem,), grid)[0]``."""
    return sup_bounds((problem,), grid)[0]


def domination_checks(certs: Sequence[SupCertificate], samples: int,
                      seed: int) -> Tuple[dict, ...]:
    """Monte-Carlo audit that each certified bound dominates sampled values
    over box x [0, 3 x1]: one record per certificate, in input order.

    Certificates that share kernel, (s1, s2) box and x1 form a group, which
    shares its samples: its s1, s2 and t are drawn once, by three
    ``uniform`` calls on a fresh generator seeded ``seed``, and each term
    Re F(-s1+it), Re F(-(s1-s2)+it) and Re F(it) that some member reads is
    evaluated once.  Each member then sums its terms with ``_A_sum``, as
    ``A_eval`` does, so its record is the one it would get alone.

    A record gives the worst excess A - bound over the sample (negative =
    all dominated).  The certificate is the proof; a positive excess refutes
    it, and a NaN term gives a NaN excess, which no caller may read as
    dominated.
    """
    certs = tuple(certs)
    groups = {}
    for i, cert in enumerate(certs):
        groups.setdefault((*_group_key(cert.problem), cert.grid.x1), []).append(i)
    excess = [None] * len(certs)
    for members in groups.values():
        for i, worst in zip(members, _sampled_excess([certs[i] for i in members],
                                                     samples, seed)):
            excess[i] = worst
    return tuple({"seed": seed, "samples": samples, "t_hi": 3.0 * cert.grid.x1,
                  "max_excess": worst} for cert, worst in zip(certs, excess))


def _sampled_excess(group: Sequence[SupCertificate], samples: int, seed: int) -> list:
    """max(A - bound) over one sample of box x [0, 3 x1] for each certificate
    of a group that shares kernel, box and x1.  The group's arrays are freed
    on return, before the next group draws."""
    p0 = group[0].problem
    rng = np.random.default_rng(seed)
    s1 = rng.uniform(p0.s11, p0.s12, samples)
    s2 = rng.uniform(p0.s21, p0.s22, samples)
    t = rng.uniform(0.0, 3.0 * group[0].grid.x1, samples)
    it = 1j * t
    probs = [cert.problem for cert in group]
    kern = p0.kernel
    # each term keeps a copy of its real part, so that its complex F array
    # is freed at once: three kept complex arrays raised the peak memory
    f1 = kern.F(-s1 + it).real.copy() if any(p.k1 for p in probs) else None
    f2 = kern.F(-(s1 - s2) + it).real.copy() if any(p.k2 for p in probs) else None
    f3 = kern.F(it).real.copy() if any(p.k3 for p in probs) else None
    return [float(np.max(_A_sum(p, t, f1, f2, f3) - cert.bound))
            for cert, p in zip(group, probs)]


def domination_check(cert: SupCertificate, samples: int, seed: int) -> dict:
    """Monte-Carlo audit of one certificate: the group of one,
    ``domination_checks((cert,), samples, seed)[0]``."""
    return domination_checks((cert,), samples, seed)[0]
