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
of one.

M0 is computed by ``_walk``, one walk per problem, on the s1, s2 and t
values of ``grid_max`` or on s3, {0} and t for the (s3, t) lattice of
``_s3_max``, in blocks of whole rows of the t lattice, at most
BLOCK_POINTS points each unless one row alone is longer.  Per s1 block
the base k1 F(-s1+it) - k3 F(it) is built once; then, one s2 value at a
time, the k2 rows F(-(s1-s2)+it) are subtracted from it, and each block
is reduced to its maximum at once, so no lattice-sized array is built.
One ``kernel.LatticeWork`` per walk computes the trigonometric factors of
the t lattice once, and the k3 row is evaluated once per walk.

Certification fails closed: ``SupProblem`` and ``GridSpec`` refuse a NaN
or infinite field with a ValueError that names it, and a NaN or inf
anywhere in the lattice, the tail or the slack raises
FloatingPointError, and no certificate is produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .kernel import LatticeWork, WeightKernel, _require_finite

#: lattice points evaluated and reduced to their maximum at once by grid_max;
#: a block holds max(1, BLOCK_POINTS // n_t) whole t rows
BLOCK_POINTS = 4096

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


def A_eval(problem: SupProblem, s1, s2, t) -> np.ndarray:
    """A at a box point, vectorized over t (and over s1, s2 of t's shape)."""
    kern = problem.kernel
    t_arr = np.asarray(t, dtype=float)
    s3 = s1 - s2
    val = np.zeros_like(t_arr)
    if problem.k1:
        val = val + problem.k1 * np.real(kern.F(-s1 + 1j * t_arr))
    if problem.k2:
        val = val - problem.k2 * np.real(kern.F(-s3 + 1j * t_arr))
    if problem.k3:
        val = val - problem.k3 * np.real(kern.F(1j * t_arr))
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


def grid_max(problem: SupProblem, grid: GridSpec) -> float:
    """Exact maximum of A over the (s1, s2, t) lattice.  Raises
    FloatingPointError if a lattice value is not finite."""
    return _walk(problem, _lattice(problem.s11, problem.s12, grid.ds1),
                 _lattice(problem.s21, problem.s22, grid.ds2), _lattice(0.0, grid.x1, grid.dt))


def _s3_max(problem: SupProblem, grid: GridSpec) -> float:
    """Exact maximum of A = -k2 Re F(-s3+it) over the (s3, t) lattice, s3 on
    [s11 - s22, s12 - s21] with spacing max(ds1, ds2), for a problem that
    depends on s3 alone.

    It is ``_walk`` on s3 x {0} x t: the base is 0, and s3 - 0.0 is s3
    exactly.  The s3 range may reach below 0, where SupProblem.s31 clamps.
    """
    return _walk(problem, _lattice(problem.s11 - problem.s22, problem.s12 - problem.s21,
                                   max(grid.ds1, grid.ds2)),
                 np.zeros(1), _lattice(0.0, grid.x1, grid.dt))


def _walk(p: SupProblem, s1_vals: np.ndarray, s2_vals: np.ndarray,
          t_vals: np.ndarray) -> float:
    """Maximum of k1 Re F(-s1+it) - k2 Re F(-(s1-s2)+it) - k3 Re F(it) over
    the lattice s1_vals x s2_vals x t_vals, in blocks of whole t rows.

    A block holds max(1, BLOCK_POINTS // n_t) values of s1 by all n_t values
    of t; it exceeds BLOCK_POINTS points only when n_t does.  Per s1 block
    the walk builds the base k1 Re F(-s1+it) - k3 Re F(it) and, without a
    k2 term, folds it; otherwise, per s2 value, it folds base - k2 Re
    F(-(s1-s2)+it).  The trigonometric factors of the t lattice and the k3
    row are computed once per call, in one LatticeWork.  Raises
    FloatingPointError if a lattice value is not finite.
    """
    rows = max(1, BLOCK_POINTS // t_vals.size)
    work = LatticeWork(p.kernel, t_vals)
    f3 = work.re_F(np.zeros(1))[0] * p.k3 if p.k3 else None
    best = -math.inf
    for i in range(0, s1_vals.size, rows):
        s1 = s1_vals[i:i + rows]
        base = work.re_F(s1) * p.k1 if p.k1 else np.zeros((s1.size, t_vals.size))
        if p.k3:
            base -= f3
        if not p.k2:
            best = _fold_max(best, base)
            continue
        for s2 in s2_vals:
            best = _fold_max(best, base - work.re_F(s1 - s2) * p.k2)
    return best


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


def budget_grid(problems: Sequence[SupProblem], x1: float) -> GridSpec:
    """A lattice with tail cutoff x1, as coarse as an equal split of the
    budget allows, on which the second-order slack of each problem of a
    group that shares kernel and box stays within SLACK_BUDGET min_p(k1 +
    k2 + k3).

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
    m11, m22, mtt = (max(m) for m in zip(*map(curvature_bounds, problems)))
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


def sup_bounds(problems: Sequence[SupProblem],
               grid: Union[GridSpec, float]) -> Tuple[SupCertificate, ...]:
    """Certify an upper bound for sup A over box x [0, inf) for each problem
    of a group that shares kernel and box.

    ``grid`` is a GridSpec, or a tail cutoff x1 for which ``budget_grid``
    chooses the lattice.  Each problem is walked alone on one of two
    lattices, by its own coefficients and box whatever its group: a problem
    that depends on s3 = s1 - s2 alone (``_depends_on_s3``) on the (s3, t)
    lattice of ``_s3_max`` with ds3 = max(ds1, ds2), every other on the
    (s1, s2, t) lattice of ``grid_max``.  Each bound is max(tail, M0 +
    sum_i h_i^2/8 M_ii).

    Raises ValueError when the problems differ in kernel or box, or (from
    tail_bound) when x1 < 4, and FloatingPointError instead of certifying
    when a tail or the slack is not finite (builtin max(tail, nan) would
    return tail; M0 is finite by ``_fold_max``).
    An empty group certifies nothing.
    """
    problems = tuple(problems)
    if not problems:
        return ()
    shared = [(p.kernel, p.s11, p.s12, p.s21, p.s22) for p in problems]
    if any(key != shared[0] for key in shared):
        raise ValueError("a supremum group must share its kernel and (s1, s2) box")
    if not isinstance(grid, GridSpec):
        grid = budget_grid(problems, grid)
    certs = []
    for p in problems:
        tail = tail_bound(p, grid.x1)
        m11, m22, mtt = curvature_bounds(p)
        on_s3 = _depends_on_s3(p)
        m0 = (_s3_max if on_s3 else grid_max)(p, grid)
        if on_s3:
            # |d^2A/ds3^2| <= M22 = M11 and ds3^2 <= ds1^2 + ds2^2: the slack
            # is never above the (s1, s2) walk's
            ds3 = max(grid.ds1, grid.ds2)
            steps = ((ds3, m22), (grid.dt, mtt))
        else:
            ds3 = None
            steps = ((grid.ds1, m11), (grid.ds2, m22), (grid.dt, mtt))
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


def domination_check(cert: SupCertificate, samples: int = 100_000,
                     seed: int = 0) -> dict:
    """Monte-Carlo audit that the certified bound dominates sampled values
    over box x [0, 3 x1].

    Returns the worst excess A - bound over the sample (negative = all
    dominated).  The certificate is the proof; a positive excess refutes it.
    """
    rng = np.random.default_rng(seed)
    prob = cert.problem
    hi = 3.0 * cert.grid.x1
    s1 = rng.uniform(prob.s11, prob.s12, samples)
    s2 = rng.uniform(prob.s21, prob.s22, samples)
    t = rng.uniform(0.0, hi, samples)
    worst = float(np.max(A_eval(prob, s1, s2, t) - cert.bound))
    return {"seed": seed, "samples": samples, "t_hi": hi, "max_excess": worst}
