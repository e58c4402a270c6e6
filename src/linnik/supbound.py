"""Certified upper bounds for box suprema of A(s1, s2, t).

A(s1, s2, t) = Re{ k1 F(-s1+it) - k2 F(-(s1-s2)+it) - k3 F(it) } has to be
bounded above over a parameter box times all real t.  By conjugate symmetry
t >= 0 suffices.  The certificate combines three ingredients:

  * a finite-grid maximum M0 over [s11,s12] x [s21,s22] x [0,x1],
  * first-derivative bounds D1, D2, D3 converting grid spacing into an
    off-grid error term,
  * closed-form tail majorants A1..A4 valid for every t >= x1 (monotone
    decreasing in t, so evaluating them at x1 covers the whole tail).

The final bound max(tail, M0 + ds1/2 D1 + ds2/2 D2 + dt/2 D3) dominates
A everywhere on box x [0, inf).

M0 is computed by walking the lattice in blocks of at most BLOCK_POINTS
points, each filled from ``WeightKernel.re_F_lattice`` and reduced to its
maximum at once, so no lattice-sized array is built.  Certification fails
closed: a NaN or inf anywhere in the lattice, the tail or the grid term
raises FloatingPointError, and no certificate is produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .kernel import WeightKernel

#: lattice points evaluated and reduced to their maximum at once by grid_max
BLOCK_POINTS = 4096
#: a block spans at most BLOCK_POINTS // BLOCK_ROWS t values, so it has room
#: for this many rows and the kernel's cos/sin of each t serves all of them
BLOCK_ROWS = 8


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
        if self.ds1 < 0 or self.ds2 < 0 or self.dt < 0:
            raise ValueError("spacings must be nonnegative")

    def as_record(self) -> dict:
        return {"ds1": self.ds1, "ds2": self.ds2, "dt": self.dt, "x1": self.x1}


@dataclass(frozen=True)
class SupCertificate:
    """A proven bound: A(s1,s2,t) <= bound on box x [0, inf)."""

    problem: SupProblem
    grid: GridSpec
    m0: float
    d1: float
    d2: float
    d3: float
    tail: float
    bound: float

    def as_record(self) -> dict:
        return {
            "problem": self.problem.as_record(),
            "grid": self.grid.as_record(),
            "m0": self.m0,
            "d1": self.d1, "d2": self.d2, "d3": self.d3,
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
    a1 = (16.0 * g**5 / 15.0) * (
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


def derivative_bounds(problem: SupProblem) -> Tuple[float, float, float]:
    """Uniform bounds (D1, D2, D3) on |dA/ds1|, |dA/ds2|, |dA/dt| over the box."""
    kern = problem.kernel
    d0 = max(problem.k2 - problem.k1,
             problem.k1 - problem.k2 * math.exp(-2.0 * kern.gamma * problem.s22))
    i1 = kern.xf_exp_moment(problem.s12)
    d1 = d0 * i1
    d2 = problem.k2 * kern.xf_exp_moment(problem.s32) if problem.k2 else 0.0
    d3 = d0 * i1 + (problem.k3 * kern.xf_exp_moment(0.0) if problem.k3 else 0.0)
    return d1, d2, d3


def _lattice(a: float, b: float, step: float) -> np.ndarray:
    """Clamped lattice min(a + j*step, b) covering [a, b] with gaps <= step."""
    if step == 0.0:
        if a != b:
            raise ValueError("zero spacing is only allowed on a degenerate interval")
        return np.array([a])
    n = int(math.floor((b - a) / step)) + 1
    vals = np.minimum(a + step * np.arange(n + 1), b)
    return np.unique(vals)


def _fold_max(best: float, block: np.ndarray) -> float:
    """max(best, max(block)), refusing a block that holds a NaN or an inf.

    np.max propagates NaN and a -inf can only show in the minimum, so both
    extremes are tested; a comparison with ``>`` would skip a NaN block.
    """
    hi = float(np.max(block))
    if not (math.isfinite(hi) and math.isfinite(float(np.min(block)))):
        raise FloatingPointError(f"non-finite value in a lattice block of {block.size} points")
    return max(best, hi)


def grid_max(problem: SupProblem, grid: GridSpec) -> float:
    """Exact maximum of A over the lattice, walked in blocks.

    A block holds at most BLOCK_POINTS lattice points, at most
    BLOCK_POINTS // BLOCK_ROWS of them along t, and is reduced to its
    maximum at once.  Per t block the k3 row is evaluated once, the k1 term
    once per s1 row, and the k2 term in chunks of (s1, s2) rows.  Raises
    FloatingPointError if any lattice value is not finite.
    """
    kern = problem.kernel
    k1, k2, k3 = problem.k1, problem.k2, problem.k3
    s1_vals = _lattice(problem.s11, problem.s12, grid.ds1)
    s2_vals = _lattice(problem.s21, problem.s22, grid.ds2)
    if grid.x1 == 0.0:
        t_vals = np.array([0.0])
    else:
        t_vals = _lattice(0.0, grid.x1, grid.dt)

    width = min(t_vals.size, BLOCK_POINTS // BLOCK_ROWS)
    rows = BLOCK_POINTS // width
    best = -math.inf
    for j in range(0, t_vals.size, width):
        t = t_vals[j:j + width]
        f3 = k3 * kern.re_F_lattice(np.zeros(1), t) if k3 else 0.0
        for i in range(0, s1_vals.size, rows):
            s1 = s1_vals[i:i + rows]
            base = (k1 * kern.re_F_lattice(s1, t) if k1 else np.zeros((s1.size, t.size))) - f3
            if not k2:
                best = _fold_max(best, base)
                continue
            s3 = (s1[:, None] - s2_vals).ravel()
            owner = np.repeat(np.arange(s1.size), s2_vals.size)
            for k in range(0, s3.size, rows):
                block = base[owner[k:k + rows]] - k2 * kern.re_F_lattice(s3[k:k + rows], t)
                best = _fold_max(best, block)
    return best


def sup_bound(problem: SupProblem, grid: GridSpec) -> SupCertificate:
    """Certify an upper bound for sup A over box x [0, inf).

    Raises ValueError (from tail_bound) when x1 < 4, and FloatingPointError
    instead of certifying when the tail or the grid term is not finite
    (builtin max(tail, nan) would return tail).
    """
    tail = tail_bound(problem, grid.x1)
    d1, d2, d3 = derivative_bounds(problem)
    m0 = grid_max(problem, grid)
    grid_term = m0 + 0.5 * grid.ds1 * d1 + 0.5 * grid.ds2 * d2 + 0.5 * grid.dt * d3
    if not (math.isfinite(tail) and math.isfinite(grid_term)):
        raise FloatingPointError(f"non-finite sup bound: tail {tail!r}, grid term {grid_term!r}")
    bound = max(tail, grid_term)
    return SupCertificate(problem=problem, grid=grid, m0=m0,
                          d1=d1, d2=d2, d3=d3, tail=tail, bound=bound)


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
