"""Sup-certificate tests: domination, tail validity, derivative soundness."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linnik import supbound, tables
from linnik.kernel import SMALL_Z_RADIUS, LatticeWork, WeightKernel
from linnik.supbound import (BLOCK_POINTS, COARSE_STEP, SLACK_BUDGET, A_eval, GridSpec,
                             SupProblem, _lattice, _lattice_error, budget_grid,
                             curvature_bounds, domination_check, domination_checks, grid_max,
                             sup_bound, sup_bounds, tail_bound)

KERN = WeightKernel(0.93)

# a representative problem of each flavour that actually occurs
PROBLEMS = [
    # pinned s1, swept s2 (second-zero tables)
    SupProblem(WeightKernel(1.058), k1=0.801, k2=1.392, k3=0.0,
               s11=0.903, s12=0.903, s21=0.34, s22=0.36),
    # swept s1, k3 term (second-zero tables, large lambda1)
    SupProblem(WeightKernel(0.99), k1=0.85, k2=0.0, k3=1.4725,
               s11=0.68, s12=0.70, s21=0.0, s22=0.0),
    # both boxes wide (second-character tables)
    SupProblem(WeightKernel(0.78), k1=0.25, k2=0.734, k3=0.0,
               s11=0.903, s12=1.69, s21=0.34, s22=0.36),
]
GRIDS = [GridSpec(0.0, 0.004, 0.004, 15.0),
         GridSpec(0.004, 0.0, 0.004, 15.0),
         GridSpec(0.015, 0.007, 0.015, 7.0)]

# problems whose A = -k2 Re F(-s3+it) depends on s3 = s1 - s2 alone, over a
# box whose s1 side is not a point: sup_bound walks them on (s3, t)
S3_CASES = [
    # the second supremum of a second-character row (tables 4 and 8)
    (SupProblem(WeightKernel(0.94), k1=0.0, k2=0.25, k3=0.0,
                s11=0.903, s12=1.69, s21=0.34, s22=0.52), GridSpec(0.015, 0.007, 0.015, 7.0)),
    # the one supremum of a table-5 row
    (SupProblem(WeightKernel(1.01), k1=0.0, k2=0.25, k3=0.0,
                s11=0.82, s12=1.5, s21=0.34, s22=0.5), GridSpec(0.010, 0.007, 0.010, 7.0)),
    # s11 < s22, and ds2 > ds1: the s3 lattice, spaced ds2, runs from -0.25
    # through 0 to 0.4, so rows near z = 0 take the series value
    (SupProblem(WeightKernel(1.1), k1=0.0, k2=0.8, k3=0.0,
                s11=0.2, s12=0.5, s21=0.1, s22=0.45), GridSpec(0.01, 0.015, 0.015, 7.0)),
    # the first case on a fine t lattice, n_t = 1751, where the coarse gate
    # opens and the maximum lies between two coarse columns
    (SupProblem(WeightKernel(0.94), k1=0.0, k2=0.25, k3=0.0,
                s11=0.903, s12=1.69, s21=0.34, s22=0.52), GridSpec(0.015, 0.007, 0.004, 7.0)),
]


def test_A_zero_when_terms_cancel():
    prob = SupProblem(KERN, k1=0.7, k2=0.7, k3=0.0, s11=0.5, s12=0.9, s21=0.0, s22=0.0)
    t = np.linspace(0.0, 20.0, 101)
    assert np.max(np.abs(A_eval(prob, 0.7, 0.0, t))) < 1e-14


def test_A_even_in_t():
    prob = PROBLEMS[0]
    for t in (0.3, 1.7, 9.2):
        assert A_eval(prob, 0.903, 0.35, t) == pytest.approx(
            A_eval(prob, 0.903, 0.35, -t), abs=1e-13)


def test_A_decays_for_large_t():
    prob = PROBLEMS[1]
    gamma = prob.kernel.gamma
    t = np.linspace(100.0 * gamma, 100.0 * gamma + 50.0, 500)
    assert np.max(np.abs(A_eval(prob, 0.69, 0.0, t))) < 0.01


def test_tail_zero_without_k1_k2():
    prob = SupProblem(KERN, k1=0.0, k2=0.0, k3=2.0, s11=0.1, s12=0.5, s21=0.0, s22=0.0)
    assert tail_bound(prob, 6.0) == 0.0


def test_tail_requires_x1_at_least_4():
    with pytest.raises(ValueError):
        tail_bound(PROBLEMS[0], 3.9)


@pytest.mark.parametrize("prob,grid", list(zip(PROBLEMS, GRIDS)))
def test_tail_dominates_sampled_tail_values(prob, grid):
    rng = np.random.default_rng(21)
    x1 = grid.x1
    bound = tail_bound(prob, x1)
    t = rng.uniform(x1, x1 + 100.0, 10_000)
    s1 = rng.uniform(prob.s11, prob.s12, 10_000)
    s2 = rng.uniform(prob.s21, prob.s22, 10_000)
    kern = prob.kernel
    vals = (prob.k1 * np.real(kern.F(-s1 + 1j * t))
            - prob.k2 * np.real(kern.F(-(s1 - s2) + 1j * t))
            - prob.k3 * np.real(kern.F(1j * t)))
    assert np.max(vals) <= bound + 1e-12


def test_tail_nonincreasing_in_x1():
    prob = PROBLEMS[2]
    vals = [tail_bound(prob, x) for x in np.arange(4.0, 20.0, 0.5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("prob", PROBLEMS + [case[0] for case in S3_CASES])
def test_second_derivative_bounds_dominate_finite_differences(prob):
    rng = np.random.default_rng(35)
    m11, m22, mtt = curvature_bounds(prob)
    h = 1e-4
    for _ in range(300):
        s1 = rng.uniform(prob.s11 + h, max(prob.s12 - h, prob.s11 + h))
        s2 = rng.uniform(prob.s21 + h, max(prob.s22 - h, prob.s21 + h))
        t = rng.uniform(h, 12.0)
        a = A_eval(prob, s1, s2, t)
        g11 = (A_eval(prob, s1 + h, s2, t) - 2 * a + A_eval(prob, s1 - h, s2, t)) / h**2
        g22 = (A_eval(prob, s1, s2 + h, t) - 2 * a + A_eval(prob, s1, s2 - h, t)) / h**2
        gtt = (A_eval(prob, s1, s2, t + h) - 2 * a + A_eval(prob, s1, s2, t - h)) / h**2
        # the difference quotients carry ~1e-16 |A| / h^2 of rounding
        assert abs(g11) <= m11 * (1 + 1e-6) + 1e-6
        assert abs(g22) <= m22 * (1 + 1e-6) + 1e-6
        assert abs(gtt) <= mtt * (1 + 1e-6) + 1e-6
    if prob.k1 == prob.k3 == 0.0:
        # A depends on s3 = s1 - s2 alone, and each bound is k2 M2(s32)
        assert m11 == m22 == mtt == prob.k2 * prob.kernel.xf_moments(prob.s32)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gamma=st.floats(0.5, 1.3), k1=st.floats(0.0, 2.0), k2=st.floats(0.0, 2.0),
       k3=st.floats(0.0, 2.0), s11=st.floats(0.0, 3.5), w1=st.floats(0.0, 0.4),
       s21=st.floats(0.0, 1.0), w2=st.floats(0.0, 0.4), t0=st.floats(0.0, 12.0),
       h1=st.floats(0.001, 0.3), h2=st.floats(0.001, 0.3), ht=st.floats(0.001, 0.3),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0), s3_walk=st.booleans())
# a cell centred on t = 0, where A = k1 Re F(-s1+it) falls from its maximum by
# k1 (h^2/8 M2(s1) - h^4/384 M4(s1)) at the corners: the h^2/8 term is sharp
@example(gamma=1.0, k1=1.0, k2=0.0, k3=0.0, s11=0.5, w1=0.0, s21=0.0, w2=0.0, t0=-0.05,
         h1=0.1, h2=0.1, ht=0.1, u=0.0, v=0.0, s3_walk=False)
def test_second_order_term_dominates_a_dense_cell(gamma, k1, k2, k3, s11, w1, s21, w2, t0,
                                                  h1, h2, ht, u, v, s3_walk):
    # a cell of either walk inside the box, placed at (u, v): the maximum of A
    # at its corners plus sum h_i^2/8 M_ii bounds A at every point of the cell
    if s3_walk:
        k1 = k3 = 0.0
    prob = SupProblem(WeightKernel(gamma), k1, k2, k3, s11, min(4.0, s11 + w1), s21, s21 + w2)
    m11, m22, mtt = curvature_bounds(prob)
    n = 9
    if s3_walk:
        # the (s3, t) walk: s3 on [s11 - s22, s12 - s21], M33 = M22
        width = (prob.s12 - prob.s21) - (prob.s11 - prob.s22)
        h1 = min(h1, width)
        lo3 = prob.s11 - prob.s22 + u * (width - h1)
        s3, t = np.meshgrid(np.linspace(lo3, lo3 + h1, n), np.linspace(t0, t0 + ht, n))
        corners = max(A_eval(prob, a, 0.0, b) for a in (lo3, lo3 + h1) for b in (t0, t0 + ht))
        dense = np.max(A_eval(prob, s3, 0.0, t))
        slack = h1 * h1 / 8.0 * m22 + ht * ht / 8.0 * mtt
    else:
        h1, h2 = min(h1, prob.s12 - prob.s11), min(h2, prob.s22 - prob.s21)
        lo1 = prob.s11 + u * (prob.s12 - prob.s11 - h1)
        lo2 = prob.s21 + v * (prob.s22 - prob.s21 - h2)
        s1, s2, t = np.meshgrid(np.linspace(lo1, lo1 + h1, n), np.linspace(lo2, lo2 + h2, n),
                                np.linspace(t0, t0 + ht, n))
        corners = max(A_eval(prob, a, b, c) for a in (lo1, lo1 + h1) for b in (lo2, lo2 + h2)
                      for c in (t0, t0 + ht))
        dense = np.max(A_eval(prob, s1, s2, t))
        slack = h1 * h1 / 8.0 * m11 + h2 * h2 / 8.0 * m22 + ht * ht / 8.0 * mtt
    # rounding of F, relative to |Re F(-s+it)| <= F(-s) <= F(-s12) per term
    tol = (k1 + k2 + k3) * 1e-12 * prob.kernel.F_real(-prob.s12)
    assert dense <= corners + slack + tol


def test_grid_max_degenerate_box():
    prob = SupProblem(KERN, k1=1.0, k2=0.5, k3=0.25, s11=0.4, s12=0.4, s21=0.1, s22=0.1)
    grid = GridSpec(0.0, 0.0, 0.0, 0.0)
    m0 = grid_max(prob, grid)
    assert m0 == pytest.approx(float(A_eval(prob, 0.4, 0.1, 0.0)), rel=1e-14)


def _lattice_by_unique(a, b, step):
    """The clamped lattice deduplicated by np.unique, as _lattice once built it."""
    n = int(math.floor((b - a) / step)) + 1
    return np.unique(np.minimum(a + step * np.arange(n + 1), b))


def test_lattice_keeps_the_sorted_clamped_values_through_b():
    rng = np.random.default_rng(13)
    cases = [(0.5, 0.5, 0.01),                  # b == a
             (0.0, 1.0, 0.25), (0.0, 0.3, 0.1),  # b on the lattice
             (0.0, 15.0, 0.004), (0.0, 7.0, 0.015), (0.903, 1.69, 0.015)]
    a = rng.uniform(0.0, 4.0, 3000)
    step = rng.uniform(1e-3, 0.3, 3000)
    cases += zip(a[:1000], a[:1000] + rng.uniform(0.0, 2.0, 1000), step[:1000])
    cases += zip(a[1000:], a[1000:] + rng.integers(0, 200, 2000) * step[1000:], step[1000:])
    for a, b, step in cases:
        got = _lattice(a, b, step)
        assert np.array_equal(got, _lattice_by_unique(a, b, step)), (a, b, step)
        assert got[0] == a and got[-1] == b
    assert np.array_equal(_lattice(0.5, 0.5, 0.01), [0.5])
    assert np.array_equal(_lattice(0.0, 1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_zero_spacing_needs_degenerate_interval():
    prob = PROBLEMS[2]
    with pytest.raises(ValueError):
        grid_max(prob, GridSpec(0.0, 0.007, 0.015, 7.0))


@pytest.mark.parametrize("prob,grid", list(zip(PROBLEMS, GRIDS)))
def test_grid_max_below_bound(prob, grid):
    cert = sup_bound(prob, grid)
    assert grid_max(prob, grid) == cert.m0 and cert.m0 <= cert.bound
    assert cert.bound >= 0.0


@pytest.mark.parametrize("prob,grid", list(zip(PROBLEMS, GRIDS)))
def test_certificate_dominates_monte_carlo(prob, grid):
    cert = sup_bound(prob, grid)
    check = domination_check(cert, samples=100_000, seed=1234)
    assert check["max_excess"] <= 0.0


def _audit_alone(cert, samples: int, seed: int) -> dict:
    """The audit of one certificate with its own draws, summed by A_eval."""
    rng = np.random.default_rng(seed)
    p, hi = cert.problem, 3.0 * cert.grid.x1
    s1 = rng.uniform(p.s11, p.s12, samples)
    s2 = rng.uniform(p.s21, p.s22, samples)
    t = rng.uniform(0.0, hi, samples)
    return {"seed": seed, "samples": samples, "t_hi": hi,
            "max_excess": float(np.max(A_eval(p, s1, s2, t) - cert.bound))}


def _group_key(cert):
    p = cert.problem
    return p.kernel, p.s11, p.s12, p.s21, p.s22, cert.grid.x1


def _table_pairs(n: int) -> list:
    """The certificates of table n, in groups of two that share kernel, box
    and x1."""
    groups = {}
    for cert in tables.generate_table(n)[1]:
        groups.setdefault(_group_key(cert), []).append(cert)
    assert all(len(g) == 2 for g in groups.values())
    return list(groups.values())


def test_group_audit_gives_each_certificate_its_own_record():
    # table 3 pairs two k1/k3 certificates in each group, table 4 an A (k1,
    # k2) with a B (k2 alone) certificate; the list's order mixes the groups
    certs = [c for n in range(2, 12) for c in tables.generate_table(n)[1]]
    assert len(set(certs)) == 132
    assert any(a.problem.k1 and not b.problem.k1 for a, b in _table_pairs(4))
    assert all(a.problem.k3 and b.problem.k3 for a, b in _table_pairs(3))
    expected = [_audit_alone(c, 2000, 0) for c in certs]
    assert list(domination_checks(certs, samples=2000, seed=0)) == expected
    assert list(domination_checks(certs[::-1], samples=2000, seed=0)) == expected[::-1]
    assert [domination_check(c, samples=2000, seed=0) for c in certs] == expected
    assert domination_checks((), samples=2000, seed=0) == ()


@pytest.mark.parametrize("n", [3, 4])
def test_group_audit_refutes_only_the_understated_certificate(n):
    a, b = _table_pairs(n)[0]
    low = dataclasses.replace(a, bound=a.m0 - 1.0)
    (checked_low, checked_b), (checked_a, same_b) = (
        domination_checks(group, samples=2000, seed=0) for group in ((low, b), (a, b)))
    assert checked_low["max_excess"] > 0.0 >= checked_a["max_excess"]
    assert checked_b == same_b == _audit_alone(b, 2000, 0)


def test_nan_in_a_shared_audit_term_reaches_every_reader(monkeypatch):
    # Re F(it), the k3 term, is evaluated once per group; a NaN in it gives a
    # NaN excess to each certificate that reads it and to no other
    certs = [c for n in (2, 3) for c in tables.generate_table(n)[1]]
    clean = domination_checks(certs, samples=2000, seed=0)
    real = WeightKernel.F

    def nan_on_imaginary_axis(self, z):
        out = real(self, z)
        if np.ndim(z) and not np.any(np.real(z)):
            out[-1] = np.nan
        return out

    monkeypatch.setattr(WeightKernel, "F", nan_on_imaginary_axis)
    patched = domination_checks(certs, samples=2000, seed=0)
    readers = [i for i, c in enumerate(certs) if c.problem.k3]
    assert 0 < len(readers) < len(certs)
    for i, (c, p) in enumerate(zip(clean, patched)):
        if i in readers:
            assert math.isnan(p["max_excess"]) and not p["max_excess"] <= 0.0
        else:
            assert p == c


coefficient = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
box_start = st.floats(0.0, 3.5)
box_width = st.one_of(st.just(0.0), st.floats(0.01, 0.3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gamma=st.floats(0.5, 1.3), k1=coefficient, k2=coefficient, k3=coefficient,
       s11=box_start, w1=box_width, s21=st.floats(0.0, 1.0), w2=box_width,
       ds1=st.floats(0.03, 0.2), ds2=st.floats(0.03, 0.2),
       x1=st.one_of(st.just(0.0), st.floats(0.1, 8.0)),
       # fine spacings, on which the coarse gate of a small-curvature problem opens
       dt=st.one_of(st.floats(0.01, 0.1), st.floats(0.002, 0.005)))
# the gate opens, and the maximum, at t = 4.329, lies between coarse columns
@example(gamma=0.9, k1=0.2, k2=1.0, k3=0.0, s11=0.5, w1=0.1, s21=0.1, w2=0.1, ds1=0.05,
         ds2=0.05, x1=8.0, dt=0.003)
def test_grid_max_equals_brute_force_lattice_max(gamma, k1, k2, k3, s11, w1, s21, w2,
                                                 ds1, ds2, x1, dt):
    s12 = min(4.0, s11 + w1)
    prob = SupProblem(WeightKernel(gamma), k1, k2, k3, s11, s12, s21, s21 + w2)
    grid = GridSpec(ds1 if s12 > s11 else 0.0, ds2 if w2 else 0.0, dt, x1)
    t = np.array([0.0]) if x1 == 0.0 else _lattice(0.0, x1, dt)
    brute = max(float(np.max(A_eval(prob, a, b, t)))
                for a in _lattice(prob.s11, prob.s12, grid.ds1)
                for b in _lattice(prob.s21, prob.s22, grid.ds2))
    # per term, the lattice kernel and F each keep the 1e-10 closed-form budget
    # plus rounding relative to |Re F| <= F(-s12): the walk's error budget
    tol = _lattice_error(prob)
    m0 = grid_max(prob, grid)
    assert abs(m0 - brute) <= tol


# a walk whose coarse gate opens (``_gate_open``) takes a coarse and a
# kept-columns pass; the others walk all n_t values of t in one pass, in s1
# blocks of rows = max(1, BLOCK_POINTS // n_t) values, and, with a k2 term,
# s2 chunks of max(1, rows // s1 block) values.  n_t is 468 at x1 = 7 and
# dt = 0.015, so rows is 8; per s1 block the walk folds the base of a
# problem without a k2 term, else one block per s2 chunk
FULL_LATTICE_CASES = list(zip(PROBLEMS, GRIDS)) + [
    # gate closed, n_t = 4668 > BLOCK_POINTS: one s1 value and one s2 value
    # per block, blocks wider than BLOCK_POINTS
    (SupProblem(WeightKernel(1.1), k1=0.8, k2=1.3, k3=0.6,
                s11=0.7, s12=0.72, s21=0.3, s22=0.31), GridSpec(0.01, 0.005, 0.015, 70.0)),
    # gate closed, 11 s1 values and no k2 term: the last s1 block has 3
    # rows, and its base holds the maximum
    (SupProblem(WeightKernel(1.1), k1=0.9, k2=0.0, k3=1.2,
                s11=0.5, s12=0.6, s21=0.0, s22=0.0), GridSpec(0.01, 0.0, 0.015, 7.0)),
    # gate closed, 15 s1 values by 3 s2 values: the last s1 block has 7
    # rows and takes one s2 value per block, and the block of its last s2
    # value holds the maximum
    (SupProblem(WeightKernel(1.1), k1=1.0, k2=0.2, k3=0.3,
                s11=0.5, s12=0.64, s21=0.1, s22=0.12), GridSpec(0.01, 0.01, 0.015, 7.0)),
    # gate closed, one s1 value: s1 - s2 runs 0.30 down to 0 over 31 s2
    # values, 8 per block, and the rows below SMALL_Z_RADIUS, s = 0
    # included, fill the last two blocks, of 8 and 7 rows
    (SupProblem(WeightKernel(1.1), k1=0.5, k2=0.8, k3=0.0,
                s11=0.5, s12=0.5, s21=0.2, s22=0.5), GridSpec(0.0, 0.01, 0.015, 7.0)),
    # gate closed, 11 s1 values by 11 s2 values: the 3-row last s1 block
    # takes its s2 values 2 at a time, and the maximum is in its short last
    # block, of the last s2 value alone
    (SupProblem(WeightKernel(1.1), k1=1.0, k2=0.3, k3=0.2,
                s11=0.5, s12=0.6, s21=0.0, s22=0.1), GridSpec(0.01, 0.01, 0.015, 7.0)),
    # gate open on a fine t lattice, n_t = 5001: the coarse pass walks 627
    # columns, and the maximum lies between two of them
    (SupProblem(WeightKernel(1.0), k1=0.8, k2=1.3, k3=0.6,
                s11=0.7, s12=0.72, s21=0.3, s22=0.31), GridSpec(0.01, 0.005, 0.003, 15.0)),
]


def _gate_open(prob, grid) -> bool:
    """Whether the walk of prob on grid takes the coarse pass."""
    return (curvature_bounds(prob)[2] * (COARSE_STEP * grid.dt) ** 2 / 8.0
            <= SLACK_BUDGET * (prob.k1 + prob.k2 + prob.k3))


def _full_lattice(prob, grid):
    """A over the whole lattice of prob, evaluated in one piece, of shape
    (n1, n2, n_t)."""
    s1 = _lattice(prob.s11, prob.s12, grid.ds1)
    s2 = _lattice(prob.s21, prob.s22, grid.ds2)
    t = _lattice(0.0, grid.x1, grid.dt)
    s3 = (s1[:, None] - s2).ravel()
    re_F = LatticeWork(prob.kernel, t).re_F
    base = prob.k1 * re_F(s1) - prob.k3 * re_F(np.zeros(1))
    lattice = np.repeat(base, s2.size, axis=0) - prob.k2 * re_F(s3)
    return lattice.reshape(s1.size, s2.size, t.size)


@pytest.mark.parametrize("prob,grid", FULL_LATTICE_CASES)
def test_grid_max_equals_one_full_lattice_evaluation(prob, grid):
    # the block split changes no lattice value, so not the maximum either
    assert grid_max(prob, grid) == np.max(_full_lattice(prob, grid))


def _mixed_groups(prob):
    """Groups on prob's kernel and box with the coefficient mixes of the
    shared table rows: table 4's pair, whose second supremum has k1 = 0,
    with a k2 = 0 problem that alone has a k3 term, and table 3's pair,
    both with k2 = 0 and a k3 term."""
    r = dataclasses.replace
    return ((r(prob, k3=0.0), r(prob, k1=0.0, k2=0.25, k3=0.0), r(prob, k2=0.0, k3=1.2)),
            (r(prob, k2=0.0, k3=1.2), r(prob, k1=0.5, k2=0.0, k3=0.3)))


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
@pytest.mark.parametrize("prob,grid", FULL_LATTICE_CASES)
def test_group_walk_equals_each_full_lattice_evaluation(prob, grid, order):
    # a problem's maximum does not depend on its place in the group
    for group in _mixed_groups(prob):
        group = group[::order]
        for p in group:
            assert grid_max(p, grid) == np.max(_full_lattice(p, grid))
        assert sup_bounds(group, grid) == tuple(sup_bound(p, grid) for p in group)


def _budget_groups():
    """Groups of each lattice shape: the single problems, the mixed groups
    of each, and the s3 cases alone."""
    groups = [(p,) for p in PROBLEMS] + [(p,) for p, _ in S3_CASES]
    groups += [g for p in PROBLEMS[1:] for g in _mixed_groups(p)]
    return groups


@pytest.mark.parametrize("group", _budget_groups())
def test_budget_grid_keeps_each_problem_within_the_budget(group):
    bounds = [curvature_bounds(p) for p in group]
    grid = budget_grid(group, 7.0, bounds)
    first = group[0]
    widths = (first.s12 - first.s11, first.s22 - first.s21, grid.x1)
    assert grid.x1 == 7.0
    for h, width in zip((grid.ds1, grid.ds2, grid.dt), widths):
        # the whole width, or a two-digit decimal below it
        assert h == width or (0.0 < h < width and float(f"{h:.1e}") == h)
    budget = SLACK_BUDGET * min(p.k1 + p.k2 + p.k3 for p in group)
    for cert in sup_bounds(group, 7.0):
        assert cert.grid == grid
        if cert.ds3 is None:
            steps = ((grid.ds1, cert.m11), (grid.ds2, cert.m22), (grid.dt, cert.mtt))
        else:
            steps = ((cert.ds3, cert.m22), (grid.dt, cert.mtt))
        assert sum(h * h / 8.0 * m for h, m in steps) <= budget * (1 + 1e-12)
    if all(p.k1 == p.k3 == 0.0 for p in group):
        # one (s3, t) walk, spaced ds3 = ds1 = ds2
        assert grid.ds1 == grid.ds2 == max(grid.ds1, grid.ds2)
    with pytest.raises(ValueError):
        budget_grid(group, 3.9, bounds)


def test_group_must_share_kernel_and_box():
    prob, grid = PROBLEMS[2], GRIDS[2]
    for other in (dataclasses.replace(prob, kernel=WeightKernel(0.79)),
                  dataclasses.replace(prob, s12=prob.s12 - 0.1),
                  dataclasses.replace(prob, s21=prob.s21 + 0.01)):
        with pytest.raises(ValueError):
            sup_bounds((prob, other), grid)
    assert sup_bounds((), grid) == ()


def test_full_lattice_cases_cover_the_block_edges(monkeypatch):
    def layout(prob, grid):
        # the one-pass walk: s1 blocks of `rows` values, and the s2 chunk of
        # the last, possibly short, s1 block
        n1 = _lattice(prob.s11, prob.s12, grid.ds1).size
        n2 = _lattice(prob.s21, prob.s22, grid.ds2).size
        n_t = _lattice(0.0, grid.x1, grid.dt).size
        rows = max(1, BLOCK_POINTS // n_t)
        chunk = max(1, rows // (n1 - (n1 - 1) // rows * rows))
        lattice = _full_lattice(prob, grid)
        top = np.unravel_index(np.argmax(lattice), lattice.shape)[:2]
        return n1, n2, n_t, rows, chunk, top

    wide, short, short_k2, disk, long_k2 = FULL_LATTICE_CASES[3:8]
    assert not any(_gate_open(*case) for case in FULL_LATTICE_CASES[3:8])
    n1, n2, n_t, rows, chunk, top = layout(*wide)
    assert n_t > BLOCK_POINTS and rows == chunk == 1
    # no k2 term, fewer s2 values than rows per block, and more of them
    assert short[0].k2 == 0.0 and layout(*short_k2)[1] < 8 < layout(*long_k2)[1]
    for case in (short, short_k2, long_k2):
        n1, n2, n_t, rows, chunk, top = layout(*case)
        # the maximum is at the last s2 value of a short last s1 block
        assert rows == 8 and n1 % rows != 0 and top == (n1 - 1, n2 - 1)
    # one s2 value per block of the short last s1 block, and a chunk of two
    # whose last block holds the last s2 value alone
    assert layout(*short_k2)[4] == 1
    n1, n2, n_t, rows, chunk, top = layout(*long_k2)
    assert chunk == 2 and n2 % chunk == 1
    n1, n2, n_t, rows, chunk, top = layout(*disk)
    s3 = disk[0].s11 - _lattice(disk[0].s21, disk[0].s22, disk[1].ds2)
    inside = np.flatnonzero(np.abs(s3) < SMALL_Z_RADIUS)
    assert n1 == 1 and inside.min() > 0 and inside.max() == n2 - 1 and s3[-1] == 0.0
    # the disk rows fill the last two blocks, the last of them short
    assert chunk == 8 and inside.min() == n2 - n2 % chunk - chunk and n2 % chunk

    # the walk hands re_F these blocks: after the k3 row, per s1 block its k1
    # rows and then its s1 - s2 rows, one chunk of s2 values per call
    calls = []
    real = LatticeWork.re_F
    monkeypatch.setattr(LatticeWork, "re_F", lambda self, s: calls.append(len(s)) or real(self, s))
    grid_max(*long_k2)
    assert calls == [1] + [8] + [8] * 11 + [3] + [6] * 5 + [3]


@pytest.mark.parametrize("prob,grid", [FULL_LATTICE_CASES[-1], S3_CASES[-1]])
def test_fine_lattice_cases_open_the_gate_off_the_coarse_columns(prob, grid):
    # a walk that kept only the coarse columns would miss these maxima, which
    # the full lattice tests pin
    t = _lattice(0.0, grid.x1, grid.dt)
    lattice = _s3_full_lattice(prob, grid) if prob.k1 == 0.0 else _full_lattice(prob, grid)
    column = np.unravel_index(np.argmax(lattice), lattice.shape)[-1]
    assert _gate_open(prob, grid) and t.size > 1000
    assert column % COARSE_STEP and column != t.size - 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case,target", [
    pytest.param(FULL_LATTICE_CASES[2], lambda p: p.s12, id="1"),  # k1: no s1 - s2 reaches s12
    # k2: s11 - s22 is below every s1
    pytest.param(FULL_LATTICE_CASES[2], lambda p: p.s11 - p.s22, id="3"),
    # k3: the row s = 0, on a swept-s1 problem whose tail does not decide its bound
    pytest.param(FULL_LATTICE_CASES[4], lambda p: 0.0, id="k3"),
    pytest.param(S3_CASES[0], lambda p: p.s11 - p.s22, id="s3"),  # the first row of the s3 walk
])
def test_non_finite_lattice_value_refuses_certificate(monkeypatch, bad, case, target):
    prob, grid = case
    honest = sup_bound(prob, grid)
    assert honest.bound > honest.tail  # a bound lowered to the tail would show
    real = LatticeWork.re_F
    s_bad = target(prob)
    hits = []

    def corrupted(self, s):
        # the term is picked by its s value, whatever the block layout
        out = real(self, s)
        row = np.flatnonzero(s == s_bad)
        if row.size:
            hits.append(row[0])
            out[row[0], out.shape[1] // 2] = bad
        return out

    monkeypatch.setattr(LatticeWork, "re_F", corrupted)
    with pytest.raises(FloatingPointError):
        sup_bound(prob, grid)
    assert hits


def _record_passes(monkeypatch) -> list:
    """Patch LatticeWork.take to record the t columns of each pass the walks
    take after it: the coarse columns, then the kept columns."""
    passes = []
    real = LatticeWork.take

    def recorded(self, cols):
        passes.append(cols)
        return real(self, cols)

    monkeypatch.setattr(LatticeWork, "take", recorded)
    return passes


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("prob,grid", [FULL_LATTICE_CASES[-1], S3_CASES[-1]], ids=["box", "s3"])
def test_non_finite_value_in_the_kept_columns_refuses_certificate(monkeypatch, prob, grid, bad):
    # the coarse pass is clean: only the first re_F call of the second pass
    # is corrupted, the k3 row of the box case and the first s3 rows
    passes = _record_passes(monkeypatch)
    sup_bound(prob, grid)
    assert len(passes) == 2
    passes.clear()
    real = LatticeWork.re_F
    hits = []

    def corrupted(self, s):
        out = real(self, s)
        if len(passes) == 2 and not hits:
            hits.append(out.shape)
            out[0, out.shape[1] // 2] = bad
        return out

    monkeypatch.setattr(LatticeWork, "re_F", corrupted)
    with pytest.raises(FloatingPointError):
        sup_bound(prob, grid)
    assert hits


def _raw_points(prob, grid) -> int:
    """The points of prob's lattice rows, each evaluated once by a walk
    that prunes nothing."""
    n_t = _lattice(0.0, grid.x1, grid.dt).size
    if prob.k1 == prob.k3 == 0.0 < prob.k2 and prob.s11 < prob.s12:
        return n_t * _s3_lattice(prob, grid).size
    n1 = _lattice(prob.s11, prob.s12, grid.ds1).size
    n2 = _lattice(prob.s21, prob.s22, grid.ds2).size
    return n_t * (n1 * bool(prob.k1) + n1 * n2 * bool(prob.k2) + bool(prob.k3))


#: the cases whose gate opens, and the re_F points each walks, of 26 257,
#: 26 257, 126 360, 65 013 and 115 566 lattice row points
FINE_CASES = list(zip(PROBLEMS, GRIDS)) + [FULL_LATTICE_CASES[-1], S3_CASES[-1]]
FINE_POINTS = (3682, 3619, 23760, 13598, 15444)


def test_pruned_walks_evaluate_a_fixed_share_of_their_lattices(monkeypatch):
    real = LatticeWork.re_F
    counts = []

    def counted(self, s):
        out = real(self, s)
        counts.append(out.size)
        return out

    monkeypatch.setattr(LatticeWork, "re_F", counted)

    def points(prob, grid):
        counts.clear()
        sup_bound(prob, grid)
        return sum(counts)

    walked = tuple(points(*case) for case in FINE_CASES)
    assert all(_gate_open(*case) for case in FINE_CASES)
    assert all(n < _raw_points(*case) for n, case in zip(walked, FINE_CASES))
    assert walked == FINE_POINTS
    assert tuple(points(*case) for case in FINE_CASES) == walked


def test_segment_within_the_error_budget_of_the_coarse_maximum_is_walked(monkeypatch):
    # Mtt raised, still a bound, until the reach of one segment falls short of
    # the coarse maximum by half the error term: values the kernel computes
    # up to that far above A could still hold the maximum, so it is walked
    prob, grid = FULL_LATTICE_CASES[-1]
    t = _lattice(0.0, grid.x1, grid.dt)
    coarse = np.unique(np.append(np.arange(0, t.size, COARSE_STEP), t.size - 1))
    col = _full_lattice(prob, grid)[:, :, coarse].max(axis=(0, 1))
    h = np.diff(t[coarse])
    eps = 2.0 * _lattice_error(prob)
    mtt = curvature_bounds(prob)[2]
    gap = col.max() - np.maximum(col[:-1], col[1:]) - h * h / 8.0 * mtt
    j = np.flatnonzero(gap > eps)[np.argmin(gap[gap > eps])]
    mtt += (gap[j] - eps / 2.0) / (h[j] * h[j] / 8.0)
    assert mtt * (COARSE_STEP * grid.dt) ** 2 / 8.0 <= SLACK_BUDGET * (prob.k1 + prob.k2 + prob.k3)
    passes = _record_passes(monkeypatch)
    assert supbound._walk(prob, _lattice(prob.s11, prob.s12, grid.ds1),
                          _lattice(prob.s21, prob.s22, grid.ds2), LatticeWork(prob.kernel, t),
                          grid.dt, mtt) == np.max(_full_lattice(prob, grid))
    assert np.array_equal(passes[0], coarse)
    assert set(range(coarse[j] + 1, coarse[j + 1])) <= set(passes[1].tolist())


def _s3_lattice(prob, grid):
    return _lattice(prob.s11 - prob.s22, prob.s12 - prob.s21, max(grid.ds1, grid.ds2))


def _s3_full_lattice(prob, grid):
    """A over the whole (s3, t) lattice of prob, evaluated in one piece, with
    the walk's operations: 0 - k2 Re F(-s3+it)."""
    t = _lattice(0.0, grid.x1, grid.dt)
    return np.zeros(1) - LatticeWork(prob.kernel, t).re_F(_s3_lattice(prob, grid)) * prob.k2


@pytest.mark.parametrize("prob,grid", S3_CASES)
def test_s3_walk_equals_brute_force_s3_lattice_max(prob, grid):
    cert = sup_bound(prob, grid)
    s3, t = _s3_lattice(prob, grid), _lattice(0.0, grid.x1, grid.dt)
    brute = np.max(-prob.k2 * np.real(prob.kernel.F(-s3[:, None] + 1j * t)))
    assert cert.ds3 == max(grid.ds1, grid.ds2)
    assert cert.m0 == pytest.approx(brute, rel=1e-12)
    slack = cert.ds3 * cert.ds3 / 8.0 * cert.m22 + grid.dt * grid.dt / 8.0 * cert.mtt
    assert cert.m11 == cert.m22 == cert.mtt
    assert cert.bound == max(cert.tail, cert.m0 + slack)


@pytest.mark.parametrize("prob,grid", S3_CASES)
def test_s3_walk_equals_one_full_lattice_evaluation(prob, grid):
    assert sup_bound(prob, grid).m0 == np.max(_s3_full_lattice(prob, grid))


@pytest.mark.parametrize("prob,grid", S3_CASES)
def test_s3_certificate_dominates_monte_carlo_over_the_box(prob, grid):
    check = domination_check(sup_bound(prob, grid), samples=100_000, seed=1234)
    assert check["max_excess"] <= 0.0


def test_s3_lattice_crosses_zero_through_the_series_disk(monkeypatch):
    prob, grid = S3_CASES[2]
    s3 = _s3_lattice(prob, grid)
    assert prob.s11 < prob.s22 and s3[0] < 0.0 < s3[-1]
    assert np.any(np.abs(s3) < SMALL_Z_RADIUS)
    # the walk hands re_F the s3 rows themselves, those near 0 included
    seen = []
    real = LatticeWork.re_F

    def recorded(self, s):
        seen.extend(s)
        return real(self, s)

    monkeypatch.setattr(LatticeWork, "re_F", recorded)
    sup_bound(prob, grid)
    assert np.array_equal(seen, s3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gamma=st.floats(0.5, 1.3), k2=st.floats(0.05, 2.0), s11=box_start,
       w1=st.floats(0.01, 0.3), s21=st.floats(0.0, 1.0), w2=box_width,
       ds1=st.floats(0.03, 0.2), ds2=st.floats(0.03, 0.2), dt=st.floats(0.05, 0.2))
def test_s3_slack_never_above_the_box_walk_slack(gamma, k2, s11, w1, s21, w2, ds1, ds2, dt):
    prob = SupProblem(WeightKernel(gamma), 0.0, k2, 0.0, s11, s11 + w1, s21, s21 + w2)
    grid = GridSpec(ds1, ds2 if w2 else 0.0, dt, 4.0)
    cert = sup_bound(prob, grid)
    assert cert.ds3 == max(grid.ds1, grid.ds2)
    assert (cert.ds3**2 / 8.0 * cert.m22
            <= grid.ds1**2 / 8.0 * cert.m11 + grid.ds2**2 / 8.0 * cert.m22)


@pytest.mark.parametrize("grid", [GRIDS[2], 7.0], ids=["given", "budget"])
def test_non_finite_second_moment_refuses_certificate(monkeypatch, grid):
    # builtin max(tail, nan) returns tail: the slack is checked before the
    # bound is taken, on a given lattice and on one budget_grid chooses
    prob = PROBLEMS[2]
    m11, m22, mtt = curvature_bounds(prob)
    monkeypatch.setattr(WeightKernel, "xf_moments", lambda self, c: math.nan)
    with pytest.raises(FloatingPointError, match="second-order"):
        sup_bound(prob, grid)
    monkeypatch.undo()
    monkeypatch.setattr(supbound, "curvature_bounds", lambda p: (m11, m22, math.nan))
    with pytest.raises(FloatingPointError, match="second-order"):
        sup_bound(prob, GRIDS[2])


def test_sup_bound_rejects_small_x1():
    with pytest.raises(ValueError):
        sup_bound(PROBLEMS[0], GridSpec(0.0, 0.004, 0.004, 2.0))


def test_certificate_record_round_trips_to_json():
    cert = sup_bound(PROBLEMS[1], GRIDS[1])
    record = cert.as_record()
    blob = json.loads(json.dumps(record))
    assert blob["bound"] == cert.bound
    assert blob["m0"] == cert.m0
    assert set(blob) == {"problem", "grid", "m0", "m11", "m22", "mtt", "tail", "bound"}


def test_problem_validation():
    with pytest.raises(ValueError):
        SupProblem(KERN, k1=1.0, k2=0.0, k3=0.0, s11=0.5, s12=0.4, s21=0.0, s22=0.0)
    with pytest.raises(ValueError):
        SupProblem(KERN, k1=-1.0, k2=0.0, k3=0.0, s11=0.1, s12=0.4, s21=0.0, s22=0.0)
    with pytest.raises(ValueError):
        SupProblem(KERN, k1=1.0, k2=0.0, k3=0.0, s11=0.1, s12=4.5, s21=0.0, s22=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("record,field", [(PROBLEMS[2], f) for f in
                                          ("k1", "k2", "k3", "s11", "s12", "s21", "s22")]
                         + [(GRIDS[2], f) for f in ("ds1", "ds2", "dt", "x1")],
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_non_finite_input_is_refused_by_name(record, field, bad):
    # refused when built, not later as a lattice error, a NaN-to-int
    # conversion or an overflow
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        dataclasses.replace(record, **{field: bad})
