"""Sup-certificate tests: domination, tail validity, derivative soundness."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linnik import supbound
from linnik.kernel import SMALL_Z_RADIUS, LatticeWork, WeightKernel
from linnik.supbound import (BLOCK_POINTS, SLACK_BUDGET, A_eval, GridSpec, SupProblem,
                             _lattice, budget_grid, curvature_bounds, domination_check,
                             grid_max, sup_bound, sup_bounds, tail_bound)

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


coefficient = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
box_start = st.floats(0.0, 3.5)
box_width = st.one_of(st.just(0.0), st.floats(0.01, 0.3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gamma=st.floats(0.5, 1.3), k1=coefficient, k2=coefficient, k3=coefficient,
       s11=box_start, w1=box_width, s21=st.floats(0.0, 1.0), w2=box_width,
       ds1=st.floats(0.03, 0.2), ds2=st.floats(0.03, 0.2),
       x1=st.one_of(st.just(0.0), st.floats(0.1, 8.0)), dt=st.floats(0.01, 0.1))
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
    # plus rounding relative to |Re F| <= F(-s12)
    tol = (k1 + k2 + k3) * (2e-10 + 1e-12 * prob.kernel.F_real(-prob.s12))
    m0 = grid_max(prob, grid)
    assert abs(m0 - brute) <= tol


# rows per s1 block is max(1, BLOCK_POINTS // n_t); n_t is 468 at x1 = 7,
# dt = 0.015, so 8 rows; per s1 block the walk folds the base of a problem
# without a k2 term, else one block per s2 value
FULL_LATTICE_CASES = list(zip(PROBLEMS, GRIDS)) + [
    # n_t = 5001 > BLOCK_POINTS: one s1 value per block, blocks wider than BLOCK_POINTS
    (SupProblem(WeightKernel(1.0), k1=0.8, k2=1.3, k3=0.6,
                s11=0.7, s12=0.72, s21=0.3, s22=0.31), GridSpec(0.01, 0.005, 0.003, 15.0)),
    # 11 s1 values and no k2 term: the last s1 block has 3 rows, and its
    # base holds the maximum
    (SupProblem(WeightKernel(0.9), k1=0.9, k2=0.0, k3=1.2,
                s11=0.5, s12=0.6, s21=0.0, s22=0.0), GridSpec(0.01, 0.0, 0.015, 7.0)),
    # 15 s1 values by 3 s2 values: the last s1 block has 7 rows, and the
    # block of its last s2 value holds the maximum
    (SupProblem(WeightKernel(0.9), k1=1.0, k2=0.2, k3=0.3,
                s11=0.5, s12=0.64, s21=0.1, s22=0.12), GridSpec(0.01, 0.01, 0.015, 7.0)),
    # one s1 value: s1 - s2 runs 0.30 down to 0 over 31 s2 values, so the
    # rows below SMALL_Z_RADIUS, s = 0 included, are the blocks of the last
    # s2 values, one row each
    (SupProblem(WeightKernel(1.1), k1=0.5, k2=0.8, k3=0.0,
                s11=0.5, s12=0.5, s21=0.2, s22=0.5), GridSpec(0.0, 0.01, 0.015, 7.0)),
    # 11 s1 values by 11 s2 values, more s2 values than rows per block: the
    # maximum is in the block of the last s2 value of the 3-row last s1 block
    (SupProblem(WeightKernel(0.9), k1=1.0, k2=0.3, k3=0.2,
                s11=0.5, s12=0.6, s21=0.0, s22=0.1), GridSpec(0.01, 0.01, 0.015, 7.0)),
]


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
    grid = budget_grid(group, 7.0)
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
        budget_grid(group, 3.9)


def test_group_must_share_kernel_and_box():
    prob, grid = PROBLEMS[2], GRIDS[2]
    for other in (dataclasses.replace(prob, kernel=WeightKernel(0.79)),
                  dataclasses.replace(prob, s12=prob.s12 - 0.1),
                  dataclasses.replace(prob, s21=prob.s21 + 0.01)):
        with pytest.raises(ValueError):
            sup_bounds((prob, other), grid)
    assert sup_bounds((), grid) == ()


def test_full_lattice_cases_cover_the_block_edges():
    def layout(prob, grid):
        n1 = _lattice(prob.s11, prob.s12, grid.ds1).size
        n2 = _lattice(prob.s21, prob.s22, grid.ds2).size
        n_t = _lattice(0.0, grid.x1, grid.dt).size
        lattice = _full_lattice(prob, grid)
        top = np.unravel_index(np.argmax(lattice), lattice.shape)[:2]
        return n1, n2, n_t, max(1, BLOCK_POINTS // n_t), top

    wide, short, short_k2, disk, long_k2 = FULL_LATTICE_CASES[3:]
    n1, n2, n_t, rows, top = layout(*wide)
    assert n_t > BLOCK_POINTS and rows == 1
    # no k2 term, fewer s2 values than rows per block, and more of them
    assert short[0].k2 == 0.0 and layout(*short_k2)[1] < 8 < layout(*long_k2)[1]
    for case in (short, short_k2, long_k2):
        n1, n2, n_t, rows, top = layout(*case)
        # the maximum is at the last s2 value of a short last s1 block
        assert rows == 8 and n1 % rows != 0 and top == (n1 - 1, n2 - 1)
    n1, n2, n_t, rows, top = layout(*disk)
    s3 = disk[0].s11 - _lattice(disk[0].s21, disk[0].s22, disk[1].ds2)
    inside = np.flatnonzero(np.abs(s3) < SMALL_Z_RADIUS)
    assert n1 == 1 and inside.min() > 0 and inside.max() == n2 - 1 and s3[-1] == 0.0


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


def _s3_lattice(prob, grid):
    return _lattice(prob.s11 - prob.s22, prob.s12 - prob.s21, max(grid.ds1, grid.ds2))


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
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        dataclasses.replace(record, **{field: bad})
