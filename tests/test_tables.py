"""Table-engine tests: RHS monotonicity, case penalties, certified rows."""

import ast
import copy
import dataclasses
import hashlib
import inspect
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linnik import _data, density, supbound, tables
from linnik.cli import main
from linnik.kernel import LatticeWork, WeightKernel
from linnik.supbound import _lattice
from linnik.tables import (CERT_MARGIN, lambda2_D, rhs_lambda1, rhs_lambda2_case,
                           rhs_lambda3_complex, rhs_lambda3_real, rhs_lprime_high,
                           rhs_lprime_low, delta_step_max, warmup_l1)


# -------------------------------------------------------------- warm-up ----

def test_warmup_bound_certifies_published_value():
    kern = WeightKernel(1.9)
    assert warmup_l1(kern, 0.144) < -CERT_MARGIN


def test_warmup_fails_just_above():
    # 0.144 is the optimum at three decimals for this kernel
    assert warmup_l1(WeightKernel(1.9), 0.145) > 0


def test_warmup_at_zero():
    kern = WeightKernel(1.9)
    assert warmup_l1(kern, 0.0) == pytest.approx(-kern.F0 + 5.0 / 6.0 * kern.f0, rel=1e-12)


def test_warmup_increasing_in_lambda():
    kern = WeightKernel(1.9)
    vals = [warmup_l1(kern, x) for x in np.linspace(0.0, 0.5, 51)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------- RHS engines -------

def test_rhs_lprime_high_monotone():
    kern = WeightKernel(1.058)
    k = 0.8014
    base = rhs_lprime_high(kern, k, 0.903, 0.36, 2.06, 0.0)
    assert rhs_lprime_high(kern, k, 0.903, 0.34, 2.06, 0.0) < base
    assert rhs_lprime_high(kern, k, 0.903, 0.36, 2.00, 0.0) < base
    # the infinity sentinel maximizes the lambda'-term
    assert rhs_lprime_high(kern, k, 0.903, 0.36, None, 0.0) > base


def test_rhs_lprime_high_endpoint_dominates_interior():
    kern = WeightKernel(1.058)
    k = 0.8014
    rng = np.random.default_rng(17)
    end = rhs_lprime_high(kern, k, 0.903, 0.36, 2.06, 0.0172)
    for _ in range(100):
        l1 = rng.uniform(0.34, 0.36)
        lp = rng.uniform(2.06, 4.0)
        interior = rhs_lprime_high(kern, k, 0.903, l1, lp, 0.0172)
        # increasing in lambda1, decreasing toward larger lambda' is absorbed
        # by evaluating at the claimed bound, the smallest admissible value
        assert rhs_lprime_high(kern, k, 0.903, l1, 2.06, 0.0172) <= end + 1e-12
        assert interior <= rhs_lprime_high(kern, k, 0.903, 0.36, lp, 0.0172) + 1e-12


def test_endpoint_evaluation_dominates_interior_points():
    # every engine is decided at the window endpoints and the claimed bound;
    # pointwise configurations inside the windows must never exceed that
    rng = np.random.default_rng(41)
    kern2 = WeightKernel(0.78)
    kern9 = WeightKernel(1.25)
    kern10 = WeightKernel(1.04)
    k = 0.734
    end_l2 = rhs_lambda2_case(kern2, k, 2, 1.0, 0.36, 1.69, 0.0223, 0.0)
    end_l3c = rhs_lambda3_complex(kern9, 0.62, 0.64, 0.902, 0.902)
    end_l3r = rhs_lambda3_real(kern10, 0.44, 1.175, 0.60, 1.175)
    end_l1 = rhs_lambda1(WeightKernel(1.0), 1.67, 0.44, 100.0)
    for _ in range(100):
        l1 = rng.uniform(0.34, 0.36)
        lj = rng.uniform(1.0, 1.69)
        assert rhs_lambda2_case(kern2, k, 2, 1.0, l1, lj, 0.0223, 0.0) <= end_l2 + 1e-12
        l1c = rng.uniform(0.62, 0.64)
        l2c = rng.uniform(0.8, 0.902)
        l3 = rng.uniform(l2c, 0.902)
        assert rhs_lambda3_complex(kern9, l1c, l1c, l2c, l3) <= end_l3c + 1e-12
        l1r = rng.uniform(0.44, 0.60)
        l2r = rng.uniform(l1r, 1.175)
        l3r = rng.uniform(l2r, 1.175)
        assert rhs_lambda3_real(kern10, l2r, l2r, l1r, l3r) <= end_l3r + 1e-12
        l1p = rng.uniform(0.364, 0.44)
        assert rhs_lambda1(WeightKernel(1.0), 1.67, l1p, 100.0) <= end_l1 + 1e-12


def test_rhs_lprime_low_degenerate_and_monotone():
    kern = WeightKernel(1.0517)
    k = 0.808
    val = rhs_lprime_low(kern, k, 0.38, 0.38, 0.0, 0.0)  # lambda' = lambda1
    assert math.isfinite(val)
    grid = [rhs_lprime_low(kern, k, 0.38, lp, 0.0, 0.0) for lp in np.linspace(0.5, 3.0, 40)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_lambda2_D_unknown_case():
    with pytest.raises(ValueError):
        lambda2_D(9, 0.7, 1.0, 0.0, 0.0)


def test_lambda2_case1_reduces_to_pure_F_expression():
    kern = WeightKernel(0.78)
    k = 0.734
    got = rhs_lambda2_case(kern, k, 1, 0.903, 0.36, 0.903, 0.0, 0.0)
    expect = ((k * k + 0.5) * (kern.F_real(-0.903) - kern.F_real(0.0))
              - 2.0 * k * kern.F_real(0.36 - 0.903)
              + kern.f0 / 6.0 * (k * k + 4.0 * k + 1.5))
    assert got == pytest.approx(expect, rel=1e-14)


def test_delta_step_requires_admissible_k():
    kern = WeightKernel(0.78)
    with pytest.raises(ValueError):
        delta_step_max(kern, 0.2, 0.36, 0.9, 1.0, 1e-3, (0.0,))
    with pytest.raises(ValueError):
        delta_step_max(kern, 0.7, 0.36, 0.9, 1.0, 0.0, (0.0,))


def _delta_step_three_arrays(kernel, k, lambda1_hi, start, target, delta, D):
    """The step RHS as first written: F evaluated on b, l1 - b and l1 - a."""
    a, b = tables._step_ends(start, target, delta)
    rhs = ((k * k + 0.5) * (kernel.F_real(-b) - kernel.F_real(lambda1_hi - b) - kernel.F0)
           - (2.0 * k - (k * k + 0.5)) * kernel.F_real(lambda1_hi - a)
           + D)
    return tables._finite_max(rhs)[0]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_delta_step_max_equals_three_array_form(table_rows, n):
    # shared step ends and D added after the maximum change no bit
    stepped = tables._SECOND_CHARACTER[n][4]
    for r in table_rows[n]:
        args = (WeightKernel(r.detail["gamma"]), r.detail["k"], r.lambda1_hi,
                r.detail["lambda2_alt"], r.claimed_bound, 1e-4)
        Ds = tuple(r.detail["D_by_case"][c] for c in stepped)
        got = delta_step_max(*args, Ds)
        assert [v.hex() for v in got] == [_delta_step_three_arrays(*args, D).hex() for D in Ds]
        assert -r.margin == max(got)


@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
def test_non_finite_step_end_fails_the_row(monkeypatch, end):
    real = WeightKernel.F_real

    def corrupted(self, x):
        # a NaN at one step end of every stepped F evaluation; scalars pass
        out = real(self, x)
        if np.ndim(out):
            out = out.copy()
            out[end] = math.nan
        return out

    monkeypatch.setattr(WeightKernel, "F_real", corrupted)
    with pytest.raises(FloatingPointError):
        next(tables.gen_second_character_table(6))


def test_non_finite_step_penalty_fails():
    kern = WeightKernel(0.78)
    assert len(delta_step_max(kern, 0.7, 0.36, 0.9, 1.0, 1e-3, (0.0, 1.0))) == 2
    with pytest.raises(FloatingPointError):
        delta_step_max(kern, 0.7, 0.36, 0.9, 1.0, 1e-3, (0.0, math.nan))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lo=st.floats(0.0, 2.0), span=st.floats(1e-3, 2.0), delta=st.floats(1e-4, 0.5))
@example(lo=0.5, span=1e-15, delta=1e-3)  # far shorter than a step: still one step
def test_step_ends_cover_the_interval(lo, span, delta):
    hi = lo + span
    a, b = tables._step_ends(lo, hi, delta)
    assert a[0] == lo
    assert np.array_equal(b[:-1], a[1:])
    # bitwise: delta_step_max evaluates F once per shared step end
    assert a[1:].tobytes() == b[:-1].tobytes()
    assert b[-1] >= hi
    assert np.all(b - a <= delta * (1.0 + 1e-9))
    for bad in (0.0, -delta):
        with pytest.raises(ValueError):
            tables._step_ends(lo, hi, bad)
    # an empty or inverted interval has no steps
    for empty in (lo, lo - span):
        with pytest.raises(ValueError, match="empty step interval"):
            tables._step_ends(lo, empty, delta)



def test_rhs_lambda1_with_zero_F_terms_is_D():
    # the additive penalty alone must be nonnegative in every branch
    for ordc, frac in tables._L1_FRACTION.items():
        kern = WeightKernel(1.0)
        D = frac * kern.f0
        assert D >= 0.0
        assert rhs_lambda1(kern, 1.67, 0.44, D) == pytest.approx(
            14379.0 * kern.F_real(-1.67) - 24480.0 * kern.F_real(0.44 - 1.67) + D, rel=1e-14)


def test_rhs_lambda3_forms_match_inline_formula():
    kern = WeightKernel(1.25)
    got = rhs_lambda3_complex(kern, 0.62, 0.64, 0.902, 0.902)
    expect = (kern.F_real(-0.64) - kern.F_real(0.902 - 0.64)
              - kern.F_real(0.902 - 0.62) - kern.F0 + 7.0 / 6.0 * kern.f0)
    assert got == pytest.approx(expect, rel=1e-14)
    kern = WeightKernel(1.04)
    got = rhs_lambda3_real(kern, 0.44, 0.60, 0.60, 1.175)
    expect = (kern.F_real(-0.60) - kern.F_real(1.175 - 0.60) - kern.F0
              - kern.F_real(0.60 - 0.44) + 9.0 / 8.0 * kern.f0)
    assert got == pytest.approx(expect, rel=1e-14)


# ------------------------------------------------- generated tables --------

def test_all_rows_certified(table_rows):
    for n, rows in table_rows.items():
        bad = [r.label for r in rows if not r.certified]
        assert not bad, f"table {n} rows failed: {bad}"


def test_all_sup_bounds_within_published_caps(table_rows):
    for n, rows in table_rows.items():
        for r in rows:
            assert r.c_reproduced, (n, r.label, r.computed_C, r.published_C)


def test_row_margins_exceed_threshold(table_rows):
    for n, rows in table_rows.items():
        for r in rows:
            assert r.margin > CERT_MARGIN, (n, r.label, r.margin)


#: each table's least margin when its lattices were hand-set and its
#: suprema took the first-order slack alone, rounded down to four digits
LEAST_MARGIN_FLOOR = {2: 2.170e-4, 3: 1.998e-4, 4: 2.724e-4, 5: 2.776e-3, 6: 1.561e-3,
                      7: 2.724e-4, 8: 6.684e-5, 9: 2.942e-4, 10: 1.219e-5, 11: 0.8682}


def test_no_least_margin_below_its_floor(table_rows):
    # a coarser lattice must not buy its points with a thinner margin
    for n, rows in table_rows.items():
        assert min(r.margin for r in rows) >= LEAST_MARGIN_FLOOR[n], n


def test_table4_case_dominance(table_rows):
    for r in table_rows[4]:
        D = r.detail["D_by_case"]
        for case in (3, 4, 6, 8):
            assert D[case] <= D[2], (r.label, case)


def test_table7_is_row_minimum_of_456(table_rows):
    published = {p["lambda1_hi"]: p["lambda2_new"]
                 for p in _data.published_table(7) if p["lambda2_new"] is not None}
    for r in table_rows[7]:
        assert r.claimed_bound == published[r.lambda1_hi]
        assert r.claimed_bound == min(r.detail["candidates"])


def test_table8_all_cases_column_is_min(table_rows):
    for r, pub in zip(table_rows[8], _data.published_table(8)):
        assert r.claimed_bound == min(pub["case1"], pub["case2348"], r.detail["case7"])


def test_table8_lambda_star_consistency(table_rows):
    t2 = {r.lambda1_hi: r.claimed_bound for r in table_rows[2]}
    t7 = {r.lambda1_hi: r.claimed_bound for r in table_rows[7]}
    for r, pub in zip(table_rows[8], _data.published_table(8)):
        assert r.lambda_star == min(t2[r.lambda1_hi], t7[r.lambda1_hi]) == pub["lambda_star"]


def _assert_own_guard(r):
    # the row's one certificate is the guard of its own kernel, and the
    # guard its check read
    (guard,) = r.certificates
    assert guard.problem.kernel.gamma == r.detail["gamma"], r.label
    assert r.detail["guard_bound"] == guard.bound, r.label


def test_table9_guard_below_caps(table_rows):
    kern = WeightKernel(1.25)
    for r in table_rows[9]:
        _assert_own_guard(r)
        assert r.detail["guard_bound"] < 0.18
        assert r.detail["guard_bound"] < kern.f0 / 6.0


def test_table10_guards_below_caps(table_rows):
    for r in table_rows[10]:
        _assert_own_guard(r)
        kern = WeightKernel(r.detail["gamma"])
        assert r.detail["guard_bound"] < 0.10
        assert r.detail["guard_bound"] < 5.0 / 48.0 * kern.f0


@pytest.mark.parametrize("gamma", [1.04, 1.06])
def test_table10_row_fails_only_under_its_own_guard(monkeypatch, fresh_tables, gamma):
    # both guards clear both caps, so only an inflated guard tells a row that
    # reads its own kernel's guard from one that reads another kernel's
    real = tables.sup_bounds

    def inflated(problems, grid):
        return tuple(dataclasses.replace(cert, bound=cert.bound + 1.0)
                     if cert.problem.kernel.gamma == gamma else cert
                     for cert in real(problems, grid))

    monkeypatch.setattr(tables, "sup_bounds", inflated)
    for r in tables.generate_table(10)[0]:
        _assert_own_guard(r)
        assert r.certified is (r.detail["gamma"] != gamma), r.label
        assert ("guard" in r.detail.get("failed_checks", ())) is (r.detail["gamma"] == gamma)


def test_table6_window_covers_requested_cap(table_rows):
    # the window [cap - 0.02, cap] meets the one table-6 row whose window holds it
    def least_claim(cap):
        return min(r.claimed_bound for r in tables._window_rows(6, cap - 0.02, cap))

    assert least_claim(0.52) == 1.43
    assert least_claim(0.54) == 1.43
    assert least_claim(0.56) == 1.36
    assert least_claim(0.68) == 1.11
    with pytest.raises(RuntimeError, match=r"table 6 do not cover lambda1 in \[0.88, 0.9\]"):
        least_claim(0.9)


def test_table11_reproduces_first_zero_bounds(table_rows):
    got = {r.label: r.claimed_bound for r in table_rows[11]}
    assert got == {"ord ge6": 0.440, "ord 5": 0.493, "ord 4": 0.478,
                   "ord 3": 0.498, "ord 2": 0.628}


def test_generate_table_rejects_unknown():
    with pytest.raises(ValueError):
        tables.generate_table(14)


def test_each_table_certified_once(monkeypatch, fresh_tables):
    calls = []

    def counting(problems, grid):
        calls.extend((problem, grid) for problem in problems)
        return real(problems, grid)

    real = tables.sup_bounds
    monkeypatch.setattr(tables, "sup_bounds", counting)
    for n in range(2, 7):
        tables.generate_table(n)
    before7 = len(calls)
    rows7, certs7 = tables.generate_table(7)
    assert len(calls) == before7 and certs7 == ()  # table 7 is a minimum over 4, 5, 6
    for n in range(8, 12):
        tables.generate_table(n)
    assert len(calls) == len(set(calls)) == 132
    # every caller gets the same read-only objects
    assert tables.generate_table(8) is tables.generate_table(8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows7[0].certified = False
    with pytest.raises(TypeError):
        rows7[0].detail["published"] = 0.0


def test_each_xf_moment_integrated_once(fresh_tables):
    # the two problems of a shared supremum group ask for the same moments:
    # 171 distinct (gamma, c) over tables 2-11, for 230 requests of M2 (M11,
    # M22, Mtt), made once per problem by sup_bounds for budget_grid and the
    # slack alike
    WeightKernel.xf_moments.cache_clear()
    for n in range(2, 12):
        tables.generate_table(n)
    info = WeightKernel.xf_moments.cache_info()
    assert (info.misses, info.hits + info.misses) == (171, 230)


def test_each_curvature_bound_and_t_workspace_built_once_per_group(monkeypatch, fresh_tables):
    # 132 problems in 94 non-empty groups over tables 2-11: each problem's
    # (M11, M22, Mtt) is computed once, and each group's t lattice workspace
    # once, since a group shares its kernel and its t lattice
    curvature, workspaces = [], []
    real_bounds, real_init = supbound.curvature_bounds, LatticeWork.__init__
    monkeypatch.setattr(supbound, "curvature_bounds",
                        lambda p: curvature.append(p) or real_bounds(p))
    monkeypatch.setattr(LatticeWork, "__init__",
                        lambda self, kern, t: workspaces.append(t) or real_init(self, kern, t))
    for n in range(2, 12):
        tables.generate_table(n)
    assert (len(curvature), len(workspaces)) == (132, 94)


def test_each_raw_lattice_row_evaluated_once_per_walk(monkeypatch, fresh_tables):
    # each problem's walk evaluates Re F on its k1 rows (s1), its k2 rows
    # (s1 - s2) and its k3 row (s = 0) once each, and an (s3, t) walk its s3
    # rows once: 305 245 points in 132 walks, one per problem of the 94
    # groups of tables 2-11, on the lattices budget_grid chooses
    points, groups = [], []
    real_re_F, real_sup_bounds = LatticeWork.re_F, tables.sup_bounds

    def counted(self, s):
        out = real_re_F(self, s)
        points.append(out.size)
        return out

    def recorded(problems, x1):
        certs = real_sup_bounds(problems, x1)
        if problems:  # an empty group walks no lattice
            # the tables give a tail cutoff, and budget_grid the lattice
            assert certs[0].grid.x1 == x1 and all(c.grid is certs[0].grid for c in certs)
            groups.append((problems, certs[0].grid))
        return certs

    monkeypatch.setattr(LatticeWork, "re_F", counted)
    monkeypatch.setattr(tables, "sup_bounds", recorded)
    for n in range(2, 12):
        tables.generate_table(n)

    def raw_points(q, grid):
        # the (s3, t) walk of a problem whose A depends on s1 - s2 alone over
        # a box whose s1 side is not a point, else the (s1, s2, t) walk
        n1 = _lattice(q.s11, q.s12, grid.ds1).size
        n2 = _lattice(q.s21, q.s22, grid.ds2).size
        n3 = _lattice(q.s11 - q.s22, q.s12 - q.s21, max(grid.ds1, grid.ds2)).size
        n_t = _lattice(0.0, grid.x1, grid.dt).size
        if q.k1 == q.k3 == 0.0 < q.k2 and q.s11 < q.s12:
            return n_t * n3
        return n_t * (n1 * bool(q.k1) + n1 * n2 * bool(q.k2) + bool(q.k3))

    walks = [raw_points(q, grid) for problems, grid in groups for q in problems]
    assert len(groups) == 94 and len(walks) == 132
    assert sum(points) == sum(walks) == 305_245


def test_each_bound_rederived_from_its_record():
    # the (s1, s2, t) walk's slack is ds1^2 M11/8 + ds2^2 M22/8 + dt^2 Mtt/8;
    # a record with ds3 comes from the (s3, t) walk, whose slack is ds3^2
    # M22/8 + dt^2 Mtt/8.  The bound is max(tail, m0 + slack).  41 records of
    # tables 2-11 carry ds3: table 4's 18 B suprema, table 5's 17 and the 6
    # table 8 reuses from table 4; no record carries a first-derivative bound
    on_s3 = []
    for n in range(2, 12):
        for cert in tables.generate_table(n)[1]:
            r = json.loads(json.dumps(cert.as_record()))
            assert not {"d1", "d2", "d3"} & set(r)
            g, (k1, k2, k3) = r["grid"], (r["problem"][k] for k in ("k1", "k2", "k3"))
            if "ds3" in r:
                on_s3.append(n)
                s1_box = r["problem"]["s1_box"]
                assert k1 == k3 == 0.0 < k2 and s1_box[0] < s1_box[1]
                assert r["ds3"] == max(g["ds1"], g["ds2"])
                steps = ((r["ds3"], r["m22"]), (g["dt"], r["mtt"]))
            else:
                steps = ((g["ds1"], r["m11"]), (g["ds2"], r["m22"]), (g["dt"], r["mtt"]))
            slack = sum(h * h / 8.0 * m for h, m in steps)
            assert r["bound"] == max(r["tail"], r["m0"] + slack)
    assert on_s3 == [4] * 18 + [5] * 17 + [8] * 6


def test_certification_never_takes_complex_F(monkeypatch, fresh_tables):
    # every row right-hand side, step end and counting cell evaluates F on
    # the real axis; the complex F serves only eval and the domination audit
    def refused(self, z):
        raise AssertionError("complex F called")

    monkeypatch.setattr(WeightKernel, "F", refused)
    for n in range(2, 12):
        assert all(r.certified for r in tables.generate_table(n)[0])
    assert all(r["match"] is not False for r in density.regenerated_tables().records)


#: sha256 of the certificate inputs and row decisions of tables 2-11; a
#: refactor of the generators must leave it unchanged
CERTIFIED_INPUTS_SHA256 = "ebe4be2d527bfaba823bec892c73eecbc7ac72d87fad409d9e7a6b10a6a42086"


def test_certified_inputs_unchanged():
    # margins and bounds go through libm and may differ across platforms; the
    # boxes, coefficients and claims come from IEEE arithmetic on parsed
    # decimals, and budget_grid rounds each spacing it takes from the moments
    # down to two significant digits, so their digest is the same everywhere
    digest = hashlib.sha256()
    for n in range(2, 12):
        rows, certificates = tables.generate_table(n)
        for cert in certificates:
            digest.update(json.dumps([cert.problem.as_record(), cert.grid.as_record()],
                                     sort_keys=True).encode())
        for r in rows:
            digest.update(json.dumps([r.table, r.label, r.lambda1_lo, r.lambda1_hi,
                                      r.lambda_star, r.claimed_bound, r.published_C,
                                      r.certified]).encode())
    assert digest.hexdigest() == CERTIFIED_INPUTS_SHA256


def _same_objects(xs, ys) -> bool:
    return len(xs) == len(ys) and all(map(operator.is_, xs, ys))


def test_table_certificates_are_the_row_certificates_once_each(tmp_path):
    for n in range(2, 12):
        rows, certificates = tables.generate_table(n)
        used = [c for r in rows for c in r.certificates]
        first_use = [c for i, c in enumerate(used) if not any(c is u for u in used[:i])]
        assert _same_objects(certificates, first_use), n
        assert main(["table", str(n), "--out", str(tmp_path)]) == 0
        audit = json.loads((tmp_path / f"audit_{n}.json").read_text())
        assert len(audit["certificates"]) == len(certificates), n
    # tables 9 and 10 have one guard per kernel of their entry, in gamma
    # order: one for table 9, which every row shares
    for n in (9, 10):
        certs = tables.generate_table(n)[1]
        gammas = sorted(set(tables._THIRD_ZERO[n][4].values()))
        assert [c.problem.kernel.gamma for c in certs] == gammas, n
    rows9, certs9 = tables.generate_table(9)
    assert all(_same_objects(r.certificates, certs9) for r in rows9)
    # table 8 reuses table 4's certificates at each cap: the same objects
    by_cap4 = {r.lambda1_hi: r.certificates for r in tables.generate_table(4)[0]}
    for r in tables.generate_table(8)[0]:
        assert len(r.certificates) == 2
        assert _same_objects(r.certificates, by_cap4[r.lambda1_hi])


# ------------------------------------------------------ fault injection ----
# Each patch below changes the one input a named row check reads, so that
# the check fails; the patches take pytest's monkeypatch fixture.

def _upstream(n: int, cap: float, change):
    """Pass the row of table n at ``cap`` through ``change`` as it is certified."""
    def patch(monkeypatch):
        real = tables._GENERATORS[n]

        def changed():
            for r in real():
                yield change(r) if r.lambda1_hi == cap else r

        monkeypatch.setitem(tables._GENERATORS, n, changed)
    return patch


def _uncertified(row):
    return dataclasses.replace(row, certified=False)


def _published(n: int, key: str, value, **changes):
    """Set ``changes`` on the published row of table n whose ``key`` is ``value``."""
    def patch(monkeypatch):
        real = _data.published_table
        monkeypatch.setattr(_data, "published_table", lambda m: tuple(
            {**pub, **changes} if m == n and pub[key] == value else pub for pub in real(m)))
    return patch


def _dominating_case3(monkeypatch):
    # case 3's penalty, one that table 4 must dominate and does not step, grows
    monkeypatch.setitem(tables._L2_CASES, 3, (2.0, 0.0, 1.0 / 8.0, 100.0))


def _shifted_lambda2_alt(monkeypatch):
    real = _data.hb92_map

    def shifted(key):
        values = real(key)
        if key == "lambda2_alt":
            values[0.54] += 1e-3
        return values

    monkeypatch.setattr(_data, "hb92_map", shifted)


def _shifted_lambda1_old(monkeypatch):
    data = copy.deepcopy(_data.hb92())
    data["lambda1_old_by_ord"]["values"]["5"] += 1e-3
    monkeypatch.setattr(_data, "hb92", lambda: data)


def _inflated_guards(monkeypatch):
    # tables 9 and 10 certify no supremum but their guards
    real = tables.sup_bounds

    def inflated(problems, grid):
        return tuple(dataclasses.replace(cert, bound=cert.bound + 1.0)
                     for cert in real(problems, grid))

    monkeypatch.setattr(tables, "sup_bounds", inflated)


#: (table, check, row label, patch): one case per check each table can fail
FAULTS = [
    (2, "lambda_star_imported", "0.54", _published(2, "lambda1_hi", 0.54, lambda_star=0.781)),
    (4, "dominance", "0.54", _dominating_case3),
    *((n, "lambda2_alt_imported", "0.54", _shifted_lambda2_alt) for n in (4, 5, 6)),
    (7, "published", "0.54", _published(7, "lambda1_hi", 0.54, lambda2_new=1.18)),
    (8, "lambda_star_published", "0.54", _published(8, "lambda1_hi", 0.54, lambda_star=1.18)),
    (11, "lambda_star_published", "ord 5", _published(11, "ord", "5", lambda_star=1.35)),
    (8, "certificates_cover", "0.54", _upstream(4, 0.54, lambda r: dataclasses.replace(
        r, detail={**r.detail, "lambda2_alt": 1.25}))),
    (8, "case7_published", "0.54", _published(8, "lambda1_hi", 0.54, case7=1.42)),
    (8, "all_cases_is_min", "0.54", _published(8, "lambda1_hi", 0.54, all_cases=1.24)),
    # the chain starts at table 7's least claim below 0.50
    (8, "chain", "0.52", _upstream(7, 0.50, lambda r: dataclasses.replace(
        r, claimed_bound=1.30))),
    (9, "guard", "[0.62,0.64]", _inflated_guards),
    (10, "guard", "[0.44,0.6]", _inflated_guards),
    (11, "lambda1_old_imported", "ord 5", _shifted_lambda1_old),
    (11, "within_assumed_cap", "ord 5", _published(11, "ord", "5", lambda1_new=0.51)),
    (7, "upstream_certified", "0.54", _upstream(4, 0.54, _uncertified)),
    (8, "upstream_certified", "0.54", _upstream(2, 0.54, _uncertified)),
    (11, "upstream_certified", "ord 5", _upstream(2, 0.46, _uncertified)),
]


@pytest.mark.parametrize("n, check, label, patch", FAULTS,
                         ids=[f"{n}-{check}" for n, check, _, _ in FAULTS])
def test_each_row_check_fails_its_row(tmp_path, monkeypatch, capsys, fresh_tables,
                                      n, check, label, patch):
    patch(monkeypatch)
    row = next(r for r in tables.generate_table(n)[0] if r.label == label)
    assert not row.certified
    assert check in row.detail["failed_checks"]
    assert main(["table", str(n), "--out", str(tmp_path)]) == 1
    assert f"FAILED table {n} row {label}:" in capsys.readouterr().out


def test_every_row_check_has_a_fault_case():
    # the string keys of each checks dict given to _row, and the check _row adds
    names = {"upstream_certified"}
    for node in ast.walk(ast.parse(inspect.getsource(tables))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_row":
            names |= {k.value for k in node.args[2].keys
                      if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    assert names == {check for _, check, _, _ in FAULTS}


@pytest.mark.parametrize("upstream", [2, 4])
def test_failed_upstream_row_fails_downstream(monkeypatch, fresh_tables, upstream):
    _upstream(upstream, 0.54, _uncertified)(monkeypatch)
    rows8 = {r.lambda1_hi: r for r in tables.generate_table(8)[0]}
    rows7 = {r.lambda1_hi: r for r in tables.generate_table(7)[0]}
    assert rows8[0.52].certified
    assert not rows8[0.54].certified
    assert "upstream_certified" in rows8[0.54].detail["failed_checks"]
    assert rows7[0.52].certified
    assert rows7[0.54].certified is (upstream == 2)


def test_table11_reads_every_row_across_its_box(monkeypatch, fresh_tables):
    # table 2's row at 0.46 lies inside the s2 boxes of orders 5, 4 and 3
    # only; each of them must rest on it, not only on the row at its cap
    _upstream(2, 0.46, _uncertified)(monkeypatch)
    rows11 = {r.label: r for r in tables.generate_table(11)[0]}
    for label in ("ord 5", "ord 4", "ord 3"):
        assert not rows11[label].certified, label
        assert "upstream_certified" in rows11[label].detail["failed_checks"]
    assert rows11["ord ge6"].certified and rows11["ord 2"].certified


def test_tables_9_and_10_decide_with_the_tested_rhs(monkeypatch, fresh_tables):
    # a row of table 9 or 10 is decided by the same RHS function the tests
    # check, read from its _THIRD_ZERO entry: with that RHS replaced, no row
    # certifies, as one decided by an inline copy would
    assert tables._THIRD_ZERO[9][0] is rhs_lambda3_complex
    assert tables._THIRD_ZERO[10][0] is rhs_lambda3_real
    for n in (9, 10):
        monkeypatch.setitem(tables._THIRD_ZERO, n,
                            (lambda *args: 1.0,) + tables._THIRD_ZERO[n][1:])
        rows = tables.generate_table(n)[0]
        assert rows and not any(r.certified for r in rows), n
