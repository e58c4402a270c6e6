"""Table-engine tests: RHS monotonicity, case penalties, certified rows."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linnik import _data, tables
from linnik.kernel import WeightKernel
from linnik.tables import (CERT_MARGIN, lambda2_D, rhs_lambda1, rhs_lambda2_case,
                           rhs_lambda3_complex, rhs_lambda3_real, rhs_lprime_high,
                           rhs_lprime_low, delta_step_max, table6_bound_at,
                           warmup_l1)


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
        delta_step_max(kern, 0.2, 0.36, 0.9, 1.0, 1e-3, 0.0)
    with pytest.raises(ValueError):
        delta_step_max(kern, 0.7, 0.36, 0.9, 1.0, 0.0, 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lo=st.floats(0.0, 2.0), span=st.floats(1e-3, 2.0), delta=st.floats(1e-4, 0.5))
def test_step_ends_cover_the_interval(lo, span, delta):
    hi = lo + span
    a, b = tables._step_ends(lo, hi, delta)
    assert a[0] == lo
    assert np.array_equal(b[:-1], a[1:])
    assert b[-1] >= hi
    assert np.all(b - a <= delta * (1.0 + 1e-9))
    for bad in (0.0, -delta):
        with pytest.raises(ValueError):
            tables._step_ends(lo, hi, bad)


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


def test_table9_guard_below_caps(table_rows):
    kern = WeightKernel(1.25)
    for r in table_rows[9]:
        assert r.detail["guard_bound"] < 0.18
        assert r.detail["guard_bound"] < kern.f0 / 6.0


def test_table10_guards_below_caps(table_rows):
    for r in table_rows[10]:
        kern = WeightKernel(r.detail["gamma"])
        assert r.detail["guard_bound"] < 0.10
        assert r.detail["guard_bound"] < 5.0 / 48.0 * kern.f0


def test_table6_lookup_covers_requested_cap(table_rows):
    rows6 = table_rows[6]
    assert table6_bound_at(0.52, rows6).claimed_bound == 1.43
    assert table6_bound_at(0.54, rows6).claimed_bound == 1.43
    assert table6_bound_at(0.56, rows6).claimed_bound == 1.36
    assert table6_bound_at(0.68, rows6).claimed_bound == 1.11
    with pytest.raises(ValueError):
        table6_bound_at(0.9, rows6)


def test_table11_reproduces_first_zero_bounds(table_rows):
    got = {r.label: r.claimed_bound for r in table_rows[11]}
    assert got == {"ord ge6": 0.440, "ord 5": 0.493, "ord 4": 0.478,
                   "ord 3": 0.498, "ord 2": 0.628}


def test_generate_table_rejects_unknown():
    with pytest.raises(ValueError):
        tables.generate_table(14)


def test_each_table_certified_once(monkeypatch, fresh_tables):
    calls = []

    def counting(problem, grid):
        calls.append((problem, grid))
        return real(problem, grid)

    real = tables.sup_bound
    monkeypatch.setattr(tables, "sup_bound", counting)
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


#: sha256 of the certificate inputs and row decisions of tables 2-11; a
#: refactor of the generators must leave it unchanged
CERTIFIED_INPUTS_SHA256 = "17dad03df09c4c3c4390549e63fff77da3f59440ea4c32bcf0535858b5d103c8"


def test_certified_inputs_unchanged():
    # margins and bounds go through libm and may differ across platforms; the
    # boxes, coefficients, lattices and claims come from IEEE arithmetic on
    # parsed decimals, so their digest is the same everywhere
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


def test_table8_reuses_table4_certificates():
    rows4, certs4 = tables.generate_table(4)
    rows8, certs8 = tables.generate_table(8)
    by_cap = {r.lambda1_hi: r.detail["certificates"] for r in rows4}
    assert certs4 == tuple(c for r in rows4 for c in r.detail["certificates"])
    for r, pair in zip(rows8, zip(certs8[::2], certs8[1::2]), strict=True):
        assert all(a is b for a, b in zip(pair, by_cap[r.lambda1_hi], strict=True))


@pytest.mark.parametrize("upstream", [2, 4])
def test_failed_upstream_row_fails_downstream(monkeypatch, fresh_tables, upstream):
    real = tables._GENERATORS[upstream]

    def one_row_fails():
        rows, certs = real()
        return [dataclasses.replace(r, certified=False) if r.lambda1_hi == 0.54 else r
                for r in rows], certs

    monkeypatch.setitem(tables._GENERATORS, upstream, one_row_fails)
    rows8 = {r.lambda1_hi: r for r in tables.generate_table(8)[0]}
    rows7 = {r.lambda1_hi: r for r in tables.generate_table(7)[0]}
    assert rows8[0.52].certified
    assert not rows8[0.54].certified
    assert "upstream_certified" in rows8[0.54].detail["failed_checks"]
    assert rows7[0.52].certified
    assert rows7[0.54].certified is (upstream == 2)


def test_tables_9_and_10_decide_with_the_tested_rhs(monkeypatch, fresh_tables):
    # a row of table 9 or 10 is decided by the same RHS function the tests check
    monkeypatch.setattr(tables, "rhs_lambda3_complex", lambda *args: 1.0)
    monkeypatch.setattr(tables, "rhs_lambda3_real", lambda *args: 1.0)
    for n in (9, 10):
        rows = tables.generate_table(n)[0]
        assert rows and not any(r.certified for r in rows), n
