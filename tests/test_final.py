"""Final-verification tests: schedules, counting lookups, W reproduction."""

import math

import pytest

from linnik import _data
from linnik.final import (DensityRef, FinalCase, c_star, compute_W,
                          lambda_schedule, load_registry, n0_schedule,
                          verify_all)
from linnik.kernel import LinnikParams

PARAMS = LinnikParams()


def _case(**kw):
    base = dict(id="t", family="chi_complex", lambda1_lo=0.6, lambda1_hi=0.62,
                lambda_prime_lo=1.13, lambda2_lo=0.91, lambda3_lo=0.933,
                Lambda=1.300, density=None, published_W=1.0)
    base.update(kw)
    return FinalCase(**base)


def _registry_case(case_id: str) -> FinalCase:
    for case in load_registry():
        if case.id == case_id:
            return case
    raise KeyError(case_id)


# ------------------------------------------------------------ schedule -----

def test_schedule_collapses_when_third_zero_reaches_split():
    l3s, s, grid = lambda_schedule(_case(lambda3_lo=1.29, Lambda=1.29))
    assert (l3s, s) == (1.29, 0)
    assert grid == [1.29]


def test_schedule_depth_19():
    l3s, s, grid = lambda_schedule(_case(lambda3_lo=0.857, Lambda=1.350))
    assert s == 19
    assert grid[-1] == pytest.approx(0.875)


def test_schedule_three_points():
    l3s, s, grid = lambda_schedule(_case(lambda3_lo=1.175, Lambda=1.225))
    assert s == 2
    assert grid == pytest.approx([1.225, 1.200, 1.175])


def test_schedule_consistency_across_registry():
    # Lambda_{s+1} < lambda3* <= Lambda_s for every shipped case
    for case in load_registry():
        l3s, s, grid = lambda_schedule(case)
        assert grid[s] >= l3s - 1e-12, case.id
        assert grid[s] - 0.025 < l3s, case.id


# ------------------------------------------------------- counting lookups --

def test_n0_schedule_with_band_branch():
    # the documented band example: N(1.075) in [7, 10] uses the capped
    # unconditional column below the branch point and the >=7 column above
    case = _registry_case("16.4b")
    grid = lambda_schedule(case)[2]
    n0 = n0_schedule(case)
    by_lam = dict(zip([round(x, 3) for x in grid], n0))
    assert by_lam[1.300] == 101 and by_lam[1.125] == 23 and by_lam[1.100] == 21
    # every point at or below the branch is capped at 10
    assert all(by_lam[k] == 10 for k in by_lam if k <= 1.075)


def test_n0_schedule_unconditional():
    case = _registry_case("15.1")
    n0 = n0_schedule(case)
    grid = lambda_schedule(case)[2]
    keine = {round(float(r["lam"]), 3): int(r["bound"])
             for r in _data.published_table(12)
             if r["lambda1"] == 0.62 and not r["n0"] and r["bound"] != "-"}
    for lam, val in zip(grid, n0):
        assert val == keine[round(lam, 3)]


def test_n0_schedule_monotone_along_grid():
    for case in load_registry():
        if case.density is None:
            continue
        n0 = n0_schedule(case)
        assert all(a >= b for a, b in zip(n0, n0[1:])), case.id


def test_n0_schedule_requires_density():
    with pytest.raises(ValueError):
        n0_schedule(_case(density=None))


# ------------------------------------------------------------- c_star ------

def test_c_star_sentinel_collapse():
    case = _case(lambda_prime_lo=None, lambda1_hi=None, lambda3_lo=1.300)
    K2 = PARAMS.K ** 2
    h2 = complex(PARAMS.H2(case.lambda1_lo)).real
    expect = case.alpha * h2 / K2 * math.exp(-PARAMS.decay * case.lambda1_lo)
    assert c_star(case, PARAMS) == pytest.approx(expect, rel=1e-12)


def test_c_star_nonnegative_across_registry():
    for case in load_registry():
        assert c_star(case, PARAMS) >= 0.0


# ---------------------------------------------------------------- W --------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("method", ["H2", "B", "w"])
def test_non_finite_input_refuses_every_case(monkeypatch, method, bad):
    # max(0.0, c_lp, nan) returns a finite value and `nan < -1e-12` is False,
    # so a NaN or inf must be refused explicitly
    monkeypatch.setattr(LinnikParams, method, lambda self, *args: bad)
    for case in load_registry():
        with pytest.raises(FloatingPointError):
            compute_W(case, PARAMS)


def test_W_spec_rows():
    assert compute_W(_registry_case("14.1"), PARAMS).W <= 0.8250 + 1e-4
    assert compute_W(_registry_case("15.2"), PARAMS).W <= 0.9598 + 1e-4
    assert compute_W(_registry_case("16.1"), PARAMS).W <= 0.9577 + 1e-4


def test_W_terms_nonnegative(final_report):
    for res in final_report.results:
        for name, value in res.terms.items():
            assert value >= -1e-12, (res.case.id, name, value)


def test_density_telescoping_nonnegative(final_report):
    for res in final_report.results:
        assert res.terms["density_floor"] + res.terms["density_sum"] >= 0.0


def test_full_registry_passes(final_report):
    assert final_report.all_certified
    assert final_report.all_reproduced
    assert len(final_report.results) == 46


def test_each_W_within_published_window(final_report):
    for res in final_report.results:
        pub = res.case.published_W
        assert res.W <= pub + 1e-4, res.case.id
        assert res.W >= pub - 5e-3, res.case.id
        assert res.W < 1.0 - 1e-4, res.case.id


def test_weaker_exponent_increases_margins(final_report):
    relaxed = verify_all(LinnikParams(L=5.5))
    for a, b in zip(relaxed.results, final_report.results):
        assert a.margin > b.margin, a.case.id
    assert relaxed.all_certified


def test_stronger_exponent_fails():
    report = verify_all(LinnikParams(L=4.5))
    assert any(not r.certified for r in report.results)


def test_parameter_precondition_audit():
    # L - 2K must clear both 3 and twice the sieve cutoff
    assert PARAMS.decay == pytest.approx(4.56)
    assert PARAMS.decay > max(3.0, 2.0 * PARAMS.x)
    assert 2.0 * PARAMS.x == pytest.approx(2.5333333333333333)


# ------------------------------------------------------ registry shape -----

def test_registry_branches_partition_counts():
    # rows sharing a window and bounds must split [0, inf) into contiguous
    # count ranges: first branch starts at 0, gaps are forbidden, last is open
    groups = {}
    for case in load_registry():
        key = (case.family, case.lambda1_lo, case.lambda1_hi, case.lambda2_lo,
               case.lambda3_lo)
        groups.setdefault(key, []).append(case)
    for key, cases in groups.items():
        branched = [c for c in cases if c.density is not None and c.density.lambda0]
        if not branched:
            continue
        branched.sort(key=lambda c: c.density.n_lo)
        assert branched[0].density.n_lo == 0, key
        for prev, nxt in zip(branched, branched[1:]):
            assert prev.density.n_hi is not None, key
            assert nxt.density.n_lo == prev.density.n_hi + 1, key
        assert branched[-1].density.n_hi is None, key


def test_registry_bounds_match_certified_tables():
    t2 = {r["lambda1_hi"]: r["lambda_prime"] for r in _data.published_table(2)}
    t7 = {r["lambda1_hi"]: r["lambda2_new"] for r in _data.published_table(7)
          if r["lambda2_new"] is not None}
    t8 = {r["lambda1_hi"]: r["all_cases"] for r in _data.published_table(8)}
    t9 = {(r["lambda1_lo"], r["lambda1_hi"], r["lambda2_cap"]): r["lambda3"]
          for r in _data.published_table(9)}
    for case in load_registry():
        if case.family != "chi_complex" or case.lambda1_hi is None:
            continue
        cap = case.lambda1_hi
        if cap in t2:
            assert case.lambda_prime_lo == t2[cap], case.id
        if cap in t7 and case.id not in ("16.7a", "16.7b", "16.7c",
                                         "16.9a", "16.9b",
                                         "16.11a", "16.11b", "16.11c"):
            # conditional-branch rows replace the table bound by the branch cap
            assert case.lambda2_lo == t7[cap], case.id
        if cap in t8:
            assert case.lambda3_lo == t8[cap], case.id
        window = (case.lambda1_lo, case.lambda1_hi)
        plain = t9.get((*window, None))
        if plain is not None:
            conditional = {v for (lo, hi, c), v in t9.items()
                           if (lo, hi) == window and c is not None}
            assert case.lambda3_lo in {plain} | conditional, case.id


def test_density_ref_grid_validation():
    with pytest.raises(ValueError):
        _case(Lambda=1.29, density=DensityRef(table=12, column=0.60))
