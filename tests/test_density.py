"""Zero-counting tests: the quadratic bound and its tables."""


import pytest

from linnik.density import (DensityQuery, density_gamma, quadratic_N_bound,
                            regenerated_tables)
from linnik.kernel import classic_density_bound


def test_gamma_formula_plain():
    q = DensityQuery(lam=0.875, lambda11=0.40)
    assert density_gamma(q) == pytest.approx(0.975 + 0.525 * 0.875 - 0.550 * 0.40, abs=1e-15)


def test_gamma_independent_of_lambda0_without_prior():
    a = density_gamma(DensityQuery(lam=1.0, lambda11=0.5, lambda0=0.0, n0=0))
    b = density_gamma(DensityQuery(lam=1.0, lambda11=0.5, lambda0=0.9, n0=0))
    assert a == b


def test_gamma_clamped_at_half():
    # a heavy prior drives the fitted value below the kernel floor
    q = DensityQuery(lam=1.9, lambda11=1.8, lambda0=0.1, n0=100)
    assert density_gamma(q) == 0.5


def test_published_example_cells():
    assert quadratic_N_bound(DensityQuery(lam=0.875, lambda11=0.40)).bound == 10
    assert quadratic_N_bound(
        DensityQuery(lam=1.100, lambda11=0.60, lambda0=1.075, n0=16)).bound == 19
    assert quadratic_N_bound(DensityQuery(lam=1.350, lambda11=0.78)).bound == 110


def test_query_validation():
    with pytest.raises(ValueError):
        DensityQuery(lam=1.0, lambda11=1.0)  # lambda11 must be < lam
    with pytest.raises(ValueError):
        DensityQuery(lam=2.5, lambda11=0.5)
    with pytest.raises(ValueError):
        DensityQuery(lam=1.0, lambda11=0.5, lambda0=1.5)
    with pytest.raises(ValueError):
        DensityQuery(lam=1.0, lambda11=0.5, n0=10001)


def test_root_correctness_on_all_table_cells(density_records):
    for rec in density_records:
        if rec["computed"] is None or rec["match"] is None:
            continue
        n0 = rec["n0"] or 0
        q = DensityQuery(lam=rec["lam"], lambda11=rec["lambda1"],
                         lambda0=rec["lambda0"] or 0.0, n0=n0)
        res = quadratic_N_bound(q)
        m = res.bound
        assert res.h(m) >= -1e-9, rec
        assert res.h(m + 1) < 0.0, rec


def test_regeneration_integer_exact(density_records):
    mismatches = [r for r in density_records if r["match"] is False]
    assert not mismatches, mismatches[:5]
    numeric = [r for r in density_records if r["match"] is True]
    assert len(numeric) >= 380  # every printed cell of both tables


def test_unprinted_cells_are_weaker_than_classic(density_records):
    dashes = [r for r in density_records if r["match"] is None]
    assert len(dashes) == 4
    for rec in dashes:
        assert rec["weaker_than_classic"], rec


def test_bound_monotone_in_assumption_strength():
    # stronger first-zero hypothesis (larger lambda11) cannot worsen the bound
    for lam in (0.9, 1.0, 1.1):
        bounds = [quadratic_N_bound(DensityQuery(lam=lam, lambda11=l1)).bound
                  for l1 in (0.40, 0.44, 0.54, 0.60)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:])), (lam, bounds)


def test_bound_nondecreasing_in_lambda():
    for l1 in (0.44, 0.60):
        lams = [0.875 + 0.025 * i for i in range(12)]
        bounds = [quadratic_N_bound(DensityQuery(lam=lam, lambda11=l1)).bound
                  for lam in lams]
        assert all(a <= b for a, b in zip(bounds, bounds[1:])), (l1, bounds)


def test_classic_dominates_quadratic_for_small_lambda():
    for lam in (0.875, 0.95, 1.0, 1.05, 1.1):
        quad = quadratic_N_bound(DensityQuery(lam=lam, lambda11=0.44)).bound
        assert classic_density_bound(lam) >= quad


def test_guard_failure_returns_unbounded():
    # deep boxes break the concavity guard and the bound degenerates
    res = quadratic_N_bound(DensityQuery(lam=1.9, lambda11=0.5))
    assert res.bound is None
    assert not res.guards_ok
    assert res.roots is None


def test_lookup_missing_cell_is_loud():
    tables = regenerated_tables()
    with pytest.raises(KeyError, match="no cell at lambda"):
        tables.lookup(12, 0.40, 1.250)
    assert tables.lookup(12, 0.40, 1.225) == 127
    assert tables.lookup(13, 0.68, 1.350, n0=10) == 142
