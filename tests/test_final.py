"""Final-verification tests: schedules, counting lookups, W reproduction."""

import dataclasses
import math
import weakref

import pytest

from linnik import _data, density, final, kernel
from linnik.final import (DensityRef, FinalCase, c_star, compute_W,
                          load_registry, n0_schedule, verify_all)
from linnik.kernel import LinnikParams, QuadratureError

PARAMS = LinnikParams()


#: a counting column for built cases whose lambda3 is below Lambda
REF = DensityRef(table=12, column=0.60)


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
    case = _case(lambda3_lo=1.29, Lambda=1.29)
    assert case.l3_star == 1.29
    assert case.grid == (1.29,)


def test_schedule_depth_19():
    grid = _case(lambda3_lo=0.857, Lambda=1.350, density=REF).grid
    assert len(grid) - 1 == 19
    assert grid[-1] == pytest.approx(0.875)


def test_schedule_three_points():
    grid = _case(lambda3_lo=1.175, Lambda=1.225, density=REF).grid
    assert grid == pytest.approx((1.225, 1.200, 1.175))


def test_schedule_consistency_across_registry():
    # Lambda_{s+1} < lambda3* <= Lambda_s for every shipped case
    for case in load_registry():
        assert case.grid[-1] >= case.l3_star - 1e-12, case.id
        assert case.grid[-1] - 0.025 < case.l3_star, case.id


def test_density_free_case_below_its_split_is_refused():
    # with no counting table, W drops both density terms, which is sound
    # only when C(lambda3*) = C(Lambda) = 0
    with pytest.raises(ValueError, match=r"^density-free row needs lambda3 >= Lambda$"):
        _case(lambda3_lo=1.299, Lambda=1.300)
    assert _case(lambda3_lo=1.300, Lambda=1.300).l3_star == 1.300


# ------------------------------------------------------- counting lookups --

def test_n0_schedule_with_band_branch():
    # the documented band example: N(1.075) in [7, 10] uses the capped
    # unconditional column below the branch point and the >=7 column above
    case = _registry_case("16.4b")
    n0 = n0_schedule(case)
    by_lam = dict(zip([round(x, 3) for x in case.grid], n0))
    assert by_lam[1.300] == 101 and by_lam[1.125] == 23 and by_lam[1.100] == 21
    # every point at or below the branch is capped at 10
    assert all(by_lam[k] == 10 for k in by_lam if k <= 1.075)


def test_n0_schedule_unconditional():
    case = _registry_case("15.1")
    n0 = n0_schedule(case)
    keine = {round(float(r["lam"]), 3): int(r["bound"])
             for r in _data.published_table(12)
             if r["lambda1"] == 0.62 and not r["n0"] and r["bound"] != "-"}
    for lam, val in zip(case.grid, n0):
        assert val == keine[round(lam, 3)]


def test_n0_schedule_monotone_along_grid():
    for case in load_registry():
        if case.density is None:
            continue
        n0 = n0_schedule(case)
        assert all(a >= b for a, b in zip(n0, n0[1:])), case.id


def test_schedules_kept_per_case_are_not_edited_by_a_caller():
    # the grid, the w arguments and the counting schedule are kept as
    # tuples, so an edit fails loudly
    case = _registry_case("16.4b")
    for kept in (case.grid, case.w_arguments, n0_schedule(case)):
        assert isinstance(kept, tuple)
        with pytest.raises(AttributeError):
            kept.append(0.0)


@pytest.mark.parametrize("bound, message", [
    (lambda lam: round(100 / lam), "counting schedule not monotone"),
    (lambda lam: 3, "schedule end below the floor of 4"),
], ids=["not-monotone", "below-floor"])
def test_failed_counting_column_is_never_kept(monkeypatch, fresh_tables, bound, message):
    # n0_schedule checks a column when it reads it, and keeps only one that
    # passes: each call reads the cells again and raises again, and once the
    # column is mended the next call reads it and keeps it
    real, broken, reads = density.DensityTables.lookup, [True], []

    def lookup(tables, t, c, lam, n0=0):
        reads.append(lam)
        return bound(lam) if broken and c == 0.62 else real(tables, t, c, lam, n0)

    monkeypatch.setattr(density.DensityTables, "lookup", lookup)
    case = _registry_case("15.1")
    for _ in range(2):
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            n0_schedule(case)
    assert len(reads) == 2 * len(case.grid)
    broken.clear()
    kept = n0_schedule(case)
    assert n0_schedule(case) is kept and len(reads) == 3 * len(case.grid)


def test_a_derived_case_reads_its_own_schedule_and_is_freed():
    # a case built from a registry case keeps its schedule itself, so the
    # counting tables hold no case: dropped, it is freed
    case = _registry_case("16.4b")
    derived = dataclasses.replace(case, lambda2_lo=case.lambda2_lo + 1e-3)
    assert n0_schedule(derived) == n0_schedule(case)
    ref = weakref.ref(derived)
    del derived
    assert ref() is None


def test_n0_schedule_requires_density():
    with pytest.raises(ValueError, match="uses no counting table"):
        n0_schedule(_case(lambda3_lo=1.300, density=None))


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
    # so a NaN or inf must be refused explicitly.  The set is the test's own:
    # a finite value computed under the patch (e^{-x} B / inf = 0) dies with it
    params = LinnikParams()
    monkeypatch.setattr(LinnikParams, method, lambda self, *args: bad)
    for case in load_registry():
        with pytest.raises(FloatingPointError):
            compute_W(case, params)


def test_a_non_finite_value_is_never_kept(monkeypatch):
    # a NaN met under a patched B is returned but never stored: once B is
    # restored, the same set gives the bits of a cold one
    params, cases = LinnikParams(theta=1.17), load_registry()
    with monkeypatch.context() as patch:
        patch.setattr(LinnikParams, "B", lambda self, lam: math.nan)
        for case in cases:
            with pytest.raises(FloatingPointError):
                compute_W(case, params)
    cold = LinnikParams(theta=1.17)
    assert _bits([compute_W(case, params) for case in cases]) \
        == _bits([compute_W(case, cold) for case in cases])


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


def _count_rows(monkeypatch) -> list:
    """The number of rows of each Gauss-Legendre pass run from now on."""
    rows = []
    real = kernel._gauss_legendre

    def counting(fn, a, b):
        values, faults = real(fn, a, b)
        rows.append(len(values))
        return values, faults

    monkeypatch.setattr(kernel, "_gauss_legendre", counting)
    return rows


def test_each_w_and_penalty_integral_computed_once(monkeypatch):
    # each verify_all call integrates the 95 distinct finite w arguments of
    # the registry in one batch and the penalty once, each integral in two
    # pieces (on [u, v] and [v, x]): its values die with the call, so the
    # same set called again integrates them again.  A set's own w memo is
    # read again without an integral
    params = LinnikParams(L=5.3)
    rows = _count_rows(monkeypatch)
    for calls in (1, 2):
        verify_all(params)
        assert rows == [95, 95, 1, 1] * calls
    rows.clear()
    for _ in range(2):
        params.w(1.3)
    assert rows == [1, 1]


def test_primed_w_memo_leaves_no_case_an_integral(monkeypatch):
    # after verify_all's batch no compute_W integrates w: FinalCase.w_arguments
    # lists every argument a case reads, through C, damped_ratio and the
    # per-Lambda terms too.  The first case integrates the penalty, one row
    # in each of its two pieces
    params = LinnikParams(L=5.25)
    rows = _count_rows(monkeypatch)
    per_case = []
    real = final.compute_W

    def compute(case, p):
        before = len(rows)
        result = real(case, p)
        per_case.append(len(rows) - before)
        return result

    monkeypatch.setattr(final, "compute_W", compute)
    verify_all(params)
    assert rows == [95, 95, 1, 1]
    assert per_case == [2] + [0] * 45


def _bits(results) -> list:
    return [(r.case.id, r.W.hex(), r.margin.hex(), {k: v.hex() for k, v in r.terms.items()},
             [(lam.hex(), n0) for lam, n0 in r.schedule]) for r in results]


def test_warm_verify_all_does_only_per_parameter_work(monkeypatch, fresh_tables):
    # after one verify_all, another parameter set builds no case and reads no
    # counting cell, and its W, margins, terms and schedules carry the bits
    # of a run with every memo cold
    built, looked_up = [], []
    real_post_init, real_lookup = FinalCase.__post_init__, density.DensityTables.lookup
    monkeypatch.setattr(FinalCase, "__post_init__",
                        lambda case: built.append(case.id) or real_post_init(case))
    monkeypatch.setattr(density.DensityTables, "lookup",
                        lambda tables, *args, **kw: looked_up.append(args)
                        or real_lookup(tables, *args, **kw))
    verify_all()
    built.clear()
    looked_up.clear()
    warm = verify_all(LinnikParams(L=5.3))
    assert built == [] and looked_up == []

    _data.final_cases.cache_clear()
    density.regenerated_tables.cache_clear()
    cold = verify_all(LinnikParams(L=5.3))
    assert len(built) == 46 and len(looked_up) > 0
    assert _bits(warm.results) == _bits(cold.results)


def test_equal_set_gives_the_shipped_bits_and_keeps_the_callers_set():
    # verify_all computes on a copy: the report holds the caller's own set,
    # with its memos left empty, and an equal set is judged as the shipped one
    params = LinnikParams()
    report = verify_all(params)
    assert report.params is params and report.passed
    assert params._memo == {} and params._w_integrals == {}
    assert _bits(report.results) == _bits(verify_all().results)


def test_verify_all_keeps_no_reference_to_a_set():
    # no structure that outlives the call holds the set or its copy
    params = LinnikParams(L=5.35)
    ref = weakref.ref(params)
    verify_all(params)
    del params
    assert ref() is None


def test_memos_keep_every_parameter_apart():
    # each set differs from the one before it in L, in c1 and c2, or in K: a
    # memo keyed without one of them hands a set the values of the set run
    # just before it, which differs between the two orders
    a = LinnikParams(L=5.3)
    b = dataclasses.replace(a, c1=0.112, c2=0.272)
    c = dataclasses.replace(b, K=0.33)
    runs = [{params: _bits(verify_all(params).results) for params in order}
            for order in ((a, b, c), (c, b, a))]
    assert runs[0] == runs[1]


def test_next_verify_all_sees_patched_registry_and_tables(monkeypatch, fresh_tables):
    verify_all()
    real = _data.final_cases()
    patched = {**real, "cases": [{**c, "published_W": 0.5} if c["id"] == "14.1" else c
                                 for c in real["cases"][:-1]]}
    monkeypatch.setattr(_data, "final_cases", lambda: patched)
    report = verify_all()
    assert len(report.results) == 45 and not report.all_reproduced
    assert [r.case.id for r in report.results if not r.reproduces] == ["14.1"]

    # a vanished cell of the counting tables fails the cases that read it,
    # at every call: a failed lookup is never kept
    records = density.gen_density_tables()
    for cell in records:
        if cell["published"] != "-":
            cell.update(computed=None, match=False)
    monkeypatch.setattr(density, "gen_density_tables", lambda: records)
    density.regenerated_tables.cache_clear()
    case = _registry_case("15.1")
    for _ in range(2):
        with pytest.raises(RuntimeError, match=r"^case 14\.2: .*bound vanished"):
            verify_all()
        with pytest.raises(RuntimeError, match="bound vanished"):
            n0_schedule(case)
    # nothing was kept: a further call reads the cells again, and the first
    # one it reads has vanished
    reads, real = [], density.DensityTables.lookup
    monkeypatch.setattr(density.DensityTables, "lookup",
                        lambda tables, *args: reads.append(args) or real(tables, *args))
    with pytest.raises(RuntimeError, match="bound vanished"):
        n0_schedule(case)
    assert len(reads) == 1


def test_failure_names_its_case_and_keeps_its_class():
    # verify_all names the case in the message; the exception stays what it was
    with pytest.raises(QuadratureError, match=r"^case 14\.1: 16- and 32-node") as info:
        verify_all(LinnikParams(theta=-60.0))
    assert info.value.estimate > 0.0 and info.value.achieved > 0.0
    with pytest.raises(ZeroDivisionError, match=r"^case 14\.1: float division by zero$"):
        verify_all(LinnikParams(K=1e-200))


def test_parameter_precondition_audit():
    # L - 2K must clear both 3 and twice the sieve cutoff
    assert PARAMS.decay == pytest.approx(4.56)
    assert PARAMS.decay > max(3.0, 2.0 * PARAMS.x)
    assert 2.0 * PARAMS.x == pytest.approx(2.5333333333333333)


# ------------------------------------------------------ registry shape -----

def test_registry_parameters_are_the_default_params():
    # verify_all judges reproduction against LinnikParams(); the registry's
    # own record of the parameters is not read, so it must not drift
    assert _data.final_cases()["parameters"] == dataclasses.asdict(LinnikParams())


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
