"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion computes its artefacts from scratch and is timed against its
stated budget; tolerances are pinned here, not deferred.
"""

import math
import time

import numpy as np

from linnik import _data, density, final, tables
from linnik.kernel import LinnikParams, WeightKernel
from linnik.supbound import GridSpec, SupProblem, domination_check, sup_bound
from linnik.tables import CERT_MARGIN, warmup_l1
from oracles import F_quadrature, mp_laplace

def _report(n, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {n} failed: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded budget: {elapsed:.1f}s"

def _rows_ok(rows):
    return all(r.certified and r.c_reproduced for r in rows)

def test_criterion_1_kernel_cross_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        gamma = rng.uniform(0.5, 1.7)
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(-50.0, 50.0))
        kern = WeightKernel(gamma)
        diff = abs(kern.F(z) - F_quadrature(kern, z))
        if diff > 5e-10:
            # the double-precision oracle itself is roundoff-limited here;
            # re-check against the high-precision one
            diff = abs(kern.F(z) - mp_laplace(gamma, z))
        worst = max(worst, diff)
    axis_worst = 0.0
    for gamma in (0.5, 1.0, 1.25, 1.7):
        kern = WeightKernel(gamma)
        for y in np.linspace(0.05, 60.0, 50):
            closed = 2.0 * (2.0 * (math.sin(gamma * y) - gamma * y * math.cos(gamma * y))
                            / y**3) ** 2
            axis_worst = max(axis_worst, abs(kern.F(1j * y).real - closed))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-9 and axis_worst <= 1e-9, elapsed, 5.0,
            f"max |closed-quadrature| = {worst:.2e}, axis error = {axis_worst:.2e}")

def test_criterion_2_warmup_bound():
    t0 = time.perf_counter()
    value = warmup_l1(WeightKernel(1.9), 0.144)
    elapsed = time.perf_counter() - t0
    _report(2, value < -CERT_MARGIN, elapsed, 1.0, f"rhs(0.144) = {value:.4f}")

def test_criterion_3_second_zero_tables():
    t0 = time.perf_counter()
    rows2, _ = tables.generate_table(2)
    rows3, _ = tables.generate_table(3)
    ok = (len(rows2) == 25 and len(rows3) == 19
          and _rows_ok(rows2) and _rows_ok(rows3))
    elapsed = time.perf_counter() - t0
    _report(3, ok, elapsed, 300.0, f"{len(rows2)} + {len(rows3)} rows certified")

def test_criterion_4_second_character_tables():
    t0 = time.perf_counter()
    rows4, _ = tables.generate_table(4)
    rows5, _ = tables.generate_table(5)
    rows6, _ = tables.generate_table(6)
    rows7, _ = tables.generate_table(7)
    dominance = all(all(r.detail["D_by_case"][c] <= r.detail["D_by_case"][2]
                        for c in (3, 4, 6, 8)) for r in rows4)
    published7 = [p["lambda2_new"] for p in _data.published_table(7)
                  if p["lambda2_new"] is not None]
    min_matches = [r.claimed_bound for r in rows7] == published7
    ok = (_rows_ok(rows4) and _rows_ok(rows5) and _rows_ok(rows6)
          and all(r.certified for r in rows7) and dominance and min_matches)
    elapsed = time.perf_counter() - t0
    _report(4, ok, elapsed, 900.0,
            f"{len(rows4)}+{len(rows5)}+{len(rows6)} stepped rows, "
            f"dominance={dominance}, row-min={min_matches}")

def test_criterion_5_third_zero_tables():
    t0 = time.perf_counter()
    rows8, _ = tables.generate_table(8)
    rows9, _ = tables.generate_table(9)
    rows10, _ = tables.generate_table(10)
    guard9 = rows9[0].detail["guard_bound"]
    guard10 = max(r.detail["guard_bound"] for r in rows10)
    guards_ok = (guard9 < 0.18 and guard9 < WeightKernel(1.25).f0 / 6.0
                 and guard10 < 0.10
                 and all(r.detail["guard_bound"]
                         < 5.0 / 48.0 * WeightKernel(r.detail["gamma"]).f0
                         for r in rows10))
    ok = (all(r.certified for r in rows8) and all(r.certified for r in rows9)
          and all(r.certified for r in rows10) and guards_ok)
    elapsed = time.perf_counter() - t0
    _report(5, ok, elapsed, 600.0,
            f"guards: {guard9:.3f} < 0.18, {guard10:.3f} < 0.10")

def test_criterion_6_first_zero_table():
    t0 = time.perf_counter()
    rows11, _ = tables.generate_table(11)
    got = {r.label.split()[-1]: r.claimed_bound for r in rows11}
    expected = {"ge6": 0.440, "5": 0.493, "4": 0.478, "3": 0.498, "2": 0.628}
    ok = _rows_ok(rows11) and got == expected
    elapsed = time.perf_counter() - t0
    _report(6, ok, elapsed, 300.0, f"bounds {sorted(got.values())}")

def test_criterion_7_counting_tables():
    t0 = time.perf_counter()
    records = density.gen_density_tables()
    numeric = [r for r in records if r["match"] is not None]
    mismatches = [r for r in numeric if not r["match"]]
    elapsed = time.perf_counter() - t0
    _report(7, len(numeric) >= 380 and not mismatches, elapsed, 60.0,
            f"{len(numeric)} cells integer-exact, {len(mismatches)} mismatches")

def test_criterion_8_final_verification():
    t0 = time.perf_counter()
    report = final.verify_all(LinnikParams(L=5.2, K=0.32, theta=1.15, c1=0.11, c2=0.27))
    worst = min(report.results, key=lambda r: r.margin)
    ok = report.all_certified and report.all_reproduced and len(report.results) == 46
    elapsed = time.perf_counter() - t0
    _report(8, ok, elapsed, 120.0,
            f"{len(report.results)} cases, worst margin {worst.margin:.2e} "
            f"({worst.case.id})")

def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    params = LinnikParams()
    failures = []

    # certificate domination and tail domination, seed-fixed
    problems = [
        (SupProblem(WeightKernel(1.058), k1=0.8014, k2=1.3923, k3=0.0,
                    s11=0.903, s12=0.903, s21=0.34, s22=0.36),
         GridSpec(0.0, 0.004, 0.004, 15.0)),
        (SupProblem(WeightKernel(0.78), k1=0.25, k2=0.734, k3=0.0,
                    s11=0.903, s12=1.69, s21=0.34, s22=0.36),
         GridSpec(0.015, 0.007, 0.015, 7.0)),
        (SupProblem(WeightKernel(1.25), k1=1.0, k2=0.0, k3=2.0,
                    s11=0.44, s12=0.85, s21=0.0, s22=0.0),
         GridSpec(0.03, 0.0, 0.03, 6.0)),
    ]
    rng = np.random.default_rng(99)
    for prob, grid in problems:
        cert = sup_bound(prob, grid)
        if domination_check(cert, samples=100_000, seed=99)["max_excess"] > 0:
            failures.append(f"domination {prob.as_record()}")
        t = rng.uniform(grid.x1, grid.x1 + 80.0, 20_000)
        s1 = rng.uniform(prob.s11, prob.s12, 20_000)
        s2 = rng.uniform(prob.s21, prob.s22, 20_000)
        kern = prob.kernel
        tail_vals = (prob.k1 * np.real(kern.F(-s1 + 1j * t))
                     - prob.k2 * np.real(kern.F(-(s1 - s2) + 1j * t))
                     - prob.k3 * np.real(kern.F(1j * t)))
        if np.max(tail_vals) > cert.tail:
            failures.append("tail domination")
        from linnik.supbound import A_eval, derivative_bounds
        d1, d2, d3 = derivative_bounds(prob)
        h = 1e-6
        for _ in range(100):
            s1p = rng.uniform(prob.s11 + h, max(prob.s12 - h, prob.s11 + h))
            s2p = rng.uniform(prob.s21 + h, max(prob.s22 - h, prob.s21 + h))
            tp = rng.uniform(h, grid.x1)
            fd = abs(A_eval(prob, s1p, s2p, tp + h) - A_eval(prob, s1p, s2p, tp - h)) / (2 * h)
            if fd > d3 * (1 + 1e-6) + 1e-9:
                failures.append("derivative soundness")
                break

    # monotonicity batteries
    kern = WeightKernel(1.0)
    lam = np.arange(0.0, 3.0, 0.01)
    if not np.all(np.diff(kern.F_real(-lam)) > 0):
        failures.append("F(-lam) monotone")
    bvals = [params.B(x) for x in np.arange(0.05, 3.0, 0.01)]
    if not all(a > b for a, b in zip(bvals, bvals[1:])):
        failures.append("B monotone")
    cvals = [params.C(1.29, x) for x in np.arange(0.005, 1.29, 0.005)]
    if not (all(a >= b - 1e-9 for a, b in zip(cvals, cvals[1:]))
            and all(v >= -1e-9 for v in cvals)):
        failures.append("C monotone/nonnegative")
    wvals = [params.w(x) for x in np.arange(0.1, 2.0, 0.01)]
    if not all(a > b for a, b in zip(wvals, wvals[1:])):
        failures.append("w monotone")
    rvals = [params.damped_ratio(x) for x in np.arange(0.1, 2.0, 0.005)]
    if not all(a >= b for a, b in zip(rvals, rvals[1:])):
        failures.append("damped ratio monotone")

    # algebraic identities
    rng2 = np.random.default_rng(7)
    K = params.K
    for x in rng2.uniform(0.01, 3.0, 100):
        rhs = ((1.0 / 6.0) * (1.0 - math.exp(-2 * K * x)) / x
               + (2 * K * x - 1.0 + math.exp(-2 * K * x)) / (2.0 * x * x))
        if abs(K * K * params.B(x) - rhs) > 1e-12:
            failures.append("K^2 B identity")
            break
    for _ in range(100):
        z = complex(rng2.uniform(-2, 2), rng2.uniform(-10, 10))
        if abs(complex(params.H(z))
               - np.exp(-params.decay * z) * complex(params.H2(z))) > 1e-12:
            failures.append("H = damped H2")
            break

    elapsed = time.perf_counter() - t0
    _report(9, not failures, elapsed, 120.0,
            "zero failures" if not failures else f"failures: {failures}")
