"""Seeded inputs, timed bodies and correctness gates of the three workloads.

The inputs depend only on the seed.  Every function here that touches
``linnik`` looks its callees up through the module attribute at call time,
so the tracer's wrappers (see ``tracing.py``) see each call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("chain", "sup_random", "final_sweep")

#: one cold user run: every table command, then the final verification
CHAIN_COMMANDS = tuple(["table", str(n)] for n in range(2, 14)) + (["verify-final"],)

#: problems per lattice shape in one sup_random pass
SUP_PER_SHAPE = 40
SUP_SHAPES = ("s2_swept", "s1_swept", "box3d")

#: lattice points along each swept axis; widths sit half a step past a
#: multiple of the spacing so every box has exactly n + 1 lattice points
SUP_SWEEP_POINTS = {"s2_swept": (0, 14), "s1_swept": (14, 0), "box3d": (14, 7)}

#: parameter sets in one final_sweep pass (the default set is the first)
FINAL_SETS = 16
FINAL_RANGES = {"L": (5.0, 5.6), "theta": (1.05, 1.25), "c1": (0.09, 0.13),
                "c2": (0.24, 0.30)}

#: Monte-Carlo samples per certificate in the sup_random domination gate
DOMINATION_SAMPLES = 2000

#: reproduction slack on published sup-bound caps, as the CLI applies it
PUBLISHED_C_SLACK = 1e-4


def lattice_size(a: float, b: float, step: float) -> int:
    """Number of points of the clamped lattice min(a + j*step, b) on [a, b]."""
    if step == 0.0:
        return 1
    n = int(math.floor((b - a) / step)) + 1
    return int(np.unique(np.minimum(a + step * np.arange(n + 1), b)).size)


def lattice_points(problem, grid) -> int:
    """Lattice points (s1, s2, t) a grid maximum of this problem covers."""
    n_t = 1 if grid.x1 == 0.0 else lattice_size(0.0, grid.x1, grid.dt)
    return (lattice_size(problem.s11, problem.s12, grid.ds1)
            * lattice_size(problem.s21, problem.s22, grid.ds2) * n_t)


# --------------------------------------------------------------------------
# Input generators
# --------------------------------------------------------------------------

def sup_problem_specs(seed: int) -> list:
    """Seeded, distinct sup problems, SUP_PER_SHAPE of each lattice shape.

    Each spec is a plain dict (shape, kernel gamma, coefficients, boxes,
    grid).  Coefficient formulas and spacings follow the tables that use the
    shape; the box positions and the table "cap" are drawn from the seed.
    Coefficient variants take turns, so every seed has the same mix.
    """
    rng = np.random.default_rng([seed, 1])
    specs = []
    for shape in SUP_SHAPES:
        n1, n2 = SUP_SWEEP_POINTS[shape]
        for i in range(SUP_PER_SHAPE):
            if shape == "s2_swept":      # tables 2 (low caps) and 11
                cap = rng.uniform(0.36, 0.68)
                k = 0.75 + cap / 7.0
                s1 = rng.uniform(0.72, 0.92)
                ds2 = dt = 0.004
                spec = dict(gamma=1.13 - cap / 5.0, k1=k, k2=k * k + 0.75, k3=0.0,
                            s11=s1, s12=s1, s21=cap - (n2 + 0.5) * ds2, s22=cap,
                            ds1=0.0, ds2=ds2, dt=dt, x1=15.0)
            elif shape == "s1_swept":    # tables 2 (high caps), 3 and 9
                cap = rng.uniform(0.40, 0.80)
                k = 0.77 + cap / 10.0
                k1, k3 = [(2.0 * k, 2.0 * (k * k + 0.75)), (0.5, 2.0 * k),
                          (k, k * k + 0.75)][i % 3]
                ds1 = dt = 0.004
                spec = dict(gamma=1.21 - 5.0 * cap / 12.0, k1=k1, k2=0.0, k3=k3,
                            s11=cap - (n1 + 0.5) * ds1, s12=cap, s21=0.0, s22=0.0,
                            ds1=ds1, ds2=0.0, dt=dt, x1=15.0)
            else:                        # tables 4, 5, 6 and 10
                cap = rng.uniform(0.36, 0.68)
                k = 0.59 + 0.4 * cap
                k1, k2 = [(0.25, k), (0.0, 0.25)][i % 2]
                alt = rng.uniform(cap + 0.02, 0.95)
                ds1, ds2, dt = 0.015, 0.007, 0.015
                spec = dict(gamma=0.42 + cap, k1=k1, k2=k2, k3=0.0,
                            s11=alt, s12=alt + (n1 + 0.5) * ds1,
                            s21=cap - (n2 + 0.5) * ds2, s22=cap,
                            ds1=ds1, ds2=ds2, dt=dt, x1=7.0)
            specs.append({"shape": shape, **spec})
    return specs


def build_sup_problems(specs):
    """(SupProblem, GridSpec) pairs; the constructors validate each spec."""
    from linnik import supbound
    from linnik.kernel import WeightKernel
    pairs = []
    for s in specs:
        prob = supbound.SupProblem(WeightKernel(s["gamma"]), s["k1"], s["k2"], s["k3"],
                                   s["s11"], s["s12"], s["s21"], s["s22"])
        pairs.append((prob, supbound.GridSpec(ds1=s["ds1"], ds2=s["ds2"],
                                              dt=s["dt"], x1=s["x1"])))
    return pairs


def final_param_sets(seed: int) -> list:
    """The default parameter set, then seeded perturbations near it."""
    rng = np.random.default_rng([seed, 2])
    sets = [{}]
    for _ in range(FINAL_SETS - 1):
        sets.append({name: float(rng.uniform(lo, hi))
                     for name, (lo, hi) in FINAL_RANGES.items()})
    return sets


# --------------------------------------------------------------------------
# Correctness gates (all run outside the timed region)
# --------------------------------------------------------------------------

def certificate_failure(cert, seed: int, samples: int = DOMINATION_SAMPLES):
    """Why a sup certificate fails its gate, or None if it passes.

    The bound must be finite and no seeded sample of A may exceed it.
    """
    from linnik import supbound
    if not math.isfinite(cert.bound):
        return f"non-finite bound {cert.bound!r}"
    excess = supbound.domination_check(cert, samples=samples, seed=seed)["max_excess"]
    if not excess <= 0.0:
        return f"sample exceeds bound by {excess!r}"
    return None


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _c_reproduced(row: dict) -> bool:
    computed = [float(c) for c in row["computed_C"].split(";") if c]
    published = [float(c) for c in row["published_C"].split(";") if c]
    return all(c <= p + PUBLISHED_C_SLACK for c, p in zip(computed, published))


def chain_items(outdir: Path) -> tuple:
    """(items checked, items failed) over the chain's output files.

    An item is a table row, a counting-table cell or a final case.  A row
    fails unless certified with its sup bounds under the published caps; a
    printed cell fails unless it matches; a case fails unless certified and
    reproduced.  A missing output file counts as one failed item.
    """
    attempted = failed = 0
    for n in range(2, 14):
        path = outdir / f"table_{n}.csv"
        if not path.exists():
            attempted, failed = attempted + 1, failed + 1
            continue
        for row in _read_csv(path):
            attempted += 1
            if n >= 12:
                failed += row["match"] == "False"
            else:
                failed += not (row["certified"] == "True" and _c_reproduced(row))
    path = outdir / "final_report.csv"
    if not path.exists():
        return attempted + 1, failed + 1
    for row in _read_csv(path):
        attempted += 1
        failed += not (row["certified"] == "True" and row["reproduces"] != "False")
    return attempted, failed


def output_digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


# --------------------------------------------------------------------------
# Timed bodies: each returns per-operation times and what the gates need
# --------------------------------------------------------------------------

def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_chain(outdir: Path) -> dict:
    from linnik import cli
    op_s, codes, errors = [], [], []
    for cmd in CHAIN_COMMANDS:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(cmd + ["--out", str(outdir)]))
            errors.append(None)
        except Exception as exc:  # a command that raises is one failed operation
            codes.append(None)
            errors.append(_error(exc))
        op_s.append(time.perf_counter() - t0)
    return {"op_s": op_s, "codes": codes, "errors": errors}


def run_sup(pairs) -> dict:
    from linnik import supbound
    op_s, certs, errors = [], [], []
    for prob, grid in pairs:
        t0 = time.perf_counter()
        try:
            certs.append(supbound.sup_bound(prob, grid))
            errors.append(None)
        except Exception as exc:  # an exception is one failed certificate
            certs.append(None)
            errors.append(_error(exc))
        op_s.append(time.perf_counter() - t0)
    return {"op_s": op_s, "certs": certs, "errors": errors}


def run_final(param_sets) -> dict:
    from linnik import final
    from linnik.kernel import LinnikParams
    op_s, reports, errors = [], [], []
    for overrides in param_sets:
        t0 = time.perf_counter()
        try:
            reports.append(final.verify_all(LinnikParams(**overrides)))
            errors.append(None)
        except Exception as exc:  # an exception is this workload's failure
            reports.append(None)
            errors.append(_error(exc))
        op_s.append(time.perf_counter() - t0)
    return {"op_s": op_s, "reports": reports, "errors": errors}
