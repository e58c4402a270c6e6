"""One repetition of a workload in a fresh interpreter.

Run by ``run.py``, never by hand:

    python3 perfbench/worker.py --workload W --seed S --t0 T --workdir DIR
                                [--spans FILE]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; monotonic time is one clock for all processes on Linux, so the
set-up time counts interpreter start, imports, input generation and the
workload's warm-up.  A fixed reference computation is timed just before
and just after the timed body (``reference_s``).  With ``--spans`` the
timed body runs traced and the spans are written to FILE.  The last stdout
line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads as wl


def reference_s() -> float:
    """Time of a fixed computation that does not use linnik.

    Complex numpy arithmetic on a kernel-sized vector plus a pure-Python
    loop: the two kinds of work the workloads do.  On a shared host the
    speed available to one process can drift by tens of percent over
    minutes; the reference, timed next to the body, tracks that drift.
    """
    z = -0.5 + 1j * np.linspace(0.0, 15.0, 3751)
    t0 = time.perf_counter()
    for _ in range(200):
        np.real(np.exp(-2.0 * z) / z**4)
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _setup(name: str, seed: int, workdir: Path):
    """Import, build the inputs and warm up; returns the timed body."""
    if name == "chain":
        from linnik import cli  # noqa: F401  (the CLI entry point's imports)
        outdir = Path(tempfile.mkdtemp(prefix="chain-", dir=workdir))
        return outdir, lambda: wl.run_chain(outdir)
    if name == "sup_random":
        from linnik import supbound
        from linnik.kernel import WeightKernel
        pairs = wl.build_sup_problems(wl.sup_problem_specs(seed))
        supbound.sup_bound(  # warm-up on a small problem outside the measured set
            supbound.SupProblem(WeightKernel(1.0), 1.0, 0.5, 0.5, 0.5, 0.6, 0.3, 0.4),
            supbound.GridSpec(ds1=0.05, ds2=0.05, dt=0.05, x1=6.0))
        return pairs, lambda: wl.run_sup(pairs)
    if name == "final_sweep":
        from linnik import final
        param_sets = wl.final_param_sets(seed)
        final.verify_all()
        return param_sets, lambda: wl.run_final(param_sets)
    raise ValueError(f"unknown workload {name}")


def _gate(name: str, seed: int, inputs, out: dict) -> dict:
    """attempted/failed counts plus what the parent compares across reps."""
    if name == "chain":
        attempted, failed = wl.chain_items(inputs)
        bad_codes = sum(code != 0 for code in out["codes"])
        res = {"attempted": attempted + len(out["codes"]), "failed": failed + bad_codes,
               "reasons": [e for e in out["errors"] if e is not None][:5],
               "codes": out["codes"], "digests": wl.output_digests(inputs)}
        shutil.rmtree(inputs, ignore_errors=True)
        return res
    if name == "sup_random":
        reasons = [error or wl.certificate_failure(cert, seed * 1000 + i)
                   for i, (cert, error) in enumerate(zip(out["certs"], out["errors"]))]
        points = sum(wl.lattice_points(p, g) for p, g in inputs)
        return {"attempted": len(reasons), "failed": sum(r is not None for r in reasons),
                "reasons": [r for r in reasons if r is not None][:5],
                "lattice_points": points}
    reports, errors = out["reports"], out["errors"]
    failed = sum(e is not None for e in errors)
    default = reports[0]  # the shipped parameters: must pass and reproduce
    if default is not None and not (default.passed and all(
            r.reproduces is True for r in default.results)):
        failed += 1
    return {"attempted": len(reports), "failed": failed,
            "reasons": [e for e in errors if e is not None][:5],
            "certified_counts": [None if r is None else sum(bool(c.certified) for c in r.results)
                                 for r in reports]}


def _machine() -> dict:
    import numpy
    import scipy
    from linnik import cli
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cli_jobs": cli.build_parser().parse_args(["table", "2"]).jobs}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    inputs, body = _setup(args.workload, args.seed, args.workdir)
    tracer = None
    if args.spans is not None:
        import tracing
        tracer = tracing.install(tracing.Tracer())
    setup_s = time.monotonic() - args.t0

    ref_before = reference_s()
    if tracer is not None:
        tracer.enabled = True
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    out = body()
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.enabled = False
        tracer.dump(args.spans)
    ref_s = 0.5 * (ref_before + reference_s())

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "ref_s": ref_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "op_s": out["op_s"],
        "missing_hooks": tracer.missing if tracer is not None else [],
        **_gate(args.workload, args.seed, inputs, out),
        "machine": _machine(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
