"""Benchmark of the linnik certification engine.

    python3 perfbench/run.py --workload chain|sup_random|final_sweep \
        --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``linnik`` from ``src/`` and
needs nothing installed beyond numpy and scipy.  Each repetition runs in a
fresh interpreter (``worker.py``), so every repetition pays the cold start
a user pays; repetitions continue until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics come from untraced repetitions.
With ``--trace 1`` traced and untraced repetitions alternate; the traced
ones write their spans to ``.perfbench/spans/<workload>/`` and the
per-layer metrics are derived from those files (``tracing.py``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
sample counts, the machine and the recorded baseline.  The exit code is 1,
after the result line, if any correctness gate failed; it is 2, with no
result, if the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (modules of this directory)
from workloads import WORKLOADS  # noqa: E402

#: Timings are in units of the worker's reference computation (``ref``):
#: on a shared host the speed available to one process can drift by tens of
#: percent over minutes, and the ratio to a reference timed beside the body
#: cancels that drift.  Set-up time is divided by the same reference and
#: given in seconds on a host where the reference takes REF_NOMINAL_S.  The
#: info line gives every timing in plain seconds too.
REF_NOMINAL_S = 0.060
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB",
              "op_p50_ref": "ref", "op_p90_ref": "ref"}

#: untraced repetitions at least, and traced + untraced pairs with --trace 1
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: no repetition starts after this many seconds, so a run ends within 180 s
START_CAP_S = 120.0
REP_TIMEOUT_S = 50.0


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, workdir: Path, spans: Path = None) -> dict:
    """Start one worker and return its result object."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def nearest_rank(values, q: float) -> float:
    """The q-quantile (0 < q <= 1) of values by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median(reps, fn):
    return statistics.median(fn(r) for r in reps)


def end_to_end(reps) -> dict:
    """Medians over repetitions of END_TO_END, each timing divided by its
    repetition's reference time; op percentiles are taken per repetition."""
    return {
        "setup_s": REF_NOMINAL_S * _median(reps, lambda r: r["setup_s"] / r["ref_s"]),
        "wall_ref": _median(reps, lambda r: r["wall_s"] / r["ref_s"]),
        "cpu_ref": _median(reps, lambda r: r["cpu_s"] / r["ref_s"]),
        "peak_rss_mb": _median(reps, lambda r: r["peak_rss_mb"]),
        "op_p50_ref": _median(reps, lambda r: nearest_rank(r["op_s"], 0.5) / r["ref_s"]),
        "op_p90_ref": _median(reps, lambda r: nearest_rank(r["op_s"], 0.9) / r["ref_s"]),
    }


def in_seconds(reps) -> dict:
    """The same timings in seconds, for the info line."""
    return {
        "ref_ms": 1e3 * _median(reps, lambda r: r["ref_s"]),
        "setup_s": _median(reps, lambda r: r["setup_s"]),
        "wall_s": _median(reps, lambda r: r["wall_s"]),
        "cpu_s": _median(reps, lambda r: r["cpu_s"]),
        "op_p50_ms": 1e3 * _median(reps, lambda r: nearest_rank(r["op_s"], 0.5)),
        "op_p90_ms": 1e3 * _median(reps, lambda r: nearest_rank(r["op_s"], 0.9)),
    }


def per_layer(traced, untraced, span_files) -> dict:
    runs = [tracing.layer_metrics(tracing.load_spans(path)) for path in span_files]
    out = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    out["trace_overhead_frac"] = (end_to_end(traced)["wall_ref"]
                                  / end_to_end(untraced)["wall_ref"] - 1.0)
    return out


def cross_rep_failures(workload: str, reps) -> list:
    """Outputs that must repeat exactly across repetitions and did not."""
    key = {"chain": "digests", "final_sweep": "certified_counts"}.get(workload)
    if key is None:
        return []
    first = reps[0][key]
    if workload == "chain":
        return sorted({name for r in reps[1:] for name in set(first) | set(r[key])
                       if r[key].get(name) != first.get(name)})
    return sorted({i for r in reps[1:] for i, (a, b) in enumerate(zip(first, r[key]))
                   if a != b})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "linnik" / "__init__.py").is_file():
        print(f"error: no linnik package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench_dir = ROOT / ".perfbench"
    workdir = bench_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    span_dir = bench_dir / "spans" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)

    untraced, traced, span_files, error = [], [], [], None
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            done = len(untraced) >= (MIN_TRACED_PAIRS if args.trace else MIN_REPS) \
                and len(traced) >= (MIN_TRACED_PAIRS if args.trace else 0)
            if (done and elapsed >= args.seconds) or elapsed >= START_CAP_S:
                break
            if args.trace and len(traced) < len(untraced):
                path = span_dir / f"rep{len(traced)}.jsonl"
                traced.append(run_rep(args.workload, args.seed, workdir, path))
                span_files.append(path)
            else:
                untraced.append(run_rep(args.workload, args.seed, workdir))
    except RepFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = untraced + traced
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps) + (error is not None)
    failed = sum(r["failed"] for r in reps) + (error is not None)
    if not untraced or (args.trace and not traced):
        # nothing to measure, but the failure still gets its result line
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    unstable = cross_rep_failures(args.workload, reps)
    failed += len(unstable)
    reasons = [reason for r in reps for reason in r.get("reasons", [])]

    if args.trace:
        values = per_layer(traced, untraced, span_files)
        units = tracing.LAYER_METRICS
    else:
        values, units = end_to_end(untraced), END_TO_END
    baseline_path = HERE / "baseline.json"
    baseline = (json.loads(baseline_path.read_text())["workloads"].get(args.workload)
                if baseline_path.is_file() else None)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reps": len(untraced), "traced_reps": len(traced),
        "op_samples": sum(len(r["op_s"]) for r in untraced),
        "seconds": in_seconds(untraced),
        "machine": reps[0]["machine"],
        "missing_hooks": sorted({h for r in traced for h in r["missing_hooks"]}),
        "not_repeated": unstable, "failure_reasons": reasons[:5],
        "baseline": baseline,
    }
    if args.workload == "sup_random":
        info["mpts_per_s"] = 1e-6 * untraced[0]["lattice_points"] / info["seconds"]["wall_s"]
    print(json.dumps({"info": info}))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
