"""Repeat the benchmark over many seeds and report the spread of each metric.

    python3 perfbench/prove.py [--first-seed 100] [--write-baseline]

Runs ``BENCHMARK.json``'s command for RUNS consecutive seeds on every
workload (untraced), then prints, per end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (q3 - q1) /
median, and that spread as a share of the metric's bound; the exit code
is 1 if any spread exceeds its bound.  With
``--write-baseline`` the medians and quartiles go to ``baseline.json``,
which ``run.py`` prints with every result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, args.first_seed + i) for i in range(RUNS)]
        baseline["machine"] = runs[0]["info"]["machine"]
        rows = {}
        print(f"{workload}: {RUNS} runs, reps per run "
              f"{[r['info']['reps'] for r in runs]}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": runs[0]["result"]["metrics"][name]["unit"]}
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            ok &= spread <= bound
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  of bound {spread / bound:5.2f}{flag}")
        rows["seconds"] = {name: statistics.median(r["info"]["seconds"][name] for r in runs)
                           for name in runs[0]["info"]["seconds"]}
        print(f"  in seconds (medians): {rows['seconds']}")
        baseline["workloads"][workload] = rows
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
