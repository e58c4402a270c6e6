"""Command-line interface: kernel evaluation, table certification, final check.

Exit codes: 0 success; 1 certification/reproduction failure, a NaN or inf,
an overflow or a division by zero in a computation, or a vanished
counting-table cell; 2 usage error, a non-finite ``eval`` input and an
unreadable ``--params`` or unwritable ``--out`` path included.
Outputs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

from . import density, final, tables
from .kernel import LinnikParams, WeightKernel, classic_density_bound
from .supbound import domination_check

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

EVAL_FUNCTIONS = ("f", "F", "B", "H", "H2", "w1", "w", "C", "classic_density")
PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(LinnikParams))

TABLE_CSV_COLUMNS = ("table", "label", "lambda1_lo", "lambda1_hi", "lambda_star",
                     "claimed_bound", "computed_C", "published_C", "margin", "certified")
DENSITY_CSV_COLUMNS = ("lambda1", "lambda0", "n0", "lam", "published", "computed", "match")
FINAL_CSV_COLUMNS = ("case", "family", "lambda1_lo", "lambda1_hi", "Lambda",
                     "W", "published_W", "margin", "certified", "reproduces")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _params_from_args(args) -> LinnikParams:
    kwargs = {}
    if getattr(args, "params", None):
        with open(args.params) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.params}: expected a JSON object of parameters")
        unknown = sorted(set(loaded) - set(PARAM_FIELDS))
        if unknown:
            raise ValueError(f"{args.params}: unknown parameter(s) {', '.join(unknown)}; "
                             f"expected some of {', '.join(PARAM_FIELDS)}")
        kwargs.update(loaded)
    for name in ("L", "K", "theta", "c1", "c2"):
        val = getattr(args, name, None)
        if val is not None:
            kwargs[name] = val
    return LinnikParams(**kwargs)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _finite_or_inf(text: str) -> Optional[float]:
    """A finite number, or None for the +infinity sentinel 'inf'."""
    return None if text.lower() in ("inf", "infinity") else _finite_float(text)


def cmd_eval(args) -> int:
    name = args.function
    z = complex(args.z[0], args.z[1] if len(args.z) > 1 else 0.0)
    if name in ("f", "F"):
        if args.gamma is None:
            raise ValueError("eval f/F requires --gamma")
        kern = WeightKernel(args.gamma)
        if name == "f":
            value = kern.f(args.t)
        else:
            value = kern.F(z)
    elif name == "classic_density":
        value = classic_density_bound(args.lam, args.eps)
    else:
        params = _params_from_args(args)
        if name == "B":
            value = params.B(args.lam)
        elif name == "H2":
            value = params.H2(z)
        elif name == "H":
            value = params.H(z)
        elif name == "w1":
            value = params.w1(args.t)
        elif name == "w":
            value = params.w(args.s)
        else:  # C
            value = params.C(args.Lambda, args.lam_str)
    if args.json:
        if isinstance(value, complex):
            payload = {"re": value.real, "im": value.imag}
        else:
            payload = float(value)
        print(json.dumps({"function": name, "value": payload}, sort_keys=True))
    else:
        if isinstance(value, complex):
            print(f"{value.real!r} {value.imag!r}")
        else:
            print(repr(float(value)))
    return EXIT_OK


def _write_csv(path: Path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def cmd_table(args) -> int:
    n = args.number
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if n in (12, 13):
        records = [r for r in density.regenerated_tables().records if r["table"] == n]
        rows = [[_fmt(r["lambda1"]), _fmt(r["lambda0"]), _fmt(r["n0"]), _fmt(r["lam"]),
                 _fmt(r["published"]), _fmt(r["computed"]), _fmt(r["match"])]
                for r in records]
        _write_csv(outdir / f"table_{n}.csv", DENSITY_CSV_COLUMNS, rows)
        audit = {"table": n, "cells": [
            {k: rec[k] for k in ("lambda1", "lambda0", "n0", "lam", "published",
                                 "computed", "gamma", "parabola", "roots", "match")}
            for rec in records]}
        with open(outdir / f"audit_{n}.json", "w") as fh:
            json.dump(audit, fh, indent=1, sort_keys=True, default=str)
        failures = [r for r in records if r["match"] is False]
        if failures:
            for r in failures:
                print(f"MISMATCH table {n} lambda1={r['lambda1']} lam={r['lam']}: "
                      f"published {r['published']} computed {r['computed']}")
            return EXIT_FAILED
        print(f"table {n}: {len(records)} cells checked, all printed values match")
        return EXIT_OK

    rows, certificates = tables.generate_table(n)
    csv_rows = []
    for r in rows:
        csv_rows.append([
            _fmt(r.table), r.label, _fmt(r.lambda1_lo), _fmt(r.lambda1_hi),
            _fmt(r.lambda_star), _fmt(r.claimed_bound),
            ";".join(repr(c) for c in r.computed_C),
            ";".join(repr(c) for c in r.published_C),
            _fmt(r.margin), _fmt(r.certified),
        ])
    _write_csv(outdir / f"table_{n}.csv", TABLE_CSV_COLUMNS, csv_rows)
    with open(outdir / f"audit_{n}.json", "w") as fh:
        json.dump({"table": n, "seed": args.seed,
                   "certificates": [
                       {**cert.as_record(),
                        "domination_sample": domination_check(cert, samples=2000,
                                                              seed=args.seed)}
                       for cert in certificates]},
                  fh, indent=1, sort_keys=True)
    bad = [r for r in rows if not (r.certified and r.c_reproduced)]
    if bad:
        for r in bad:
            print(f"FAILED table {n} row {r.label}: certified={r.certified} "
                  f"margin={r.margin:.3e} computed_C={r.computed_C} "
                  f"published_C={r.published_C} "
                  f"failed_checks={r.detail.get('failed_checks', ())}")
        return EXIT_FAILED
    print(f"table {n}: {len(rows)} rows certified")
    return EXIT_OK


def cmd_verify_final(args) -> int:
    params = _params_from_args(args)
    report = final.verify_all(params)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_rows = []
    for res in report.results:
        case = res.case
        csv_rows.append([case.id, case.family, _fmt(case.lambda1_lo),
                         _fmt(case.lambda1_hi), _fmt(case.Lambda), _fmt(res.W),
                         _fmt(case.published_W), _fmt(res.margin),
                         _fmt(res.certified), _fmt(res.reproduces)])
    _write_csv(outdir / "final_report.csv", FINAL_CSV_COLUMNS, csv_rows)
    payload = {
        "parameters": {"L": params.L, "K": params.K, "theta": params.theta,
                       "c1": params.c1, "c2": params.c2, "epsilon": params.epsilon},
        "passed": report.passed,
        "cases": [{
            "id": res.case.id, "family": res.case.family, "W": res.W,
            "published_W": res.case.published_W, "certified": res.certified,
            "reproduces": res.reproduces, "margin": res.margin,
            "terms": res.terms, "schedule": res.schedule,
        } for res in report.results],
    }
    with open(outdir / "final_report.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    worst = min(report.results, key=lambda r: r.margin)
    print(f"{len(report.results)} cases, worst margin {worst.margin:.6f} "
          f"(case {worst.case.id}), passed={report.passed}")
    if not report.passed:
        for res in report.results:
            if not res.certified or res.reproduces is False:
                print(f"FAILED case {res.case.id}: W={res.W:.6f} "
                      f"published={res.case.published_W}")
        return EXIT_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linnik",
        description="Certify the zero-free-region and zero-density tables behind "
                    "the least-prime exponent L = 5.2.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one of the closed-form functions")
    p_eval.add_argument("function", choices=EVAL_FUNCTIONS)
    p_eval.add_argument("--gamma", type=_finite_float, help="kernel parameter for f/F")
    p_eval.add_argument("--z", type=_finite_float, nargs="+", default=[0.0],
                        help="complex argument: RE [IM]")
    p_eval.add_argument("--t", type=_finite_float, default=0.0)
    p_eval.add_argument("--s", type=_finite_or_inf, default="0.0", help="real argument or 'inf'")
    p_eval.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    p_eval.add_argument("--lambda-str", dest="lam_str", type=_finite_or_inf, default="1.0",
                        help="lambda for C; accepts 'inf'")
    p_eval.add_argument("--Lambda", type=_finite_float, default=1.29)
    p_eval.add_argument("--eps", type=_finite_float, default=0.0)
    for name in ("L", "K", "theta", "c1", "c2"):
        p_eval.add_argument(f"--{name}", type=float)
    p_eval.add_argument("--params", type=str, help="JSON file with parameter overrides")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="certify one table (2..13)")
    p_table.add_argument("number", type=int, choices=range(2, 14))
    p_table.add_argument("--out", default="out")
    p_table.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="accepted and ignored; the certificates run single-threaded")
    p_table.add_argument("--seed", type=int, default=0)
    p_table.set_defaults(func=cmd_table)

    p_final = sub.add_parser("verify-final", help="run the full W < 1 verification")
    p_final.add_argument("--params", type=str, help="JSON file with L, K, theta, c1, c2")
    p_final.add_argument("--out", default="out")
    p_final.set_defaults(func=cmd_verify_final)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a NaN or inf, an overflow or division by zero, a failed quadrature or
    # a broken counting-table lookup
    except (ArithmeticError, RuntimeError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return EXIT_FAILED
    # bad input, or a --params/--out path that cannot be read or written
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
