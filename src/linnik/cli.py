"""Command-line interface: kernel evaluation, table certification, final check.

Exit codes: 0 success; 1 certification/reproduction failure, a sampled
value of A above its certified bound in a table's domination audit, a NaN
or inf (a non-finite ``eval`` value included), an overflow or a division by
zero in a computation, or a vanished counting-table cell; 2 usage error, a
non-finite ``eval`` input and an unreadable ``--params`` or unwritable
``--out`` path included.  Outputs are deterministic: the domination audit
draws its samples from the fixed seed AUDIT_SEED.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Optional

from . import density, final, tables
from .kernel import LinnikParams, WeightKernel, classic_density_bound
from .supbound import domination_check

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

#: the fixed seed of the domination audit written next to each table
AUDIT_SEED = 0

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
    if isinstance(value, tuple):
        return ";".join(repr(v) for v in value)
    return str(value)


def _params_from_args(args) -> LinnikParams:
    if not args.params:
        return LinnikParams()
    with open(args.params) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"{args.params}: expected a JSON object of parameters")
    unknown = sorted(set(loaded) - set(PARAM_FIELDS))
    if unknown:
        raise ValueError(f"{args.params}: unknown parameter(s) {', '.join(unknown)}; "
                         f"expected some of {', '.join(PARAM_FIELDS)}")
    return LinnikParams(**loaded)


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
    if len(args.z) > 2:
        raise ValueError(f"--z takes RE [IM], got {len(args.z)} values")
    z = complex(*args.z)
    if args.lam is None and name in ("B", "classic_density"):
        raise ValueError(f"eval {name}: --lambda must be finite; 'inf' is for C only")
    if name in ("f", "F"):
        if args.gamma is None:
            raise ValueError("eval f/F requires --gamma")
        kern = WeightKernel(args.gamma)
        if name == "f":
            value = kern.f(args.t)
        else:
            value = kern.F(z)
    elif name == "classic_density":
        value = classic_density_bound(args.lam)
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
            value = params.C(args.Lambda, args.lam)
    if not cmath.isfinite(value):
        raise FloatingPointError(f"eval {name}: the value is not finite ({value!r})")
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


@functools.lru_cache(maxsize=None)
def _audit(cert) -> dict:
    """The domination audit of one certificate, run once per process: table 8
    reuses the certificates of table 4.  Callers share the dict and only
    read it."""
    return domination_check(cert, samples=2000, seed=AUDIT_SEED)


def cmd_table(args) -> int:
    n = args.number
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if n in (12, 13):
        records = [r for r in density.regenerated_tables().records if r["table"] == n]
        _write_csv(outdir / f"table_{n}.csv", DENSITY_CSV_COLUMNS,
                   [[_fmt(r[c]) for c in DENSITY_CSV_COLUMNS] for r in records])
        audit = {"table": n, "cells": [
            {k: rec[k] for k in ("lambda1", "lambda0", "n0", "lam", "published",
                                 "computed", "gamma", "parabola", "roots", "match")}
            for rec in records]}
        with open(outdir / f"audit_{n}.json", "w") as fh:
            json.dump(audit, fh, indent=1, sort_keys=True)
        failures = [r for r in records if r["match"] is False]
        if failures:
            for r in failures:
                print(f"MISMATCH table {n} lambda1={r['lambda1']} lam={r['lam']}: "
                      f"published {r['published']} computed {r['computed']}")
            return EXIT_FAILED
        print(f"table {n}: {len(records)} cells checked, all printed values match")
        return EXIT_OK

    rows, certificates = tables.generate_table(n)
    _write_csv(outdir / f"table_{n}.csv", TABLE_CSV_COLUMNS,
               [[_fmt(getattr(r, c)) for c in TABLE_CSV_COLUMNS] for r in rows])
    audits = [_audit(cert) for cert in certificates]
    with open(outdir / f"audit_{n}.json", "w") as fh:
        json.dump({"table": n, "seed": AUDIT_SEED,
                   "certificates": [{**cert.as_record(), "domination_sample": audit}
                                    for cert, audit in zip(certificates, audits)]},
                  fh, indent=1, sort_keys=True)
    bad = [r for r in rows if not (r.certified and r.c_reproduced)]
    for r in bad:
        print(f"FAILED table {n} row {r.label}: certified={r.certified} "
              f"margin={r.margin:.3e} computed_C={r.computed_C} "
              f"published_C={r.published_C} "
              f"failed_checks={r.detail.get('failed_checks', ())}")
    # a sampled value of A above the certified bound refutes the certificate;
    # ``not <=`` also refuses a NaN excess
    refuted = [i for i, audit in enumerate(audits) if not audit["max_excess"] <= 0.0]
    for i in refuted:
        print(f"FAILED table {n} certificate {i}: a sampled value exceeds the bound "
              f"{certificates[i].bound!r} by {audits[i]['max_excess']!r}")
    if bad or refuted:
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
        "parameters": dataclasses.asdict(params),
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

    p_eval = sub.add_parser("eval", help="evaluate one of the closed-form functions",
                            allow_abbrev=False)
    # argparse takes only -123 and -1.5 for negative numbers, and -1e6 for an
    # option; eval has no option that looks like a number, so widen the match.
    # The matcher is a private argparse attribute (checked on Python 3.11);
    # test_cli asserts that argparse still has it.
    p_eval._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    p_eval.add_argument("function", choices=EVAL_FUNCTIONS)
    p_eval.add_argument("--gamma", type=_finite_float, help="kernel parameter for f/F")
    p_eval.add_argument("--z", type=_finite_float, nargs="+", default=[0.0],
                        help="complex argument: RE [IM]")
    p_eval.add_argument("--t", type=_finite_float, default=0.0)
    p_eval.add_argument("--s", type=_finite_or_inf, default="0.0", help="real argument or 'inf'")
    p_eval.add_argument("--lambda", dest="lam", type=_finite_or_inf, default=1.0,
                        help="real argument; 'inf' (C only) is the +infinity sentinel")
    p_eval.add_argument("--Lambda", type=_finite_float, default=1.29)
    p_eval.add_argument("--params", type=str, help="JSON file with parameter overrides")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="certify one table (2..13)", allow_abbrev=False)
    p_table.add_argument("number", type=int, choices=range(2, 14))
    p_table.add_argument("--out", default="out")
    p_table.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="accepted and ignored; the certificates run single-threaded")
    p_table.set_defaults(func=cmd_table)

    p_final = sub.add_parser("verify-final", help="run the full W < 1 verification",
                             allow_abbrev=False)
    p_final.add_argument("--params", type=str, help="JSON file with L, K, theta, c1, c2")
    p_final.add_argument("--out", default="out")
    p_final.set_defaults(func=cmd_verify_final)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process; parsing does not
    change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
