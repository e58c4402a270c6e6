"""Command-line interface: kernel evaluation, table certification, final check.

Exit codes: 0 success; 1 a certification or reproduction failure, or a
fault (a NaN or inf, an overflow or a division by zero, a failed quadrature,
a vanished counting-table cell, shipped data that disagree): one ``FAILED:``
line, named by ``_data.named`` after the innermost table, counting cell or
case that met it, or after ``eval``'s function; 2 usage error, a non-finite
``eval`` input and an unreadable ``--params`` or unwritable ``--out`` path
included.

``table`` and ``verify-final`` write their CSV and audit JSON through
``_write``, each CSV row read by its column list, once every value is
computed: a command stopped by an error writes no file.  Outputs are
deterministic: the domination audit draws its samples from the fixed seed
AUDIT_SEED.  Each certificate is audited once per process, and the
certificates of one ``table`` command that share kernel, box and x1 share
their draws and their F terms.
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

import numpy as np

from . import _data, density, final, tables
from .kernel import LinnikParams, WeightKernel, classic_density_bound
from .supbound import domination_checks

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
DENSITY_AUDIT_KEYS = ("lambda1", "lambda0", "n0", "lam", "published", "computed",
                      "gamma", "parabola", "roots", "match")
FINAL_JSON_CASE_KEYS = ("id", "family", "W", "published_W", "certified", "reproduces",
                        "margin", "terms", "schedule")


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


def _eval_value(args):
    """The value of ``eval``'s function at its arguments."""
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
        return kern.f(args.t) if name == "f" else kern.F(z)
    if name == "classic_density":
        return classic_density_bound(args.lam)
    params = _params_from_args(args)
    if name == "C":
        return params.C(args.Lambda, args.lam)
    return getattr(params, name)({"B": args.lam, "H2": z, "H": z, "w1": args.t, "w": args.s}[name])


def cmd_eval(args) -> int:
    name = args.function
    try:
        # numpy's warnings are silenced: a non-finite value fails the check below
        with np.errstate(all="ignore"):
            value = _eval_value(args)
        if not cmath.isfinite(value):
            raise FloatingPointError(f"the value is not finite ({value!r})")
    except (ArithmeticError, RuntimeError) as exc:
        raise _data.named(f"eval {name}", exc)
    if args.json:
        payload = ({"re": value.real, "im": value.imag} if isinstance(value, complex)
                   else float(value))
        print(json.dumps({"function": name, "value": payload}, sort_keys=True))
    elif isinstance(value, complex):
        print(f"{value.real!r} {value.imag!r}")
    else:
        print(repr(float(value)))
    return EXIT_OK


#: the domination audit of each certificate audited in this process, by
#: certificate: table 8 reuses the certificates of table 4
_AUDITS: dict = {}


def _audits(certificates) -> list:
    """The domination audit of each certificate, each run once per process.

    The certificates not yet audited are audited in one ``domination_checks``
    call, so those that share kernel, box and x1 share their draws and their
    F terms.  Callers share the dicts and only read them."""
    new = [cert for cert in dict.fromkeys(certificates) if cert not in _AUDITS]
    _AUDITS.update(zip(new, domination_checks(new, samples=2000, seed=AUDIT_SEED)))
    return [_AUDITS[cert] for cert in certificates]


def _write(out: str, names: tuple, columns: tuple, rows, audit: dict) -> None:
    """Write a command's two files into the directory ``out``: the CSV
    ``names[0]``, one line per row mapping read by ``columns``, and the audit
    JSON ``names[1]``."""
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / names[0], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(row[c]) for c in columns] for row in rows)
    with open(outdir / names[1], "w") as fh:
        json.dump(audit, fh, indent=1, sort_keys=True)


def cmd_table(args) -> int:
    n = args.number
    names = (f"table_{n}.csv", f"audit_{n}.json")
    if n in (12, 13):
        records = [r for r in density.regenerated_tables().records if r["table"] == n]
        _write(args.out, names, DENSITY_CSV_COLUMNS, records, {"table": n, "cells": [
            {k: rec[k] for k in DENSITY_AUDIT_KEYS} for rec in records]})
        failures = [r for r in records if r["match"] is False]
        for r in failures:
            print(f"MISMATCH table {n} lambda1={r['lambda1']} lam={r['lam']}: "
                  f"published {r['published']} computed {r['computed']}")
        if failures:
            return EXIT_FAILED
        print(f"table {n}: {len(records)} cells checked, all printed values match")
        return EXIT_OK

    rows, certificates = tables.generate_table(n)
    audits = _audits(certificates)
    _write(args.out, names, TABLE_CSV_COLUMNS, map(vars, rows), {
        "table": n, "seed": AUDIT_SEED,
        "certificates": [{**cert.as_record(), "domination_sample": audit}
                         for cert, audit in zip(certificates, audits)]})
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
    worst = min(rows, key=lambda r: r.margin)
    print(f"table {n}: {len(rows)} rows certified, "
          f"least margin {worst.margin:.3e} at {worst.label}")
    return EXIT_OK


def cmd_verify_final(args) -> int:
    params = _params_from_args(args)
    report = final.verify_all(params)
    # vars(res) holds the case object under ``case``; the row holds its id
    rows = [{**vars(res.case), **vars(res), "case": res.case.id} for res in report.results]
    _write(args.out, ("final_report.csv", "final_report.json"), FINAL_CSV_COLUMNS, rows, {
        "parameters": dataclasses.asdict(params), "passed": report.passed,
        "cases": [{k: row[k] for k in FINAL_JSON_CASE_KEYS} for row in rows]})
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
    # The matcher is a private argparse attribute (checked on Python 3.10-3.13);
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
    # a computation fault, or a shipped-data fault that a stage named
    except (ArithmeticError, RuntimeError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return EXIT_FAILED
    # bad input, or a --params/--out path that cannot be read or written
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
