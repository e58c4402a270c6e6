"""Loaders for the shipped data files (published tables, imported constants)."""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from importlib import resources


def _read_text(relpath: str) -> str:
    return resources.files("linnik.data").joinpath(relpath).read_text(encoding="utf-8")


def _finite(text: str) -> float:
    """The number ``text``; a NaN or an infinity is refused."""
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(f"not a finite number: {text!r}")


def _load_json(relpath: str):
    """The shipped JSON file ``relpath``; a NaN, an Infinity or a float overflow is refused."""
    try:
        return json.loads(_read_text(relpath), parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        raise ValueError(f"{relpath}: {exc}") from None


@lru_cache(maxsize=None)
def published_table(n: int) -> tuple:
    """Rows of the published table n (2..13) as dicts of parsed values."""
    text = _read_text(f"tables_published/table{n}.csv")
    rows = []
    for raw in csv.DictReader(text.splitlines()):
        row = {}
        for key, val in raw.items():
            val = val.strip()
            if key in ("ord", "bound"):
                row[key] = val  # ord is a label, bound an integer literal or "-"
            else:
                row[key] = _finite(val) if val else None  # a blank cell is None
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=None)
def hb92() -> dict:
    return _load_json("hb92_inputs.json")


def hb92_map(key: str) -> dict:
    """A lambda-keyed map from the imported-constants file, keys as floats."""
    return {float(k): float(v) for k, v in hb92()[key]["values"].items()}


@lru_cache(maxsize=None)
def final_cases() -> dict:
    return _load_json("final_cases.json")


#: what each stage's guard catches and names: data faults (a missing key, a
#: value its reader refuses), then computation faults
FAULTS = (KeyError, ValueError, TypeError, ArithmeticError, RuntimeError)


def named(where: str, exc: Exception) -> Exception:
    """``exc``, met at ``where`` (a table, a counting cell or a case), named
    once: an outer stage leaves a fault that an inner one named.  A
    computation fault (ArithmeticError, RuntimeError) keeps its class and
    fields, its message prefixed "<where>: "; a data fault becomes
    RuntimeError("<where>: <what>"), caused by ``exc``."""
    if hasattr(exc, "where"):
        return exc
    if isinstance(exc, (ArithmeticError, RuntimeError)):
        exc.args = (f"{where}: {exc}",)
    else:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        cause, exc = exc, RuntimeError(f"{where}: {what}")
        exc.__cause__ = cause
    exc.where = where
    return exc
