"""Loaders for the shipped data files (published tables, imported constants)."""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from importlib import resources
from typing import Optional


def _read_text(relpath: str) -> str:
    return resources.files("linnik.data").joinpath(relpath).read_text(encoding="utf-8")


def _maybe_float(s: str) -> Optional[float]:
    s = s.strip()
    return float(s) if s else None


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
                row[key] = _maybe_float(val)
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=None)
def hb92() -> dict:
    return json.loads(_read_text("hb92_inputs.json"))


def hb92_map(key: str) -> dict:
    """A lambda-keyed map from the imported-constants file, keys as floats."""
    return {float(k): float(v) for k, v in hb92()[key]["values"].items()}


@lru_cache(maxsize=None)
def final_cases() -> dict:
    return json.loads(_read_text("final_cases.json"))
