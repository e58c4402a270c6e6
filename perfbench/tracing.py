"""Spans around the public functions of each ``linnik`` layer, and the
per-layer metrics derived from them.

Each wrapper is installed where the layer's callers look the function up
(``linnik.tables.sup_bound``, the ``WeightKernel.F`` method, ...), so the
program itself is unchanged.  A span records ``(id, parent, name, thread,
start, end, attrs)``.  A span opened on a thread with no open span of its
own (a ``--jobs`` pool worker) takes the innermost open span of the main
thread as its parent, so ``F`` on pool threads is a child of ``grid_max``.

A public name that no longer exists is skipped: its metrics read zero and
the name is listed in ``Tracer.missing``.

This module is imported by the benchmark's parent process too, so it
imports nothing from ``linnik`` or numpy at module level.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter

TABLES = tuple(range(2, 12))

#: the per-layer metrics, in report order, with their units
LAYER_METRICS = {
    "kernel.F_calls": "count", "kernel.F_points": "count", "kernel.F_s": "s",
    "kernel.F_ns_per_pt": "ns/pt",
    "kernel.xf_moment_calls": "count", "kernel.xf_moment_s": "s",
    "kernel.w_calls": "count", "kernel.w_s": "s",
    "kernel.penalty_calls": "count", "kernel.penalty_s": "s",
    "kernel.C_calls": "count", "kernel.C_s": "s", "kernel.B_calls": "count",
    "supbound.certs": "count", "supbound.certs_unique": "count",
    "supbound.cert_unique_ratio": "ratio", "supbound.cert_s": "s",
    "supbound.grid_max_s": "s", "supbound.grid_max_self_s": "s",
    "supbound.lattice_points": "count", "supbound.F_points_per_lattice_pt": "ratio",
    "supbound.mpts_per_s": "Mpt/s",
    "supbound.tail_s": "s", "supbound.deriv_s": "s", "supbound.tail_binding": "count",
    "supbound.domination_s": "s",
    **{f"tables.t{n}_s": "s" for n in TABLES},
    "tables.rows": "count", "tables.rows_certified": "count", "tables.min_margin": "1",
    "density.s": "s", "density.cells": "count", "density.cells_matched": "count",
    "density.quadratic_calls": "count",
    "final.s": "s", "final.cases": "count", "final.cases_certified": "count",
    "final.compute_W_p50_ms": "ms", "final.quad_frac": "ratio",
    "cli.self_s": "s", "cli.commands": "count", "data.load_s": "s",
    "trace_overhead_frac": "ratio",
}


class Tracer:
    """Installs span-recording wrappers; records only while ``enabled``."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.missing = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patches = []

    def wrap(self, owner, attr, name, attrs=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``attrs(args, result)`` returns the span's counts.
        """
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and tid != tracer._main else None
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                label, extra = name if isinstance(name, str) else orig.__name__, None
                try:  # a changed signature costs the span its counts, not the run
                    label = name(args) if callable(name) else name
                    if attrs is not None and result is not None:
                        extra = attrs(args, result)
                except (LookupError, TypeError, AttributeError):
                    pass
                tracer.spans.append((sid, parent, label, tid, start, end, extra))

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every ``linnik`` layer."""
    from linnik import _data, cli, density, final, kernel, supbound, tables
    from workloads import lattice_points

    def cert_attrs(args, cert):
        key = repr((cert.problem, cert.grid)).encode()
        return {"key": hashlib.sha1(key).hexdigest()[:16],
                "tail_binding": cert.tail >= cert.bound}

    def rows_attrs(args, result):
        rows = result[0]
        return {"rows": len(rows), "certified": sum(bool(r.certified) for r in rows),
                "min_margin": min((r.margin for r in rows), default=None)}

    w = tracer.wrap
    w(kernel.WeightKernel, "F", "kernel.F", lambda a, r: {"points": _size(a[1])})
    w(kernel.WeightKernel, "xf_exp_moment", "kernel.xf_moment")
    for attr, label in (("w", "kernel.w"), ("penalty_integral", "kernel.penalty"),
                        ("C", "kernel.C"), ("B", "kernel.B")):
        w(kernel.LinnikParams, attr, label)
    w(supbound, "grid_max", "supbound.grid_max",
      lambda a, r: {"points": lattice_points(a[0], a[1])})
    w(supbound, "tail_bound", "supbound.tail")
    w(supbound, "derivative_bounds", "supbound.deriv")
    for owner in (supbound, tables):
        w(owner, "sup_bound", "supbound.sup_bound", cert_attrs)
    for owner in (supbound, cli):
        w(owner, "domination_check", "supbound.domination")
    w(tables, "generate_table", lambda a: f"tables.t{a[0]}", rows_attrs)
    w(density, "gen_density_tables", "density.gen",
      lambda a, r: {"cells": len(r), "matched": sum(c["match"] is True for c in r)})
    w(density, "quadratic_N_bound", "density.quadratic")
    w(final, "verify_all", "final.verify_all",
      lambda a, r: {"cases": len(r.results),
                    "certified": sum(bool(c.certified) for c in r.results)})
    w(final, "compute_W", "final.compute_W")
    w(cli, "main", "cli.main")
    for attr in ("published_table", "hb92", "final_cases"):
        w(_data, attr, "data.load")
    return tracer


def _size(z) -> int:
    try:
        return int(z.size)
    except AttributeError:
        return 1


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so overlapping children
    (pool threads) are counted once and a self time is never negative.
    """
    children = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())
                   if min(b, end) > max(a, start)]
        out[sid] = (end - start) - union_length(clipped)
    return out


def load_spans(path) -> list:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def layer_metrics(spans) -> dict:
    """Every LAYER_METRICS entry but trace_overhead_frac, from one run's spans."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    names = {span[0]: span[2] for span in spans}
    parents = {span[0]: span[1] for span in spans}
    selfs = self_times(spans)

    def n(name):
        return len(by_name[name])

    def busy(name):
        return sum(s[5] - s[4] for s in by_name[name])

    def attr_sum(name, key):
        return sum((s[6] or {}).get(key, 0) for s in by_name[name])

    def self_sum(name):
        return sum(selfs[s[0]] for s in by_name[name])

    def covered(*names_):
        return union_length([(s[4], s[5]) for nm in names_ for s in by_name[nm]])

    def under(sid, ancestor):
        sid = parents.get(sid)
        while sid is not None:
            if names.get(sid) == ancestor:
                return True
            sid = parents.get(sid)
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    f_points = attr_sum("kernel.F", "points")
    lattice = attr_sum("supbound.grid_max", "points")
    grid_f_points = sum((s[6] or {}).get("points", 0) for s in by_name["kernel.F"]
                        if under(s[0], "supbound.grid_max"))
    certs = by_name["supbound.sup_bound"]
    keys = {(s[6] or {}).get("key", s[0]) for s in certs}
    table_spans = [s for t in TABLES for s in by_name[f"tables.t{t}"]]
    margins = [s[6]["min_margin"] for s in table_spans
               if s[6] and s[6]["min_margin"] is not None]
    compute_w = [s[5] - s[4] for s in by_name["final.compute_W"]]
    final_s = busy("final.verify_all")

    m = {
        "kernel.F_calls": n("kernel.F"), "kernel.F_points": f_points,
        "kernel.F_s": busy("kernel.F"),
        "kernel.F_ns_per_pt": 1e9 * ratio(busy("kernel.F"), f_points),
        "kernel.xf_moment_calls": n("kernel.xf_moment"),
        "kernel.xf_moment_s": busy("kernel.xf_moment"),
        "kernel.w_calls": n("kernel.w"), "kernel.w_s": busy("kernel.w"),
        "kernel.penalty_calls": n("kernel.penalty"), "kernel.penalty_s": busy("kernel.penalty"),
        "kernel.C_calls": n("kernel.C"), "kernel.C_s": busy("kernel.C"),
        "kernel.B_calls": n("kernel.B"),
        "supbound.certs": len(certs), "supbound.certs_unique": len(keys),
        "supbound.cert_unique_ratio": ratio(len(keys), len(certs)),
        "supbound.cert_s": busy("supbound.sup_bound"),
        "supbound.grid_max_s": busy("supbound.grid_max"),
        "supbound.grid_max_self_s": self_sum("supbound.grid_max"),
        "supbound.lattice_points": lattice,
        "supbound.F_points_per_lattice_pt": ratio(grid_f_points, lattice),
        "supbound.mpts_per_s": 1e-6 * ratio(lattice, busy("supbound.grid_max")),
        "supbound.tail_s": busy("supbound.tail"),
        "supbound.deriv_s": busy("supbound.deriv"),
        "supbound.tail_binding": sum(bool((s[6] or {}).get("tail_binding")) for s in certs),
        "supbound.domination_s": busy("supbound.domination"),
        **{f"tables.t{t}_s": busy(f"tables.t{t}") for t in TABLES},
        "tables.rows": sum(s[6]["rows"] for s in table_spans if s[6]),
        "tables.rows_certified": sum(s[6]["certified"] for s in table_spans if s[6]),
        "tables.min_margin": min(margins, default=0.0),
        "density.s": busy("density.gen"),
        "density.cells": attr_sum("density.gen", "cells"),
        "density.cells_matched": attr_sum("density.gen", "matched"),
        "density.quadratic_calls": n("density.quadratic"),
        "final.s": final_s,
        "final.cases": attr_sum("final.verify_all", "cases"),
        "final.cases_certified": attr_sum("final.verify_all", "certified"),
        "final.compute_W_p50_ms": 1e3 * statistics.median(compute_w) if compute_w else 0.0,
        "final.quad_frac": ratio(covered("kernel.w", "kernel.penalty"), final_s),
        "cli.self_s": self_sum("cli.main"), "cli.commands": n("cli.main"),
        "data.load_s": covered("data.load"),
    }
    return m
