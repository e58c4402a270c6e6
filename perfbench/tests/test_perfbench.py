"""Tests of the benchmark itself: inputs, gates, span arithmetic, metric names.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads as wl
from linnik import cli, final, supbound
from linnik.kernel import LinnikParams, WeightKernel

ROOT = Path(__file__).resolve().parents[2]


# -- input generators ---------------------------------------------------------

def test_sup_specs_deterministic_per_seed():
    assert wl.sup_problem_specs(7) == wl.sup_problem_specs(7)
    assert wl.sup_problem_specs(7) != wl.sup_problem_specs(8)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_sup_specs_build_valid_distinct_problems(seed):
    specs = wl.sup_problem_specs(seed)
    pairs = wl.build_sup_problems(specs)  # constructors validate every box
    assert len(set(pairs)) == len(pairs) == wl.SUP_PER_SHAPE * len(wl.SUP_SHAPES)
    for shape in wl.SUP_SHAPES:
        assert sum(s["shape"] == shape for s in specs) == wl.SUP_PER_SHAPE
    for spec, (prob, grid) in zip(specs, pairs):
        assert grid.x1 >= 4.0
        if spec["shape"] == "s2_swept":
            assert prob.s11 == prob.s12 and prob.k3 == 0.0
        elif spec["shape"] == "s1_swept":
            assert prob.s21 == prob.s22 == 0.0 and prob.k2 == 0.0
        else:
            assert prob.s11 < prob.s12 and prob.s21 < prob.s22


def test_sup_work_is_the_same_for_every_seed():
    def points(seed):
        return sum(wl.lattice_points(p, g)
                   for p, g in wl.build_sup_problems(wl.sup_problem_specs(seed)))
    assert points(0) == points(1) == points(99)


def test_lattice_size_matches_the_grid_maximum():
    prob, grid = wl.build_sup_problems(wl.sup_problem_specs(3))[-1]
    seen = []
    real_f = WeightKernel.F

    def counting_f(self, z):
        seen.append(getattr(z, "size", 1))
        return real_f(self, z)

    WeightKernel.F = counting_f
    try:
        supbound.grid_max(prob, grid)
    finally:
        WeightKernel.F = real_f
    n_t = wl.lattice_size(0.0, grid.x1, grid.dt)
    # k2-term F calls cover every (s1, s2, t) lattice point exactly once
    assert sum(n for n in seen if n == n_t) >= wl.lattice_points(prob, grid)


def test_final_param_sets_deterministic_and_valid():
    sets = wl.final_param_sets(5)
    assert sets == wl.final_param_sets(5) and sets != wl.final_param_sets(6)
    assert len(sets) == wl.FINAL_SETS and sets[0] == {}
    for overrides in sets:
        params = LinnikParams(**overrides)  # validates the constraint L - 2K > 3
        for name, (lo, hi) in wl.FINAL_RANGES.items():
            assert overrides == {} or lo <= getattr(params, name) <= hi


# -- correctness gates --------------------------------------------------------

def _small_cert():
    prob = supbound.SupProblem(WeightKernel(1.0), 1.0, 0.5, 0.5, 0.5, 0.6, 0.3, 0.4)
    return supbound.sup_bound(prob, supbound.GridSpec(ds1=0.05, ds2=0.05, dt=0.05, x1=6.0))


def test_certificate_gate_passes_a_sound_certificate():
    assert wl.certificate_failure(_small_cert(), seed=0) is None


def test_undercut_certificate_counts_as_failure():
    cert = _small_cert()
    undercut = dataclasses.replace(cert, bound=cert.bound - 1.0)
    nan = dataclasses.replace(cert, bound=math.nan)
    assert wl.certificate_failure(undercut, seed=0) is not None
    assert wl.certificate_failure(nan, seed=0) is not None
    pairs = [(cert.problem, cert.grid)] * 3
    gate = worker._gate("sup_random", 0, pairs,
                        {"certs": [cert, undercut, nan], "errors": [None] * 3})
    assert gate["attempted"] == 3 and gate["failed"] == 2


def test_raising_certificate_is_one_failed_operation():
    prob, grid = wl.build_sup_problems(wl.sup_problem_specs(0))[0]
    bad = dataclasses.replace(grid, x1=2.0)  # sup_bound rejects x1 < 4
    out = wl.run_sup([(prob, grid), (prob, bad)])
    assert out["certs"][1] is None and out["errors"][1] is not None
    gate = worker._gate("sup_random", 0, [(prob, grid)] * 2, out)
    assert gate["attempted"] == 2 and gate["failed"] == 1
    assert gate["reasons"] == [out["errors"][1]]


def test_raising_command_is_one_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 1 // 0 if argv[0] == "verify-final" else 0)
    outdir = tmp_path / "out"
    outdir.mkdir()
    out = wl.run_chain(outdir)
    gate = worker._gate("chain", 0, outdir, out)
    # 13 commands, one raising; no command wrote its file, so 13 missing files
    assert gate["attempted"] == 13 + 13 and gate["failed"] == 1 + 13
    assert gate["reasons"] == ["ZeroDivisionError: integer division or modulo by zero"]


def test_final_gate_counts_exceptions_and_a_failed_default():
    ok = final.verify_all()
    gate = worker._gate("final_sweep", 0, None,
                        {"reports": [ok, None], "errors": [None, "ValueError: x"]})
    assert gate["attempted"] == 2 and gate["failed"] == 1
    bad = final.verify_all(LinnikParams(L=4.0))  # strong exponent: W >= 1
    gate = worker._gate("final_sweep", 0, None, {"reports": [bad], "errors": [None]})
    assert gate["failed"] == 1


def test_chain_items_flags_uncertified_rows(tmp_path):
    (tmp_path / "table_2.csv").write_text(
        "table,label,lambda1_lo,lambda1_hi,lambda_star,claimed_bound,computed_C,"
        "published_C,margin,certified\n"
        "2,a,0,0,0,0,0.001,0.002,1,True\n"
        "2,b,0,0,0,0,0.001,0.002,1,False\n"
        "2,c,0,0,0,0,0.003,0.002,1,True\n")
    attempted, failed = wl.chain_items(tmp_path)
    # rows a, b, c, then one missing file for each of tables 3..13 and final
    assert attempted == 3 + 12 and failed == 2 + 12


def test_cross_rep_failures_name_what_changed():
    reps = [{"digests": {"a": "1", "b": "2"}}, {"digests": {"a": "1", "b": "3"}}]
    assert run.cross_rep_failures("chain", reps) == ["b"]
    reps = [{"certified_counts": [46, 1]}, {"certified_counts": [46, 2]}]
    assert run.cross_rep_failures("final_sweep", reps) == [1]
    assert run.cross_rep_failures("sup_random", reps) == []


# -- spans and self times -----------------------------------------------------

def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracing.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_union_of_overlapping_thread_children():
    spans = [
        (1, None, "grid_max", 0, 0.0, 10.0, None),
        (2, 1, "F", 101, 1.0, 5.0, None),   # pool thread 1
        (3, 1, "F", 102, 3.0, 8.0, None),   # pool thread 2 overlaps 1
        (4, 1, "F", 101, 9.0, 12.0, None),  # runs past the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert selfs[2] == 4.0 and selfs[4] == 3.0
    crowded = [(1, None, "p", 0, 0.0, 1.0, None)] + [
        (i, 1, "c", i, 0.0, 1.0, None) for i in range(2, 6)]
    assert tracing.self_times(crowded)[1] == 0.0


class _Layer:
    @staticmethod
    def leaf(x):
        time.sleep(0.01)
        return x


def test_pool_thread_spans_take_the_open_main_span_as_parent():
    tracer = tracing.Tracer()

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(_Layer.leaf, range(4)))

    holder = type("Holder", (), {"outer": staticmethod(outer)})
    tracer.wrap(_Layer, "leaf", "leaf")
    tracer.wrap(holder, "outer", "outer")
    tracer.enabled = True
    try:
        holder.outer()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    (root,) = by_name["outer"]
    leaves = by_name["leaf"]
    assert len(leaves) == 4 and all(s[1] == root[0] for s in leaves)
    assert {s[3] for s in leaves} - {threading.main_thread().ident}
    selfs = tracing.self_times(tracer.spans)
    assert all(v >= 0.0 for v in selfs.values())
    assert selfs[root[0]] < root[5] - root[4]


def test_missing_public_name_is_skipped_not_fatal():
    tracer = tracing.Tracer()
    tracer.wrap(_Layer, "no_such_function", "x")
    assert tracer.missing == ["_Layer.no_such_function"]


def test_changed_signature_loses_counts_not_the_call():
    tracer = tracing.Tracer()
    tracer.wrap(_Layer, "leaf", lambda a: f"leaf{a[0]}", lambda a, r: {"n": a[0]})
    tracer.enabled = True
    try:
        assert _Layer.leaf(x=3) == 3  # keyword call: a[0] does not exist
    finally:
        tracer.uninstall()
    (span,) = tracer.spans
    assert span[2] == "leaf" and span[6] is None


def test_layer_metrics_from_a_traced_certificate_and_final_run(tmp_path):
    tracer = tracing.install(tracing.Tracer())
    tracer.enabled = True
    try:
        _small_cert()
        final.verify_all()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert tracer.missing == []
    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    spans = tracing.load_spans(path)
    metrics = tracing.layer_metrics(spans)
    assert set(metrics) == set(tracing.LAYER_METRICS) - {"trace_overhead_frac"}
    assert metrics["supbound.certs"] == metrics["supbound.certs_unique"] == 1
    assert metrics["supbound.lattice_points"] > 0 and metrics["kernel.F_points"] > 0
    assert metrics["final.cases"] == metrics["final.cases_certified"] == 46
    assert 0.0 < metrics["final.quad_frac"] <= 1.0
    assert all(v >= 0.0 for v in tracing.self_times(spans).values())
    assert WeightKernel.F.__name__ == "F"  # uninstalled


# -- the benchmark definition -------------------------------------------------

def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    groups = json.loads((ROOT / "perfbench" / "layers.json").read_text())["groups"]
    mapped = [name for g in groups for name in g["metrics"]]
    assert sorted(mapped) == sorted(tracing.LAYER_METRICS)
    for group in groups:
        assert set(group["moves"]) | set(group["still"]) <= set(wl.WORKLOADS)
        for targets in group["moves"].values():
            assert set(targets) <= set(run.END_TO_END)


def test_nearest_rank():
    assert run.nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.nearest_rank(list(range(1, 11)), 0.9) == 9
    assert run.nearest_rank([5.0], 0.9) == 5.0
