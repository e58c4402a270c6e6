"""CLI contract tests: exit codes, outputs, determinism."""

import argparse
import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from linnik import _data, cli, density, final, tables
from linnik.cli import main
from linnik.kernel import LatticeWork, LinnikParams, WeightKernel


def test_eval_F_at_zero(capsys):
    assert main(["eval", "F", "--gamma", "1", "--z", "0"]) == 0
    out = capsys.readouterr().out.split()
    assert float(out[0]) == pytest.approx(8.0 / 9.0, abs=1e-15)


def test_eval_H2_at_zero(capsys):
    assert main(["eval", "H2", "--z", "0"]) == 0
    assert float(capsys.readouterr().out.split()[0]) == pytest.approx(0.1024, abs=1e-15)


def test_eval_B_taylor_regime(capsys):
    assert main(["eval", "B", "--lambda", "1e-9"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.0416666666, abs=1e-6)


def test_eval_w_infinity(capsys):
    assert main(["eval", "w", "--s", "inf"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_eval_classic_density(capsys):
    assert main(["eval", "classic_density", "--lambda", "1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(94.81, abs=0.01)


def test_eval_json_output(capsys):
    assert main(["eval", "F", "--gamma", "1.25", "--z", "0.5", "2", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["function"] == "F"
    assert set(blob["value"]) == {"re", "im"}


@pytest.mark.parametrize("argv", [
    ["F", "--z", "0"], ["F", "--gamma", "1", "--z", "1", "2", "3"],
    ["B", "--lambda", "inf"], ["classic_density", "--lambda", "inf"],
], ids=" ".join)
def test_eval_missing_gamma_is_usage_error(capsys, argv):
    # --z is RE [IM]; 'inf' is the +infinity sentinel of C's lambda only
    assert main(["eval", *argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["F", "--gamma", "nan"], ["F", "--gamma", "inf"],
    ["F", "--gamma", "1", "--z", "0", "nan"], ["f", "--gamma", "1", "--t", "inf"],
    ["B", "--lambda", "nan"], ["C", "--Lambda", "inf"],
    ["w", "--s", "nan"], ["C", "--lambda", "nan"],
], ids=" ".join)
def test_eval_non_finite_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["eval", *argv])
    assert exc.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["w", "--s", "-1e6"], ["F", "--gamma", "1", "--z", "-1e3"],
    ["F", "--gamma", "1", "--z", "-1e-1", "2"], ["B", "--lambda", "-1e-3"],
], ids=" ".join)
def test_eval_negative_exponent_argument_is_a_number(capsys, argv):
    # the value may fail to evaluate, but the argument parses as a number: a
    # parse error would raise SystemExit
    main(["eval", *argv])
    assert "expected one argument" not in capsys.readouterr().err


def test_argparse_has_negative_number_matcher():
    # the eval subparser overrides this private attribute; were argparse to
    # drop it, the override would silently do nothing
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")


def test_eval_C_at_infinity(capsys):
    assert main(["eval", "C", "--lambda", "inf"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_unknown_function_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "nosuch"])
    assert exc.value.code == 2


def test_unknown_table_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["table", "14"])
    assert exc.value.code == 2


def test_no_command_rejected():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_table_2_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "a"
    assert main(["table", "2", "--out", str(out), "--jobs", "2"]) == 0
    csv_text = (out / "table_2.csv").read_text()
    assert csv_text.splitlines()[0].startswith("table,label,")
    assert len(csv_text.splitlines()) == 26  # header + 25 rows
    audit = json.loads((out / "audit_2.json").read_text())
    assert len(audit["certificates"]) == 25
    for cert in audit["certificates"]:
        assert cert["domination_sample"]["max_excess"] <= 0.0


def test_table_csv_deterministic_across_jobs(tmp_path, capsys, fresh_tables):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["table", "9", "--out", str(a), "--jobs", "1"]) == 0
    tables._certify.cache_clear()  # the second run certifies table 9 again
    assert main(["table", "9", "--out", str(b), "--jobs", "3"]) == 0
    assert (a / "table_9.csv").read_bytes() == (b / "table_9.csv").read_bytes()
    assert (a / "audit_9.json").read_bytes() == (b / "audit_9.json").read_bytes()


def test_each_certificate_audited_once(tmp_path, monkeypatch, capsys, fresh_tables):
    # table 8 reuses the certificates of table 4; their audits are not rerun
    audited = []
    real = cli.domination_checks

    def counting(certs, **kwargs):
        audited.extend(certs)
        return real(certs, **kwargs)

    monkeypatch.setattr(cli, "domination_checks", counting)
    for n in range(2, 12):
        assert main(["table", str(n), "--out", str(tmp_path)]) == 0
    distinct = {c for n in range(2, 12) for c in tables.generate_table(n)[1]}
    assert len(audited) == len(set(audited)) == len(distinct) == 132


@pytest.mark.parametrize("n", [9, 10])
def test_table_refuted_certificate_fails(tmp_path, monkeypatch, capsys, fresh_tables, n):
    # a certificate whose bound sits below its own grid maximum is refuted by
    # the domination audit, although every row still passes its checks
    real = tables.sup_bounds

    def understated(problems, grid):
        return tuple(dataclasses.replace(cert, bound=cert.m0 - 1.0)
                     for cert in real(problems, grid))

    monkeypatch.setattr(tables, "sup_bounds", understated)
    assert main(["table", str(n), "--out", str(tmp_path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAILED")]
    audit = json.loads((tmp_path / f"audit_{n}.json").read_text())["certificates"]
    assert failed and all(line.startswith(f"FAILED table {n} certificate ") for line in failed)
    assert len(failed) == sum(cert["domination_sample"]["max_excess"] > 0 for cert in audit)


@pytest.mark.parametrize("n", [2, 3])
def test_table_nan_audit_term_fails_each_reader(tmp_path, monkeypatch, capsys, fresh_tables,
                                                n):
    # a NaN in the shared Re F(it) term of the audit refutes every certificate
    # that reads it, and only those: table 3 pairs k3 readers in each group,
    # table 2 mixes k3 readers with certificates that do not read the term
    real = WeightKernel.F

    def nan_on_imaginary_axis(self, z):
        out = real(self, z)
        if np.ndim(z) and not np.any(np.real(z)):
            out[0] = np.nan
        return out

    monkeypatch.setattr(WeightKernel, "F", nan_on_imaginary_axis)
    assert main(["table", str(n), "--out", str(tmp_path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAILED")]
    audit = json.loads((tmp_path / f"audit_{n}.json").read_text())["certificates"]
    readers = [i for i, cert in enumerate(audit) if cert["problem"]["k3"] > 0]
    assert readers
    assert failed == [f"FAILED table {n} certificate {i}: a sampled value exceeds the bound "
                      f"{audit[i]['bound']!r} by nan" for i in readers]
    assert all(math.isnan(cert["domination_sample"]["max_excess"]) == (i in readers)
               for i, cert in enumerate(audit))


def test_table_published_cap_violation_fails(tmp_path, monkeypatch, capsys, table_rows,
                                             fresh_tables):
    # a computed supremum above its published cap fails reproduction, not
    # certification: the row is reported and stays certified in the CSV
    row = table_rows[3][4]
    real = _data.published_table

    def lowered(n):
        return tuple({**pub, "C1": row.computed_C[0] - 0.01}
                     if n == 3 and pub["lambda1_hi"] == row.lambda1_hi else pub
                     for pub in real(n))

    monkeypatch.setattr(_data, "published_table", lowered)
    assert main(["table", "3", "--out", str(tmp_path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAILED")]
    assert len(failed) == 1 and failed[0].startswith(f"FAILED table 3 row {row.label}:")
    with open(tmp_path / "table_3.csv", newline="") as fh:
        written = {r["label"]: r for r in csv.DictReader(fh)}
    assert written[row.label]["certified"] == "True"


def test_table_non_finite_lattice_fails_closed(tmp_path, monkeypatch, capsys, fresh_tables):
    real = LatticeWork.re_F

    def nan_lattice(self, s):
        out = real(self, s)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(LatticeWork, "re_F", nan_lattice)
    assert main(["table", "9", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "table_9.csv").exists()
    assert "FAILED" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("n", range(2, 12))
def test_table_non_finite_row_rhs_fails_closed(tmp_path, monkeypatch, capsys, fresh_tables,
                                               n, bad):
    # builtin max(-inf, nan) is -inf, so a NaN step once certified its row
    monkeypatch.setattr(WeightKernel, "F_real",
                        lambda self, x: np.full(np.shape(x), bad) if np.ndim(x) else bad)
    assert main(["table", str(n), "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    # tables 7, 8 and 11 meet the value first in the upstream table they
    # read first, and name only that table
    met = {7: 4, 8: 4, 11: 2}.get(n, n)
    assert line.startswith(f"FAILED: table {met}: ") and line.count("table") == 1
    assert not (tmp_path / f"table_{n}.csv").exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1e300], ids=repr)
def test_table_4_non_finite_step_end_fails_closed(tmp_path, monkeypatch, capsys, fresh_tables,
                                                  bad):
    # one step end of the stepped rows is non-finite, or so large that
    # exp(-2 gamma x) overflows at x = -1e300
    real = tables._step_ends

    def corrupted(lo, hi, delta):
        a, b = real(lo, hi, delta)
        a = a.copy()
        a[a.size // 2] = bad
        return a, b

    monkeypatch.setattr(tables, "_step_ends", corrupted)
    assert main(["table", "4", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED:") and "table 4:" in err
    assert not (tmp_path / "table_4.csv").exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1e300], ids=repr)
@pytest.mark.parametrize("printed", [True, False], ids=["printed", "dash"])
def test_table_12_non_finite_cell_argument_fails_closed(tmp_path, monkeypatch, capsys,
                                                        fresh_tables, printed, bad):
    # every real-axis F argument of one cell is non-finite: a printed cell or
    # a dash cell, which carries no claim, must both fail the command
    target = next(i for i, pub in enumerate(_data.published_table(12))
                  if (pub["bound"] != "-") == printed)
    real_F, real_bound = WeightKernel.F_real, density.quadratic_N_bound
    cells = []

    def counted(query):
        cells.append(query)
        return real_bound(query)

    monkeypatch.setattr(density, "quadratic_N_bound", counted)
    monkeypatch.setattr(WeightKernel, "F_real",
                        lambda self, x: real_F(self, bad if len(cells) - 1 == target else x))
    assert main(["table", "12", "--out", str(tmp_path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    # math.exp raises OverflowError at x = -1e300, named after the cell too
    reason = "math range error" if bad == -1e300 else "non-finite parabola ("
    cell = cells[target]
    assert line.startswith(f"FAILED: table 12 cell lambda11={cell.lambda11!r} "
                           f"lam={cell.lam!r}: {reason}"), line
    assert not (tmp_path / "table_12.csv").exists()


def test_table_2_overflowing_right_hand_side_names_the_table(tmp_path, monkeypatch, capsys,
                                                             fresh_tables):
    # the first scalar real-axis F argument of table 2, a row right-hand
    # side, overflows math.exp: the error names the table and no CSV is written
    real_F = WeightKernel.F_real
    scalar_calls = []

    def overflowing(self, x):
        if np.ndim(x) == 0:
            scalar_calls.append(x)
            if len(scalar_calls) == 1:
                x = -1e300
        return real_F(self, x)

    monkeypatch.setattr(WeightKernel, "F_real", overflowing)
    assert main(["table", "2", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("FAILED: table 2: math range error")
    assert not (tmp_path / "table_2.csv").exists()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_table_inconsistent_imported_data_fails_row(tmp_path, monkeypatch, capsys,
                                                    fresh_tables, n):
    real = _data.hb92_map

    def shifted(key):
        values = real(key)
        if key == "lambda2_alt":
            values[0.54] += 1e-3
        return values

    monkeypatch.setattr(_data, "hb92_map", shifted)
    assert main(["table", str(n), "--out", str(tmp_path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAILED")]
    assert len(failed) == 1
    assert failed[0].startswith(f"FAILED table {n} row 0.54:")
    assert "lambda2_alt_imported" in failed[0]


@pytest.mark.parametrize("offset", [0.0, -0.01], ids=["empty", "inverted"])
@pytest.mark.parametrize("n, end, start", [
    (4, "lambda2_new", "lambda2_alt"), (5, "lambda2_new", "lambda2_alt"),
    (6, "lambda2_new", "lambda2_alt"), (9, "lambda1_hi", "lambda1_lo"),
    (10, "lambda3", "lambda1_lo"),
])
def test_empty_step_interval_fails_the_table(tmp_path, monkeypatch, capsys, fresh_tables,
                                             n, end, start, offset):
    # shipped columns that leave a stepped row no interval to step over
    # disagree with each other: one FAILED line that names the table once,
    # exit 1 and no CSV
    real = _data.published_table
    target = real(n)[1]
    monkeypatch.setattr(_data, "published_table", lambda m: tuple(
        {**pub, end: pub[start] + offset} if pub is target else pub for pub in real(m)))
    assert main(["table", str(n), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"FAILED: table {n}: ") and line.count("table") == 1
    assert not (tmp_path / f"table_{n}.csv").exists()


@pytest.mark.parametrize("n", [7, 11])
def test_uncovered_upstream_window_fails(tmp_path, monkeypatch, capsys, fresh_tables, n):
    # shipped tables that disagree: table 6 cut above 0.62 leaves table 7's
    # window [0.62, 0.64] without a case-7 row, and table 11 reads table 7:
    # the line names table 7, which reads the rows, once
    real = _data.published_table
    monkeypatch.setattr(_data, "published_table", lambda m: tuple(
        pub for pub in real(m) if m != 6 or pub["lambda1_hi"] <= 0.62))
    assert main(["table", str(n), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAILED: table 7: the rows of table 6 do not cover lambda1 in [0.62, 0.64]"]


@pytest.mark.parametrize("dropped, rows", [(2, 6), (8, 5)])
def test_dropped_interior_row_widens_its_neighbour(tmp_path, monkeypatch, capsys,
                                                   fresh_tables, dropped, rows):
    # without the row at 0.54 its neighbour at 0.56 covers [0.52, 0.56]: table
    # 8's window [0.52, 0.54] reads that table-2 row, or table 8's widened
    # window reads the table-4 rows at 0.54 and 0.56, each on its own part
    real = _data.published_table
    monkeypatch.setattr(_data, "published_table", lambda m: tuple(
        pub for pub in real(m) if m != dropped or pub["lambda1_hi"] != 0.54))
    assert main(["table", "8", "--out", str(tmp_path)]) == 0
    assert f"table 8: {rows} rows certified" in capsys.readouterr().out


@pytest.mark.parametrize("n, label", [(8, "0.58"), (10, "[0.68,0.78]")])
def test_table_success_names_the_binding_row(tmp_path, capsys, table_rows, n, label):
    # the least margin of the table and the label of the row that has it
    assert main(["table", str(n), "--out", str(tmp_path)]) == 0
    rows = table_rows[n]
    worst = min(rows, key=lambda r: r.margin)
    assert worst.label == label
    assert capsys.readouterr().out == (f"table {n}: {len(rows)} rows certified, "
                                       f"least margin {worst.margin:.3e} at {label}\n")


def test_table_12_integer_exact(tmp_path, capsys):
    assert main(["table", "12", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "table_12.csv").read_text().splitlines()
    assert lines[0] == "lambda1,lambda0,n0,lam,published,computed,match"
    assert len(lines) == 188  # header + 187 cells


def test_table_12_printed_bound_mismatch_fails(tmp_path, monkeypatch, capsys, fresh_tables):
    # one printed bound raised by one: that cell, and only it, fails its match
    real = _data.published_table
    cell = next(pub for pub in real(12) if pub["bound"] != "-")

    def raised(n):
        return tuple({**pub, "bound": str(int(pub["bound"]) + 1)} if pub is cell else pub
                     for pub in real(n))

    monkeypatch.setattr(_data, "published_table", raised)
    assert main(["table", "12", "--out", str(tmp_path)]) == 1
    mismatches = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("MISMATCH")]
    assert mismatches == [f"MISMATCH table 12 lambda1={cell['lambda1']} lam={cell['lam']}: "
                          f"published {int(cell['bound']) + 1} computed {int(cell['bound'])}"]
    audit = json.loads((tmp_path / "audit_12.json").read_text())["cells"]
    failed = [c for c in audit if c["match"] is False]
    assert [(c["lambda1"], c["lam"]) for c in failed] == [(cell["lambda1"], cell["lam"])]


def test_counting_tables_regenerated_once_per_process(tmp_path, monkeypatch, capsys,
                                                     fresh_tables):
    calls = []
    real = density.gen_density_tables
    monkeypatch.setattr(density, "gen_density_tables", lambda: calls.append(1) or real())
    for argv in (["table", "12"], ["table", "13"], ["verify-final"]):
        assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    records = density.regenerated_tables().records
    assert isinstance(records, tuple) and {r["table"] for r in records} == {12, 13}
    with pytest.raises(TypeError):
        records[0]["computed"] = 0


def test_vanished_counting_bound_fails_table_and_lookup(tmp_path, monkeypatch, capsys,
                                                        fresh_tables):
    records = density.gen_density_tables()
    cell = next(r for r in records if r["table"] == 12 and r["published"] != "-")
    cell.update(computed=None, match=False)
    monkeypatch.setattr(density, "gen_density_tables", lambda: records)
    assert main(["table", "12", "--out", str(tmp_path)]) == 1
    assert "MISMATCH table 12" in capsys.readouterr().out
    with pytest.raises(RuntimeError, match="bound vanished"):
        density.regenerated_tables().lookup(12, cell["lambda1"], cell["lam"], cell["n0"] or 0)


def test_verify_final_vanished_counting_bound_fails_closed(tmp_path, monkeypatch, capsys,
                                                          fresh_tables):
    records = density.gen_density_tables()
    for cell in records:
        if cell["published"] != "-":
            cell.update(computed=None, match=False)
    monkeypatch.setattr(density, "gen_density_tables", lambda: records)
    assert main(["verify-final", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED:") and "bound vanished" in err
    assert not (tmp_path / "final_report.csv").exists()


def test_verify_final_default_passes(tmp_path, capsys):
    assert main(["verify-final", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "final_report.json").read_text())
    assert report["passed"] is True
    assert len(report["cases"]) == 46
    csv_lines = (tmp_path / "final_report.csv").read_text().splitlines()
    assert len(csv_lines) == 47


def test_verify_final_strong_exponent_fails(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"L": 4.5}))
    assert main(["verify-final", "--params", str(params), "--out", str(tmp_path)]) == 1


def test_verify_final_weak_exponent_passes(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"L": 5.5}))
    assert main(["verify-final", "--params", str(params), "--out", str(tmp_path)]) == 0


def test_invalid_params_file_is_usage_error(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"L": 3.0}))  # violates L - 2K > 3
    assert main(["verify-final", "--params", str(params), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("method", ["H2", "B", "w"])
def test_verify_final_non_finite_fails_closed(tmp_path, monkeypatch, capsys, method, bad):
    monkeypatch.setattr(LinnikParams, method, lambda self, *args: bad)
    assert main(["verify-final", "--out", str(tmp_path)]) == 1
    assert "FAILED:" in capsys.readouterr().err
    assert not (tmp_path / "final_report.csv").exists()


def _drop_lambda_star_050(monkeypatch):
    real = _data.hb92_map
    monkeypatch.setattr(_data, "hb92_map", lambda key: {
        k: v for k, v in real(key).items() if key != "lambda_star_table2" or k != 0.5})


def _drop_kernel_window(monkeypatch, n, lo):
    # the kernel parameter by window is the fifth field of the table's entry
    entry = tables._THIRD_ZERO[n]
    gamma_by_lo = {k: v for k, v in entry[4].items() if k != lo}
    monkeypatch.setitem(tables._THIRD_ZERO, n, entry[:4] + (gamma_by_lo,) + entry[5:])


def _drop_t9_gamma_066(monkeypatch):
    _drop_kernel_window(monkeypatch, 9, 0.66)


def _drop_t10_gamma_060(monkeypatch):
    _drop_kernel_window(monkeypatch, 10, 0.60)


@pytest.mark.parametrize("n, drop, message", [
    (2, _drop_lambda_star_050,
     "table 2: the imported lambda_star_table2 has no entry for cap 0.5"),
    (10, _drop_t10_gamma_060, "table 10: no kernel parameter for the window starting at 0.6"),
    (9, _drop_t9_gamma_066, "table 9: no kernel parameter for the window starting at 0.66"),
])
def test_missing_imported_key_fails_closed(tmp_path, monkeypatch, capsys, fresh_tables,
                                           n, drop, message):
    # shipped data that disagree with each other fail certification (exit 1);
    # they are not bad input (exit 2).  The one line names the table once
    drop(monkeypatch)
    assert main(["table", str(n), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"FAILED: {message}"]
    assert not (tmp_path / f"table_{n}.csv").exists()


def _patch_published(monkeypatch, n, change):
    """Pass each row of the shipped table n, a copy, through change(index, row)."""
    real = _data.published_table
    monkeypatch.setattr(_data, "published_table", lambda m: tuple(
        change(i, dict(pub)) if m == n else pub for i, pub in enumerate(real(m))))


def _patch_case(monkeypatch, case_id, change):
    """Pass the shipped case case_id, a copy, through change(case)."""
    real = _data.final_cases()
    cases = [change(dict(c)) if c["id"] == case_id else c for c in real["cases"]]
    monkeypatch.setattr(_data, "final_cases", lambda: {**real, "cases": cases})


def _with_branch(case, **fields):
    """case, a copy, whose counting branch also has the given fields."""
    density = case["density"]
    return {**case, "density": {**density, "branch": {**density.get("branch", {}), **fields}}}


def _without(row, key):
    del row[key]
    return row


def _patch_csv(monkeypatch, n, old, new):
    """Replace the text ``old`` of the shipped CSV of table n by ``new``, read
    through the real parser."""
    real = _data._read_text
    monkeypatch.setattr(_data, "_read_text", lambda path: (
        real(path).replace(old, new) if path == f"tables_published/table{n}.csv"
        else real(path)))
    monkeypatch.setattr(_data, "published_table", _data.published_table.__wrapped__)


def _patch_json(monkeypatch, old, new):
    """Replace the text ``old`` of the shipped JSON files by ``new``, read
    through the real loaders."""
    real = _data._read_text
    monkeypatch.setattr(_data, "_read_text", lambda path: (
        real(path).replace(old, new) if path.endswith(".json") else real(path)))
    for loader in (_data.hb92, _data.final_cases):
        monkeypatch.setattr(_data, loader.__name__, loader.__wrapped__)


# shipped data that disagree, one fault per stage that reads them: (argv,
# patch, the one FAILED line, which names the table, the cell or the case)
DATA_FAULTS = {
    "table2-no-rows": (
        ["table", "2"], lambda mp: mp.setattr(_data, "published_table", lambda m: ()),
        "FAILED: table 2: the shipped table has no rows"),
    "table10-no-lambda3": (
        ["table", "10"], lambda mp: _patch_published(mp, 10, lambda i, r: _without(r, "lambda3")),
        "FAILED: table 10: missing key 'lambda3'"),
    "table12-lam-2.5": (
        ["table", "12"], lambda mp: _patch_published(
            mp, 12, lambda i, r: {**r, "lam": 2.5} if i == 1 else r),
        "FAILED: table 12 cell lambda11=0.4 lam=2.5: lam must lie in (0, 2)"),
    "table12-no-n0": (
        ["table", "12"], lambda mp: _patch_published(mp, 12, lambda i, r: _without(r, "n0")),
        "FAILED: table 12 cell lambda11=0.4 lam=0.875: missing key 'n0'"),
    "table12-blank-lam": (
        ["table", "12"], lambda mp: _patch_published(
            mp, 12, lambda i, r: {**r, "lam": None} if i == 1 else r),
        "FAILED: table 12 cell lambda11=0.4 lam=None: lam must be a finite number, got None"),
    "table12-non-numeric": (
        ["table", "12"], lambda mp: _patch_csv(mp, 12, "0.40,,,0.900,11", "0.40,,x,0.900,11"),
        "FAILED: table 12: could not convert string to float: 'x'"),
    "table13-non-numeric": (
        ["verify-final"], lambda mp: _patch_csv(mp, 13, "0.64,,,0.900,9", "0.64,,,x,9"),
        "FAILED: table 13: could not convert string to float: 'x'"),
    "table12-nan": (
        ["table", "12"], lambda mp: _patch_csv(mp, 12, "0.40,,,0.900,11", "0.40,,,nan,11"),
        "FAILED: table 12: not a finite number: 'nan'"),
    "table13-inf": (
        ["verify-final"], lambda mp: _patch_csv(mp, 13, "0.64,,,0.900,9", "0.64,,,inf,9"),
        "FAILED: table 13: not a finite number: 'inf'"),
    # unrefused, table 7 certified all 17 rows and dropped table 6 from the
    # minimum of rows 0.64-0.68
    "hb92-NaN": (
        ["table", "7"], lambda mp: _patch_json(mp, '"2": 0.518', '"2": NaN'),
        "FAILED: table 7: hb92_inputs.json: not a finite number: 'NaN'"),
    "hb92-overflow": (
        ["table", "11"], lambda mp: _patch_json(mp, '"5": 0.397', '"5": 1e999'),
        "FAILED: table 11: hb92_inputs.json: not a finite number: '1e999'"),
    "registry-Infinity": (
        ["verify-final"], lambda mp: _patch_json(
            mp, '"lambda3_lo": 0.902,', '"lambda3_lo": -Infinity,'),
        "FAILED: the case registry: final_cases.json: not a finite number: '-Infinity'"),
    "registry-unparseable": (
        ["verify-final"], lambda mp: _patch_json(mp, '"L": 5.2,', '"L": 5.2,,'),
        "FAILED: the case registry: final_cases.json: "
        "Expecting property name enclosed in double quotes: line 4 column 12 (char 488)"),
    "registry-no-cases": (
        ["verify-final"], lambda mp: mp.setattr(
            _data, "final_cases", lambda real=_data.final_cases(): {**real, "cases": []}),
        "FAILED: the case registry has no cases"),
    "case-null-Lambda": (
        ["verify-final"], lambda mp: _patch_case(mp, "14.6", lambda c: {**c, "Lambda": None}),
        "FAILED: case 14.6: Lambda must be a finite number, got None"),
    "case-off-grid": (
        ["verify-final"], lambda mp: _patch_case(mp, "14.6", lambda c: {**c, "Lambda": 1.3261}),
        "FAILED: case 14.6: Lambda=1.3261 is off the density grid"),
    "case-family": (
        ["verify-final"], lambda mp: _patch_case(
            mp, "14.6", lambda c: {**c, "family": "chi_real"}),
        "FAILED: case 14.6: unknown case family chi_real"),
    "case-no-published_W": (
        ["verify-final"], lambda mp: _patch_case(
            mp, "14.6", lambda c: _without(c, "published_W")),
        "FAILED: case 14.6: missing key 'published_W'"),
    "case-counting-column": (
        ["verify-final"], lambda mp: _patch_case(
            mp, "14.6", lambda c: {**c, "density": {"table": 13, "column": "0.69"}}),
        "FAILED: case 14.6: missing key 'counting table 13, column lambda1 >= 0.69, "
        "assumption n0=0: no cell at lambda = 1.325'"),
    # unrefused, a count without lambda0 was ignored and 14.2 passed; n_lo -1
    # read the unconditional column; n_lo 2.5 and n_hi below n_lo failed
    # only as a missing counting cell
    "branch-count-without-lambda0": (
        ["verify-final"], lambda mp: _patch_case(mp, "14.2", lambda c: _with_branch(c, n_hi=2)),
        "FAILED: case 14.2: a branch count needs lambda0"),
    "branch-negative-count": (
        ["verify-final"], lambda mp: _patch_case(mp, "16.2b", lambda c: _with_branch(c, n_lo=-1)),
        "FAILED: case 16.2b: n_lo must be a non-negative integer, got -1"),
    "branch-fractional-count": (
        ["verify-final"], lambda mp: _patch_case(mp, "16.2b", lambda c: _with_branch(c, n_lo=2.5)),
        "FAILED: case 16.2b: n_lo must be a non-negative integer, got 2.5"),
    "branch-empty": (
        ["verify-final"], lambda mp: _patch_case(mp, "16.4b", lambda c: _with_branch(c, n_hi=6)),
        "FAILED: case 16.4b: empty count branch [7, 6]"),
}


@pytest.mark.parametrize("fault", sorted(DATA_FAULTS))
def test_shipped_data_fault_fails_closed(tmp_path, monkeypatch, capsys, fresh_tables, fault):
    # a certification failure (exit 1) with one line that says where, not
    # a usage error (exit 2); the command writes no file
    argv, patch, message = DATA_FAULTS[fault]
    patch(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert not out.exists()


def _run_shipped_fault(argv, out, capsys):
    """Run argv; a shipped-data fault may fail certification (exit 1), never
    the command line (exit 2) nor escape as a traceback.  Returns stderr's
    lines: none, or the one FAILED line of a raised fault."""
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1) and (code == 1 or not err), (code, err)
    if err:
        assert len(err) == 1 and err[0].startswith("FAILED: "), err
        assert not out.exists()  # a command stopped by an error writes no file
    return err


def _blank(row, key):
    # a blank CSV cell: an empty label or printed bound, an absent number
    return {**row, key: "" if key in ("ord", "bound") else None}


# each column of row index 1 of every published table, blanked in turn
BLANKED_CELLS = [(n, key) for n in range(2, 14) for key in _data.published_table(n)[1]]
# blanks that must fail, with their line: only table 7's rows from HB92's
# last cap on, 0.70 and 0.702, restate imported bounds and may leave the
# claim blank; row index 1 is the row at 0.38
BLANK_FAULTS = {
    (7, "lambda2_new"): "FAILED: table 7: row 0.38 has no lambda2_new below lambda1 = 0.7",
    (11, "C"): "FAILED: table 11: row ord 5 has no C for its suprema",
}


@pytest.mark.parametrize("n, key", BLANKED_CELLS, ids=[f"{n}-{k}" for n, k in BLANKED_CELLS])
def test_blank_published_cell_fails_closed(tmp_path, monkeypatch, capsys, fresh_tables,
                                           n, key):
    blanked = _blank(_data.published_table(n)[1], key)
    _patch_published(monkeypatch, n, lambda i, row: blanked if i == 1 else row)
    err = _run_shipped_fault(["table", str(n)], tmp_path / "out", capsys)
    place = (f"table {n} cell lambda11={blanked['lambda1']} lam={blanked['lam']}"
             if n >= 12 else f"table {n}")
    assert all(line.startswith(f"FAILED: {place}: ") for line in err), err
    if (n, key) in BLANK_FAULTS:
        assert err == [BLANK_FAULTS[n, key]]


# each field of a case without and with a counting table, set to null and
# then to a string
CASE_PROBES = [(case["id"], key, value) for case in _data.final_cases()["cases"]
               if case["id"] in ("14.1", "16.10c") for key in case for value in (None, "x")]


@pytest.mark.parametrize("case_id, key, value", CASE_PROBES,
                         ids=[f"{c}-{k}-{v}" for c, k, v in CASE_PROBES])
def test_malformed_case_field_fails_closed(tmp_path, monkeypatch, capsys, case_id, key, value):
    _patch_case(monkeypatch, case_id, lambda case: {**case, key: value})
    err = _run_shipped_fault(["verify-final"], tmp_path / "out", capsys)
    place = f"case {value if key == 'id' else case_id}"
    assert all(line.startswith(f"FAILED: {place}: ") for line in err), err


@pytest.mark.parametrize("change, message", [
    ({"lambda2_lo": None}, "lambda2_lo must be a finite number, got None"),
    ({"lambda1_hi": 0.58}, "empty lambda1 window [0.68, 0.58]"),
    ({"published_W": True}, "published_W must be a finite number, got True"),
], ids=["null-lambda2", "inverted-window", "bool-published-W"])
def test_malformed_case_fails_under_other_params(tmp_path, monkeypatch, capsys, change,
                                                 message):
    # parameters other than the shipped ones skip the reproduction check,
    # which alone caught the first two: a null lambda2_lo read as +infinity
    # gave 16.10c W = 0.88473, and the inverted window W = 0.99281.  A true
    # published W read as 1 passed even that check
    _patch_case(monkeypatch, "16.10c", lambda case: {**case, **change})
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"L": 5.2000001}))
    err = _run_shipped_fault(["verify-final", "--params", str(params)], tmp_path / "out",
                             capsys)
    assert err == [f"FAILED: case 16.10c: {message}"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("field", ["lambda0", "n_lo", "n_hi"])
def test_non_finite_branch_field_fails_its_case(tmp_path, monkeypatch, capsys, field, bad):
    # unrefused, a NaN or +inf lambda0 applied the branch's upper cap at every
    # schedule point: 16.5c's W read 0.8639, and verify-final passed
    _patch_case(monkeypatch, "16.5c", lambda case: _with_branch(case, **{field: bad}))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"L": 5.2000001}))
    err = _run_shipped_fault(["verify-final", "--params", str(params)], tmp_path / "out",
                             capsys)
    assert err == [f"FAILED: case 16.5c: {field} must be a finite number, got {bad!r}"]


def _patch_column(monkeypatch, table, column, bound):
    """Make the counting cells of one column read bound(lam) instead."""
    real = density.DensityTables.lookup
    monkeypatch.setattr(density.DensityTables, "lookup", lambda tables, t, c, lam, n0=0: (
        bound(lam) if (t, c) == (table, column) else real(tables, t, c, lam, n0)))


def _patch_for_case(monkeypatch, name, case_id, value):
    """Make final.<name>(case, ...) return value(real result) for case_id only."""
    real = getattr(final, name)
    monkeypatch.setattr(final, name, lambda case, *args: (
        value(real(case, *args)) if case.id == case_id else real(case, *args)))


# each decision verify-final makes, made to fail for one case: (the FAILED
# line that names the case, patch); 16.10c has the thinnest margin, 1.64e-4,
# 14.1 has no counting table, and 14.2 is the first case to read table 12's
# column 0.40, whose schedule n0_schedule checks when it reads the cells
FINAL_DECISIONS = {
    "W_MARGIN": ("FAILED case 16.10c: W=",
                 lambda mp: mp.setattr(final, "W_MARGIN", 2e-4)),
    "reproduces": ("FAILED case 14.1: W=",
                   lambda mp: _patch_case(mp, "14.1", lambda c: {**c, "published_W": 0.8})),
    "monotone_schedule": ("FAILED: case 14.2: counting schedule not monotone",
                          lambda mp: _patch_column(mp, 12, 0.40, lambda lam: round(100 / lam))),
    "floor_of_4": ("FAILED: case 14.2: schedule end below the floor of 4",
                   lambda mp: _patch_column(mp, 12, 0.40, lambda lam: 3)),
    "negative_term": ("FAILED: case 16.2a: term c_star negative",
                      lambda mp: _patch_for_case(mp, "c_star", "16.2a", lambda c: -1.0)),
    "density_free_lambda3": ("FAILED: case 14.1: density-free row needs lambda3",
                             lambda mp: _patch_case(mp, "14.1",
                                                    lambda c: {**c, "lambda3_lo": 1.2})),
}


@pytest.mark.parametrize("decision", sorted(FINAL_DECISIONS))
def test_each_final_decision_fails_its_case(tmp_path, monkeypatch, capsys, fresh_tables,
                                            decision):
    line, patch = FINAL_DECISIONS[decision]
    patch(monkeypatch)
    assert main(["verify-final", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    failed = [text for text in (captured.out + captured.err).splitlines()
              if text.startswith("FAILED")]
    assert len(failed) == 1 and failed[0].startswith(line), failed


# parameter sets under which one computation of the first case fails: B, the
# penalty integral and w; the one FAILED line names the case
@pytest.mark.parametrize("content, reason", [
    ({"K": 1e-200}, "float division by zero"),
    ({"theta": 1e6}, "non-finite quadrature on ["),
    ({"theta": -60.0}, "16- and 32-node Gauss-Legendre rules disagree"),
], ids=["B", "penalty", "w"])
def test_verify_final_computation_fault_names_its_case(tmp_path, capsys, content, reason):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(content))
    out = tmp_path / "out"
    assert main(["verify-final", "--params", str(params), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    failed = [text for text in (captured.out + captured.err).splitlines()
              if text.startswith("FAILED")]
    assert len(failed) == 1 and failed[0].startswith(f"FAILED: case 14.1: {reason}"), failed
    assert not out.exists()


def test_eval_w_overflow_fails_closed(capsys):
    assert main(["eval", "w", "--s", "1000"]) == 1
    assert "FAILED:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    {"L": 5.2, "gamma": 1.0},   # unknown key
    {"L": "5.2"},               # wrong type
    {"theta": None},
    {"quad_tol": -1.0},         # the tolerance is fixed: unknown key
    [5.2, 0.32],                # not an object
    {"epsilon": -0.5},          # a negative epsilon would shrink W
], ids=["unknown-key", "string", "null", "negative-tol", "list", "negative-epsilon"])
def test_bad_params_file_is_usage_error(tmp_path, capsys, content):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(content))
    assert main(["verify-final", "--params", str(params), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_bad_tol_is_usage_error(tmp_path, capsys, value):
    # the quadrature tolerance and the audit seed are fixed, and eval reads
    # parameters from --params only: argparse refuses each removed flag
    # whatever its value, and takes no abbreviation (--L for --Lambda)
    for argv in (["verify-final", "--out", str(tmp_path), "--tol"], ["eval", "w", "--tol"],
                 ["table", "2", "--out", str(tmp_path), "--seed"],
                 *(["eval", "B", f"--{name}"] for name in ("L", "K", "theta", "c1", "c2"))):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-1]} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, prefix", [
    (["eval", "w", "--s", "-1e6"], 1, "FAILED:"),                       # ZeroDivisionError
    (["eval", "classic_density", "--lambda", "1e5"], 1, "FAILED:"),     # OverflowError
    (["eval", "F", "--gamma", "1e200", "--z", "1"], 1, "FAILED:"),      # OverflowError
    (["verify-final", "--params", "{dir}"], 2, "error:"),               # IsADirectoryError
    (["table", "9", "--out", "{file}"], 2, "error:"),                   # FileExistsError
], ids=["w-division", "classic-overflow", "F-overflow", "params-dir", "out-file"])
def test_arithmetic_and_os_errors_map_to_exit_codes(tmp_path, capsys, argv, code, prefix):
    (tmp_path / "file").write_text("")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("argv", [
    ["F", "--gamma", "1", "--z", "-400"], ["H", "--z", "-1000"], ["H2", "--z", "-3000"],
    ["classic_density", "--lambda", "1e5"], ["w", "--s", "-1e6"], ["w", "--s", "100"],
], ids=" ".join)
def test_eval_non_finite_value_prints_only_its_failed_line(capsys, argv):
    # an overflow, a division by zero, a failed quadrature or a non-finite
    # value prints one FAILED: line that names the function once; numpy's
    # overflow and invalid-value warnings would each print a block before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", *argv]) == 1
    assert caught == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"FAILED: eval {argv[0]}: "), lines
    assert lines[0].count("eval ") == 1, lines


def test_eval_H_prints_plain_floats(capsys):
    assert main(["eval", "H", "--z", "0"]) == 0
    assert capsys.readouterr().out == "0.1024 0.0\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["F", "--gamma", "1", "--z", "-1000"], ["F", "--gamma", "1", "--z", "-1000", "--json"],
    ["H", "--z", "-1000"], ["H2", "--z", "-3000"],
], ids=" ".join)
def test_eval_non_finite_value_fails(capsys, argv):
    # numpy overflows to inf or NaN with a warning, not an exception
    assert main(["eval", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("FAILED: eval ")
