"""CLI contract tests: exit codes, outputs, determinism."""

import json

import numpy as np
import pytest

from linnik import _data, tables
from linnik.cli import main
from linnik.kernel import LinnikParams, WeightKernel


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


def test_eval_missing_gamma_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "F", "--z", "0"])


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
    assert main(["table", "9", "--out", str(a), "--jobs", "1", "--seed", "7"]) == 0
    tables._certify.cache_clear()  # the second run certifies table 9 again
    assert main(["table", "9", "--out", str(b), "--jobs", "3", "--seed", "7"]) == 0
    assert (a / "table_9.csv").read_bytes() == (b / "table_9.csv").read_bytes()
    assert (a / "audit_9.json").read_bytes() == (b / "audit_9.json").read_bytes()


def test_table_non_finite_lattice_fails_closed(tmp_path, monkeypatch, capsys, fresh_tables):
    monkeypatch.setattr(WeightKernel, "re_F_lattice",
                        lambda self, s, t: np.full((np.size(s), np.size(t)), np.nan))
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
    assert "FAILED:" in capsys.readouterr().err
    assert not (tmp_path / f"table_{n}.csv").exists()


def test_table_inconsistent_imported_data_fails_row(tmp_path, monkeypatch, capsys,
                                                    fresh_tables):
    real = _data.hb92_map

    def shifted(key):
        values = real(key)
        if key == "lambda2_alt":
            values[0.50] += 1e-3
        return values

    monkeypatch.setattr(_data, "hb92_map", shifted)
    assert main(["table", "4", "--out", str(tmp_path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAILED")]
    assert len(failed) == 1
    assert failed[0].startswith("FAILED table 4 row 0.5:")
    assert "lambda2_alt_imported" in failed[0]


def test_table_12_integer_exact(tmp_path, capsys):
    assert main(["table", "12", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "table_12.csv").read_text().splitlines()
    assert lines[0] == "lambda1,lambda0,n0,lam,published,computed,match"
    assert len(lines) == 188  # header + 187 cells


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


def test_eval_w_overflow_fails_closed(capsys):
    assert main(["eval", "w", "--s", "1000"]) == 1
    assert "FAILED:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    {"L": 5.2, "gamma": 1.0},   # unknown key
    {"L": "5.2"},               # wrong type
    {"theta": None},
    {"quad_tol": -1.0},
    [5.2, 0.32],                # not an object
], ids=["unknown-key", "string", "null", "negative-tol", "list"])
def test_bad_params_file_is_usage_error(tmp_path, capsys, content):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(content))
    assert main(["verify-final", "--params", str(params), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tol_is_usage_error(tmp_path, capsys, tol):
    assert main(["verify-final", "--tol", tol, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
