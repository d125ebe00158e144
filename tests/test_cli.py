"""Tests for the command line interface.

dispatch() is exercised in-process: stdout/stderr are captured with
capsys and exit codes come from the return value.  One test starts
`python -m clusterperm` in a subprocess.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clusterperm import cli, simharness
from clusterperm.calibrate import CalibrationParams, calibrate_exhaustive
from clusterperm.cli import dispatch
from clusterperm.errors import DegeneracyWarning
from clusterperm.estimators import ingest_csv
from clusterperm.permkit import Design, RngStream
from clusterperm.permtest import adjusted_test, size_bound


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_estimates_csv(path, values, q1):
    lines = ["cluster_id,treated,estimate"]
    for i, v in enumerate(values):
        lines.append(f"c{i},{1 if i < q1 else 0},{v:.17g}")
    path.write_text("\n".join(lines) + "\n")


# =========================================================================
# bound
# =========================================================================

class TestBoundCommand:
    def test_text_output_matches_printed_table(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--q1", "4", "--q0", "4")
        assert code == 0
        assert out.strip() == "0.0898"

    def test_json_is_bit_exact(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--q1", "5", "--q0", "3",
                               "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["size_bound"] == size_bound(5, 3)
        assert payload["exceeds_alpha"] is (size_bound(5, 3) > 0.05)

    def test_csv_single_record(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--q1", "4", "--q0", "4",
                               "--csv")
        assert code == 0
        header, record = out.strip().splitlines()
        assert header.split(",")[:3] == ["command", "q1", "q0"]
        assert record.split(",")[0] == "bound"

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--q1", "4")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"


# =========================================================================
# alpha
# =========================================================================

class TestAlphaCommand:
    def test_table_lookup(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10")
        assert code == 0
        assert "bar_alpha=0.0428" in out
        assert "order_index=68" in out

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--q1", "6", "--q0", "6",
                               "--alpha", "0.05", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["bar_alpha"] == 0.0227
        assert payload["order_index"] == 904
        assert "seed" not in payload

    def test_infeasible_level_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--q1", "3", "--q0", "3",
                               "--alpha", "0.01")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InfeasibleLevelError"

    def test_param_requires_calibrate(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--param", "R=100")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_calibrate_prints_seed_and_source(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--calibrate",
                               "exhaustive", "--seed", "3", "--param",
                               "R=200", "--param", "S1=100", "--param",
                               "S2=400", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["source"] == "calibrated"
        assert payload["seed"] == 3
        assert 1 <= payload["order_index"] <= 69

    def test_calibrate_generates_seed_when_omitted(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--calibrate",
                               "exhaustive", "--param", "R=100", "--param",
                               "S1=100", "--param", "S2=200", "--json")
        assert code == 0
        assert isinstance(json.loads(out)["seed"], int)

    def test_calibrate_json_carries_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--calibrate",
                               "exhaustive", "--seed", "3", "--param",
                               "R=50", "--param", "S1=50", "--param",
                               "S2=100", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_assignments"] == 70
        assert "binding" in payload["diagnostics"]
        assert payload["diagnostics"]["params"]["R"] == 50

    def test_calibrate_csv_diagnostics_cell_is_json(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--calibrate",
                               "exhaustive", "--seed", "3", "--param",
                               "R=50", "--param", "S1=50", "--param",
                               "S2=100", "--csv")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert json.loads(row["diagnostics"])["params"]["R"] == 50

    def test_bad_calibration_parameter_value_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.1", "--calibrate",
                               "exhaustive", "--param", "R=abc")
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "abc" in error["message"]

    def test_unknown_calibration_parameter(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--calibrate", "sampled",
                               "--param", "bogus=1")
        assert code == 2
        assert "bogus" in json.loads(err)["error"]["message"]


# =========================================================================
# test
# =========================================================================

class TestTestCommand:
    @pytest.mark.filterwarnings("ignore::clusterperm.errors.DegeneracyWarning")
    def test_constant_estimates_retain_p_one(self, capsys, tmp_path):
        path = tmp_path / "toy.csv"
        write_estimates_csv(path, [2.0] * 8, q1=4)
        code, out, _ = run_cli(capsys, "test", "--input", str(path),
                               "--mode", "estimates", "--alpha", "0.10",
                               "--side", "right")
        assert code == 0
        assert "decision=retain" in out
        assert "p_value=1" in out

    def test_round_trip_matches_library_call(self, capsys, tmp_path):
        values = RngStream(17).generator().standard_normal(12) * 2.5
        path = tmp_path / "est.csv"
        write_estimates_csv(path, values, q1=6)
        code, out, _ = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.05", "--side", "two-sided",
                               "--lambda", "0.25", "--json")
        assert code == 0
        payload = json.loads(out)
        expected = adjusted_test(ingest_csv(path, schema="estimates"),
                                 0.05, side="two-sided", lam=0.25)
        for key, value in expected.to_json_dict().items():
            assert payload[key] == value, key

    def test_observations_mode_runs_per_cluster_regression(self, capsys,
                                                           tmp_path):
        gen = RngStream(23).generator()
        lines = ["cluster_id,treated,outcome"]
        for k in range(8):
            treated = 1 if k < 4 else 0
            for _ in range(3):
                lines.append(f"c{k},{treated},{gen.standard_normal():.17g}")
        path = tmp_path / "obs.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "test", "--input", str(path),
                               "--mode", "intercept", "--alpha", "0.10",
                               "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_assignments"] == 70
        assert payload["mode"] == "intercept"

    def test_sampled_assignments_reproducible_by_seed(self, capsys,
                                                      tmp_path):
        values = RngStream(5).generator().standard_normal(12)
        path = tmp_path / "est.csv"
        write_estimates_csv(path, values, q1=6)
        args = ("test", "--input", str(path), "--alpha", "0.05",
                "--sample-m", "300", "--seed", "42", "--json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["seed"] == 42
        assert payload["assignment_source"].startswith("sampled")
        assert payload["n_assignments"] <= 301

    def test_sample_m_generates_and_prints_seed(self, capsys, tmp_path):
        values = RngStream(6).generator().standard_normal(12)
        path = tmp_path / "est.csv"
        write_estimates_csv(path, values, q1=6)
        code, out, _ = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.05", "--sample-m", "200",
                               "--json")
        assert code == 0
        assert isinstance(json.loads(out)["seed"], int)

    def test_sample_m_larger_than_group_enumerates(self, capsys, tmp_path):
        values = RngStream(7).generator().standard_normal(10)
        path = tmp_path / "est.csv"
        write_estimates_csv(path, values, q1=5)
        code, out, _ = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.05", "--sample-m", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["assignment_source"] == "full-enumeration"
        assert payload["n_assignments"] == 252
        assert "seed" not in payload

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "test", "--input",
                               str(tmp_path / "nope.csv"), "--alpha", "0.05")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_malformed_csv_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,treated,estimate\nc0,1\n")
        code, _, err = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.05")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InputFormatError"

    def test_calibrated_level_off_the_table(self, capsys, tmp_path):
        # 3+13 at alpha = .20 is not tabulated but is feasible (worst-case
        # size .125); --calibrate runs the test at a calibrated level
        values = RngStream(8).generator().standard_normal(16)
        path = tmp_path / "est.csv"
        write_estimates_csv(path, values, q1=3)
        params = ("--param", "R=50", "--param", "S1=50", "--param", "S2=100")
        code, _, err = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.2")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InfeasibleLevelError"
        for side, level in (("right", 0.2), ("two-sided", 0.1)):
            code, out, _ = run_cli(capsys, "test", "--input", str(path),
                                   "--alpha", "0.2", "--side", side,
                                   "--calibrate", "exhaustive", "--seed",
                                   "5", *params, "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["bar_alpha_source"] == "calibrated"
            assert payload["calibration_seed"] == payload["seed"] == 5
            entry = calibrate_exhaustive(
                Design(3, 13), level,
                params=CalibrationParams(R=50, S1=50, S2=100, seed=5))
            expected = adjusted_test(ingest_csv(path, schema="estimates"),
                                     0.2, side=side, alpha_entry=entry)
            for key, value in expected.to_json_dict().items():
                assert payload[key] == value, key

    def test_tabulated_level_source(self, capsys, tmp_path):
        path = tmp_path / "est.csv"
        write_estimates_csv(path, list(range(8)), q1=4)
        code, out, _ = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bar_alpha_source"] == "tabulated"
        assert "calibration_seed" not in payload and "seed" not in payload

    def test_param_requires_calibrate(self, capsys, tmp_path):
        path = tmp_path / "est.csv"
        write_estimates_csv(path, list(range(8)), q1=4)
        code, _, err = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.10", "--param", "R=100")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_overflowing_estimates_exit_two(self, capsys, tmp_path):
        # finite estimates whose subset sums overflow to inf used to give
        # a NaN statistic and "critical_value": Infinity on exit 0
        path = tmp_path / "huge.csv"
        write_estimates_csv(path, [1e308, -1e308] * 4, q1=4)
        code, out, err = run_cli(capsys, "test", "--input", str(path),
                                 "--alpha", "0.10", "--json")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_overflowing_lambda_shift_exits_two(self, capsys, tmp_path):
        path = tmp_path / "est.csv"
        write_estimates_csv(path, list(range(8)), q1=4)
        code, out, err = run_cli(capsys, "test", "--input", str(path),
                                 "--alpha", "0.10", "--lambda", "1e308",
                                 "--json")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_json_and_csv_flags_conflict(self, capsys, tmp_path):
        path = tmp_path / "est.csv"
        write_estimates_csv(path, list(range(8)), q1=4)
        code, _, err = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.10", "--json", "--csv")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"


# =========================================================================
# power
# =========================================================================

class TestPowerCommand:
    def test_exchangeable_null_point(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--delta", "0",
                               "--sigmas-treated", "1,1,1,1",
                               "--sigmas-control", "1,1,1,1", "--json")
        assert code == 0
        assert json.loads(out)["power_lower_bound"] == \
            pytest.approx(1.0 / 70.0, abs=1e-6)

    def test_text_output_is_the_number(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--delta", "5",
                               "--sigmas-treated", "1,1,1",
                               "--sigmas-control", "1,1,1")
        assert code == 0
        float(out.strip())

    def test_bad_sigma_list_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "power", "--delta", "0",
                               "--sigmas-treated", "1,zebra",
                               "--sigmas-control", "1,1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"


# =========================================================================
# simulate
# =========================================================================

class TestSimulateCommand:
    def test_normal_study_writes_csv(self, capsys, tmp_path):
        cfg = tmp_path / "norm.cfg"
        cfg.write_text("q1=5\nq0=5\nmu1_grid=0,2.5\nreplications=60\n"
                       "seed=11\n")
        out_path = tmp_path / "norm.csv"
        code, out, _ = run_cli(capsys, "simulate", "--study", "normal",
                               "--config", str(cfg), "--out", str(out_path),
                               "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == 4 and payload["seed"] == 11
        text = out_path.read_text().splitlines()
        assert "# seed=11" in text
        header = text.index("mu1,h,method,rejection_rate,mc_se")
        assert len(text) - header - 1 == 4

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "norm.cfg"
        cfg.write_text("q1=5\nq0=5\nreplications=40\nseed=11\n")
        out_path = tmp_path / "norm.csv"
        code, out, _ = run_cli(capsys, "simulate", "--study", "normal",
                               "--config", str(cfg), "--out", str(out_path),
                               "--seed", "99", "--json")
        assert code == 0
        assert json.loads(out)["seed"] == 99
        assert "# seed=99" in out_path.read_text().splitlines()

    def test_repeat_run_is_bit_identical(self, capsys, tmp_path):
        cfg = tmp_path / "norm.cfg"
        cfg.write_text("q1=5\nq0=5\nreplications=50\nseed=4\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "simulate", "--study", "normal", "--config",
                       str(cfg), "--out", str(a))[0] == 0
        assert run_cli(capsys, "simulate", "--study", "normal", "--config",
                       str(cfg), "--out", str(b), "--workers", "2")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_did_study_records_design(self, capsys, tmp_path):
        cfg = tmp_path / "did.cfg"
        cfg.write_text("replications=6\nh_grid=1\ndelta_grid=0\n"
                       "bootstrap_B=49\nseed=2\n")
        out_path = tmp_path / "did.csv"
        code, out, _ = run_cli(capsys, "simulate", "--study", "did",
                               "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        assert "wrote" in out and "checksum=" in out
        content = out_path.read_text()
        assert "# pooled_columns=intercept post post_x_treated x1 x2 x3" \
            in content
        assert "wild-cluster-bootstrap" in content

    @pytest.mark.parametrize("study, settings", [
        ("normal", "q1=12\nq0=12\nmu1_grid=0,2\n"),
        ("did", "q1=11\nq0=11\nh_grid=1\ndelta_grid=0,2\nburn_in=50\n"
                "bootstrap_B=19\n"),
    ])
    def test_above_cap_study_matches_across_workers(self, capsys, tmp_path,
                                                    monkeypatch, study,
                                                    settings):
        # the weight matrix of these designs is above the cap, so the
        # permutation arm counts by split subset sums; blocks of 4
        # replications give the two workers three blocks to share
        monkeypatch.setattr(simharness, "_BLOCK", 4)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(settings + "replications=10\nseed=8\n")
        outs = []
        for workers in ("1", "2"):
            out_path = tmp_path / f"w{workers}.csv"
            code, _, err = run_cli(capsys, "simulate", "--study", study,
                                   "--config", str(cfg), "--out",
                                   str(out_path), "--workers", workers)
            assert code == 0, err
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]
        rows = list(csv.reader(line for line in outs[0].decode().splitlines()
                               if not line.startswith("#")))
        perm = [r for r in rows[1:] if r[2] == "adjusted-permutation"]
        assert len(perm) == 2
        assert all(0.0 <= float(r[3]) <= 1.0 for r in perm)

    def test_unknown_config_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("q1=5\nbogus=1\n")
        code, _, err = run_cli(capsys, "simulate", "--study", "normal",
                               "--config", str(cfg),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "bogus" in json.loads(err)["error"]["message"]

    def test_bad_config_value_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("replications=abc\n")
        code, _, err = run_cli(capsys, "simulate", "--study", "normal",
                               "--config", str(cfg),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "abc" in error["message"]

    def test_missing_config_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--study", "did",
                               "--config", str(tmp_path / "nope.cfg"),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"


# =========================================================================
# dispatch contract
# =========================================================================

class TestDispatch:
    def test_unknown_command_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "simulate" in out

    def test_no_arguments_exits_two(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_non_finite_json_payload_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "bound",
                            lambda ns: ({"size_bound": float("nan")}, "nan"))
        code, out, err = run_cli(capsys, "bound", "--q1", "4", "--q0", "4",
                                 "--json")
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_undecodable_input_exits_two_in_c_locale(self, tmp_path,
                                                     command):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"cluster_id,treated,estimate\n"
                         b"c\xff,1,0.5\nc2,0,0.25\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# r\xe9plications\nreplications=5\n")
        argv = {"test": ["--input", str(data), "--mode", "estimates",
                         "--alpha", "0.05"],
                "simulate": ["--study", "normal", "--config", str(cfg),
                             "--out", str(tmp_path / "x.csv")]}[command]
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C")
        env.pop("PYTHONUTF8", None)
        done = subprocess.run(
            [sys.executable, "-m", "clusterperm", command, *argv], env=env,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        error = json.loads(done.stderr)["error"]
        assert error["type"] == "InputFormatError"
        target = data if command == "test" else cfg
        assert error["message"].startswith(f"{target}: not UTF-8 text")

    def test_runs_as_module(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "clusterperm", "bound", "--q1", "4",
             "--q0", "4"], env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0
        assert done.stdout.strip() == "0.0898"
