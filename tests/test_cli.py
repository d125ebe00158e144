"""Tests for the command line interface.

dispatch() is exercised in-process: stdout/stderr are captured with
capsys and exit codes come from the return value.  One test starts
`python -m clusterperm` in a subprocess.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterperm import cli, simharness
from clusterperm.calibrate import CalibrationParams, calibrate_exhaustive
from clusterperm.cli import dispatch
from clusterperm.errors import DegeneracyWarning, InfeasibleLevelError
from clusterperm.estimators import load_estimates
from clusterperm.permkit import Design, RngStream
from clusterperm.permtest import (
    adjusted_test,
    adjustment_level,
    lookup_bar_alpha,
    size_bound,
)


CALIBRATE_PARAMS = ("--param", "R=60", "--param", "S1=200", "--param",
                    "S2=1000", "--seed", "5", "--json")


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

    @pytest.mark.parametrize("alpha", ["nan", "-1"])
    def test_alpha_outside_unit_interval_exits_two(self, capsys, alpha):
        code, out, err = run_cli(capsys, "bound", "--q1", "4", "--q0", "4",
                                 "--alpha", alpha, "--json")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert error["message"] == (f"alpha must lie in (0,1), "
                                    f"got {float(alpha)}")

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
        assert "pick a larger alpha" in json.loads(err)["error"]["message"]

    def test_design_past_the_table_points_to_calibration(self, capsys,
                                                         tmp_path):
        # 0.05 is above the size bound of both designs; the cells are
        # missing because the table stops at 12 clusters per group
        advice = ("the table stops at 12 clusters per group; calibrate the "
                  "level instead (--calibrate, or the calibrate module)")
        path = tmp_path / "est.csv"
        write_estimates_csv(path, [i % 6 for i in range(100)], 50)
        code, _, err = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.05")
        error = json.loads(err)["error"]
        assert code == 2 and error["type"] == "InfeasibleLevelError"
        assert error["message"].endswith(advice)
        assert "larger alpha" not in error["message"]
        cfg = tmp_path / "norm.cfg"
        cfg.write_text("q1=13\nq0=6\nreplications=10\n")
        code, _, err = run_cli(capsys, "simulate", "--study", "normal",
                               "--config", str(cfg), "--out",
                               str(tmp_path / "out.csv"))
        error = json.loads(err)["error"]
        assert code == 2 and error["type"] == "InfeasibleLevelError"
        assert error["message"].endswith(advice)

    def test_param_requires_calibrate(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--param", "R=100")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_calibrate_prints_seed_and_source(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--calibrate",
                               "--seed", "3", "--param",
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
                               "--param", "R=100", "--param",
                               "S1=100", "--param", "S2=200", "--json")
        assert code == 0
        assert isinstance(json.loads(out)["seed"], int)

    def test_calibrate_json_carries_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--calibrate",
                               "--seed", "3", "--param",
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
                               "--seed", "3", "--param",
                               "R=50", "--param", "S1=50", "--param",
                               "S2=100", "--csv")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert json.loads(row["diagnostics"])["params"]["R"] == 50

    def test_bad_calibration_parameter_value_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.1", "--calibrate",
                               "--param", "R=abc")
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "abc" in error["message"]

    def test_infinite_tolerance_eta_exits_two(self, capsys):
        # alpha + eta = inf once let every level pass: bar_alpha near 1
        code, out, err = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                                 "--alpha", "0.1", "--calibrate",
                                 "--param", "R=50", "--param",
                                 "S1=50", "--param", "S2=100", "--param",
                                 "tolerance_eta=inf", "--seed", "1")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "tolerance_eta" in error["message"]

    def test_unknown_calibration_parameter(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--calibrate",
                               "--param", "bogus=1")
        assert code == 2
        assert "bogus" in json.loads(err)["error"]["message"]

    # --calibrate takes no value: the old two-word form is a usage error
    # naming the stray value, and the plain flag runs the calibrator that
    # the design's assignment count (threshold 1,500) calls for

    def test_sampled_on_small_design_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                                 "--alpha", "0.1", "--calibrate", "sampled")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "UsageError",
            "message": "unrecognized arguments: sampled"}
        # 4+4 has 70 assignments
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.1", "--calibrate",
                               *CALIBRATE_PARAMS)
        assert code == 0
        assert json.loads(out)["diagnostics"]["method"] == "exhaustive"

    def test_exhaustive_on_large_design_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "alpha", "--q1", "7", "--q0", "7",
                                 "--alpha", "0.1", "--calibrate",
                                 "exhaustive")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "UsageError",
            "message": "unrecognized arguments: exhaustive"}
        # 7+7 has 3,432 assignments
        code, out, _ = run_cli(capsys, "alpha", "--q1", "7", "--q0", "7",
                               "--alpha", "0.1", "--calibrate",
                               *CALIBRATE_PARAMS)
        assert code == 0
        assert json.loads(out)["diagnostics"]["method"] == "sampled"

    def test_calibrate_diagnostics_carry_the_seed(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.10", "--calibrate",
                               "--seed", "5", "--param",
                               "R=50", "--param", "S1=50", "--param",
                               "S2=100", "--json")
        assert code == 0
        assert json.loads(out)["diagnostics"]["seed"] == 5

    # m and epsilon are read only by the sampled calibrator (C(q, q1) >=
    # 1,500): at 4+4 (70 assignments) they were accepted, ignored and
    # echoed in the diagnostics

    @pytest.mark.parametrize("ignored", [("m=7",), ("epsilon=0.05",),
                                         ("m=1500", "epsilon=0.05")])
    def test_exhaustive_refuses_sampled_params(self, capsys, ignored):
        extra = [arg for item in ignored for arg in ("--param", item)]
        code, out, err = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                                 "--alpha", "0.1", "--calibrate",
                                 *CALIBRATE_PARAMS, *extra)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "parameters of the sampled calibrator" in error["message"]
        for item in ignored:
            assert item.partition("=")[0] in error["message"]

    def test_diagnostics_list_the_params_each_calibrator_reads(self, capsys):
        read = {"R", "S1", "S2", "top_fraction", "beta_a", "beta_b"}
        code, out, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                               "--alpha", "0.1", "--calibrate",
                               *CALIBRATE_PARAMS)
        assert code == 0
        assert set(json.loads(out)["diagnostics"]["params"]) == read
        # 7+7 has 3,432 assignments: the sampled calibrator takes both
        code, out, _ = run_cli(capsys, "alpha", "--q1", "7", "--q0", "7",
                               "--alpha", "0.1", "--calibrate",
                               *CALIBRATE_PARAMS, "--param", "m=400",
                               "--param", "epsilon=0.02")
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["method"] == "sampled" and diagnostics["m"] == 400
        params = diagnostics["params"]
        assert set(params) == read | {"m", "epsilon"}
        assert (params["m"], params["epsilon"]) == (400, 0.02)


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

    def test_json_key_order(self, capsys, tmp_path):
        path = tmp_path / "est.csv"
        write_estimates_csv(path, np.arange(8.0), q1=4)
        code, out, _ = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.10", "--sample-m", "20",
                               "--seed", "3", "--json")
        payload = json.loads(out)
        assert code == 0
        assert list(payload) == [
            "command", "input", "mode", "q1", "q0", "method", "statistic",
            "critical_value", "p_value_right", "p_value_left",
            "p_value_two_sided", "decision", "side", "alpha", "bar_alpha",
            "lambda", "n_assignments", "assignment_source",
            "bar_alpha_source", "seed"]
        assert payload["method"] == "adjusted-permutation"

    def test_round_trip_matches_library_call(self, capsys, tmp_path):
        values = RngStream(17).generator().standard_normal(12) * 2.5
        path = tmp_path / "est.csv"
        write_estimates_csv(path, values, q1=6)
        code, out, _ = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.05", "--side", "two-sided",
                               "--lambda", "0.25", "--json")
        assert code == 0
        payload = json.loads(out)
        expected = adjusted_test(load_estimates(path),
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

    def test_perfectly_separated_cluster_exits_two(self, capsys, tmp_path):
        # a cluster with one outcome value has no binary-choice fit: bad
        # input, not a numerical failure
        lines = ["cluster_id,treated,outcome"]
        for k in range(8):
            lines += [f"c{k},{int(k < 4)},{1 if k == 0 else i % 2}"
                      for i in range(40)]
        path = tmp_path / "binary.csv"
        path.write_text("\n".join(lines) + "\n")
        for mode in ("logistic", "probit"):
            code, out, err = run_cli(capsys, "test", "--input", str(path),
                                     "--mode", mode, "--alpha", "0.1")
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == {
                "type": "DegenerateDataError",
                "message": "cluster 'c0' is perfectly separated "
                           "(all outcomes 1)"}

    def test_covariate_scale_does_not_decide_rank(self, capsys, tmp_path):
        # x1 scaled by 1e-12 exited 1 with RankDeficientError: rank was
        # judged against the largest pivoted column, not each column's norm
        payloads = []
        for scale in (1.0, 1e-12):
            gen = RngStream(29).generator()
            lines = ["cluster_id,treated,outcome,x1"]
            for k in range(8):
                for _ in range(30):
                    x, e = gen.standard_normal(2)
                    lines.append(f"c{k},{int(k < 4)},{0.5 * x + e:.17g},"
                                 f"{scale * x:.17g}")
            path = tmp_path / "obs.csv"
            path.write_text("\n".join(lines) + "\n")
            code, out, err = run_cli(capsys, "test", "--input", str(path),
                                     "--mode", "intercept", "--alpha", "0.10",
                                     "--json")
            assert code == 0, err
            payloads.append(json.loads(out))
        assert payloads[1]["statistic"] == pytest.approx(
            payloads[0]["statistic"], rel=1e-9)
        assert payloads[1]["decision"] == payloads[0]["decision"]

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

    def test_oversized_observation_field_exits_two(self, capsys, tmp_path):
        # one cell past csv.field_size_limit(), padding a number that
        # float() would read
        path = tmp_path / "big.csv"
        path.write_text("cluster_id,treated,outcome\n"
                        f"c0,1,{' ' * 131_072}1\nc1,0,2\n")
        code, _, err = run_cli(capsys, "test", "--input", str(path),
                               "--mode", "intercept", "--alpha", "0.05")
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "InputFormatError"
        assert "field larger than field limit (131072)" in error["message"]

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
                                   "--calibrate", "--seed",
                                   "5", *params, "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["bar_alpha_source"] == "calibrated"
            assert payload["calibration_seed"] == payload["seed"] == 5
            entry = calibrate_exhaustive(
                Design(3, 13), level,
                params=CalibrationParams(R=50, S1=50, S2=100, seed=5))
            expected = adjusted_test(load_estimates(path),
                                     0.2, side=side, alpha_entry=entry)
            for key, value in expected.to_json_dict().items():
                assert payload[key] == value, key
            assert payload["diagnostics"] == json.loads(
                json.dumps(entry.diagnostics))

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

    def test_exhaustive_calibration_refuses_sampled_params(self, capsys,
                                                          tmp_path):
        path = tmp_path / "est.csv"
        write_estimates_csv(path, list(range(8)), q1=4)
        code, out, err = run_cli(capsys, "test", "--input", str(path),
                                 "--alpha", "0.10", "--calibrate",
                                 *CALIBRATE_PARAMS, "--param", "m=7")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "m: parameters of the sampled calibrator" in error["message"]
        # without it the same command runs the exhaustive calibrator
        code, out, _ = run_cli(capsys, "test", "--input", str(path),
                               "--alpha", "0.10", "--calibrate",
                               *CALIBRATE_PARAMS)
        assert code == 0
        assert json.loads(out)["diagnostics"]["method"] == "exhaustive"

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

    def test_csv_record_quotes_like_the_csv_module(self, capsys, tmp_path,
                                                   monkeypatch):
        # a cell that opens with a quote must be quoted, as one with a
        # comma is, or a csv reader runs it into the cells after it
        monkeypatch.chdir(tmp_path)
        write_estimates_csv(tmp_path / '"q.csv', list(range(8)), q1=4)
        code, out, _ = run_cli(capsys, "test", "--input", '"q.csv',
                               "--alpha", "0.10", "--csv")
        _, payload, _ = run_cli(capsys, "test", "--input", '"q.csv',
                                "--alpha", "0.10", "--json")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["input"] == '"q.csv'
        assert row["decision"] == json.loads(payload)["decision"]
        assert list(row) == list(json.loads(payload))


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

    def test_overflowing_sigma_exits_two(self, capsys):
        # the quadrature window 10 * 1e308 overflowed; the command printed
        # 0.316851 with exit 0
        code, out, err = run_cli(capsys, "power", "--delta", "1",
                                 "--sigmas-treated", "1e308,1",
                                 "--sigmas-control", "1,1")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "sigmas_treated" in error["message"]


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

    @pytest.mark.parametrize("burn_in", ["-1", "2.5"])
    def test_bad_burn_in_exits_two(self, capsys, tmp_path, burn_in):
        cfg = tmp_path / "did.cfg"
        cfg.write_text(f"replications=2\nburn_in={burn_in}\n")
        code, _, err = run_cli(capsys, "simulate", "--study", "did",
                               "--config", str(cfg),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "burn_in" in error["message"]

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

    @pytest.mark.parametrize("study", ["normal", "did"])
    @pytest.mark.parametrize("q1,q0", [(1, 3), (3, 12)])
    def test_design_below_the_table_exits_two(self, capsys, tmp_path,
                                              study, q1, q0):
        # the table starts at 4 clusters per group, so the lookup refuses
        # every design too small for the group t-test
        cfg = tmp_path / "small.cfg"
        cfg.write_text(f"q1={q1}\nq0={q0}\nreplications=2\n"
                       + ("h_grid=1\n" if study == "did" else ""))
        code, _, err = run_cli(capsys, "simulate", "--study", study,
                               "--config", str(cfg),
                               "--out", str(tmp_path / "x.csv"))
        error = json.loads(err)["error"]
        assert code == 2 and error["type"] == "InfeasibleLevelError"
        with pytest.raises(InfeasibleLevelError) as lookup:
            lookup_bar_alpha(q1, q0, 0.05)
        assert error["message"] == str(lookup.value)

    def test_non_integer_count_exits_two_naming_key_and_value(
            self, capsys, tmp_path):
        # --param and config files share one coercion
        cfg = tmp_path / "frac.cfg"
        cfg.write_text("replications=1.5\n")
        runs = {"replications": ("simulate", "--study", "normal", "--config",
                                 str(cfg), "--out", str(tmp_path / "x.csv")),
                "R": ("alpha", "--q1", "4", "--q0", "4", "--alpha", "0.1",
                      "--calibrate", "--param", "R=1.5")}
        for key, argv in runs.items():
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "DomainError"
            assert key in error["message"] and "1.5" in error["message"]

    @pytest.mark.parametrize("study", ["normal", "did"])
    def test_infinite_sigma_exits_two(self, capsys, tmp_path, study):
        # an infinite sigma made NaN statistics and wrote rates of 0 or 1
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("q1=6\nq0=6\nsigma_high=inf\nreplications=20\n")
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "simulate", "--study", study,
                                 "--config", str(cfg), "--out",
                                 str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "sigma_high" in error["message"]

    @pytest.mark.parametrize("study", ["normal", "did"])
    def test_huge_finite_sigma_exits_two(self, capsys, tmp_path, study):
        # sigma_high=1e308 overflowed the squared draws after drawing and
        # wrote meaningless rates with exit 0
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("q1=6\nq0=6\nsigma_high=1e308\nreplications=20\n")
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "simulate", "--study", study,
                                 "--config", str(cfg), "--out",
                                 str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "sigma_high" in error["message"]

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

    def test_repeated_dispatch_keeps_param_lists_apart(self, capsys,
                                                      monkeypatch):
        # the parser is built once per process; appended --param values
        # must not carry over from one call to the next
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "alpha",
                            lambda ns: (seen.append(ns.param), ({}, ""))[1])
        for item in ("R=50", "S1=40"):
            code, _, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                                 "--alpha", "0.1", "--param", item)
            assert code == 0
        code, _, _ = run_cli(capsys, "alpha", "--q1", "4", "--q0", "4",
                             "--alpha", "0.1")
        assert code == 0
        assert seen == [["R=50"], ["S1=40"], []]

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


# =========================================================================
# start-up: commands without scipy arithmetic never load scipy
# =========================================================================

_SCIPY_PROBE = """
import importlib, json, pkgutil, sys
import clusterperm
from clusterperm.cli import dispatch

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

for info in pkgutil.iter_modules(clusterperm.__path__):
    if info.name != "__main__":
        importlib.import_module("clusterperm." + info.name)
report = {"import": [0, scipy_modules()],
          "pool": sorted(m for m in sys.modules
                         if m.partition(".")[0] == "multiprocessing"
                         or m == "concurrent.futures.process")}
for name, argv in json.loads(sys.argv[1]).items():
    report[name] = [dispatch(argv), scipy_modules()]
print(json.dumps(report))
"""


class TestStartup:
    def test_commands_without_scipy_arithmetic_leave_it_out(self, tmp_path):
        path = tmp_path / "est.csv"
        write_estimates_csv(path, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3], q1=5)
        binary = tmp_path / "binary.csv"
        binary.write_text("cluster_id,treated,outcome\n" + "".join(
            f"k{k},{int(k < 4)},{y}\n"
            for k in range(8) for y in (0, 1, k % 2, 1)))
        calibrate = ["--calibrate", "--seed", "1", "--param",
                     "R=50", "--param", "S1=50", "--param", "S2=100"]
        commands = {
            "bound": ["bound", "--q1", "4", "--q0", "4"],
            "alpha": ["alpha", "--q1", "4", "--q0", "4", "--alpha", "0.1"],
            "alpha-calibrate": ["alpha", "--q1", "4", "--q0", "4",
                                "--alpha", "0.1", *calibrate],
            "test": ["test", "--input", str(path), "--alpha", "0.05"],
            "test-sampled": ["test", "--input", str(path), "--alpha",
                             "0.05", "--sample-m", "100", "--seed", "2"],
            "test-logistic": ["test", "--input", str(binary), "--mode",
                              "logistic", "--alpha", "0.1"],
        }
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report.pop("pool") == []
        assert report == {name: [0, []]
                          for name in ["import", *commands]}


# =========================================================================
# the test command's contract, as a property
# =========================================================================

_EXTREMES = ["0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308",
             "1.7976931348623157e308", "-1.7976931348623157e308", "1e308"]
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(repr),
    st.decimals(min_value=-100, max_value=100, places=2).map(str),
    st.integers(-5, 5).map(str),
    st.sampled_from(_EXTREMES))
_ON_GRID = ["0.1", "0.10", "0.05", "0.025", "0.01", "0.005"]
_NOT_NUMBERS = ["abc", "", "1.2.3", "0x10", "--1", "1e"]
_NOT_FLAGS = ["2", "-1", "yes", "", "1.0", "true"]


@st.composite
def _estimates_rows(draw):
    """Rows (cluster_id, treated, estimate) of an estimates CSV with
    q1, q0 <= 8; values repeat from a small pool, so ties are common."""
    # most draws land on the tabulated designs, 4 <= q1, q0 <= 8
    group = st.one_of(st.integers(4, 8), st.integers(1, 8))
    q1, q0 = draw(group), draw(group)
    pool = draw(st.lists(_CELL, min_size=1, max_size=q1 + q0))
    cells = draw(st.lists(st.sampled_from(pool), min_size=q1 + q0,
                          max_size=q1 + q0))
    flags = draw(st.permutations([1] * q1 + [0] * q0))
    return [[f"c{i}", str(f), v] for i, (f, v) in enumerate(zip(flags, cells))]


def _separated_rows(q1, q0, sign=1):
    """Every treated estimate above (sign -1: below) every control one."""
    return [[f"c{i}", str(int(i < q1)), str(sign * (q1 + q0 - i))]
            for i in range(q1 + q0)]


def _csv_text(rows) -> str:
    return "\n".join(["cluster_id,treated,estimate"]
                     + [",".join(r) for r in rows]) + "\n"


def _dispatch_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestTestContract:
    """Exit codes, strict JSON and exact p-value/decision arithmetic of
    `test --mode estimates` over generated inputs."""

    @given(rows=_estimates_rows(),
           side=st.sampled_from(["right", "left", "two-sided"]),
           alpha=st.one_of(st.sampled_from(_ON_GRID),
                           st.floats(-0.5, 1.5).map(repr)),
           sample_m=st.none() | st.integers(1, 300),
           lam=st.none() | _CELL,
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=500, deadline=None)
    # p equals bar_alpha exactly: the starred 8+8 cell (bar_alpha = 1/N)
    # on both sides, and 50 sampled relabelings at bar_alpha = 0.02
    @example(rows=_separated_rows(8, 8), side="right", alpha="0.005",
             sample_m=None, lam=None, seed=0)
    @example(rows=_separated_rows(8, 8, sign=-1), side="left",
             alpha="0.005", sample_m=None, lam=None, seed=0)
    @example(rows=_separated_rows(6, 7), side="two-sided", alpha="0.1",
             sample_m=49, lam=None, seed=0)
    # finite inputs whose subset sums overflow, before and after the shift
    @example(rows=_separated_rows(4, 4), side="right", alpha="0.1",
             sample_m=None, lam="1e308", seed=0)
    @example(rows=[[f"c{i}", str(int(i < 4)), ("1e308", "-1e308")[i % 2]]
                   for i in range(8)],
             side="right", alpha="0.1", sample_m=20, lam=None, seed=1)
    @pytest.mark.filterwarnings(
        "ignore::clusterperm.errors.DegeneracyWarning")
    def test_exit_codes_json_and_decision(self, tmp_path_factory, rows,
                                          side, alpha, sample_m, lam, seed):
        path = tmp_path_factory.mktemp("contract") / "est.csv"
        path.write_text(_csv_text(rows))
        argv = ["test", "--input", str(path), f"--alpha={alpha}",
                "--side", side, "--json"]
        if sample_m is not None:
            argv += ["--sample-m", str(sample_m), "--seed", str(seed)]
        if lam is not None:
            argv += [f"--lambda={lam}"]
        code, out, err = _dispatch_captured(argv)
        assert code in (0, 2), err
        if code == 2:
            assert out == "" and err.endswith("\n")
            assert err.count("\n") == 1
            assert set(_strict_json(err)["error"]) == {"type", "message"}
            return
        payload = _strict_json(out)
        n = payload["n_assignments"]
        counts = {}
        for name in ("p_value_right", "p_value_left"):
            p = payload[name]
            k = round(p * n)
            assert k / n == p and 1 <= k <= n, (name, p, n)
            counts[name] = k
        assert payload["p_value_two_sided"] == min(
            1.0, 2.0 * min(payload["p_value_right"],
                           payload["p_value_left"]))
        q1, q0 = payload["q1"], payload["q0"]
        bar = lookup_bar_alpha(
            q1, q0, adjustment_level(float(alpha), side)).bar_alpha_exact
        assert payload["bar_alpha"] == float(bar)
        k = {"right": counts["p_value_right"],
             "left": counts["p_value_left"],
             "two-sided": min(counts.values())}[side]
        want = "reject" if Fraction(k, n) <= bar else "retain"
        assert payload["decision"] == want

    @given(rows=_estimates_rows(), data=st.data(),
           mutation=st.sampled_from(
               ["missing-field", "non-numeric", "bad-flag", "empty"]))
    @settings(max_examples=60, deadline=None)
    def test_mutated_csv_is_an_input_error(self, tmp_path_factory, rows,
                                           data, mutation):
        i = data.draw(st.integers(0, len(rows) - 1))
        if mutation == "missing-field":
            del rows[i][data.draw(st.integers(0, 2))]
        elif mutation == "non-numeric":
            rows[i][2] = data.draw(st.sampled_from(_NOT_NUMBERS))
        elif mutation == "bad-flag":
            rows[i][1] = data.draw(st.sampled_from(_NOT_FLAGS))
        text = "" if mutation == "empty" else _csv_text(rows)
        path = tmp_path_factory.mktemp("mutated") / "est.csv"
        path.write_text(text)
        code, out, err = _dispatch_captured(
            ["test", "--input", str(path), "--alpha", "0.05", "--json"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert _strict_json(err)["error"]["type"] == "InputFormatError"
