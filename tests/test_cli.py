import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bellkit
from bellkit import (
    NoRootError,
    builtin_expression,
    g_paper_expansion_fixture_path,
    ghz_state,
    mix_with_white_noise,
    paper_model,
    serialize_expression,
    tolerance_by_root_scan,
    violation_report,
)
from bellkit.cli import _f12, _plain_lines, _rational, _read, run_command
from bellkit.noise import MARGIN_TOL

DATA = Path(__file__).parent / "data"


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestBound:
    def test_g_paper(self, capsys):
        report = run_json(capsys, ["bound", "--builtin", "g-paper"])
        assert report["schema_version"] == 1
        assert report["command"] == "bound"
        assert report["local"]["max"]["exact"] == "1"
        assert report["local"]["min"]["exact"] == "-4"
        assert report["local"]["strategy_count"] == 64
        assert len(report["local"]["maximizers"]) == 32

    def test_mermin_magnitude_bound(self, capsys):
        report = run_json(capsys, ["bound", "--builtin", "mermin"])
        assert report["local"]["magnitude"]["exact"] == "2"
        assert report["local"]["max"]["exact"] == "2"
        assert report["local"]["min"]["exact"] == "-2"

    def test_duplicate_terms_warn_on_one_stderr_line(self, capsys, tmp_path):
        path = tmp_path / "dup.bell"
        path.write_text("scenario 3 2 2\n+1 P(A0 B0 C0 | 1 1 1)\n+2 P(A0 B0 C0 | 1 1 1)\n")
        code, out, err = run(capsys, ["bound", str(path)])
        assert code == 0
        assert json.loads(out)["local"]["max"]["exact"] == "3"
        assert err == "warning: duplicate term at line 3 merges with line 2\n"
        assert ".py:" not in err

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_duplicate_terms_warn_whatever_the_interpreters_warning_filter(
        self, capsys, tmp_path, action
    ):
        # as under PYTHONWARNINGS=error or =ignore: the report and its warning line stay
        path = tmp_path / "dup.bell"
        path.write_text("scenario 3 2 2\n+1 P(A0 B0 C0 | 1 1 1)\n+2 P(A0 B0 C0 | 1 1 1)\n")
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            code, out, err = run(capsys, ["bound", str(path)])
        assert code == 0
        assert json.loads(out)["local"]["max"]["exact"] == "3"
        assert err == "warning: duplicate term at line 3 merges with line 2\n"

    def test_expression_file(self, capsys, tmp_path):
        path = tmp_path / "g.bell"
        path.write_text(serialize_expression(builtin_expression("g-paper")))
        report = run_json(capsys, ["bound", str(path)])
        assert report["local"]["max"]["exact"] == "1"
        assert report["inputs"]["expression"]["path"] == str(path)
        assert len(report["inputs"]["expression"]["sha256"]) == 64


class TestExpand:
    def test_plain_expansion(self, capsys):
        report = run_json(capsys, ["expand", "--builtin", "g-paper"])
        expansion = report["expansion"]
        assert expansion["assignment_count"] == 64
        assert expansion["coefficient_sum"]["exact"] == "-96"
        assert expansion["min"]["exact"] == "-4"
        assert expansion["max"]["exact"] == "1"
        by_assignment = {t["assignment"]: t["coefficient"]["exact"] for t in expansion["terms"]}
        assert by_assignment["000000"] == "1"
        assert by_assignment["010000"] == "-4"

    def test_diff_against_shipped_fixture_is_clean(self, capsys):
        fixture = str(g_paper_expansion_fixture_path())
        code, out, err = run(capsys, ["expand", "--builtin", "g-paper", "--diff", fixture])
        assert code == 0
        report = json.loads(out)
        assert report["diff"]["mismatches"] == 0
        assert report["diff"]["entries"] == []

    def test_diff_findings_do_not_fail(self, capsys, tmp_path):
        perturbed = tmp_path / "perturbed.fixture"
        lines = g_paper_expansion_fixture_path().read_text().splitlines()
        replaced = [
            "+2 L(000000)" if line == "+1 L(000000)" else line for line in lines
        ]
        perturbed.write_text("\n".join(replaced) + "\n")
        code, out, err = run(
            capsys, ["expand", "--builtin", "g-paper", "--diff", str(perturbed)]
        )
        assert code == 0
        report = json.loads(out)
        assert report["diff"]["mismatches"] == 1
        entry = report["diff"]["entries"][0]
        assert entry["assignment"] == "000000"
        assert entry["computed"]["exact"] == "1"
        assert entry["fixture"]["exact"] == "2"


class TestQuantum:
    def test_paper_model(self, capsys):
        report = run_json(capsys, ["quantum", "--builtin", "g-paper", "--model", "paper"])
        assert report["quantum"]["value"] == pytest.approx(3.5, abs=1e-9)
        assert len(report["quantum"]["breakdown"]) == 20
        first = report["quantum"]["breakdown"][0]
        assert first["coefficient"]["exact"] == "1"
        assert first["contribution"] == pytest.approx(0.25, abs=1e-9)

    def test_model_file(self, capsys, tmp_path):
        model = {
            "state": "ghz",
            "measurements": [
                [{"bloch": [1, 0, 0]}, {"bloch": [0, 1, 0]}] for _ in range(3)
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        report = run_json(capsys, ["quantum", "--builtin", "g-paper", "--model", str(path)])
        assert report["quantum"]["value"] == pytest.approx(3.5, abs=1e-9)
        assert report["inputs"]["model"]["path"] == str(path)

    def test_mermin_magnitude(self, capsys):
        report = run_json(capsys, ["quantum", "--builtin", "mermin"])
        assert report["quantum"]["value"] == pytest.approx(-4.0, abs=1e-9)
        assert report["quantum"]["magnitude"] == pytest.approx(4.0, abs=1e-9)
        assert report["quantum"]["magnitude_convention"] is True


class TestNoise:
    def test_g_paper(self, capsys):
        report = run_json(capsys, ["noise", "--builtin", "g-paper"])
        noise = report["noise"]
        assert noise["p_critical"]["value"] == pytest.approx(0.5, abs=1e-9)
        assert noise["p_critical_root_scan"]["value"] == pytest.approx(0.5, abs=1e-9)
        assert noise["p_critical_root_scan"]["agrees_with_closed_form"] is True
        # both ends of [0, 1] and one probe either side of the affine crossing
        assert noise["p_critical_root_scan"]["evaluations"] == 4
        assert noise["p_critical_root_scan"]["gap"] == 0.0
        assert noise["p_critical_term_count_rule"]["value"] == pytest.approx(
            0.714285714286, abs=1e-9
        )
        assert noise["p_critical_term_count_rule"]["agrees_with_closed_form"] is False
        assert noise["coefficient_sum"]["exact"] == "-12"

    def test_mermin(self, capsys):
        report = run_json(capsys, ["noise", "--builtin", "mermin"])
        noise = report["noise"]
        assert noise["p_critical"]["value"] == pytest.approx(0.5, abs=1e-9)
        assert noise["p_critical_root_scan"]["evaluations"] == 4
        assert abs(noise["p_critical_root_scan"]["gap"]) <= 1e-12
        assert noise["p_critical_term_count_rule"]["agrees_with_closed_form"] is True
        assert noise["magnitude_convention"] is True

    def test_no_violation_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "weak.bell"
        path.write_text("scenario 3 2 2\n+1 P(A0 B0 C0 | 1 1 1)\n")
        code, out, err = run(capsys, ["noise", str(path)])
        assert code == 1
        assert "undefined" in err

    @pytest.mark.parametrize(
        "mix",
        [
            # unmixed, every noisy state is GHZ_3 itself, so Q = 3.5 stays above 1 at p = 1
            lambda state, p: state,
            # mixed at 0.4 p, Q = 0.6 * 3.5 + 0.4 * (-1.5) = 1.5 at p = 1: above 1 by 0.5
            lambda state, p: mix_with_white_noise(state, 0.4 * p),
        ],
        ids=["unmixed", "mixed-at-0.4p"],
    )
    def test_a_violation_that_survives_the_whole_interval_has_no_root(
        self, capsys, monkeypatch, mix
    ):
        monkeypatch.setattr("bellkit.noise.mix_with_white_noise", mix)
        message = "the violation survives the whole interval; no root in [0, 1]"
        with pytest.raises(NoRootError, match=f"^{re.escape(message)}$"):
            tolerance_by_root_scan(builtin_expression("g-paper"), ghz_state(3), paper_model())
        assert run(capsys, ["noise", "--builtin", "g-paper"]) == (1, "", f"error: {message}\n")
        report = run_json(capsys, ["report", "--builtin", "g-paper"])
        assert report["noise"] == {"defined": False, "reason": message}


class TestZeroMargin:
    """Expressions constant on every behaviour sit at their local bound: a
    zero margin, tolerance 0 on both routes and no violation."""

    @staticmethod
    def normalization_file(tmp_path, coefficient, settings):
        lines = ["scenario 3 2 2"] + [
            f"{coefficient} P({settings} | {a} {b} {c})"
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
        ]
        path = tmp_path / "normalization.bell"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_w_state_normalization_sum(self, capsys, tmp_path):
        expr_path = self.normalization_file(tmp_path, "+1", "A0 B0 C0")
        amplitudes = [[1 / math.sqrt(3), 0] if i in (1, 2, 4) else [0, 0] for i in range(8)]
        settings = [{"angles": [0.5, 0]}, {"angles": [1, 0.5]}]
        model_path = tmp_path / "w.json"
        model_path.write_text(
            json.dumps({"state": {"amplitudes": amplitudes}, "measurements": [settings] * 3})
        )
        argv = [expr_path, "--model", str(model_path)]
        noise = run_json(capsys, ["noise", *argv])["noise"]
        assert noise["p_critical"]["value"] == 0.0
        assert noise["p_critical_root_scan"]["value"] == 0.0
        assert noise["p_critical_root_scan"]["agrees_with_closed_form"] is True
        # the zero margin at p = 0 ends the scan after one noisy state
        assert noise["p_critical_root_scan"]["evaluations"] == 1
        assert noise["p_critical_root_scan"]["gap"] == 0.0
        assert noise["p_critical_term_count_rule"]["value"] == 0.0
        violation = run_json(capsys, ["report", *argv])["violation"]
        assert abs(violation["amount"]) <= MARGIN_TOL  # rounding, of either sign
        assert violation["violated"] is False

    def test_paper_model_normalization_sum(self, capsys, tmp_path):
        path = self.normalization_file(tmp_path, "+3/7", "A1 B0 C1")
        noise = run_json(capsys, ["noise", path])["noise"]
        assert noise["p_critical"]["value"] == 0.0
        assert noise["p_critical_root_scan"]["value"] == 0.0
        assert run_json(capsys, ["report", path])["noise"]["defined"] is True

    def test_scaled_down_mermin_is_still_violated(self, capsys, tmp_path):
        path = tmp_path / "small.bell"
        path.write_text(
            "scenario 3 2 2\n+1/10000000000 E(A0 B1 C1)\n+1/10000000000 E(A1 B0 C1)\n"
            "+1/10000000000 E(A1 B1 C0)\n-1/10000000000 E(A0 B0 C0)\n"
        )
        noise = run_json(capsys, ["noise", str(path), "--magnitude"])["noise"]
        assert noise["p_critical"]["value"] == 0.5
        assert noise["p_critical_root_scan"]["value"] == 0.5
        violation = run_json(capsys, ["report", str(path), "--magnitude"])["violation"]
        assert violation["amount"] == 2e-10
        assert violation["violated"] is True

    def test_correlator_band_past_the_largest_float(self, capsys, tmp_path):
        # the correlators' magnitudes fit a float; their probability form's, 2^3 times as
        # large, do not, and the band is scaled after MARGIN_TOL so it stays finite
        path = tmp_path / "huge.bell"
        huge = int(sys.float_info.max) // 2
        path.write_text(f"scenario 3 2 2\n+{huge} E(A0 B0 C0)\n-1 E(A1 B1 C0)\n")
        noise = run_json(capsys, ["noise", str(path)])["noise"]
        assert noise["p_critical"]["value"] == 0.0  # a margin of 1 in 9e307 is zero
        report = run_json(capsys, ["report", str(path)])
        assert report["violation"]["violated"] is False
        assert report["noise"]["defined"] is True

    def test_empty_expression_report(self, capsys, tmp_path):
        path = tmp_path / "empty.bell"
        path.write_text("scenario 3 2 2\n")
        report = run_json(capsys, ["report", str(path)])
        assert report["violation"]["violated"] is False
        assert report["noise"]["defined"] is True
        assert report["noise"]["p_critical"]["value"] == 0.0


class TestOptimize:
    def test_small_run_and_model_round_trip(self, capsys, tmp_path):
        argv = [
            "optimize",
            "--builtin",
            "g-paper",
            "--state",
            "ghz",
            "--restarts",
            "2",
            "--seed",
            "7",
        ]
        report = run_json(capsys, argv)
        optimization = report["optimization"]
        assert optimization["best_value"] == pytest.approx(3.5, abs=1e-6)
        assert optimization["restarts"] == 2
        assert optimization["seed"] == 7
        assert optimization["converged_starts"] == 3
        # the emitted model document must evaluate back to the best value
        path = tmp_path / "best.json"
        path.write_text(json.dumps(optimization["model"]))
        quantum = run_json(
            capsys, ["quantum", "--builtin", "g-paper", "--model", str(path)]
        )
        assert quantum["quantum"]["value"] == pytest.approx(
            optimization["best_value"], abs=1e-9
        )

    def test_flags_left_out_take_the_optimizer_defaults(self, capsys):
        given = run_json(capsys, ["optimize", "--builtin", "g-paper", "--tolerance", "1e-6"])
        assert given["inputs"]["tolerance"] == 1e-6
        inputs = run_json(capsys, ["optimize", "--builtin", "g-paper"])["inputs"]
        defaults = dataclasses.asdict(bellkit.OptimizerConfig())
        assert {name: inputs[name] for name in defaults} == defaults

    def test_the_default_seed_is_zero(self, capsys):
        # the golden reports all pass --seed 0; a run without it must print the same bytes
        argv = ["optimize", "--builtin", "g-paper", "--restarts", "2"]
        assert run(capsys, argv) == run(capsys, [*argv, "--seed", "0"])

    def test_an_infinite_tolerance_is_refused_by_name(self, capsys):
        code, out, err = run(capsys, ["optimize", "--builtin", "g-paper", "--tolerance", "inf"])
        assert (code, out) == (1, "")
        assert err == "error: tolerance must be positive and finite, got inf\n"

    def test_exhausted_budget_converges_no_start(self, capsys):
        argv = ["optimize", "--builtin", "g-paper", "--restarts", "2", "--max-evals", "1"]
        optimization = run_json(capsys, argv)["optimization"]
        assert optimization["converged_starts"] == 0
        assert optimization["evaluations"] == 3

    def test_state_file_must_match_the_expression(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(
            '{"state": {"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}, '
            '"measurements": [[{"bloch": [0, 0, 1]}], [{"bloch": [0, 0, 1]}]]}'
        )
        code, out, err = run(capsys, ["optimize", "--builtin", "g-paper", "--state", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: state spans 2 qubits but the expression has 3 parties\n"

    @pytest.mark.parametrize("state", ["ghz", "file"])
    @pytest.mark.parametrize("name", ["g-paper", "mermin"])
    def test_the_emitted_model_reproduces_the_best_value(self, capsys, tmp_path, name, state):
        if state == "file":
            amplitudes = [[0.6, 0.0], [0, 0], [0, 0], [0, 0.48], [0, 0], [0, 0], [0, 0], [0.64, 0]]
            state = tmp_path / "state.json"
            state.write_text(json.dumps({"state": {"amplitudes": amplitudes}, "measurements": [
                [{"bloch": [0, 0, 1]}] * 2] * 3}))
        argv = ["optimize", "--builtin", name, "--state", str(state), "--restarts", "2"]
        optimization = run_json(capsys, argv)["optimization"]
        path = tmp_path / "best.json"
        path.write_text(json.dumps(optimization["model"]))
        quantum = run_json(capsys, ["quantum", "--builtin", name, "--model", str(path)])["quantum"]
        key = "magnitude" if optimization["magnitude_convention"] else "value"
        assert abs(quantum[key] - optimization["best_value"]) <= 1e-12

    def test_byte_identical_for_identical_seeds(self, capsys):
        argv = ["optimize", "--builtin", "g-paper", "--restarts", "2", "--seed", "3"]
        code1, out1, err1 = run(capsys, argv)
        code2, out2, err2 = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestReport:
    def test_g_paper_full_report(self, capsys):
        report = run_json(capsys, ["report", "--builtin", "g-paper", "--model", "paper"])
        assert report["expression"]["term_count"] == 20
        assert report["local"]["max"]["exact"] == "1"
        assert report["quantum"]["value"] == pytest.approx(3.5, abs=1e-9)
        assert report["violation"]["factor"] == pytest.approx(3.5, abs=1e-9)
        assert report["violation"]["amount"] == pytest.approx(2.5, abs=1e-9)
        assert report["violation"]["violated"] is True
        assert report["noise"]["p_critical"]["value"] == pytest.approx(0.5, abs=1e-9)
        assert report["expansion"]["diff"]["mismatches"] == 0
        assert report["tool"]["name"] == "bellkit"

    def test_mermin_report_uses_magnitudes(self, capsys):
        report = run_json(capsys, ["report", "--builtin", "mermin"])
        assert report["expression"]["term_count"] == 32
        assert report["expression"]["stored_term_count"] == 4
        assert report["violation"]["factor"] == pytest.approx(2.0, abs=1e-9)
        assert report["violation"]["amount"] == pytest.approx(2.0, abs=1e-9)
        assert report["noise"]["p_critical"]["value"] == pytest.approx(0.5, abs=1e-9)
        # no packaged fixture for this builtin, so no diff block
        assert "diff" not in report["expansion"]

    def test_byte_identical_reports(self, capsys):
        argv = ["report", "--builtin", "g-paper", "--model", "paper"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_non_violating_report_still_succeeds(self, capsys, tmp_path):
        path = tmp_path / "weak.bell"
        path.write_text("scenario 3 2 2\n+1 P(A0 B0 C0 | 1 1 1)\n")
        report = run_json(capsys, ["report", str(path)])
        assert report["violation"]["violated"] is False
        assert report["noise"]["defined"] is False
        # the reason quotes the quantum value at 12 significant digits, like
        # every other float in a report
        angles = '[{"angles": [1.0, 0.3]}, {"angles": [2.0, 2.1]}]'
        model_path = tmp_path / "weak.json"
        model_path.write_text(f'{{"state": "ghz", "measurements": [{", ".join([angles] * 3)}]}}')
        report = run_json(capsys, ["report", "--builtin", "g-paper", "--model", str(model_path)])
        assert report["noise"] == {
            "defined": False,
            "reason": "quantum value -0.487061222385 does not reach the local bound 1; "
            "the noise tolerance is undefined",
        }

    @pytest.mark.parametrize("flag", ["--magnitude", "--no-magnitude"])
    @pytest.mark.parametrize("name", ["g-paper", "mermin"])
    def test_violation_block_matches_violation_report(self, capsys, name, flag):
        report = run_json(capsys, ["report", "--builtin", name, flag])
        magnitude = flag == "--magnitude"
        expected = violation_report(
            builtin_expression(name), ghz_state(3), paper_model(), magnitude=magnitude
        )
        assert report["violation"] == {
            "quantum_value": _f12(expected.quantum_value),
            "local_bound": _rational(expected.local_max, "local_bound"),
            "factor": _f12(expected.violation_factor),
            "amount": _f12(expected.violation_amount),
            "violated": expected.violated,
            "magnitude_convention": magnitude,
        }


class TestWorkPerCommand:
    @pytest.mark.parametrize("name", ["g-paper", "mermin"])
    def test_noise_and_report_compute_the_local_bounds_once(self, capsys, call_counts, name):
        # noise needs only the local extremes and reads them off the expansion
        # grid; report lists the extremizers, so it sweeps the vertices instead
        routes = {"noise": "trivial_bounds", "report": "local_bounds"}
        values, strategies = {}, {}
        for command, route in routes.items():
            call_counts.clear()
            run_json(capsys, [command, "--builtin", name])
            assert call_counts["trivial_bounds"] + call_counts["local_bounds"] == 1, command
            assert call_counts[route] == 1, command
            assert call_counts["correlator_to_probability"] <= 1, command
            assert call_counts["_coefficient_pass"] == 1, command
            values[command] = call_counts["expression_value"]
            strategies[command] = call_counts["evaluate_on_strategy"]
        # one quantum value each, plus the same root scan
        assert values["report"] == values["noise"]
        assert strategies["noise"] == 0 < strategies["report"]

    @pytest.mark.parametrize(
        "source",
        [
            ["--builtin", "mermin"],
            [str(DATA / "mermin4.bell"), "--model", str(DATA / "ghz4-xy.json")],
        ],
    )
    def test_noise_never_converts_a_correlator_form(self, capsys, call_counts, source):
        run_json(capsys, ["noise", *source, "--magnitude"])
        assert call_counts["correlator_to_probability"] == 0
        assert call_counts["trivial_bounds"] == call_counts["_coefficient_pass"] == 1

    @pytest.mark.parametrize(
        "command", ["bound", "expand", "quantum", "noise", "report", "optimize"]
    )
    def test_a_correlator_form_is_converted_at_most_once(self, capsys, call_counts, command):
        argv = [command, "--builtin", "mermin"]
        run_json(capsys, argv + (["--restarts", "1"] if command == "optimize" else []))
        assert call_counts["correlator_to_probability"] <= 1

    @pytest.mark.parametrize("command", ["noise", "report"])
    def test_the_model_is_checked_before_any_bound(self, capsys, call_counts, tmp_path, command):
        path = tmp_path / "ternary.bell"
        path.write_text("scenario 3 3 3\n+1 P(A2 B2 C2 | 2 2 2)\n")
        mismatch = "error: expression scenario does not match the measurement model\n"
        for cap in ([], ["--cap", "10"]):  # the mismatch outranks a cap too small
            call_counts.clear()
            assert run(capsys, [command, str(path), *cap]) == (1, "", mismatch)
            assert call_counts["local_bounds"] == call_counts["trivial_bounds"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "wide.bell", "--diff", "missing.fixture"],
            ["report", "--builtin", "g-paper", "--diff", "missing.fixture"],
        ],
        ids=["expand", "report"],
    )
    def test_a_missing_fixture_fails_before_any_expansion(
        self, capsys, call_counts, tmp_path, monkeypatch, argv
    ):
        # 531 441 assignments: the expansion alone takes a good part of a second
        (tmp_path / "wide.bell").write_text(
            "scenario 4 3 3\n+1 P(A0 B0 C0 D0 | 0 0 0 0)\n-1 P(A2 B2 C2 D2 | 2 2 2 2)\n"
        )
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: [Errno 2] No such file or directory: 'missing.fixture'\n"
        assert call_counts["expand_full_joint"] == call_counts["local_bounds"] == 0

    def test_a_fixture_over_another_scenario_fails_before_any_expansion(
        self, capsys, call_counts
    ):
        path = DATA / "parse" / "other-scenario.fixture"
        code, out, err = run(capsys, ["expand", "--builtin", "g-paper", "--diff", str(path)])
        assert (code, out) == (1, "")
        assert err == (
            "error: expansions cover different scenarios: scenario 3 2 2 computed, "
            f"scenario 2 2 2 in {path}\n"
        )
        assert call_counts["expand_full_joint"] == 0

    @pytest.mark.parametrize("command", ["expand", "report"])
    def test_a_cap_past_the_listing_limit_fails_before_any_work(
        self, capsys, call_counts, tmp_path, command
    ):
        # 2^24 assignments pass --cap 20000000 but not the 10^7 an expansion
        # lists at most, so neither the grid nor report's sweep runs
        path = tmp_path / "long.bell"
        path.write_text("scenario 2 12 2\n+1 P(A0 B0 | 0 0)\n")
        model = tmp_path / "model.json"
        z_axis = [{"bloch": [0, 0, 1]}] * 12
        model.write_text(json.dumps({"state": "ghz", "measurements": [z_axis, z_axis]}))
        model_args = ["--model", str(model)] if command == "report" else []
        start = time.perf_counter()
        code, out, err = run(capsys, [command, str(path), "--cap", "20000000", *model_args])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == "error: strategy space has 16777216 elements, exceeding the cap of 10000000\n"
        assert call_counts["local_bounds"] == 0


class TestPlainFormat:
    def test_plain_lines(self, capsys):
        code, out, err = run(
            capsys, ["bound", "--builtin", "g-paper", "--format", "plain"]
        )
        assert code == 0
        lines = out.splitlines()
        assert "local.max.exact = \"1\"" in lines
        assert "schema_version = 1" in lines

    def test_a_list_of_objects_is_indexed(self, capsys):
        code, out, err = run(capsys, ["quantum", "--builtin", "g-paper", "--format", "plain"])
        assert code == 0
        lines = out.splitlines()
        assert "quantum.breakdown[0].settings = [0, 0, 0]" in lines
        assert "quantum.breakdown[19].coefficient.exact = \"-4\"" in lines


class TestInputFiles:
    """Expression files, model and state documents and fixtures share one reader."""

    @staticmethod
    def _write(tmp_path, newline, prefix=""):
        """A g-paper expression, the paper's model and its expansion fixture, each
        written with ``newline`` line ends after ``prefix``."""
        model = {"state": "ghz", "measurements": [[{"bloch": [1, 0, 0]}, {"bloch": [0, 1, 0]}]] * 3}
        texts = {
            "g.bell": serialize_expression(builtin_expression("g-paper")),
            "model.json": json.dumps(model, indent=1),
            "g.fixture": g_paper_expansion_fixture_path().read_text(encoding="utf-8"),
        }
        paths = []
        for name, text in texts.items():
            paths.append(tmp_path / name)
            paths[-1].write_bytes((prefix + text.replace("\n", newline)).encode("utf-8"))
        return paths

    @pytest.mark.parametrize(
        "newline,prefix",
        [("\n", ""), ("\r\n", ""), ("\r", ""), ("\r\n", "\ufeff")],
        ids=["lf", "crlf", "cr", "bom-crlf"],
    )
    def test_each_digest_is_that_of_the_file_bytes(self, capsys, tmp_path, newline, prefix):
        paths = expression, model, fixture = self._write(tmp_path, newline, prefix)
        argv = ["report", str(expression), "--model", str(model), "--diff", str(fixture)]
        report = run_json(capsys, argv)
        digests = [
            report["inputs"]["expression"]["sha256"],
            report["inputs"]["model"]["sha256"],
            report["expansion"]["diff"]["fixture_sha256"],
        ]
        assert digests == [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]
        assert report["quantum"]["value"] == 3.5 and report["expansion"]["diff"]["mismatches"] == 0
        argv = ["optimize", str(expression), "--state", str(model), "--restarts", "0"]
        assert run_json(capsys, argv)["inputs"]["state"]["sha256"] == digests[1]

    def test_a_leading_byte_order_mark_changes_no_report_but_the_digests(self, capsys, tmp_path):
        def without_digests(value):
            if isinstance(value, dict):
                return {k: without_digests(v) for k, v in value.items() if "sha256" not in k}
            return value

        reports = []
        for prefix in ("", "\ufeff"):
            expression, model, fixture = map(str, self._write(tmp_path, "\n", prefix))
            for argv in (
                ["report", expression, "--model", model, "--diff", fixture],
                ["optimize", expression, "--state", model, "--restarts", "0"],
            ):
                reports.append(without_digests(run_json(capsys, argv)))
        assert reports[2:] == reports[:2]

    def test_a_utf8_error_after_a_byte_order_mark_is_located_in_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.bell"
        path.write_bytes(b"\xef\xbb\xbfabc\xff")
        code, out, err = run(capsys, ["bound", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {path} is not UTF-8 text: invalid start byte at byte 6\n"

    @pytest.mark.parametrize(
        "argv",
        [["bound"], ["quantum", "--builtin", "g-paper", "--model"],
         ["optimize", "--builtin", "g-paper", "--state"], ["expand", "--builtin", "g-paper", "--diff"]],
        ids=["expression", "model", "state", "fixture"],
    )
    def test_bytes_that_are_not_utf8_are_an_error_naming_the_file(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"scenario 3 2 2\r\n\xff\n")
        code, out, err = run(capsys, [*argv, str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {path} is not UTF-8 text: invalid start byte at byte 16\n"

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(pieces=st.lists(st.sampled_from(["\r", "\n", "\r\n", "a", "\u00e9", "\ufeff", " "])))
    def test_the_reader_decodes_as_read_text_does(self, tmp_path, pieces):
        path = tmp_path / "document"
        path.write_bytes("".join(pieces).encode("utf-8"))
        text, identity = _read(str(path), lambda text: text)
        assert text == path.read_text(encoding="utf-8").removeprefix("\ufeff")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert identity == {"path": str(path), "sha256": digest}

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.binary() | st.text().map(str.encode))
    def test_the_digest_is_hashlibs_sha256_of_the_bytes(self, tmp_path, data):
        # the reader hashes with the interpreter's built-in module; hashlib is the reference
        path = tmp_path / "document"
        path.write_bytes(data)
        try:
            _, identity = _read(str(path), lambda text: None)
        except bellkit.ParseError:
            with pytest.raises(UnicodeDecodeError):
                data.decode("utf-8")
        else:
            assert identity == {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}

    def test_a_build_without_the_built_in_hashes_digests_with_hashlib(self, monkeypatch, tmp_path):
        # None in sys.modules makes an import of that module raise ImportError
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        hashlib_sha256, calls = hashlib.sha256, []

        def counted(*args, **kwargs):
            calls.append(args)
            return hashlib_sha256(*args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counted)
        data = b"scenario 3 2 2\r\n"
        path = tmp_path / "document"
        path.write_bytes(data)
        _, identity = _read(str(path), lambda text: None)
        assert calls == [(data,)]  # the fallback ran, once
        assert identity == {"path": str(path), "sha256": hashlib_sha256(data).hexdigest()}


    def test_a_comment_holding_a_line_separator_stays_one_line(self, capsys, tmp_path):
        # U+2028 ends a line for str.splitlines, not for the text format
        path = tmp_path / "note.bell"
        text = "scenario 3 2 2\n# note: a\u2028b comment\n+1 P(A0 B0 C0 | 0 0 0)\n"
        path.write_bytes((text + "+1 P(A9 B0 C0 | 0 0 0)\n").encode("utf-8"))
        code, out, err = run(capsys, ["bound", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: setting 9 out of range in token 'A9' (line 4, column 6)\n"

    def test_a_form_feed_between_tokens_is_whitespace(self, capsys, tmp_path):
        reports = []
        for name, gap in (("plain.bell", " "), ("feed.bell", " \f")):
            path = tmp_path / name
            path.write_bytes(f"scenario 3 2 2\n+1 P(A0 B0{gap}C0 | 0 0 0)\n".encode("utf-8"))
            reports.append(run_json(capsys, ["bound", str(path)])["local"])
        assert reports[0] == reports[1]
        assert reports[1]["max"]["exact"] == "1"


def test_every_command_runs_without_scipy_or_sympy():
    # numpy is the only dependency: scipy and sympy are installed, and a fresh
    # interpreter that runs every command must still not have loaded them
    source_root = str(Path(bellkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    probe = """
import contextlib, io, sys
from bellkit.cli import run_command
runs = [[command, "--builtin", name] for command in ("bound", "expand", "quantum", "noise",
        "report") for name in ("g-paper", "mermin")]
runs.append(["optimize", "--builtin", "g-paper", "--restarts", "1"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run_command(argv) for argv in runs]
print(codes.count(0), len(codes), sorted({"scipy", "sympy"} & set(sys.modules)))
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "11 11 []\n", result.stderr


class TestErrorPaths:
    def test_a_failure_writes_its_error_line_before_its_warnings(self, capsys, tmp_path):
        path = tmp_path / "dup.bell"
        path.write_text("scenario 2 2 2\n+1 P(A0 B0 | 1 1)\n+2 P(A0 B0 | 1 1)\n")
        code, out, err = run(capsys, ["quantum", str(path)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: expression scenario does not match the measurement model",
            "warning: duplicate term at line 3 merges with line 2",
        ]

    def test_unknown_builtin(self, capsys):
        code, out, err = run(capsys, ["bound", "--builtin", "nope"])
        assert code == 1
        assert "g-paper" in err and "mermin" in err

    def test_unknown_subcommand(self, capsys):
        code, out, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, ["bound", "--builtin", "g-paper", "--bogus"])
        assert code == 1
        assert "usage" in err.lower()
        # a value the subcommand's own parser refuses prints that subcommand's usage
        code, out, err = run(capsys, ["bound", "--builtin", "g-paper", "--format", "xml"])
        assert (code, out) == (1, "")
        assert err.splitlines()[:2] == [
            "error: argument --format: invalid choice: 'xml' (choose from 'json', 'plain')",
            "usage: bellkit bound [-h] [--builtin NAME] [--format {json,plain}]",
        ]

    def test_cap_bounds_the_sweep(self, capsys):
        code, out, err = run(capsys, ["bound", "--builtin", "g-paper", "--cap", "10"])
        assert code == 1
        assert "exceeding the cap of 10" in err
        assert out == ""
        # a cap below 1, or not an integer, is refused by name as the arguments are parsed
        refusals = {"-5": "must be a positive integer, got -5", "abc": "invalid int value: 'abc'"}
        for cap, reason in refusals.items():
            code, out, err = run(capsys, ["bound", "--builtin", "g-paper", "--cap", cap])
            assert (code, out) == (1, "")
            assert err.splitlines()[:2] == [
                f"error: argument --cap: {reason}",
                "usage: bellkit bound [-h] [--builtin NAME] [--format {json,plain}]",
            ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["quantum", "--builtin", "g-paper", "--cap", "10"],
            ["optimize", "--builtin", "g-paper", "--cap", "10"],
            ["expand", "--builtin", "g-paper", "--magnitude"],
            ["expand", "--builtin", "g-paper", "--no-magnitude"],
            ["bound", "--builtin", "g-paper", "--bogus"],
        ],
        ids=["quantum-cap", "optimize-cap", "expand-magnitude", "expand-no-magnitude", "bogus"],
    )
    def test_flags_a_command_ignores_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert f"unrecognized arguments: {argv[3]}" in err
        assert out == ""
        # the usage that follows is the command's own, not the top level's
        assert err.splitlines()[1].startswith(f"usage: bellkit {argv[0]} [-h]")

    def test_missing_expression(self, capsys):
        code, out, err = run(capsys, ["bound"])
        assert code == 1
        assert "--builtin" in err

    def test_both_expression_sources(self, capsys, tmp_path):
        path = tmp_path / "e.bell"
        path.write_text("scenario 3 2 2\n")
        code, out, err = run(capsys, ["bound", str(path), "--builtin", "g-paper"])
        assert code == 1

    def test_missing_file_reports_path(self, capsys):
        code, out, err = run(capsys, ["bound", "/nonexistent/file.bell"])
        assert code == 1
        assert "/nonexistent/file.bell" in err

    def test_parse_error_carries_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.bell"
        path.write_text("scenario 3 2 2\n+1 P(A9 B0 C0 | 0 0 0)\n")
        code, out, err = run(capsys, ["bound", str(path)])
        assert code == 1
        assert "line 2" in err

    def test_zero_denominator_is_a_located_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.bell"
        path.write_text("scenario 3 2 2\n+1/0 P(A0 B0 C0 | 0 0 0)\n")
        code, out, err = run(capsys, ["bound", str(path)])
        assert code == 1
        assert err == "error: coefficient '+1/0' has a zero denominator (line 2, column 1)\n"
        assert out == ""

    def test_no_arguments_prints_usage(self, capsys):
        code, out, err = run(capsys, [])
        assert code == 1
        assert "usage" in err.lower()

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, ["--help"])
        assert code == 0
        assert "bellkit" in out

    @pytest.mark.parametrize(
        "entry,message",
        [
            ('{"bloch": [NaN, 0, 0]}', "'bloch' must be 3 finite numbers"),
            ('{"bloch": null}', "'bloch' must be 3 finite numbers, got None"),
            ('{"angles": [Infinity, 0]}', "'angles' must be 2 finite numbers"),
            pytest.param(
                '{"bloch": [1%s, 0, 0]}' % ("0" * 400),
                "'bloch' must be 3 finite numbers",
                id="bloch-too-large-for-a-float",
            ),
            pytest.param(
                '{"angles": [0, 1%s]}' % ("0" * 400),
                "'angles' must be 2 finite numbers",
                id="angles-too-large-for-a-float",
            ),
            ('{"bloch": [true, false, false]}', "'bloch' must be 3 finite numbers, got [True,"),
            ('{"bloch": ["0", "1", "0"]}', "'bloch' must be 3 finite numbers, got ['0', '1',"),
            ('{"angles": [false, 0]}', "'angles' must be 2 finite numbers, got [False, 0]"),
        ],
    )
    def test_non_finite_or_missing_model_numbers_are_input_errors(
        self, capsys, tmp_path, entry, message
    ):
        path = tmp_path / "model.json"
        path.write_text(
            '{"state": "ghz", "measurements": ['
            + ", ".join(f'[{entry}, {{"bloch": [0, 1, 0]}}]' for _ in range(3))
            + "]}"
        )
        code, out, err = run(capsys, ["quantum", "--builtin", "g-paper", "--model", str(path)])
        assert code == 1
        assert f"party 0 setting 0: {message}" in err
        assert out == ""

    def test_overflowing_amplitude_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        amplitudes = [[1, 0]] + [[0, 0]] * 7
        amplitudes[0][0] = 10**400
        path.write_text(
            json.dumps({"state": {"amplitudes": amplitudes},
                        "measurements": [[{"bloch": [1, 0, 0]}, {"bloch": [0, 1, 0]}]] * 3})
        )
        code, out, err = run(capsys, ["quantum", "--builtin", "g-paper", "--model", str(path)])
        assert code == 1
        assert err.startswith("error: bad amplitude list: ")
        assert out == ""

    def test_amplitudes_must_be_json_numbers(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        amplitudes = [["0.7071067811865476", False]] + [[0, 0]] * 6 + [[0.7071067811865476, 0]]
        path.write_text(
            json.dumps({"state": {"amplitudes": amplitudes},
                        "measurements": [[{"bloch": [1, 0, 0]}, {"bloch": [0, 1, 0]}]] * 3})
        )
        code, out, err = run(capsys, ["quantum", "--builtin", "g-paper", "--model", str(path)])
        assert (code, out) == (1, "")
        assert err == (
            "error: bad amplitude list: expected a list of numbers, "
            "got ['0.7071067811865476', False]\n"
        )

    @pytest.mark.parametrize(
        "change,message",
        [
            (
                {"state": "amplitudes"},
                "'state' must be \"ghz\" or {'amplitudes': [[re, im], ...]}",
            ),
            ({"state": {}}, "'state' must be \"ghz\" or {'amplitudes': [[re, im], ...]}"),
            (
                {"measurements": {"0": [{"bloch": [1, 0, 0]}]}},
                "'measurements' must be a non-empty list of per-party lists",
            ),
            (
                {"measurements": [{"bloch": [1, 0, 0]}] + [[{"bloch": [1, 0, 0]}]] * 2},
                "party 0: expected a non-empty list of settings",
            ),
            (
                {"measurements": [[["bloch"]]] * 3},
                "party 0 setting 0: expected {'bloch': [x, y, z]} or {'angles': [theta, phi]}",
            ),
            (
                {"state": {"amplitudes": [""] + [[0, 0]] * 6 + [[1, 0]]}},
                "bad amplitude list: expected a list of numbers, got ''",
            ),
        ],
        ids=[
            "state-string",
            "state-empty",
            "measurements-object",
            "row-object",
            "setting-list",
            "pair-string",
        ],
    )
    def test_a_model_document_of_the_wrong_shape_is_an_input_error(
        self, capsys, tmp_path, change, message
    ):
        document = {"state": "ghz", "measurements": [[{"bloch": [1, 0, 0]}]] * 3}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**document, **change}))
        code, out, err = run(capsys, ["quantum", "--builtin", "g-paper", "--model", str(path)])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["--model", "--state"])
    @pytest.mark.parametrize(
        "add,message",
        [
            (lambda document: document.update(noise=0.3),
             "model document has an unknown key 'noise'; it takes 'state', 'measurements'"),
            (lambda document: document["state"].update(mixing=0.5),
             "'state' has an unknown key 'mixing'; it takes 'amplitudes'"),
        ],
        ids=["top-level", "state"],
    )
    def test_an_unknown_model_key_is_an_input_error_naming_it(
        self, capsys, tmp_path, flag, add, message
    ):
        # GHZ_3 under X/Y: were the key skipped, the value would read 3.5
        document = {
            "state": {"amplitudes": [[2**-0.5, 0]] + [[0, 0]] * 6 + [[2**-0.5, 0]]},
            "measurements": [[{"bloch": [1, 0, 0]}, {"bloch": [0, 1, 0]}]] * 3,
        }
        add(document)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        command = "quantum" if flag == "--model" else "optimize"
        code, out, err = run(capsys, [command, "--builtin", "g-paper", flag, str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--model", "--state"])
    @pytest.mark.parametrize(
        "key,template",
        [
            ("measurements", '{{"state": {ghz}, "measurements": {xy}, "measurements": {zz}}}'),
            ("state", '{{"state": "ghz", "state": {ghz}, "measurements": {xy}}}'),
            ("amplitudes", '{{"state": {{"amplitudes": {up}, "amplitudes": {amplitudes}}}, '
                           '"measurements": {xy}}}'),
            ("bloch", '{{"state": {ghz}, "measurements": '
                      '[[{{"bloch": [1, 0, 0], "bloch": [0, 0, 1]}}, {{"bloch": [0, 1, 0]}}], '
                      '[{{"bloch": [1, 0, 0]}}, {{"bloch": [0, 1, 0]}}], '
                      '[{{"bloch": [1, 0, 0]}}, {{"bloch": [0, 1, 0]}}]]}}'),
        ],
        ids=["measurements", "state", "amplitudes", "bloch"],
    )
    def test_a_repeated_model_key_is_an_input_error_naming_it(
        self, capsys, tmp_path, flag, key, template
    ):
        # JSON keeps a repeated key's last value: X/Y then Z/Z would read -1.5, not 3.5
        amplitudes = [[2**-0.5, 0]] + [[0, 0]] * 6 + [[2**-0.5, 0]]
        pieces = {
            "amplitudes": json.dumps(amplitudes),
            "up": json.dumps([[1, 0]] + [[0, 0]] * 7),
            "ghz": json.dumps({"amplitudes": amplitudes}),
            "xy": json.dumps([[{"bloch": [1, 0, 0]}, {"bloch": [0, 1, 0]}]] * 3),
            "zz": json.dumps([[{"bloch": [0, 0, 1]}, {"bloch": [0, 0, 1]}]] * 3),
        }
        path = tmp_path / "model.json"
        path.write_text(template.format(**pieces))
        command = "quantum" if flag == "--model" else "optimize"
        code, out, err = run(capsys, [command, "--builtin", "g-paper", flag, str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: model document repeats the key {key!r}\n"

    @pytest.mark.parametrize("flag", ["--model", "--state"])
    def test_a_deeply_nested_model_document_is_an_input_error(self, capsys, tmp_path, flag):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        command = "quantum" if flag == "--model" else "optimize"
        code, out, err = run(capsys, [command, "--builtin", "g-paper", flag, str(path)])
        assert (code, out) == (1, "")
        assert err == "error: model document is nested too deeply\n"

    @pytest.mark.parametrize("flag", ["--model", "--state"])
    def test_a_one_party_ghz_model_is_an_input_error(self, capsys, tmp_path, flag):
        path = tmp_path / "one.json"
        path.write_text('{"state": "ghz", "measurements": [[{"bloch": [1, 0, 0]}]]}')
        command = "quantum" if flag == "--model" else "optimize"
        code, out, err = run(capsys, [command, "--builtin", "g-paper", flag, str(path)])
        assert (code, out) == (1, "")
        assert err == "error: a GHZ state needs at least two parties\n"

    @pytest.mark.parametrize(
        "text,location",
        [
            ("scenario 3 {} 2\n", "line 1, column 12"),
            ("scenario 3 2 2\n+{} P(A0 B0 C0 | 0 0 0)\n", "line 2, column 1"),
            ("scenario 3 2 2\n+1/{} P(A0 B0 C0 | 0 0 0)\n", "line 2, column 4"),
            ("scenario 3 2 2\n+1 E(A0 B{} C0)\n", "line 2, column 10"),
            ("scenario 3 2 2\n+1 P(A0 B0 C0 | 0 0 {})\n", "line 2, column 21"),
        ],
        ids=["header-count", "numerator", "denominator", "setting", "outcome"],
    )
    def test_numbers_past_the_digit_limit_are_located(self, capsys, tmp_path, text, location):
        path = tmp_path / "long.bell"
        path.write_text(text.format("1" * 5000))
        code, out, err = run(capsys, ["bound", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: number too long: 5000 digits, more than 4300 ({location})\n"

    @pytest.mark.parametrize("command", ["bound", "expand"])
    @pytest.mark.parametrize(
        "header,kind",
        [("scenario 3 {} 2\n", "settings"), ("scenario 3 2 {}\n", "outcome")],
        ids=["settings", "outcomes"],
    )
    def test_a_count_past_the_index_size_is_located(self, capsys, tmp_path, header, kind, command):
        path = tmp_path / "huge.bell"
        path.write_text(header.format(10**20 - 1))
        code, out, err = run(capsys, [command, str(path)])
        assert (code, out) == (1, "")
        assert err == (
            f"error: {kind} count {10**20 - 1} is past the index size {sys.maxsize} "
            "(line 1, column 1)\n"
        )

    def test_an_exact_value_past_the_digit_limit_names_its_field(self, capsys, tmp_path):
        # each denominator has 2200 digits; the bound's common one about 4400
        path = tmp_path / "long.bell"
        path.write_text(
            "scenario 3 2 2\n"
            f"+1/{10**2199 + 7} P(A0 B0 C0 | 0 0 0)\n"
            f"+1/{10**2199 + 9} P(A1 B0 C0 | 0 0 0)\n"
        )
        code, out, err = run(capsys, ["bound", str(path)])
        assert (code, out) == (1, "")
        assert err == (
            "error: report field 'max' holds an exact value with more than 4300 digits, "
            "past the limit for writing an integer\n"
        )

    def test_a_model_number_past_the_digit_limit_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"state": "ghz", "measurements": [[{"bloch": [1%s, 0, 0]}]]}' % ("0" * 5000))
        code, out, err = run(capsys, ["quantum", "--builtin", "g-paper", "--model", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: model document holds a number too long: more than 4300 digits\n"

    def test_oversized_probability_table_is_an_input_error(self, capsys, tmp_path):
        expr_path = tmp_path / "wide.bell"
        expr_path.write_text("scenario 10 3 2\n+1 E(A0 B0 C0 D0 E0 F0 G0 H0 I0 J0)\n")
        xyz = '[{"bloch": [1, 0, 0]}, {"bloch": [0, 1, 0]}, {"bloch": [0, 0, 1]}]'
        model_path = tmp_path / "wide.json"
        model_path.write_text(f'{{"state": "ghz", "measurements": [{", ".join([xyz] * 10)}]}}')
        code, out, err = run(capsys, ["quantum", str(expr_path), "--model", str(model_path)])
        assert code == 1
        assert "60466176 complex entries (923 MiB)" in err

    @pytest.mark.parametrize(
        "text",
        [
            "scenario 1 2 12\n+1 P(A0 | 11)\n-1 P(A1 | 3)\n",
            # every extremizer has single-digit labels: the scenario decides
            "scenario 1 1 12\n+1 P(A0 | 3)\n-1 P(A0 | 4)\n",
            # 11^6 strategies, under the cap: refused before the sweep or the grid
            "scenario 3 2 11\n+1 P(A0 B0 C0 | 0 0 0)\n",
        ],
    )
    def test_two_digit_outcome_labels_have_no_assignment_key(
        self, capsys, tmp_path, text, call_counts
    ):
        path = tmp_path / "twelve.bell"
        path.write_text(text)
        for command in ("bound", "expand"):
            code, out, err = run(capsys, [command, str(path)])
            assert code == 1, command
            assert err == "error: assignment digit keys need outcome labels 0-9\n"
            assert out == ""
        assert call_counts["evaluate_on_strategy"] == call_counts["expand_full_joint"] == 0

    def test_single_digit_labels_keep_their_keys(self, capsys, tmp_path):
        path = tmp_path / "ten.bell"
        path.write_text("scenario 1 2 10\n+1 P(A0 | 9)\n-1 P(A1 | 3)\n")
        report = run_json(capsys, ["bound", str(path)])
        maximizers = ["90", "91", "92", "94", "95", "96", "97", "98", "99"]
        assert report["local"]["maximizers"] == maximizers

    @pytest.mark.parametrize("command", ["bound", "expand", "quantum", "noise", "report"])
    def test_outsized_coefficients_are_located_input_errors(self, capsys, tmp_path, command):
        path = tmp_path / "huge.bell"
        path.write_text("scenario 3 2 2\n+1" + "0" * 400 + " P(A0 B0 C0 | 0 0 0)\n")
        code, out, err = run(capsys, [command, str(path)])
        assert code == 1
        assert err == (
            "error: term coefficient magnitudes sum past the largest float (line 2, column 1)\n"
        )

    def test_coefficient_magnitudes_are_summed(self, capsys, tmp_path):
        path = tmp_path / "two.bell"
        big = "+1" + "0" * 308
        path.write_text(
            f"scenario 3 2 2\n{big} P(A0 B0 C0 | 0 0 0)\n{big} P(A0 B0 C0 | 0 0 1)\n"
        )
        code, out, err = run(capsys, ["bound", str(path)])
        assert code == 1
        assert "(line 3, column 1)" in err

    def test_expansion_sum_beyond_the_float_range(self, capsys, tmp_path):
        # one coefficient of 10^308 fills 8 assignments; their sum has no float
        path = tmp_path / "wide.bell"
        path.write_text("scenario 3 2 2\n+1" + "0" * 308 + " P(A0 B0 C0 | 0 0 0)\n")
        assert run(capsys, ["bound", str(path)])[0] == 0
        for command in ("expand", "report"):
            code, out, err = run(capsys, [command, str(path)])
            assert code == 1
            assert err == (
                "error: report field 'coefficient_sum' holds an exact value past the "
                "largest float\n"
            )

    def test_more_than_26_parties_is_refused_at_the_header(self, capsys, tmp_path):
        path = tmp_path / "crowd.bell"
        path.write_text("scenario 1000000 2 2\n")
        code, out, err = run(capsys, ["bound", str(path)])
        assert code == 1
        assert err == "error: the text format supports at most 26 parties (line 1, column 1)\n"

    @pytest.mark.parametrize(
        "header", ["scenario 3 100000 2", "scenario 26 1000000 2", "scenario 3 3000000 2"]
    )
    def test_huge_strategy_space_fails_fast(self, capsys, tmp_path, header):
        path = tmp_path / "wide.bell"
        path.write_text(header + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["bound", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err == (
            "error: strategy space has too many elements to count, "
            "exceeding the cap of 10000000\n"
        )

    def test_a_huge_header_against_a_fixture_fails_fast(self, capsys, tmp_path):
        # the mismatch error names both scenarios without a pass over 26 * 10^6 counts
        path = tmp_path / "wide.bell"
        path.write_text("scenario 26 1000000 2\n")
        fixture = str(g_paper_expansion_fixture_path())
        start = time.perf_counter()
        code, out, err = run(capsys, ["expand", str(path), "--diff", fixture])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            "error: expansions cover different scenarios: scenario 26 1000000 2 computed, "
            f"scenario 3 2 2 in {fixture}\n"
        )

    @pytest.mark.parametrize("command", ["bound", "expand", "noise", "report", "optimize"])
    def test_a_26_party_correlator_is_refused_before_it_is_expanded(
        self, capsys, tmp_path, command
    ):
        # one correlator is 2^26 probability terms, and its GHZ state 2^26 amplitudes
        path = tmp_path / "crowd.bell"
        tokens = " ".join(f"{chr(ord('A') + p)}0" for p in range(26))
        path.write_text(f"scenario 26 1 2\n+1 E({tokens})\n")
        start = time.perf_counter()
        code, out, err = run(capsys, [command, str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        cap = "strategy space has 67108864 elements, exceeding the cap of 10000000"
        mismatch = "expression scenario does not match the measurement model"
        size = "state spans 26 qubits; dense algebra is capped at 10"
        expected = {"bound": cap, "expand": cap, "optimize": size}.get(command, mismatch)
        assert err == f"error: {expected}\n"


_COEFFICIENTS = st.sampled_from(
    ["1", "-1", "+2", "3/4", "-5/2", "0"] * 3 + ["1/0", "-7/0", "x", "1e3", "2/3/4", "9" * 400, ""]
)
_PARTY_TOKENS = st.sampled_from(["A0", "A1", "B0", "B1", "C2", "B", "Z0", "a0", "A-1", "AA0"])
_OUTCOME_TOKENS = st.sampled_from(["0", "1", "2", "3", "x", "-1", "|"])
_NUMBERS = st.one_of(
    st.floats(width=64), st.integers(-2, 2), st.none(), st.just("x"), st.just([1])
)


@st.composite
def _text_documents(draw):
    """A header, then P/E/L lines and bad lines, valid and not; at most 729
    strategies unless the header is one of the oversized ones."""
    parties, settings, outcomes = draw(st.tuples(*map(st.integers, (1, 1, 2), (3, 2, 3))))
    header = f"scenario {parties} {settings} {outcomes}"
    bad_headers = ["scenario 0 2 2", "scenario 2 0 2", "scenario 2 2 1", "scenario 27 1 2"]
    bad_headers += ["scenario 2 2", "scenario 2 40 2", ""]
    lines = [draw(st.sampled_from([header] * 12 + bad_headers))]
    letters = [chr(ord("A") + p) for p in range(parties)]
    valid_settings = st.lists(st.integers(0, settings - 1), min_size=parties, max_size=parties)
    valid_outcomes = st.lists(st.integers(0, outcomes - 1), min_size=parties, max_size=parties)
    slots = parties * settings
    valid_digits = st.lists(st.sampled_from("012"[:outcomes]), min_size=slots, max_size=slots)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from("PPEELX"))
        if kind == "X":
            lines.append(draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)))
            continue
        if draw(st.integers(0, 3)):  # mostly well-formed keys
            tokens = " ".join(map("{}{}".format, letters, draw(valid_settings)))
            labels = " ".join(map(str, draw(valid_outcomes)))
            digits = "".join(draw(valid_digits))
        else:
            tokens = " ".join(draw(st.lists(_PARTY_TOKENS, max_size=4)))
            labels = " ".join(draw(st.lists(_OUTCOME_TOKENS, max_size=4)))
            digits = draw(st.text("0123x", max_size=7))
        body = {"P": f"{tokens} | {labels}", "E": tokens, "L": digits}[kind]
        comment = draw(st.sampled_from(["", "  # note"]))
        lines.append(f"{draw(_COEFFICIENTS)} {kind}({body}){comment}")
    return "\n".join(lines) + "\n"


@st.composite
def _model_documents(draw):
    """JSON model documents: valid angles and GHZ amplitudes among NaN, null,
    wrong counts and empty lists."""
    parties = draw(st.sampled_from([0, 1, 2, 3, 3, 3]))
    settings = draw(st.sampled_from([0, 1, 2, 2, 2]))
    finite = st.floats(-10, 10)
    angles = st.builds(lambda t, f: {"angles": [t, f]}, finite, finite)
    measurement = st.one_of(
        *[angles] * 3,  # mostly valid
        st.lists(_NUMBERS, max_size=4).map(lambda v: {"bloch": v}),
        st.lists(_NUMBERS, max_size=3).map(lambda v: {"angles": v}),
        st.sampled_from([{}, {"bloch": [0, 0, 1], "angles": [0, 0]}, {"spin": [0, 0, 1]}]),
    )
    ghz = [[0.5**0.5, 0]] + [[0, 0]] * (2**parties - 2) + [[0.5**0.5, 0]]
    state = draw(
        st.one_of(
            st.just("ghz"),
            st.just("ghz"),
            st.just({"amplitudes": ghz}),
            st.lists(st.lists(_NUMBERS, max_size=3), max_size=9).map(lambda a: {"amplitudes": a}),
            st.sampled_from(["w", None, [], {}]),
        )
    )
    rows = st.lists(measurement, min_size=settings, max_size=settings)
    document = {
        "state": state,
        "measurements": draw(st.lists(rows, min_size=parties, max_size=parties)),
    }
    for key in draw(st.lists(st.sampled_from(["state", "measurements"]), max_size=1)):
        del document[key]
    return json.dumps(document, indent=draw(st.sampled_from([None, 1]))) + "\n"


@st.composite
def _document_bytes(draw, text):
    """``text`` as UTF-8 with LF line ends, mostly; else with CRLF line ends,
    with a stray 0xff byte, or, for a model, as an array nested 10^5 deep."""
    data = text.encode("utf-8")
    variant = draw(st.sampled_from(["lf"] * 5 + ["crlf", "0xff", "deep"]))
    if variant == "crlf":
        return data.replace(b"\n", b"\r\n")
    if variant == "0xff":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:]
    if variant == "deep" and text.startswith("{"):
        return b"[" * 10**5 + b"]" * 10**5
    return data


def _digests_match_the_files(lines):
    """Whether every ``sha256`` and ``fixture_sha256`` in a report's plain
    ``key = value`` lines is the digest of the bytes of the file named beside it."""
    values = dict(line.split(" = ", 1) for line in lines)
    for key, value in values.items():
        if key.endswith(".sha256"):
            named = key.removesuffix("sha256") + "path"
        elif key.endswith("_sha256"):
            named = key.removesuffix("_sha256")
        else:
            continue
        path = Path(json.loads(values[named]))
        if json.loads(value) != hashlib.sha256(path.read_bytes()).hexdigest():
            return False
    return True


_ERROR = re.compile(r"error: ")  # the first stderr line, before any warning


class TestFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_input_exits_0_or_1(self, tmp_path, data):
        # run_command in-process on generated documents and flags: exit 2 means
        # an input reached an internal failure instead of a clear message
        draw = data.draw
        commands = ["bound", "expand", "quantum", "noise", "report", "optimize"]
        command = draw(st.sampled_from(commands))
        expression = tmp_path / "expr.bell"
        expression.write_bytes(draw(_document_bytes(draw(_text_documents()))))
        model = tmp_path / "model.json"
        model.write_bytes(draw(_document_bytes(draw(_model_documents()))))
        source = draw(
            st.sampled_from(
                [[str(expression)]] * 8
                + [["--builtin", "g-paper"], ["--builtin", "mermin"], ["--builtin", "nope"]]
                + [[str(expression), "--builtin", "mermin"], [], [str(tmp_path / "absent")]]
            )
        )
        argv = [command, *source]
        flags = {
            "--format": "plain",
            "--magnitude": None,
            "--no-magnitude": None,
            "--cap": str(draw(st.sampled_from([-1, 0, 10, 64, 729]))),
            "--diff": str(draw(st.sampled_from([expression, tmp_path / "absent"]))),
            "--model": str(draw(st.sampled_from([model, model, "paper"]))),
            "--state": str(draw(st.sampled_from([model, "ghz"]))),
            "--restarts": str(draw(st.integers(-1, 2))),
            "--seed": str(draw(st.integers(0, 3))),
        }
        read = {  # the flags each command reads; any other is a usage error
            "bound": ["--magnitude", "--no-magnitude", "--cap"],
            "expand": ["--cap", "--diff"],
            "quantum": ["--magnitude", "--no-magnitude", "--model"],
            "noise": ["--magnitude", "--no-magnitude", "--cap", "--model"],
            "report": ["--magnitude", "--no-magnitude", "--cap", "--model", "--diff"],
            "optimize": ["--magnitude", "--no-magnitude", "--state", "--restarts", "--seed"],
        }[command] + ["--format"]
        chosen = draw(st.lists(st.sampled_from(read), max_size=4, unique=True))
        if draw(st.integers(0, 9)) == 0:
            chosen.append(draw(st.sampled_from(sorted(flags))))
        for flag in chosen:
            argv += [flag] if flags[flag] is None else [flag, flags[flag]]
        if command == "optimize":
            argv += ["--max-evals", str(draw(st.integers(1, 80)))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
        assert code in (0, 1), (argv, err.getvalue())
        if code == 1:
            assert out.getvalue() == "", argv
            assert _ERROR.match(err.getvalue()), (argv, err.getvalue())
        else:
            lines = out.getvalue().splitlines()
            if "plain" not in argv:
                lines = []
                _plain_lines(json.loads(out.getvalue()), "", lines)
            assert _digests_match_the_files(lines), argv
