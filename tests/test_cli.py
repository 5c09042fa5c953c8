import json

import numpy as np
import pytest

from surveymech.cli import main


def run_cli(args):
    return main(args)


class TestSolve:
    def test_unbiased_inline(self, capsys):
        code = run_cli(["solve", "--task", "unbiased", "--costs", "1,10,11", "--budget", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["A"], [1 / 3, 1 / 12, 1 / 12])
        assert payload["lambda"] == pytest.approx(1 / 3)

    def test_ci_inline(self, capsys):
        code = run_cli([
            "solve", "--task", "ci", "--costs", "1,1,100,100",
            "--budget", "2", "--gamma", "0.1",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"A", "U", "P", "lambda", "H", "M", "objective"}

    def test_empty_costs_usage_error(self, capsys):
        code = run_cli(["solve", "--task", "unbiased", "--costs", "", "--budget", "3"])
        assert code == 2

    def test_negative_budget_usage_error(self):
        code = run_cli(["solve", "--task", "unbiased", "--costs", "1,2", "--budget", "-1"])
        assert code == 2

    def test_missing_budget_usage_error(self):
        code = run_cli(["solve", "--task", "unbiased", "--costs", "1,2"])
        assert code == 2

    def test_costs_file(self, tmp_path, capsys):
        path = tmp_path / "costs.csv"
        path.write_text("cost\n1\n10\n11\n", encoding="utf-8")
        code = run_cli([
            "solve", "--task", "unbiased", "--costs-file", str(path), "--budget", "3",
        ])
        assert code == 0

    def test_bad_costs_file_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1\nfoo\n", encoding="utf-8")
        code = run_cli([
            "solve", "--task", "unbiased", "--costs-file", str(path), "--budget", "3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv:2" in err

    def test_csv_output(self, tmp_path):
        out = tmp_path / "rule.csv"
        code = run_cli([
            "solve", "--task", "unbiased", "--costs", "1,10,11",
            "--budget", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cost,A,P"
        assert len(lines) == 4

    def test_config_overrides_flags(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"budget": 3.0}), encoding="utf-8")
        code = run_cli([
            "solve", "--task", "unbiased", "--costs", "1,10,11",
            "--budget", "999", "--config", str(config),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget"] == 3.0


class TestSimulate:
    def test_inline_population(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_cli([
            "simulate", "--task", "unbiased", "--costs", "1,1,2,2,3",
            "--budget", "10", "--runs", "50", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))
        assert report["runs"] == 50
        assert (tmp_path / "rep.csv").exists()

    def test_config_population(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "task": "ci",
            "population": {"kind": "two_point", "fractions": [0.8, 0.2], "costs": [1, 5]},
            "n": 20, "cap": 6.0, "budget": 30.0, "gamma": 0.9,
            "runs": 20, "seed": 1, "out": str(tmp_path / "ci_rep"),
        }), encoding="utf-8")
        code = run_cli(["simulate", "--config", str(config)])
        assert code == 0
        report = json.loads((tmp_path / "ci_rep.json").read_text(encoding="utf-8"))
        assert report["task"] == "ci"
        assert report["ci_coverage"] is not None

    def test_costs_file_population(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("1\n1\n2\n2\n3\n", encoding="utf-8")
        code = run_cli([
            "simulate", "--task", "unbiased", "--costs-file", str(path),
            "--budget", "8", "--runs", "10", "--out", str(tmp_path / "rep"),
        ])
        assert code == 0

    def test_zero_runs_usage_error(self):
        code = run_cli([
            "simulate", "--task", "unbiased", "--costs", "1,2",
            "--budget", "5", "--runs", "0",
        ])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--costs", "1,nan,2"],
        ["--costs", "1,2,3", "--cap", "inf"],
    ], ids=["nan_cost", "infinite_cap"])
    def test_non_finite_population_usage_error(self, flags, tmp_path, capsys):
        code = run_cli([
            "simulate", "--task", "unbiased", *flags, "--budget", "3", "--runs", "3",
            "--out", str(tmp_path / "rep"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_determinism_across_threads(self, tmp_path):
        args = [
            "simulate", "--task", "unbiased", "--costs", "1,1,2,2,3",
            "--budget", "10", "--runs", "40", "--seed", "7",
        ]
        code = run_cli(args + ["--threads", "1", "--out", str(tmp_path / "a")])
        assert code == 0
        code = run_cli(args + ["--threads", "8", "--out", str(tmp_path / "b")])
        assert code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# (command, config, key): a config value argparse never sees and that the
# command cannot convert; each must be a usage error that names its key.
_SIMULATE = {"task": "unbiased", "costs": [1, 2, 3], "budget": 5, "runs": 3}
MALFORMED_CONFIGS = [
    ("simulate", {**_SIMULATE, "budget": "abc"}, "budget"),
    ("simulate", {**_SIMULATE, "runs": "x"}, "runs"),
    ("simulate", {**_SIMULATE, "task": "ci", "gamma": "0.9x"}, "gamma"),
    ("simulate", {**_SIMULATE, "threads": "two"}, "threads"),
    ("simulate", {**_SIMULATE, "costs": [1, 2, "q"]}, "costs"),
    ("simulate", {**_SIMULATE, "data": "x"}, "data"),
    ("simulate", {"task": "unbiased", "population": {"kind": "independent"}, "n": "ten",
                  "cap": 5.0, "budget": 5, "runs": 3}, "n"),
    ("simulate", {**_SIMULATE, "out": 5}, "out"),
    ("audit", {"suite": "oracle", "trials": "many"}, "trials"),
    ("solve", {"task": "unbiased", "costs": [1, 2, 3], "budget": "abc"}, "budget"),
]


@pytest.mark.parametrize(
    "command, config, key", MALFORMED_CONFIGS,
    ids=[f"{command}-{key}" for command, _, key in MALFORMED_CONFIGS],
)
def test_malformed_config_value_is_a_usage_error(
        command, config, key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a simulate that ran would write its report
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli([command, "--config", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert key in captured.err
    assert "PASS" not in captured.out


class TestAudit:
    def test_oracle_suite_at_its_default_trials(self, capsys):
        # ``audit --suite X`` without ``--trials`` runs the suite's own default
        code = run_cli(["audit", "--suite", "oracle"])
        assert code == 0
        assert capsys.readouterr().out.startswith("PASS oracle: trials=100 ")

    def test_ironing_suite_passes(self, capsys):
        code = run_cli(["audit", "--suite", "ironing", "--trials", "50", "--seed", "2"])
        assert code == 0
        assert "PASS ironing" in capsys.readouterr().out

    def test_unknown_suite_usage_error(self):
        code = run_cli(["audit", "--suite", "foo"])
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_usage_error(self, trials, capsys):
        code = run_cli(["audit", "--suite", "oracle", "--trials", trials])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "PASS" not in captured.out

    def test_truthfulness_suite(self, capsys):
        code = run_cli(["audit", "--suite", "truthfulness", "--trials", "20"])
        assert code == 0

    def test_convexity_suite(self, capsys):
        code = run_cli(["audit", "--suite", "convexity", "--trials", "10"])
        assert code == 0

    def test_adjacency_detail_plain_floats(self, capsys):
        from surveymech.audits import audit_adjacency

        outcome = audit_adjacency(trials=50, seed=0)
        assert outcome.detail["rule_vs_double_singleton"] > 0
        assert all(type(v) is float for v in outcome.detail.values())
        code = run_cli(["audit", "--suite", "adjacency", "--trials", "50"])
        assert code == 0
        assert "np.float64(" not in capsys.readouterr().out
