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

    def test_json_file_output(self, tmp_path, capsys):
        out = tmp_path / "rule.json"
        code = run_cli([
            "solve", "--task", "unbiased", "--costs", "1,10,11",
            "--budget", "3", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert np.allclose(payload["A"], [1 / 3, 1 / 12, 1 / 12])

    def test_ci_csv_output_has_ignore_column(self, tmp_path, capsys):
        out = tmp_path / "rule.csv"
        args = ["solve", "--task", "ci", "--costs", "1,1,100,100", "--budget", "2", "--gamma", "0.1"]
        assert run_cli(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert run_cli(args + ["--out", str(out)]) == 0
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        assert header == "cost,A,P,U"
        assert [float(row.split(",")[3]) for row in rows] == payload["U"]
        # an ignored agent is never offered a price: its P cell is empty
        for row, u in zip(rows, payload["U"]):
            assert (row.split(",")[2] == "") == (u >= 0.5)

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

    def test_seed_and_threads_defaults(self, tmp_path):
        # no --seed/--threads means seed 0 on one worker
        args = [
            "simulate", "--task", "unbiased", "--costs", "1,1,2,2,3",
            "--budget", "10", "--runs", "40",
        ]
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--seed", "0", "--threads", "1", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# (args, option): a flag value its command rejects; a one-line usage error
# naming the option, not argparse's usage block or a traceback.
MALFORMED_FLAGS = [
    (["simulate", "--task", "unbiased", "--costs", "1,2", "--budget", "1", "--runs", "2.5"],
     "runs"),
    (["solve", "--task", "unbiased", "--costs", "1,2", "--budget", "abc"], "budget"),
    (["simulate", "--task", "foo", "--costs", "1,2", "--budget", "1", "--runs", "2"], "task"),
    (["audit", "--suite", "oracle", "--trials", "x"], "trials"),
    (["audit", "--suite", "oracle", "--trials", "2", "--seed", "-1"], "seed"),
    # gamma is the CI task's confidence level; the unbiased task takes none
    (["simulate", "--task", "unbiased", "--costs", "1,2", "--budget", "1", "--runs", "2",
      "--gamma", "0.9"], "gamma"),
    # the library names the worker count ``workers``
    (["simulate", "--task", "unbiased", "--costs", "1,2", "--budget", "1", "--runs", "2",
      "--threads", "0"], "workers"),
]


@pytest.mark.parametrize("args, option", MALFORMED_FLAGS,
                         ids=[f"{args[0]}-{option}" for args, option in MALFORMED_FLAGS])
def test_malformed_flag_value_is_a_one_line_usage_error(
        args, option, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a simulate that ran would write its report
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert option in captured.err
    assert "PASS" not in captured.out


# {id: (command, config, key)}: a config value that its command's converter
# (or, for the population seed, numpy) rejects; each must be a usage error
# that names its key.
_SIMULATE = {"task": "unbiased", "costs": [1, 2, 3], "budget": 5, "runs": 3}
_DRAWN = {"task": "unbiased", "population": {"kind": "independent"}, "n": 10,
          "cap": 5.0, "budget": 5, "runs": 3}
MALFORMED_CONFIGS = {
    "simulate-budget": ("simulate", {**_SIMULATE, "budget": "abc"}, "budget"),
    "simulate-runs": ("simulate", {**_SIMULATE, "runs": "x"}, "runs"),
    "simulate-gamma": ("simulate", {**_SIMULATE, "task": "ci", "gamma": "0.9x"}, "gamma"),
    "simulate-threads": ("simulate", {**_SIMULATE, "threads": "two"}, "threads"),
    "simulate-costs": ("simulate", {**_SIMULATE, "costs": [1, 2, "q"]}, "costs"),
    "simulate-data": ("simulate", {**_SIMULATE, "data": "x"}, "data"),
    "simulate-n": ("simulate", {**_DRAWN, "n": "ten"}, "n"),
    "simulate-out": ("simulate", {**_SIMULATE, "out": 5}, "out"),
    "audit-trials": ("audit", {"suite": "oracle", "trials": "many"}, "trials"),
    "solve-budget": ("solve", {"task": "unbiased", "costs": [1, 2, 3], "budget": "abc"}, "budget"),
    # a fraction or a boolean is not a whole number, and a boolean is not a real
    "simulate-runs-fraction": ("simulate", {**_SIMULATE, "runs": 2.7}, "runs"),
    "simulate-runs-bool": ("simulate", {**_SIMULATE, "runs": True}, "runs"),
    "simulate-seed-fraction": ("simulate", {**_SIMULATE, "seed": 3.9}, "seed"),
    "simulate-budget-bool": ("simulate", {**_SIMULATE, "budget": True}, "budget"),
    "simulate-n-bool": ("simulate", {**_DRAWN, "n": True}, "n"),
    "simulate-pop_seed-fraction": ("simulate", {**_DRAWN, "pop_seed": 2.5}, "pop_seed"),
    "simulate-pop_seed-negative": ("simulate", {**_DRAWN, "pop_seed": -1}, "population seed"),
    "audit-trials-fraction": ("audit", {"suite": "oracle", "trials": 2.5}, "trials"),
    "simulate-task": ("simulate", {**_SIMULATE, "task": "foo"}, "task"),
}


@pytest.mark.parametrize(
    "command, config, key", list(MALFORMED_CONFIGS.values()), ids=list(MALFORMED_CONFIGS))
def test_malformed_config_value_is_a_usage_error(
        command, config, key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a simulate that ran would write its report
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli([command, "--config", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"invalid {key} " in captured.err
    assert "PASS" not in captured.out


# {id: (command, config, key)}: a config key that its command does not read
UNKNOWN_CONFIG_KEYS = {
    "simulate-sed": ("simulate", {**_SIMULATE, "sed": 7}, "sed"),
    "solve-runs": ("solve", {"task": "unbiased", "costs": [1, 2, 3], "budget": 5, "runs": 3}, "runs"),
    "audit-budget": ("audit", {"suite": "oracle", "trials": 2, "budget": 5}, "budget"),
}


@pytest.mark.parametrize(
    "command, config, key", list(UNKNOWN_CONFIG_KEYS.values()), ids=list(UNKNOWN_CONFIG_KEYS))
def test_unknown_config_key_is_a_usage_error(command, config, key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a simulate that ran would write its report
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown config key {key!r}\n"
    assert captured.out == ""


# (population spec, law, field): a descriptor field that is missing or not a
# number; each must be a usage error naming the law and the field.
MALFORMED_DESCRIPTORS = [
    ({"kind": "worst_case", "cost_law": {"dist": "uniform", "low": "abc"}}, "uniform", "low"),
    ({"kind": "worst_case", "cost_law": {"dist": "uniform", "high": [2]}}, "uniform", "high"),
    ({"kind": "worst_case", "cost_law": {"dist": "constant"}}, "constant", "value"),
    ({"kind": "worst_case", "cost_law": {"dist": "constant", "value": "x"}}, "constant", "value"),
    ({"kind": "worst_case", "cost_law": {"dist": "choice"}}, "choice", "values"),
    ({"kind": "worst_case", "cost_law": {"dist": "choice", "values": [1, "q"]}}, "choice", "values"),
    ({"kind": "worst_case", "cost_law": {"dist": "choice", "values": "1"}}, "choice", "values"),
    ({"kind": "worst_case", "cost_law": {"dist": "choice", "values": [1, 2], "probs": ["a", "b"]}},
     "choice", "probs"),
    ({"kind": "two_point", "fractions": [0.5, 0.5], "costs": [1, 2], "data": ["x", 1]},
     "two_point", "data"),
    ({"kind": "worst_case", "cost_law": {"dist": "uniform", "low": True}}, "uniform", "low"),
]


@pytest.mark.parametrize(
    "spec, law, field", MALFORMED_DESCRIPTORS,
    ids=[f"{law}-{field}-{i}" for i, (_, law, field) in enumerate(MALFORMED_DESCRIPTORS)],
)
def test_malformed_population_descriptor_is_a_usage_error(
        spec, law, field, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a simulate that ran would write its report
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": "unbiased", "population": spec, "n": 10, "cap": 5.0,
                                "budget": 5, "runs": 3}), encoding="utf-8")
    code = run_cli(["simulate", "--config", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert law in captured.err and field in captured.err
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
