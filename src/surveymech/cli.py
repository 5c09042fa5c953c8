"""Command-line entry point: solve, simulate and audit workflows.

Exit codes: 0 success, 1 audit failure, 2 usage/config error.  argparse only
collects each flag's text; a command converts flag values and config keys
alike through ``errors._value``, so each value has one meaning.  All
randomness is seeded explicitly; reports are deterministic for a fixed seed
regardless of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .allocation import myerson_payments, solve_unbiased, worst_case_variance
from .audits import SUITES, run_suite
from .ci_solver import _deployed_policy, ci_objective, ci_parameters, solve_ci
from .errors import ConfigError, InvalidInputError, _floats, _real, _required, _value, _whole
from .populations import Population, gen_population
from .simharness import metrics_json, monte_carlo, run_log_csv
from .virtual_cost import CostSet

USAGE_ERROR = 2
AUDIT_ERROR = 1


def _read_costs_file(path: str) -> list[float]:
    values: list[float] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            for col_no, cell in enumerate(row, start=1):
                cell = cell.strip()
                if not cell or cell.lower() == "cost":
                    continue
                try:
                    values.append(float(cell))
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}:{line_no}: field {col_no} is not a number: {cell!r}"
                    ) from exc
    if not values:
        raise ConfigError(f"{path}: no costs found")
    return values


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"could not read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _text(value) -> str:
    if not isinstance(value, str) or not value:
        raise TypeError("expected a non-empty string")
    return value


def _task(value) -> str:
    if value not in ("unbiased", "ci"):
        raise ValueError("expected 'unbiased' or 'ci'")
    return value


def _costs(value) -> list[float]:
    """A comma- or space-separated string of costs, or a list of numbers."""
    return _floats(value.replace(",", " ").split() if isinstance(value, str) else value)


def _merged(args: argparse.Namespace, config_only: tuple[str, ...] = ()) -> dict:
    """Flag values overridden by any config keys of the same name; a key
    that is neither a flag of the command nor in ``config_only`` is an error."""
    merged = vars(args).copy()
    if args.config:
        config = _load_config(args.config)
        known = set(merged) - {"command", "func", "config"} | set(config_only)
        unknown = sorted(set(config) - known)
        if unknown:
            raise ConfigError("unknown config key " + ", ".join(map(repr, unknown)))
        merged.update(config)
    return merged


def _costs_from(opts: dict) -> list[float]:
    """The costs of ``--costs`` (or a config list), else of ``--costs-file``."""
    costs = _value(opts, "costs", _costs)
    if costs is None:
        if opts.get("costs_file") is None:
            raise ConfigError("provide --costs or --costs-file")
        costs = _read_costs_file(_value(opts, "costs_file", _text))
    if not costs:
        raise ConfigError("cost list is empty")
    return costs


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    elif out.endswith(".csv"):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            header = ["cost", "A", "P"] + (["U"] if "U" in payload else [])
            writer.writerow(header)
            for i, cost in enumerate(payload["costs"]):
                price = payload["P"][i]
                row = [repr(cost), repr(payload["A"][i]),
                       "" if price is None else repr(price)]
                if "U" in payload:
                    row.append(repr(payload["U"][i]))
                writer.writerow(row)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_solve(args: argparse.Namespace) -> int:
    opts = _merged(args)
    task = _required(opts, "task", _task)
    costs_arr = np.sort(np.asarray(_costs_from(opts), dtype=float))
    budget = _required(opts, "budget", _real)
    cap = _value(opts, "cap", _real, float(costs_arr[-1]))
    cost_set = CostSet(costs=costs_arr, cap=cap)

    if task == "unbiased":
        rule = solve_unbiased(cost_set, budget)
        payments = myerson_payments(cost_set, rule)
        payload = {
            "task": task,
            "costs": costs_arr.tolist(),
            "budget": budget,
            "A": rule.probabilities.tolist(),
            "P": payments.payments.tolist(),
            "lambda": rule.lam,
            "saturated": rule.saturated,
            "objective": worst_case_variance(rule, cost_set),
        }
    else:
        params = ci_parameters(_required(opts, "gamma", _real), len(cost_set))
        rule, ignore = solve_ci(cost_set, budget, params.beta)
        _, payments = _deployed_policy(cost_set.costs, rule.probabilities, ignore.u_values)
        payload = {
            "task": task,
            "costs": costs_arr.tolist(),
            "budget": budget,
            "gamma": params.gamma,
            "beta": params.beta,
            "A": rule.probabilities.tolist(),
            "U": ignore.u_values.tolist(),
            "P": [None if math.isnan(p) else p for p in payments.tolist()],
            "lambda": rule.lam,
            "H": None if math.isinf(ignore.threshold_phi) else ignore.threshold_phi,
            "M": ignore.total_mass,
            "p": ignore.boundary_fraction,
            "saturated": rule.saturated,
            "objective": ci_objective(rule, ignore, params.beta, len(cost_set)),
        }
    _emit(payload, _value(opts, "out", _text))
    return 0


def _population_from(opts: dict) -> Population:
    """The config's population spec, drawn, else the inline costs (data 1)."""
    if opts.get("population") is not None:
        return gen_population(opts["population"], _required(opts, "n", _whole),
                              _required(opts, "cap", _real), _value(opts, "pop_seed", _whole, 0))
    costs = np.asarray(_costs_from(opts), dtype=float)
    cap = _value(opts, "cap", _real, float(np.max(costs)))
    data = _value(opts, "data", _floats, np.ones(costs.size))
    return Population(costs=costs, data=data, cap=cap)


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = _merged(args, ("population", "n", "pop_seed", "data"))
    task = _required(opts, "task", _task)
    budget = _required(opts, "budget", _real)
    runs = _required(opts, "runs", _whole)
    gamma = _value(opts, "gamma", _real)
    population = _population_from(opts)
    seed = _value(opts, "seed", _whole, 0)
    workers = _value(opts, "threads", _whole, 1)
    out = _value(opts, "out", _text, "simrun")

    metrics, per_run = monte_carlo(
        task, population, budget, gamma, runs, seed,
        workers=workers, return_per_run=True,
    )
    with open(out + ".json", "w", encoding="utf-8") as handle:
        handle.write(metrics_json(metrics))
    with open(out + ".csv", "w", encoding="utf-8", newline="") as handle:
        run_log_csv(per_run, handle)

    spends = per_run["spend"]
    spend_se = float(np.std(spends, ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    verdicts = {
        "expected_budget": metrics.expected_spend <= budget + 3 * spend_se,
    }
    if task == "unbiased":
        est = per_run["estimate"]
        var = metrics.estimator_variance
        centered = (est - est.mean()) ** 2
        var_se = float(np.sqrt(max(np.var(centered, ddof=1), 0.0) / runs)) if runs > 1 else 0.0
        verdicts["variance_bound"] = var <= metrics.bound_rhs_unbiased + 3 * var_se
        verdicts["unbiasedness"] = abs(metrics.estimator_mean - population.mean) <= 3 * math.sqrt(
            max(var, 1e-300) / runs
        )
    else:
        slack = 2 * math.sqrt(gamma * (1 - gamma) / runs)
        verdicts["coverage"] = metrics.ci_coverage >= gamma - slack
        verdicts["length_bound"] = metrics.ci_mean_length <= metrics.bound_rhs_ci
    for name, ok in sorted(verdicts.items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"report: {out}.json  log: {out}.csv")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    opts = _merged(args)
    outcome = run_suite(_required(opts, "suite", _text), trials=_value(opts, "trials", _whole),
                        seed=_value(opts, "seed", _whole, 0))
    print(outcome.line())
    return 0 if outcome.passed else AUDIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surveymech",
        description="Budget-feasible data-acquisition mechanisms: solve, simulate, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags stay text: each command converts them, like config keys, with errors._value.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--task", help="unbiased or ci")
    shared.add_argument("--costs", help="comma- or space-separated costs "
                                        "(simulate: the population, each datum 1)")
    shared.add_argument("--costs-file", help="CSV file of costs")
    shared.add_argument("--budget")
    shared.add_argument("--gamma")
    shared.add_argument("--cap")
    shared.add_argument("--config", help="JSON config; overrides flags it names")
    shared.add_argument("--out", help="solve: output path (.json or .csv); "
                                      "simulate: prefix of the .json and .csv reports")

    solve = sub.add_parser("solve", parents=[shared], help="solve a known-costs rule")
    solve.set_defaults(func=cmd_solve)

    sim = sub.add_parser("simulate", parents=[shared], help="Monte Carlo an online mechanism")
    sim.add_argument("--runs")
    sim.add_argument("--seed", help="master seed (default 0)")
    sim.add_argument("--threads", help="worker processes (default 1)")
    sim.set_defaults(func=cmd_simulate)

    audit = sub.add_parser("audit", help="run a property suite")
    audit.add_argument("--suite", help="one of " + ", ".join(sorted(SUITES)))
    audit.add_argument("--trials", help="default: the suite's own")
    audit.add_argument("--seed", help="default 0")
    audit.add_argument("--config", help="JSON config; overrides flags it names")
    audit.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
