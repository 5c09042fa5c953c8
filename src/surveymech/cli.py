"""Command-line entry point: solve, simulate and audit workflows.

Exit codes: 0 success, 1 audit failure, 2 usage/config error.  All randomness
is seeded explicitly; reports are deterministic for a fixed seed regardless
of the worker count.
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
from .errors import ConfigError, InvalidInputError
from .populations import Population, gen_population
from .simharness import metrics_json, monte_carlo, run_log_csv
from .virtual_cost import CostSet

USAGE_ERROR = 2
AUDIT_ERROR = 1


def _parse_costs(arg: str) -> list[float]:
    try:
        return [float(tok) for tok in arg.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"could not parse costs {arg!r}: {exc}") from exc


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
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _value(opts: dict, key: str, convert, default=None):
    """``convert(opts[key])``, or ``default`` if the key is unset.

    Config values skip argparse's ``type=`` conversion, so a value that
    ``convert`` rejects raises ``ConfigError`` naming the key.
    """
    value = opts.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {key} {value!r}: {exc}") from exc


def _merged(args: argparse.Namespace) -> dict:
    """Flag values overridden by any config keys of the same name."""
    merged = vars(args).copy()
    if args.config:
        merged.update(_load_config(args.config))
    return merged


def _costs_from(opts: dict) -> list[float]:
    """The costs of ``--costs`` (or a config list), else of ``--costs-file``."""
    if isinstance(opts.get("costs"), str):
        costs = _parse_costs(opts["costs"])
    elif opts.get("costs") is not None:
        costs = _value(opts, "costs", lambda v: [float(c) for c in v])
    elif opts.get("costs_file"):
        costs = _read_costs_file(_value(opts, "costs_file", _text))
    else:
        raise ConfigError("provide --costs or --costs-file")
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
    task = opts.get("task")
    if task not in ("unbiased", "ci"):
        raise ConfigError("task must be 'unbiased' or 'ci'")
    costs = _costs_from(opts)
    budget = _value(opts, "budget", float)
    if budget is None:
        raise ConfigError("provide --budget")
    costs_arr = np.sort(np.asarray(costs, dtype=float))
    cap = _value(opts, "cap", float, float(costs_arr[-1]))
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
        gamma = _value(opts, "gamma", float)
        if gamma is None:
            raise ConfigError("ci task needs --gamma")
        params = ci_parameters(gamma, len(cost_set))
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
    cap = _value(opts, "cap", float)
    if opts.get("population") is not None:
        spec = opts["population"]
        if not isinstance(spec, dict):
            raise ConfigError("population must be a JSON object")
        n = _value(opts, "n", int)
        if n is None:
            raise ConfigError("simulate needs n with a population spec")
        if cap is None:
            raise ConfigError("simulate needs cap with a population spec")
        return gen_population(spec, n, cap, _value(opts, "pop_seed", int) or 0)
    if opts.get("costs") is None and not opts.get("costs_file"):
        raise ConfigError("simulate needs a population spec (config) or --costs")
    costs = np.asarray(_costs_from(opts), dtype=float)
    cap = float(np.max(costs)) if cap is None else cap
    data = _value(opts, "data", lambda v: np.asarray(v, dtype=float), np.ones(costs.size))
    return Population(costs=costs, data=data, cap=cap)


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = _merged(args)
    task = opts.get("task")
    if task not in ("unbiased", "ci"):
        raise ConfigError("task must be 'unbiased' or 'ci'")
    budget = _value(opts, "budget", float)
    if budget is None:
        raise ConfigError("provide --budget")
    runs = _value(opts, "runs", int) or 0
    if runs < 1:
        raise ConfigError("runs must be at least 1")
    gamma = _value(opts, "gamma", float)
    population = _population_from(opts)
    seed = _value(opts, "seed", int) or 0
    workers = _value(opts, "threads", int) or 1
    out = _value(opts, "out", _text) or "simrun"

    metrics, per_run = monte_carlo(
        task, population, budget, gamma, runs, seed,
        workers=workers, return_per_run=True,
    )
    with open(out + ".json", "w", encoding="utf-8") as handle:
        handle.write(metrics_json(metrics))
    run_log_csv(per_run, out + ".csv")

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
    suite = opts.get("suite")
    if suite is None:
        raise ConfigError(f"provide --suite (one of {sorted(SUITES)})")
    trials = _value(opts, "trials", int)
    outcome = run_suite(suite, trials=trials, seed=_value(opts, "seed", int) or 0)
    print(outcome.line())
    return 0 if outcome.passed else AUDIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surveymech",
        description="Budget-feasible data-acquisition mechanisms: solve, simulate, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a known-costs rule")
    solve.add_argument("--task", choices=["unbiased", "ci"])
    solve.add_argument("--costs", help="comma- or space-separated cost list")
    solve.add_argument("--costs-file", dest="costs_file", help="CSV file of costs")
    solve.add_argument("--budget", type=float)
    solve.add_argument("--gamma", type=float)
    solve.add_argument("--cap", type=float)
    solve.add_argument("--config", help="JSON config; overrides flags it names")
    solve.add_argument("--out", help="output path (.json or .csv)")
    solve.set_defaults(func=cmd_solve)

    sim = sub.add_parser("simulate", help="Monte Carlo an online mechanism")
    sim.add_argument("--task", choices=["unbiased", "ci"])
    sim.add_argument("--costs", help="inline population costs (data defaults to 1)")
    sim.add_argument("--costs-file", dest="costs_file", help="CSV file of population costs")
    sim.add_argument("--budget", type=float)
    sim.add_argument("--gamma", type=float)
    sim.add_argument("--cap", type=float)
    sim.add_argument("--runs", type=int)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--config", help="JSON config; overrides flags it names")
    sim.add_argument("--out", help="output prefix (writes .json and .csv)")
    sim.set_defaults(func=cmd_simulate)

    audit = sub.add_parser("audit", help="run a property suite")
    audit.add_argument("--suite", choices=sorted(SUITES))
    audit.add_argument("--trials", type=int)
    audit.add_argument("--seed", type=int, default=0)
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
