"""Workload definitions and the seeded `simulate` config each one feeds the CLI.

Every workload is generated from the benchmark's ``--seed``: the population
is drawn with ``gen_population(spec, n, cap, seed)`` and written inline into
the config (``costs``/``data``), and the Monte Carlo master seed is the same
``seed``.  The program receives only that config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"

DEFAULT_SEED = 1
# Never used while tuning the benchmark; confirm later gain claims on it.
HELD_OUT_SEED = 20181130

UNIFORM = {"kind": "independent"}  # costs uniform on [0, cap], data uniform on [0, 1]


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    spec: dict
    n: int
    cap: float
    budget: float
    gamma: float | None
    runs: int  # Monte Carlo runs per `simulate` call

    def params(self) -> dict:
        return {"task": self.task, "population": self.spec, "n": self.n, "cap": self.cap,
                "budget": self.budget, "gamma": self.gamma, "runs_per_call": self.runs}


WORKLOADS = {
    w.name: w
    for w in (
        # Two cost values only: round grids repeat and >99% of rounds hit the
        # round cache, so the round loop itself does most of the work.
        Workload("mc_cached", "unbiased",
                 {"kind": "two_point", "fractions": [0.9, 0.1], "costs": [1.0, 20.0]},
                 n=100, cap=25.0, budget=150.0, gamma=None, runs=1000),
        # Continuous costs: every round misses the cache, ironing dominates,
        # and the unbounded round cache shows in peak memory.
        Workload("mc_fresh_unbiased", "unbiased", UNIFORM,
                 n=1000, cap=25.0, budget=1500.0, gamma=None, runs=5),
        # Continuous costs, CI task: the golden-section outer search dominates.
        Workload("mc_fresh_ci", "ci", UNIFORM,
                 n=100, cap=25.0, budget=150.0, gamma=0.9, runs=10),
    )
}

# Toy sizes for the smoke test: same shapes, seconds instead of minutes.
TOY = {"mc_cached": (20, 50), "mc_fresh_unbiased": (40, 4), "mc_fresh_ci": (20, 4)}


def get(name: str, toy: bool = False) -> Workload:
    w = WORKLOADS[name]
    if toy:
        n, runs = TOY[name]
        w = Workload(w.name, w.task, w.spec, n, w.cap, w.budget * n / w.n, w.gamma, runs)
    return w


def population(w: Workload, seed: int):
    from surveymech import gen_population

    return gen_population(w.spec, w.n, w.cap, seed)


def write_config(w: Workload, seed: int, pop, path: Path, out_prefix: Path) -> None:
    config = {
        "task": w.task,
        "costs": pop.costs.tolist(),
        "data": pop.data.tolist(),
        "cap": w.cap,
        "budget": w.budget,
        "runs": w.runs,
        "seed": seed,
        "threads": 1,
        "out": str(out_prefix),
    }
    if w.gamma is not None:
        config["gamma"] = w.gamma
    path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
