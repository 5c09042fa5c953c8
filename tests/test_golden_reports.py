"""`simulate` reports compared with committed copies, byte for byte.

Each case is one of the benchmark's three workload shapes, at its toy size
(the population, n, cap, budget and runs of ``perfbench/workloads.py`` under
``TOY``) and at its full size (``_full`` cases, whose continuous-cost runs
span several round batches), at the benchmark's two seeds.  The copies under ``tests/golden``
were written with numpy ``GOLDEN_NUMPY``; on that version the reports must
match them byte for byte.  Another numpy may round the last bit of a float
differently, so there the parsed values are compared to ``REL_TOL`` relative
instead, and every other field must still be equal.

A change that moves outputs on purpose rewrites the copies with
``PYTHONPATH=src python tests/test_golden_reports.py`` and lists each
changed file in ``CHANGES.md``.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from surveymech import gen_population
from surveymech.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_NUMPY = "2.4.6"
REL_TOL = 1e-12
# this numpy wrote the copies, so the reports must match them byte for byte
BYTE_EXACT = np.__version__ == GOLDEN_NUMPY
SEEDS = (1, 20181130)
UNIFORM = {"kind": "independent"}
# name: (task, population, n, cap, budget, gamma, runs)
CASES = {
    "mc_cached": ("unbiased", {"kind": "two_point", "fractions": [0.9, 0.1], "costs": [1.0, 20.0]},
                  20, 25.0, 30.0, None, 50),
    "mc_fresh_unbiased": ("unbiased", UNIFORM, 40, 25.0, 60.0, None, 4),
    "mc_fresh_ci": ("ci", UNIFORM, 20, 25.0, 30.0, 0.9, 4),
    "mc_cached_full": ("unbiased", {"kind": "two_point", "fractions": [0.9, 0.1], "costs": [1.0, 20.0]},
                       100, 25.0, 150.0, None, 1000),
    "mc_fresh_unbiased_full": ("unbiased", UNIFORM, 1000, 25.0, 1500.0, None, 5),
    "mc_fresh_ci_full": ("ci", UNIFORM, 100, 25.0, 150.0, 0.9, 10),
}


def comparison() -> str:
    """The comparison ``test_simulate_reports_match_golden_copies`` makes on this numpy."""
    if BYTE_EXACT:
        return f"golden reports: compared byte for byte (numpy {np.__version__})"
    return (f"golden reports: compared to REL_TOL = {REL_TOL} (numpy {np.__version__}, "
            f"copies from {GOLDEN_NUMPY})")


def _simulate(name: str, seed: int, directory: Path) -> Path:
    """Run ``simulate`` on one case; returns the report prefix."""
    task, spec, n, cap, budget, gamma, runs = CASES[name]
    pop = gen_population(spec, n, cap, seed)
    prefix = directory / f"{name}-seed{seed}"
    config = {"task": task, "costs": pop.costs.tolist(), "data": pop.data.tolist(), "cap": cap,
              "budget": budget, "runs": runs, "seed": seed, "threads": 1, "out": str(prefix)}
    if gamma is not None:
        config["gamma"] = gamma
    path = directory / f"{name}-seed{seed}.config.json"
    path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 0
    return prefix


def _same_value(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return (math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
                or got == want or (math.isnan(got) and math.isnan(want)))
    return type(got) is type(want) and got == want


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parsed(text: str, suffix: str) -> list:
    """A report as rows of fields: JSON ``(key, value)`` pairs, CSV cells."""
    if suffix == ".json":
        return [list(item) for item in json.loads(text).items()]
    return [[_cell(cell) for cell in row] for row in csv.reader(text.splitlines())]


def _close(got: str, want: str, suffix: str) -> bool:
    got_rows, want_rows = _parsed(got, suffix), _parsed(want, suffix)
    if len(got_rows) != len(want_rows):
        return False
    for got_row, want_row in zip(got_rows, want_rows):
        if len(got_row) != len(want_row):
            return False
        if not all(_same_value(g, w) for g, w in zip(got_row, want_row)):
            return False
    return True


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_reports_match_golden_copies(name, seed, tmp_path, capsys):
    prefix = _simulate(name, seed, tmp_path)
    capsys.readouterr()
    for suffix in (".json", ".csv"):
        got = prefix.with_suffix(suffix).read_bytes()
        want = (GOLDEN / f"{name}-seed{seed}{suffix}").read_bytes()
        if BYTE_EXACT:
            assert got == want, f"{name}-seed{seed}{suffix} differs from its golden copy"
        else:
            assert _close(got.decode(), want.decode(), suffix), (
                f"{name}-seed{seed}{suffix} differs from its golden copy by more than "
                f"{REL_TOL} relative (numpy {np.__version__}, copies from {GOLDEN_NUMPY})")


def test_tolerant_comparison_allows_rounding_only():
    want = (GOLDEN / "mc_fresh_unbiased-seed1.json").read_text(encoding="utf-8")
    report = json.loads(want)
    value = report["estimator_mean"]
    for moved, ok in ((math.nextafter(value, math.inf), True), (value * (1 + 1e-9), False)):
        assert _close(json.dumps(dict(report, estimator_mean=moved)), want, ".json") is ok
    assert not _close(json.dumps(dict(report, runs=report["runs"] + 1)), want, ".json")
    rows = (GOLDEN / "mc_fresh_unbiased-seed1.csv").read_text(encoding="utf-8")
    assert _close(rows, rows, ".csv")
    assert not _close(rows.rsplit("\n", 2)[0], rows, ".csv")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for case_seed in SEEDS:
            _simulate(case, case_seed, GOLDEN)
            (GOLDEN / f"{case}-seed{case_seed}.config.json").unlink()
    print(f"wrote the golden reports under {GOLDEN} with numpy {np.__version__}")
