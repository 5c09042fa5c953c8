"""Smoke test of the benchmark itself, at toy sizes, in well under a minute.

Runs every workload of ``BENCHMARK.json`` untraced and traced and checks the
result line: its keys, ``correct``, no failed runs, and every metric named in
``BENCHMARK.json`` emitted with its unit and a finite value.  Then checks that
the benchmark refuses to produce a result in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.

Usage (from the repository root): python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, expected: dict, label: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            problems.append(f"{label}: {name} unit {got.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r} is not a finite number")
    return problems


def bare_directory_fails() -> list[str]:
    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "--workload", "mc_cached", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark printed a result or exited 0"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            label = f"{workload['name']} trace={trace}"
            proc = run(ROOT, "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                       "--trace", trace, "--toy")
            problems += check_result(proc, expected, label)
            print(f"{label}: {'ok' if not problems else 'FAILED'}", flush=True)
    problems += bare_directory_fails()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
