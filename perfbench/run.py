"""surveymech benchmark: `surveymech simulate` end to end, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_cached --seed 1 --seconds 25 --trace 0

``--trace 0`` times repeated in-process ``surveymech.cli.main(["simulate",
"--config", ...])`` calls for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` replays the runs of one call through the public layer
functions and reports the per-layer metrics (see ``layertrace.py``).  Either way
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
provenance, the per-call checks and the output hashes.  A full record is
written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from workloads import OUT, ROOT, SRC, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git``; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(w, args) -> dict:
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "toy": args.toy, "params": w.params(), "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _git_commit(),
    }


def set_up(w, seed: int, toy: bool) -> tuple[float, Path]:
    """Run the set-up in fresh interpreters; median seconds and the config.

    A first, untimed set-up fills the bytecode cache.  Every set-up must
    write the same config bytes.
    """
    config = OUT / f"{w.name}.config.json"
    cmd = [sys.executable, str(HERE / "setup_child.py"), w.name, str(seed),
           "1" if toy else "0", str(config), str(OUT / w.name)]
    times, texts = [], set()
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        if k:
            times.append(float(proc.stdout.split()[-1]))
        texts.add(config.read_bytes())
    if len(texts) != 1:
        raise BenchError("set-up wrote different configs for the same seed")
    return statistics.median(times), config


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def call_simulate(cli, config: Path) -> tuple[int | None, float, float, str]:
    """One in-process ``simulate`` call.

    Returns (exit code, or None if it raised; wall seconds; CPU seconds; stdout).
    """
    buf = io.StringIO()
    wall, cpu = perf_counter(), cpu_seconds()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["simulate", "--config", str(config)])
    except Exception:  # a raising call fails all of its runs; keep measuring
        traceback.print_exc()
        code = None
    return code, perf_counter() - wall, cpu_seconds() - cpu, buf.getvalue()


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_call(w, code, stdout: str) -> dict:
    """Check one call's exit code, `<out>.csv` and `<out>.json`.

    A run fails if its CSV row is missing or non-finite, or if its interval
    is inverted; a call that raised or exited non-zero fails all its runs.
    ``rows`` holds the per-run values the trace cross-checks against.
    """
    result = {"failed": w.runs, "rows": [], "verdicts_failed": None, "hashes": None,
              "report": None, "consistent": False}
    if code != 0:
        return result
    try:
        json_bytes = (OUT / f"{w.name}.json").read_bytes()
        csv_bytes = (OUT / f"{w.name}.csv").read_bytes()
        report = json.loads(json_bytes)
    except (OSError, ValueError):
        return result
    rows = []
    for fields in list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))[1:]:
        if len(fields) != 6 or fields[0] != str(len(rows)):
            break
        values = tuple(_finite(f) for f in fields[1:3 if w.task == "unbiased" else 5])
        if None in values or (w.task == "ci" and (values[2] > values[3] or fields[5] not in ("0", "1"))):
            break
        rows.append(values)
    estimates = [r[0] for r in rows]
    spends = [r[1] for r in rows]
    consistent = (len(rows) == w.runs == report.get("runs")
                  and report.get("estimator_mean") == float(_mean(estimates))
                  and report.get("expected_spend") == float(_mean(spends)))
    result.update(
        failed=w.runs - len(rows), rows=rows, report=report, consistent=consistent,
        verdicts_failed=sum(line.startswith("FAIL ") for line in stdout.splitlines()),
        hashes={"json": hashlib.sha256(json_bytes).hexdigest(),
                "csv": hashlib.sha256(csv_bytes).hexdigest()},
    )
    return result


def _mean(values):
    # the report's mean is numpy's pairwise sum, so compare with the same sum
    return np.mean(np.asarray(values, dtype=float)) if values else math.nan


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(record: dict, correct: bool, attempted: int, failed: int, metrics: dict, units: dict):
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    name = f"{record['provenance']['workload']}-seed{record['provenance']['seed']}"
    path = OUT / f"result-{name}-trace{record['provenance']['trace']}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def measure(w, args, cli, config: Path, setup_s: float, record: dict) -> None:
    """End-to-end metrics: repeated `simulate` calls for ``--seconds``."""
    code, _, _, stdout = call_simulate(cli, config)
    warm_up = check_call(w, code, stdout)  # checked, not timed
    calls = []  # (exit code, wall s, CPU s, checks)
    deadline = perf_counter() + args.seconds
    while not calls or perf_counter() < deadline:
        code, wall, cpu, stdout = call_simulate(cli, config)
        calls.append((code, wall, cpu, check_call(w, code, stdout)))
    checks = [warm_up] + [c for *_, c in calls]
    attempted = w.runs * len(checks)
    failed = sum(c["failed"] for c in checks)
    hashes = {json.dumps(c["hashes"], sort_keys=True) for c in checks}
    correct = failed == 0 and len(hashes) == 1 and all(c["consistent"] for c in checks)
    wall = [c[1] for c in calls]
    cpu = [c[2] for c in calls]
    print(f"calls: 1 warm-up + {len(calls)} timed, {w.runs} runs each; "
          f"CPU s per call median={statistics.median(cpu)} min={min(cpu)} max={max(cpu)}; "
          f"wall runs/s={w.runs * len(wall) / sum(wall)}")
    for i, c in enumerate(checks):
        if c["failed"] or not c["consistent"]:
            print(f"call {i}: failed_runs={c['failed']} report_consistent={c['consistent']}")
    print(f"verdict FAIL lines per call: {sorted({c['verdicts_failed'] for c in checks}, key=str)}")
    print(f"sha256 {checks[-1]['hashes']} identical_across_calls={len(hashes) == 1}")
    print(f"failed_share {failed / attempted} (share of {attempted} runs)")
    record.update(calls=[{"exit": code, "wall_s": wall_s, "cpu_s": cpu_s, "failed": c["failed"],
                          "verdicts_failed": c["verdicts_failed"], "hashes": c["hashes"]}
                         for code, wall_s, cpu_s, c in calls])
    metrics = {
        # Per CPU second, summed over the timed calls.  The calls are
        # single-threaded, so this is wall time less what the hypervisor of a
        # shared host steals; the machine also drifts between fast and slow
        # spells lasting several calls, which a per-call median would jump between.
        "runs_per_s": w.runs * len(cpu) / sum(cpu),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    _emit(record, correct, attempted, failed, metrics, UNITS)


def measure_traced(w, args, cli, config: Path, record: dict) -> None:
    """Per-layer metrics from a traced replay of one `simulate` call's runs."""
    import layertrace
    import surveymech as sm

    gen = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pop = workloads.population(w, args.seed)
        gen.append(perf_counter() - start)

    for _ in range(2):  # a warm-up call, then the untraced reference call
        code, seconds, _, stdout = call_simulate(cli, config)
        checked = check_call(w, code, stdout)
        if checked["failed"] or not checked["consistent"]:
            raise BenchError(f"simulate call failed its output checks (exit {code})")
    report = checked["report"]
    untraced_rate = w.runs / seconds

    start = perf_counter()
    metrics, per_run = sm.monte_carlo(w.task, pop, w.budget, w.gamma, w.runs, args.seed,
                                      workers=1, return_per_run=True)
    mc_s = perf_counter() - start
    start = perf_counter()
    text = sm.metrics_json(metrics)
    buf = io.StringIO()
    sm.run_log_csv(per_run, buf)
    report_s = perf_counter() - start
    report_bytes = len(text.encode()) + len(buf.getvalue().encode())
    start = perf_counter()
    if w.task == "unbiased":
        sm.benchmark_unbiased(pop.costs, pop.cap, w.budget)
    else:
        sm.benchmark_ci(pop.costs, pop.cap, w.budget, w.gamma)
    bench_s = perf_counter() - start
    start = perf_counter()
    sm.monte_carlo(w.task, pop, w.budget, w.gamma, w.runs, args.seed, workers=2)
    pool_s = perf_counter() - start

    tracer = layertrace.Tracer()
    replay = layertrace.Replay(w, pop, args.seed, tracer)
    passes, pass_s = [], []
    deadline = perf_counter() + args.seconds
    while not passes or perf_counter() < deadline:
        start = perf_counter()
        try:
            passes.append(replay.one_pass(len(passes), checked["rows"]))
        except layertrace.ReplayMismatch as exc:
            raise BenchError(f"replay cross-check failed, the trace measured another program: {exc}") from exc
        pass_s.append(perf_counter() - start)
    spans_path = OUT / f"trace-{w.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    layers = layertrace.layer_metrics(tracer, passes, w)
    ci = w.task == "ci"
    layers.update({
        "populations.gen_s": statistics.median(gen),
        "online_runner.benchmark_s": bench_s,
        "simharness.monte_carlo_s": mc_s,
        "simharness.pool_speedup": mc_s / pool_s,
        "simharness.spend_ratio": report["expected_spend"] / w.budget,
        "simharness.ci_coverage": report["ci_coverage"] if ci else 0.0,
        "simharness.ci_mean_length": report["ci_mean_length"] if ci else 0.0,
        "simharness.verdicts_failed": checked["verdicts_failed"],
        "cli.report_write_s": report_s,
        "cli.report_bytes": report_bytes,
        "trace.overhead": (w.runs / statistics.median(pass_s)) / untraced_rate,
    })
    metrics = {k: float(layers[k]) for k in TRACE_UNITS}
    not_applicable = [k for k in metrics if k in NOT_APPLICABLE[w.task]]
    print(f"replay cross-check: {len(passes)} pass(es) x {w.runs} runs equal the "
          f"simulate call's {w.name}.csv rows bit for bit")
    print(f"computed by subtraction: {', '.join(layertrace.COMPUTED)}")
    print(f"not applicable to this workload (reported as 0): {', '.join(not_applicable)}")
    print(f"simharness.pool_speedup compares workers=2 with workers=1 on {w.runs} runs "
          f"on {os.cpu_count()} cores; it is noisy on a shared machine")
    print(f"sha256 {checked['hashes']}  spans: {spans_path.relative_to(ROOT)}")
    record.update(hashes=checked["hashes"], spans=len(tracer.spans), passes=len(passes),
                  not_applicable=not_applicable, computed=list(layertrace.COMPUTED))
    attempted = w.runs * (2 + len(passes))
    _emit(record, True, attempted, 0, metrics, TRACE_UNITS)


UNITS = {"runs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {
    "populations.gen_s": "s",
    "virtual_cost.psi_s": "s",
    "virtual_cost.ironing_s": "s",
    "virtual_cost.ironing_us_p50": "us",
    "virtual_cost.points_ironed": "count",
    "virtual_cost.blocks_per_point": "ratio",
    "allocation.calibrate_s": "s",
    "allocation.payments_s": "s",
    "ci_solver.outer_s": "s",
    "ci_solver.solve_us_p50": "us",
    "online_runner.rounds": "count",
    "online_runner.rounds_solved": "count",
    "online_runner.cache_hit_ratio": "ratio",
    "online_runner.cache_mb": "MB",
    "online_runner.loop_self_s": "s",
    "online_runner.run_ms_p50": "ms",
    "online_runner.run_ms_tail": "ms",
    "online_runner.run_tail_pct": "percentile",
    "online_runner.run_samples": "count",
    "online_runner.benchmark_s": "s",
    "estimation.interval_s": "s",
    "simharness.monte_carlo_s": "s",
    "simharness.pool_speedup": "ratio",
    "simharness.spend_ratio": "ratio",
    "simharness.ci_coverage": "share",
    "simharness.ci_mean_length": "data_units",
    "simharness.verdicts_failed": "count",
    "cli.report_write_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead": "ratio",
}
NOT_APPLICABLE = {
    "unbiased": {"ci_solver.outer_s", "ci_solver.solve_us_p50", "estimation.interval_s",
                 "simharness.ci_coverage", "simharness.ci_mean_length"},
    # solve_ci calibrates inside its outer search: that time is in ci_solver.outer_s
    "ci": {"allocation.calibrate_s"},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "surveymech" / "__init__.py").is_file():
        print(f"error: no surveymech sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    w = workloads.get(args.workload, toy=args.toy)
    OUT.mkdir(exist_ok=True)
    try:
        setup_s, config = set_up(w, args.seed, args.toy)
        sys.path.insert(0, str(SRC))
        from surveymech import cli

        record = {"provenance": provenance(w, args)}
        print("provenance " + json.dumps(record["provenance"], sort_keys=True))
        if args.trace:
            measure_traced(w, args, cli, config, record)
        else:
            measure(w, args, cli, config, setup_s, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
