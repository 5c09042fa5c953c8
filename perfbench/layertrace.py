"""Traced replay of Monte Carlo runs through the public layer functions.

Each Monte Carlo run is one request with its own id.  The run itself is the
public ``run_unbiased_online`` / ``run_ci_online`` call, driven exactly as
``monte_carlo`` drives its private loop: ``default_rng([seed, run_index])``,
then ``draw_permutation``, then the same generator for the purchase coins,
with one round cache shared by every run of a pass.  After the run, every
round grid the run added to that cache is solved again by the public layer
calls (``virtual_costs``, ``regularize``, ``solve_unbiased``/``solve_ci``,
``myerson_payments``) as child spans of the request.  Only public names are
used, so the trace survives renames of private helpers.

Each run is then repeated against the cache it has just warmed: every round
hits, so that span times the round loop alone (``loop_self_s``).  Self times
that cannot be timed directly are computed by subtraction, e.g.
``calibrate = solve_unbiased - virtual_costs - regularize`` on the same grid;
their metric names are listed in ``COMPUTED``.  ``cache_mb`` is estimated
from the sizes of the cache's keys and entries.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter

import numpy as np

import surveymech as sm

COMPUTED = ("allocation.calibrate_s", "ci_solver.outer_s")
# The round loop on its own: a run repeated against the cache it just warmed.
LOOP = "online_runner.rerun_all_hits"


def run_name(task: str) -> str:
    return "online_runner.run_unbiased_online" if task == "unbiased" else "online_runner.run_ci_online"


class ReplayMismatch(Exception):
    """The replay computed something other than the traced program did."""


class Tracer:
    """In-memory spans: [span_id, parent_id, request, name, start, end]."""

    def __init__(self):
        self.spans: list[list] = []

    def open(self, name: str, request: str, parent: int | None = None) -> int:
        self.spans.append([len(self.spans), parent, request, name, perf_counter(), None])
        return len(self.spans) - 1

    def close(self, span_id: int) -> None:
        self.spans[span_id][5] = perf_counter()

    def call(self, name, request, parent, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        self.spans.append([len(self.spans), parent, request, name, start, end])
        return result

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["id", "parent", "request", "name", "start_s", "end_s"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def cache_bytes(cache: dict) -> int:
    """Estimated bytes held by a round cache: keys, their floats, entry arrays."""
    float_size = sys.getsizeof(1.0)
    total = sys.getsizeof(cache)
    for key, entry in cache.items():
        total += sys.getsizeof(key) + len(key) * float_size + sys.getsizeof(entry)
        total += sum(sys.getsizeof(part) for part in entry)
    return total


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class Replay:
    """Replays the runs of one ``simulate`` call, pass after pass."""

    def __init__(self, w, population, seed: int, tracer: Tracer):
        self.w = w
        self.pop = population
        self.seed = seed
        self.tracer = tracer
        self.n = population.n
        if w.task == "unbiased":
            self.schedule = sm.unbiased_schedule(self.n, w.budget)
        else:
            self.schedule = sm.ci_schedule(self.n, w.budget)
            self.beta = sm.ci_parameters(w.gamma, self.n).beta

    def one_pass(self, index: int, rows) -> dict:
        """Replay every run once; cross-check it against the CSV ``rows``.

        Returns the pass's counters.  Raises ``ReplayMismatch`` when a run or
        a replayed round differs bit for bit from what the program produced.
        """
        w, tr = self.w, self.tracer
        cache: dict = {}
        rounds = points = blocks = 0
        for r in range(w.runs):
            req = f"{index}.{r}"
            root = tr.open("request", req)
            before = len(cache)
            run, got = self._run(r, cache, req, root, run_name(w.task), record=True)
            if got != rows[r]:
                raise ReplayMismatch(f"run {r}: replay gave {got}, simulate wrote {rows[r]}")
            if w.task == "ci":
                self._interval(run, req, root)
            # Again on the cache it just warmed: every round hits.
            _, again = self._run(r, cache, req, root, LOOP, record=False)
            if again != got:
                raise ReplayMismatch(f"run {r}: the all-hit re-run differs from the run")
            first_round: dict = {}
            for t in run.transcripts:
                if not t.flagged:
                    rounds += 1
                    first_round.setdefault(t.grid, t.round_index)
            for key in list(cache)[before:]:
                phi = self._grid(key, self.schedule.per_round(first_round[key]), cache[key], req, root)
                points += phi.size
                blocks += 1 + int(np.count_nonzero(np.diff(phi)))
            tr.close(root)
        return {"rounds": rounds, "rounds_solved": len(cache), "points": points,
                "blocks": blocks, "cache_bytes": cache_bytes(cache)}

    def _run(self, r, cache, req, root, span, record):
        """Run ``r`` as ``monte_carlo`` derives it; (result, the values its CSV row holds)."""
        rng = np.random.default_rng([self.seed, r])
        perm = sm.draw_permutation(rng, self.n)
        arrived = sm.Population(costs=self.pop.costs[perm], data=self.pop.data[perm],
                                cap=self.pop.cap)
        if self.w.task == "unbiased":
            run = self.tracer.call(span, req, root, sm.run_unbiased_online, arrived, self.schedule,
                                   rng, record_transcripts=record, cache=cache)
            return run, (run.estimate, run.total_paid)
        run = self.tracer.call(span, req, root, sm.run_ci_online, arrived, self.schedule,
                               self.w.gamma, rng, record_transcripts=record, cache=cache)
        return run, (run.interval.sample_mean, run.total_paid, run.interval.lower, run.interval.upper)

    def _grid(self, key, budget, entry, req, root):
        """Solve one cached round grid again through the public layer calls."""
        tr = self.tracer
        cs = sm.CostSet(costs=np.asarray(key), cap=self.pop.cap)
        g = tr.open("grid", req, root)
        psi = tr.call("virtual_cost.virtual_costs", req, g, sm.virtual_costs, cs)
        phi = tr.call("virtual_cost.regularize", req, g, sm.regularize, psi)
        if self.w.task == "unbiased":
            rule = tr.call("allocation.solve_unbiased", req, g, sm.solve_unbiased, cs, budget)
            pay = tr.call("allocation.myerson_payments", req, g, sm.myerson_payments, cs, rule)
            ok = _same(rule.probabilities, entry[1]) and _same(pay.payments, entry[2])
        else:
            rule, ignore = tr.call("ci_solver.solve_ci", req, g, sm.solve_ci, cs, budget, self.beta)
            ignored = ignore.u_values >= 0.5
            effective = np.where(ignored, 0.0, rule.probabilities)
            # Ignored costs sit at the top of the grid, so the priced ones are
            # a prefix; myerson_payments prices that prefix on its own.
            live = int(np.count_nonzero(effective > 0))
            payments = np.full(len(cs), np.nan)
            if live:
                prefix = sm.CostSet(costs=cs.costs[:live], cap=self.pop.cap)
                prefix_rule = sm.AllocationRule(probabilities=effective[:live], lam=rule.lam)
                pay = tr.call("allocation.myerson_payments", req, g, sm.myerson_payments,
                              prefix, prefix_rule)
                payments[:live] = pay.payments
            ok = (_same(rule.probabilities, entry[1]) and _same(ignored, entry[2])
                  and _same(payments, entry[3]))
        tr.close(g)
        if not ok:
            raise ReplayMismatch(f"round grid of {len(key)} points: public calls disagree "
                                 "with the rule the run cached")
        return phi

    def _interval(self, run, req, root):
        """Assemble the run's interval again from its transcript's y values."""
        y = np.array([t.y for t in run.transcripts])
        interval = self.tracer.call("estimation.bernstein_interval", req, root, assemble_interval,
                                    y, self.w.gamma, run.ignored_count)
        if (interval.lower, interval.upper) != (run.interval.lower, run.interval.upper):
            raise ReplayMismatch("interval assembly disagrees with the run's interval")


def assemble_interval(y, gamma, ignored_count):
    """The online CI run's closing step, from the public estimation functions."""
    n = y.size
    sigma = math.sqrt(sm.sample_variance(y))
    return sm.bernstein_interval(float(np.mean(y)), sigma, max(n, 2), gamma,
                                 bias_term=ignored_count / n)


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p90/p50 with >= 10 samples
    beyond it; (100, max) when there are fewer than 20 samples."""
    n = len(samples)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(samples, pct))
    return 100.0, float(np.max(samples))


def layer_metrics(tracer: Tracer, passes: list[dict], w) -> dict:
    """Per-layer numbers from the spans; per-pass sums are medians over passes."""
    per_pass: dict = {}
    durations: dict = {}
    for _, _, req, name, start, end in tracer.spans:
        p = int(req.split(".")[0])
        per_pass.setdefault(name, [0.0] * len(passes))[p] += end - start
        durations.setdefault(name, []).append(end - start)

    def total(name):
        return per_pass.get(name, [0.0] * len(passes))

    def med(values):
        return float(np.median(values))

    solve = "allocation.solve_unbiased" if w.task == "unbiased" else "ci_solver.solve_ci"
    pre = [a + b for a, b in zip(total("virtual_cost.virtual_costs"), total("virtual_cost.regularize"))]
    solve_self = [s - q for s, q in zip(total(solve), pre)]
    run_ms = [d * 1e3 for d in durations[run_name(w.task)]]
    tail_pct, tail_ms = tail(run_ms)
    p0 = passes[0]
    return {
        "virtual_cost.psi_s": med(total("virtual_cost.virtual_costs")),
        "virtual_cost.ironing_s": med(total("virtual_cost.regularize")),
        "virtual_cost.ironing_us_p50": med(durations.get("virtual_cost.regularize", [0.0])) * 1e6,
        "virtual_cost.points_ironed": p0["points"],
        "virtual_cost.blocks_per_point": p0["blocks"] / p0["points"] if p0["points"] else 0.0,
        "allocation.calibrate_s": med(solve_self) if w.task == "unbiased" else 0.0,
        "allocation.payments_s": med(total("allocation.myerson_payments")),
        "ci_solver.outer_s": med(solve_self) if w.task == "ci" else 0.0,
        "ci_solver.solve_us_p50": med(durations.get("ci_solver.solve_ci", [0.0])) * 1e6,
        "online_runner.rounds": p0["rounds"],
        "online_runner.rounds_solved": p0["rounds_solved"],
        "online_runner.cache_hit_ratio": 1.0 - p0["rounds_solved"] / p0["rounds"],
        "online_runner.cache_mb": p0["cache_bytes"] / 2**20,
        "online_runner.loop_self_s": med(total(LOOP)),
        "online_runner.run_ms_p50": med(run_ms),
        "online_runner.run_ms_tail": tail_ms,
        "online_runner.run_tail_pct": tail_pct,
        "online_runner.run_samples": len(run_ms),
        "estimation.interval_s": med(total("estimation.bernstein_interval")),
    }

