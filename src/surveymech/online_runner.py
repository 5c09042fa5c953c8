"""Round-by-round execution of the online acquisition mechanisms.

At round i the buyer only knows the i-1 previously reported costs, so it
solves the offline problem on the grid ``T_i = {c_1, ..., c_{i-1}, cap}``
with round budget ``xi * B * sqrt(i)`` and applies the continuum extension of
the resulting rule to the arriving report.  Front-loading the per-agent
budget as ``1/sqrt(i)`` is what keeps the final estimator within a constant
factor of the known-costs benchmark while the empirical cost distribution is
still coarse.

Known-costs benchmarks are solved on the true cost multiset augmented with
the cap (the online mechanism can never rule out a cap-cost arrival, so the
fair comparison point carries one extra agent at the cap).
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .allocation import AllocationRule, _calibrate_rows, _myerson, solve_unbiased, worst_case_variance
from .ci_solver import (
    _deployed_policy, _rule_rows, _solve_ci_rows, _table_profile, _variance_sum, _walk_entry, ci_parameters,
    solve_ci,
)
from .errors import InvalidInputError, _positive, _scalar, _whole
from .estimation import CIOutput, bernstein_interval, sample_variance
from .populations import Population
from .virtual_cost import CostSet, _block_edges, _iron_rows, _psi_from_sorted

__all__ = [
    "BudgetSchedule",
    "RoundTranscript",
    "UnbiasedRunResult",
    "CIRunResult",
    "unbiased_schedule",
    "ci_schedule",
    "run_unbiased_online",
    "run_ci_online",
    "benchmark_unbiased",
    "benchmark_ci",
    "unbiased_bound_rhs",
    "ci_bound_rhs",
]

# Grid points per batch of ``_solve_rounds`` and ``_queue_rounds``, counted
# as its rows times its widest row, and table cells per CI walk
# (``_solve_chunk``'s queue), counted as its rows times its most blocks: a
# padded temporary of a batch or a walk stays within 128 KB whatever n,
# unless one grid alone is wider (it is then a batch of its own).  Unbiased
# batches of 2^14 points took no more CPU than 2^15 on ``mc_cached`` and
# ``mc_fresh_unbiased`` (2^13 took about 10% more on the latter), and cut
# their peaks from 2.82 to 1.93 MB and from 2.66 to 1.56 MB.  On the CI task
# at 2^13, 2^14 and 2^15, a seed-1 ``mc_fresh_ci`` call took a median 11.8,
# 9.4 and 10.3 ms of CPU and peaked at 1.21, 1.65 and 2.54 MB traced; 4 runs
# of 1,000 continuous costs at gamma 0.1 took 251, 167 and 137 ms and peaked
# at 1.80, 2.88 and 4.77 MB (2-core Xeon VM, Python 3.11.7, numpy 2.4.6).
_BATCH_POINTS = 2**14

# Rounds per chunk of runs that read no round cache (``_chunk_bounds``),
# every Monte Carlo chunk among them.  A chunk holds about 20 arrays of one
# entry per round besides one solve batch, so this bound sets what many runs
# cost.  2,000 unbiased runs of continuous costs at n = 100 peaked at 5.76 MB
# traced with chunks of 2^15 rounds, 4.18 MB with 2^14, 2.96 MB with 2^13 and
# 2.34 MB with 2^12 (batches of 2^15 points), with the same CPU time down to
# 2^13 and about 10% more at 2^12; with today's batches they peak at 1.92 MB
# at 2^13, and as many runs of five tied costs at 1.90 MB.  Both benchmark
# calls on continuous costs (5 x 1000 and 10 x 100 rounds) fit in one chunk.
_CHUNK_ROUNDS = 2**13


@dataclass(frozen=True)
class BudgetSchedule:
    """Total budget and the square-root front-loading coefficient.

    Raises:
        InvalidInputError: unless the total budget is a finite number
            ``>= 0`` and ``xi`` a finite number ``> 0``.
    """

    total_budget: float
    xi: float

    def __post_init__(self):
        object.__setattr__(self, "total_budget", _scalar(self.total_budget, "total_budget", 0.0))
        object.__setattr__(self, "xi", _positive(self.xi, "xi"))

    def per_round(self, i):
        """The budget ``xi * B * sqrt(i)`` of round ``i``, or of each round of
        the array ``i``."""
        return self.xi * self.total_budget * np.sqrt(i)


def unbiased_schedule(n: int, total_budget: float) -> BudgetSchedule:
    """Schedule for the unbiased task: xi = 1 / (4 sqrt(n)).

    Raises:
        InvalidInputError: unless ``n`` is a whole number of at least 1 and
            the total budget a finite number ``>= 0``.
    """
    n = _scalar(n, "n", 1, convert=_whole)
    return BudgetSchedule(total_budget=total_budget, xi=1.0 / (4.0 * math.sqrt(n)))


def ci_schedule(n: int, total_budget: float) -> BudgetSchedule:
    """Schedule for the confidence-interval task: xi = 1 / (16 sqrt(n)).

    A deployed CI round spends at most twice its budget ``B``:
    ``sum_k A_eff_k P_k <= 2 B`` over the round's grid.  The solver binds
    ``sum_k (1 - U_k) A_k psi_k <= B``.  Deployment keeps an agent only when
    ``U_k < 1/2`` and then buys at ``A_eff_k = A_k <= 2 (1 - U_k) A_k``;
    ignored agents get ``A_eff_k = 0``.  Virtual costs on a sorted grid are
    non-negative, ``psi_k = c_k + (k - 1)(c_k - c_{k-1}) >= 0``, and the
    payment identity for the monotone ``A_eff`` gives
    ``sum A_eff P = sum A_eff psi <= 2 sum (1 - U) A psi <= 2 B``.  This xi
    is a quarter of the unbiased task's, which more than covers the factor 2.

    Raises:
        InvalidInputError: as ``unbiased_schedule``.
    """
    n = _scalar(n, "n", 1, convert=_whole)
    return BudgetSchedule(total_budget=total_budget, xi=1.0 / (16.0 * math.sqrt(n)))


@dataclass(frozen=True)
class RoundTranscript:
    """One round's offer, decisions and accounting."""

    round_index: int
    cost: float
    grid: tuple
    alloc: float
    payment_offer: float
    ignored: bool
    purchased: bool
    observed: float
    y: float
    paid: float
    flagged: bool = False


@dataclass(frozen=True)
class UnbiasedRunResult:
    """Final estimator and accounting of one unbiased online run."""

    estimate: float
    total_paid: float
    flagged: int
    transcripts: list = field(default_factory=list)


@dataclass(frozen=True)
class CIRunResult:
    """Final interval and accounting of one confidence-interval online run."""

    interval: CIOutput
    total_paid: float
    ignored_count: int
    flagged: int
    transcripts: list = field(default_factory=list)


def _batch_bounds(widths):
    """Split rows of the given widths, in order, into ``(lo, hi)`` runs of at
    most ``_BATCH_POINTS`` padded points (rows times the widest row); a row
    wider than that is a batch alone."""
    bounds = []
    lo = widest = 0
    for hi, width in enumerate(widths):
        widest = max(widest, width)
        if hi > lo and (hi + 1 - lo) * widest > _BATCH_POINTS:
            bounds.append((lo, hi))
            lo, widest = hi, width
    if lo < len(widths):
        bounds.append((lo, len(widths)))
    return bounds


def _chunk_bounds(count, n):
    """Split ``count`` runs of ``n`` rounds, in order, into ``(lo, hi)``
    chunks of at most ``_CHUNK_ROUNDS`` rounds; a chunk holds at least one run."""
    size = int(max(1, min(count, _CHUNK_ROUNDS // n)))
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _solve_rounds(costs, sizes, budgets, beta, at=None):
    """Solve a batch of rounds, one per row of the 2-D ``costs``.

    Row ``r`` is a sorted grid of ``sizes[r]`` costs with round budget
    ``budgets[r]``, padded by repeating its last cost.  Every step runs on
    all rows together: virtual costs, ironing, the solve and payments.
    Returns the batch's 2-D arrays that offers read, row ``r`` valid in its
    first ``sizes[r]`` columns: ``(A, payments)``, or ``(A, ignored,
    payments)`` for the CI task (``beta`` not None).  The unbiased task
    calibrates (``_calibrate_rows``) and prices the batch at once; the CI
    task queues the batch (``_queue_rounds``) and flushes that queue at once
    (``_flush_ci``), as a chunk of runs does once its queue is full.

    ``at``, if not None, gives each CI row's report position: a row whose
    report is ignored at the floor on the ignored mass, or at the walk's
    mass, is neither calibrated nor priced (the first is not walked either),
    and offers ``(0, True, NaN)`` throughout, what the full solve offers
    there but its raw ``A``.  With ``at`` None every row is solved whole,
    as a round cache and transcripts read it.  The unbiased task reads no
    ``at``.
    """
    if beta is None:
        if min(budgets) <= 0:
            raise InvalidInputError("unbiased rounds need a positive budget")
        psi = _psi_from_sorted(costs)
        alloc, _, _ = _calibrate_rows(_iron_rows(psi, sizes)[0], psi, None, budgets, sizes)
        return alloc, _myerson(costs, alloc)
    offers = np.zeros(costs.shape), np.ones(costs.shape, dtype=bool), np.full(costs.shape, math.nan)
    kept, entry = _queue_rounds(costs, sizes, budgets, beta, at)
    if entry is not None:
        for rows, parts in _flush_ci([(kept, entry)], beta, costs.__getitem__):
            for out, part in zip(offers, parts):
                out[rows] = part
    return offers


def _queue_rounds(costs, sizes, budgets, beta, at=None):
    """The first stage of the CI solve of a batch of rounds, laid out as
    for ``_solve_rounds``: virtual costs and ironing, then ``_walk_entry``
    on the ironing's own blocks, which screens at the floor on the ignored
    mass (with ``at``) and builds the walk entry of the rows it keeps.
    Returns ``(kept, entry)``, the batch rows kept and their entry, or
    ``(kept, None)`` where no row is kept."""
    phi, bounds = _iron_rows(_psi_from_sorted(costs), sizes)
    return _walk_entry(phi, _block_edges(bounds, sizes), sizes, budgets, beta, at)


def _flush_ci(queue, beta, grids):
    """The offers of the rows of a queue of ``(ids, entry)`` pairs, an entry
    of ``_queue_rounds`` with the caller's ids of its kept rows; the queue
    is emptied.

    One ``_walk`` call walks every queued row and drops those whose report
    its mass ignores (``_solve_ci_rows``).  The rows it keeps are
    calibrated, kink pass included (``_rule_rows``), and priced
    (``_deployed_policy``) in ``_batch_bounds`` batches, one batch unless
    their grids pass ``_BATCH_POINTS`` points.  A batch's rows are rebuilt
    from its grids, ``grids(ids)`` as padded 2-D costs: ``phi`` from the
    walk table's blocks (``_table_profile``), and ``psi`` from the costs.
    Yields ``(ids, (A, ignored, payments))`` per batch, one row per id.
    """
    ids = np.concatenate([part for part, _ in queue])
    entries = [entry for _, entry in queue]
    queue.clear()
    kept, (mass, slack, block_size, block_phi, sizes, budgets) = _solve_ci_rows(entries, beta)
    ids = ids[kept]
    for lo, hi in _batch_bounds(sizes.tolist()):
        costs = grids(ids[lo:hi])
        psi = _psi_from_sorted(costs)
        phi, edges = _table_profile(block_size[lo:hi], block_phi[lo:hi], sizes[lo:hi], costs.shape[1])
        alloc, _, _, u, _ = _rule_rows(phi, psi, sizes[lo:hi], budgets[lo:hi].tolist(), edges,
                                       mass[lo:hi], slack[lo:hi])
        yield ids[lo:hi], (alloc,) + _deployed_policy(costs, alloc, u)


def _screen_slack(m):
    """Relative slack by which a computed unbiased rule on a grid of at most
    ``m`` points may exceed the offer bound of the purchase screen.

    On a sorted grid ``c_0 <= ... <= c_{m-1}`` the virtual costs
    ``psi_k = (k+1) c_k - k c_{k-1}`` are non-negative, and the rule ``A``
    is non-increasing, constant on each ironed block, and spends
    ``sum_k A_k psi_k <= B`` with ``A_k = min(1, lam / sqrt(phi_k))`` on the
    ironed costs ``phi``.  The bound is ``A_idx (idx c_idx + sqrt(c_idx) S)
    <= B`` at every position ``idx``, where ``S = sum_{k >= idx} sqrt(c_k)``.
    Let ``hi`` end the block of ``idx``; in exact arithmetic:

    1. Up to ``hi`` the ``psi`` sum to ``(hi+1) c_hi`` and each has ``A_k
       >= A_idx``, so they spend at least ``A_idx (hi+1) c_hi``.
    2. Above ``hi`` the blocks are whole, so they spend ``sum_k A_k phi_k``,
       and ``A_k phi_k = sqrt(phi_k) min(sqrt(phi_k), lam) >= A_idx
       sqrt(phi_idx phi_k)``, since ``phi_k >= phi_idx`` and ``A_idx
       sqrt(phi_idx) = min(sqrt(phi_idx), lam)``.
    3. A block ``lo..hi`` averages ``((hi+1) c_hi - lo c_{lo-1}) / (hi-lo+1)
       >= c_hi``, so ``phi_k >= c_k`` and ``phi_idx >= c_hi >= c_idx``.
    4. ``(hi+1) c_hi >= idx c_idx + sum_{idx <= k <= hi} sqrt(c_idx c_k)``,
       as ``c_idx <= c_hi`` and ``sqrt(c_idx c_k) <= c_hi`` for ``k <= hi``.

    Together ``B >= A_idx ((hi+1) c_hi + sum_{k > hi} sqrt(c_idx c_k)) >=
    A_idx (idx c_idx + sqrt(c_idx) S)``.  As ``S >= (m - idx) sqrt(c_idx)``,
    this is never looser than ``A_idx m c_idx <= B``, and on ``m`` equal
    costs it is that bound, met with equality when the budget buys less
    than all of them.

    The computed rule meets it up to rounding: each computed ``psi_k`` is
    off by a few ulps of ``(k+1) c_k <= m psi_k``; a pooled block's average
    is a difference of prefix sums of at most ``m c_hi`` for a block sum of
    at least ``c_hi``, so the computed ``phi`` is off by a relative few
    times ``m^2`` ulps; and the calibration's prefix sums add a few times
    ``m`` ulps.  The screen's ``S`` sums at most ``m`` non-negative roots,
    each correctly rounded, so it is off by a relative ``m`` ulps at most,
    and the product and sum that form the bound add a few more.  So the
    computed offer exceeds the computed bound by a relative ``O(m^2 eps)``;
    the factor 64 covers those few-ulp constants with room to spare.
    """
    return 64 * m * m * sys.float_info.epsilon


def _ruled_out(coin, below, top, root, roots, budget, widen):
    """Whether the purchase screen rules out a purchase in a round, for
    scalars or arrays of rounds alike: ``below`` is the report's position
    ``idx`` in the round's sorted grid (the count of grid costs below it),
    ``top`` the grid cost ``c_idx`` there and ``root`` its square root,
    ``roots`` the sum ``S`` of the square roots of the grid costs at
    positions ``idx..m-1``, cap included, ``budget`` the round budget
    ``B_i`` and ``widen`` one plus ``_screen_slack``.  Callers pass
    ``root``, so the loop's Python floats need no numpy call.

    A round buys when its coin is below the offer ``A_idx``, and an
    unbiased round that does not buy neither pays nor adds to the estimate.
    The offer is at most ``B_i / (idx c_idx + sqrt(c_idx) S)``
    (``_screen_slack``), so a round whose coin is at or above that bound,
    widened by the slack, need not be solved.  Rounds with budget ``B_i <=
    0``, which ``_solve_rounds`` rejects, are never ruled out, nor are
    rounds at a zero cost.  Callers keep the screen off on the CI task,
    whose interval counts every round's ignore decision (there the solve
    drops the rounds whose report it ignores: at the floor on the ignored
    mass before the outer walk, and at the walk's mass after it), and in
    runs that record transcripts, which show every round's offer.
    """
    return (budget > 0) & (coin * (below * top + root * roots) >= budget * widen)


def _run_cached(costs_seq, data_seq, coins, cap, schedule, gamma, cache, record):
    """One online run in arrival order, with purchase coins ``coins``, that
    reads and adds to the round cache ``cache``: the unbiased task if
    ``gamma`` is None, else the confidence-interval task at confidence
    ``gamma``.  Only the public runners' ``cache=`` comes here; every other
    run, Monte Carlo included, goes through ``_run_chunk``, with the same
    bits.

    Every round not flagged solves its rule on the grid of earlier reports
    plus the cap, or takes it from ``cache``, keyed by the grid tuple as
    transcripts show it.  An entry is the round's key (slot 0),
    ``_solve_rounds``' arrays for the round (slots 1-3: ``A``, then
    ``ignored`` on the CI task, then the payments), and the budget and the
    CI ``beta`` (None for the unbiased task) it was solved for.  A hit
    solved for another budget or ``beta`` is solved again: the same grid
    recurs at a later round after a flagged arrival, and a shared cache may
    have served a run at another ``gamma``.

    No round's grid depends on a purchase, so one pass looks every round up
    and reads the hits' offers, then ``_solve_chunk`` solves the misses, as
    a chunk of one run whose rounds are each their own key, and the cache
    gets copies of their rows in round order; ``_settle`` makes the
    purchases.  The purchase screen (``_ruled_out``, on for the unbiased
    task without transcripts) applies to the misses: a miss it rules out is
    not solved and not cached, and offers nothing.  Hits read their cached
    offer.
    """
    n = costs_seq.size
    ci = gamma is not None
    beta = ci_parameters(gamma, n).beta if ci else None
    screen = not ci and not record
    # every grid of the run has at most n + 1 points
    widen = 1.0 + _screen_slack(n + 1)
    budgets = schedule.per_round(np.arange(1, n + 1))
    budget_list = budgets.tolist()
    coin_list = coins.tolist()
    offers = _no_offers((1, n))
    alloc, ignored, price = (out[0] for out in offers)
    lookup = cache.get
    grid: list[float] = [cap]
    sizes = [0] * n
    missed = {}  # round -> grid key, for the rounds still to be solved
    for i, cost in enumerate(costs_seq.tolist()):
        if cost > cap:
            continue
        key = tuple(grid)
        at = bisect.bisect_left(grid, cost)
        budget = budget_list[i]
        entry = lookup(key)
        if entry is not None and entry[-2:] == (budget, beta):
            alloc[i] = entry[1][at]
            if ci:
                ignored[i] = entry[2][at]
            # an ignored agent's price is NaN: its effective allocation is zero
            price[i] = entry[-3][at]
        # the screen's root sum S, for the misses it tests only; it adds in
        # another order than ``_prefix_ranks``, and the slack covers both
        elif not (screen and _ruled_out(coin_list[i], at, grid[at], math.sqrt(grid[at]),
                                        sum(map(math.sqrt, grid[at:])), budget, widen)):
            sizes[i], missed[i] = len(grid), key
        bisect.insort(grid, cost)
    if missed:
        solve = np.zeros((1, n), dtype=bool)
        solve[0, list(missed)] = True
        # the grid of a round with m points is the first m of these
        arrivals = np.concatenate(([cap], costs_seq[~(costs_seq > cap)]))[None]

        def store(rounds, parts):
            # copies, so a cached rule holds its own row and not the whole batch
            for r, i in enumerate(rounds.tolist()):
                key = missed[i]
                cache[key] = (key, *(part[r, :sizes[i]].copy() for part in parts), budget_list[i], beta)

        solved = _solve_chunk(arrivals, np.array(sizes, dtype=np.intp)[None], costs_seq[None],
                              budgets, np.arange(n)[None], solve, beta, store)
        for out, part in zip(offers, solved):
            out[solve] = part[solve]
    return _settle(costs_seq[None], data_seq[None], coins[None], cap, gamma, record, offers)[0]


def _result(y, total_paid, flagged, ignored_count, gamma, transcripts):
    """A run's result from its reweighted data ``y`` and its accounting: the
    mean of ``y`` on the unbiased task (``gamma`` None), else the interval."""
    n = y.size
    mean = float(np.mean(y))
    if gamma is None:
        return UnbiasedRunResult(
            estimate=mean, total_paid=total_paid, flagged=flagged, transcripts=transcripts,
        )
    sigma = math.sqrt(sample_variance(y)) if n >= 2 else 0.0
    interval = bernstein_interval(mean, sigma, max(n, 2), gamma, bias_term=ignored_count / n)
    return CIRunResult(
        interval=interval, total_paid=total_paid, ignored_count=ignored_count,
        flagged=flagged, transcripts=transcripts,
    )


def _prefix_ranks(arrivals):
    """Where each entry of each row of the 2-D ``arrivals`` falls among the
    entries before it in its row: ``(below, least, roots)``, the count of
    earlier entries below it, the least earlier entry at or above it, and
    the sum of the square roots of the earlier entries at or above it.

    One stable sort of each row ranks its entries, ties in row order, and an
    entry's query rank is the first rank of its value, so an earlier entry
    is below it exactly when its rank is below that query.  The entries
    before position ``j`` are, over the merge levels ``h = 1, 2, 4, ...``
    where ``j`` lies in the right half of its block of ``2h`` positions, the
    left halves of those blocks.  Each level sorts every left half's keys
    ``block * width + rank`` at once and ``searchsorted``s the right halves'
    queries among them, which counts the left entries below and finds the
    least at or above, for all rows and blocks together: ``O(width log^2
    width)`` per row, with no ``width x width`` array.  The same level sums
    each left half's square roots from the top, one cumulative sum per
    block, and reads the sum at the query's position: every root sum adds
    non-negative terms and is never a difference of prefix sums, so it is
    off by a relative few ``width`` ulps at most.  The first entry of a row
    has no earlier one: its count is 0, its least entry the row's largest
    and its root sum exactly 0, as is the root sum of any entry above all
    earlier ones.
    """
    runs, width = arrivals.shape
    order = np.argsort(arrivals, axis=1, kind="stable")
    ordered = np.take_along_axis(arrivals, order, axis=1)
    rank_roots = np.sqrt(ordered)
    cols = np.arange(width)
    row = np.arange(runs)[:, None]
    rank = np.empty_like(order)
    rank[row, order] = cols
    starts = np.ones(order.shape, dtype=bool)  # where a value's first rank is
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    query = np.empty_like(order)
    query[row, order] = np.maximum.accumulate(np.where(starts, cols, 0), axis=1)
    below = np.zeros_like(order)
    least = np.full_like(order, width - 1)
    roots = np.zeros(arrivals.shape)
    h = 1
    while h < width:
        half = cols // h % 2
        left, right = np.flatnonzero(half == 0), np.flatnonzero(half == 1)
        blocks = -(-width // (2 * h))
        base = (row * blocks + left // (2 * h)) * width
        keys = np.sort((base + rank[:, left]).ravel())
        block = row * blocks + right // (2 * h)
        pos = np.searchsorted(keys, (block * width + query[:, right]).ravel()).reshape(block.shape)
        # a block's left keys follow the whole left halves of the blocks before it
        first = row * left.size + right // (2 * h) * h
        below[:, right] += pos - first
        found = keys[np.minimum(pos, keys.size - 1)] - block * width
        least[:, right] = np.minimum(least[:, right], np.where(pos < first + h, found, width - 1))
        # each block's left roots in key order (sorting keeps every block's
        # keys in its own range, so a key less its block's base is its rank),
        # zero-padded to h and summed from the top; column h, read where no
        # left entry is at or above the query, stays 0
        left_roots = np.zeros((runs, blocks, h))
        left_roots.reshape(runs, -1)[:, :left.size] = np.take_along_axis(
            rank_roots, keys.reshape(runs, -1) - base, axis=1)
        sums = np.zeros((runs, blocks, h + 1))
        sums[:, :, :h] = np.cumsum(left_roots[:, :, ::-1], axis=2)[:, :, ::-1]
        roots[:, right] += sums.ravel()[block * (h + 1) + pos - first]
        h *= 2
    return below, np.take_along_axis(ordered, least, axis=1), roots


def _grid_keys(costs, live):
    """Each round's grid key, for runs in the rows of the 2-D ``costs`` (a
    run's reports in arrival order) with ``live`` where a report is not
    flagged: the counts of each distinct live cost of the chunk among the
    run's earlier live reports, as one mixed-radix int64 numeral.  The cap
    and flagged reports are never counted.  Value ``j``'s radix ``r_j`` is
    one more than its most copies in any run, and its weight ``r_0 ...
    r_{j-1}``, so two rounds of the chunk get equal keys exactly when their
    grids (the cap and those reports) are equal.  Where ``prod r_j`` would
    pass 2^63 the numeral may not fit in int64, and each round is its own key.

    The classes come from sorts, neighbour comparisons and ``searchsorted``:
    a plain ``np.unique`` imports ``numpy.ma``, about 1 MB of resident memory.
    """
    runs, n = costs.shape
    values = np.sort(costs[live])
    values = values[np.diff(values, prepend=-np.inf) > 0]
    d = values.size
    if d >= 64:  # every radix is at least 2, so the product passes 2^63
        return np.arange(runs * n).reshape(runs, n)
    classes = np.where(live, np.searchsorted(values, costs), d)  # flagged: class d
    # one run of equal (run, class) pairs per class a run holds, as long as its copies
    pairs = np.sort((np.arange(runs)[:, None] * (d + 1) + classes).ravel())
    starts = np.flatnonzero(np.diff(pairs, prepend=-1))
    radix = np.ones(d + 1, dtype=np.int64)
    np.maximum.at(radix, pairs[starts] % (d + 1), np.diff(np.append(starts, pairs.size)) + 1)
    weights, total = [], 1
    for r in radix[:d].tolist():
        weights.append(total)
        total *= r
        if total > 2**63:
            return np.arange(runs * n).reshape(runs, n)
    weight = np.append(np.array(weights, dtype=np.int64), 0)[classes]
    return np.cumsum(weight, axis=1) - weight


def _plan_chunk(costs, coins, cap, schedule, screen):
    """Plan the rounds of runs that read no round cache, one run per row of
    the 2-D ``costs`` (its reports in arrival order) and ``coins``.

    Returns ``(arrivals, sizes, idx, tops, budgets, keys, solve)``.
    ``arrivals`` holds each run's cap, then its reports not above the cap in
    arrival order, then its flagged ones, so the grid of a round with ``m``
    points is the first ``m`` entries of its run's row.  The rest is per
    round, in arrival order: the grid's size ``m``, the purchase screen's
    position ``idx = bisect_left(grid, c)`` of the report ``c`` and grid
    cost ``grid[idx]`` at it, the budget ``xi * B * sqrt(i)`` (one row for
    every run), the grid's key (``_grid_keys``: equal for two rounds of the
    chunk exactly when their grids are) and whether the round is solved:
    not flagged, and, with ``screen``, not ruled out by the purchase
    screen.  Only the screen ranks the reports (``_prefix_ranks``, whose
    root sums ``S`` over ``grid[idx:]`` it reads too), so without
    ``screen`` ``idx`` and the grid costs are None; the solve looks each
    position up in its grid (``_solve_chunk``).  A flagged round's ``m``,
    ``idx``, grid cost and key mean nothing.
    """
    runs, n = costs.shape
    live = ~(costs > cap)
    # flagged reports go behind the rest of their row: no grid holds them
    moved = np.argsort(~live, axis=1, kind="stable")
    arrivals = np.empty((runs, n + 1))
    arrivals[:, 0] = cap
    arrivals[:, 1:] = np.take_along_axis(costs, moved, axis=1)
    sizes = np.cumsum(live, axis=1) - live + 1
    budgets = schedule.per_round(np.arange(1, n + 1))
    solve, below, tops = live, None, None
    if screen:
        ranks = _prefix_ranks(arrivals)
        below, tops, roots = (np.empty((runs, n), dtype=part.dtype) for part in ranks)
        for out, part in zip((below, tops, roots), ranks):
            np.put_along_axis(out, moved, part[:, 1:], axis=1)
        widen = 1.0 + _screen_slack(n + 1)
        solve = live & ~_ruled_out(coins, below, tops, np.sqrt(tops), roots, budgets, widen)
    return arrivals, sizes, below, tops, budgets, _grid_keys(costs, live), solve


def _batch_grids(arrivals, rounds, sizes, n):
    """The padded grids of a batch of rounds, given as flat round indices of
    runs of ``n`` rounds, in order of their grid sizes ``sizes``.  A batch of
    grids at most ``W`` wide sorts each of its runs' first ``W`` arrivals
    once, stably, as ``insort`` orders ties; a row's grid is its run's sorted
    first ``m`` of them, padded with the cap at the end, and never a row of
    the whole run."""
    size, width = sizes[:, None], int(sizes[-1])
    run = rounds // n
    present = np.zeros(arrivals.shape[0], dtype=bool)
    present[run] = True
    held = arrivals[present, :width]
    order = np.argsort(held, axis=1, kind="stable")
    slot = np.cumsum(present)[run] - 1
    costs = np.full((rounds.size, width), arrivals[0, 0])
    # the held arrivals in the order of ``order``, a stable sort of values
    costs[np.arange(width) < size] = np.take_along_axis(held, order, axis=1)[slot][order[slot] < size]
    return costs


def _positions(costs, rows, values):
    """``bisect_left`` of each of ``values`` in its row ``rows`` of the
    padded batch of grids ``costs``: the count of the row's costs below it.
    A grid is padded with its cap, which is never below a report, so the
    count is the grid's own.  The lookups compare in slices of as many as
    the batch has rows, so each temporary holds at most one batch of floats
    and one of booleans."""
    found = np.empty(rows.size, dtype=np.intp)
    step = costs.shape[0]
    for lo in range(0, rows.size, step):
        found[lo:lo + step] = np.add.reduce(costs[rows[lo:lo + step]] < values[lo:lo + step, None], axis=1)
    return found


def _solve_chunk(arrivals, sizes, reports, budgets, keys, solve, beta, store=None, drop=False):
    """Offers ``(alloc, ignored, price)`` of a chunk's planned rounds (see
    ``_plan_chunk``), per round, given the ``reports`` (2-D, in arrival
    order); a round not solved offers ``(0, False, NaN)``, which buys
    nothing.  ``store``, if given, is called with the flat indices of rounds
    solved together and their arrays, one row per round: after each batch
    on the unbiased task (``_solve_rounds``' arrays), and after each
    calibration of a flush on the CI task (``_flush_ci``'s).  With ``drop``,
    a CI row's report position goes to ``_queue_rounds``, so a row ignored
    there, at the floor on the ignored mass or at the walk's mass, offers
    ``(0, True, NaN)`` unpriced; a store or a transcript needs whole rows,
    so neither drops.

    The rounds to solve fall into groups of one key and one round index: one
    grid and one budget.  A group's members are sorted by report cost, so
    its first member has its lowest report position; the group solves its
    row there, and every member reads its offer from that row at its own
    position.  A position is ``bisect_left`` on the grid, looked up once per
    distinct report cost of a group (``_positions``): on continuous costs
    that compares a batch's grid points once, and on tied costs at most as
    many times as the chunk has distinct costs.  Ignoring fills a grid from
    the top, so a dropped row is one where every member's report is
    ignored; a kept member that is itself ignored offers ``(A, True, NaN)``,
    which buys nothing, as ``(0, True, NaN)`` does.

    The groups, sorted by grid size so that a batch pads little, go in
    ``_batch_bounds`` batches of ``_batch_grids``.  An unbiased batch is
    solved and priced at once (``_solve_rounds``).  A CI batch is ironed and
    screened at the floor (``_queue_rounds``), and the walk entries of its
    rows wait in a queue, which holds no grid row.  The queue is flushed
    (``_flush_ci``: one walk, then the calibration and pricing of the rows
    it keeps, rebuilt from their grids) before an entry would take it past
    ``_BATCH_POINTS`` table cells, and at the chunk's end.  Each batch's or
    flush's offers are gathered from its arrays with one ``take`` per array.
    A batch's arrays live until the next batch replaces them: freeing them
    first lets the allocator return the heap top, and the next batch faults
    its pages in again.
    """
    runs, n = solve.shape
    alloc, ignored, price = _no_offers((runs, n))
    rounds = np.flatnonzero(solve)
    key, widths, report = (part.ravel()[rounds] for part in (keys, sizes, reports))
    # by width, then group, then report cost: each group's first member has its lowest position
    order = np.lexsort((report, rounds % n, key, widths))
    rounds, key, widths, report = (part[order] for part in (rounds, key, widths, report))
    first = np.ones(rounds.size, dtype=bool)
    first[1:] = (key[1:] != key[:-1]) | (rounds[1:] % n != rounds[:-1] % n)
    group = np.cumsum(first) - 1
    starts = np.append(np.flatnonzero(first), rounds.size)
    # one position lookup per distinct (group, report cost), and each member's lookup
    distinct = first.copy()
    distinct[1:] |= report[1:] != report[:-1]
    lookups = np.flatnonzero(distinct)
    lookup = np.cumsum(distinct) - 1
    at = np.empty(rounds.size, dtype=np.intp)  # each member's report position in its grid
    solved, widths = rounds[first], widths[first]
    outs = (alloc, price) if beta is None else (alloc, ignored, price)

    def offer(members, rows, parts):
        # each member reads its row of ``parts`` at its flat position in the C-ordered arrays
        flat = rows * parts[0].shape[1] + at[members]
        for out, part in zip(outs, parts):
            np.put(out, rounds[members], part.take(flat))

    def flush(queue):
        def grids(groups):
            return _batch_grids(arrivals, solved[groups], widths[groups], n)

        for groups, parts in _flush_ci(queue, beta, grids):
            # the members of the sorted ``groups``, each reading its group's row
            chosen = np.zeros(solved.size, dtype=bool)
            chosen[groups] = True
            members = np.flatnonzero(chosen[group])
            offer(members, np.searchsorted(groups, group[members]), parts)
            if store is not None:
                store(solved[groups], parts)

    if beta is not None:
        ignored[solve] = True  # what a row dropped unpriced offers: (0, True, NaN)
    queue, held, most = [], 0, 0  # the queued rows, and the most blocks of one
    for lo, hi in _batch_bounds(widths.tolist()):
        batch = solved[lo:hi]
        costs = _batch_grids(arrivals, batch, widths[lo:hi], n)
        members = slice(starts[lo], starts[hi])
        pairs = lookups[lookup[starts[lo]]:lookup[starts[hi] - 1] + 1]
        at[members] = _positions(costs, group[pairs] - lo, report[pairs])[lookup[members] - lookup[starts[lo]]]
        batch_budgets = budgets[batch % n].tolist()
        if beta is None:
            parts = _solve_rounds(costs, widths[lo:hi], batch_budgets, None, None)
            offer(members, group[members] - lo, parts)
            if store is not None:
                store(batch, parts)
            continue
        kept, entry = _queue_rounds(costs, widths[lo:hi], batch_budgets, beta,
                                    at[starts[lo:hi]] if drop else None)
        if entry is None:
            continue
        blocks = entry[0].shape[2] - 1
        if queue and (held + kept.size) * max(most, blocks) > _BATCH_POINTS:
            flush(queue)
            held = most = 0
        queue.append((lo + kept, entry))
        held, most = held + kept.size, max(most, blocks)
    if queue:
        flush(queue)
    return alloc, ignored, price


def _run_chunk(costs, data, coins, cap, schedule, gamma, record):
    """Runs that read no round cache, one per row of the 2-D ``costs`` and
    ``data`` (a run's reports and data in arrival order) and ``coins`` (its
    purchase coins, one per round), for the task of ``gamma`` as in
    ``_run_cached``; a list of their results.

    Three array steps serve every round of the chunk together: the plan
    (``_plan_chunk``: grids, budgets, grid keys and the purchase screen),
    the solve (``_solve_chunk``, once per distinct grid and round, with the
    CI rounds walked together once per queue flush) and the settlement
    (``_settle``).  So a chunk holds its runs' per-round arrays, one batch
    and, on the CI task, a queue of walk entries at a time.  Without
    transcripts a round's offer matters only where it can buy: the screen
    is on for the unbiased task, and the CI task drops the rounds whose
    report is ignored at the floor on the ignored mass before they are
    queued, and those the walk ignores before they are calibrated.
    """
    n = costs.shape[1]
    ci = gamma is not None
    beta = ci_parameters(gamma, n).beta if ci else None
    arrivals, sizes, _, _, budgets, keys, solve = _plan_chunk(
        costs, coins, cap, schedule, not ci and not record)
    offers = _solve_chunk(arrivals, sizes, costs, budgets, keys, solve, beta, drop=ci and not record)
    return _settle(costs, data, coins, cap, gamma, record, offers)


def _no_offers(shape):
    """Offer arrays ``(alloc, ignored, price)`` of the given shape, each
    round's ``(0, False, NaN)``: the offer that buys nothing."""
    return np.zeros(shape), np.zeros(shape, dtype=bool), np.full(shape, math.nan)


def _settle(costs, data, coins, cap, gamma, record, offers):
    """The results of runs whose rounds all have their offers, for the task
    of ``gamma``: one run per row of the 2-D ``costs``, ``data``, ``coins``
    and of each of the offer arrays ``(alloc, ignored, price)``.  Every path
    settles here, with or without a round cache.

    A round buys when it is not ignored and its coin is below its offer
    ``A``, and then ``y = z / A`` and it pays its price.  A run's spend is
    the last of the running sums of its rounds' payments in round order,
    and its estimate the mean of its ``y``, or the interval around it.
    Transcripts, when recorded, are built from the settled arrays.
    """
    alloc, ignored, price = offers
    bought = ~ignored & (coins < alloc)
    y = np.zeros(costs.shape)
    np.divide(data, alloc, out=y, where=bought)
    paid = np.where(bought, price, 0.0)
    # a sum from 0.0 in round order; the 0.0 only sets the sign of a zero total
    spends = (np.add.accumulate(paid, axis=1)[:, -1] + 0.0).tolist()
    flagged = (costs > cap).sum(axis=1).tolist()
    ignored_counts = ignored.sum(axis=1).tolist()
    return [
        _result(y[r], spends[r], flagged[r], ignored_counts[r], gamma,
                _transcripts(costs[r], data[r], cap, alloc[r], ignored[r], price[r], bought[r], y[r])
                if record else [])
        for r in range(len(costs))
    ]


def _transcripts(costs, data, cap, alloc, ignored, price, bought, y):
    """One run's round transcripts from its settled per-round arrays."""
    grid = [cap]
    transcripts = []
    rows = zip(costs.tolist(), data.tolist(), alloc.tolist(), ignored.tolist(),
               price.tolist(), bought.tolist(), y.tolist())
    for i, (cost, z, a, ignore, p, purchased, value) in enumerate(rows, 1):
        flagged = cost > cap
        transcripts.append(RoundTranscript(
            round_index=i, cost=cost, grid=tuple(grid), alloc=a, payment_offer=p,
            ignored=ignore, purchased=purchased, observed=z if purchased else 0.0, y=value,
            paid=p if purchased else 0.0, flagged=flagged,
        ))
        if not flagged:
            bisect.insort(grid, cost)
    return transcripts


def _run_population(population, schedule, gamma, rng_seed, cap, record, cache):
    """One run over a population in its given order, for both public runners:
    ``_run_cached`` with a round cache, else ``_run_chunk`` as a chunk of one."""
    cap = population.cap if cap is None else _scalar(cap, "cap", 0.0)
    if np.isscalar(rng_seed):
        rng_seed = _scalar(rng_seed, "rng_seed", 0, convert=_whole)
    try:
        # a Generator comes back as it is
        rng = np.random.default_rng(rng_seed)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"invalid rng_seed {rng_seed!r}: {exc}") from exc
    costs, data = population.costs, population.data
    coins = rng.random(costs.size)
    if cache is not None:
        return _run_cached(costs, data, coins, cap, schedule, gamma, cache, record)
    return _run_chunk(costs[None], data[None], coins[None], cap, schedule, gamma, record)[0]


def run_unbiased_online(
    population: Population,
    schedule: BudgetSchedule,
    rng_seed,
    cap: float | None = None,
    record_transcripts: bool = True,
    cache: dict | None = None,
) -> UnbiasedRunResult:
    """Run the unbiased mechanism over the population in its given order.

    Reports above the cap are declined and flagged: the agent is skipped with
    y = 0, which voids unbiasedness, so the flag is surfaced in the result.

    ``cache``, if given, is a dict of solved rounds keyed by grid tuple that
    the run reads and adds to, and that may be shared between runs; the run
    then looks its rounds up one by one.  With ``cache`` None the run is planned,
    solved and settled as arrays, stores nothing and holds only its
    per-round arrays and one batch of rounds at a time; both give the same
    bits.

    ``record_transcripts=True``, the default, keeps each round's grid tuple
    in its transcript, so the result grows as O(n^2): 35.8 MB at n = 3000
    with continuous costs (tracemalloc), against a 2.9 MB peak with False.
    Pass False for long runs.  With False, a round bought with probability
    ``A`` at most ``B_i / (idx c_idx + sqrt(c_idx) S)`` (its budget over a
    sum over its grid: ``c_idx`` is the grid cost at the report's position
    ``idx`` and ``S`` the sum of the square roots of the grid costs from
    there up, cap included) whose purchase coin lands at or above that bound
    is neither solved nor cached: it cannot buy, and the estimate and the
    spend come out the same bits.  On continuous costs that skips about 93%
    of the rounds.

    Raises:
        InvalidInputError: unless ``rng_seed`` is a whole number ``>= 0``
            or another seed ``np.random.default_rng`` takes (None, a
            ``SeedSequence``, a sequence of whole numbers ``>= 0`` or a
            ``Generator``, used as it is), and ``cap``, if given, a finite
            number ``>= 0``.
    """
    return _run_population(population, schedule, None, rng_seed, cap, record_transcripts, cache)


def run_ci_online(
    population: Population,
    schedule: BudgetSchedule,
    gamma: float,
    rng_seed,
    cap: float | None = None,
    record_transcripts: bool = True,
    cache: dict | None = None,
) -> CIRunResult:
    """Run the confidence-interval mechanism over the population in order.

    Ignore decisions round the solved rule at 1/2 into a deterministic
    indicator (ties ignore); the interval's upper endpoint carries the
    resulting bias allowance ``(# ignored) / n``.

    ``cache``, if given, is a dict of solved rounds keyed by grid tuple that
    the run reads and adds to, and that may be shared between runs; the run
    then looks its rounds up one by one.  With ``cache`` None the run is planned,
    solved and settled as arrays, stores nothing and holds only its
    per-round arrays and one batch of rounds at a time; both give the same
    bits.

    ``record_transcripts=True``, the default, keeps each round's grid tuple
    in its transcript, so the result grows as O(n^2): 35.8 MB at n = 3000
    with continuous costs (tracemalloc), against a 2.9 MB peak with False.
    Pass False for long runs.  Every round not flagged finds its ignored
    mass; with False and ``cache`` None, a round whose report that mass
    already ignores is not calibrated or priced, as it buys nothing and
    only its ignore decision enters the interval.  On 10 runs of 100 costs
    uniform on [0, 25] at budget 150, that skipped 944 of 1,000 rounds.

    Raises:
        InvalidInputError: as ``run_unbiased_online``.
    """
    return _run_population(population, schedule, gamma, rng_seed, cap, record_transcripts, cache)


def _augmented(costs, cap: float) -> CostSet:
    return CostSet(costs=np.append(np.sort(costs), cap), cap=cap)


def benchmark_unbiased(costs, cap: float, budget: float) -> tuple[AllocationRule, float]:
    """Known-costs benchmark: optimal rule on the cap-augmented cost set.

    Returns the rule over the n+1 augmented costs and its worst-case variance
    (the objective at the all-ones data assignment over the n+1 points).
    """
    aug = _augmented(costs, cap)
    rule = solve_unbiased(aug, budget)
    return rule, worst_case_variance(rule, aug)


def benchmark_ci(costs, cap: float, budget: float, gamma: float):
    """Known-costs CI benchmark on the cap-augmented set.

    Returns ``((rule, ignore), l_star)`` where ``l_star`` is the worst-case
    expected length ``beta * sqrt((1/m) sum (1-U)/A) + M/m`` of ``solve_ci``'s
    rule, with ``beta = 2 alpha_gamma / sqrt(m)`` and m = n + 1.  That rule
    minimises the squared surrogate ``beta^2 (1/m) sum (1-U)/A + (M/m)^2``,
    not this length, so ``l_star`` is at most ``sqrt(2)`` times the shortest
    relaxed rule's length (see ``solve_ci``).
    """
    aug = _augmented(costs, cap)
    m = len(aug)
    beta = ci_parameters(gamma, m).beta
    rule, ignore = solve_ci(aug, budget, beta)
    variance_term = _variance_sum(rule.probabilities, ignore.u_values)
    l_star = beta * math.sqrt(variance_term / m) + ignore.total_mass / m
    return (rule, ignore), l_star


def unbiased_bound_rhs(n: int, var_star: float, alloc_at_cap: float) -> float:
    """Guaranteed variance ceiling of the online mechanism vs the benchmark.

    Raises:
        InvalidInputError: unless ``n`` is a whole number of at least 1,
            ``var_star`` a finite number ``>= 0`` and ``alloc_at_cap`` a
            probability in ``(0, 1]``.
    """
    n = _scalar(n, "n", 1, convert=_whole)
    var_star = _scalar(var_star, "var_star", 0.0)
    alloc_at_cap = _positive(alloc_at_cap, "alloc_at_cap", 1.0)
    return 16.0 * (
        (1.0 + 1.0 / n) ** 2 * var_star
        + 1.0 / n
        + (1.0 / (n * math.sqrt(n))) / alloc_at_cap
    )


def ci_bound_rhs(n: int, l_star: float) -> float:
    """Guaranteed mean-length ceiling of the online CI vs the benchmark.

    The vanishing remainder term is replaced by the fixed audit constant
    ``1/sqrt(n)``.

    Raises:
        InvalidInputError: unless ``n`` is a whole number of at least 1 and
            ``l_star`` a finite number ``>= 0``.
    """
    n = _scalar(n, "n", 1, convert=_whole)
    l_star = _scalar(l_star, "l_star", 0.0)
    root10 = math.sqrt(10.0)
    return 8.0 * root10 * l_star + 2.0 * root10 / math.sqrt(n) + 1.0 / math.sqrt(n)
