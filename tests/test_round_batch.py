"""The batched round solver against the per-grid code it replaced.

``_pav_loop``, ``_calibrate_ref``, ``_myerson_ref``, the per-grid CI solve
(``_phi_blocks`` to ``_solve_ci_arrays``) and the two round functions below
are the former single-grid implementations, kept verbatim as references: a
batch of rounds must give every round the same bits as solving its grid
alone did.
"""

import bisect
import math

import numpy as np
import pytest

from surveymech import CostSet, ci_solver, online_runner, regularize, solve_ci
from surveymech.ci_solver import _deployed_policy, _solve_ci_rows, ci_parameters
from surveymech.errors import SolverError
from surveymech.online_runner import _batch_bounds, _solve_rounds
from surveymech.virtual_cost import _iron_rows, _psi_from_sorted

CAP = 25.0


def _psi_ref(costs):
    m = costs.size
    idx = np.arange(1.0, m + 1.0)
    prev = np.empty(m)
    prev[0] = 0.0
    prev[1:] = costs[:-1]
    return idx * costs - (idx - 1.0) * prev


def _pav_loop(psi):
    values = psi.tolist()
    m = len(values)
    prefix = [0.0] * (m + 1)
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        prefix[i + 1] = acc
    starts: list[int] = []
    avgs: list[float] = []
    for i in range(m):
        start = i
        avg = values[i]
        while avgs and avg <= avgs[-1]:
            start = starts.pop()
            avgs.pop()
            avg = (prefix[i + 1] - prefix[start]) / (i + 1 - start)
        starts.append(start)
        avgs.append(avg)
    starts.append(m)
    sizes = [starts[j + 1] - starts[j] for j in range(len(avgs))]
    return np.repeat(avgs, sizes)


def _calibrate_ref(phi, psi, weights, budget):
    m = phi.size
    sqrt_phi = np.sqrt(phi)
    w = 1.0 if weights is None else weights
    if float(np.sum(w * psi)) <= budget:
        return np.ones(m), float(sqrt_phi[-1]), True
    pref_wphi = w * phi
    pref_wsqrt = w * sqrt_phi
    np.cumsum(pref_wphi, out=pref_wphi)
    np.cumsum(pref_wsqrt, out=pref_wsqrt)
    total_wsqrt = pref_wsqrt[-1]
    spend_bp = pref_wphi + sqrt_phi * (total_wsqrt - pref_wsqrt)
    j = int(np.searchsorted(spend_bp, budget, side="left"))
    if j >= m:
        return np.ones(m), float(sqrt_phi[-1]), True
    i0 = int(np.searchsorted(sqrt_phi, sqrt_phi[j], side="left"))
    clipped_spend = float(pref_wphi[i0 - 1]) if i0 > 0 else 0.0
    slope = float(total_wsqrt - (pref_wsqrt[i0 - 1] if i0 > 0 else 0.0))
    if slope <= 0:
        raise SolverError("degenerate calibration segment")
    lam = (budget - clipped_spend) / slope
    if phi[0] > 0.0:
        alloc = np.minimum(1.0, lam / sqrt_phi)
    else:
        alloc = np.ones(m)
        pos = phi > 0
        alloc[pos] = np.minimum(1.0, lam / sqrt_phi[pos])
    return alloc, float(lam), False


# The per-grid CI solve calibrates with the per-grid reference.
_calibrate = _calibrate_ref


def _phi_blocks(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end (exclusive) indices of maximal equal-phi blocks."""
    change = np.flatnonzero(np.diff(phi) != 0) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [phi.size]))
    return starts, ends


def _ignore_profile(phi: np.ndarray, starts: np.ndarray, ends: np.ndarray, mass: float):
    """Per-cost ignore probabilities of mass ``mass``, filled from the top.

    Blocks are ignored in full from the top down until less mass is left
    than the next block holds; that block is ignored in the fraction of its
    size that is left.  Nothing is ignored at mass zero.
    """
    sizes = (ends - starts).tolist()
    u = np.zeros(phi.size)
    top = len(sizes)
    rem = mass
    while rem > 0 and top > 0:
        top -= 1
        if rem < sizes[top]:
            u[starts[top]:ends[top]] = rem / sizes[top]
            u[ends[top]:] = 1.0
            return u
        rem -= sizes[top]
    if top < len(sizes):
        u[starts[top]:] = 1.0
    return u


def _rule_at_mass(phi, psi, starts, ends, budget, mass):
    """The rule at ignored mass ``mass``: fill it from the top, then calibrate.

    Returns ``(alloc, lam, saturated, u)``.
    """
    u = _ignore_profile(phi, starts, ends, mass)
    return _calibrate(phi, psi, 1.0 - u, budget) + (u,)


def _optimal_mass(phi, starts, ends, budget, beta):
    """Smallest minimizer of the outer objective over ignored mass in [0, m]:
    the scalar reference walk, one Python iteration per step, that
    ``ci_solver._walk`` must match bit for bit.

    ``F(M) = s V(M) + (M/m)^2`` with ``s = beta^2/m``.  While the budget
    binds, the live blocks below ``j`` are clipped at A = 1 and
    ``V = K + S1^2 / (B - C)``: ``K`` and ``C`` are the size and spend of the
    clipped blocks and ``S1`` the sum of ``w * size * sqrt(phi)`` over the
    rest, linear in ``M``.  So ``F`` is a convex quadratic on each piece, with
    right slope ``-2s / A_top + 2M/m^2``.  A piece ends when the top live
    block runs out, when ``lam = (B - C)/S1`` reaches ``sqrt(phi_j)``, or when
    the live spend reaches ``B``; from there on the budget is slack and
    ``F = s (m - M) + (M/m)^2``.  Walks the pieces upward and returns
    ``(mass, slack)``: the first point whose right slope is >= 0, and whether
    the budget is slack there.
    """
    m = phi.size
    sizes = ends - starts
    block_phi = phi[starts]
    block_sqrt = np.sqrt(block_phi)
    spend_below = np.concatenate(([0.0], np.cumsum(sizes * block_phi)))
    sqrt_below = np.concatenate(([0.0], np.cumsum(sizes * block_sqrt)))
    # lowest block not clipped at M = 0, as in the calibration's breakpoint scan
    spend_at_breakpoints = spend_below[:-1] + block_sqrt * (sqrt_below[-1] - sqrt_below[:-1])
    j = int(np.searchsorted(spend_at_breakpoints, budget))
    sizes, block_phi, block_sqrt = sizes.tolist(), block_phi.tolist(), block_sqrt.tolist()
    spend_below, sqrt_below = spend_below.tolist(), sqrt_below.tolist()
    s = beta * beta / m
    inv_m2 = 1.0 / (m * m)
    slack_root = min(float(m), 0.5 * beta * beta * m)  # zero of -s + 2M/m^2
    top = len(sizes) - 1
    live = float(sizes[top])
    above = 0  # mass of the blocks above ``top``, all ignored
    while top >= 0:
        mass = above + (sizes[top] - live)
        live_spend = spend_below[top] + live * block_phi[top]
        if live_spend <= budget or j > top:
            return max(mass, slack_root), True
        to_slack = (live_spend - budget) / block_phi[top]
        event = min(live, to_slack)
        room = budget - spend_below[j]
        if room > 0:  # else lam = 0 and the slope is -inf up to the event
            s1 = sqrt_below[top] - sqrt_below[j] + live * block_sqrt[top]
            a = s * block_sqrt[top] / room
            if mass * inv_m2 >= a * s1:
                return mass, False
            step = (a * s1 - mass * inv_m2) / (a * block_sqrt[top] + inv_m2)
            if j < top:
                event = min(event, (s1 - room / block_sqrt[j]) / block_sqrt[top])
            if step < event:
                return mass + step, False
        if event == to_slack:
            return max(mass + event, slack_root), True
        if event < live:
            # lam reached sqrt(phi_j): advance j explicitly, since recomputing
            # lam at this point can stall on rounding
            live -= event
            j += 1
        else:
            above += sizes[top]
            top -= 1
            live = float(sizes[top])
    return float(m), True


def _solve_ci_arrays(phi, psi, budget, beta):
    """Full CI solve on raw arrays; returns ``(alloc, lam, saturated, u, mass)``."""
    starts, ends = _phi_blocks(phi)
    mass, slack = _optimal_mass(phi, starts, ends, budget, beta)
    rule = _rule_at_mass(phi, psi, starts, ends, budget, mass)
    # On the saturation kink the calibration's own spend sum decides: step up
    # until it agrees the budget is slack (rule[2], ``saturated``), so the
    # rule is the right-hand one.
    step = math.ulp(float(phi.size))
    while slack and not rule[2] and mass < phi.size:
        mass = min(float(phi.size), mass + step)
        step *= 2.0
        rule = _rule_at_mass(phi, psi, starts, ends, budget, mass)
    return rule + (mass,)


def _myerson_ref(costs, alloc):
    m = costs.size
    tail = np.empty(m)
    tail[-1] = 0.0
    if m > 1:
        contrib = alloc[1:] * np.diff(costs)
        tail[:-1] = np.cumsum(contrib[::-1])[::-1]
    return costs + np.divide(tail, alloc, out=np.full(m, np.nan), where=alloc > 0)


def _unbiased_round_ref(grid, budget):
    costs = np.asarray(grid)
    psi = _psi_ref(costs)
    phi = _pav_loop(psi)
    alloc, _, _ = _calibrate_ref(phi, psi, None, budget)
    return alloc, _myerson_ref(costs, alloc)


def _ci_round_ref(grid, budget, beta, monkeypatch):
    """The round's ``(A, ignored, payments)`` and whether the per-grid
    solve stepped up from the sweep's mass onto the saturation kink."""
    costs = np.asarray(grid)
    psi = _psi_ref(costs)
    phi = _pav_loop(psi)
    with monkeypatch.context() as patch:
        patch.setattr(ci_solver, "_myerson", _myerson_ref)
        alloc, _, _, u, mass = _solve_ci_arrays(phi, psi, budget, beta)
        ignored, payments = _deployed_policy(costs, alloc, u)
    stepped = mass != _optimal_mass(phi, *_phi_blocks(phi), budget, beta)[0]
    return (alloc, ignored, payments), stepped


def _run_grids(costs):
    """The grid of every round of a run whose arrivals are ``costs``."""
    grid = [CAP]
    grids = []
    for c in costs.tolist():
        grids.append(tuple(grid))
        bisect.insort(grid, c)
    return grids


# Cost families whose float arithmetic is exact where costs tie (integers,
# quarters, a lone exact value), plus continuous costs with no ties.
FAMILIES = {
    "continuous_m1000": lambda rng: rng.uniform(0.0, CAP, 1000),
    "continuous_small": lambda rng: rng.uniform(0.0, CAP, 150),
    "integer_ties": lambda rng: rng.integers(0, 6, 200).astype(float),
    "quarter_ties_and_zeros": lambda rng: np.where(
        rng.random(200) < 0.3, 0.0, rng.integers(0, 17, 200) / 4.0),
    "zeros_and_continuous": lambda rng: np.where(
        rng.random(150) < 0.4, 0.0, rng.uniform(0.0, 3.0, 150)),
    "single_cost": lambda rng: np.full(120, 3.0),
    "cap_ties": lambda rng: np.where(rng.random(150) < 0.5, CAP, rng.uniform(0.0, CAP, 150)),
    "two_point": lambda rng: np.where(rng.random(200) < 0.9, 1.0, 20.0),
}


def _family_grids(name, seed):
    rng = np.random.default_rng(seed)
    costs = FAMILIES[name](rng)
    grids = _run_grids(costs)
    # Round budgets on both sides of saturation: a share of the grid's full
    # virtual spend, above 1 for about a third of the rounds.
    shares = rng.uniform(0.02, 1.5, len(grids))
    budgets = [float(s * np.sum(_psi_ref(np.asarray(g)))) for s, g in zip(shares, grids)]
    return grids, budgets


def _batches(grids, budgets):
    for lo, hi in _batch_bounds([len(g) for g in grids]):
        batch = grids[lo:hi]
        sizes = np.array([len(g) for g in batch])
        width = int(sizes.max())
        costs = np.array([g + (g[-1],) * (width - len(g)) for g in batch])
        yield batch, costs, sizes, budgets[lo:hi]


def _rows(parts, sizes):
    """Each row of a batch as the tuple of its slices of ``_solve_rounds``' arrays."""
    return [tuple(part[r, :m] for part in parts) for r, m in enumerate(sizes.tolist())]


def test_batch_bounds_split_rows_in_order_within_the_point_bound():
    rng = np.random.default_rng(3)
    # a CI batch holds half the points of an unbiased one
    for ci, bound in ((False, online_runner._BATCH_POINTS), (True, online_runner._BATCH_POINTS // 2)):
        assert _batch_bounds([], ci) == []
        cases = [[1], [bound + 5], [bound, bound, 1], list(range(1, 1002)),
                 rng.integers(1, 3 * bound // 100, 500).tolist()]
        for widths in cases:
            bounds = _batch_bounds(widths, ci)
            assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
            assert bounds[-1][1] == len(widths)
            for lo, hi in bounds:
                points = (hi - lo) * max(widths[lo:hi])
                assert hi > lo and (points <= bound or hi == lo + 1)
                # greedy: the next row would not have fitted
                if hi < len(widths):
                    assert (hi + 1 - lo) * max(widths[lo:hi + 1]) > bound
        assert _batch_bounds([2, bound // 2 + 1, 2], ci) == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ironing_rows_match_pav_loop(family):
    grids, budgets = _family_grids(family, seed=7)
    for batch, costs, sizes, _ in _batches(grids, budgets):
        phi = _iron_rows(_psi_from_sorted(costs), sizes)
        for r, grid in enumerate(batch):
            psi = _psi_ref(np.asarray(grid))
            ref = _pav_loop(psi)
            assert np.array_equal(phi[r, :len(grid)], ref), (family, len(grid))
            assert np.all(phi[r, len(grid):] == 0.0)
            assert np.array_equal(regularize(psi), ref)


def test_ironing_long_decreasing_runs_match_pav_loop():
    # A strictly decreasing run pools into one block in one pass, and that
    # block then takes one more element of the rising ramp before it per
    # pass: the most passes a row of its length can need.  Rows of a few such
    # ramp-and-drop pairs, of different lengths, in one padded batch.
    rng = np.random.default_rng(17)
    rows = []
    for _ in range(12):
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            low = float(rng.uniform(0.0, 50.0))
            ramp = np.sort(rng.uniform(low + 10.0, low + 20.0, int(rng.integers(50, 300))))
            drop = np.sort(rng.uniform(low, low + 10.0, int(rng.integers(200, 600))))[::-1]
            parts += [ramp, drop]
        row = np.concatenate(parts)
        assert np.all(np.diff(drop) < 0)
        rows.append(row)
    sizes = np.array([row.size for row in rows])
    psi = np.full((len(rows), int(sizes.max())), 3.0)
    for r, row in enumerate(rows):
        psi[r, :row.size] = row
    phi = _iron_rows(psi, sizes)
    for r, row in enumerate(rows):
        assert _bits(phi[r, :row.size]) == _bits(_pav_loop(row)), r
        assert np.all(phi[r, row.size:] == 0.0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unbiased_batch_matches_per_grid_rounds(family):
    grids, budgets = _family_grids(family, seed=11)
    for batch, costs, sizes, batch_budgets in _batches(grids, budgets):
        solved = _rows(_solve_rounds(costs, sizes, batch_budgets, None), sizes)
        for grid, budget, got in zip(batch, batch_budgets, solved):
            ref = _unbiased_round_ref(grid, budget)
            assert len(got) == 2
            for part, want in zip(got, ref):
                assert np.array_equal(part, want, equal_nan=True), (family, len(grid), budget)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ci_batch_matches_per_grid_rounds(family, monkeypatch):
    grids, budgets = _family_grids(family, seed=13)
    beta = ci_parameters(0.9, len(grids)).beta
    # CI round budgets run 16x below the unbiased schedule; keep a few at 0.
    budgets = [0.0 if k % 17 == 0 else b / 4.0 for k, b in enumerate(budgets)]
    step = 3 if len(grids) > 500 else 1  # the per-grid reference is slow at m ~ 1000
    stepped = 0
    for batch, costs, sizes, batch_budgets in _batches(grids, budgets):
        solved = _rows(_solve_rounds(costs, sizes, batch_budgets, beta), sizes)
        for k in range(0, len(batch), step):
            ref, ref_stepped = _ci_round_ref(batch[k], batch_budgets[k], beta, monkeypatch)
            stepped += ref_stepped
            assert len(solved[k]) == 3
            for part, want in zip(solved[k], ref):
                assert np.array_equal(part, want, equal_nan=True), (family, len(batch[k]))
    if family == "continuous_small":
        # the kink passes are exercised, so the comparison covers them
        assert stepped > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ci_rows_dropped_at_their_report_are_ignored_there(family, monkeypatch):
    # With report positions a CI batch drops, after the walk, the rows whose
    # report the walk's mass already ignores.  Each dropped row must be
    # ignored at its position by the full solve, and each kept row must get
    # the full solve's bits, at a random, the lowest and the top position.
    grids, budgets = _family_grids(family, seed=29)
    kept = []
    solve_ci_rows = online_runner._solve_ci_rows

    def spy(*args):
        out = solve_ci_rows(*args)
        kept.append(out[0])
        return out

    monkeypatch.setattr(online_runner, "_solve_ci_rows", spy)
    rng = np.random.default_rng(29)
    dropped = total = 0
    for gamma, n, scale in ((0.9, len(grids), 0.25), (0.5, 20, 1.0), (0.99, 1000, 0.05)):
        beta = ci_parameters(gamma, n).beta
        # slack, binding and zero budgets
        scaled = [0.0 if k % 13 == 0 else b * scale for k, b in enumerate(budgets)]
        for batch, costs, sizes, batch_budgets in _batches(grids, scaled):
            full = _solve_rounds(costs, sizes, batch_budgets, beta)
            rows = np.arange(len(batch))
            for at in (rng.integers(0, sizes), np.zeros_like(sizes), sizes - 1):
                kept.clear()
                got = _solve_rounds(costs, sizes, batch_budgets, beta, at)
                keep = np.isin(rows, kept[0])
                assert np.all(full[1][rows[~keep], at[~keep]]), (family, gamma)
                alloc, ignored, price = (part[rows[~keep]] for part in got)
                assert np.all(alloc == 0.0) and np.all(ignored) and np.all(np.isnan(price))
                for r in rows[keep].tolist():
                    m = sizes[r]
                    for part, want in zip(got, full):
                        assert _bits(part[r, :m]) == _bits(want[r, :m]), (family, gamma, r)
                dropped += int(np.sum(~keep))
                total += len(batch)
    # not vacuous: some rows are dropped and some kept
    assert 0 < dropped < total


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _padded(rows):
    """A padded batch of ``(phi, psi)`` rows: phi 0 and psi junk past each row."""
    sizes = np.array([phi.size for phi, _ in rows])
    phi = np.zeros((len(rows), int(sizes.max())))
    psi = np.full(phi.shape, 7.0)
    for r, (row_phi, row_psi) in enumerate(rows):
        phi[r, :row_phi.size] = row_phi
        psi[r, :row_psi.size] = row_psi
    return phi, psi, sizes


def _rows_solved(rows, budgets, beta):
    """``_solve_ci_rows`` on a padded batch, split into one tuple per row."""
    phi, psi, sizes = _padded(rows)
    kept, alloc, lam, saturated, u, mass = _solve_ci_rows(phi, psi, sizes, budgets, beta)
    assert kept.tolist() == list(range(len(rows)))  # no report positions: every row is kept
    pad = np.arange(phi.shape[1]) >= sizes[:, None]
    assert np.all(alloc[pad] == 1.0) and np.all(u[pad] == 0.0)
    return [(alloc[r, :m], lam[r], saturated[r], u[r, :m], mass[r]) for r, m in enumerate(sizes.tolist())]


def _same_row(got, want):
    alloc, lam, saturated, u, mass = got
    return (_bits(alloc) == _bits(want[0]) and _bits(lam) == _bits(want[1])
            and bool(saturated) == bool(want[2]) and _bits(u) == _bits(want[3])
            and _bits(mass) == _bits(want[4]))


def _ci_instances(seed, count):
    """Seeded cost sets with ties, zero costs and single costs, and budgets, a
    seventh of them 0, from below the cheapest purchase to above saturation."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m = int(rng.integers(1, 60))
        kind = k % 4
        if kind == 0:
            costs = rng.uniform(0.0, CAP, m)
        elif kind == 1:
            costs = rng.integers(0, 6, m).astype(float)
        elif kind == 2:
            costs = np.where(rng.random(m) < 0.4, 0.0, rng.uniform(0.0, 3.0, m))
        else:
            costs = np.full(m, float(rng.integers(0, 4)))
        costs = np.sort(costs)
        share = rng.uniform(0.01, 1.5)
        budget = 0.0 if k % 7 == 0 else float(share * np.sum(_psi_ref(costs)))
        yield costs, budget


def _record_walk_starts(monkeypatch):
    """A list that gets ``(start, counts)`` of every batch ``_solve_ci_rows``
    solves: where each row's walk starts, and its block count."""
    starts = []
    walk_start = ci_solver._walk_start

    def recorded(table, above, counts, *args):
        starts.append((walk_start(table, above, counts, *args), counts))
        return starts[-1][0]

    monkeypatch.setattr(ci_solver, "_walk_start", recorded)
    return starts


def test_ci_rows_match_alone_batched_reversed_and_reference(monkeypatch):
    starts = _record_walk_starts(monkeypatch)
    instances = list(_ci_instances(seed=21, count=4000))
    betas = [ci_parameters(g, n).beta for g, n in ((0.9, 100), (0.95, 20), (0.9, 1000), (0.5, 5))]
    chunk = len(instances) // len(betas)
    for g, beta in enumerate(betas):
        group = instances[g * chunk:(g + 1) * chunk]
        rows = []
        for costs, budget in group:
            psi = _psi_from_sorted(costs)
            rows.append((regularize(psi), psi))
        budgets = [b for _, b in group]
        alone = [_rows_solved([row], [b], beta)[0] for row, b in zip(rows, budgets)]
        batched = []
        for lo, hi in _batch_bounds([phi.size for phi, _ in rows]):
            batched += _rows_solved(rows[lo:hi], budgets[lo:hi], beta)
        # reversed and chunked afresh: other neighbours, another batch width
        rows_back, budgets_back, backwards = rows[::-1], budgets[::-1], []
        for lo, hi in _batch_bounds([phi.size for phi, _ in rows_back]):
            backwards += _rows_solved(rows_back[lo:hi], budgets_back[lo:hi], beta)
        backwards.reverse()
        for k, ((costs, budget), (phi, psi)) in enumerate(zip(group, rows)):
            want = _solve_ci_arrays(phi, psi, budget, beta)
            assert _same_row(alone[k], want), (g, k)
            assert _same_row(batched[k], want), (g, k)
            assert _same_row(backwards[k], want), (g, k)
            rule, ignore = solve_ci(CostSet(costs=costs, cap=CAP), budget, beta)
            touched = np.flatnonzero(want[3] > 0)
            threshold = float(phi[touched[0]]) if touched.size else math.inf
            fraction = float(want[3][touched[0]]) if touched.size else 1.0
            assert _same_row((rule.probabilities, rule.lam, rule.saturated, ignore.u_values,
                              ignore.total_mass), want), (g, k)
            assert _bits(ignore.threshold_phi) == _bits(threshold), (g, k)
            assert _bits(ignore.boundary_fraction) == _bits(fraction), (g, k)
    # The start is not vacuous: some walks skip blocks, some skip every block
    # but the lowest, and some start at the top block.  None skips all of
    # them here; ``test_ci_row_whose_walk_skips_every_block`` pins one that does.
    top, counts = (np.concatenate(part) for part in zip(*starts))
    assert np.all((-1 <= top) & (top < counts))
    assert np.any((0 <= top) & (top < counts - 1))
    assert np.any((top == 0) & (counts > 1))
    assert np.any(top == counts - 1)


def test_ci_rows_kink_row_between_binding_and_zero_budget():
    beta = ci_parameters(0.9, 1000).beta
    # a binding row, a row the per-grid solve steps onto the saturation
    # kink, and a row with no budget, of three widths
    cases = [((1.0, 2.0, 3.0, 25.0), 1.0), ((2.0, 19.0, 25.0), 68.54), ((0.0, 25.0), 0.0)]
    rows = []
    for grid, _ in cases:
        psi = _psi_from_sorted(np.array(grid))
        rows.append((regularize(psi), psi))
    budgets = [b for _, b in cases]
    batched = _rows_solved(rows, budgets, beta)
    for k, ((phi, psi), budget) in enumerate(zip(rows, budgets)):
        want = _solve_ci_arrays(phi, psi, budget, beta)
        assert _same_row(batched[k], want), k
        assert _same_row(_rows_solved([(phi, psi)], [budget], beta)[0], want), k
    (phi0, _), (phi1, _) = rows[:2]
    assert not _optimal_mass(phi0, *_phi_blocks(phi0), budgets[0], beta)[1]  # binding
    assert not batched[0][2]
    mass1, slack1 = _optimal_mass(phi1, *_phi_blocks(phi1), budgets[1], beta)
    assert slack1 and batched[1][4] > mass1 and batched[1][2]  # stepped up, saturated


def test_ci_row_whose_walk_skips_every_block(monkeypatch):
    # With no budget every block of a row is ignored in turn.  At the lowest
    # block the walk tests whether the budget runs out before the block does,
    # as (size * phi) / phi < size; for this pooled block of 7 tied costs the
    # quotient rounds above 7, so the walk drops that block too and ends at
    # M = m, where no start is left for the batch to pick.  Batched with a
    # binding row and a zero-budget row that stops at its lowest block.
    starts = _record_walk_starts(monkeypatch)
    beta = ci_parameters(0.9, 100).beta
    grids = [(5.277499332135033,) * 7 + (CAP,), (1.0, 2.0, 3.0, CAP), (0.1, 0.1, 0.1, CAP)]
    budgets = [0.0, 1.0, 0.0]
    rows = []
    for grid in grids:
        psi = _psi_from_sorted(np.array(grid))
        rows.append((regularize(psi), psi))
    size, phi0 = 7, rows[0][0][0]
    assert size * phi0 / phi0 > size
    batched = _rows_solved(rows, budgets, beta)
    assert starts[0][0].tolist() == [-1, 1, 0]
    assert batched[0][4] == 8.0 and batched[0][2]
    for k, ((phi, psi), budget) in enumerate(zip(rows, budgets)):
        assert _same_row(batched[k], _solve_ci_arrays(phi, psi, budget, beta)), k


def test_ci_walk_that_never_stops_ends_on_its_step_bound(monkeypatch):
    # A step that never stops a row and always advances ``j`` must not spin:
    # the walk ends after its bound of steps and says so.
    walk_step = ci_solver._walk_step

    def never_stops(*args):
        stop, mass, slack, event = walk_step(*args)
        return np.zeros_like(stop), mass, slack, np.full_like(event, -np.inf)

    monkeypatch.setattr(ci_solver, "_walk_step", never_stops)
    psi = _psi_from_sorted(np.array((1.0, 2.0, 3.0, CAP)))
    with pytest.raises(SolverError, match="step bound"):
        _rows_solved([(regularize(psi), psi)], [1.0], ci_parameters(0.9, 100).beta)


def test_float_rounded_ties_iron_within_rounding():
    # Equal costs that are not exactly representable give psi values a few
    # ulps apart, and which of those near-equal blocks pool first depends on
    # the order of the merges, so the stack loop and the pooling passes can
    # end 1 ulp apart there (about 0.15% of such grids).  Pinned: 9 equal
    # costs with psi at [0, 0, 1, -1, 3, -1, -1, -1, -1] ulps from the cost,
    # one block in exact arithmetic (mean -1/9 ulp).  The loop pools them
    # all; the passes pool the last five first, whose prefix-sum average
    # rounds 1 ulp up, and stop at two blocks.
    costs = np.full(9, 7.190655816784962)
    psi = _psi_ref(costs)
    assert np.array_equal((psi - costs) / np.spacing(costs), [0, 0, 1, -1, 3, -1, -1, -1, -1])
    ref = _pav_loop(psi)
    got = regularize(psi)
    assert np.array_equal(ref, costs)
    assert np.array_equal(got, costs + np.spacing(costs) * (np.arange(9) >= 4))
    # A seeded sweep of such ties: the two agree to rounding everywhere.
    rng = np.random.default_rng(5)
    for _ in range(300):
        values = rng.uniform(0.0, 10.0, int(rng.integers(1, 4)))
        grid = np.append(np.sort(rng.choice(values, int(rng.integers(1, 150)))), CAP)
        psi = _psi_ref(grid)
        ref = _pav_loop(psi)
        got = regularize(psi)
        assert np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-15
