"""The batched round solver against the per-grid code it replaced.

``_pav_loop``, ``_calibrate_ref``, ``_myerson_ref`` and the two round
functions below are the former single-grid implementations, kept verbatim as
references: a batch of rounds must give every round the same bits as
solving its grid alone did.
"""

import bisect

import numpy as np
import pytest

from surveymech import ci_solver, regularize
from surveymech.ci_solver import _deployed_policy, _solve_ci_arrays, ci_parameters
from surveymech.errors import SolverError
from surveymech.online_runner import _BATCH_ROWS, _solve_rounds
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
    return costs, alloc, _myerson_ref(costs, alloc)


def _ci_round_ref(grid, budget, beta, monkeypatch):
    # The CI solver itself is unchanged; only its calibration and payment
    # helpers are swapped back for the per-grid ones.
    costs = np.asarray(grid)
    psi = _psi_ref(costs)
    phi = _pav_loop(psi)
    with monkeypatch.context() as patch:
        patch.setattr(ci_solver, "_calibrate", _calibrate_ref)
        patch.setattr(ci_solver, "_myerson", _myerson_ref)
        alloc, _, _, u, _ = _solve_ci_arrays(phi, psi, budget, beta)
        ignored, payments = _deployed_policy(costs, alloc, u)
    return costs, alloc, ignored, payments


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
    for lo in range(0, len(grids), _BATCH_ROWS):
        batch = grids[lo:lo + _BATCH_ROWS]
        sizes = np.array([len(g) for g in batch])
        width = int(sizes.max())
        costs = np.array([g + (g[-1],) * (width - len(g)) for g in batch])
        yield batch, costs, sizes, budgets[lo:lo + _BATCH_ROWS]


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


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unbiased_batch_matches_per_grid_rounds(family):
    grids, budgets = _family_grids(family, seed=11)
    for batch, costs, sizes, batch_budgets in _batches(grids, budgets):
        solved = _solve_rounds(costs, sizes, batch_budgets, None)
        for grid, budget, got in zip(batch, batch_budgets, solved):
            ref = _unbiased_round_ref(grid, budget)
            assert len(got) == 3
            for part, want in zip(got, ref):
                assert np.array_equal(part, want, equal_nan=True), (family, len(grid), budget)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ci_batch_matches_per_grid_rounds(family, monkeypatch):
    grids, budgets = _family_grids(family, seed=13)
    beta = ci_parameters(0.9, len(grids)).beta
    # CI round budgets run 16x below the unbiased schedule; keep a few at 0.
    budgets = [0.0 if k % 17 == 0 else b / 4.0 for k, b in enumerate(budgets)]
    step = 3 if len(grids) > 500 else 1  # the per-grid reference is slow at m ~ 1000
    for batch, costs, sizes, batch_budgets in _batches(grids, budgets):
        solved = _solve_rounds(costs, sizes, batch_budgets, beta)
        for k in range(0, len(batch), step):
            ref = _ci_round_ref(batch[k], batch_budgets[k], beta, monkeypatch)
            assert len(solved[k]) == 4
            for part, want in zip(solved[k], ref):
                assert np.array_equal(part, want, equal_nan=True), (family, len(batch[k]))


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
