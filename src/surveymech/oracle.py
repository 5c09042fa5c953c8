"""Independent brute-force references for validating the closed-form solvers.

``regularize_naive`` evaluates the ironing definition literally in O(m^2).
The grid searches enumerate every monotone rule with entries on a finite
grid, using depth-first search over non-increasing lattice paths.  Subtrees
are pruned only with admissible lower bounds (continuous relaxations of the
remaining suffix, never grid heuristics), so the returned value is the exact
grid optimum; the pruning is purely a complexity guardrail.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidInputError, _scalar, _vector
from .virtual_cost import CostSet, virtual_costs

__all__ = ["regularize_naive", "grid_search_unbiased", "grid_search_ci"]

_MAX_M_UNBIASED = 6
_MAX_M_CI = 4
_CI_A_STEP = 1e-2  # grid step of the allocation A in grid_search_ci
_CI_U_STEP = 0.1  # grid step of the ignore probability U in grid_search_ci


_INV_COUNT_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _inv_counts(m: int) -> tuple[np.ndarray, np.ndarray]:
    """1/(k-i+1) for k >= i plus an additive mask hiding the k < i corner."""
    size = max(m, 200)
    cached = _INV_COUNT_CACHE.get(size)
    if cached is None:
        counts = np.arange(1, size + 1)[None, :] - np.arange(size)[:, None]
        valid = counts > 0
        inv = np.where(valid, 1.0 / np.where(valid, counts, 1), 0.0)
        mask = np.where(valid, 0.0, np.inf)
        _INV_COUNT_CACHE.clear()  # keep just the largest size seen
        _INV_COUNT_CACHE[size] = (inv, mask)
        cached = (inv, mask)
    inv, mask = cached
    return inv[:m, :m], mask[:m, :m]


def regularize_naive(psi) -> np.ndarray:
    """Direct O(m^2) ironing: running max of forward minimum averages.

    Every forward average (prefix-sum difference over count) is materialized
    and reduced, so this is the definition evaluated literally.
    """
    psi = _vector(psi, "psi")
    m = psi.size
    prefix = np.concatenate(([0.0], np.cumsum(psi)))
    sums = prefix[None, 1:] - prefix[:-1, None]  # [i, k] = psi_i + ... + psi_k
    inv, mask = _inv_counts(m)
    averages = sums * inv + mask
    psi_prime = averages.min(axis=1)
    return np.maximum.accumulate(psi_prime)


def _round_down_level(value: float, num_levels: int, step: float) -> int:
    """Largest grid level index (1-based) with index*step <= value, at most num_levels."""
    if not math.isfinite(value):
        return num_levels
    lvl = int(math.floor(value / step + 1e-12))
    return min(lvl, num_levels)


def grid_search_unbiased(cost_set: CostSet, budget: float, step: float):
    """Exact grid optimum of ``min sum 1/A_k`` over monotone feasible rules.

    Entries range over ``{step, 2*step, ..., 1}`` subject to
    ``sum A_k psi_k <= budget`` and monotone non-increasing A.  Depth-first
    over non-increasing levels with the last two entries closed in vector
    form.  The search starts with no incumbent and calls no solver, so it
    stays independent of the closed form it checks.  Returns
    ``(rule, objective)``; the rule is None when no grid rule is feasible.

    Raises:
        InvalidInputError: for m > 6 (combinatorial blowup), a step
            outside {1e-2, 1e-3}, or a budget not a finite number > 0.
    """
    m = len(cost_set)
    if m > _MAX_M_UNBIASED:
        raise InvalidInputError(f"grid search refuses m > {_MAX_M_UNBIASED}")
    step = _scalar(step, "step")
    if not any(math.isclose(step, s) for s in (1e-2, 1e-3)):
        raise InvalidInputError("step must be 1e-2 or 1e-3")
    budget = _scalar(budget, "budget", 0.0)
    if not budget > 0:
        raise InvalidInputError("budget must be positive")
    psi = virtual_costs(cost_set)
    num_levels = round(1.0 / step)

    if float(np.sum(psi)) <= budget:
        return np.ones(m), float(m)

    # Admissible bound: the monotone continuous relaxation with the running
    # cap (only grid-ness dropped), i.e. capped water-filling on the ironing
    # of the remaining suffix.  Ironed costs are non-decreasing, and the
    # spend at the crossing where entry i saturates scales linearly in the
    # cap, so one searchsorted per node resolves the relaxation for every
    # candidate level at once.  The suffix ironing uses the literal O(m^2)
    # definition so the oracle shares no code with the fast solver path.
    min_spend_suffix = np.concatenate((np.cumsum((step * psi)[::-1])[::-1], [0.0]))
    suffix_sorted = []
    for k in range(m):
        tail = psi[k + 1:]
        ironed = regularize_naive(tail) if tail.size else np.empty(0)
        sq = np.sqrt(ironed)
        pref_p = np.concatenate(([0.0], np.cumsum(ironed)))
        suff_sq = np.concatenate((np.cumsum(sq[::-1])[::-1], [0.0]))
        crossings = pref_p[:-1] + sq * suff_sq[:-1] if sq.size else np.empty(0)
        suffix_sorted.append((pref_p, suff_sq, crossings, sq.size))
    feas_eps = budget * 1e-12 + 1e-15

    best_obj = math.inf
    best_levels: np.ndarray | None = None
    levels_stack = np.zeros(m, dtype=np.int64)

    def relaxed_completion(k: int, alloc: np.ndarray, rem: np.ndarray) -> np.ndarray:
        """Capped water-filling value of the suffix past k, per candidate cap."""
        pref_p, suff_sq, crossings, r = suffix_sorted[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            capped = np.searchsorted(crossings, rem / alloc, side="right")
            denom = rem - alloc * pref_p[capped]
            tail = suff_sq[capped]
            value = capped / alloc + np.where(
                tail > 0,
                np.where(denom > 0, tail * tail / np.maximum(denom, 1e-300), math.inf),
                0.0,
            )
        return np.where(rem >= 0, value, math.inf)

    def close_last(levels: np.ndarray, partial: np.ndarray, spent: np.ndarray):
        """Best final entry for each candidate prefix, vectorized."""
        nonlocal best_obj, best_levels
        if psi[m - 1] > 0:
            last = np.floor((budget + feas_eps - spent) / psi[m - 1] / step + 1e-12)
            last = np.minimum(last, levels).astype(np.int64)
        else:
            last = levels
        valid = last >= 1
        if not np.any(valid):
            return None
        obj = np.where(valid, partial + 1.0 / (np.maximum(last, 1) * step), math.inf)
        idx = int(np.argmin(obj))
        return idx, float(obj[idx]), int(last[idx])

    def dfs(k: int, cap_level: int, spent: float, partial: float) -> None:
        nonlocal best_obj, best_levels
        if psi[k] == 0.0:
            # Free entry: the largest admissible level dominates.
            levels_stack[k] = cap_level
            if k == m - 1:
                obj = partial + 1.0 / (cap_level * step)
                if obj < best_obj:
                    best_obj = obj
                    best_levels = levels_stack.copy()
            else:
                dfs(k + 1, cap_level, spent, partial + 1.0 / (cap_level * step))
            return
        max_lvl = _round_down_level(
            (budget + feas_eps - spent - min_spend_suffix[k + 1]) / psi[k], num_levels, step
        )
        max_lvl = min(max_lvl, cap_level)
        if max_lvl < 1:
            return
        levels = np.arange(max_lvl, 0, -1, dtype=np.int64)
        alloc = levels * step
        new_partial = partial + 1.0 / alloc
        if k == m - 1:
            best_here = int(np.argmin(new_partial))  # largest level
            if new_partial[best_here] < best_obj:
                levels_stack[k] = levels[best_here]
                best_obj = float(new_partial[best_here])
                best_levels = levels_stack.copy()
            return
        new_spent = spent + alloc * psi[k]
        if k == m - 2:
            res = close_last(levels, new_partial, new_spent)
            if res is not None:
                idx, obj, last_lvl = res
                if obj < best_obj:
                    levels_stack[k] = levels[idx]
                    levels_stack[m - 1] = last_lvl
                    best_obj = obj
                    best_levels = levels_stack.copy()
            return
        rem = budget - new_spent
        child_value = new_partial + relaxed_completion(k, alloc, rem)
        order = np.argsort(child_value, kind="stable")
        for j in order:
            if child_value[j] >= best_obj:  # best-first: the rest are no better
                break
            levels_stack[k] = levels[j]
            dfs(k + 1, int(levels[j]), float(new_spent[j]), float(new_partial[j]))

    dfs(0, num_levels, 0.0, 0.0)
    if best_levels is None:
        return None, math.inf
    return best_levels * step, float(best_obj)


def _ignore_combos(m: int, u_grid: np.ndarray):
    """All ignore vectors with full discards forming a suffix."""
    for combo in itertools.product(u_grid, repeat=m):
        seen_one = False
        ok = True
        for u in combo:
            if seen_one and u != 1.0:
                ok = False
                break
            if u == 1.0:
                seen_one = True
        if ok:
            yield np.array(combo)


def grid_search_ci(cost_set: CostSet, budget: float, beta: float):
    """Exact grid optimum over (A, U) of the squared surrogate that ``solve_ci``
    minimises, ``beta^2 (1/m) sum (1-U)/A + (sum U / m)^2`` (not the length).

    ``U`` ranges per entry over ``{0, 0.1, ..., 1}`` and ``A`` over the
    monotone grid ``{0.01, 0.02, ..., 1}``; both A and the effective allocation
    ``(1-U) A`` must be monotone non-increasing, and full discards must form
    a suffix (a zero effective allocation cannot be followed by a positive
    one).  Returns ``((A, U), objective)``.

    Raises:
        InvalidInputError: for m > 4, or an invalid budget or ``beta``.
    """
    m = len(cost_set)
    if m > _MAX_M_CI:
        raise InvalidInputError(f"grid search refuses m > {_MAX_M_CI}")
    budget = _scalar(budget, "budget", 0.0)
    beta = _scalar(beta, "beta", 0.0)
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    a_step, u_step = _CI_A_STEP, _CI_U_STEP
    num_levels = round(1.0 / a_step)
    u_grid = np.round(np.arange(0.0, 1.0 + u_step / 2, u_step), 12)
    psi = virtual_costs(cost_set)
    scale = beta * beta / m

    best_obj = math.inf
    best_alloc: np.ndarray | None = None
    best_u: np.ndarray | None = None

    for u in _ignore_combos(m, u_grid):
        weights = 1.0 - u
        bias = (float(np.sum(u)) / m) ** 2
        if bias >= best_obj:
            continue
        live = np.flatnonzero(weights > 0)
        if live.size == 0:
            if bias < best_obj:
                best_obj = bias
                best_alloc = np.ones(m)
                best_u = u.copy()
            continue
        w = weights[live]
        p = psi[live]
        q = w * w  # objective weights for sum q_j / (w_j A_j)
        sqrt_suffix = np.concatenate((np.cumsum(np.sqrt(q * p)[::-1])[::-1], [0.0]))
        min_spend_suffix = np.concatenate(
            (np.cumsum((a_step * w * p)[::-1])[::-1], [0.0])
        )
        mlive = live.size
        feas_eps = budget * 1e-12 + 1e-15
        levels = [0] * mlive
        best_inner = (best_obj - bias) / scale  # remaining allowance for sum (1-U)/A

        def bound(k: int, cap_eff: float, rem_budget: float) -> float:
            s = sqrt_suffix[k]
            lo = 0.0
            if rem_budget > 0:
                lo = s * s / rem_budget
            elif s > 0:
                return math.inf
            cap_bound = float(np.sum(q[k:] / np.minimum(w[k:], cap_eff)))
            return max(lo, cap_bound)

        found: list = []

        def dfs(k: int, prev_a: float, prev_eff: float, spent: float, partial: float):
            nonlocal best_inner, found
            if partial + bound(k, prev_eff, budget - spent) >= best_inner:
                return
            if k == mlive:
                best_inner = partial
                found = levels.copy()
                return
            cap_lvl = _round_down_level(prev_a, num_levels, a_step)
            cap_from_eff = _round_down_level(prev_eff / w[k], num_levels, a_step) if w[k] > 0 else cap_lvl
            max_lvl = min(cap_lvl, cap_from_eff)
            if p[k] > 0:
                max_lvl = min(max_lvl, _round_down_level(
                    (budget + feas_eps - spent - min_spend_suffix[k + 1]) / (w[k] * p[k]),
                    num_levels, a_step,
                ))
            for lvl in range(max_lvl, 0, -1):
                a = lvl * a_step
                new_partial = partial + q[k] / (w[k] * a)
                if new_partial >= best_inner:
                    break
                levels[k] = lvl
                dfs(k + 1, a, w[k] * a, spent + w[k] * a * p[k], new_partial)

        dfs(0, 1.0, math.inf, 0.0, 0.0)
        if found:
            obj = bias + scale * best_inner
            if obj < best_obj:
                alloc = np.empty(m)
                live_alloc = [lvl * a_step for lvl in found]
                alloc[live] = live_alloc
                alloc[live[-1] + 1:] = live_alloc[-1]  # keep reported A monotone past discards
                best_obj = obj
                best_alloc = alloc
                best_u = u.copy()

    if best_alloc is None:
        return (None, None), math.inf
    return (best_alloc, best_u), float(best_obj)
