"""Exact solvers for desk-scale verification.

Both oracles wrap one depth-first branch and bound (``_search``) over the
full assignment space (one introduction period or NEVER per item), so
results are ground truth the approximation pipeline is checked against.
The budget still counts that whole space, ``(T+1)^n`` assignments.  A
subtree is cut only when an admissible bound (``_Bound``, over the 0/1
knapsack rows of ``knapsack_rows``, which also bound the cluster DP's rows
in ``general``) proves it holds no answer the plain enumeration would
take, so the answers are those of the enumeration.  The search validates
its input, then runs in integer units (``model.integer_units``): Python int
arithmetic is an order of magnitude faster than Fraction churn in these
inner loops.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .model import Instance, Solution, integer_units, validate

DEFAULT_BUDGET = 2_000_000
# Most cells in one knapsack row (``knapsack_rows``); past it, weights and
# capacities are floored by a common divisor.
KNAPSACK_CELLS = 2**10


class BudgetExceeded(RuntimeError):
    def __init__(self, required: int, budget: int, what: str = "enumeration of {} states"):
        super().__init__(f"{what.format(required)} exceeds budget {budget}")
        self.required = required
        self.budget = budget


def _check_budget(instance: Instance, budget: int) -> None:
    """Raise BudgetExceeded when the assignment space, ``(T+1)^n``, exceeds the budget."""
    required = (instance.horizon + 1) ** instance.n
    if required > budget:
        raise BudgetExceeded(required, budget)


def add_item(row: list[int], profit: int, weight: int) -> list[int]:
    """The 0/1 knapsack row of ``row``'s items and one more item: entry c
    is the most profit packing at most c of weight."""
    return row[:weight] + [max(keep, take + profit) for keep, take in zip(row[weight:], row)]


def knapsack_rows(groups: list[list[tuple[int, int]]], capacity: int) -> tuple[int, list[list[int]]]:
    """(g, rows): ``rows[k][c // g]`` bounds from above the 0/1 knapsack
    optimum of the items of ``groups[k:]`` at weight c, 0 <= c <= capacity.

    Rows are built back to front, one item at a time (``add_item``), so
    ``rows[len(groups)]`` is all zeros.  g is the least divisor that keeps a
    row within ``KNAPSACK_CELLS`` cells; every weight is floored by it, and a
    set of weight at most c floors to at most c // g, so a row is never below
    the true optimum, and it is exact when g = 1.
    """
    g = capacity // KNAPSACK_CELLS + 1
    row = [0] * (capacity // g + 1)
    rows = [row]
    for group in reversed(groups):
        for p, w in group:
            row = add_item(row, p, w // g)
        rows.append(row)
    return g, rows[::-1]


class _Bound:
    """Upper bound on the objective that items i..n-1 can still add.

    Period t can pack at most the residual capacity ``r_t``, the least slack
    of periods t..T (an item packed at t stays packed), so its packed profit
    from items i..n-1 is at most KP_i(r_t), the 0/1 knapsack optimum of
    those items at ``r_t``.  ``at`` bounds a node by sum_t lambda_t *
    rows[i][r_t // g], the rows of ``knapsack_rows`` over the item suffixes,
    built once at the root; floored past ``KNAPSACK_CELLS`` cells, they only
    loosen the bound.
    """

    def __init__(self, scaled: Instance):
        self.lambdas = scaled.lambdas
        self.g, self.rows = knapsack_rows([[item] for item in scaled.items], scaled.capacities[-1])

    def at(self, i: int, residual: list[int]) -> int:
        """The bound for items i.. given ``residual[t-1] = r_t``."""
        row, g = self.rows[i], self.g
        return sum(lam * row[r // g] for lam, r in zip(self.lambdas, residual))


def _residuals(caps: tuple[int, ...], cum: list[int]) -> list[int]:
    """r_t = least slack ``caps[tau-1] - cum[tau]`` over tau = t..T, by t."""
    out = list(caps)
    least = None
    for t in range(len(caps), 0, -1):
        slack = caps[t - 1] - cum[t]
        if least is None or slack < least:
            least = slack
        out[t - 1] = least
    return out


def _search(
    instance: Instance, budget: int, phi: Optional[Fraction] = None
) -> Optional[tuple[Fraction, Fraction, Solution]]:
    """(profit, weight, solution) of the last leaf taken, or None if none was.

    A node is cut when its profit plus a bound falls below ``floor`` or its
    packed weight reaches ``cutoff``, and a leaf is taken when its profit
    meets ``floor``.  To maximize (``phi`` None), ``floor`` starts at 0 and
    each taken leaf raises it to its profit + 1; for phi, ``floor`` is the
    least int profit meeting phi and each taken leaf lowers ``cutoff``,
    which starts above every weight, to its weight.  Children are visited
    period by period, NEVER last.
    """
    validate(instance)
    _check_budget(instance, budget)
    horizon = instance.horizon
    n = instance.n
    scaled, value_unit, weight_unit = integer_units(instance)
    contrib = [[p * s for s in scaled.suffix_lambdas.values] for p, _ in scaled.items]
    weights = [w for _, w in scaled.items]
    caps = scaled.capacities
    bound = _Bound(scaled)
    # an int profit meets phi iff it meets phi's ceiling in value units
    floor = 0 if phi is None else math.ceil(Fraction(phi) * value_unit)
    cutoff = sum(weights) + 1
    best: Optional[tuple[int, int, tuple[Optional[int], ...]]] = None
    cur: list[Optional[int]] = [None] * n
    cum = [0] * (horizon + 1)  # cum[t] = packed weight at period t

    def rec(i: int, profit: int) -> None:
        nonlocal floor, cutoff, best
        if cum[horizon] >= cutoff:
            return
        if i == n:
            if profit >= floor:
                best = (profit, cum[horizon], tuple(cur))
                if phi is None:
                    floor = profit + 1
                else:
                    cutoff = cum[horizon]
            return
        residual = _residuals(caps, cum)
        if profit + bound.at(i, residual) < floor:
            return
        w = weights[i]
        for t in range(1, horizon + 1):
            if residual[t - 1] >= w:
                for tau in range(t, horizon + 1):
                    cum[tau] += w
                cur[i] = t
                rec(i + 1, profit + contrib[i][t - 1])
                cur[i] = None
                for tau in range(t, horizon + 1):
                    cum[tau] -= w
        rec(i + 1, profit)

    rec(0, 0)
    if best is None:
        return None
    profit, weight, intro = best
    return Fraction(profit, value_unit), Fraction(weight, weight_unit), Solution(intro)


def exact_opt(instance: Instance, budget: int = DEFAULT_BUDGET) -> tuple[Fraction, Solution]:
    """Maximum objective over all feasible assignments, ties lexicographic.

    NEVER sorts after every period when comparing assignment vectors, so the
    reported optimum is deterministic for golden tests.  A leaf is taken
    only when strictly better, and the first, of profit >= 0, always is; a
    node is cut only when it cannot beat the incumbent, so every leaf before
    the first optimum is strictly worse and no ancestor of it is cut.
    """
    profit, _, solution = _search(instance, budget)
    return profit, solution


def exact_inverse(
    instance: Instance, phi: Fraction, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[Fraction, Solution]]:
    """Minimum total weight achieving objective >= phi, or None if impossible.

    A subtree is cut when it cannot lighten the incumbent or when its
    profit plus the bound falls short of phi, which no accepted leaf does.
    """
    found = _search(instance, budget, phi)
    return None if found is None else found[1:]
