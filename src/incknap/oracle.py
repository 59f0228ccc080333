"""Exact solvers for desk-scale verification.

Both oracles wrap one depth-first branch and bound (``_search``) over the
full assignment space (one introduction period or NEVER per item), so
results are ground truth the approximation pipeline is checked against.
The budget still counts that whole space, ``(T+1)^n`` assignments.  A
subtree is cut only when an admissible bound (``_Bound``) proves it holds
no answer the plain enumeration would take, so the answers are those of the
enumeration whichever bound is used.  The search validates its input, then
runs in integer units (``model.integer_units``): Python int arithmetic is
an order of magnitude faster than Fraction churn in these inner loops.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .model import Instance, Solution, integer_units, validate

DEFAULT_BUDGET = 2_000_000
# A node the search bounds with ``_Bound.dantzig`` takes about as much time
# as 12-30 cells of the knapsack rows (CPython 3.11, more cells on small
# ints), so building the rows once the search has bounded one node per 10
# cells keeps their cost below that of the search before them.
CELLS_PER_NODE = 10


class BudgetExceeded(RuntimeError):
    def __init__(self, required: int, budget: int, what: str = "enumeration of {} states"):
        super().__init__(f"{what.format(required)} exceeds budget {budget}")
        self.required = required
        self.budget = budget


def _check_budget(instance: Instance, budget: int) -> int:
    """The size of the assignment space, ``(T+1)^n``, once it fits the budget."""
    required = (instance.horizon + 1) ** instance.n
    if required > budget:
        raise BudgetExceeded(required, budget)
    return required


def add_item(row: list[int], profit: int, weight: int) -> list[int]:
    """The 0/1 knapsack row of ``row``'s items and one more item: entry c
    is the most profit packing at most c of weight."""
    return row[:weight] + [max(keep, take + profit) for keep, take in zip(row[weight:], row)]


class _Bound:
    """Upper bound on the objective that items i..n-1 can still add.

    Period t can pack at most the residual capacity ``r_t``, the least slack
    of periods t..T (an item packed at t stays packed), so its packed profit
    from items i..n-1 is at most KP_i(r_t), the 0/1 knapsack optimum of
    those items at ``r_t``.  ``at`` bounds a node by a lambda-weighted sum
    over periods of one of two per-period bounds, both admissible:

    - KP_i(r_t) itself, read off ``rows[i]``, dense over capacities 0..W_T
      and built back to front in one pass (``knapsack_rows``);
    - ``dantzig``: the fractional knapsack at ``r_t``, with the one split
      item's share rounded up.  It is at least KP_i(r_t), so the rows never
      keep a node that it cuts.

    ``at`` builds the rows only if they hold no more cells than the search
    has assignments, (n+1)*(W_T+1) <= (T+1)^n, and only once it has bounded
    one node per ``CELLS_PER_NODE`` cells with ``dantzig``, which it takes
    until then; past that size (large integer weights) ``at`` is
    ``dantzig`` itself.  A search that ends before the rows would pay for
    themselves never builds them.
    ``cheap(i)``, every remaining item packed from period 1, bounds either
    from above at no cost.
    """

    def __init__(self, scaled: Instance, assignments: int):
        self.items = items = scaled.items
        self.lambdas = scaled.lambdas
        self.suffix_1 = scaled.suffix_lambdas.values[0]
        self.width = scaled.capacities[-1] + 1
        cells = (len(items) + 1) * self.width
        # nodes left to bound with ``dantzig`` before the rows are built
        self.wait = -(-cells // CELLS_PER_NODE)
        self.rows: Optional[list[list[int]]] = None
        if cells > assignments:
            self.at = self.dantzig  # the rows could never pay for themselves
        by_density = sorted(range(len(items)), key=lambda j: Fraction(-items[j][0], items[j][1]))
        # per suffix i: its items by density, with cumulative weights and profits
        self.split: list[list[tuple[int, int]]] = []
        self.cum_w: list[list[int]] = []
        self.cum_p: list[list[int]] = []
        for i in range(len(items) + 1):
            split = [items[j] for j in by_density if j >= i]
            self.split.append(split)
            self.cum_w.append([0, *accumulate(w for _, w in split)])
            self.cum_p.append([0, *accumulate(p for p, _ in split)])

    def cheap(self, i: int) -> int:
        return self.suffix_1 * self.cum_p[i][-1]

    def at(self, i: int, residual: list[int]) -> int:
        """The bound for items i.. given ``residual[t-1] = r_t``."""
        if self.rows is None:
            self.wait -= 1
            if self.wait:
                return self.dantzig(i, residual)
            self.rows = self.knapsack_rows()
        row = self.rows[i]
        return sum(lam * row[r] for lam, r in zip(self.lambdas, residual))

    def knapsack_rows(self) -> list[list[int]]:
        """rows[i][c] = KP_i(c) for c = 0..W_T; row i adds item i to row i+1."""
        row = [0] * self.width
        rows = [row]
        for p, w in reversed(self.items):
            row = add_item(row, p, w)
            rows.append(row)
        return rows[::-1]

    def dantzig(self, i: int, residual: list[int]) -> int:
        """sum_t lambda_t * ceil(fractional knapsack of items i.. at r_t)."""
        cum_w, cum_p, split = self.cum_w[i], self.cum_p[i], self.split[i]
        full = len(split)
        total = 0
        for lam, r in zip(self.lambdas, residual):
            if lam:
                k = bisect_right(cum_w, r) - 1
                packed = cum_p[k]
                if k < full:
                    p, w = split[k]
                    packed -= (-p * (r - cum_w[k])) // w
                total += lam * packed
        return total


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
    assignments = _check_budget(instance, budget)
    horizon = instance.horizon
    n = instance.n
    scaled, value_unit, weight_unit = integer_units(instance)
    contrib = [[p * s for s in scaled.suffix_lambdas.values] for p, _ in scaled.items]
    weights = [w for _, w in scaled.items]
    caps = scaled.capacities
    bound = _Bound(scaled, assignments)
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
        if profit + bound.cheap(i) < floor:
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
