"""Exact solvers for verification: a DP over per-profit count vectors.

Among items of equal profit a lighter one can enter no later than a heavier
one: swapping their periods keeps every period's profit and never raises its
weight (the profit grouping of Kellerer, Pferschy and Pisinger, *Knapsack
Problems*, 2004).  So some optimum packs, per distinct profit, the k lightest
items of that profit, and is a chain of count vectors k_1 <= ... <= k_T, each
within its period's capacity; and a lightest final vector whose chain meets
phi minimises w(S_T).  The vectors form the lattice of counts cut at the
largest capacity, closed downwards.  Period t's value at k is lambda_t times
k's profit plus the best value of period t-1 at or below k, one pass per axis
(the max form of Yates' zeta transform), and that best is kept as period t's
backpointer row.  The DP runs on ``model.integer_units`` alone, with no
rounding or pruning, and shares no code with the solvers it checks.

Budget: lattice cells times T, counted before each axis is built.  A lattice
has at most 2^n cells, and T*2^n <= (T+1)^n once n >= 2, so ``DEFAULT_BUDGET``
admits every instance of two or more items whose (T+1)^n assignments it bounds.

Ties: items of one profit are ordered by weight, then index; cells by count
vector, lexicographically, profits ascending.  Among equal values the first
cell wins, in each best at or below and for ``exact_opt``'s final cell, and
``exact_inverse`` takes the first of the lightest final cells meeting phi.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .model import BudgetExceeded, Instance, Solution, integer_units, validate

# Most lattice cells times periods one DP may hold.
DEFAULT_BUDGET = 2_000_000


def _down_pairs(codes: list[int], radixes: list[int]) -> tuple[array, array]:
    """(cells, downs): axis by axis, each cell with a positive count on the
    axis, in lattice order, beside the cell one count below it there."""
    index = {code: j for j, code in enumerate(codes)}
    cells, downs = array("l"), array("l")
    stride = 1
    for radix in reversed(radixes):
        above = [j for j, code in enumerate(codes) if code // stride % radix]
        cells.extend(above)
        downs.extend([index[codes[j] - stride] for j in above])
        stride *= radix
    return cells, downs


class _CountDP:
    """The count-vector DP of a validated instance, in integer units.

    A cell's code is its count vector in mixed radix, the first profit
    most significant, so lattice order is code order.  ``keys`` holds the
    last period's values and ``back[t-1]`` period t's best at or below each
    cell, both encoded as value * cells + (cells - 1 - cell), so that one
    int comparison takes the larger value and, among equal values, the
    first cell; an unreachable cell holds -1.
    """

    def __init__(self, instance: Instance, budget: int):
        validate(instance)
        scaled, self.value_unit, self.weight_unit = integer_units(instance)
        self.n = scaled.n
        by_profit: dict[int, list[int]] = {}
        for i, (p, _) in enumerate(scaled.items):
            by_profit.setdefault(p, []).append(i)
        profits = sorted(by_profit)
        self.groups = [sorted(by_profit[p], key=lambda i: scaled.items[i][1]) for p in profits]
        self.radixes = [len(group) + 1 for group in self.groups]
        top, horizon = scaled.capacities[-1], scaled.horizon
        codes, weights, values = [0], [0], [0]  # the walk's cells, one column per field
        for p, group, radix in zip(profits, self.groups, self.radixes):
            prefix = list(accumulate((scaled.items[i][1] for i in group), initial=0))
            cuts = [bisect_right(prefix, top - weight) for weight in weights]
            if sum(cuts) * horizon > budget:
                raise BudgetExceeded(sum(cuts) * horizon, budget, "count-vector DP of {} cells times periods")
            codes = [code * radix + k for code, cut in zip(codes, cuts) for k in range(cut)]
            weights = [weight + prefix[k] for weight, cut in zip(weights, cuts) for k in range(cut)]
            values = [value + p * k for value, cut in zip(values, cuts) for k in range(cut)]
        self.codes, self.weights = codes, weights
        size = self.size = len(codes)
        last = size - 1
        cells, downs = _down_pairs(self.codes, self.radixes) if horizon > 1 else ((), ())
        below = [last] * size  # period 0 holds the zero vector alone, at or below every cell
        self.back = []
        for t, (lam, cap) in enumerate(zip(scaled.lambdas, scaled.capacities)):
            if t:
                below = self.keys[:]
                for j, d in zip(cells, downs):
                    if below[d] > below[j]:
                        below[j] = below[d]
            self.back.append(below)
            self.keys = [
                (lam * q + b // size) * size + last - j if w <= cap else -1
                for j, (w, q, b) in enumerate(zip(weights, values, below))
            ]

    def solution(self, cell: int) -> Solution:
        """The chain of backpointers ending at ``cell`` in period T: the k-th
        lightest item of a profit enters at the first period whose count
        reaches k."""
        chain = []
        for below in reversed(self.back):
            chain.append(self.codes[cell])
            cell = self.size - 1 - below[cell] % self.size
        intro: list[Optional[int]] = [None] * self.n
        for t, code in enumerate(reversed(chain), start=1):
            for group, radix in zip(reversed(self.groups), reversed(self.radixes)):
                code, k = divmod(code, radix)
                for i in group[:k]:
                    if intro[i] is None:
                        intro[i] = t
        return Solution(tuple(intro))


def exact_opt(instance: Instance, budget: int = DEFAULT_BUDGET) -> tuple[Fraction, Solution]:
    """Maximum objective over all feasible assignments, ties as the module states."""
    dp = _CountDP(instance, budget)
    key = max(dp.keys)
    return Fraction(key // dp.size, dp.value_unit), dp.solution(dp.size - 1 - key % dp.size)


def exact_inverse(
    instance: Instance, phi: Fraction, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[Fraction, Solution]]:
    """Minimum total weight achieving objective >= phi, or None if impossible."""
    dp = _CountDP(instance, budget)
    # an int value meets phi iff it meets phi's ceiling in value units; a
    # reachable cell's key is at least 0, and -1 marks the others
    threshold = max(math.ceil(Fraction(phi) * dp.value_unit), 0) * dp.size
    meets = [(w, j) for j, (w, key) in enumerate(zip(dp.weights, dp.keys)) if key >= threshold]
    if not meets:
        return None
    weight, cell = min(meets)
    return Fraction(weight, dp.weight_unit), dp.solution(cell)
