"""Exact solvers for desk-scale verification.

Every solver here is a depth-first branch and bound over the full
assignment space (one introduction period or NEVER per item), so results
are ground truth the approximation pipeline is checked against.  The
budget still counts that whole space, ``(T+1)^n`` assignments.  A subtree
is cut only when a Dantzig bound proves it holds no answer the plain
enumeration would take, so the answers are those of the enumeration.  The
searches run on the instance in integer units (``model.integer_units``)
because Python int arithmetic is an order of magnitude faster than
Fraction churn in these inner loops.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .model import Instance, Solution, integer_units

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    def __init__(self, required: int, budget: int, what: str = "enumeration of {} states"):
        super().__init__(f"{what.format(required)} exceeds budget {budget}")
        self.required = required
        self.budget = budget


def _check_budget(instance: Instance, budget: int) -> None:
    required = (instance.horizon + 1) ** instance.n
    if required > budget:
        raise BudgetExceeded(required, budget)


class _Bound:
    """Upper bound on the objective that items i..n-1 can still add.

    Period t can pack at most the residual capacity ``r_t``, the least slack
    of periods t..T (an item packed at t stays packed).  Its packed profit
    from items i..n-1 is at most the fractional knapsack of those items at
    ``r_t`` (Dantzig), with the one split item's share rounded up so the
    bound stays an admissible int; the bound is the lambda-weighted sum over
    periods.  ``cheap(i)``, every remaining item packed from period 1, bounds
    it from above at no cost.
    """

    def __init__(self, scaled: Instance):
        items = scaled.items
        self.lambdas = scaled.lambdas
        self.suffix_1 = scaled.suffix_lambdas.values[0] if scaled.horizon else 0
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

    def dantzig(self, i: int, residual: list[int]) -> int:
        """The bound for items i.. given ``residual[t-1] = r_t``."""
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


def exact_opt(instance: Instance, budget: int = DEFAULT_BUDGET) -> tuple[Fraction, Solution]:
    """Maximum objective over all feasible assignments, ties lexicographic.

    NEVER sorts after every period when comparing assignment vectors, so the
    reported optimum is deterministic for golden tests.  Children are visited
    in that order and a leaf replaces the incumbent only when strictly
    better; a node is cut when its profit plus the bound cannot beat the
    incumbent, so every leaf before the first optimum is strictly worse and
    no ancestor of it is cut.
    """
    _check_budget(instance, budget)
    horizon = instance.horizon
    n = instance.n
    scaled, value_unit, _ = integer_units(instance)
    contrib = [[p * s for s in scaled.suffix_lambdas.values] for p, _ in scaled.items]
    weights = [w for _, w in scaled.items]
    caps = scaled.capacities
    bound = _Bound(scaled)
    best_profit = -1  # below every leaf, so the first leaf is taken
    best_intro: tuple[Optional[int], ...] = (None,) * n
    cur: list[Optional[int]] = [None] * n
    cum = [0] * (horizon + 1)  # cum[t] = packed weight at period t

    def rec(i: int, profit: int) -> None:
        nonlocal best_profit, best_intro
        if i == n:
            if profit > best_profit:
                best_profit = profit
                best_intro = tuple(cur)
            return
        if profit + bound.cheap(i) <= best_profit:
            return
        residual = _residuals(caps, cum)
        if profit + bound.dantzig(i, residual) <= best_profit:
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
    return Fraction(best_profit, value_unit), Solution(best_intro)


def exact_inverse(
    instance: Instance, phi: Fraction, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[Fraction, Solution]]:
    """Minimum total weight achieving objective >= phi, or None if impossible.

    A subtree is cut when it cannot lighten the incumbent or when its
    profit plus the bound falls short of phi, which no accepted leaf does.
    """
    _check_budget(instance, budget)
    horizon = instance.horizon
    n = instance.n
    scaled, value_unit, weight_unit = integer_units(instance)
    contrib = [[p * s for s in scaled.suffix_lambdas.values] for p, _ in scaled.items]
    weights = [w for _, w in scaled.items]
    caps = scaled.capacities
    bound = _Bound(scaled)
    phi_scaled = Fraction(phi) * value_unit
    need = -((-phi_scaled.numerator) // phi_scaled.denominator)  # an int profit meets phi iff it meets need
    best_weight: Optional[int] = None
    best_intro: tuple[Optional[int], ...] = (None,) * n
    cur: list[Optional[int]] = [None] * n
    cum = [0] * (horizon + 1)

    def rec(i: int, profit: int) -> None:
        nonlocal best_weight, best_intro
        if best_weight is not None and cum[horizon] >= best_weight:
            return
        if i == n:
            if profit >= need:
                best_weight = cum[horizon]
                best_intro = tuple(cur)
            return
        if profit + bound.cheap(i) < need:
            return
        residual = _residuals(caps, cum)
        if profit + bound.dantzig(i, residual) < need:
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
    if best_weight is None:
        return None
    return Fraction(best_weight, weight_unit), Solution(best_intro)
