"""Brute-force exact solvers for desk-scale verification.

Every solver here enumerates the full assignment space (one introduction
period or NEVER per item), so results are ground truth the approximation
pipeline is checked against.  The searches run on the instance in
integer units (``model.integer_units``) because Python int arithmetic is
an order of magnitude faster than Fraction churn in these inner loops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .model import Instance, Solution, integer_units

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration of {required} states exceeds budget {budget}")
        self.required = required
        self.budget = budget


def _check_budget(instance: Instance, budget: int) -> None:
    required = (instance.horizon + 1) ** instance.n
    if required > budget:
        raise BudgetExceeded(required, budget)


def exact_opt(instance: Instance, budget: int = DEFAULT_BUDGET) -> tuple[Fraction, Solution]:
    """Maximum objective over all feasible assignments, ties lexicographic.

    NEVER sorts after every period when comparing assignment vectors, so the
    reported optimum is deterministic for golden tests.
    """
    _check_budget(instance, budget)
    horizon = instance.horizon
    scaled, value_unit, _ = integer_units(instance)
    contrib = [[p * s for s in scaled.suffix_lambdas.values] for p, _ in scaled.items]
    caps = scaled.capacities
    best_profit: Optional[int] = None
    best_intro: tuple[Optional[int], ...] = (None,) * instance.n
    cur: list[Optional[int]] = [None] * instance.n
    cum = [0] * (horizon + 1)  # cum[t] = packed weight at period t

    def rec(i: int, profit: int) -> None:
        nonlocal best_profit, best_intro
        if i == instance.n:
            if best_profit is None or profit > best_profit:
                best_profit = profit
                best_intro = tuple(cur)
            return
        w = scaled.items[i][1]
        for t in range(1, horizon + 1):
            ok = True
            for tau in range(t, horizon + 1):
                if cum[tau] + w > caps[tau - 1]:
                    ok = False
                    break
            if ok:
                for tau in range(t, horizon + 1):
                    cum[tau] += w
                cur[i] = t
                rec(i + 1, profit + contrib[i][t - 1])
                cur[i] = None
                for tau in range(t, horizon + 1):
                    cum[tau] -= w
        rec(i + 1, profit)

    rec(0, 0)
    return Fraction(best_profit or 0, value_unit), Solution(best_intro)


def exact_inverse(
    instance: Instance, phi: Fraction, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[Fraction, Solution]]:
    """Minimum total weight achieving objective >= phi, or None if impossible."""
    _check_budget(instance, budget)
    horizon = instance.horizon
    scaled, value_unit, weight_unit = integer_units(instance)
    contrib = [[p * s for s in scaled.suffix_lambdas.values] for p, _ in scaled.items]
    caps = scaled.capacities
    phi_scaled = Fraction(phi) * value_unit
    best_weight: Optional[int] = None
    best_intro: tuple[Optional[int], ...] = (None,) * instance.n
    cur: list[Optional[int]] = [None] * instance.n
    cum = [0] * (horizon + 1)

    def rec(i: int, profit: int) -> None:
        nonlocal best_weight, best_intro
        if best_weight is not None and cum[horizon] >= best_weight:
            return
        if i == instance.n:
            if profit >= phi_scaled:
                best_weight = cum[horizon]
                best_intro = tuple(cur)
            return
        w = scaled.items[i][1]
        for t in range(1, horizon + 1):
            ok = True
            for tau in range(t, horizon + 1):
                if cum[tau] + w > caps[tau - 1]:
                    ok = False
                    break
            if ok:
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
