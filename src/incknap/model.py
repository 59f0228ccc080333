"""Instance/solution data model for the incremental knapsack problem.

An instance packs n items (profit, weight) into a knapsack whose capacity
grows over T periods; items, once introduced, stay.  The objective weights
each period's packed profit by a nonnegative coefficient, so a solution is
fully described by one introduction period (or NEVER) per item.

All scalars are exact rationals: ``Instance.build`` stores an integral
value as an ``int`` and any other as a ``fractions.Fraction``, so integral
instances run on ints throughout.  Floating point is never used: the
solvers rely on exact weight comparisons and exact super-optimality
statements that are meaningless under rounding error.  ``integer_units``
is the one place units are chosen; the solvers run on its all-``int``
copy of an instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence

#: Introduction time of an item that is never packed.
NEVER = None


class ValidationError(ValueError):
    """An instance violates a structural invariant.

    ``index`` is the first offending 1-based period or 0-based item index.
    """

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (index {index})")
        self.index = index


class AllLambdasZero(ValueError):
    """Every period coefficient is zero; only the empty solution has value."""


class BudgetExceeded(RuntimeError):
    def __init__(self, required: int, budget: int, what: str = "enumeration of {} states"):
        super().__init__(f"{what.format(required)} exceeds budget {budget}")
        self.required = required
        self.budget = budget


class InfeasibleSolution(ValueError):
    def __init__(self, period: int):
        super().__init__(f"capacity exceeded at period {period}")
        self.period = period


class ItemNotIntroduced(ValueError):
    def __init__(self, item: int):
        super().__init__(f"item {item} is never introduced")
        self.item = item


def _scalar(x):
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance; safe to share across solver tasks."""

    items: tuple[tuple[Fraction | int, Fraction | int], ...]  # (profit, weight)
    capacities: tuple[Fraction | int, ...]
    lambdas: tuple[Fraction | int, ...]

    @staticmethod
    def build(items: Sequence[tuple], capacities: Sequence, lambdas: Sequence) -> "Instance":
        """Coerce arbitrary rational-like scalars into an Instance: ints where integral."""
        return Instance(
            items=tuple((_scalar(p), _scalar(w)) for p, w in items),
            capacities=tuple(_scalar(c) for c in capacities),
            lambdas=tuple(_scalar(v) for v in lambdas),
        )

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def horizon(self) -> int:
        return len(self.capacities)

    @cached_property
    def suffix_lambdas(self) -> tuple[Fraction | int, ...]:
        """Entry t-1 is lambda_t + ... + lambda_T, the rate of an item introduced at period t."""
        return tuple(accumulate(reversed(self.lambdas)))[::-1]


@dataclass(frozen=True)
class Solution:
    """Introduction period per item (1-based), or NEVER.

    The induced sets S_t = {i : intro[i] <= t} are nested by construction,
    so only the capacity constraints need checking.
    """

    intro: tuple[Optional[int], ...]

    @staticmethod
    def empty(n: int) -> "Solution":
        return Solution((NEVER,) * n)

    def introduced(self):
        """Yield (item, period) for every introduced item."""
        for i, t in enumerate(self.intro):
            if t is not None:
                yield i, t

    def weights_by_period(self, instance: Instance) -> tuple[Fraction, ...]:
        """Total packed weight at each period (cumulative)."""
        horizon = instance.horizon
        added = [0] * (horizon + 1)
        for i, t in self.introduced():
            added[t] += instance.items[i][1]
        return tuple(accumulate(added[1:]))


def validate(instance: Instance) -> None:
    """Raise a ValidationError naming the first offending index, else return."""
    if instance.horizon < 1:
        raise ValidationError("horizon must contain at least one period", 0)
    if len(instance.lambdas) != instance.horizon:
        raise ValidationError("capacities and lambdas differ in length", 0)
    for i, (p, w) in enumerate(instance.items):
        if p <= 0:
            raise ValidationError("item profit must be positive", i)
        if w <= 0:
            raise ValidationError("item weight must be positive", i)
    for t, cap in enumerate(instance.capacities, start=1):
        if cap < 0:
            raise ValidationError("capacity must be nonnegative", t)
        if t > 1 and cap < instance.capacities[t - 2]:
            raise ValidationError("capacities must be nondecreasing", t)
    for t, lam in enumerate(instance.lambdas, start=1):
        if lam < 0:
            raise ValidationError("lambda must be nonnegative", t)


def preprocess(instance: Instance) -> tuple[Instance, tuple[int, ...]]:
    """Drop zero-lambda periods; they never contribute to the objective.

    Returns the reduced instance plus a remap: remap[k-1] is the original
    period of reduced period k.  Raises AllLambdasZero when nothing remains.
    """
    keep = [t for t in range(1, instance.horizon + 1) if instance.lambdas[t - 1] > 0]
    if not keep:
        raise AllLambdasZero("no period with positive lambda")
    if len(keep) == instance.horizon:
        return instance, tuple(keep)
    reduced = Instance(
        items=instance.items,
        capacities=tuple(instance.capacities[t - 1] for t in keep),
        lambdas=tuple(instance.lambdas[t - 1] for t in keep),
    )
    return reduced, tuple(keep)


def integer_units(instance: Instance) -> tuple[Instance, int, int]:
    """The instance with every scalar a plain int: (scaled, value_unit, weight_unit).

    Weights and capacities are multiplied by weight_unit, one lcm of their
    denominators; profits and lambdas by lcms of their own, whose product
    value_unit multiplies every objective value.  Solver decisions are ratio
    tests or order comparisons within one kind of scalar, so solutions carry
    over unchanged.  This is the only place in the package that picks units.
    """
    w_unit = math.lcm(1, *(w.denominator for _, w in instance.items), *(c.denominator for c in instance.capacities))
    p_unit = math.lcm(1, *(p.denominator for p, _ in instance.items))
    l_unit = math.lcm(1, *(v.denominator for v in instance.lambdas))
    # each unit is a multiple of the denominators it covers, so x * unit is
    # the int x.numerator * (unit // x.denominator), built without a Fraction
    scaled = Instance(
        items=tuple(
            (p.numerator * (p_unit // p.denominator), w.numerator * (w_unit // w.denominator))
            for p, w in instance.items
        ),
        capacities=tuple(c.numerator * (w_unit // c.denominator) for c in instance.capacities),
        lambdas=tuple(v.numerator * (l_unit // v.denominator) for v in instance.lambdas),
    )
    return scaled, p_unit * l_unit, w_unit


def remap_solution(solution: Solution, remap: tuple[int, ...]) -> Solution:
    """Translate a reduced-horizon solution back to original periods."""
    return Solution(tuple(None if t is None else remap[t - 1] for t in solution.intro))


def check_feasible(instance: Instance, solution: Solution) -> Optional[int]:
    """Return None when every period's capacity holds, else the first bad period."""
    weights = solution.weights_by_period(instance)
    for t in range(1, instance.horizon + 1):
        if weights[t - 1] > instance.capacities[t - 1]:
            return t
    return None


def objective(instance: Instance, solution: Solution) -> Fraction:
    """Lambda-averaged profit: sum over periods of lambda_t * packed profit."""
    bad = check_feasible(instance, solution)
    if bad is not None:
        raise InfeasibleSolution(bad)
    horizon = instance.horizon
    added = [0] * (horizon + 1)
    for i, t in solution.introduced():
        added[t] += instance.items[i][0]
    return sum(lam * packed for lam, packed in zip(instance.lambdas, accumulate(added[1:])))


def item_contribution(instance: Instance, solution: Solution, item: int) -> Fraction:
    """Contribution p_i * suffix-lambda at the item's introduction period."""
    t = solution.intro[item]
    if t is None:
        raise ItemNotIntroduced(item)
    return instance.items[item][0] * instance.suffix_lambdas[t - 1]
