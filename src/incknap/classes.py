"""Profit classes: geometric rounding of profits and weight-sorted prefixes.

Profits are scaled so the minimum becomes 1 and rounded down to powers of
(1+eps).  Items of equal rounded profit form a class, kept sorted by weight
with exact prefix sums, so the lightest k items of a class are O(1) to
weigh.  Near-optimal solutions only need a short interval of classes; the
candidate intervals enumerated here turn that existence statement into a
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .model import BudgetExceeded, Instance

# Most profit-class levels (0 included) a solve may climb: level l is an int
# of O(l) digits, so a ladder's time grows with its length squared.
CLASS_BUDGET = 2**14


@dataclass(frozen=True)
class ProfitClasses:
    """Sparse map from class index to its weight-sorted items.

    members[l] lists item indices by nondecreasing weight (ties by index);
    prefix[l][k] is the exact weight of the k lightest items of class l.
    The rounded profit of class l is scale * (1+eps)**l.
    """

    eps: Fraction
    scale: Fraction
    members: dict[int, tuple[int, ...]]
    prefix: dict[int, tuple[Fraction, ...]]

    @cached_property
    def indices(self) -> tuple[int, ...]:
        """Non-empty class indices, ascending, sorted on the first read."""
        return tuple(sorted(self.members))

    def size(self, index: int) -> int:
        return len(self.members.get(index, ()))


def power_order(a: int, b: int, k: int, high: int, low: int) -> int:
    """The sign of (a/b)**k - high/low, for ints 1 < a/b <= 2, k >= 0 and
    high, low > 0, exact.  With x = a/b - 1 and r = high/low, cheap bounds
    decide most cases before the powers are taken, which for a b of
    thousands of digits would not end: (1+x)**k >= 2**(k*x) (as x <= 1)
    and r < 2**(b_high - b_low + 1) (bit lengths), (1+x)**k >= 1 + k*x,
    and, when k*x < 1, (1+x)**k <= e**(k*x) < 1/(1 - k*x)."""
    rise = k * (a - b)  # k*x over b
    if (high.bit_length() - low.bit_length() + 1) * b <= rise or high * b < low * (b + rise):
        return 1
    if 0 < rise < b and high * (b - rise) >= low * b:
        return -1
    left, right = low * a**k, high * b**k
    return (left > right) - (left < right)


def build_classes(instance: Instance, eps: Fraction) -> ProfitClasses:
    """Assign each item the largest l with (1+eps)**l <= p_i / min profit.

    Exponents are found on one exact ladder, never by logs: with
    1+eps = a/b, level l is reached iff scale * a**l <= p * b**l, so the
    distinct profits climb it once in ascending order, and profits landing
    exactly on a power of (1+eps) classify correctly.  Returns an empty
    class map, of scale 1, for an itemless instance.  The instance is in
    integer units, unchecked here, so the scale and prefix sums are ints;
    a least profit that is not positive raises ValueError.

    A ladder past ``CLASS_BUDGET`` levels raises BudgetExceeded before it
    is climbed: the top profit's level is at least the budget B iff
    (a/b)**B <= top/scale, which ``power_order`` decides, as
    ``general.build_grid`` checks its grid.  ``interval_length_cap``
    climbs at most one level past the top, so the budget bounds it too.
    """
    if eps.numerator != 1:
        raise ValueError("eps must be a unit fraction")
    scale = min((p for p, _ in instance.items), default=1)
    if scale <= 0:
        raise ValueError("item profits must be positive")
    a, b = eps.denominator + eps.numerator, eps.denominator
    top, budget = max((p for p, _ in instance.items), default=1), CLASS_BUDGET
    high, low = top.numerator * scale.denominator, scale.numerator * top.denominator  # top/scale = high/low
    if power_order(a, b, budget, high, low) <= 0:
        raise BudgetExceeded(budget + 1, budget, "profit class ladder of at least {} levels")
    level_of = {}
    level, up, down = 0, a, b  # (1+eps)**(level+1) = up/down
    for p in sorted({p for p, _ in instance.items}):
        while scale * up <= p * down:
            level, up, down = level + 1, up * a, down * b
        level_of[p] = level
    members: dict[int, list[int]] = {}
    for i, (p, _) in enumerate(instance.items):
        members.setdefault(level_of[p], []).append(i)

    ordered: dict[int, tuple[int, ...]] = {}
    prefix: dict[int, tuple[Fraction, ...]] = {}
    for level, ids in members.items():
        ids.sort(key=lambda i: (instance.items[i][1], i))
        sums = [0]
        for i in ids:
            sums.append(sums[-1] + instance.items[i][1])
        ordered[level] = tuple(ids)
        prefix[level] = tuple(sums)
    return ProfitClasses(eps=eps, scale=scale, members=ordered, prefix=prefix)


@dataclass(frozen=True)
class ClassInterval:
    """Contiguous class-index window [lo, hi] the DP state vector lives on.

    ``active`` lists the non-empty class indices inside the window; vectors
    carry one coordinate per active class (empty classes can hold nothing).
    """

    lo: int
    hi: int
    active: tuple[int, ...]

    @property
    def length(self) -> int:
        """Window length counting empty classes; scales the rounding base."""
        return self.hi - self.lo + 1


def make_interval(classes: ProfitClasses, lo: int, hi: int) -> ClassInterval:
    return ClassInterval(lo=lo, hi=hi, active=tuple(l for l in classes.indices if lo <= l <= hi))


def interval_length_cap(eps: Fraction, n: int, rho: Fraction, max_useful: int) -> int:
    """Smallest L with (1+eps)**L >= n*rho/eps, capped at max_useful.

    With 1+eps = a/b the test is a**L * rho.den * eps.num >= n * rho.num *
    eps.den * b**L, on ints.  Any value beyond max_useful produces the same
    intervals, so one ``power_order`` test at max_useful returns a binding
    cap at once, and otherwise the ladder climbs to L <= max_useful.
    """
    a, b = eps.denominator + eps.numerator, eps.denominator
    have = rho.denominator * eps.numerator
    need = n * rho.numerator * eps.denominator
    if need > have and power_order(a, b, max_useful, need, have) < 0:
        return max_useful
    up, down = 1, 1  # (1+eps)**length = up/down
    length = 0
    while up * have < need * down:
        length, up, down = length + 1, up * a, down * b
    return max(length, 1)


def candidate_intervals(classes: ProfitClasses, eps: Fraction, rho: Fraction) -> list[ClassInterval]:
    """One interval per candidate top class.

    The near-optimal prefix-like solution lives on an interval ending at the
    (unknown) highest used class; enumerating every non-empty class as that
    endpoint covers all cases.  rho is the suffix-lambda boundedness ratio
    of the (sub-)instance.
    """
    if rho < 1:
        raise ValueError("rho must be at least 1")
    indices = classes.indices
    if not indices:
        return []
    total_items = sum(map(len, classes.members.values()))
    width = interval_length_cap(eps, total_items, rho, max_useful=indices[-1] + 1)
    return [make_interval(classes, max(top - width + 1, 0), top) for top in indices]
