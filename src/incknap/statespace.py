"""State-space pruning for utilization vectors: the pruned family.

A utilization vector counts, per profit class, how many of the lightest
items are packed.  The pruned family covers the image of two maps, stated
directly in the tests' ``reference`` (``up_round``, ``truncate``): up-rounding
snaps each heavy class's excess weight up to an integer multiple mu of a
power-of-two base derived from the total heavy excess, and truncation then
drops the last ceil(2*eps*Delta) items of each heavy class to pay the
rounding back.  For one heavy class only the truncated count a multiplier
produces matters, and that count is monotone in mu, so each class offers,
per base, a short table of reachable truncated counts, each with its least
mu (``heavy_configurations``).  A vector is a member when, at some base,
the least multipliers of its counts past the light range sum to at most
the counting cap, never the exponential product of the classes' options.
The power-of-two bases come from bit lengths of ints.  The family is held
as the lattice of per-class counts cut at the solve's largest capacity
(``Family``): weights, profits and per-base multiplier sums combine one
term per class, so one walk builds them per cell for the cells that fit,
instead of building one object per member.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .classes import ClassInterval, ProfitClasses
from .model import BudgetExceeded


# Most entries, fitting cells times T+1, one family's DP table may count: the
# admission rule, though a table keeps two rows.  General mode at eps 1/2
# needs 5,841,965 on gen --seed 1 --n 100 --t 4 and refuses --n 200 by it.
FAMILY_BUDGET = 2**23


@dataclass(frozen=True)
class Family:
    """Pruned family, cut at a capacity: the lattice cells of per-class counts that fit.

    Axis pos (``interval.active`` order) takes the members' sorted distinct
    counts ``values[pos]``.  A cell numbers counts in mixed radix, last class
    fastest, so cell order is lexicographic and cell 0 is the zero vector.
    ``cells`` lists, ascending, the lattice cells weighing at most the cut,
    members or not; ``weights``, ``profits`` (rounded profits as ints over
    ``value_den`` = (1/eps)**L, L the top class of all, which every window
    shares) and ``sums`` (count sums) are their columns, and ``members``
    the member positions, which ``len`` counts.
    """

    values: tuple[tuple[int, ...], ...]
    cells: tuple[int, ...]
    weights: tuple
    profits: tuple[int, ...]
    sums: tuple[int, ...]
    members: list[int]
    value_den: int

    @cached_property
    def strides(self) -> list[int]:
        return [math.prod(map(len, self.values[pos + 1 :])) for pos in range(len(self.values))]

    def __len__(self) -> int:
        return len(self.members)

    def counts(self, cell: int) -> tuple[int, ...]:
        return tuple(values[cell // s % len(values)] for values, s in zip(self.values, self.strides))


def _truncated(k: int, threshold: int) -> int:
    """Heavy count k less its last ceil(2*eps*(k - 1/eps)) items, eps = 1/threshold."""
    return k + (-2 * (k - threshold)) // threshold


def mu_sum_cap(interval: ClassInterval, eps: Fraction) -> int:
    """Upper bound (3/2)*|interval|/eps on the sum of heavy multipliers, floored."""
    return 3 * interval.length * eps.denominator // 2


def _floor_log2(a: int, b: int) -> int:
    """Largest integer k with 2**k <= a/b, for positive ints a and b."""
    return (a // b).bit_length() - 1 if a >= b else -(-(-b // a) - 1).bit_length()


def _power_range(lo: tuple[int, int], hi: tuple[int, int]) -> range:
    """Exponents k of the powers 2**k inside [lo, hi], each a positive
    (numerator, denominator) pair; empty when the range is."""
    return range(-_floor_log2(lo[1], lo[0]), _floor_log2(*hi) + 1)


def heavy_configurations(
    classes: ProfitClasses, interval: ClassInterval, eps: Fraction
) -> Iterator[list[dict[int, int]]]:
    """Yield, per power-of-two base, every class's {truncated count: least mu} table.

    The base ranges over powers of two bracketing eps/|interval| times the
    possible heavy excess: between the window's lightest item and n times
    its heaviest, n its item count, all read off the class prefix sums.  At
    each base a class holding more than 1/eps items offers its reachable
    truncated counts, each with its least multiplier, and no count whose
    least multiplier alone passes the counting cap; a light class offers
    none.  The bases come from bit lengths of ints.  A
    base that offers nothing, or repeats the previous base's tables, is
    skipped; nothing is yielded when no class is heavy.

    Reachable counts.  With mu_k = ceil(weight of items 1/eps+1..k / base),
    at least 1 since weights are positive, the estimate mu * base lands on
    the largest k with mu_k <= mu, so the counts reached are the last k of
    each distinct mu_k, and mu_k is the least multiplier reaching it.
    Truncation is monotone, so the first mu seen for a truncated count is
    its least.  Each heavy class's excesses past its 1/eps lightest items,
    and the truncated counts, are listed once per window; at base num/den
    the ceilings are negated floors, on ints for int weights.

    Membership.  The counting argument reaches a tuple, one offered count
    or None (light) per class with at least one count, when at one base the
    least multipliers of its counts sum to at most ``mu_sum_cap``; a family
    member is an all-light vector, or such a tuple with each open class
    given a light count (at most min(1/eps, |P_l|)).  At base b let a count
    cost 0 when it is light, its least mu when the class offers it there,
    and be barred otherwise.  A vector is a member iff it is all light or,
    at some base, its costs sum to at most the cap.  If it agrees with a
    tuple reached at b, each class costs at most that tuple's multiplier
    (0 where the tuple leaves it open and the count is light), so its costs
    sum to at most the tuple's.  Conversely, if its costs at b sum to at
    most the cap and it is not all light, leave its light counts open and
    fix the others at their least multipliers: that tuple has a count, is
    reached at b on the same sum, and the vector agrees with it.  Multipliers
    are at least 1 and the all-light vector costs 0, so the rule is the
    tuple rule exactly, with no product of the classes' options.
    """
    threshold = eps.denominator
    if all(classes.size(l) <= threshold for l in interval.active):
        return
    cap = mu_sum_cap(interval, eps)
    prefixes = [classes.prefix[l] for l in interval.active]
    lightest, heaviest = min(p[1] for p in prefixes), max(p[-1] - p[-2] for p in prefixes)
    n = sum(map(classes.size, interval.active))
    (a, b), (c, d) = ((w.numerator, w.denominator) for w in (lightest, heaviest))
    scale = eps.denominator * interval.length
    # per class, (excess past the 1/eps lightest, truncated count) for each count past 1/eps
    excesses = [
        [(w - p[threshold], _truncated(k, threshold)) for k, w in enumerate(p[threshold + 1 :], start=threshold + 1)]
        for p in prefixes
    ]
    last = None  # the previous base's tables
    for k in _power_range((eps.numerator * a, scale * b), (2 * eps.numerator * n * c, scale * d)):
        num, den = 1 << max(k, 0), 1 << max(-k, 0)  # base 2**k
        options = []
        for pairs in excesses:
            choices: dict[int, int] = {}
            for mu, count in {-(-e * den // num): count for e, count in pairs}.items():
                if mu <= cap:
                    choices.setdefault(count, mu)
            options.append(choices)
        if any(options) and options != last:
            last = options
            yield options


def enumerate_family(classes: ProfitClasses, interval: ClassInterval, eps: Fraction, capacities: Sequence) -> Family:
    """Directly enumerate a superset of the truncated up-rounding image, cut at max(capacities).

    The members are the vectors ``heavy_configurations``' rule admits for
    the window: all light, each count in [0, min(1/eps, |P_l|)], or, at
    some base, each count past that range offered there, at least
    multipliers summing to at most the counting cap.  Extra vectors beyond
    the exact image are harmless: the DP only gains actions and enforces
    feasibility itself.

    One walk lists the cells axis by axis in ascending cell order, carrying
    each cell's weight, lifted profit (class l's counts lifted by
    (q+1)**l * q**(L-l), eps = 1/q), count sum and per-base multiplier
    sums; class prefix sums never decrease along an axis, so each axis is
    cut, exactly, at the first count past the capacity left.  The sums are
    one int of one field per base, where a count adds its cost (a barred
    count cap+1); a cell is a member when its sums are 0 (all light) or,
    with G-1-cap added to each field, some field stays below its guard bit
    G.  G passes classes*(cap+1), so no field carries into the next.
    Before each axis the walk sums the cells it will hold, and raises
    BudgetExceeded when that count times T+1 rows passes ``FAMILY_BUDGET``.
    """
    q = eps.denominator
    ltop = max(classes.indices, default=0)  # the solve's top class
    top, rows = max(capacities), len(capacities) + 1
    light = [min(q, classes.size(l)) for l in interval.active]
    bases = list(heavy_configurations(classes, interval, eps))
    barred = mu_sum_cap(interval, eps) + 1
    guard = 1 << (len(light) * barred).bit_length()
    shifts = [j * guard.bit_length() for j in range(len(bases))]
    guards = sum(guard << s for s in shifts)
    values = [sorted({*range(r + 1), *(c for options in bases for c in options[pos])}) for pos, r in enumerate(light)]
    walk = [(0, 0, 0, 0, 0)]  # (cell, weight, lifted profit, count sum, mu sums)
    for pos, (level, vals) in enumerate(zip(interval.active, values)):
        prefixes = [classes.prefix[level][v] for v in vals]
        lift = (q + 1) ** level * q ** (ltop - level)
        costs = [
            0 if v <= light[pos] else sum(options[pos].get(v, barred) << s for options, s in zip(bases, shifts))
            for v in vals
        ]
        cuts = [bisect_right(prefixes, top - weight) for _, weight, _, _, _ in walk]
        if sum(cuts) * rows > FAMILY_BUDGET:
            raise BudgetExceeded(sum(cuts) * rows, FAMILY_BUDGET, "family DP table of {} entries")
        walk = [
            (cell * len(vals) + k, weight + prefixes[k], profit + lift * vals[k], total + vals[k], mus + costs[k])
            for (cell, weight, profit, total, mus), cut in zip(walk, cuts)
            for k in range(cut)
        ]
    cells, weights, profits, sums, mus = zip(*walk)
    start = sum(guard - barred << s for s in shifts)
    members = [pos for pos, m in enumerate(mus) if not m or (m + start) & guards != guards]
    return Family(tuple(map(tuple, values)), cells, weights, profits, sums, members, q**ltop)
