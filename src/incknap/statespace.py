"""State-space pruning for utilization vectors: the pruned family.

A utilization vector counts, per profit class, how many of the lightest
items are packed.  The pruned family covers the image of two maps, stated
directly in the tests' ``reference`` (``up_round``, ``truncate``): up-rounding
snaps each heavy class's excess weight up to an integer multiple mu of a
power-of-two base derived from the total heavy excess, and truncation then
drops the last ceil(2*eps*Delta) items of each heavy class to pay the
rounding back.  For one heavy class only the truncated count a multiplier
produces matters, and that count is monotone in mu, so each class offers a
short table of reachable truncated counts, each with its least mu; a tuple
of them is reachable exactly when those least multipliers fit the counting
cap.  The power-of-two bases come from bit lengths of ints.  The family is
these heavy tuples crossed with the free light ranges, never the
exponential vector space.  ``family_tuples`` lists a window's tuples and
``enumerate_family`` takes them as given, so a caller can compare windows'
tuples before it enumerates any family.  The family is held as the lattice
of per-class counts cut at the solve's largest capacity (``Family``):
weights, profits and tuple masks combine one term per class, so one walk
builds them per cell for the cells that fit, instead of building one object
per member.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .classes import ClassInterval, ProfitClasses
from .model import BudgetExceeded


# Most entries, fitting cells times T+1, one family's DP table may count: the
# admission rule, though a table keeps two rows.  General mode at eps 1/2
# needs 5,841,965 on gen --seed 1 --n 100 --t 4 and refuses --n 200 by it.
FAMILY_BUDGET = 2**23
# Most tuples one list of a window's heavy product may hold (heavy_configurations).
TUPLE_BUDGET = 2**17


@dataclass(frozen=True)
class Family:
    """Pruned family, cut at a capacity: the lattice cells of per-class counts that fit.

    Axis pos (``interval.active`` order) takes the members' sorted distinct
    counts ``values[pos]``.  A cell numbers counts in mixed radix, last class
    fastest, so cell order is lexicographic and cell 0 is the zero vector.
    ``cells`` lists, ascending, the lattice cells weighing at most the cut,
    members or not; ``weights``, ``profits`` (rounded profits times
    (1/eps)**l_top, ints) and ``sums`` (count sums) are their columns, and
    ``members`` the positions of the member cells, which ``len`` counts.
    """

    values: tuple[tuple[int, ...], ...]
    cells: tuple[int, ...]
    weights: tuple
    profits: tuple[int, ...]
    sums: tuple[int, ...]
    members: list[int]

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


def _heavy_choices(classes: ProfitClasses, level: int, threshold: int, num: int, den: int, cap: int) -> dict[int, int]:
    """Truncated counts up-rounding can give a heavy class, each with its least mu, if at most cap.

    With mu_k = ceil(weight of items 1/eps+1..k / base), at least 1 since
    weights are positive, the estimate mu * base lands on the largest k with
    mu_k <= mu, so the counts reached are the last k of each distinct mu_k,
    and mu_k is the least multiplier reaching it.  Truncation is monotone,
    so the first mu seen for a truncated count is its least.  Empty when
    the class holds at most 1/eps items.  The base is num/den, and the
    ceilings are negated floors over it, on ints for int weights.
    """
    prefix = classes.prefix[level][threshold:]
    reached = {-((prefix[0] - w) * den // num): k for k, w in enumerate(prefix[1:], start=threshold + 1)}
    choices: dict[int, int] = {}
    for mu, k in reached.items():
        if mu <= cap:
            choices.setdefault(_truncated(k, threshold), mu)
    return choices


def heavy_configurations(
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
    weight_range: tuple[Fraction, Fraction],
    n: int,
) -> Iterator[tuple[Optional[int], ...]]:
    """Yield every reachable truncated heavy-count tuple once, None for light classes.

    The base ranges over powers of two bracketing eps/|interval| times the
    possible heavy excess (between the lightest single item and n items of
    maximal weight).  At each base every class is light (None) or, when it
    holds more than 1/eps items, takes one of its reachable truncated counts;
    a combination with at least one heavy class is reachable exactly when
    the least multipliers of its counts sum to at most the counting cap, so
    a class offers no count whose least multiplier alone passes the cap.
    The bases come from bit lengths of ints.  Several bases may reach a
    tuple; it is yielded at the first.  A base whose per-class options, with
    their multipliers, repeat the previous base's reaches only tuples
    already yielded, so it is skipped.  The product over classes is built
    class by class in product order, dropping a prefix as soon as its
    multipliers pass the cap, since multipliers are never negative.

    Each class offers the light option at multiplier 0, so no list is
    shorter than the one before.  ``enumerate_family`` gives each tuple a
    mask bit in every cell, so its walk grows with tuples times cells
    (bounded n=140 at eps 1/2: 874,800 tuples, 68 s over 841,611 cells).
    A list that could pass TUPLE_BUDGET is counted before it is built and
    refused past it; the budget keeps a mask within 16 KiB and admits
    bounded n=130's 90,827.
    """
    threshold = eps.denominator
    if all(classes.size(l) <= threshold for l in interval.active):
        return
    cap = mu_sum_cap(interval, eps)
    (a, b), (c, d) = ((w.numerator, w.denominator) for w in weight_range)
    scale = eps.denominator * interval.length
    seen: set[tuple[Optional[int], ...]] = set()
    last = None  # the previous base's options
    for k in _power_range((eps.numerator * a, scale * b), (2 * eps.numerator * n * c, scale * d)):
        num, den = 1 << max(k, 0), 1 << max(-k, 0)  # base 2**k
        options = [[(None, 0), *_heavy_choices(classes, l, threshold, num, den, cap).items()] for l in interval.active]
        if options == last:
            continue
        last = options
        combos = [((), 0)]  # (counts so far, multiplier sum), in product order
        for option in options:
            if len(combos) * len(option) > TUPLE_BUDGET:  # else the list cannot pass it
                size = sum(total + mu <= cap for _, total in combos for _, mu in option)
                if size > TUPLE_BUDGET:
                    raise BudgetExceeded(size, TUPLE_BUDGET, "heavy tuple list of {} entries")
            combos = [(t + (count,), total + mu) for t, total in combos for count, mu in option if total + mu <= cap]
        for partial, total in combos:
            if total and partial not in seen:
                seen.add(partial)
                yield partial


def family_tuples(
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
    weight_range: tuple[Fraction, Fraction],
    n: int,
) -> list[tuple[Optional[int], ...]]:
    """A window's tuples: the all-light tuple, then ``heavy_configurations``' tuples.

    Each tuple fixes the truncated count of some heavy classes and leaves
    the others open (None); the family crosses each with the light counts of
    its open classes.  ``weight_range`` bounds the window's item weights and
    ``n`` counts its items.
    """
    return [(None,) * len(interval.active), *heavy_configurations(classes, interval, eps, weight_range, n)]


def enumerate_family(
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
    tuples: Sequence[tuple[Optional[int], ...]],
    capacities: Sequence,
) -> Family:
    """Directly enumerate a superset of the truncated up-rounding image, cut at max(capacities).

    The members are the given ``tuples`` (``family_tuples``: the all-light
    tuple and the reachable truncated heavy tuples), each crossed with the
    light counts [0, min(1/eps, |P_l|)] of its open classes.  Extra vectors
    beyond the exact image are harmless: the DP only gains actions and
    enforces feasibility itself.

    One walk lists the cells axis by axis in ascending cell order, carrying
    each cell's weight, lifted profit, count sum and tuple mask; class
    prefix sums never decrease along an axis, so each axis is cut, exactly,
    at the first count past the capacity left.  Tuple i owns bit i, and an
    axis count carries the bits of the tuples it agrees with (the tuple
    fixes that count, or leaves the class open and the count is light),
    gathered for all counts in one pass over the tuples; a cell is a member
    when its counts' masks share a bit.  Before each axis the walk sums the
    cells it will hold, and raises BudgetExceeded when that count times T+1
    rows passes ``FAMILY_BUDGET``.
    """
    q = eps.denominator
    ltop = max(interval.active, default=0)
    top, rows = max(capacities), len(capacities) + 1
    light = [min(q, classes.size(l)) for l in interval.active]
    values = [sorted({*range(r + 1), *(t[pos] for t in tuples if t[pos] is not None)}) for pos, r in enumerate(light)]
    walk = [(0, 0, 0, 0, (1 << len(tuples)) - 1)]  # (cell, weight, lifted profit, count sum, mask)
    for pos, (level, vals) in enumerate(zip(interval.active, values)):
        prefixes = [classes.prefix[level][v] for v in vals]
        lift = (q + 1) ** level * q ** (ltop - level)
        fixed: dict[int, int] = {}  # count -> bits of the tuples fixing it
        free = 0  # bits of the tuples leaving the class open
        for i, t in enumerate(tuples):
            if t[pos] is None:
                free |= 1 << i
            else:
                fixed[t[pos]] = fixed.get(t[pos], 0) | 1 << i
        agree = [fixed.get(v, 0) | (free if v <= light[pos] else 0) for v in vals]
        cuts = [bisect_right(prefixes, top - weight) for _, weight, _, _, _ in walk]
        if sum(cuts) * rows > FAMILY_BUDGET:
            raise BudgetExceeded(sum(cuts) * rows, FAMILY_BUDGET, "family DP table of {} entries")
        walk = [
            (cell * len(vals) + k, weight + prefixes[k], profit + lift * vals[k], total + vals[k], mask & agree[k])
            for (cell, weight, profit, total, mask), cut in zip(walk, cuts)
            for k in range(cut)
        ]
    cells, weights, profits, sums, masks = zip(*walk)
    members = [pos for pos, mask in enumerate(masks) if mask]
    return Family(tuple(map(tuple, values)), cells, weights, profits, sums, members)
