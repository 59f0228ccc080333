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
exponential vector space.  It is held as member cells of the product
lattice of per-class counts (``Family``): weights and profits are sums of
one term per class, so the DP builds them per cell as it walks the cells
that fit instead of building one object per member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterator, Optional

from .classes import ClassInterval, ProfitClasses


@dataclass(frozen=True)
class Family:
    """Pruned family: member cells of the lattice of per-class counts.

    Axis pos (``interval.active`` order) takes the members' sorted distinct
    counts ``values[pos]``, weighing ``prefixes[pos]`` (class prefix sums).
    A cell numbers counts in mixed radix, last class fastest, so cell order
    is lexicographic and cell 0 is the zero vector.  ``cells`` is the member
    set, the range of every lattice cell when all are members; either way a
    member test is O(1).
    """

    values: tuple[tuple[int, ...], ...]
    prefixes: tuple[tuple, ...]
    cells: Collection[int]

    @cached_property
    def strides(self) -> list[int]:
        return [math.prod(map(len, self.values[pos + 1 :])) for pos in range(len(self.values))]

    def __len__(self) -> int:
        return len(self.cells)

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


def _heavy_choices(classes: ProfitClasses, level: int, threshold: int, num: int, den: int) -> dict[int, int]:
    """Truncated counts up-rounding can give a heavy class, each with its least mu.

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
        choices.setdefault(_truncated(k, threshold), mu)
    return choices


def heavy_configurations(
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
    weight_range: tuple[Fraction, Fraction],
    n: int,
) -> Iterator[tuple[Optional[int], ...]]:
    """Yield every reachable truncated heavy-count tuple, None for light classes.

    The base ranges over powers of two bracketing eps/|interval| times the
    possible heavy excess (between the lightest single item and n items of
    maximal weight).  At each base every class is light (None) or, when it
    holds more than 1/eps items, takes one of its reachable truncated counts;
    a combination with at least one heavy class is reachable exactly when
    the least multipliers of its counts sum to at most the counting cap.
    The bases come from bit lengths of ints.  A tuple may repeat across
    bases.
    """
    threshold = eps.denominator
    if all(classes.size(l) <= threshold for l in interval.active):
        return
    cap = mu_sum_cap(interval, eps)
    (a, b), (c, d) = ((w.numerator, w.denominator) for w in weight_range)
    scale = eps.denominator * interval.length
    for k in _power_range((eps.numerator * a, scale * b), (2 * eps.numerator * n * c, scale * d)):
        num, den = 1 << max(k, 0), 1 << max(-k, 0)  # base 2**k
        options = [[(None, 0), *_heavy_choices(classes, l, threshold, num, den).items()] for l in interval.active]
        for combo in itertools.product(*options):
            if 0 < sum(mu for _, mu in combo) <= cap:
                yield tuple(count for count, _ in combo)


def enumerate_family(
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
    weight_range: tuple[Fraction, Fraction],
    n: int,
) -> Family:
    """Directly enumerate a superset of the truncated up-rounding image.

    The members are the reachable truncated heavy tuples of
    ``heavy_configurations`` and the all-light tuple, each crossed with the
    light counts [0, min(1/eps, |P_l|)] of its open classes.  Extra vectors
    beyond the exact image are harmless: the DP only gains actions and
    enforces feasibility itself.  When no tuple fixes two classes (every
    all-light or one-heavy window) every lattice cell is a member; else the
    members are the union over tuples of sums of one cell offset per axis.
    """
    threshold = eps.denominator
    light = [range(min(threshold, classes.size(l)) + 1) for l in interval.active]
    partials = {(None,) * len(interval.active), *heavy_configurations(classes, interval, eps, weight_range, n)}
    values = [sorted({*r, *(p[pos] for p in partials if p[pos] is not None)}) for pos, r in enumerate(light)]
    family = Family(
        values=tuple(map(tuple, values)),
        prefixes=tuple(tuple(classes.prefix[l][v] for v in vals) for l, vals in zip(interval.active, values)),
        cells=range(math.prod(map(len, values))),
    )
    if all(len(p) - p.count(None) <= 1 for p in partials):
        return family
    offsets = [{v: k * s for k, v in enumerate(vals)} for vals, s in zip(values, family.strides)]
    cells: set[int] = set()
    for partial in partials:
        sums = [0]
        for c, r, at in zip(partial, light, offsets):
            sums = [total + at[v] for total in sums for v in (r if c is None else (c,))]
        cells.update(sums)
    return replace(family, cells=frozenset(cells))
