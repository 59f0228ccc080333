"""State-space pruning for utilization vectors: up-rounding and truncation.

A utilization vector counts, per profit class, how many of the lightest
items are packed.  The pruned family is produced by two maps: up-rounding
snaps each heavy class's excess weight up to an integer multiple mu of a
power-of-two base derived from the total heavy excess, and truncation then
drops the last ceil(2*eps*Delta) items of each heavy class to pay the
rounding back.  The image of these maps is fixed by a few discrete choices:
labels, base and multipliers fix the truncated heavy counts, and light
counts are free, so the family is enumerated from the distinct truncated
heavy counts crossed with the light ranges, never from the exponential
vector space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .classes import ClassInterval, ProfitClasses, prefix_weight


@dataclass(frozen=True)
class UtilizationVector:
    """Per-class counts over an interval's active classes, weight cached."""

    counts: tuple[int, ...]
    weight: Fraction


@dataclass(frozen=True)
class HeavyProfile:
    """Rounding data attached to an up-rounded vector."""

    light: tuple[int, ...]
    heavy: tuple[int, ...]
    excess_weight: Fraction
    base: Fraction
    multipliers: dict[int, int]


def make_vector(classes: ProfitClasses, interval: ClassInterval, counts: tuple[int, ...]) -> UtilizationVector:
    """Wrap counts with their exact total weight."""
    weight = 0
    for pos, level in enumerate(interval.active):
        if counts[pos] > 0:
            weight += prefix_weight(classes, level, 1, counts[pos])
    return UtilizationVector(counts=counts, weight=weight)


def classify(counts: tuple[int, ...], interval: ClassInterval, eps: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split active classes into light (count <= 1/eps) and heavy."""
    threshold = int(1 / eps)
    light, heavy = [], []
    for pos, level in enumerate(interval.active):
        (light if counts[pos] <= threshold else heavy).append(level)
    return tuple(light), tuple(heavy)


def pow2_up(x: Fraction) -> Fraction:
    """Smallest integer power of 2 that is >= x; zero maps to zero."""
    if x < 0:
        raise ValueError("pow2_up expects a nonnegative argument")
    if x == 0:
        return Fraction(0)
    power = Fraction(1)
    while power < x:
        power *= 2
    while power / 2 >= x:
        power /= 2
    return power


def heavy_excess(counts: tuple[int, ...], classes: ProfitClasses, interval: ClassInterval, eps: Fraction) -> Fraction:
    """Weight packed from heavy classes beyond their 1/eps lightest items."""
    threshold = int(1 / eps)
    total = Fraction(0)
    for pos, level in enumerate(interval.active):
        if counts[pos] > threshold:
            total += prefix_weight(classes, level, threshold + 1, counts[pos])
    return total


def _max_within_estimate(classes: ProfitClasses, level: int, threshold: int, estimate: Fraction) -> int:
    """Largest k in [1/eps+1, |P_l|] whose excess prefix weight fits estimate.

    Returns 0 when even the single item at position 1/eps+1 exceeds it.
    """
    size = classes.size(level)
    best = 0
    for k in range(threshold + 1, size + 1):
        if prefix_weight(classes, level, threshold + 1, k) <= estimate:
            best = k
        else:
            break
    return best


def up_round(
    counts: tuple[int, ...],
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
) -> tuple[UtilizationVector, HeavyProfile]:
    """Round heavy-class counts up to the estimate boundary.

    Light coordinates are copied.  For each heavy class, the excess weight is
    over-estimated by mu * base where base = pow2_up(eps/|interval| * W_H)
    and mu is the unique integer bracketing the true excess; the coordinate
    then grows to the largest count whose excess weight still fits the
    estimate.  Light/heavy labels are preserved.
    """
    threshold = int(1 / eps)
    light, heavy = classify(counts, interval, eps)
    excess = heavy_excess(counts, classes, interval, eps)
    base = pow2_up(eps / interval.length * excess)
    multipliers: dict[int, int] = {}
    new_counts = list(counts)
    for pos, level in enumerate(interval.active):
        if level not in heavy:
            continue
        w_exc = prefix_weight(classes, level, threshold + 1, counts[pos])
        mu = math.ceil(w_exc / base)
        multipliers[level] = mu
        new_counts[pos] = _max_within_estimate(classes, level, threshold, mu * base)
    profile = HeavyProfile(light=light, heavy=heavy, excess_weight=excess, base=base, multipliers=multipliers)
    return make_vector(classes, interval, tuple(new_counts)), profile


def _truncated(k: int, threshold: int, eps: Fraction) -> int:
    """Heavy count k less its last ceil(2*eps*(k - 1/eps)) items."""
    return k - math.ceil(2 * eps * (k - threshold))


def truncate(
    counts: tuple[int, ...],
    classes: ProfitClasses,
    interval: ClassInterval,
    heavy: tuple[int, ...],
    eps: Fraction,
) -> UtilizationVector:
    """Drop the last ceil(2*eps*Delta) items of each heavy class.

    ``heavy`` carries the labels of the up-rounded source vector; they are
    not recomputed here, matching the counting argument that keys the family
    on carried labels.
    """
    threshold = int(1 / eps)
    new_counts = tuple(
        _truncated(k, threshold, eps) if level in heavy else k
        for k, level in zip(counts, interval.active)
    )
    return make_vector(classes, interval, new_counts)


def prune_image(
    counts: tuple[int, ...],
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
) -> UtilizationVector:
    """Truncated up-rounding of a vector: the composed pruning map."""
    rounded, profile = up_round(counts, classes, interval, eps)
    return truncate(rounded.counts, classes, interval, profile.heavy, eps)


def mu_sum_cap(interval: ClassInterval, eps: Fraction) -> int:
    """Upper bound (3/2)*|interval|/eps on the sum of heavy multipliers."""
    return math.floor(Fraction(3, 2) * interval.length / eps)


def _power_range(lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Integer powers of 2 inside [lo, hi]; empty when the range is."""
    if lo <= 0 or hi < lo:
        return []
    power = pow2_up(lo)
    out = []
    while power <= hi:
        out.append(power)
        power *= 2
    return out


def _mu_vectors(limits: list[int], cap: int) -> Iterator[tuple[int, ...]]:
    """All (mu_1..mu_h) with 1 <= mu_j <= limits[j] and sum <= cap."""

    def rec(pos: int, remaining: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if pos == len(limits):
            yield tuple(acc)
            return
        hi = min(limits[pos], remaining - (len(limits) - pos - 1))
        for mu in range(1, hi + 1):
            acc.append(mu)
            yield from rec(pos + 1, remaining - mu, acc)
            acc.pop()

    if len(limits) <= cap:
        yield from rec(0, cap, [])


def heavy_configurations(
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
    weight_range: tuple[Fraction, Fraction],
    n: int,
) -> Iterator[tuple[tuple[int, ...], Fraction, tuple[int, ...]]]:
    """Yield (heavy-label tuple, base, mu-vector) covering every reachable profile.

    The base ranges over powers of two bracketing eps/|interval| times the
    possible heavy excess (between the lightest single item and n items of
    maximal weight); multiplier sums never exceed the counting cap, and
    per-class multipliers stop once the estimate already swallows the whole
    class, since larger values bracket no source vector.
    """
    threshold = int(1 / eps)
    w_min, w_max = weight_range
    eligible = [l for l in interval.active if classes.size(l) > threshold]
    cap = mu_sum_cap(interval, eps)
    for mask in range(1, 1 << len(eligible)):
        heavy = tuple(l for b, l in enumerate(eligible) if mask >> b & 1)
        lo = eps / interval.length * w_min
        hi = 2 * eps / interval.length * n * w_max
        for base in _power_range(lo, hi):
            limits = [
                math.ceil(prefix_weight(classes, l, threshold + 1, classes.size(l)) / base)
                for l in heavy
            ]
            for mus in _mu_vectors(limits, cap):
                yield heavy, base, mus


def enumerate_family(
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
    weight_range: tuple[Fraction, Fraction],
    n: int,
) -> list[UtilizationVector]:
    """Directly enumerate a superset of the truncated up-rounding image.

    Pass one walks the heavy configurations, sets each heavy count to the
    largest one whose excess fits mu * base (none fits: the configuration
    brackets no vector) and truncates it.  Many configurations give the same
    truncated heavy counts, so it keeps the distinct partial vectors: heavy
    counts fixed, light coordinates open.  The all-light vector is fully
    open.  Pass two crosses each partial vector once with the light counts
    [0, min(1/eps, |P_l|)].  Extra vectors beyond the exact image are
    harmless: the DP only gains actions and enforces feasibility itself.
    The zero vector is always a member; output is deduplicated and sorted.
    """
    threshold = int(1 / eps)
    light_ranges = [range(min(threshold, classes.size(l)) + 1) for l in interval.active]
    partials: set[tuple[Optional[int], ...]] = {(None,) * len(interval.active)}
    for heavy, base, mus in heavy_configurations(classes, interval, eps, weight_range, n):
        rounded = {l: _max_within_estimate(classes, l, threshold, mu * base) for l, mu in zip(heavy, mus)}
        if 0 not in rounded.values():
            partials.add(
                tuple(_truncated(rounded[l], threshold, eps) if l in rounded else None for l in interval.active)
            )

    seen: set[tuple[int, ...]] = set()
    for partial in partials:
        seen.update(itertools.product(*(r if c is None else (c,) for c, r in zip(partial, light_ranges))))
    return [make_vector(classes, interval, counts) for counts in sorted(seen)]
