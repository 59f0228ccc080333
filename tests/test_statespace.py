import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    class_structure,
    lattice_size,
    member_cells,
    members,
    random_class_structure,
    random_vector_pair,
    reference_family,
    reference_partials,
    sparse_heavy_structures,
    two_heavy_structures,
    uncut,
    window_bracket,
)
from incknap import statespace
from incknap.classes import build_classes, candidate_intervals, make_interval
from incknap.model import BudgetExceeded, Instance
from reference import (
    base_tables,
    classify,
    heavy_excess,
    heavy_tuples,
    make_vector,
    pow2_up,
    power_range,
    prune_image,
    truncate,
    tuple_family,
    up_round,
)
from incknap.statespace import (
    Family,
    _power_range,
    _truncated,
    enumerate_family,
    heavy_configurations,
    mu_sum_cap,
)

EPS = Fraction(1, 5)


def test_classify_boundary():
    _, classes, interval = class_structure([1] * 8)
    assert classify((5,), interval, EPS) == ((0,), ())
    assert classify((6,), interval, EPS) == ((), (0,))
    assert classify((0,), interval, EPS) == ((0,), ())


def test_pow2_up_values():
    assert pow2_up(Fraction(0)) == 0
    assert pow2_up(Fraction(3)) == 4
    assert pow2_up(Fraction(3, 5)) == 1
    assert pow2_up(Fraction(3, 10)) == Fraction(1, 2)
    assert pow2_up(Fraction(1, 4)) == Fraction(1, 4)
    with pytest.raises(ValueError):
        pow2_up(Fraction(-1))


@given(st.fractions(min_value=Fraction(1, 64), max_value=1000, max_denominator=64))
@settings(max_examples=200)
def test_pow2_up_is_smallest_power(x):
    p = pow2_up(x)
    assert p >= x
    assert p / 2 < x
    assert (p.numerator == 1) != (p.denominator == 1) or p == 1  # 2**j exactly


def test_heavy_excess_examples():
    _, classes, interval = class_structure([1] * 8)
    assert heavy_excess((8,), classes, interval, EPS) == 3
    assert heavy_excess((5,), classes, interval, EPS) == 0
    _, classes2, interval2 = class_structure([1, 1, 1, 1, 1, 2, 3])
    assert heavy_excess((7,), classes2, interval2, EPS) == 5


def test_up_round_single_heavy_class():
    _, classes, interval = class_structure([1] * 8)
    rounded, profile = up_round((8,), classes, interval, EPS)
    assert profile.excess_weight == 3
    assert profile.base == 1  # pow2_up(3/5)
    assert profile.multipliers == {0: 3}
    assert rounded.counts == (8,)


def test_up_round_all_light_identity():
    _, classes, interval = class_structure([1, 2, 3], [4, 5])
    rounded, profile = up_round((3, 2), classes, interval, EPS)
    assert rounded.counts == (3, 2)
    assert profile.heavy == ()
    assert profile.multipliers == {}


def test_up_round_two_heavy_classes():
    # base scales with eps/|interval|: excess 3 over two classes gives
    # base pow2_up(3/10) = 1/2 and mu = (2, 4); counts stay put
    _, classes, interval = class_structure([1] * 6, [1] * 7)
    rounded, profile = up_round((6, 7), classes, interval, EPS)
    assert profile.excess_weight == 3
    assert profile.base == Fraction(1, 2)
    assert profile.multipliers == {0: 2, 1: 4}
    assert rounded.counts == (6, 7)


def test_truncate_examples():
    _, classes, interval = class_structure([1] * 8)
    assert truncate((8,), classes, interval, (0,), EPS).counts == (6,)
    _, classes2, interval2 = class_structure([1] * 6)
    assert truncate((6,), classes2, interval2, (0,), EPS).counts == (5,)
    assert truncate((3,), classes2, interval2, (), EPS).counts == (3,)


def test_truncated_equals_the_fraction_formula():
    # k less ceil(2*eps*(k - 1/eps)) with eps = 1/threshold, on ints
    for threshold in range(5, 21):
        eps = Fraction(1, threshold)
        for k in range(threshold + 1, 6 * threshold):
            assert _truncated(k, threshold) == k - math.ceil(2 * eps * (k - threshold))


@pytest.mark.parametrize("eps", [Fraction(1, 5), Fraction(1, 8)])
def test_rounding_and_truncation_invariants(eps):
    rng = random.Random(int(1 / eps))
    for _ in range(300):
        _, classes, interval = random_class_structure(rng, eps)
        small, big = random_vector_pair(rng, classes, interval)
        r_small, p_small = up_round(small, classes, interval, eps)
        r_big, p_big = up_round(big, classes, interval, eps)
        # up-rounding: monotone, class-preserving, bounded excess growth
        assert all(a <= b for a, b in zip(r_small.counts, r_big.counts))
        assert all(a <= b for a, b in zip(small, r_small.counts))
        assert classify(r_small.counts, interval, eps) == classify(small, interval, eps)
        excess_before = heavy_excess(small, classes, interval, eps)
        excess_after = heavy_excess(r_small.counts, classes, interval, eps)
        assert excess_after <= (1 + 2 * eps) * excess_before
        # truncation: monotone, weight restoring, heavy retention, label carry
        t_small = truncate(r_small.counts, classes, interval, p_small.heavy, eps)
        t_big = truncate(r_big.counts, classes, interval, p_big.heavy, eps)
        assert all(a <= b for a, b in zip(t_small.counts, t_big.counts))
        assert t_small.weight <= make_vector(classes, interval, small).weight
        threshold = int(1 / eps)
        for pos, level in enumerate(interval.active):
            if level in p_small.heavy:
                assert t_small.counts[pos] >= (1 - 2 * eps) * small[pos]
                assert small[pos] > threshold
            else:
                assert t_small.counts[pos] == small[pos]


def test_family_strides_are_built_once():
    cells = tuple(range(24))
    family = Family(values=((0, 1, 2), (0, 1), (0, 3, 4, 5)), cells=cells, weights=cells, profits=cells, sums=cells, members=[], value_den=1)
    assert family.strides == [8, 4, 1]
    assert family.strides is family.strides
    assert [family.counts(cell) for cell in (0, 5, 23)] == [(0, 0, 0), (0, 1, 3), (2, 1, 5)]


def test_enumerate_family_two_item_class():
    _, classes, interval = class_structure([1, 1])
    family = enumerate_family(classes, interval, EPS, uncut(classes, interval))
    assert [counts for counts, _ in members(family)] == [(0,), (1,), (2,)]
    assert family.cells == (0, 1, 2) and family.members == [0, 1, 2]


def test_enumerate_family_empty_interval():
    instance = Instance.build(items=[], capacities=[1], lambdas=[1])
    classes = build_classes(instance, EPS)
    interval = make_interval(classes, 0, 0)
    family = enumerate_family(classes, interval, EPS, [1])
    assert members(family) == [((), 0)]
    assert len(family) == lattice_size(family) == 1


def test_enumerate_family_six_unit_items():
    _, classes, interval = class_structure([1] * 6)
    family = enumerate_family(classes, interval, EPS, uncut(classes, interval))
    counts = {counts for counts, _ in members(family)}
    assert {(k,) for k in range(6)} <= counts
    image = {prune_image((k,), classes, interval, EPS).counts for k in range(7)}
    assert image <= counts


def test_family_covers_bruteforce_image():
    rng = random.Random(99)
    for _ in range(25):
        n_classes = rng.randint(1, 3)
        weight_lists = [
            [rng.randint(1, 9) for _ in range(rng.randint(1, 8))] for _ in range(n_classes)
        ]
        _, classes, interval = class_structure(*weight_lists)
        family = {counts for counts, _ in members(enumerate_family(classes, interval, EPS, uncut(classes, interval)))}
        sizes = [classes.size(l) for l in interval.active]
        for counts in itertools.product(*(range(s + 1) for s in sizes)):
            assert prune_image(counts, classes, interval, EPS).counts in family


def test_mu_vectors_respect_sum_cap():
    _, classes, interval = class_structure([1] * 8, [2] * 7)
    cap = mu_sum_cap(interval, EPS)
    assert cap == 15  # (3/2) * 2 / (1/5)
    args = (classes, interval, EPS, (Fraction(1), Fraction(2)), 15)
    tables = list(heavy_configurations(classes, interval, EPS))
    assert tables == base_tables(*args)
    # one table per class at each base, none repeating the base before it;
    # every count offered truncates a count past 1/eps, so it is at least
    # 1/eps, at a multiplier in [1, cap]
    assert tables and all(len(options) == 2 and any(options) for options in tables)
    assert all(a != b for a, b in zip(tables, tables[1:]))
    assert all(c >= 5 and 1 <= mu <= cap for options in tables for o in options for c, mu in o.items())
    # their product reaches 8 tuples, the reference's, which takes 1 <= mu
    # and sum(mu) <= cap by construction
    configs = heavy_tuples(*args)
    assert all(any(c is not None for c in partial) for partial in configs)
    assert len(configs) == 8
    assert configs == reference_partials(*args)
    # its bases: the powers of two in [eps/|I| * w_min, 2*eps/|I| * n * w_max]
    assert _bases((1, 10), (6, 1)) == [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1, 2, 4]
    # both ends are inclusive: a one-point range, and a power of two at hi
    assert _bases((1, 2), (1, 2)) == [Fraction(1, 2)]
    assert _bases((1, 4), (2, 1)) == [Fraction(1, 4), Fraction(1, 2), 1, 2]


def _bases(lo, hi):
    return [Fraction(2) ** k for k in _power_range(lo, hi)]


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
)
@settings(max_examples=300)
def test_power_range_matches_doubling_reference(lo, hi):
    # bit lengths of ints give the bases the Fraction doubling climb gives
    got = _bases((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
    assert got == power_range(lo, hi)


def test_family_vectors_are_valid():
    _, classes, interval = class_structure([1] * 7, [3, 4])
    family = enumerate_family(classes, interval, EPS, uncut(classes, interval))
    for counts, weight in members(family):
        for pos, level in enumerate(interval.active):
            assert 0 <= counts[pos] <= classes.size(level)
        assert weight == make_vector(classes, interval, counts).weight


def _family_rows(family):
    """Decoded (counts, weight) per member, checked against the lattice: one
    row per member cell, in cell order, and ``len`` the member count; the
    cells ascend inside the lattice."""
    rows = members(family)
    assert len(family) == len(rows) == len(family.members)
    encoded = [
        sum(values.index(c) * stride for c, values, stride in zip(counts, family.values, family.strides))
        for counts, _ in rows
    ]
    assert encoded == member_cells(family)
    assert list(family.cells) == sorted(set(family.cells))
    assert all(0 <= cell < lattice_size(family) for cell in family.cells)
    return rows


def _two_past_light(family, eps):
    """True when some member takes two counts past 1/eps, which only a
    tuple fixing two heavy classes gives."""
    return any(sum(c > 1 / eps for c in counts) >= 2 for counts, _ in members(family))


def _reference_rows(args):
    """The reference family's (counts, weight) rows for (classes, interval,
    eps), bracketed by the window's items."""
    return [(v.counts, v.weight) for v in reference_family(*args, *window_bracket(*args[:2]))]


def _adds_heavy_vectors(family, classes, interval, eps):
    """True when the family holds more than the all-light vectors."""
    light = math.prod(min(int(1 / eps), classes.size(l)) + 1 for l in interval.active)
    return len(family) > light


@pytest.mark.parametrize("eps, max_classes", [(Fraction(1, 5), 3), (Fraction(1, 10), 2)])
def test_enumerate_family_equals_reference(eps, max_classes):
    rng = random.Random(int(1 / eps) + 7)
    heavy_hits = 0
    # integer weights, then fractional ones: the family is generic in the unit
    for den in [1] * 30 + [3, 7, 10] * 5:
        instance, classes, interval = random_class_structure(
            rng, eps, max_classes=max_classes, max_items=int(1 / eps) + 6, den=den
        )
        args = (classes, interval, eps)
        family = enumerate_family(*args, uncut(classes, interval))
        assert _family_rows(family) == _reference_rows(args)
        heavy_hits += _adds_heavy_vectors(family, classes, interval, eps)
    assert heavy_hits >= 5


def test_enumerate_family_equals_reference_on_heavy_profits():
    # profits 100/110/121 are one class each at eps 1/10; 14 items of
    # profit 100 make that class heavy
    eps = Fraction(1, 10)
    rng = random.Random(5)
    profits = [100] * 14 + [110] * 4 + [121] * 3
    instance = Instance.build(
        items=[(p, rng.randint(1, 10)) for p in profits], capacities=[60], lambdas=[1]
    )
    classes = build_classes(instance, eps)
    assert classes.size(0) == 14
    intervals = candidate_intervals(classes, eps, Fraction(1))
    heavy_hits = 0
    for interval in intervals:
        args = (classes, interval, eps)
        family = enumerate_family(*args, uncut(classes, interval))
        assert _family_rows(family) == _reference_rows(args)
        assert family.members == list(range(lattice_size(family)))  # one heavy class: a full lattice
        heavy_hits += _adds_heavy_vectors(family, classes, interval, eps)
    assert heavy_hits == len(intervals)


def test_enumerate_family_equals_reference_on_two_heavy_classes():
    cases = list(two_heavy_structures())
    assert len(cases) >= 3
    for args in cases:
        family = enumerate_family(*args, uncut(*args[:2]))
        assert _family_rows(family) == _reference_rows(args)
        # two heavy classes fixed at once: two heavy counts' multipliers fit one base's cap
        assert _two_past_light(family, args[2])


def test_enumerate_family_equals_reference_where_cells_are_sparse():
    # weights 1 to 40 in heavy classes: some heavy count tuple is cut by the
    # counting cap at every base while each of its counts is reached alone,
    # so the member cells miss part of the lattice
    sparse = 0
    for args in sparse_heavy_structures():
        family = enumerate_family(*args, uncut(*args[:2]))
        assert _family_rows(family) == _reference_rows(args)
        sparse += len(family) < lattice_size(family)
    assert sparse >= 2


def test_sum_cap_binds_on_two_heavy_classes():
    # the 11th lightest item of class 0 weighs as little as the 12th, so its
    # truncated count 10 is reached only at bases up to 1, where class 1's
    # full excess 30 (truncated count 12) already needs mu = 30 = cap
    eps = Fraction(1, 10)
    items = [(100, 1)] * 12 + [(100, 5)] + [(110, 10)] * 13
    instance = Instance.build(items=items, capacities=[60], lambdas=[1])
    classes = build_classes(instance, eps)
    interval = make_interval(classes, 0, 1)
    args = (classes, interval, eps, (Fraction(1), Fraction(10)), len(items))
    assert mu_sum_cap(interval, eps) == 30
    capped = reference_partials(*args)
    assert heavy_tuples(*args) == capped
    assert reference_partials(*args, cap=math.inf) - capped == {(10, 12)}
    family = enumerate_family(classes, interval, eps, uncut(classes, interval))
    assert _family_rows(family) == _reference_rows(args[:3])
    assert _two_past_light(family, eps)


def test_family_budget_refuses_at_the_first_axis_past_it(monkeypatch):
    # three classes, the walk holding 4, 18 and then 60 cells of weight at
    # most 9: with the budget at the first axis's entries, the walk stops at
    # the second axis and reports its count, not the table's
    instance, classes, interval = class_structure([1, 2, 3], [1, 1, 2, 2], [1, 2, 2, 3, 3], eps=EPS)
    args = (classes, interval, EPS)
    caps = [9, 9]
    family = enumerate_family(*args, caps)
    counts = []
    for axes in (1, 2, 3):
        heads = itertools.product(*family.values[:axes])
        counts.append(sum(sum(classes.prefix[l][c] for l, c in zip(interval.active, head)) <= 9 for head in heads))
    assert counts[0] < counts[1] < counts[2] == len(family.cells)
    monkeypatch.setattr(statespace, "FAMILY_BUDGET", counts[0] * 3)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_family(*args, caps)
    assert (info.value.required, info.value.budget) == (counts[1] * 3, counts[0] * 3)


def test_capacity_cut_keeps_exactly_the_reference_members_that_fit():
    # capacities below the heaviest lattice cell: the members are the
    # reference family's vectors within the largest one, in cell order, and
    # a fitting cell outside the family stays a non-member
    fitting_outsiders = 0
    for args in (*two_heavy_structures(), *sparse_heavy_structures()):
        classes, interval = args[:2]
        whole = enumerate_family(*args, uncut(classes, interval))
        weights = sorted(whole.weights)
        member = set(whole.members)
        outside = [w for pos, w in enumerate(whole.weights) if pos not in member]
        for top in {weights[len(weights) // 2], *outside[:1]}:
            family = enumerate_family(*args, [top // 2, top])
            want = [(v.counts, v.weight) for v in reference_family(*args, *window_bracket(classes, interval)) if v.weight <= top]
            assert members(family) == want
            assert len(family) == len(want)
            assert len(family.cells) < lattice_size(family)
            fitting_outsiders += len(family.cells) > len(family)
    assert fitting_outsiders >= 1
