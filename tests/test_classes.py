import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import e1, random_feasible_solution, random_instance, suffix_ratio
from incknap import classes as classes_module
from incknap.classes import build_classes, candidate_intervals, interval_length_cap, make_interval
from incknap.model import BudgetExceeded, Instance, objective
from reference import ClassIndexOutOfRange, CountOutOfRange, prefix_weight


def unit_items(weights, profits=None):
    profits = profits or [1] * len(weights)
    return Instance.build(
        items=list(zip(profits, weights)),
        capacities=[sum(map(Fraction, weights))],
        lambdas=[1],
    )


def test_build_classes_e1():
    classes = build_classes(e1(), Fraction(1, 5))
    assert classes.scale == 2
    assert classes.members == {0: (0,), 2: (1,)}
    # 1.2**2 = 1.44 <= 1.5 < 1.728
    assert (1 + classes.eps) ** 2 == Fraction(36, 25)
    # profit 3 over its rounded profit 2 * 1.44
    assert Fraction(*classes.spread) == Fraction(25, 24)


def test_build_classes_equal_profits_single_class():
    instance = unit_items([3, 1, 2], profits=[5, 5, 5])
    classes = build_classes(instance, Fraction(1, 5))
    assert set(classes.members) == {0}
    assert classes.members[0] == (1, 2, 0)  # sorted by weight, ties by index


def test_build_classes_boundary_power():
    instance = unit_items([1, 1], profits=[1, Fraction(6, 5)])
    classes = build_classes(instance, Fraction(1, 5))
    assert set(classes.members) == {0, 1}


@pytest.mark.parametrize("budget, top, refused", [(5, 6**5, True), (6, 6**5, False), (5, 6**5 - 1, False)])
def test_build_classes_budget_boundary(monkeypatch, budget, top, refused):
    # profit 6**5 over scale 5**5 sits exactly on level 5 at eps 1/5, one
    # unit less on level 4: a ladder whose top level reaches the budget
    # (budget + 1 levels, 0 included) is refused, one level lower is not
    monkeypatch.setattr(classes_module, "CLASS_BUDGET", budget)
    instance = unit_items([1, 1], profits=[5**5, top])
    if refused:
        with pytest.raises(BudgetExceeded, match=f"profit class ladder of at least {budget + 1} levels exceeds budget {budget}$"):
            build_classes(instance, Fraction(1, 5))
    else:
        assert max(build_classes(instance, Fraction(1, 5)).indices) == budget - 1


def ladder_cases():
    """(d, scale, top): eps 1/d from 1 to 1/6 over free tops, and eps of
    41- and 254-digit denominators over tops on, just below and well past
    the levels up to 14."""
    yield from itertools.product(range(1, 7), (1, 3, Fraction(2, 3)), range(1, 70, 3))
    for d in (10**40 + 7, 7**300):
        for scale, j in itertools.product((1, Fraction(2, 3)), range(15)):
            on = scale * (1 + Fraction(1, d)) ** j
            yield from ((d, scale, top) for top in (on, on * (1 - Fraction(1, d * d)), on * 2))


def test_build_classes_budget_matches_the_ladder(monkeypatch):
    # ``power_order``'s bounds and its exact test together refuse a ladder
    # iff climbing it would pass the budget, on int and Fraction profits;
    # the levels are climbed up to 13 alone, past every budget tried
    refused = Counter()
    for d, scale, top in ladder_cases():
        level = 0
        while level < 13 and scale * (1 + Fraction(1, d)) ** (level + 1) <= top:
            level += 1
        instance = unit_items([1, 1], profits=[scale, max(top, scale)])
        for budget in range(1, 13):
            monkeypatch.setattr(classes_module, "CLASS_BUDGET", budget)
            try:
                build_classes(instance, Fraction(1, d))
            except BudgetExceeded:
                refused[True] += 1
                assert level >= budget
            else:
                refused[False] += 1
                assert level < budget
    assert min(refused.values()) > 600


@pytest.mark.parametrize("digits", [1, 2, 40])
def test_power_order_matches_the_exact_powers(digits):
    # ratios on, one part in b**2 around, and well off (a/b)**k, and near
    # the cheap bounds 1 + k*x and 1/(1 - k*x), with b of up to 40 digits;
    # each ratio is a pair of ints, not reduced
    rng = random.Random(digits)
    signs = Counter()
    for _ in range(300):
        b = rng.randint(10 ** (digits - 1), 10**digits)
        a = b + rng.randint(1, min(b, 10))
        k = rng.randint(0, 40)
        up, down, rise, bb = a**k, b**k, k * (a - b), b * b
        near = [(up, down), (b + rise, b), (b, b - rise) if rise < b else (3 * up, down), (1, 3), (up << 40, down)]
        for top, bottom in near:
            for high, low in ((top, bottom), (top * (bb + 1), bottom * bb), (top * (bb - 1), bottom * bb)):
                want = (up * low > down * high) - (up * low < down * high)
                assert classes_module.power_order(a, b, k, high, low) == want
                signs[want] += 1
    assert min(signs.values()) > 200


def test_build_classes_empty_instance():
    classes = build_classes(Instance.build(items=[], capacities=[1], lambdas=[1]), Fraction(1, 5))
    assert classes.members == {}
    assert Fraction(*classes.spread) == 1


def test_spread_is_the_largest_profit_over_its_rounded_profit():
    # the ladder's spread is the most p / (scale * (1+eps)**level) over the
    # profits, computed here from the levels; profits on a power of 1+eps
    # (36/25 = 1.2**2) have spread 1
    rng = random.Random(3)
    for _ in range(200):
        eps = Fraction(1, rng.choice([5, 10, 14, 42]))
        items = [(rng.randint(1, 1000), 1) for _ in range(rng.randint(1, 8))]
        classes = build_classes(Instance.build(items=items, capacities=[1], lambdas=[1]), eps)
        want = max(
            Fraction(items[i][0], classes.scale * (1 + eps) ** level)
            for level, members in classes.members.items()
            for i in members
        )
        assert Fraction(*classes.spread) == want and 1 <= want < 1 + eps
    classes = build_classes(Instance(items=((25, 1), (36, 1)), capacities=(2,), lambdas=(1,)), Fraction(1, 5))
    assert Fraction(*classes.spread) == 1


def test_build_classes_rejects_non_unit_eps():
    with pytest.raises(ValueError):
        build_classes(e1(), Fraction(2, 5))


def test_prefix_weight_direct_sums():
    classes = build_classes(unit_items([1, 1, 1, 2]), Fraction(1, 5))
    assert prefix_weight(classes, 0, 1, 3) == 3
    assert prefix_weight(classes, 0, 4, 3) == 0
    classes2 = build_classes(unit_items([1, 2, 5]), Fraction(1, 5))
    assert prefix_weight(classes2, 0, 2, 3) == 7


def test_prefix_weight_errors():
    classes = build_classes(unit_items([1, 2]), Fraction(1, 5))
    with pytest.raises(ClassIndexOutOfRange):
        prefix_weight(classes, -1, 1, 1)
    with pytest.raises(CountOutOfRange):
        prefix_weight(classes, 0, 1, 3)
    with pytest.raises(CountOutOfRange):
        prefix_weight(classes, 0, 0, 1)


def test_candidate_intervals_single_class():
    classes = build_classes(unit_items([1, 1]), Fraction(1, 5))
    intervals = candidate_intervals(classes, Fraction(1, 5), Fraction(1))
    assert [(iv.lo, iv.hi) for iv in intervals] == [(0, 0)]


def test_candidate_intervals_formula():
    # classes {0, 10}: with a window of 3 the top interval starts at 8
    instance = unit_items([1, 1], profits=[1, Fraction(6, 5) ** 10])
    classes = build_classes(instance, Fraction(1, 5))
    assert set(classes.members) == {0, 10}
    intervals = candidate_intervals(classes, Fraction(1, 5), Fraction(1))
    width = interval_length_cap(Fraction(1, 5), 2, Fraction(1), max_useful=11)
    expected_lo = max(10 - width + 1, 0)
    assert [(iv.lo, iv.hi) for iv in intervals] == [(0, 0), (expected_lo, 10)]


def test_candidate_intervals_window_truncates_wide_spreads():
    # profits 1 and 1.2**40 with n=2, rho=1: window 13, so the top interval
    # starts at 40 - 13 + 1 = 28 and genuinely excludes low classes
    instance = unit_items([1, 1], profits=[1, Fraction(6, 5) ** 40])
    classes = build_classes(instance, Fraction(1, 5))
    intervals = candidate_intervals(classes, Fraction(1, 5), Fraction(1))
    assert [(iv.lo, iv.hi) for iv in intervals] == [(0, 0), (28, 40)]
    assert intervals[1].active == (40,)


def test_interval_length_cap_matches_ceiling():
    # smallest L with 1.2**L >= n*rho/eps: n=2, rho=1, eps=1/5 -> target 10
    assert interval_length_cap(Fraction(1, 5), 2, Fraction(1), max_useful=100) == 13
    assert Fraction(6, 5) ** 13 >= 10 > Fraction(6, 5) ** 12
    # (6/5)**10 equals n*rho/eps exactly, and L = 10 already meets it
    assert interval_length_cap(Fraction(1, 5), 1, Fraction(6**10, 5**11), max_useful=100) == 10
    # the cap applies at L = max_useful, one short of the uncapped 13
    assert interval_length_cap(Fraction(1, 5), 2, Fraction(1), max_useful=12) == 12


def stepwise_length_cap(eps, n, rho, max_useful):
    """The smallest L with (1+eps)**L >= n*rho/eps, climbed one level at a time, capped at max_useful."""
    target, power, length = n * rho / eps, Fraction(1), 0
    while power < target:
        if length >= max_useful:
            return max_useful
        power, length = power * (1 + eps), length + 1
    return max(length, 1)


def test_interval_length_cap_matches_the_stepwise_climb():
    # n*rho/eps on, just above or just below a power (1+eps)**L, or free,
    # against caps below, at and above L
    rng = random.Random(37)
    on_a_power = binding = 0
    for _ in range(1500):
        eps = Fraction(1, rng.choice([1, 2, 5, 10, 14, 42]))
        n, level = rng.randint(1, 60), rng.randint(0, 120)
        kind = rng.choice(["on", "above", "below", "free"])
        if kind == "free":
            rho = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3))
        else:
            nudge = {"on": 1, "above": 1 + Fraction(1, 10**12), "below": 1 - Fraction(1, 10**12)}[kind]
            rho = (1 + eps) ** level * eps / n * nudge
        max_useful = rng.choice([rng.randint(0, 130), max(level + rng.randint(-1, 1), 0)])
        want = stepwise_length_cap(eps, n, rho, max_useful)
        assert interval_length_cap(eps, n, rho, max_useful) == want
        on_a_power += kind == "on"
        binding += want == max_useful and n * rho / eps > (1 + eps) ** max_useful
    assert on_a_power > 200 and binding > 200


def test_candidate_coverage_property():
    # the interval emitted for a solution's true top class covers every class
    # within the window below it
    rng = random.Random(3)
    for _ in range(30):
        instance = random_instance(rng, n_max=6, t_max=2)
        classes = build_classes(instance, Fraction(1, 5))
        rho = suffix_ratio(instance)
        intervals = {iv.hi: iv for iv in candidate_intervals(classes, Fraction(1, 5), rho)}
        width = interval_length_cap(
            Fraction(1, 5), instance.n, rho, max_useful=max(classes.indices) + 1
        )
        for top in classes.indices:
            iv = intervals[top]
            for level in classes.indices:
                if top - width < level <= top:
                    assert iv.lo <= level <= iv.hi


def test_rounded_profit_brackets_true_profit():
    # rounded-class profit underestimates by at most a (1+eps) factor
    rng = random.Random(11)
    eps = Fraction(1, 5)
    for _ in range(40):
        instance = random_instance(rng, n_max=6, t_max=3)
        classes = build_classes(instance, eps)
        solution = random_feasible_solution(rng, instance)
        rounded_items = tuple(
            (classes.scale * (1 + classes.eps) ** level, instance.items[i][1])
            for level in sorted(classes.members)
            for i in classes.members[level]
        )
        order = [
            i for level in sorted(classes.members) for i in classes.members[level]
        ]
        rounded_instance = Instance(
            items=rounded_items,
            capacities=instance.capacities,
            lambdas=instance.lambdas,
        )
        rounded_solution_intro = tuple(solution.intro[i] for i in order)
        from incknap.model import Solution

        true_value = objective(instance, solution)
        rounded_value = objective(rounded_instance, Solution(rounded_solution_intro))
        assert rounded_value <= true_value
        assert rounded_value >= true_value / (1 + eps)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_prefix_minimality(weights, k):
    # the k lightest items of a class weigh no more than any k-subset
    k = min(k, len(weights))
    classes = build_classes(unit_items(weights), Fraction(1, 5))
    lightest = prefix_weight(classes, 0, 1, k)
    for subset in itertools.combinations(range(len(weights)), k):
        assert lightest <= sum(weights[i] for i in subset)


def test_make_interval_active_classes():
    instance = unit_items([1, 1, 1], profits=[1, 2, 8])
    classes = build_classes(instance, Fraction(1, 5))
    assert set(classes.members) == {0, 3, 11}
    interval = make_interval(classes, 2, 11)
    assert interval.active == (3, 11)
    assert interval.length == 10


def test_build_classes_divides_integer_profits_exactly():
    # 36/25 is exactly (6/5)**2; float division lands just below it
    classes = build_classes(Instance(items=((25, 1), (36, 1)), capacities=(2,), lambdas=(1,)), Fraction(1, 5))
    assert classes.members == {0: (0,), 2: (1,)}
