import random
from fractions import Fraction

import pytest

from helpers import brute_inverse, brute_opt, e1, random_instance
from incknap.classes import build_classes, make_interval
from incknap.model import Instance, objective
from incknap.oracle import BudgetExceeded, exact_inverse, exact_opt
from incknap.reference import exact_restricted_dp


def test_exact_opt_e1():
    profit, solution = exact_opt(e1())
    assert profit == 8
    assert solution.intro == (2, 1)


def test_exact_opt_no_items():
    profit, solution = exact_opt(Instance.build(items=[], capacities=[1], lambdas=[1]))
    assert profit == 0
    assert solution.intro == ()


def test_exact_opt_zero_capacity():
    instance = Instance.build(items=[(5, 1)], capacities=[0, 0], lambdas=[1, 1])
    profit, solution = exact_opt(instance)
    assert profit == 0
    assert solution.intro == (None,)


def test_exact_opt_budget():
    instance = Instance.build(items=[(1, 1)] * 10, capacities=[5], lambdas=[1])
    with pytest.raises(BudgetExceeded):
        exact_opt(instance, budget=100)


def test_exact_opt_matches_definition_on_random_instances():
    rng = random.Random(21)
    for _ in range(40):
        instance = random_instance(rng, n_max=5, t_max=3)
        profit, solution = exact_opt(instance)
        assert profit == brute_opt(instance)
        assert objective(instance, solution) == profit


def test_exact_inverse_e1():
    result = exact_inverse(e1(), Fraction(8))
    assert result is not None
    weight, solution = result
    assert weight == 3
    assert objective(e1(), solution) >= 8


def test_exact_inverse_zero_requirement():
    weight, solution = exact_inverse(e1(), Fraction(0))
    assert weight == 0
    assert solution.intro == (None, None)


def test_exact_inverse_infeasible():
    assert exact_inverse(e1(), Fraction(9)) is None


def test_exact_inverse_monotone_in_phi():
    rng = random.Random(5)
    for _ in range(25):
        instance = random_instance(rng, n_max=5, t_max=2)
        opt, _ = exact_opt(instance)
        if opt == 0:
            continue
        previous = Fraction(0)
        for quarter in (1, 2, 3, 4):
            res = exact_inverse(instance, opt * quarter / 4)
            assert res is not None
            assert res[0] >= previous
            previous = res[0]


def test_exact_inverse_matches_definition():
    rng = random.Random(17)
    for _ in range(25):
        instance = random_instance(rng, n_max=5, t_max=2)
        opt, _ = exact_opt(instance)
        phi = opt / 2
        res = exact_inverse(instance, phi)
        expected = brute_inverse(instance, phi)
        assert (res is None) == (expected is None)
        if res is not None:
            assert res[0] == expected


def test_restricted_dp_tiny_table():
    instance = Instance.build(items=[(1, 1), (1, 2)], capacities=[1, 3], lambdas=[1, 1])
    classes = build_classes(instance, Fraction(1, 5))
    interval = make_interval(classes, 0, 0)
    table = exact_restricted_dp(instance, classes, interval)
    assert table[(0, (0,))] == 0
    assert table[(0, (1,))] is None
    assert table[(1, (1,))] == 2
    assert table[(2, (2,))] == 3  # introduce lighter at t=1, heavier at t=2
    assert table[(1, (2,))] is None  # weight 3 exceeds W_1


def test_restricted_dp_budget():
    instance = Instance.build(items=[(1, 1)] * 30, capacities=[30], lambdas=[1])
    classes = build_classes(instance, Fraction(1, 5))
    interval = make_interval(classes, 0, 0)
    with pytest.raises(BudgetExceeded):
        exact_restricted_dp(instance, classes, interval, budget=10)


def test_restricted_dp_agrees_with_exact_opt_on_distinct_weights():
    # with rounded profits equal to true profits (single class, all profit 1)
    # and distinct weights, the best prefix-like value equals the optimum
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 5)
        weights = rng.sample(range(1, 12), n)
        caps = []
        acc = 0
        t = rng.randint(1, 3)
        for _ in range(t):
            acc += rng.randint(1, 8)
            caps.append(acc)
        lambdas = [rng.randint(1, 4) for _ in range(t)]
        instance = Instance.build(
            items=[(1, w) for w in weights], capacities=caps, lambdas=lambdas
        )
        classes = build_classes(instance, Fraction(1, 5))
        interval = make_interval(classes, 0, 0)
        table = exact_restricted_dp(instance, classes, interval)
        best = max(
            (v for (t_, _), v in table.items() if t_ == instance.horizon and v is not None),
            default=Fraction(0),
        )
        opt, _ = exact_opt(instance)
        assert best == opt


def test_exact_opt_dominates_any_feasible_solution():
    rng = random.Random(33)
    for _ in range(20):
        instance = random_instance(rng, n_max=5, t_max=3)
        opt, _ = exact_opt(instance)
        from helpers import random_feasible_solution

        solution = random_feasible_solution(rng, instance)
        assert objective(instance, solution) <= opt
