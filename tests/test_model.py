import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_profit, e1, random_feasible_solution, random_instance
from incknap.model import (
    AllLambdasZero,
    DecreasingCapacity,
    EmptyHorizon,
    InfeasibleSolution,
    Instance,
    ItemNotIntroduced,
    NegativeLambda,
    NonPositiveProfit,
    NonPositiveWeight,
    Solution,
    check_feasible,
    item_contribution,
    objective,
    preprocess,
    remap_solution,
    validate,
)
from reference import objective_by_contributions


def test_build_stores_integral_scalars_as_ints():
    # exactly int where the value is integral, whatever its spelling, and a
    # Fraction otherwise; integer_units and the solvers then run on ints
    instance = Instance.build(
        items=[(7, Fraction(14, 2)), ("3/2", 2.5), (True, "007")],
        capacities=[Fraction(9, 3), "7.0", Fraction(1, 3)],
        lambdas=["+7", 0, Fraction(-4, 2)],
    )
    assert instance.items == ((7, 7), (Fraction(3, 2), Fraction(5, 2)), (1, 7))
    assert instance.capacities == (3, 7, Fraction(1, 3))
    assert instance.lambdas == (7, 0, -2)
    scalars = [*(x for item in instance.items for x in item), *instance.capacities, *instance.lambdas]
    kinds = [type(x).__name__ for x in scalars]
    assert kinds == ["int"] * 2 + ["Fraction"] * 2 + ["int"] * 4 + ["Fraction"] + ["int"] * 3


def test_validate_smallest_instance():
    validate(Instance.build(items=[(1, 1)], capacities=[1], lambdas=[1]))


def test_validate_zero_weight_names_item():
    with pytest.raises(NonPositiveWeight) as err:
        validate(Instance.build(items=[(1, 0)], capacities=[1], lambdas=[1]))
    assert err.value.index == 0


def test_validate_zero_profit():
    with pytest.raises(NonPositiveProfit):
        validate(Instance.build(items=[(0, 1)], capacities=[1], lambdas=[1]))


def test_validate_decreasing_capacity_names_period():
    with pytest.raises(DecreasingCapacity) as err:
        validate(Instance.build(items=[], capacities=[2, 1], lambdas=[1, 1]))
    assert err.value.index == 2


def test_validate_negative_lambda():
    with pytest.raises(NegativeLambda):
        validate(Instance.build(items=[], capacities=[1], lambdas=[-1]))


def test_validate_empty_horizon():
    with pytest.raises(EmptyHorizon):
        validate(Instance.build(items=[(1, 1)], capacities=[], lambdas=[]))


def test_preprocess_drops_zero_lambda_periods():
    instance = Instance.build(items=[(1, 1)], capacities=[1, 2, 3, 4], lambdas=[0, 1, 0, 2])
    reduced, remap = preprocess(instance)
    assert reduced.lambdas == (1, 2)
    assert reduced.capacities == (2, 4)
    assert remap == (2, 4)


def test_preprocess_identity_when_all_positive():
    instance = Instance.build(items=[], capacities=[1, 1], lambdas=[1, 1])
    reduced, remap = preprocess(instance)
    assert reduced is instance
    assert remap == (1, 2)


def test_preprocess_all_zero_lambdas():
    with pytest.raises(AllLambdasZero):
        preprocess(Instance.build(items=[], capacities=[1, 1], lambdas=[0, 0]))


def test_objective_e1_optimum():
    instance = e1()
    solution = Solution((2, 1))
    assert objective(instance, solution) == 8
    # exhaustive confirmation over all nine assignments, straight from raw numbers
    best = max(
        v
        for a in (1, 2, None)
        for b in (1, 2, None)
        if (v := brute_profit(instance, (a, b))) is not None
    )
    assert best == 8


def test_objective_empty_solution():
    assert objective(e1(), Solution((None, None))) == 0


def test_objective_single_item_both_forms():
    instance = e1()
    solution = Solution((1, None))
    assert objective(instance, solution) == 4
    assert objective_by_contributions(instance, solution) == 4


def test_objective_rejects_infeasible():
    with pytest.raises(InfeasibleSolution):
        objective(e1(), Solution((1, 1)))


def test_item_contribution_e1():
    instance = e1()
    solution = Solution((2, 1))
    assert item_contribution(instance, solution, 1) == 6
    assert item_contribution(instance, solution, 0) == 2  # introduced at T: p * lambda_T


def test_item_contribution_never_raises():
    with pytest.raises(ItemNotIntroduced):
        item_contribution(e1(), Solution((None, 1)), 0)


def test_check_feasible_reports_first_violation():
    assert check_feasible(e1(), Solution((1, 1))) == 1
    assert check_feasible(e1(), Solution((2, 1))) is None
    assert check_feasible(e1(), Solution((None, None))) is None


def test_suffix_lambdas_values():
    instance = Instance.build(items=[], capacities=[1, 1, 1], lambdas=[2, 0, 3])
    assert instance.suffix_lambdas.values == (5, 3, 3)


small_rationals = st.fractions(min_value=Fraction(1, 4), max_value=10, max_denominator=8)


@st.composite
def instances(draw, max_n=5, max_t=4, allow_zero_lambda=True):
    n = draw(st.integers(0, max_n))
    t = draw(st.integers(1, max_t))
    items = [(draw(small_rationals), draw(small_rationals)) for _ in range(n)]
    caps = []
    acc = Fraction(0)
    for _ in range(t):
        acc += draw(st.fractions(min_value=0, max_value=8, max_denominator=4))
        caps.append(acc)
    lo = Fraction(0) if allow_zero_lambda else Fraction(1, 4)
    lambdas = [draw(st.fractions(min_value=lo, max_value=5, max_denominator=4)) for _ in range(t)]
    return Instance.build(items=items, capacities=caps, lambdas=lambdas)


@given(instances(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_objective_forms_agree(instance, pyrandom):
    solution = random_feasible_solution(pyrandom, instance)
    assert objective(instance, solution) == objective_by_contributions(instance, solution)


@given(instances())
@settings(max_examples=100, deadline=None)
def test_suffix_lambdas_nonincreasing(instance):
    values = instance.suffix_lambdas.values
    assert all(a >= b for a, b in zip(values, values[1:]))


@given(instances(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_feasibility_monotone_under_deletion(instance, pyrandom):
    solution = random_feasible_solution(pyrandom, instance)
    assert check_feasible(instance, solution) is None
    intro = list(solution.intro)
    introduced = [i for i, t in enumerate(intro) if t is not None]
    if introduced:
        intro[pyrandom.choice(introduced)] = None
        assert check_feasible(instance, Solution(tuple(intro))) is None


@given(instances(allow_zero_lambda=True), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_preprocess_preserves_objective(instance, pyrandom):
    try:
        reduced, remap = preprocess(instance)
    except AllLambdasZero:
        return
    solution = random_feasible_solution(pyrandom, reduced)
    remapped = remap_solution(solution, remap)
    assert objective(reduced, solution) == objective(instance, remapped)


def test_preprocess_preservation_deterministic_sweep():
    rng = random.Random(7)
    for _ in range(50):
        instance = random_instance(rng, positive_lambdas=False)
        try:
            reduced, remap = preprocess(instance)
        except AllLambdasZero:
            continue
        solution = random_feasible_solution(rng, reduced)
        assert objective(reduced, solution) == objective(instance, remap_solution(solution, remap))
