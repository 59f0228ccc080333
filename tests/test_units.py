import dataclasses
import math
import random
from fractions import Fraction

import pytest

from helpers import e1, random_instance, served
from incknap.bounded import InverseFrontier, InverseResult, solve_bounded, solve_inverse
from incknap.general import solve_detailed
from incknap.model import Instance, integer_units, objective, preprocess, remap_solution
from incknap.oracle import exact_opt


def scalars(value):
    """Every leaf of a result: dataclass fields, containers and dict values."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from scalars(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from scalars(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from scalars(item)
    else:
        yield value


def divided(instance, dp, dw, dl):
    """Profits over dp, weights and capacities over dw, lambdas over dl."""
    return Instance.build(
        items=[(Fraction(p, dp), Fraction(w, dw)) for p, w in instance.items],
        capacities=[Fraction(c, dw) for c in instance.capacities],
        lambdas=[Fraction(v, dl) for v in instance.lambdas],
    )


def test_integer_units_scales_each_kind_by_one_lcm():
    instance = Instance.build(
        items=[(Fraction(1, 2), Fraction(2, 3)), (Fraction(5, 4), 1)],
        capacities=[Fraction(1, 6), 2],
        lambdas=[Fraction(1, 5), Fraction(3, 10)],
    )
    scaled, value_unit, weight_unit = integer_units(instance)
    assert scaled.items == ((2, 4), (5, 6))
    assert scaled.capacities == (1, 12)
    assert scaled.lambdas == (2, 3)
    assert (value_unit, weight_unit) == (40, 6)
    assert all(type(v) is int for v in scalars(scaled))


def test_integer_units_equal_the_fraction_formula():
    # each scalar times its kind's lcm of denominators, computed on Fractions
    rng = random.Random(31)
    for k in range(60):
        instance = random_instance(rng, n_max=7, t_max=4)
        if k % 3:
            instance = divided(instance, *(rng.choice((1, 2, 6, 7, 10**12 + 39)) for _ in range(3)))
        if k % 5 == 0:
            instance, _, _ = integer_units(instance)  # plain int scalars
        scaled, value_unit, weight_unit = integer_units(instance)
        p_unit = math.lcm(1, *(Fraction(p).denominator for p, _ in instance.items))
        l_unit = math.lcm(1, *(Fraction(v).denominator for v in instance.lambdas))
        w_unit = math.lcm(
            1, *(Fraction(w).denominator for _, w in instance.items), *(Fraction(c).denominator for c in instance.capacities)
        )
        assert (value_unit, weight_unit) == (p_unit * l_unit, w_unit)
        assert scaled.items == tuple((int(Fraction(p) * p_unit), int(Fraction(w) * w_unit)) for p, w in instance.items)
        assert scaled.capacities == tuple(int(Fraction(c) * w_unit) for c in instance.capacities)
        assert scaled.lambdas == tuple(int(Fraction(v) * l_unit) for v in instance.lambdas)
        assert all(type(v) is int for v in scalars(scaled))


def test_solutions_invariant_under_unit_changes():
    rng = random.Random(23)
    for _ in range(12):
        instance = random_instance(rng, n_max=7, t_max=3)
        dp, dw, dl = (rng.randint(1, 12) for _ in range(3))
        other = divided(instance, dp, dw, dl)

        # public eps <= 1 keeps every class at or below the heavy threshold
        for eps in (Fraction(1), Fraction(1, 2)):
            assert solve_detailed(other, eps).solution == solve_detailed(instance, eps).solution

        pre, _ = preprocess(instance)
        other_pre, _ = preprocess(other)
        for eps in (Fraction(1, 8), Fraction(1, 10)):
            assert solve_bounded(other_pre, eps) == solve_bounded(pre, eps)

        opt, solution = exact_opt(instance)
        other_opt, other_solution = exact_opt(other)
        assert other_solution == solution
        assert other_opt * dp * dl == opt
        assert objective(other, solution) * dp * dl == objective(instance, solution)


def test_no_float_in_results_on_integer_units():
    rng = random.Random(29)
    for _ in range(8):
        instance, _, _ = integer_units(random_instance(rng, n_max=6, t_max=3))
        result = solve_detailed(instance, Fraction(1, 2))
        assert not any(isinstance(v, float) for v in scalars(result))
        if result.core_instance is not None:
            assert all(type(v) is int for v in scalars(result.core_instance))
        frontier = InverseFrontier(instance, Fraction(1, 5))
        for phi in (0, 1, objective(instance, result.solution)):
            answer = frontier.query(phi)
            assert not any(isinstance(v, float) for v in scalars(answer))


def test_solve_inverse_is_the_integer_units_frontier_mapped_back():
    # non-unit denominators in every kind of scalar and some zero lambdas:
    # the answer is the query of the integer-units frontier at phi times
    # value_unit, with its profits and weight divided back, and it still
    # weighs and scores as its solution does on the original instance
    rng = random.Random(37)
    scaled_runs = 0
    for _ in range(16):
        base = random_instance(rng, n_max=6, t_max=3, positive_lambdas=False)
        instance = divided(base, *(rng.choice((1, 2, 3, 7)) for _ in range(3)))
        pre, remap = preprocess(instance)
        scaled, value_unit, weight_unit = integer_units(pre)
        scaled_runs += value_unit > 1 and weight_unit > 1
        frontier = InverseFrontier(scaled, Fraction(1, 5))
        requirements = [s / value_unit for s in served(frontier)]
        for phi in sorted({Fraction(0), *requirements, *(s + Fraction(1, 10**9) for s in requirements)}):
            got = solve_inverse(instance, phi, Fraction(1, 5))
            want = frontier.query(phi * value_unit)
            if want is None:
                assert got is None
                continue
            assert got == InverseResult(
                solution=remap_solution(want.solution, remap),
                rounded_profit=Fraction(want.rounded_profit, value_unit),
                true_profit=Fraction(want.true_profit, value_unit),
                weight=Fraction(want.weight, weight_unit),
            )
            assert got.true_profit == objective(instance, got.solution) >= Fraction(2, 5) * phi
            assert got.weight == got.solution.weights_by_period(instance)[-1]
            assert all(type(v) is Fraction for v in (got.rounded_profit, got.true_profit, got.weight))
    assert scaled_runs >= 4


def test_inverse_frontier_takes_only_ints_and_positive_trailing_lambdas():
    scaled, _, _ = integer_units(e1())
    InverseFrontier(scaled, Fraction(1, 5))
    (p, w), other = scaled.items
    fraction_scalars = [
        dataclasses.replace(scaled, items=((Fraction(p), w), other)),
        dataclasses.replace(scaled, items=((p, Fraction(w, 2)), other)),
        dataclasses.replace(scaled, capacities=(scaled.capacities[0], Fraction(scaled.capacities[1]))),
        dataclasses.replace(scaled, lambdas=(Fraction(1, 2), scaled.lambdas[1])),
    ]
    for instance in fraction_scalars:
        with pytest.raises(ValueError, match="integer units"):
            InverseFrontier(instance, Fraction(1, 5))
    # a zero lambda anywhere, not only a trailing one
    for lambdas in ((1, 0), (0, 1)):
        with pytest.raises(ValueError, match="every lambda positive"):
            InverseFrontier(dataclasses.replace(scaled, lambdas=lambdas), Fraction(1, 5))


def test_inverse_frontier_refuses_a_zero_profit():
    # the class ladder's scale would be 0, so its climb would never end
    with pytest.raises(ValueError, match="profits must be positive"):
        InverseFrontier(Instance(((0, 1), (3, 2)), (4,), (1,)), Fraction(1, 5))
