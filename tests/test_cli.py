import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incknap import cli, statespace
from incknap.cli import (
    format_rational,
    generate_instance,
    instance_from_json,
    instance_to_json,
    main,
    parse_rational,
)
from incknap.bounded import accuracy_budget
from incknap.classes import build_classes
from incknap.model import Instance, Solution, objective, preprocess, validate
from incknap.oracle import exact_opt


def test_format_rational_decimal_forms():
    assert format_rational(Fraction(8)) == "8"
    assert format_rational(Fraction(3, 2)) == "1.5"
    assert format_rational(Fraction(1, 8)) == "0.125"
    assert format_rational(Fraction(-3, 4)) == "-0.75"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(7, 10)) == "0.7"


def test_parse_rational_forms():
    assert parse_rational("1.5") == Fraction(3, 2)
    assert parse_rational("3/5") == Fraction(3, 5)
    assert parse_rational("7") == 7


@pytest.mark.parametrize(
    "text", ["0", "7", "007", "123456789012345678901234567890", " 7", "7 ", "+7", "-7", "1_000", "７", "٣", "", "x", "1/0"]
)
def test_parse_rational_agrees_with_fraction(text):
    # parse_rational is Fraction on the stripped text, rejections included;
    # the document reader stores the value as Instance.build would: an int
    # when integral, a Fraction otherwise
    try:
        want = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            parse_rational(text)
        with pytest.raises(type(exc)):
            cli._json_rational(text, "scalar")
    else:
        got = parse_rational(text)
        assert type(got) is Fraction and got == want
        scalar = cli._json_rational(text, "scalar")
        assert scalar == want
        assert type(scalar) is (int if want.denominator == 1 else Fraction)


@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(22, 7), Fraction(-5, 16), Fraction(9)])
def test_format_parse_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_gen_deterministic_bytes():
    a = instance_to_json(generate_instance(1, 3, 2, "uniform"))
    b = instance_to_json(generate_instance(1, 3, 2, "uniform"))
    assert a == b


def test_gen_subset_sum_profile():
    instance = generate_instance(7, 5, 2, "subset-sum")
    assert all(p == w for p, w in instance.items)


def test_gen_singleton():
    instance = generate_instance(0, 1, 1, "uniform")
    validate(instance)
    assert instance.n == 1 and instance.horizon == 1


def test_gen_geometric_lambda_ratios():
    instance = generate_instance(3, 4, 3, "geometric-lambda")
    validate(instance)
    suffix = instance.suffix_lambdas
    for a, b in zip(suffix, suffix[1:]):
        assert b / a < Fraction(1, 5) / instance.n  # steep enough to split bands


def test_instance_json_round_trip():
    instance = generate_instance(5, 4, 3, "uniform")
    again = instance_from_json(instance_to_json(instance))
    assert again == instance
    # Fraction scalars come back as equal Fractions, integral ones as ints
    instance = Instance.build(
        items=[(Fraction(7, 3), Fraction(1, 8)), (Fraction(6, 3), 5)],
        capacities=[Fraction(3, 10), Fraction(101, 112)],
        lambdas=[Fraction(1, 3), Fraction(10, 5)],
    )
    again = instance_from_json(instance_to_json(instance))
    assert again == instance
    assert again.items[1] == (2, 5) and type(again.items[1][0]) is int and type(again.lambdas[1]) is int


def test_cmd_gen_and_solve_exact(tmp_path, capsys):
    path = tmp_path / "e1.json"
    doc = {
        "items": [{"p": "2", "w": "1"}, {"p": "3", "w": "2"}],
        "capacities": ["2", "3"],
        "lambdas": ["1", "1"],
    }
    path.write_text(json.dumps(doc))
    out = tmp_path / "sol.json"
    code = main(["solve", str(path), "--mode", "exact", "--out", str(out)])
    assert code == 0
    solution = json.loads(out.read_text())
    assert solution["profit"] == "8"
    assert solution["intro"] == [2, 1]
    assert solution["weights_by_period"] == ["2", "3"]


def test_cmd_solve_general_guarantee(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate_instance(11, 5, 2, "uniform")))
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--mode", "general", "--eps", "0.5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    instance = instance_from_json(path.read_text())
    opt, _ = exact_opt(instance)
    assert parse_rational(doc["profit"]) >= opt / 2


def heavy_instance(seed: int) -> Instance:
    """The bounded-heavy benchmark shape: 32 items of profit 100, 110 or 121
    (one class each at internal eps 1/10), T=4."""
    rng = random.Random(seed)
    items = [(rng.choice((100, 110, 121)), rng.randint(1, 10)) for _ in range(32)]
    caps = list(itertools.accumulate(rng.randint(1, 10) for _ in range(4)))
    return Instance.build(items=items, capacities=caps, lambdas=[rng.randint(1, 5) for _ in range(4)])


def write_golden_instance(spec, path) -> None:
    """A GOLDEN_SOLVES instance: ``gen`` arguments (seed, n, T, profile), or
    ("heavy", seed) for ``heavy_instance``."""
    if spec[0] == "heavy":
        path.write_text(instance_to_json(heavy_instance(spec[1])))
        return
    seed, n, t, profile = spec
    argv = ["gen", "--seed", str(seed), "--n", str(n), "--t", str(t), "--profile", profile, "--out", str(path)]
    assert main(argv) == 0


# sha256 of the solve output for an instance (see write_golden_instance), mode
# and --eps; a change to the solve path that keeps its answers leaves every
# one unchanged
GOLDEN_SOLVES = {
    ((1, 3, 2, "uniform"), "general", "1/50"): "dd3667b657279f7459ff7b57491dc347d0a79b06a785ffcbd232953c3281f37b",
    ((1, 3, 2, "uniform"), "general", "1/100"): "dd3667b657279f7459ff7b57491dc347d0a79b06a785ffcbd232953c3281f37b",
    ((1, 6, 3, "uniform"), "exact", "0.5"): "d51016510921c2e1ddaca1a28e91b491f7e6595e8a919dceca55fbed04119aeb",
    ((1, 6, 3, "uniform"), "bounded", "0.5"): "d51016510921c2e1ddaca1a28e91b491f7e6595e8a919dceca55fbed04119aeb",
    ((1, 6, 3, "uniform"), "general", "0.5"): "d51016510921c2e1ddaca1a28e91b491f7e6595e8a919dceca55fbed04119aeb",
    ((2, 6, 3, "uniform"), "exact", "0.5"): "b2a95b44029829ea02cf8fbcc5acdccb042f3591bba5c7abd50fb960aaa5584b",
    ((2, 6, 3, "uniform"), "bounded", "0.5"): "b2a95b44029829ea02cf8fbcc5acdccb042f3591bba5c7abd50fb960aaa5584b",
    ((2, 6, 3, "uniform"), "general", "0.5"): "b2a95b44029829ea02cf8fbcc5acdccb042f3591bba5c7abd50fb960aaa5584b",
    ((3, 6, 3, "uniform"), "exact", "0.5"): "8cc0b96aad54403d1fce62d0d9ebd4e6b8b339fcc62c9985ec44ce3765e02da3",
    ((3, 6, 3, "uniform"), "bounded", "0.5"): "8cc0b96aad54403d1fce62d0d9ebd4e6b8b339fcc62c9985ec44ce3765e02da3",
    ((3, 6, 3, "uniform"), "general", "0.5"): "8cc0b96aad54403d1fce62d0d9ebd4e6b8b339fcc62c9985ec44ce3765e02da3",
    # geometric lambdas: glue earns 139968 on the plan of two clusters and
    # 145728 on the one-cluster plans, from their frontiers' best endpoints
    ((2, 4, 4, "geometric-lambda"), "general", "4/5"): (
        "9eb9edbf24734fa78f6dfb031db78bdb980e2739edb0ff5ffa88340e07a48736"
    ),
    # general mode at a size where families reach a thousand vectors
    ((1, 20, 4, "uniform"), "general", "0.5"): "daee24ae7ce99c791fc03223139224bc40734d617d90ac4775f78f2d4c053ec3",
    # two heavy classes in one window: its family members are not a full product
    (("heavy", 2), "bounded", "0.5"): "ba2ffcf49964d7c734e6664817f5bd0447fe57c28b2539c37b55e24f11c40b3b",
}


def test_solve_output_is_golden(tmp_path):
    got = {}
    for spec, mode, eps in GOLDEN_SOLVES:
        path = tmp_path / ("-".join(map(str, spec)) + ".json")
        write_golden_instance(spec, path)
        out = tmp_path / "sol.json"
        assert main(["solve", str(path), "--mode", mode, "--eps", eps, "--out", str(out)]) == 0
        got[spec, mode, eps] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN_SOLVES


def test_golden_heavy_instance_has_two_heavy_classes():
    classes = build_classes(preprocess(heavy_instance(2))[0], accuracy_budget(Fraction(1, 2), 5))
    assert sum(classes.size(l) > 10 for l in classes.indices) >= 2


def test_cmd_solve_bounded_mode(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate_instance(13, 4, 2, "uniform")))
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--mode", "bounded", "--eps", "0.5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    instance = instance_from_json(path.read_text())
    opt, _ = exact_opt(instance)
    assert parse_rational(doc["profit"]) >= opt / 2


def test_cmd_solve_bounded_mode_returns_best_frontier_endpoint(tmp_path):
    # the exact optimum is a frontier endpoint; a geometric sweep of profit
    # floors at eps 1 skipped it and answered 80
    path = tmp_path / "inst.json"
    assert main(["gen", "--seed", "1", "--n", "4", "--t", "2", "--out", str(path)]) == 0
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--mode", "bounded", "--eps", "1", "--out", str(out)]) == 0
    opt, _ = exact_opt(instance_from_json(path.read_text()))
    assert opt == 88
    assert parse_rational(json.loads(out.read_text())["profit"]) == opt


def test_cmd_validate_mismatched_lengths(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"items": [], "capacities": ["1", "2"], "lambdas": ["1"]}
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_cmd_solve_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 2


def test_cmd_solve_invalid_instance(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"items": [{"p": "1", "w": "0"}], "capacities": ["1"], "lambdas": ["1"]}
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2


def test_cmd_solve_budget_exceeded(tmp_path, capsys):
    # 40 items over 64 periods: the oracle's lattice passes 2,000,000 cells
    # times periods at an early axis, refused before it is built
    path = tmp_path / "big.json"
    path.write_text(instance_to_json(generate_instance(1, 40, 64, "uniform")))
    assert main(["solve", str(path), "--mode", "exact"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("exact mode budget exceeded: count-vector DP of ") and err.endswith(" exceeds budget 2000000\n")


def test_cmd_solve_general_grid_budget_exits_3(tmp_path, capsys):
    # at eps 1/1000 this instance needs a profit grid of 74,074 points (0 included)
    path = tmp_path / "small.json"
    path.write_text(instance_to_json(generate_instance(1, 3, 2, "uniform")))
    assert main(["solve", str(path), "--eps", "1/1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "general mode budget exceeded: profit grid of at least 32769 points exceeds budget 32768\n"


@pytest.mark.parametrize("mode", ["general", "bounded"])
def test_cmd_solve_family_budget_exits_3(tmp_path, capsys, monkeypatch, mode):
    # every table of T=2 holds at least 3 entries (the zero cell's rows), so
    # a budget of 2 refuses the first one before any row is built
    monkeypatch.setattr(statespace, "FAMILY_BUDGET", 2)
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate_instance(3, 3, 2, "uniform")))
    assert main(["solve", str(path), "--mode", mode]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{mode} mode budget exceeded: family DP table of ")
    assert captured.err.endswith(" entries exceeds budget 2\n") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "mode, eps, instance",
    [
        ("bounded", "1/20000", generate_instance(1, 5, 2, "uniform")),
        ("general", "1/2", Instance.build(items=[(1, 1), (2**2000, 1)], capacities=[1, 2], lambdas=[1, 1])),
        ("bounded", "1e-5000", generate_instance(1, 5, 2, "uniform")),
    ],
    ids=["bounded", "general", "bounded-tiny-eps"],
)
def test_cmd_solve_class_ladder_budget_exits_3(tmp_path, capsys, mode, eps, instance):
    # profits 1-10 at bounded eps 1/20000 or 1e-5000, and profits 1 and
    # 2**2000 at general eps 1/2 (internal 1/14, about 20,000 levels), each
    # need a profit class ladder past the budget; it is refused before any
    # climb, and at 1e-5000 before any power of its 16,600-bit step
    path = tmp_path / "ladder.json"
    path.write_text(instance_to_json(instance))
    assert main(["solve", str(path), "--mode", mode, "--eps", eps]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    want = f"{mode} mode budget exceeded: profit class ladder of at least 16385 levels exceeds budget 16384\n"
    assert captured.err == want


def test_cmd_solve_tiny_eps_grid_exits_3(tmp_path, capsys):
    # eps 1e-5000 makes the grid's step a ratio of ints of about 16,600
    # bits: cheap bounds refuse the grid without raising the step to the
    # budget's power, which would not end
    path = tmp_path / "tiny.json"
    path.write_text(instance_to_json(generate_instance(1, 5, 2, "uniform")))
    assert main(["solve", str(path), "--eps", "1e-5000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "general mode budget exceeded: profit grid of at least 32769 points exceeds budget 32768\n"


def test_cmd_solve_tiny_eps_on_equal_profits_solves_bounded(tmp_path, capsys):
    # equal profits make one class, so the ladder is short at any eps, and
    # cheap bounds accept it at 1e-5000 without taking a power
    path = tmp_path / "equal.json"
    path.write_text(instance_to_json(Instance.build(items=[(5, 3), (5, 2), (5, 4)], capacities=[4, 9], lambdas=[1, 2])))
    assert main(["solve", str(path), "--mode", "bounded", "--eps", "1e-5000"]) == 0
    assert json.loads(capsys.readouterr().out)["profit"] == "35"


@pytest.mark.parametrize("eps", ["1e-5000", "1/20000", "1/2000", "1/500"])
def test_cmd_solve_tiny_eps_on_equal_profits_exits_3_in_general_mode(tmp_path, capsys, eps):
    # one class, so the class ladder never refuses: the first offset's
    # one-cluster grid budget ends the solve, before the offset loop could
    # run the internal accuracy's thousands of offsets
    path = tmp_path / "equal.json"
    path.write_text(instance_to_json(Instance.build(items=[(5, 3), (5, 2), (5, 4)], capacities=[4, 9], lambdas=[1, 2])))
    assert main(["solve", str(path), "--mode", "general", "--eps", eps]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "general mode budget exceeded: profit grid of at least 32769 points exceeds budget 32768\n"


@pytest.mark.parametrize("mode", ["general", "bounded", "exact"])
def test_cmd_solve_overlong_result_exits_3(tmp_path, capsys, mode):
    # a valid instance whose profit lambda * p has about 5000 digits, past
    # the default 4300-digit integer string limit
    path = tmp_path / "long.json"
    big = "1" + "0" * 2500
    path.write_text(json.dumps({"items": [{"p": big, "w": "1"}], "capacities": ["1"], "lambdas": [big]}))
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--mode", mode, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert str(sys.get_int_max_str_digits()) in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, solver",
    [
        ("general", (cli.general, "solve_detailed")),
        ("bounded", (cli.bounded, "solve_bounded")),
        ("exact", (cli.oracle, "exact_opt")),
    ],
)
def test_cmd_solve_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, mode, solver):
    # a solver that runs out of memory ends in one stderr line and exit 3,
    # with no traceback and no output file
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(*solver, exhausted)
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate_instance(3, 3, 2, "uniform")))
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--mode", mode, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{mode} mode ran out of memory\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, eps",
    [("general", "abc"), ("general", "0"), ("bounded", "0"), ("bounded", "-1"), ("exact", "1/0")],
)
def test_cmd_solve_rejects_bad_eps(tmp_path, capsys, mode, eps):
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate_instance(3, 3, 2, "uniform")))
    assert main(["solve", str(path), "--mode", mode, "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--eps" in captured.err


@pytest.mark.parametrize(
    "eps, code", [("1e-5000", 3), ("1e-1000000", 2), ("1e-10000000", 2), ("5e-1", 0), ("1E-1", 0)]
)
@pytest.mark.parametrize("mode", ["general", "bounded"])
def test_cmd_solve_eps_exponent_past_the_limit_exits_2_at_once(tmp_path, capsys, mode, eps, code):
    # an --eps exponent past EPS_EXPONENT_LIMIT in magnitude is refused
    # before Fraction builds its power of ten: unrefused, 1e-1000000 reached
    # the grid budget only after 2.5 s and 1e-10000000 ran past 20 s on a
    # 2-core box.  1e-5000 still reaches the grid and ladder budgets, and
    # small exponents solve
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate_instance(1, 5, 2, "uniform")))
    start = time.perf_counter()
    assert main(["solve", str(path), "--mode", mode, "--eps", eps]) == code
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    if code == 2:
        assert seconds < 1
        assert captured.out == "" and captured.err.count("\n") == 1 and "--eps" in captured.err


def test_eps_exponent_limit_is_inclusive():
    limit = cli.EPS_EXPONENT_LIMIT
    assert cli._parse_eps(f"1e-{limit}") == Fraction(1, 10**limit)
    assert parse_rational(f" 1E+{limit} ", limit) == 10**limit
    for text in (f"1e-{limit + 1}", f"1E{limit + 1}"):
        with pytest.raises(cli.BadInput, match="past"):
            cli._parse_eps(text)


@pytest.mark.parametrize("mode", ["bounded", "general"])
def test_cmd_solve_all_zero_lambdas(tmp_path, mode):
    path = tmp_path / "zero.json"
    doc = {"items": [{"p": "2", "w": "1"}], "capacities": ["1", "2"], "lambdas": ["0", "0"]}
    path.write_text(json.dumps(doc))
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--mode", mode, "--out", str(out)]) == 0
    solution = json.loads(out.read_text())
    assert solution["intro"] == [None]
    assert solution["profit"] == "0"


def test_cmd_validate(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate_instance(2, 3, 2, "uniform")))
    assert main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cmd_eval_batch(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "eval",
            "--seeds", "4",
            "--n", "4",
            "--t", "2",
            "--eps", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    for row in rows:
        assert row["error"] == ""
        ratio = parse_rational(row["ratio"])
        assert Fraction(1, 2) <= ratio <= 1


EVAL_DEFAULTS = {
    "seeds": 10,
    "seed_start": 0,
    "n": 5,
    "t": 2,
    "profile": "uniform",
    "eps": None,
    "modes": "general",
    "budget": 2_000_000,
}
# the README's and CI's command lines, with the values argparse gave them
COMMAND_LINES = [
    (
        "gen --seed 1 --n 5 --t 3 --profile uniform --out inst.json",
        {"seed": 1, "n": 5, "t": 3, "profile": "uniform", "out": "inst.json"},
    ),
    ("validate inst.json", {"path": "inst.json"}),
    ("solve inst.json --mode general --eps 0.5", {"path": "inst.json", "mode": "general", "eps": "0.5", "out": None}),
    (
        "eval --seeds 10 --n 5 --t 2 --eps 0.5 --modes general,bounded --out report.csv",
        {**EVAL_DEFAULTS, "eps": ["0.5"], "modes": "general,bounded", "out": "report.csv"},
    ),
    (
        "gen --seed 1 --profile subset-sum --n 13 --t 2 --out F",
        {"seed": 1, "n": 13, "t": 2, "profile": "subset-sum", "out": "F"},
    ),
    ("gen --seed 1 --n 200 --t 4 --out F", {"seed": 1, "n": 200, "t": 4, "profile": "uniform", "out": "F"}),
    ("solve F --mode exact --eps 1/2", {"path": "F", "mode": "exact", "eps": "1/2", "out": None}),
    ("solve F --mode general --eps 4/5", {"path": "F", "mode": "general", "eps": "4/5", "out": None}),
    ("solve F --mode bounded --eps 1e-5000", {"path": "F", "mode": "bounded", "eps": "1e-5000", "out": None}),
    ("solve F --mode bounded --eps 0.5 --out O", {"path": "F", "mode": "bounded", "eps": "0.5", "out": "O"}),
    ("solve F", {"path": "F", "mode": "general", "eps": "0.5", "out": None}),
    ("eval --out r.csv", {**EVAL_DEFAULTS, "out": "r.csv"}),
    (
        "eval --eps 0.5 --eps 1/3 --seed-start 7 --budget 99 --out r.csv",
        {**EVAL_DEFAULTS, "eps": ["0.5", "1/3"], "seed_start": 7, "budget": 99, "out": "r.csv"},
    ),
]
HANDLERS = {"solve": cli.cmd_solve, "gen": cli.cmd_gen, "validate": cli.cmd_validate, "eval": cli.cmd_eval}


def _regroup(words):
    """A command line as (command, [argument groups]): each option with its value, or a positional."""
    groups, rest = [], iter(words[1:])
    for word in rest:
        groups.append([word, next(rest)] if word.startswith("--") else [word])
    return words[0], groups


@pytest.mark.parametrize("line, want", COMMAND_LINES, ids=[line for line, _ in COMMAND_LINES])
def test_reader_gives_the_values_argparse_gave(line, want):
    # each line also parses the same in any order, with any option spelled
    # --name=value; repeated --eps values keep their own order
    handler, args = cli.parse_args(line.split())
    assert handler is HANDLERS[line.split()[0]]
    assert vars(args) == want
    command, groups = _regroup(line.split())
    rng = random.Random(line)
    for _ in range(20):
        shuffled = rng.sample(groups, len(groups))
        if isinstance(want.get("eps"), list):
            eps_values = iter(want["eps"])
            shuffled = [[g[0], next(eps_values)] if g[0] == "--eps" else g for g in shuffled]
        words = [command]
        for group in shuffled:
            words += ["=".join(group)] if len(group) == 2 and rng.random() < 0.5 else group
        assert vars(cli.parse_args(words)[1]) == want


def test_eval_eps_defaults_afresh_on_every_call(tmp_path):
    # a repeated option's values never carry over into the next command line
    out = tmp_path / "report.csv"
    eps_columns = []
    for flags in (["--eps", "1/3"], []):
        assert main(["eval", "--seeds", "1", "--n", "2", "--t", "1", *flags, "--out", str(out)]) == 0
        with out.open() as handle:
            eps_columns.append([row["eps"] for row in csv.DictReader(handle)])
    assert eps_columns == [["1/3"], ["0.5"]]


def test_reader_keeps_the_last_use_of_an_option():
    _, args = cli.parse_args(["solve", "F", "--mode", "exact", "--eps=1/3", "--mode", "bounded", "--eps", "0.25"])
    assert (args.mode, args.eps) == ("bounded", "0.25")
    # a value may start with one dash, or hold "=" after --name=
    _, args = cli.parse_args(["solve", "F", "--eps", "-1/2", "--out=a=b"])
    assert (args.eps, args.out) == ("-1/2", "a=b")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["--mode", "exact"],
        ["solve"],
        ["solve", "F", "--mode", "fast"],
        ["solve", "F", "--mode"],
        ["solve", "F", "--mode", "--eps", "0.5"],
        ["solve", "F", "--mode="],
        ["solve", "F", "--out", "--mode=exact"],
        ["solve", "F", "extra"],
        ["solve", "F", "--bogus", "1"],
        ["solve", "F", "--mod", "exact"],
        ["solve", "F", "-m", "exact"],
        ["solve", "F", "--"],
        ["validate"],
        ["validate", "F", "G"],
        ["gen", "--seed", "1", "--n", "3"],
        ["gen", "--seed", "x", "--n", "3", "--t", "2"],
        ["gen", "--seed", "1.5", "--n", "3", "--t", "2"],
        ["gen", "--seed", "1", "--n", "3", "--t", "2", "--profile", "wide"],
        ["gen", "--seed", "1", "--n", "3", "--t", "2", "F"],
        ["eval", "--seeds", "1"],
        ["eval", "--budget", "lots", "--out", "OUT"],
        ["eval", "--eps", "--out", "OUT"],
    ],
)
def test_bad_arguments_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv):
    def no_run(args):
        raise AssertionError("ran a command on bad arguments")

    for command in HANDLERS:
        spec = cli.COMMANDS[command]
        monkeypatch.setitem(cli.COMMANDS, command, (no_run, *spec[1:]))
    out = tmp_path / "report.csv"
    _assert_one_line_rejection(capsys, main([str(out) if word == "OUT" else word for word in argv]))
    assert not out.exists()


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["solve", "--help"], ["gen", "--seed", "x", "-h"]])
def test_help_prints_the_usage_and_exits_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cli.__doc__ and captured.err == ""
    assert "usage: inc-knap solve PATH" in captured.out


def test_main_reads_sys_argv_by_default(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate_instance(1, 3, 2, "uniform")))
    monkeypatch.setattr(sys, "argv", ["inc-knap", "validate", str(path)])
    assert main() == 0
    assert capsys.readouterr().out == "ok: 3 items, 2 periods\n"
    monkeypatch.setattr(sys, "argv", ["inc-knap"])
    _assert_one_line_rejection(capsys, main())


def _dumped_solution(instance, solution, profit):
    doc = {
        "intro": list(solution.intro),
        "profit": format_rational(profit),
        "weights_by_period": [format_rational(w) for w in solution.weights_by_period(instance)],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_solution_to_json_is_the_indented_json_dump():
    rng = random.Random(59)
    scalars = [lambda: rng.randint(1, 10**30), lambda: Fraction(rng.randint(1, 999), rng.choice([3, 8, 10, 7 * 16]))]
    for trial in range(300):
        n, horizon = trial % 5, rng.randint(1, 4)
        items = tuple((rng.choice(scalars)(), rng.choice(scalars)()) for _ in range(n))
        instance = Instance(items, tuple(sorted(rng.choice(scalars)() for _ in range(horizon))), (1,) * horizon)
        solution = Solution(tuple(rng.choice([None, *range(1, horizon + 1)]) for _ in range(n)))
        profit = rng.choice([0, Fraction(-3, 4), rng.choice(scalars)()])
        assert cli.solution_to_json(instance, solution, profit) == _dumped_solution(instance, solution, profit)
    assert cli.solution_to_json(Instance((), (1,), (1,)), Solution(()), 0) == (
        '{\n  "intro": [],\n  "profit": "0",\n  "weights_by_period": [\n    "0"\n  ]\n}\n'
    )


def _dumped_instance(instance):
    doc = {
        "items": [{"p": format_rational(p), "w": format_rational(w)} for p, w in instance.items],
        "capacities": [format_rational(c) for c in instance.capacities],
        "lambdas": [format_rational(v) for v in instance.lambdas],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_instance_to_json_is_the_indented_json_dump():
    rng = random.Random(67)
    scalars = [
        lambda: rng.randint(1, 10**30),
        lambda: Fraction(rng.randint(1, 999), rng.choice([3, 8, 10, 7 * 16])),
        lambda: 0,
    ]
    for trial in range(300):
        n, horizon = trial % 5, trial % 4 + 1
        items = tuple((rng.choice(scalars)(), rng.choice(scalars)()) for _ in range(n))
        capacities = tuple(sorted(rng.choice(scalars)() for _ in range(horizon)))
        lambdas = tuple(rng.choice(scalars)() for _ in range(horizon))
        instance = Instance(items, capacities, lambdas)
        assert cli.instance_to_json(instance) == _dumped_instance(instance)
    assert cli.instance_to_json(Instance((), (0, Fraction(3, 2)), (1, 0))) == (
        '{\n  "items": [],\n  "capacities": [\n    "0",\n    "1.5"\n  ],\n  "lambdas": [\n    "1",\n    "0"\n  ]\n}\n'
    )


def test_general_answers_score_on_the_original_instance(tmp_path):
    # general mode writes GeneralResult.profit, scored on the instance with its
    # zero-lambda periods dropped: it must equal the score of the written
    # solution on the file's own instance, unfittable items included
    rng = random.Random(61)
    path, out = tmp_path / "inst.json", tmp_path / "sol.json"
    for _ in range(25):
        n, horizon = rng.randint(1, 6), rng.randint(2, 4)
        items = [(rng.randint(1, 10), rng.randint(1, 12)) for _ in range(n)]
        capacities = sorted(rng.randint(1, 10) for _ in range(horizon))
        lambdas = [rng.choice([0, 0, 1, 3]) for _ in range(horizon - 1)] + [rng.randint(0, 2)]
        instance = Instance.build(items=items, capacities=capacities, lambdas=lambdas)
        path.write_text(instance_to_json(instance))
        assert main(["solve", str(path), "--mode", "general", "--out", str(out)]) == 0
        answer = json.loads(out.read_text())
        solution = Solution(tuple(answer["intro"]))
        want = objective(instance, solution) if any(lambdas) else 0
        assert parse_rational(answer["profit"]) == want


def test_cmd_eval_header_and_empty_batch(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["eval", "--seeds", "0", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "id,mode,eps,solver_profit,oracle_profit,ratio,weight,ms,error"


def test_cmd_eval_budget_error_rows(tmp_path):
    out = tmp_path / "over.csv"
    code = main(
        ["eval", "--seeds", "1", "--n", "12", "--t", "3", "--budget", "100", "--out", str(out)]
    )
    assert code == 1
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert rows and rows[0]["error"] != ""


def test_cmd_eval_counts_profit_above_optimum(tmp_path, monkeypatch):
    def over_optimal(instance, mode, eps):
        return Solution.empty(instance.n), Fraction(10**9)

    monkeypatch.setattr(cli, "_solve_mode", over_optimal)
    out = tmp_path / "over.csv"
    assert main(["eval", "--seeds", "1", "--n", "3", "--out", str(out)]) == 1
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1 and rows[0]["error"] != ""


def _assert_one_line_rejection(capsys, code):
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


GOOD_ITEM = {"p": "2", "w": "1"}


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '"items"',
        json.dumps({"items": [["2", "1"]], "capacities": ["2"], "lambdas": ["1"]}),
        json.dumps({"items": [GOOD_ITEM], "capacities": None, "lambdas": ["1"]}),
        json.dumps({"items": [GOOD_ITEM], "lambdas": ["1"]}),
        json.dumps({"items": [{"p": 0.1, "w": "1"}], "capacities": ["2"], "lambdas": ["1"]}),
        json.dumps({"items": [{"p": "2", "w": 1}], "capacities": ["2"], "lambdas": ["1"]}),
        json.dumps({"items": [{"p": "2"}], "capacities": ["2"], "lambdas": ["1"]}),
        json.dumps({"items": [GOOD_ITEM], "capacities": [2], "lambdas": ["1"]}),
        json.dumps({"items": [GOOD_ITEM], "capacities": ["2"], "lambdas": [True]}),
        json.dumps({"items": [{"p": "1/0", "w": "1"}], "capacities": ["2"], "lambdas": ["1"]}),
        "[" * 200_000,
    ],
    ids=[
        "top-level-list",
        "top-level-string",
        "item-as-list",
        "null-capacities",
        "missing-capacities",
        "float-profit",
        "int-weight",
        "missing-weight",
        "int-capacity",
        "bool-lambda",
        "zero-denominator",
        "deep-nesting",
    ],
)
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_malformed_instance_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    _assert_one_line_rejection(capsys, main([command, str(path)]))


@pytest.mark.parametrize(
    "key, text", [("p", "1e5000"), ("lambdas", "1e10000000"), ("capacities", "1E-10000000"), ("w", "2.5e+4301")]
)
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_exponent_past_the_digit_limit_exits_2(tmp_path, capsys, command, key, text):
    # "1" and 5000 zeros exits 2 by the 4300-digit integer string limit; an
    # exponent past that limit is refused the same way, before Fraction
    # builds its power of ten (1e10000000 took over 10 s there)
    doc = {"items": [dict(GOOD_ITEM)], "capacities": ["2"], "lambdas": ["1"]}
    if key in GOOD_ITEM:
        doc["items"][0][key] = text
    else:
        doc[key] = [text]
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    _assert_one_line_rejection(capsys, main([command, str(path)]))


def test_exponent_within_the_digit_limit_parses(tmp_path, capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({"items": [{"p": "1e3", "w": "1"}], "capacities": ["2"], "lambdas": ["1"]}))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 1 items, 1 periods\n"
    assert cli._json_rational("1e3", "scalar") == 1000
    assert cli._json_rational(f"1e-{limit}", "scalar") == Fraction(1, 10**limit)
    # with the limit off (0), no exponent is refused
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert cli._json_rational("1e5000", "scalar") == 10**5000


@pytest.mark.parametrize("name", ["missing.json", "."])
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_unreadable_instance_exits_2(tmp_path, capsys, command, name):
    _assert_one_line_rejection(capsys, main([command, str(tmp_path / name)]))


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = str(tmp_path / "no-such-dir" / "out.json")
    _assert_one_line_rejection(capsys, main(["gen", "--seed", "1", "--n", "3", "--t", "2", "--out", out]))
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(generate_instance(1, 3, 2, "uniform")))
    _assert_one_line_rejection(capsys, main(["solve", str(path), "--out", out]))
    _assert_one_line_rejection(capsys, main(["eval", "--seeds", "1", "--n", "3", "--out", out]))


@pytest.mark.parametrize(
    "flags",
    [
        ["--eps", "abc"],
        ["--eps", "0"],
        ["--eps", "0.5", "--eps", "-1"],
        ["--eps", "1/0"],
        ["--modes", "general,fast"],
        ["--n", "0"],
        ["--t", "0"],
    ],
)
def test_cmd_eval_rejects_bad_arguments_before_solving(tmp_path, capsys, monkeypatch, flags):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the arguments")

    monkeypatch.setattr(cli.oracle, "exact_opt", no_solve)
    out = tmp_path / "report.csv"
    _assert_one_line_rejection(capsys, main(["eval", "--seeds", "2", "--out", str(out), *flags]))
    assert not out.exists()


SPELLINGS = {
    "plain": str,
    "zero-padded": lambda v: f"00{v}",
    "decimal": lambda v: f"{v}.0",
    "ratio": lambda v: f"{2 * v}/2",
    "signed": lambda v: f"+{v}",
}


@pytest.mark.parametrize("mode", ["exact", "bounded", "general"])
def test_scalar_spellings_give_identical_answers(tmp_path, mode):
    # 7, 007, 7.0, 14/2 and +7 are one value: the reader hands every
    # spelling to the solvers as the int 7, so the answers match byte for byte
    instance = generate_instance(3, 7, 3, "uniform")
    outputs = set()
    rng = random.Random(5)
    for name in [*SPELLINGS, "mixed"]:
        def spell(v):
            return SPELLINGS[rng.choice(list(SPELLINGS)) if name == "mixed" else name](v)

        doc = {
            "items": [{"p": spell(p), "w": spell(w)} for p, w in instance.items],
            "capacities": [spell(c) for c in instance.capacities],
            "lambdas": [spell(v) for v in instance.lambdas],
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert instance_from_json(path.read_text()) == instance
        out = tmp_path / f"{name}-{mode}.json"
        assert main(["solve", str(path), "--mode", mode, "--eps", "1/2", "--out", str(out)]) == 0
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


POSITIVE_FRACTIONS = st.fractions(min_value=Fraction(1, 50), max_value=50)


@given(
    st.lists(st.tuples(POSITIVE_FRACTIONS, POSITIVE_FRACTIONS), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=0, max_value=50), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_instance_json_round_trip_keeps_values_and_types(items, capacities):
    # integral values come back as ints, every other value as the same Fraction
    instance = Instance.build(items=items, capacities=capacities, lambdas=[Fraction(1, 3)] * len(capacities))
    again = instance_from_json(instance_to_json(instance))
    assert again == instance
    scalars = [*(x for item in again.items for x in item), *again.capacities, *again.lambdas]
    assert [type(x) for x in scalars] == [int if x.denominator == 1 else Fraction for x in scalars]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
SCALARS = st.one_of(
    st.integers(0, 12).map(str),
    st.fractions(min_value=-1, max_value=12, max_denominator=6).map(format_rational),
    st.sampled_from(["007", "+3", "7.0", "14/2", "1e1", "-0", "", " 4", "1/0", "x", "0x10", "٣", "1_0", "9" * 5000]),
    JSON_VALUES,
)
POSITIVE = st.fractions(min_value=Fraction(1, 6), max_value=12, max_denominator=6).map(format_rational)


def _valid_document(horizon):
    increment = st.fractions(min_value=0, max_value=10, max_denominator=4)
    increments = st.lists(increment, min_size=horizon, max_size=horizon)
    return st.fixed_dictionaries(
        {
            "items": st.lists(st.fixed_dictionaries({"p": POSITIVE, "w": POSITIVE}), max_size=6),
            "capacities": increments.map(lambda xs: [format_rational(c) for c in itertools.accumulate(xs)]),
            "lambdas": st.lists(st.integers(0, 5).map(str), min_size=horizon, max_size=horizon),
        }
    )


def _replace_scalar(doc, key, index, scalar):
    """doc with one scalar replaced: an item's "p" or "w", a capacity or a lambda."""
    if key in ("p", "w") and doc["items"]:
        doc["items"][index % len(doc["items"])][key] = scalar
    elif key in ("capacities", "lambdas"):
        doc[key][index % len(doc[key])] = scalar
    return doc


VALID_DOCUMENTS = st.integers(1, 4).flatmap(_valid_document)
# valid instances, the same with one scalar or one field replaced, and
# arbitrary JSON: most valid documents solve, so the solvers are fuzzed too
DOCUMENTS = st.one_of(
    VALID_DOCUMENTS,
    st.builds(
        _replace_scalar,
        VALID_DOCUMENTS,
        st.sampled_from(["p", "w", "capacities", "lambdas"]),
        st.integers(0, 5),
        SCALARS,
    ),
    st.tuples(
        VALID_DOCUMENTS,
        st.sampled_from(["items", "capacities", "lambdas"]),
        st.lists(SCALARS, max_size=4)
        | st.lists(st.dictionaries(st.sampled_from("pwx"), SCALARS), max_size=4)
        | JSON_VALUES,
    ).map(lambda t: {**t[0], t[1]: t[2]}),
    JSON_VALUES,
)
# a mode, an eps no smaller than 1/10 (general mode slows sharply below
# that), then one bad or extra argument in 8 draws of 11; "OUT"
# stands for a file in the example's own directory
FLAGS = st.tuples(
    st.sampled_from([[], ["--mode", "exact"], ["--mode", "bounded"], ["--mode", "general"], ["--mode", "fast"]]),
    st.sampled_from([[], ["--eps", "0.5"], ["--eps", "1/3"], ["--eps", "4/5"], ["--eps", "2"], ["--eps", "1e-1"]]),
    st.sampled_from(
        [[], [], [], ["--eps", "0"], ["--eps", "-1/2"], ["--eps", "nan"], ["--eps", "1/0"], ["--eps"], ["--bogus"]]
        + [["extra"], ["--out", "OUT"]]
    ),
).map(lambda t: [*t[0], *t[1], *t[2]])


@given(doc=DOCUMENTS, flags=FLAGS, truncated=st.booleans())
@settings(max_examples=200, deadline=None)
def test_cmd_solve_fuzz_ends_in_a_documented_exit_code(tmp_path_factory, doc, flags, truncated):
    # any document (or non-JSON bytes) and any argument list ends in exit 0,
    # 2 or 3 with a message, never a traceback nor a raised SystemExit
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "doc.json"
    path.write_text(json.dumps(doc)[:-1] if truncated else json.dumps(doc))
    argv = ["solve", str(path), *(str(tmp / "out.json") if arg == "OUT" else arg for arg in flags)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        answer = json.loads(stdout.getvalue() or (tmp / "out.json").read_text())
        assert len(answer["intro"]) == len(doc["items"])
    else:
        assert stderr.getvalue()
