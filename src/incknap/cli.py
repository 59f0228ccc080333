"""Command line interface: instance I/O, generation, solving, batch eval.

usage: inc-knap solve PATH [--mode exact|bounded|general] [--eps 0.5] [--out FILE]
       inc-knap gen --seed N --n N --t N [--profile uniform|geometric-lambda|subset-sum] [--out FILE]
       inc-knap validate PATH
       inc-knap eval --out FILE [--seeds 10] [--seed-start 0] [--n 5] [--t 2] [--profile uniform]
                     [--eps 0.5 [--eps ...]] [--modes general[,bounded,exact]] [--budget 2000000]

Options read ``--name value`` or ``--name=value``, in any order, by their
exact names; ``-h`` or ``--help`` anywhere prints this text and exits 0.

Instances travel as JSON with every scalar written as an exact decimal
string (or "a/b" when the denominator is not a power of 2 and 5), so a
parse/serialize round trip is value-identical and float contamination is
impossible: a scalar that is not a string is rejected.  Exit codes: 0
success; 1 an ``eval`` batch with failure rows; 2 an unreadable, malformed
or invalid instance file, a bad argument (an unknown or missing command or
option, a value of the wrong kind, or an ``--eps`` exponent past
``EPS_EXPONENT_LIMIT`` in magnitude), or an unwritable ``--out``; 3 a
resource overrun on a valid input: the oracle budget (lattice cells times
periods), the profit grid, profit class or family DP table (fitting
cells times T+1) budget exceeded, a solve out of memory, or a result
value longer than the interpreter's integer string conversion limit.
"""

from __future__ import annotations

import csv
import json
import random
import sys
import time
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace
from typing import Optional

from . import bounded, general, oracle
from .model import BudgetExceeded, Instance, Solution, objective, validate

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EPS_EXPONENT_LIMIT = 100_000  # past it, --eps exits 2 before Fraction builds a power of ten

PROFILES = ("uniform", "geometric-lambda", "subset-sum")
MODES = ("exact", "bounded", "general")


def parse_rational(text: str, limit: int = 0) -> Fraction:
    """Exact value of a decimal string or an a/b ratio.  A nonzero limit
    refuses a larger exponent magnitude before Fraction builds its power of ten."""
    exponent = text.lower().partition("e")[2]
    if limit and exponent and abs(int(exponent)) > limit:
        raise ValueError(f"exponent {exponent.strip()} is past {limit} in magnitude")
    return Fraction(text.strip())


def format_rational(x: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a*5^b, else a/b."""
    den = x.denominator
    if den == 1:
        return str(x.numerator)
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    shift = max(twos, fives)
    scaled = abs(x.numerator) * 10**shift // x.denominator
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if x.numerator < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def _json_block(words: list[str]) -> str:
    return "[\n    " + ",\n    ".join(words) + "\n  ]" if words else "[]"


def instance_to_json(instance: Instance) -> str:
    """The instance document, byte for byte as ``json.dumps(doc, indent=2)`` writes it, plus a newline."""
    items = _json_block(
        [f'{{\n      "p": "{format_rational(p)}",\n      "w": "{format_rational(w)}"\n    }}' for p, w in instance.items]
    )
    capacities = _json_block([f'"{format_rational(c)}"' for c in instance.capacities])
    lambdas = _json_block([f'"{format_rational(v)}"' for v in instance.lambdas])
    return f'{{\n  "items": {items},\n  "capacities": {capacities},\n  "lambdas": {lambdas}\n}}\n'


def _json_rational(value, where: str) -> Fraction | int:
    """A document scalar in its stored form, an int when integral (straight from
    ASCII digits); other forms refuse an exponent past the integer string limit."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a rational string, not {json.dumps(value)}")
    if value.isascii() and value.isdigit():
        return int(value)
    x = parse_rational(value, sys.get_int_max_str_digits())
    return x.numerator if x.denominator == 1 else x


def _json_list(doc, key: str) -> list:
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list in a top-level object")
    return value


def instance_from_json(text: str) -> Instance:
    """Parse an instance document; ValueError on any fault of shape or scalar."""
    doc = json.loads(text)
    items = []
    for i, it in enumerate(_json_list(doc, "items")):
        if not isinstance(it, dict):
            raise ValueError(f"item {i} must be an object with 'p' and 'w'")
        items.append((_json_rational(it.get("p"), f"item {i} 'p'"), _json_rational(it.get("w"), f"item {i} 'w'")))
    capacities = tuple(_json_rational(c, "capacity") for c in _json_list(doc, "capacities"))
    lambdas = tuple(_json_rational(v, "lambda") for v in _json_list(doc, "lambdas"))
    return Instance(tuple(items), capacities, lambdas)


def generate_instance(seed: int, n: int, t: int, profile: str = "uniform") -> Instance:
    """Deterministic random instance; identical seeds give identical bytes.

    uniform: integer profits/weights in [1,10], lambdas in [1,5], capacities
    as partial sums of increments in [1,10].  geometric-lambda: lambdas
    decaying fast enough that consecutive suffix ratios exceed the band
    threshold, which forces multiple clusters.  subset-sum: profit = weight.
    """
    if n < 1 or t < 1:
        raise ValueError("n and t must be at least 1")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    rng = random.Random(seed)
    weights = [rng.randint(1, 10) for _ in range(n)]
    profits = list(weights) if profile == "subset-sum" else [rng.randint(1, 10) for _ in range(n)]
    capacities = list(accumulate(rng.randint(1, 10) for _ in range(t)))
    if profile == "geometric-lambda":
        # factor 6n beats the band threshold n/eps at the default eps = 1/5
        factor = 6 * n
        lambdas = [(factor - 1) * factor ** (t - k - 2) if k < t - 1 else 1 for k in range(t)]
    else:
        lambdas = [rng.randint(1, 5) for _ in range(t)]
    return Instance.build(
        items=list(zip(profits, weights)), capacities=capacities, lambdas=lambdas
    )


def solution_to_json(instance: Instance, solution: Solution, profit: Fraction) -> str:
    """The answer document, written as ``json.dumps(doc, indent=2)`` writes it;
    its strings are rational forms, which JSON writes unescaped."""
    intro = _json_block(["null" if t is None else str(t) for t in solution.intro])
    weights = _json_block([f'"{format_rational(w)}"' for w in solution.weights_by_period(instance)])
    return f'{{\n  "intro": {intro},\n  "profit": "{format_rational(profit)}",\n  "weights_by_period": {weights}\n}}\n'


def _solve_mode(instance: Instance, mode: str, eps: Fraction) -> tuple[Solution, Fraction]:
    if mode == "exact":
        profit, solution = oracle.exact_opt(instance)
        return solution, profit
    if mode == "bounded":
        solution = bounded.solve_bounded(instance, bounded.accuracy_budget(eps, 5))
        return solution, objective(instance, solution)
    if mode == "general":
        result = general.solve_detailed(instance, eps)
        return result.solution, result.profit
    raise ValueError(f"unknown mode {mode!r}")


class BadInput(Exception):
    """An unreadable or invalid input, argument or output path; exit 2."""


def _load_instance(path: str) -> Instance:
    try:
        with open(path) as handle:
            instance = instance_from_json(handle.read())
        validate(instance)
    except (OSError, ValueError, ZeroDivisionError, RecursionError) as exc:
        raise BadInput(f"invalid instance: {exc}") from exc
    return instance


def _parse_eps(text: str) -> Fraction:
    try:
        eps = parse_rational(text, EPS_EXPONENT_LIMIT)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInput(f"invalid --eps {text!r}: {exc}") from exc
    if eps <= 0:
        raise BadInput(f"invalid --eps {text!r}: must be positive")
    return eps


def _write_output(text: str, out: Optional[str]) -> None:
    """Write text to the --out file, or to stdout without one."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise BadInput(f"cannot write --out: {exc}") from exc


def cmd_solve(args) -> int:
    instance = _load_instance(args.path)
    eps = _parse_eps(args.eps)
    try:
        solution, profit = _solve_mode(instance, args.mode, eps)
    except BudgetExceeded as exc:
        print(f"{args.mode} mode budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print(f"{args.mode} mode ran out of memory", file=sys.stderr)
        return EXIT_BUDGET
    try:
        text = solution_to_json(instance, solution, profit)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        print(f"result too long to write: a value exceeds the {limit}-digit integer string limit", file=sys.stderr)
        return EXIT_BUDGET
    _write_output(text, args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        instance = generate_instance(args.seed, args.n, args.t, args.profile)
    except ValueError as exc:
        raise BadInput(f"cannot generate: {exc}") from exc
    _write_output(instance_to_json(instance), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = _load_instance(args.path)
    print(f"ok: {instance.n} items, {instance.horizon} periods")
    return EXIT_OK


def cmd_eval(args) -> int:
    """Batch evaluation against the exact oracle, one CSV row per run."""
    eps_list = [_parse_eps(e) for e in args.eps or ["0.5"]]
    modes = args.modes.split(",")
    unknown = [m for m in modes if m not in MODES]
    if unknown:
        raise BadInput(f"invalid --modes: unknown {', '.join(map(repr, unknown))}; choose from {', '.join(MODES)}")
    if args.n < 1 or args.t < 1:
        raise BadInput("invalid --n/--t: both must be at least 1")
    rows = []
    failures = 0
    for seed in range(args.seed_start, args.seed_start + args.seeds):
        instance = generate_instance(seed, args.n, args.t, args.profile)
        name = f"{args.profile}-{seed}"
        try:
            opt_profit, _ = oracle.exact_opt(instance, budget=args.budget)
        except BudgetExceeded as exc:
            failures += 1
            for mode in modes:
                for eps in eps_list:
                    rows.append([name, mode, format_rational(eps), "", "", "", "", "", str(exc)])
            continue
        for mode in modes:
            for eps in eps_list:
                start = time.perf_counter()
                try:
                    solution, profit = _solve_mode(instance, mode, eps)
                except Exception as exc:  # pragma: no cover - defensive row
                    failures += 1
                    rows.append([name, mode, format_rational(eps), "", "", "", "", "", str(exc)])
                    continue
                ms = (time.perf_counter() - start) * 1000
                weight = solution.weights_by_period(instance)[-1] if instance.horizon else Fraction(0)
                ratio = profit / opt_profit if opt_profit > 0 else Fraction(1)
                error = "profit above the oracle optimum" if profit > opt_profit else ""
                if error or (mode != "exact" and ratio < 1 - eps):
                    failures += 1
                rows.append(
                    [
                        name,
                        mode,
                        format_rational(eps),
                        format_rational(profit),
                        format_rational(opt_profit),
                        format_rational(ratio),
                        format_rational(weight),
                        f"{ms:.1f}",
                        error,
                    ]
                )
    try:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "mode", "eps", "solver_profit", "oracle_profit", "ratio", "weight", "ms", "error"])
            writer.writerows(rows)
    except OSError as exc:
        raise BadInput(f"cannot write --out: {exc}") from exc
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK if failures == 0 else 1


# command: (handler, positional argument or None, {option: (default, kind)}); a
# kind is str, int, a tuple of choices, or list (each use appends one value)
REQUIRED = object()  # the default of an option that must be given
COMMANDS = {
    "solve": (cmd_solve, "path", {"mode": ("general", MODES), "eps": ("0.5", str), "out": (None, str)}),
    "gen": (cmd_gen, None, {"seed": (REQUIRED, int), "n": (REQUIRED, int), "t": (REQUIRED, int),
                            "profile": ("uniform", PROFILES), "out": (None, str)}),
    "validate": (cmd_validate, "path", {}),
    "eval": (cmd_eval, None, {"seeds": (10, int), "seed-start": (0, int), "n": (5, int), "t": (2, int),
                              "profile": ("uniform", PROFILES), "eps": (None, list), "modes": ("general", str),
                              "budget": (oracle.DEFAULT_BUDGET, int), "out": (REQUIRED, str)}),
}


def parse_args(argv: list[str]) -> Optional[tuple]:
    """(handler, arguments) of a command line, or None if it holds -h or --help.  Options read
    ``--name value`` or ``--name=value``, in any order, the last use winning; a bad argument raises BadInput."""
    if "-h" in argv or "--help" in argv:
        return None
    if not argv or argv[0] not in COMMANDS:
        raise BadInput(f"inc-knap: pick a command from {', '.join(COMMANDS)}" + (f", not {argv[0]!r}" if argv else ""))
    (command, *rest), (handler, positional, options) = argv, COMMANDS[argv[0]]
    values, words = ({positional: REQUIRED} if positional else {}), iter(rest)
    values.update((name, default) for name, (default, _) in options.items())
    for word in words:
        name, eq, value = word[2:].partition("=")
        if not word.startswith("--") and values.get(positional) is REQUIRED:
            values[positional] = word
        elif word.startswith("--") and name in options:
            kind, value = options[name][1], value if eq else next(words, None)
            try:
                if value is None or value.startswith("--") and not eq or isinstance(kind, tuple) and value not in kind:
                    raise ValueError
                values[name] = int(value) if kind is int else [*(values[name] or ()), value] if kind is list else value
            except ValueError:
                want = "a value" if kind in (str, list) else "an int" if kind is int else "one of " + ", ".join(kind)
                got = f", not {value!r}" if value else ""
                raise BadInput(f"inc-knap {command}: --{name} needs {want}{got}") from None
        else:
            raise BadInput(f"inc-knap {command}: unexpected argument {word!r}")
    missing = [name if name == positional else f"--{name}" for name, value in values.items() if value is REQUIRED]
    if missing:
        raise BadInput(f"inc-knap {command}: missing {', '.join(missing)}")
    return handler, SimpleNamespace(**{name.replace("-", "_"): value for name, value in values.items()})


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line; returns the exit code, never raises SystemExit."""
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            print(__doc__, end="")
            return EXIT_OK
        handler, args = parsed
        return handler(args)
    except BadInput as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
