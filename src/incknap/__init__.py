"""Approximation scheme for the incremental knapsack problem.

Pack items into a knapsack whose capacity grows over a horizon; introduced
items persist and each period's packed profit is weighted by a coefficient.
`solve` approximates the optimum within any requested factor; `oracle`
provides exact ground truth by a DP over per-profit count vectors, at the
sizes where the scheme's rounding engages.
"""

from .bounded import InverseResult, solve_bounded, solve_inverse
from .general import GeneralResult, solve, solve_detailed
from .model import (
    NEVER,
    Instance,
    Solution,
    check_feasible,
    item_contribution,
    objective,
    preprocess,
    validate,
)
from .oracle import exact_inverse, exact_opt

__all__ = [
    "NEVER",
    "Instance",
    "Solution",
    "InverseResult",
    "GeneralResult",
    "validate",
    "preprocess",
    "objective",
    "item_contribution",
    "check_feasible",
    "solve",
    "solve_detailed",
    "solve_bounded",
    "solve_inverse",
    "exact_opt",
    "exact_inverse",
]

__version__ = "0.1.0"
