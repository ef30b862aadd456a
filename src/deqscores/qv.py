"""Data-driven fit-weight selection by re-quantization.

The observed scores are halved (ceil(z / 2)); rankings are re-derived from
the *original* scores by strict comparison (so information lost to the
coarser bins survives as ranking pairs). Each weight of ``LAMBDA_GRID`` then
dequantizes the coarsened data, scored by how well it recovers the ordering
of the original scores. The winner is the weight with the smallest
validation error, ties broken toward the smallest value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dequantize import CompiledDataset, compile_dataset, require_epsilon
from .metrics import kendall_tau_errors
from .model import (
    DEFAULT_EPSILON,
    ReviewDataset,
    ScoreScale,
    derive_rankings_from_raw_scores,
    require_valid,
)
from .qp import Solution, solve


class DegenerateValidation(ValueError):
    """The dataset carries no signal the validation could score against."""


# the candidate fit weights: the exponential grid exp(t/4) for t = 0..39
LAMBDA_GRID = tuple(math.exp(t / 4.0) for t in range(40))


def halve_score(z):
    """The coarsener: ceil(z / 2), exact for integers and integer arrays."""
    return z // 2 + z % 2


@dataclass(frozen=True)
class QVReport:
    lambdas: tuple[float, ...]
    errors: tuple[float, ...]
    selected_lambda: float
    selected_index: int


def coarsen(dataset: ReviewDataset) -> ReviewDataset:
    """Coarsened copy: scores halved by ``halve_score``, rankings re-derived
    from the original scores by strict comparison, scale mapped endpoint-wise
    (halving is monotone, so the endpoints bound the coarse scores).

    Raises ``DegenerateValidation`` when halving collapses the whole scale to
    a single level.
    """
    require_valid(dataset)
    lower = halve_score(dataset.scale.lower_bound)
    upper = halve_score(dataset.scale.upper_bound)
    if lower == upper:
        raise DegenerateValidation("halving collapses the scale to one level")

    coarse = replace(dataset, scale=ScoreScale(lower, upper), scores=halve_score(dataset.scores))
    return derive_rankings_from_raw_scores(coarse, dataset.scores)


def lambda_path(compiled: CompiledDataset, lambdas: Sequence[float]) -> list[Solution]:
    """Solve ``compiled`` at each fit weight in order, as one path.

    Every step proposes an active set: the first the empty one, each later
    one the previous weight's ``Solution.active``. The solver tries that set
    with a certified polish, then at most ``qp.PDAS_CORRECTIONS``
    primal-dual active-set corrections of it, and iterates from the cold
    start only when none of those polished points passes the certificate.
    The iteration's checks accept a point by the same rule, its unpolished
    iterate being the last resort. Every returned solution is the unique
    minimizer at its weight within the solver's tolerances, as a solve given
    no set would be.

    Each step is one ``qp.solve`` of ``compiled.problem(lam)``. The problems
    share the dataset's constraints and Q's pattern, and every set is
    polished on the spanning forest of its rows, so a step the solver
    certifies on its proposed set forms no matrix: it builds the forest's
    index arrays, unless the previous step's polish left them for the same
    set, and pays for a few conjugate-gradient steps on the reduced system,
    the multipliers (a few more steps when rows close a cycle) and the
    certificate (see ``qp``). Score the solutions with one call of
    the batched Kendall kernel, ``metrics.kendall_tau_errors``, as
    ``select_lambda`` does.
    """
    solutions: list[Solution] = []
    active = np.zeros(compiled.constraints.rows.lower.shape[0], dtype=np.int8)
    for lam in lambdas:
        solutions.append(solve(compiled.problem(lam), active))
        active = solutions[-1].active
    return solutions


def select_lambda(dataset: ReviewDataset, epsilon: float = DEFAULT_EPSILON) -> QVReport:
    """Evaluate every weight of ``LAMBDA_GRID`` on the coarsened dataset,
    dequantized at ranking separation ``epsilon`` (outside (0, 1):
    ``ValueError``, before any solve), and pick the one whose dequantization
    best recovers the original score ordering.

    The coarsened dataset is compiled once and the grid is solved in ascending
    order by ``lambda_path``: the first weight is proposed the empty active
    set, each later one the previous one's active set, and the solver
    corrects that set by active-set steps before it would iterate, each
    polished without a factorization. A proposal never skips the solver's
    optimality certificate and the minimizer is unique, so it only saves
    work. The original scores, in
    the solution vectors' review order, act as validation truth with
    exact-tie omission; all-tied originals raise ``DegenerateValidation``.
    The grid's solutions are scored by one call of the batched Kendall
    kernel, ``kendall_tau_errors``, equal bit for bit to one
    ``kendall_tau_error`` per weight.
    """
    require_epsilon(epsilon)
    require_valid(dataset)
    scores = dataset.scores
    if not scores.size or scores.min() == scores.max():
        raise DegenerateValidation("all original scores are tied; loss is undefined")

    # only the solutions' values outlive the path, so the memory of the
    # compiled data and of the solution records serves the Kendall batches
    values = [
        solution.values
        for solution in lambda_path(compile_dataset(coarsen(dataset), epsilon), LAMBDA_GRID)
    ]
    errors = kendall_tau_errors(scores, values).tolist()

    selected = errors.index(min(errors))  # the grid ascends: ties go to the smallest
    return QVReport(
        lambdas=LAMBDA_GRID,
        errors=tuple(errors),
        selected_lambda=LAMBDA_GRID[selected],
        selected_index=selected,
    )
