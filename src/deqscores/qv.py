"""Data-driven fit-weight selection by re-quantization.

The observed scores are halved (ceil(z / 2)); rankings are re-derived from
the *original* scores by strict comparison (so information lost to the
coarser bins survives as ranking pairs). Each weight of ``LAMBDA_GRID`` then
dequantizes the coarsened data, scored by how well it recovers the ordering
of the original scores. The winner is the weight with the smallest
validation error, ties broken toward the smallest value.

``select_lambdas`` selects for several datasets at once, as one path: their
compiled QPs share no variable and no row, so their union is one
block-diagonal QP whose minimizer at each weight is theirs side by side
(OptNet's batch of small QPs solved as one: Amos and Kolter, ICML 2017).
Each union step is accepted by the joint certificate. Its primal residual
and multiplier signs are taken row by row, and each row belongs to one
dataset, so they bound each dataset's own. Its scaled stationarity is the
largest of the slices' numerators over the largest of their denominators
(see ``qp.solve``), so a slice's own scaled stationarity is bounded only by
the tolerance times the joint denominator over its own. Datasets drawn from
one configuration have the same review count on every paper, so ``solve``
scales the union by the same ``scale`` as each of them, and with scores on
one scale their denominators are alike.

So a slice of a union step is the dataset's own step within the solver's
tolerances, not bit for bit (within 1.6e-14 on the P=60 seeds measured),
and two values that nearly tie can order differently in it. A dataset's
errors, and so its selected weight, can then differ from its own path's,
and depend on which datasets share its union. On every seed measured they
did not (``tests/test_qv.py``), but nothing guarantees it. A union can also
be certified where a dataset's own path would raise, or raise where it
would not. The path only scores the validation: each dataset's output is
its own certified solve at its own selected weight.
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
from .qp import Constraints, Solution, solve


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
    ``select_lambdas`` does.
    """
    solutions: list[Solution] = []
    active = np.zeros(compiled.constraints.rows.lower.shape[0], dtype=np.int8)
    for lam in lambdas:
        solutions.append(solve(compiled.problem(lam), active))
        active = solutions[-1].active
    return solutions


def _block_diagonal(parts: Sequence[CompiledDataset]) -> CompiledDataset:
    """The union of compiled datasets as one: reviews, papers, boxes and
    pair rows side by side, each part's indices shifted past the parts
    before it. One part is returned as it is, with no copy."""
    if len(parts) == 1:
        return parts[0]
    reviews = np.cumsum([0] + [part.z.size for part in parts[:-1]])
    papers = np.cumsum([0] + [part.inverse_count.size for part in parts[:-1]])
    pairs = np.concatenate([part.constraints.pair_constraints for part in parts])
    shift = np.repeat(reviews, [part.constraints.pair_constraints.size for part in parts])
    pairs["i"] += shift
    pairs["j"] += shift
    constraints = Constraints(
        np.concatenate([part.constraints.box_lower for part in parts]),
        np.concatenate([part.constraints.box_upper for part in parts]),
        pairs,
    )
    return CompiledDataset(
        np.concatenate([part.z for part in parts]),
        np.concatenate([part.paper + first for part, first in zip(parts, papers)]),
        np.concatenate([part.inverse_count for part in parts]),
        constraints,
    )


def select_lambdas(
    datasets: Sequence[ReviewDataset], epsilon: float = DEFAULT_EPSILON
) -> list[QVReport]:
    """Evaluate every weight of ``LAMBDA_GRID`` on each coarsened dataset,
    dequantized at ranking separation ``epsilon`` (outside (0, 1):
    ``ValueError``, before any solve), and pick for each the weight whose
    dequantization best recovers its original score ordering; one report
    per dataset, in order.

    Each dataset is checked, coarsened and compiled on its own, in order,
    so the first that cannot be raises as it would alone: all-tied original
    scores ``DegenerateValidation``, a chain its boxes cannot separate
    ``InfeasibleProblem`` by its (reviewer, paper) ids. The compiled
    datasets are then joined block-diagonally (see the module docstring)
    and the grid is solved on the union in ascending order by
    ``lambda_path``: the first weight is proposed the empty active set,
    each later one the previous one's active set, and the solver corrects
    that set by active-set steps before it would iterate, each polished
    without a factorization. A proposal never skips the solver's
    optimality certificate and the minimizer is unique, so it only saves
    work. Each dataset's original scores, in its slice of the solution
    vectors, act as its validation truth with exact-tie omission. Each
    dataset's slices are scored by one call of the batched Kendall kernel,
    ``kendall_tau_errors``, equal bit for bit to one ``kendall_tau_error``
    per weight.
    """
    require_epsilon(epsilon)
    parts = [_validation_problem(dataset, epsilon) for dataset in datasets]
    union = _block_diagonal(parts)
    del parts  # the union holds what the path reads
    # only the solutions' values outlive the path, so the memory of the
    # compiled data and of the solution records serves the Kendall batches
    values = [solution.values for solution in lambda_path(union, LAMBDA_GRID)]
    del union

    reports, start = [], 0
    for dataset in datasets:
        end = start + dataset.scores.size
        errors = kendall_tau_errors(dataset.scores, [step[start:end] for step in values])
        reports.append(_report(errors.tolist()))
        start = end
    return reports


def _validation_problem(dataset: ReviewDataset, epsilon: float) -> CompiledDataset:
    """The compiled coarsening of ``dataset``, whose original scores must
    not all be tied."""
    require_valid(dataset)
    scores = dataset.scores
    if not scores.size or scores.min() == scores.max():
        raise DegenerateValidation("all original scores are tied; loss is undefined")
    return compile_dataset(coarsen(dataset), epsilon)


def _report(errors: list[float]) -> QVReport:
    selected = errors.index(min(errors))  # the grid ascends: ties go to the smallest
    return QVReport(
        lambdas=LAMBDA_GRID,
        errors=tuple(errors),
        selected_lambda=LAMBDA_GRID[selected],
        selected_index=selected,
    )


def select_lambda(dataset: ReviewDataset, epsilon: float = DEFAULT_EPSILON) -> QVReport:
    """``select_lambdas`` of the one dataset: the grid solved on its own
    compiled dataset, with no copy."""
    return select_lambdas([dataset], epsilon)[0]
