"""Data-driven fit-weight selection by re-quantization.

The observed scores are coarsened through a monotone quantizer; rankings are
re-derived from the *original* scores by strict comparison (so information
lost to the coarser bins survives as ranking pairs). Each candidate weight
then dequantizes the coarsened data, scored by how well it recovers the
ordering of the original scores. The winner is the candidate with the
smallest validation error, ties broken toward the smallest value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dequantize import CompiledDataset, DequantizerConfig, compile_dataset
from .metrics import kendall_tau_error
from .model import (
    Pair,
    ReviewDataset,
    ScoreScale,
    derive_rankings_from_raw_scores,
    require_valid,
)
from .qp import Solution, SolverSettings, solve


class DegenerateValidation(ValueError):
    """The dataset carries no signal the validation could score against."""


def default_lambda_grid() -> tuple[float, ...]:
    """Exponential grid exp(t/4) for t = 0..39."""
    return tuple(math.exp(t / 4.0) for t in range(40))


def halve_score(z: int) -> int:
    """Default coarsener: ceil(z / 2)."""
    return math.ceil(z / 2)


@dataclass(frozen=True)
class QVConfig:
    lambda_grid: tuple[float, ...] = field(default_factory=default_lambda_grid)

    def __post_init__(self) -> None:
        grid = self.lambda_grid
        if not grid or not all(math.isfinite(g) and g > 0 for g in grid):
            raise ValueError("lambda grid must be nonempty, positive and finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda grid must be strictly increasing")


@dataclass(frozen=True)
class QVReport:
    lambdas: tuple[float, ...]
    errors: tuple[float, ...]
    selected_lambda: float
    selected_index: int


def coarsen(dataset: ReviewDataset, quantizer: Callable[[int], int] = halve_score) -> ReviewDataset:
    """Coarsened copy: scores pushed through the quantizer, rankings re-derived
    from the original scores by strict comparison, scale mapped endpoint-wise.

    Raises ``DegenerateValidation`` when the quantizer collapses the whole
    scale to a single level.
    """
    require_valid(dataset)
    scale = dataset.scale
    mapped = [quantizer(v) for v in range(scale.lower_bound, scale.upper_bound + 1)]
    if any(b < a for a, b in zip(mapped, mapped[1:])):
        raise ValueError("quantizer must be monotone nondecreasing on the scale")
    if mapped[0] == mapped[-1]:
        raise DegenerateValidation("quantizer collapses the scale to one level")

    coarse_scores = {pair: quantizer(z) for pair, z in dataset.scores.items()}
    raw: dict[Pair, float] = {pair: float(z) for pair, z in dataset.scores.items()}
    rankings = tuple(derive_rankings_from_raw_scores(raw))
    return ReviewDataset(
        scale=ScoreScale(mapped[0], mapped[-1]),
        assignment=dataset.assignment,
        scores=coarse_scores,
        rankings=rankings,
    )


def lambda_path(
    compiled: CompiledDataset,
    lambdas: Sequence[float],
    settings: SolverSettings = SolverSettings(),
) -> list[Solution]:
    """Solve ``compiled`` at each fit weight in order, as one path.

    Each solve is started from the previous weight's solution, so it first
    tries that solution's active set with a single certified polish and
    iterates only when the polished point fails the certificate. Every
    returned solution is the certified unique minimizer at its weight, as a
    solve from no start would be.
    """
    solutions: list[Solution] = []
    previous: Solution | None = None
    for lam in lambdas:
        previous = solve(compiled.problem(lam), settings, start=previous)
        solutions.append(previous)
    return solutions


def select_lambda(
    dataset: ReviewDataset,
    config: QVConfig = QVConfig(),
    deq_config: DequantizerConfig = DequantizerConfig(),
) -> QVReport:
    """Evaluate every candidate weight on the coarsened dataset and pick the
    one whose dequantization best recovers the original score ordering.

    Only ``epsilon`` and the solver settings of ``deq_config`` are used. The
    coarsened dataset is compiled once and the candidates are solved in
    ascending order by ``lambda_path``, each warm-started from the previous
    candidate's solution and active set. The warm start never skips the
    solver's optimality certificate and the minimizer is unique, so it only
    saves work. The original scores, in the solution vectors' review order,
    act as validation truth with exact-tie omission; all-tied originals raise
    ``DegenerateValidation``.
    """
    require_valid(dataset)
    if len(set(dataset.scores.values())) < 2:
        raise DegenerateValidation("all original scores are tied; loss is undefined")

    coarse = coarsen(dataset)
    compiled = compile_dataset(coarse, deq_config.epsilon)
    truth = np.array([dataset.scores[pair] for pair in coarse.pair_index], dtype=float)
    errors = [
        kendall_tau_error(truth, solution.values)
        for solution in lambda_path(compiled, config.lambda_grid, deq_config.solver)
    ]

    selected = min(range(len(errors)), key=lambda i: (errors[i], config.lambda_grid[i]))
    return QVReport(
        lambdas=tuple(config.lambda_grid),
        errors=tuple(errors),
        selected_lambda=config.lambda_grid[selected],
        selected_index=selected,
    )
