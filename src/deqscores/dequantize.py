"""Assemble and solve the score-merging QP.

For every review (r, p) the objective couples a consensus term, penalizing
deviation from the mean of paper p's review values, with a fit term tying
the output to the reported score:

    sum_p sum_{r: (r,p) assigned} (y_rp - mean_p(y))^2  +  lam * sum (y_rp - z_rp)^2

minimized subject to a half-unit box around each reported score and an
``epsilon`` separation for every reported ranking pair. The box keeps each
output consistent with what its reviewer reported; the gap makes the
reported rankings strict in the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import DEFAULT_EPSILON, ReviewDataset, require_valid
from .qp import Constraints, InfeasibleProblem, QPProblem, pair_rows, solve

if TYPE_CHECKING:
    from .qv import QVReport

AUTO = "auto"


def require_lambda(lam: float) -> None:
    """Raise ``ValueError`` unless the fit weight is a positive finite
    number. ``AUTO`` is no weight: select one first."""
    if isinstance(lam, str) or not (math.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be a positive finite number")


def require_epsilon(epsilon: float) -> None:
    """Raise ``ValueError`` unless the ranking separation lies in (0, 1)."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")


@dataclass(frozen=True, eq=False)
class DequantizeResult:
    """Dequantized scores with the fit weight ``lam`` that produced them.

    ``values`` holds one score per review, aligned with the dataset's reviews
    (``dataset.pairs()`` order). ``validation`` is the quantization-validation
    report when the weight was selected from the data (``lam=AUTO``), None
    when it was given.
    """

    values: np.ndarray
    lam: float
    validation: QVReport | None = None


@dataclass(frozen=True, eq=False)
class ConsensusPlusFit:
    """The objective's Hessian as the ``qp.QPProblem`` operator: Qy =
    identity*y - (weight * per-paper sums of y)[paper]. At fit weight lam,
    identity is 2 + 2*lam and a paper of mu reviews weighs 2/mu: per paper
    the centering block 2*(I - (1/mu) 11') plus 2*lam*I."""

    paper: np.ndarray
    weight: np.ndarray
    identity: float

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        sums = np.bincount(self.paper, y, self.weight.size)
        return self.identity * y - (self.weight * sums)[self.paper]

    def diagonal(self) -> np.ndarray:
        return self.identity - self.weight[self.paper]

    def scaled(self, factor: float) -> ConsensusPlusFit:
        return ConsensusPlusFit(self.paper, self.weight * factor, self.identity * factor)


@dataclass(frozen=True, eq=False)
class CompiledDataset:
    """The part of a dataset's QP that does not depend on the fit weight.

    ``z`` holds the reported scores in review order, ``paper`` each review's
    paper and ``inverse_count`` one over each paper's review count, the
    consensus term's data, and ``constraints`` the half-unit boxes and
    epsilon-gap ranking rows. Every problem built by ``problem`` shares
    ``constraints``, so the solver derives its constraint data once per
    dataset, however many weights are solved.
    """

    z: np.ndarray
    paper: np.ndarray
    inverse_count: np.ndarray
    constraints: Constraints

    def problem(self, lam: float) -> QPProblem:
        """The QP at fit weight ``lam``: Q = C + 2*lam*I and c = -2*lam*z, so
        0.5*y'Qy + c'y is the objective up to lam*||z||^2, a constant that
        does not move the minimizer. Q is a ``ConsensusPlusFit``."""
        return QPProblem(
            quadratic=ConsensusPlusFit(self.paper, 2.0 * self.inverse_count, 2.0 + 2.0 * lam),
            linear=-2.0 * lam * self.z,
            constraints=self.constraints,
        )


def compile_dataset(dataset: ReviewDataset, epsilon: float) -> CompiledDataset:
    """Validate a dataset and build its fit-weight-free QP data.

    Raises ``InfeasibleProblem`` when a reviewer's ranking chain needs more
    than the half-unit score boxes allow at separation ``epsilon``, naming
    the chain's reviews by (reviewer, paper) ids.
    """
    require_valid(dataset)
    z = dataset.scores.astype(float)
    constraints = Constraints(z - 0.5, z + 0.5, pair_rows(*dataset.ranked_reviews, epsilon))
    try:
        constraints.tightened_lower
    except InfeasibleProblem as exc:
        # validated rankings form no cycle, so the check names a chain
        chain, pairs = exc.chain, dataset.pairs()
        reviews = " > ".join("({!r}, {!r})".format(*pairs[i]) for i in chain)
        raise InfeasibleProblem(
            f"ranked chain of {len(chain)} reviews cannot be separated by epsilon={epsilon:g} "
            f"within their half-unit score boxes: {reviews}",
            chain,
        ) from None
    return CompiledDataset(z, dataset.paper, 1.0 / np.bincount(dataset.paper), constraints)


def assemble(dataset: ReviewDataset, lam: float, epsilon: float) -> QPProblem:
    """Build the QP for a valid dataset, a fit weight and a separation."""
    require_lambda(lam)
    require_epsilon(epsilon)
    return compile_dataset(dataset, epsilon).problem(float(lam))


def dequantize(
    dataset: ReviewDataset, lam: float | str = AUTO, epsilon: float = DEFAULT_EPSILON
) -> DequantizeResult:
    """Merge scores and rankings into per-review real values.

    With ``lam=AUTO`` the fit weight is first selected by quantization
    validation on the dataset itself; the result carries the weight used and
    the validation report. The output is the unique minimizer of the
    assembled QP: every value stays within half a unit of its reported
    score and every reported ranking pair is separated by at least epsilon
    (both up to ``qp.FEASTOL``).
    """
    validation = None
    if lam == AUTO:
        from .qv import select_lambda

        validation = select_lambda(dataset, epsilon)
        lam = validation.selected_lambda
    solution = solve(assemble(dataset, lam, epsilon))
    return DequantizeResult(values=solution.values, lam=lam, validation=validation)


def consistency_report(dataset: ReviewDataset, values) -> tuple[float, float]:
    """(worst box violation, smallest ranked-pair margin) of an output
    ``values``, aligned with the dataset's reviews.

    The margin is y_better - y_worse minimized over reported pairs (inf when
    no pairs exist); a consistent output has violation ~0 and margin >=
    epsilon - tolerance, epsilon being the separation it was solved with.
    """
    y = np.asarray(values, dtype=float)
    z = dataset.scores.astype(float)
    worst_box = float(np.max(np.maximum((z - 0.5) - y, y - (z + 0.5)), initial=0.0))
    better, worse = dataset.ranked_reviews
    return worst_box, float(np.min(y[better] - y[worse], initial=math.inf))
