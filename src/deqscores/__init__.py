"""Dequantized review scores: merge quantized scores and partial rankings
into per-review real values by solving a small constrained QP."""

import os
import sys

# One OpenBLAS thread unless the user sets a count. The solver's BLAS calls
# are small, and OpenBLAS's worker threads spin between them: they cost CPU
# in every process and stall solves while another process holds a core.
# OpenBLAS reads the variable once, when numpy loads, so a process that
# loaded numpy first is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .baselines import (
    GroupsInconsistent,
    NotTotalRanking,
    bre_adjusted_scores,
    partial_rankings_adjusted_scores,
    quantized_baseline,
)
from .dequantize import (
    AUTO,
    CompiledDataset,
    DequantizeResult,
    assemble,
    compile_dataset,
    consistency_report,
    dequantize,
)
from .experiment import ExperimentReport, ExperimentSpec, FileSource, run_experiment
from .metrics import (
    AllTiedError,
    kendall_tau_error,
    kendall_tau_errors,
    l2_error,
    percentiles,
    project_to_original_scale,
    tie_fraction,
    trial_statistics,
)
from .model import (
    ReviewDataset,
    ScoreScale,
    ValidationError,
    Violation,
    derive_rankings_from_raw_scores,
    validate,
)
from .qp import (
    Constraints,
    InfeasibleProblem,
    MaxIterationsExceeded,
    QPProblem,
    Solution,
    check_feasibility,
    solve,
)
from .qv import DegenerateValidation, QVReport, coarsen, lambda_path, select_lambda
from .synth import SynthConfig, SynthInstance, generate, random_regular_assignment, trial_seed

__version__ = "0.1.0"
