"""Dequantized review scores: merge quantized scores and partial rankings
into per-review real values by solving a small constrained QP."""

import importlib
import os
import sys

# One OpenBLAS thread unless the user sets a count. The solver's BLAS calls
# are small, and OpenBLAS's worker threads spin between them: they cost CPU
# in every process and stall solves while another process holds a core.
# OpenBLAS reads the variable once, when numpy loads, so a process that
# loaded numpy first is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the solver core loads with the package, as every command needs it; binding
# ``dequantize`` here also keeps that name the function, never the module
from .dequantize import (
    AUTO,
    CompiledDataset,
    DequantizeResult,
    assemble,
    compile_dataset,
    consistency_report,
    dequantize,
)
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

# the other modules load on first use of one of their names, so that a
# command loads only what it runs
_LAZY = {
    "baselines": (
        "GroupsInconsistent",
        "NotTotalRanking",
        "bre_adjusted_scores",
        "partial_rankings_adjusted_scores",
        "quantized_baseline",
    ),
    "experiment": ("ExperimentReport", "ExperimentSpec", "FileSource", "run_experiment"),
    "qv": ("DegenerateValidation", "QVReport", "coarsen", "lambda_path", "select_lambda"),
    "synth": ("SynthConfig", "SynthInstance", "generate", "random_regular_assignment", "trial_seed"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


__version__ = "0.1.0"
