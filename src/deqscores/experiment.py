"""Trial-based experiment harness over synthetic or file-based review data.

Each (sweep value, trial) draws a fresh instance from a per-trial seed
derived from the master seed, runs every requested method against the latent
truth, and aggregates mean and standard error per method and metric.

Under ``lam=AUTO`` the proposed method's fit weight is selected per trial by
quantization validation. Consecutive trials of one sweep value form a group
of at most ``_UNION_REVIEWS`` reviews, and ``qv.select_lambdas`` selects the
group's weights on one path over the union of its trials; each trial's
output is then its own ``dequantize`` at its own selected weight. So the
report is the one trial-by-trial selection gives wherever a trial's slice
of the union's path selects the weight its own path would, which held on
every seed measured (see ``qv``). The groups depend on the spec alone,
never on the worker count, and draw their instances from per-trial seeds,
so they can run on worker processes without changing any number in the
report.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import (
    BASELINES,
    NotTotalRanking,
    bre_adjusted_scores,
    partial_rankings_adjusted_scores,
    quantized_baseline,
)
from .dequantize import AUTO, dequantize, require_epsilon, require_lambda
from .io import REPORT_VERSION, prepare_half_scale
from .metrics import (
    kendall_tau_errors,
    l2_error,
    project_to_original_scale,
    tie_fraction,
    trial_statistics,
)
from .model import DEFAULT_EPSILON, ReviewDataset, ValidationError
from .qp import SolverError
from .synth import SynthConfig, generate, require_counts, trial_seed

METHODS = ("proposed", *BASELINES)
SWEEPABLE = ("sigma", "papers_per_reviewer", "reviews_per_paper", "lambda")
INTEGER_SWEEPS = ("papers_per_reviewer", "reviews_per_paper")
FILE_SWEEPS = ("papers_per_reviewer", "reviews_per_paper", "lambda")
METRIC_NAMES = ("kendall", "l2", "ties")

# The most reviews one selection path joins: consecutive trials of a sweep
# value share a path up to this many reviews, so a trial of more than half
# of it (P >= 257 at 4 reviews per paper) is solved alone. A cell of 20 P=60
# trials (240 reviews each) makes three paths, of 8, 8 and 4 trials. On 2
# vCPUs (medians of 9 runs of the bench's sweep-p60) that cell took 0.36 s
# and peaked at 39.2 MB, against 0.51 s and 38.1 MB for 20 paths. One path
# of all 20 trials took 0.35 s but peaked at 41.8 MB, 10 % above 20 paths:
# a path holds every step's values, and its working memory grows with its
# size. A group's selection took 0.47-0.49 of its trials' time alone at 240
# reviews a trial, 0.71-0.72 at 512 and 0.85-0.90 at 1 000 (sigma 0.5 and
# 1.0, medians of 5 runs).
_UNION_REVIEWS = 2048


@dataclass(frozen=True)
class FileSource:
    """Raw ten-level score file re-prepared per trial (fresh retained reviews
    and assignment per trial seed)."""

    raw_path: str
    reviews_per_paper: int = 3
    papers_per_reviewer: int = 3

    def __post_init__(self) -> None:
        require_counts(
            reviews_per_paper=self.reviews_per_paper,
            papers_per_reviewer=self.papers_per_reviewer,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    methods: tuple[str, ...] = ("proposed", "quantized", "bre_adjusted")
    sweep_parameter: str = "sigma"
    sweep_values: tuple[float, ...] = (0.1, 0.5, 1.0)
    trials: int = 20
    base: SynthConfig | FileSource = field(default_factory=SynthConfig)
    metrics: tuple[str, ...] = ("kendall", "l2", "ties")
    epsilon: float = DEFAULT_EPSILON
    lam: float | str = AUTO
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; known: {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must be distinct, got {list(self.methods)}")
        if self.sweep_parameter not in SWEEPABLE:
            raise ValueError(f"cannot sweep {self.sweep_parameter!r}; known: {SWEEPABLE}")
        unknown = set(self.metrics) - set(METRIC_NAMES)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}; known: {METRIC_NAMES}")
        if len(set(self.metrics)) != len(self.metrics):
            raise ValueError(f"metrics must be distinct, got {list(self.metrics)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sweep_values:
            raise ValueError("sweep needs at least one value")
        if len(set(self.sweep_values)) != len(self.sweep_values):
            raise ValueError(f"sweep values must be distinct, got {list(self.sweep_values)}")
        if self.sweep_parameter in INTEGER_SWEEPS and not all(
            float(v).is_integer() for v in self.sweep_values
        ):
            raise ValueError(
                f"{self.sweep_parameter} values must be whole numbers, "
                f"got {list(self.sweep_values)}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.sweep_parameter == "lambda":
            if self.lam != AUTO:
                # each trial runs at its swept weight, so a given one is inert
                raise ValueError(
                    f"a lambda sweep sets each trial's fit weight; lam must stay {AUTO!r}, "
                    f"got {self.lam!r}"
                )
            for value in self.sweep_values:
                require_lambda(value)
        elif self.lam != AUTO:
            require_lambda(self.lam)
        if isinstance(self.base, FileSource) and self.sweep_parameter not in FILE_SWEEPS:
            # a score file fixes the review values, so every row would
            # repeat the same trials under another label
            raise ValueError(
                f"a score-file experiment cannot sweep {self.sweep_parameter}; "
                f"sweep one of {', '.join(FILE_SWEEPS)}"
            )
        # fail before any trial runs on a swept sigma or load the source
        # would reject
        for value in self.sweep_values:
            _swept_config(self.base, self.sweep_parameter, value)
        require_epsilon(self.epsilon)


@dataclass
class ExperimentReport:
    parameters: dict
    results: list[dict]

    def cell(self, method: str, sweep_value, metric: str) -> dict:
        for row in self.results:
            if row["method"] == method and row["sweep_value"] == sweep_value:
                return row["metrics"][metric]
        raise KeyError((method, sweep_value, metric))

    def to_json(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "parameters": self.parameters,
            "results": self.results,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    def table(self) -> str:
        parameter = self.parameters.get("sweep_parameter", "value")
        lines = []
        for row in self.results:
            cells = "  ".join(
                f"{name}={m['mean']:.4f}±{m['sem']:.4f}"
                for name, m in sorted(row["metrics"].items())
            )
            lines.append(
                f"{row['method']:>28} @ {parameter}={row['sweep_value']}: {cells}"
            )
        return "\n".join(lines)


def _instance_for(spec: ExperimentSpec, sweep_value, trial: int):
    """Build the (dataset, truth, projected-l2 flag) for one trial; the truth
    is aligned with the dataset's reviews."""
    seed = trial_seed(spec.seed, trial)
    source = _swept_config(spec.base, spec.sweep_parameter, sweep_value)
    if isinstance(source, FileSource):
        dataset, truth = prepare_half_scale(
            source.raw_path,
            reviews_per_paper=source.reviews_per_paper,
            papers_per_reviewer=source.papers_per_reviewer,
            seed=seed,
        )
        return dataset, truth, True
    instance = generate(dataclasses.replace(source, seed=seed))
    return instance.dataset, instance.truth_y, False


def _swept_config(
    base: SynthConfig | FileSource, parameter: str, value
) -> SynthConfig | FileSource:
    """``base`` with its field named ``parameter`` set to ``value``. Both
    sources name their loads alike; ``lambda`` is no field of either and
    leaves ``base`` as it is."""
    if parameter == "lambda":
        return base
    return dataclasses.replace(base, **{parameter: type(getattr(base, parameter))(value)})


def _run_method(
    method: str, dataset: ReviewDataset, lam: float | str, epsilon: float
) -> tuple[np.ndarray, float | None]:
    """Returns the method's scores, aligned with the dataset's reviews, and,
    for the proposed method, the fit weight it ran at. The baselines read
    only ``epsilon``."""
    if method == "proposed":
        result = dequantize(dataset, lam, epsilon)
        return result.values, result.lam
    if method == "quantized":
        return quantized_baseline(dataset), None
    if method == "bre_adjusted":
        # BRE is the group-wise rule restricted to total rankings, so tied
        # inputs fall back to the rule itself
        try:
            return bre_adjusted_scores(dataset, epsilon), None
        except NotTotalRanking:
            return partial_rankings_adjusted_scores(dataset, epsilon), None
    if method == "partial_rankings_adjusted":
        return partial_rankings_adjusted_scores(dataset, epsilon), None
    raise ValueError(f"unknown method {method!r}")


def _evaluate(truth, estimates, metrics, project_l2: bool) -> list[dict]:
    """The metrics of each of ``estimates`` against ``truth``, vectors
    aligned with one review order. All Kendall errors come from one call of
    the batched kernel."""
    for estimate in estimates:
        if np.shape(estimate) != np.shape(truth):
            raise ValueError("truth and estimate must be aligned vectors of one length")
    out: list[dict] = [{} for _ in estimates]
    if "kendall" in metrics:
        for row, error in zip(out, kendall_tau_errors(truth, estimates).tolist()):
            row["kendall"] = error
    for row, e in zip(out, estimates):
        if "l2" in metrics:
            row["l2"] = l2_error(truth, project_to_original_scale(e) if project_l2 else e)
        if "ties" in metrics:
            row["ties"] = tie_fraction(e)
    return out


def _selects(spec: ExperimentSpec) -> bool:
    """Whether the proposed method's trials select their fit weight."""
    return "proposed" in spec.methods and spec.lam == AUTO and spec.sweep_parameter != "lambda"


def _groups(spec: ExperimentSpec, sweep_value) -> list[range]:
    """The trials of ``sweep_value`` in groups that share a selection path:
    consecutive trials up to ``_UNION_REVIEWS`` reviews, each trial alone
    when nothing is selected. A score file's size is known only once a
    trial reads it, so its trials are solved alone too."""
    source = _swept_config(spec.base, spec.sweep_parameter, sweep_value)
    size = 1
    if _selects(spec) and isinstance(source, SynthConfig):
        size = max(1, _UNION_REVIEWS // (source.num_papers * source.reviews_per_paper))
    return [range(first, min(first + size, spec.trials)) for first in range(0, spec.trials, size)]


def _run_trial(spec: ExperimentSpec, sweep_value, trial: int, instance=None, lam=None) -> dict:
    """One trial's metrics per method, with the proposed method's selected
    fit weight under AUTO. ``instance`` and ``lam`` are the trial's data
    and fit weight when its group drew and selected them; otherwise the
    trial draws its data and ``dequantize`` resolves the spec's weight."""
    if instance is None:
        instance = _instance_for(spec, sweep_value, trial)
    dataset, truth, project_l2 = instance
    if lam is None:
        lam = float(sweep_value) if spec.sweep_parameter == "lambda" else spec.lam
    estimates, weights = zip(*(_run_method(m, dataset, lam, spec.epsilon) for m in spec.methods))
    scored = _evaluate(truth, estimates, spec.metrics, project_l2)
    selects = _selects(spec)
    return {
        method: {"metrics": metrics, "selected_lambda": weight if selects else None}
        for method, metrics, weight in zip(spec.methods, scored, weights)
    }


def _run_group(spec: ExperimentSpec, sweep_value, trials: range) -> list[dict]:
    """The rows of a group of trials. A group of several selects its fit
    weights on one path (``select_lambdas``). If that raises one of the
    errors a trial can raise, each trial selects its own weight, so the
    first failing trial raises as it would alone; the group's selection is
    then paid for twice, up to that trial. Any other exception propagates."""
    selected = [(None, None)] * len(trials)
    if len(trials) > 1:
        # imported here, as ``dequantize`` does: the harness's import loads
        # no validation module
        from .qv import select_lambdas

        try:
            instances = [_instance_for(spec, sweep_value, trial) for trial in trials]
            reports = select_lambdas([instance[0] for instance in instances], spec.epsilon)
        except (ValueError, ValidationError, SolverError):
            pass  # alone, the first failing trial raises with its context
        else:
            selected = [
                (instance, report.selected_lambda) for instance, report in zip(instances, reports)
            ]
    return [
        _run_trial_with_context(spec, sweep_value, trial, *chosen)
        for trial, chosen in zip(trials, selected)
    ]


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every (sweep value, trial) cell and aggregate with mean/SEM.

    The cells run in order of sweep value, then trial, a group of trials
    (``_groups``) at a time, on one pool of ``spec.jobs`` worker processes
    when there is more than one job. A failing trial aborts the run with an
    exception of its original class whose message starts with the trial
    index and sweep value (the first failing cell in that order), with or
    without worker processes.
    """
    tasks = [(spec, value, trials) for value in spec.sweep_values for trials in _groups(spec, value)]
    if spec.jobs > 1:
        # imported here: a serial run would carry the pool module's memory
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            groups = list(pool.map(_group_worker, tasks))
    else:
        groups = [_run_group(*task) for task in tasks]
    rows = [row for group in groups for row in group]

    results = []
    for index, sweep_value in enumerate(spec.sweep_values):
        trial_rows = rows[index * spec.trials:(index + 1) * spec.trials]
        for method in spec.methods:
            metric_cells = {}
            for metric in spec.metrics:
                values = [row[method]["metrics"][metric] for row in trial_rows]
                mean, sem = trial_statistics(values)
                metric_cells[metric] = {"mean": mean, "sem": sem, "trials": values}
            selected = [row[method]["selected_lambda"] for row in trial_rows]
            entry = {
                "method": method,
                "sweep_value": sweep_value,
                "metrics": metric_cells,
            }
            if any(s is not None for s in selected):
                entry["selected_lambdas"] = selected
            results.append(entry)

    parameters = {
        "methods": list(spec.methods),
        "sweep_parameter": spec.sweep_parameter,
        "sweep_values": list(spec.sweep_values),
        "trials": spec.trials,
        "metrics": list(spec.metrics),
        "epsilon": spec.epsilon,
        "lambda": spec.lam,
        "seed": spec.seed,
        "base": dataclasses.asdict(spec.base),
        "base_kind": "file" if isinstance(spec.base, FileSource) else "synthetic",
    }
    return ExperimentReport(parameters=parameters, results=results)


def _run_trial_with_context(
    spec: ExperimentSpec, sweep_value, trial: int, instance=None, lam=None
) -> dict:
    try:
        return _run_trial(spec, sweep_value, trial, instance, lam)
    except Exception as exc:
        message = f"trial {trial} at {spec.sweep_parameter}={sweep_value} failed: {exc}"
        raise _with_message(exc, message) from exc


def _with_message(exc: Exception, message: str) -> BaseException:
    """A copy of ``exc`` whose text is ``message``, of its own class where
    that class prints its args (most do), else of its nearest base class
    that does (``UnicodeDecodeError`` prints its own fields, for one)."""
    for cls in type(exc).__mro__:
        copy = _rebuild_exception(cls, (message,), vars(exc))
        if str(copy) == message or cls is BaseException:
            return copy


def _rebuild_exception(cls, args: tuple, state: dict) -> BaseException:
    """An exception of class ``cls`` with ``args`` and attributes ``state``,
    made without calling ``cls.__init__`` (whose signature may differ)."""
    exc = cls.__new__(cls, *args)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class _PortableError(Exception):
    """Carries a worker's exception to the parent process, where it unpickles
    as the original class with the original message and attributes, even
    when that class's ``__init__`` takes other arguments than its message."""

    def __init__(self, exc: Exception):
        super().__init__(str(exc))
        self.exc = exc

    def __reduce__(self):
        return _rebuild_exception, (type(self.exc), self.exc.args, vars(self.exc))


def _group_worker(args) -> list[dict]:
    try:
        return _run_group(*args)
    except Exception as exc:
        raise _PortableError(exc) from None
