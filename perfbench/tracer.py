"""Span tracing of the deqscores layers, installed from outside the package.

``Tracer.install()`` replaces every binding of each traced function with one
recording wrapper: the defining module's attribute, every by-name import of
it in other ``deqscores`` modules, and registry dicts such as
``qv.LOSSES``. ``qp.spla`` is replaced by a proxy whose ``splu`` is traced,
so the solver's LU factorizations are seen where ``qp`` calls them. A target
that no longer exists raises ``MissingBinding``: a renamed layer must fail
the traced run, never report zero.

A span is ``[name, start, end, parent, op]`` plus optional attributes; spans
stay in memory and are written once by ``dump``. ``layer_metrics`` turns the
spans of one op into the per-layer metrics of ``run.py``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = (
    "deqscores.cli",
    "deqscores.io",
    "deqscores.model",
    "deqscores.synth",
    "deqscores.qv",
    "deqscores.dequantize",
    "deqscores.qp",
    "deqscores.metrics",
    "deqscores.baselines",
    "deqscores.experiment",
)

# (span name, defining module, attribute)
TARGETS = (
    ("cli.main", "deqscores.cli", "main"),
    ("io.load_reviews", "deqscores.io", "load_reviews"),
    ("io.write_scores", "deqscores.io", "write_scores"),
    ("model.validate", "deqscores.model", "validate"),
    ("synth.generate", "deqscores.synth", "generate"),
    ("qv.select_lambda", "deqscores.qv", "select_lambda"),
    ("qv.coarsen", "deqscores.qv", "coarsen"),
    ("dequantize.assemble", "deqscores.dequantize", "assemble"),
    ("dequantize.dequantize", "deqscores.dequantize", "dequantize"),
    ("qp.solve", "deqscores.qp", "solve"),
    ("qp.check_feasibility", "deqscores.qp", "check_feasibility"),
    ("qp.polish", "deqscores.qp", "_polish"),
    ("metrics.kendall", "deqscores.metrics", "kendall_tau_error"),
    ("metrics.tie_fraction", "deqscores.metrics", "tie_fraction"),
    ("metrics.percentiles", "deqscores.metrics", "percentiles"),
    ("baselines.bre_adjusted", "deqscores.baselines", "bre_adjusted_scores"),
    ("experiment.run_experiment", "deqscores.experiment", "run_experiment"),
)
FACTOR = "qp.factor"


class MissingBinding(RuntimeError):
    pass


class _Proxy:
    """Module stand-in: the given attributes override, the rest delegate."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _solve_attrs(args, kwargs, solution):
    problem = args[0] if args else kwargs["problem"]
    return {
        "iterations": int(solution.iterations),
        "n_vars": int(problem.n),
        "n_pairs": len(problem.pair_constraints),
    }


def _factor_attrs(args, kwargs, lu):
    matrix = args[0] if args else kwargs["A"]
    n = matrix.shape[0]
    # L stores its unit diagonal, so nnz(L + U) counts the diagonal once
    return {"matrix_nnz": int(matrix.nnz), "lu_nnz": int(lu.L.nnz + lu.U.nnz - n)}


ATTRS = {"qp.solve": _solve_attrs, FACTOR: _factor_attrs}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.bindings: list[str] = []

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:  # outside the timed interval
                span.append(attrs(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        for span_name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if not callable(original):
                raise MissingBinding(f"{module_name}.{attribute} is not a function")
            wrapper = self.wrap(span_name, original)
            for mod in [importlib.import_module("deqscores"), *modules]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.bindings.append(f"{mod.__name__}.{key}")
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self.bindings.append(f"{mod.__name__}.{key}[{k!r}]")
        qp = importlib.import_module("deqscores.qp")
        linalg = getattr(qp, "spla", None)
        if linalg is None or not callable(getattr(linalg, "splu", None)):
            raise MissingBinding("deqscores.qp.spla.splu is not a function")
        qp.spla = _Proxy(linalg, splu=self.wrap(FACTOR, linalg.splu))
        self.bindings.append("deqscores.qp.spla.splu")

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"bindings": self.bindings, "spans": self.spans}, handle)


def layer_metrics(spans, op: int = 0, trials: int = 1) -> dict[str, float]:
    """Per-layer metrics of the spans of op ``op``. Times are seconds, counts
    exact.

    Self time is a span's duration minus the durations of its direct
    children. ``trials`` is the number of experiment trials in the op, the
    base of ``experiment.trial_self_s``. Sizes are those of the largest solve
    (``qp.n_vars``, ``qp.n_pairs``) and the largest LU (``qp.lu_nnz``,
    ``qp.lu_fill_ratio``).
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    solve_attrs, factor_attrs = [], []
    for i, span in enumerate(spans):
        if span[4] != op:
            continue
        name, duration = span[0], span[2] - span[1]
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "qp.solve":
            solve_attrs.append(span[5])
        elif name == FACTOR:
            factor_attrs.append(span[5])

    def s(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    largest = max(factor_attrs, key=lambda a: a["lu_nnz"], default=None)
    return {
        "cli.main_s": s("cli.main"),
        "io.load_reviews_s": s("io.load_reviews"),
        "io.write_scores_s": s("io.write_scores"),
        "model.validate_calls": n("model.validate"),
        "model.validate_s": s("model.validate"),
        "synth.generate_s": s("synth.generate"),
        "qv.select_lambda_calls": n("qv.select_lambda"),
        "qv.select_lambda_s": s("qv.select_lambda"),
        "qv.coarsen_s": s("qv.coarsen"),
        "dequantize.assemble_calls": n("dequantize.assemble"),
        "dequantize.assemble_s": s("dequantize.assemble"),
        "dequantize.dequantize_calls": n("dequantize.dequantize"),
        "qp.solve_calls": n("qp.solve"),
        "qp.solve_s": s("qp.solve"),
        "qp.solve_self_s": own.get("qp.solve", 0.0),
        "qp.admm_iterations": sum(a["iterations"] for a in solve_attrs),
        "qp.check_feasibility_s": s("qp.check_feasibility"),
        "qp.factor_calls": n(FACTOR),
        "qp.factor_s": s(FACTOR),
        "qp.lu_nnz": largest["lu_nnz"] if largest else 0,
        "qp.lu_fill_ratio": largest["lu_nnz"] / largest["matrix_nnz"] if largest else 0.0,
        "qp.polish_calls": n("qp.polish"),
        "qp.polish_s": s("qp.polish"),
        "qp.n_vars": max((a["n_vars"] for a in solve_attrs), default=0),
        "qp.n_pairs": max((a["n_pairs"] for a in solve_attrs), default=0),
        "metrics.kendall_calls": n("metrics.kendall"),
        "metrics.kendall_s": s("metrics.kendall"),
        "metrics.tie_fraction_s": s("metrics.tie_fraction"),
        "metrics.percentiles_s": s("metrics.percentiles"),
        "baselines.bre_adjusted_s": s("baselines.bre_adjusted"),
        "experiment.trial_self_s": own.get("experiment.run_experiment", 0.0) / trials,
    }


COUNTS = tuple(
    name
    for name in layer_metrics([])
    if name.endswith("_calls") or name in ("qp.admm_iterations", "qp.lu_nnz", "qp.n_vars", "qp.n_pairs")
)


def load(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]
