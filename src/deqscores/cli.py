"""Command-line interface.

Commands: ``validate``, ``dequantize``, ``simulate``, ``qv``, ``baseline``,
``experiment``. Exit codes: 0 success, 1 usage problem, 2 validation
failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys
from pathlib import Path

from . import io
from .dequantize import (
    AUTO,
    compile_dataset,
    consistency_report,
    dequantize,
    require_epsilon,
    require_lambda,
)
from .model import DEFAULT_EPSILON, ValidationError
from .qp import InfeasibleProblem, SolverError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


# an id may hold line breaks: an error prints them escaped, on one line
_ONE_LINE = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_lambda(text: str):
    if text.lower() == AUTO:
        return AUTO
    try:
        value = float(text)
    except ValueError:
        value = text  # rejected below, with the message of every bad weight
    try:
        require_lambda(value)
    except ValueError as exc:  # "lambda must be ..." becomes "--lambda must be ..."
        raise argparse.ArgumentTypeError(f"--{exc}, got {text!r}") from None
    return value


def _require_epsilon_option(epsilon: float) -> None:
    try:
        require_epsilon(epsilon)
    except ValueError as exc:  # "epsilon must ..." becomes "--epsilon must ..."
        raise ValueError(f"--{exc}, got {epsilon:g}") from None


def _default(value: float) -> str:
    """``value`` for a help string: ``%g`` without the exponent's leading zero."""
    return f"{value:g}".replace("e-0", "e-")


def _add_dataset_args(parser: _Parser) -> None:
    parser.add_argument("--reviews", required=True, help="reviews CSV (reviewer_id,paper_id,score)")
    parser.add_argument(
        "--rankings", help="rankings CSV (reviewer_id,better_paper_id,worse_paper_id)"
    )
    parser.add_argument(
        "--scale", nargs=2, type=int, metavar=("LO", "HI"),
        help="score scale bounds (default: inferred from the data)",
    )


def _add_epsilon_arg(
    parser: _Parser, text: str = f"ranking separation (default {_default(DEFAULT_EPSILON)})"
) -> None:
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help=text)


def _add_lambda_arg(parser: _Parser) -> None:
    parser.add_argument(
        "--lambda", dest="lam", type=_parse_lambda, default=AUTO,
        help="fit weight, or 'auto' to select by quantization validation (default auto)",
    )


def _load(args):
    scale = tuple(args.scale) if args.scale else None
    return io.load_reviews(args.reviews, args.rankings, scale=scale)


def _write_report(path, parameters: dict, **fields) -> None:
    """Write a JSON run report: the command's options ``parameters`` plus
    ``fields``."""
    report = {"report_version": io.REPORT_VERSION, "parameters": parameters, **fields}
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _validate_options(p: _Parser) -> None:
    _add_dataset_args(p)
    _add_epsilon_arg(
        p,
        "ranking separation the score boxes must leave room for "
        f"(default {_default(DEFAULT_EPSILON)})",
    )


def _dequantize_options(p: _Parser) -> None:
    _add_dataset_args(p)
    _add_epsilon_arg(p)
    _add_lambda_arg(p)
    p.add_argument("--output", required=True, help="output CSV path")
    p.add_argument("--report", help="optional JSON run report path")


def _simulate_options(p: _Parser) -> None:
    from .synth import SynthConfig

    p.add_argument("--papers", type=int, default=SynthConfig.num_papers)
    p.add_argument("--sigma", type=float, default=SynthConfig.sigma)
    p.add_argument("--reviews-per-paper", type=int, default=4)
    p.add_argument("--papers-per-reviewer", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", required=True, help="prefix for *_reviews/_rankings/_truth.csv")


def _qv_options(p: _Parser) -> None:
    _add_dataset_args(p)
    _add_epsilon_arg(p)
    p.add_argument("--output", help="optional JSON report path")


def _baseline_options(p: _Parser) -> None:
    from .baselines import BASELINES

    p.add_argument("--method", required=True, choices=BASELINES)
    _add_dataset_args(p)
    _add_epsilon_arg(p)
    p.add_argument("--output", required=True, help="output CSV path")


def _experiment_options(p: _Parser) -> None:
    from .experiment import METHODS, METRIC_NAMES, SWEEPABLE
    from .synth import SynthConfig

    _add_epsilon_arg(p)
    _add_lambda_arg(p)
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--sweep", default="sigma", choices=SWEEPABLE)
    p.add_argument("--values", default="0.1,0.5,1.0", help="comma-separated sweep values")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument(
        "--methods", default="proposed,quantized,bre_adjusted",
        help=f"comma-separated subset of {','.join(METHODS)}",
    )
    p.add_argument(
        "--metrics", default="kendall,l2,ties",
        help=f"comma-separated subset of {','.join(METRIC_NAMES)}",
    )
    # unset by default, so that one given with --raw-scores is seen and rejected
    p.add_argument(
        "--papers", type=int, help=f"synthetic papers (default {SynthConfig.num_papers})"
    )
    p.add_argument(
        "--sigma", type=float,
        help=f"synthetic noise level (default {_default(SynthConfig.sigma)})",
    )
    p.add_argument("--reviews-per-paper", type=int, default=4)
    p.add_argument("--papers-per-reviewer", type=int, default=4)
    p.add_argument(
        "--raw-scores",
        help="raw ten-level score CSV; trials re-prepare it instead of simulating "
        "(sweep papers_per_reviewer, reviews_per_paper or lambda)",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers (default 1)")
    p.add_argument("--output", required=True, help="JSON report path")
    p.add_argument("--table", help="optional per-sweep CSV (method,sweep_value,metric,mean,sem)")


def build_parser(commands=None) -> _Parser:
    """The command-line parser. Every command is listed, but only those in
    ``commands`` (default: all) take their options: building a command's
    options imports the modules they name, so ``main`` builds only the
    command it runs."""
    parser = _Parser(prog="deqscores", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_options, _body) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if commands is None or name in commands:
            add_options(p)
    return parser


def _cmd_validate(args) -> int:
    try:
        compile_dataset(_load(args), args.epsilon)
    except ValidationError as exc:
        for violation in exc.violations:
            print(violation)
        return EXIT_VALIDATION
    except InfeasibleProblem as exc:
        print(exc)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def _cmd_dequantize(args) -> int:
    dataset = _load(args)
    result = dequantize(dataset, args.lam, args.epsilon)
    selected = None if result.validation is None else result.lam
    io.write_scores(result.values, dataset, args.output)
    box_viol, margin = consistency_report(dataset, result.values)
    print(f"wrote {args.output} ({dataset.num_reviews} reviews)")
    if selected is not None:
        print(f"selected lambda: {selected:.6g}")
    print(f"max box violation: {box_viol:.3g}; min ranked-pair margin: {margin:.6g}")
    if args.report:
        _write_report(
            args.report, {"epsilon": args.epsilon, "lambda": args.lam},
            selected_lambda=selected, max_box_violation=box_viol,
            min_pair_margin=margin if math.isfinite(margin) else None,  # inf is not JSON
        )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .synth import SynthConfig, generate

    config = SynthConfig(
        num_papers=args.papers,
        sigma=args.sigma,
        reviews_per_paper=args.reviews_per_paper,
        papers_per_reviewer=args.papers_per_reviewer,
        seed=args.seed,
    )
    instance = generate(config)
    paths = io.write_synthetic(instance, args.output_prefix)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_qv(args) -> int:
    from .qv import select_lambda

    dataset = _load(args)
    report = select_lambda(dataset, args.epsilon)
    print("lambda      validation_error")
    for lam, err in zip(report.lambdas, report.errors):
        marker = "  <- selected" if lam == report.selected_lambda else ""
        print(f"{lam:<12.6g}{err:.6f}{marker}")
    if args.output:
        _write_report(
            args.output, {"epsilon": args.epsilon},
            lambdas=list(report.lambdas),
            errors=list(report.errors),
            selected_lambda=report.selected_lambda,
        )
    return EXIT_OK


def _cmd_baseline(args) -> int:
    from . import baselines

    dataset = _load(args)
    if args.method == "quantized":
        values = baselines.quantized_baseline(dataset)
    elif args.method == "bre_adjusted":
        values = baselines.bre_adjusted_scores(dataset, args.epsilon)
    else:
        values = baselines.partial_rankings_adjusted_scores(dataset, args.epsilon)
    io.write_scores(values, dataset, args.output)
    print(f"wrote {args.output} ({dataset.num_reviews} reviews)")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from .experiment import ExperimentSpec, FileSource, run_experiment
    from .synth import SynthConfig

    values = tuple(float(v) for v in args.values.split(","))
    # the synthetic data's options; one not given takes SynthConfig's default
    options = {"--papers": ("num_papers", args.papers), "--sigma": ("sigma", args.sigma)}
    if args.raw_scores:
        base = FileSource(
            raw_path=args.raw_scores,
            reviews_per_paper=args.reviews_per_paper,
            papers_per_reviewer=args.papers_per_reviewer,
        )
    else:
        base = SynthConfig(
            reviews_per_paper=args.reviews_per_paper,
            papers_per_reviewer=args.papers_per_reviewer,
            **{field: value for field, value in options.values() if value is not None},
        )
    spec = ExperimentSpec(
        methods=tuple(args.methods.split(",")),
        sweep_parameter=args.sweep,
        sweep_values=values,
        trials=args.trials,
        base=base,
        metrics=tuple(args.metrics.split(",")),
        epsilon=args.epsilon,
        lam=args.lam,
        seed=args.seed,
        jobs=args.jobs,
    )
    given = [flag for flag, (_, value) in options.items() if value is not None]
    if args.raw_scores and given:  # after the spec's own checks of the sweep
        raise ValueError(
            f"{' and '.join(given)} cannot be used with --raw-scores, "
            "which replaces the synthetic data"
        )
    report = run_experiment(spec)
    report.save(args.output)
    print(report.table())
    print(f"wrote {args.output}")
    if args.table:
        with open(args.table, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["method", "sweep_value", "metric", "mean", "sem"])
            for row in report.results:
                for metric, cell in sorted(row["metrics"].items()):
                    writer.writerow(
                        [
                            row["method"],
                            row["sweep_value"],
                            metric,
                            format(cell["mean"], ".12g"),
                            format(cell["sem"], ".12g"),
                        ]
                    )
        print(f"wrote {args.table}")
    return EXIT_OK


# each command's help line, option builder and body, which import the
# modules only that command uses
_COMMANDS = {
    "validate": (
        "check a dataset against the model invariants", _validate_options, _cmd_validate
    ),
    "dequantize": (
        "merge scores and rankings into real-valued scores", _dequantize_options, _cmd_dequantize
    ),
    "simulate": ("generate a synthetic dataset", _simulate_options, _cmd_simulate),
    "qv": ("select the fit weight by quantization validation", _qv_options, _cmd_qv),
    "baseline": ("run a reference method", _baseline_options, _cmd_baseline),
    "experiment": ("run trial sweeps and aggregate errors", _experiment_options, _cmd_experiment),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command is the first argument that is no option: only --help may
    # come before it, and that lists the commands without their options
    args = build_parser([arg for arg in argv if not arg.startswith("-")][:1]).parse_args(argv)
    try:
        if "epsilon" in args:  # every command but simulate; before any input is read
            _require_epsilon_option(args.epsilon)
        _text, _options, body = _COMMANDS[args.command]
        return body(args)
    except (io.ParseError, ValidationError) as exc:
        print(f"error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Process entry of ``deqscores`` and ``python -m deqscores.cli``."""
    # freeze what the imports built: exit then leaves numpy's object graph to
    # the OS instead of collecting it. Not in main, which tests and library
    # callers run in process
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
