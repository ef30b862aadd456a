"""Child-process entry points of the benchmark.

    child.py sweep --seed S --ops N --out DIR [--spans FILE]
        Import ``deqscores.experiment`` once, then run N identical sweep cells
        (proposed, quantized, bre_adjusted; kendall, l2, ties; sigma 0.5;
        20 trials; jobs 1). Cell k's report goes to DIR/report_k.json and
        each cell's wall and CPU seconds to DIR/timings.json.

    child.py cli --spans FILE -- ARGS...
        Run ``deqscores.cli.main(ARGS)`` with the layers traced, exit with its
        code.

With ``--spans`` the layers are traced and the spans written to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from check import SWEEP_TRIALS
from tracer import Tracer


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _sweep(args, tracer: Tracer | None) -> int:
    from deqscores import experiment
    from deqscores.synth import SynthConfig

    if tracer is not None:
        tracer.install()  # rebinds experiment.run_experiment, so look it up after
    spec = experiment.ExperimentSpec(
        methods=("proposed", "quantized", "bre_adjusted"),
        sweep_parameter="sigma",
        sweep_values=(0.5,),
        trials=SWEEP_TRIALS,
        base=SynthConfig(),
        metrics=("kendall", "l2", "ties"),
        seed=args.seed,
        jobs=1,
    )
    out = Path(args.out)
    timings = []
    for k in range(args.ops):
        if tracer is not None:
            tracer.op = k
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        report = experiment.run_experiment(spec)
        report.save(out / f"report_{k}.json")
        timings.append({"wall_s": time.perf_counter() - wall0, "cpu_s": _cpu_seconds() - cpu0})
    (out / "timings.json").write_text(json.dumps(timings))
    return 0


def _cli(args, tracer: Tracer) -> int:
    from deqscores import cli

    tracer.install()
    return cli.main(args.argv)


def main() -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]

    tracer = Tracer() if args.spans else None
    try:
        if args.mode == "sweep":
            return _sweep(args, tracer)
        return _cli(args, tracer)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
