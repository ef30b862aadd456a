#!/usr/bin/env python3
"""Run the standard synthetic sweeps (noise level, reviewer load, reviews per
paper) and print one table per sweep.

Usage:
  python scripts/run_synthetic_sweeps.py --trials 20 --seed 0 --out results/
  python scripts/run_synthetic_sweeps.py --sweeps sigma --trials 5   # quick look
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deqscores.experiment import ExperimentSpec, run_experiment
from deqscores.synth import SynthConfig

SWEEPS = {
    "sigma": (0.1, 0.5, 1.0),
    "papers_per_reviewer": (2, 4, 6),
    "reviews_per_paper": (2, 4, 6),
}


def sweep_names(text: str) -> list[str]:
    """The comma-separated names of ``--sweeps``, all of them known."""
    names = text.split(",")
    unknown = [name for name in names if name not in SWEEPS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown sweeps {', '.join(unknown)}; known: {', '.join(SWEEPS)}"
        )
    return names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--sweeps", type=sweep_names, default=",".join(SWEEPS), help="comma-separated sweep names"
    )
    parser.add_argument("--out", default=None, help="directory for JSON reports")
    args = parser.parse_args()

    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for name in args.sweeps:
        values = SWEEPS[name]
        spec = ExperimentSpec(
            methods=("proposed", "quantized", "bre_adjusted"),
            sweep_parameter=name,
            sweep_values=values,
            trials=args.trials,
            base=SynthConfig(),
            metrics=("kendall", "l2", "ties"),
            seed=args.seed,
            jobs=args.jobs,
        )
        started = time.time()
        report = run_experiment(spec)
        print(f"== sweep {name} over {values} ({args.trials} trials, {time.time()-started:.0f}s)")
        print(report.table())
        print()
        if out_dir:
            path = out_dir / f"sweep_{name}.json"
            report.save(path)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
