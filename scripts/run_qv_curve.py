#!/usr/bin/env python3
"""Trace the ranking error across the whole fit-weight grid for one synthetic
instance: the validation error the selection procedure sees, and the error on
the uncoarsened data an oracle would see. Marks both picks.

Usage:
  python scripts/run_qv_curve.py --seed 7
  python scripts/run_qv_curve.py --papers 60 --sigma 1.0 --csv curve.csv
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deqscores.dequantize import compile_dataset
from deqscores.metrics import kendall_tau_errors
from deqscores.model import DEFAULT_EPSILON
from deqscores.qv import lambda_path, select_lambda
from deqscores.synth import SynthConfig, generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--papers", type=int, default=60)
    parser.add_argument("--sigma", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    parser.add_argument("--csv", default=None, help="optional CSV output path")
    args = parser.parse_args()

    instance = generate(SynthConfig(num_papers=args.papers, sigma=args.sigma, seed=args.seed))
    qv_report = select_lambda(instance.dataset, args.epsilon)

    compiled = compile_dataset(instance.dataset, args.epsilon)
    path = lambda_path(compiled, qv_report.lambdas)
    true_errors = kendall_tau_errors(
        instance.truth_y, [solution.values for solution in path]
    ).tolist()
    oracle_index = min(range(len(true_errors)), key=lambda i: true_errors[i])

    print(f"{'lambda':>12}  {'validation':>10}  {'true_error':>10}")
    for i, lam in enumerate(qv_report.lambdas):
        marks = []
        if i == qv_report.selected_index:
            marks.append("selected")
        if i == oracle_index:
            marks.append("oracle-best")
        print(
            f"{lam:>12.4f}  {qv_report.errors[i]:>10.4f}  {true_errors[i]:>10.4f}  "
            + ",".join(marks)
        )
    gap = true_errors[qv_report.selected_index] - true_errors[oracle_index]
    print(f"\nselected lambda {qv_report.selected_lambda:.4f}; extra true error vs oracle: {gap:.4f}")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["lambda", "validation_error", "true_error", "selected", "oracle_best"])
            for i, lam in enumerate(qv_report.lambdas):
                writer.writerow(
                    [lam, qv_report.errors[i], true_errors[i],
                     int(i == qv_report.selected_index), int(i == oracle_index)]
                )
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
