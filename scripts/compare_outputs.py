#!/usr/bin/env python3
"""Compare what two source trees write for the seeded simulate -> dequantize
matrix. Each run spec PAPERS:SEEDS (a seed or a range, as in 60:0-19) names
synthetic datasets; each tree simulates every one of them and dequantizes it
with ``--lambda auto`` and ``--lambda 1``, both with ``--report``, as its own
``python -m deqscores.cli`` process. Prints one line per dataset and weight:
identical (inputs, CSV and report byte for byte), or different with the
largest move of a dequantized value and the report fields that moved, each
with its value in both trees. Exits 1 on any difference.

Usage:
  python scripts/compare_outputs.py --against ../parent-checkout
  python scripts/compare_outputs.py --against ../parent-checkout 60:0-19 1500:0
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the acceptance matrix of solver changes
DEFAULT_SPECS = ("60:0-19", "600:0-2", "1500:0", "3000:0", "15000:0")
LAMBDAS = ("auto", "1")


def run_spec(text: str) -> tuple[int, range]:
    """PAPERS:SEED or PAPERS:FIRST-LAST as (papers, seeds)."""
    try:
        papers, seeds = text.split(":")
        first, _, last = seeds.partition("-")
        return int(papers), range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not PAPERS:SEED or PAPERS:FIRST-LAST: {text!r}")


def outputs(tree: Path, work: Path, papers: int, seed: int) -> dict:
    """What ``tree`` writes for one dataset: its simulated reviews and
    rankings, and per weight the exit code, output CSV and report."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))

    def cli(*argv) -> int:
        command = [sys.executable, "-m", "deqscores.cli", *argv]
        return subprocess.run(command, env=env, capture_output=True, timeout=3600).returncode

    prefix, simulate = work / "data", ["--papers", str(papers), "--seed", str(seed)]
    if cli("simulate", *simulate, "--output-prefix", str(prefix)):
        raise SystemExit(f"{tree}: simulate {' '.join(simulate)} failed")
    inputs = [Path(f"{prefix}_{name}.csv") for name in ("reviews", "rankings")]
    found = {"inputs": [path.read_bytes() for path in inputs]}
    for lam in LAMBDAS:
        scores, report = work / f"{lam}.csv", work / f"{lam}.json"
        code = cli(
            "dequantize", "--reviews", str(inputs[0]), "--rankings", str(inputs[1]),
            "--lambda", lam, "--output", str(scores), "--report", str(report),
        )
        found[lam] = [code]
        for path in (scores, report):
            found[lam].append(path.read_bytes() if path.exists() else b"")
            path.unlink(missing_ok=True)
    return found


def values(text: bytes) -> dict:
    """Each review's dequantized score in an output CSV."""
    rows = csv.DictReader(text.decode().splitlines())
    return {(row["reviewer_id"], row["paper_id"]): float(row["dequantized_score"]) for row in rows}


def shown(report: dict, key: str) -> str:
    """A report field's value as JSON writes it (a float to its last
    digit), or 'absent'."""
    return json.dumps(report[key], sort_keys=True) if key in report else "absent"


def verdict(ours: list, theirs: list) -> str:
    """'identical', or what moved between two runs' (exit code, CSV, report)."""
    if ours == theirs:
        return "identical"
    if ours[0] != theirs[0]:
        return f"different: exit code {ours[0]} here, {theirs[0]} there"
    ours_values, theirs_values = values(ours[1]), values(theirs[1])
    moves = [abs(ours_values[key] - theirs_values[key]) for key in ours_values]
    ours_report, theirs_report = json.loads(ours[2]), json.loads(theirs[2])
    sides = [(key, shown(ours_report, key), shown(theirs_report, key))
             for key in sorted(ours_report | theirs_report)]
    moved = [f"{key} {here} here, {there} there" for key, here, there in sides if here != there]
    return (f"different: largest value move {max(moves, default=0.0):.3g}; "
            f"report fields moved: {'; '.join(moved) or 'none'}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--against", required=True, type=Path, help="the other source tree")
    parser.add_argument(
        "specs", nargs="*", type=run_spec, help=f"default: {' '.join(DEFAULT_SPECS)}"
    )
    args = parser.parse_args()
    trees = (ROOT, args.against.resolve())
    if not (trees[1] / "src" / "deqscores").is_dir():
        parser.error(f"no src/deqscores under {args.against}")

    differences = 0
    for papers, seeds in args.specs or [run_spec(spec) for spec in DEFAULT_SPECS]:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                ours, theirs = (outputs(tree, Path(work), papers, seed) for tree in trees)
            for lam in LAMBDAS:
                if ours["inputs"] != theirs["inputs"]:
                    line = "different: the simulated inputs differ"
                else:
                    line = verdict(ours[lam], theirs[lam])
                differences += line != "identical"
                print(f"P={papers} seed={seed} lambda={lam}: {line}", flush=True)
    print(f"{differences} different")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
