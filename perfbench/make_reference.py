"""Write ``reference.json``: the default seed's outputs that ``check.py``
compares against (selected lambda and recomputed QP objective per cli
workload, metric means and selected-lambda lists of the sweep cell).

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right: every later
run of the default seed is checked against what it writes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run


def reference_of(workload: run.Workload) -> dict:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"ref-{workload.name}-", dir=run.WORK))
    try:
        bench = run.Run(workload, run.DEFAULT_SEED, work, reference=None)
        bench.ops(1, traced=False)
        if bench.problems:
            raise SystemExit(f"{workload.name}: {bench.problems}")
        if workload.kind == "sweep":
            with open(work / "report_0.json", encoding="utf-8") as handle:
                return check.sweep_summary(json.load(handle))
        scores = check.read_reviews(bench.reviews)
        values = check.read_output_values(work / "out_0.csv")
        selected = bench.selected[0]
        weight = selected if workload.lam == "auto" else float(workload.lam)
        return {"selected_lambda": selected, "objective": check.objective(scores, values, weight)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    reference = {"seed": run.DEFAULT_SEED}
    for workload in run.WORKLOADS.values():
        reference[workload.name] = reference_of(workload)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
