"""Independent checks of the program's outputs.

Nothing here imports ``deqscores``: inputs and outputs are read back from
their files and the QP objective is recomputed from the model's definition,

    sum_p sum_r (y_rp - mean_p(y))^2  +  lam * sum (y_rp - z_rp)^2.

Every seed gets the feasibility checks. Only the default seed is also
compared with ``reference.json``: the selected ``lambda`` exactly, the
objective and the sweep's metric means to ``REL_TOL``, and the sweep's
selected-``lambda`` lists exactly. Each function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

BOX_TOL = 1e-6
PAIR_TOL = 1e-6
REL_TOL = 1e-9
LAMBDA_GRID = tuple(math.exp(t / 4.0) for t in range(40))
SWEEP_TRIALS = 20
SWEEP_METHODS = ("proposed", "quantized", "bre_adjusted")
SWEEP_METRICS = ("kendall", "l2", "ties")
OUTPUT_HEADER = ["reviewer_id", "paper_id", "quantized_score", "dequantized_score", "percentile"]


def _rows(path, header):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != header:
            raise ValueError(f"{path}: header is not {','.join(header)}")
        return [row for row in reader if row]


def read_reviews(path) -> dict[tuple[str, str], int]:
    return {(r, p): int(z) for r, p, z in _rows(path, ["reviewer_id", "paper_id", "score"])}


def read_rankings(path) -> list[tuple[str, str, str]]:
    return [tuple(row) for row in _rows(path, ["reviewer_id", "better_paper_id", "worse_paper_id"])]


def read_output_values(path) -> dict[tuple[str, str], float]:
    return {(r, p): float(y) for r, p, _z, y, _pct in _rows(path, OUTPUT_HEADER)}


def objective(scores: dict, values: dict, lam: float) -> float:
    by_paper: dict[str, list[tuple[float, int]]] = {}
    for (r, p), z in scores.items():
        by_paper.setdefault(p, []).append((values[(r, p)], z))
    total = 0.0
    for entries in by_paper.values():
        y = np.array([v for v, _ in entries])
        z = np.array([z for _, z in entries], dtype=float)
        total += float(np.sum((y - y.mean()) ** 2) + lam * np.sum((y - z) ** 2))
    return total


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_dequantize(reviews_path, rankings_path, output_path, report_path, epsilon, lam, reference):
    """Check one ``dequantize`` op. ``lam`` is the fixed weight or ``"auto"``;
    ``reference`` holds ``selected_lambda`` and ``objective`` for the default
    seed, else None. Returns (problems, selected lambda)."""
    scores = read_reviews(reviews_path)
    rankings = read_rankings(rankings_path)
    problems: list[str] = []
    values: dict[tuple[str, str], float] = {}
    for r, p, z, y, _pct in _rows(output_path, OUTPUT_HEADER):
        if (r, p) in values:
            problems.append(f"review ({r}, {p}) appears twice")
        values[(r, p)] = float(y)
        if (r, p) in scores and int(z) != scores[(r, p)]:
            problems.append(f"review ({r}, {p}) reports score {z}, input has {scores[(r, p)]}")
    missing = scores.keys() - values.keys()
    extra = values.keys() - scores.keys()
    if missing or extra:
        problems.append(f"{len(missing)} reviews missing and {len(extra)} unknown in the output")
        return problems, None
    worst_box = max(abs(values[k] - z) for k, z in scores.items())
    if worst_box > 0.5 + BOX_TOL:
        problems.append(f"a value is {worst_box:.9g} from its score (box is 0.5)")
    margin = min((values[(r, b)] - values[(r, w)] for r, b, w in rankings), default=math.inf)
    if margin < epsilon - PAIR_TOL:
        problems.append(f"a ranked pair has margin {margin:.9g} < epsilon {epsilon}")

    with open(report_path, encoding="utf-8") as handle:
        selected = json.load(handle).get("selected_lambda")
    if lam == "auto":
        if not any(_relative_gap(selected, g) < 1e-12 for g in LAMBDA_GRID):
            problems.append(f"selected lambda {selected!r} is not on the validation grid")
            return problems, selected
        weight = selected
    else:
        weight = float(lam)
    if reference is not None:
        if selected != reference["selected_lambda"]:
            problems.append(f"selected lambda {selected!r} != reference {reference['selected_lambda']!r}")
        value = objective(scores, values, weight)
        if _relative_gap(value, reference["objective"]) > REL_TOL:
            problems.append(f"objective {value!r} != reference {reference['objective']!r}")
    return problems, selected


def sweep_summary(report: dict) -> dict:
    """Metric means and selected-lambda lists, the values the reference pins."""
    out: dict = {}
    for row in report["results"]:
        out[row["method"]] = {
            "means": {m: cell["mean"] for m, cell in sorted(row["metrics"].items())},
            "selected_lambdas": row.get("selected_lambdas"),
        }
    return out


def check_sweep(report_path, reference):
    """Check one sweep-cell report; ``reference`` is the default seed's
    ``sweep_summary`` or None."""
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    problems: list[str] = []
    rows = {row["method"]: row for row in report["results"]}
    if sorted(rows) != sorted(SWEEP_METHODS):
        return [f"report methods {sorted(rows)} != {sorted(SWEEP_METHODS)}"]
    for method, row in rows.items():
        for metric in SWEEP_METRICS:
            cell = row["metrics"].get(metric)
            if cell is None:
                problems.append(f"{method}: metric {metric} missing")
                continue
            trials = cell["trials"]
            if len(trials) != SWEEP_TRIALS or not all(math.isfinite(v) and v >= 0 for v in trials):
                problems.append(f"{method}.{metric}: trials are not {SWEEP_TRIALS} finite values >= 0")
            elif metric != "l2" and max(trials) > 1:
                problems.append(f"{method}.{metric}: a fraction exceeds 1")
            elif _relative_gap(cell["mean"], math.fsum(trials) / len(trials)) > 1e-12:
                problems.append(f"{method}.{metric}: mean {cell['mean']!r} is not the trial mean")
    chosen = rows["proposed"].get("selected_lambdas") or []
    if len(chosen) != SWEEP_TRIALS or not all(
        any(_relative_gap(v, g) < 1e-12 for g in LAMBDA_GRID) for v in chosen
    ):
        problems.append(f"proposed: selected lambdas are not {SWEEP_TRIALS} grid values")
    if reference is not None and not problems:
        summary = sweep_summary(report)
        for method, expected in reference.items():
            got = summary[method]
            if got["selected_lambdas"] != expected["selected_lambdas"]:
                problems.append(f"{method}: selected lambdas differ from the reference")
            for metric, mean in expected["means"].items():
                if _relative_gap(got["means"][metric], mean) > REL_TOL:
                    problems.append(f"{method}.{metric}: mean {got['means'][metric]!r} != reference {mean!r}")
    return problems
