"""Benchmark of the deqscores command line and experiment harness.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one after another

Run from the repository root. The program is run from source as fresh child
processes (``PYTHONPATH=src``); nothing is installed. Each run

1. generates its inputs from ``--seed`` with the program's ``simulate``
   command (default ``SynthConfig``: sigma 0.5, 4 reviews per paper,
   4 papers per reviewer), untimed;
2. with ``--trace 0``, times ``SETUP_SAMPLES`` fresh interpreters importing
   what the workload's process imports, then a fixed number of ops, closed
   loop with one client: each op starts when the previous one has exited;
3. with ``--trace 1``, runs the same ops alternately untraced and traced (the
   layers wrapped by ``tracer.py``), and reports per-layer metrics and the
   tracing overhead (traced minus untraced wall time);
4. checks every op's output with ``check.py``: feasibility on every seed,
   and the reference values of ``reference.json`` only on the default seed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give every
metric by name and unit, the run header and the check results. An op fails
on a non-zero exit, an exception or a failed output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
EPSILON = 0.05
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli": one dequantize process per op; "sweep": cells in one process
    papers: int
    lam: str  # the --lambda argument of a cli op
    nominal_op_s: float  # sets the op count: seconds / nominal_op_s
    setup_module: str  # what the op's process imports before its first op
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-p60-auto", "cli", 60, "auto", 2.7, "deqscores.cli",
            "P=60 dequantize --lambda auto as a fresh process: start-up, import and "
            "per-call overhead of 40 small solves dominate",
        ),
        Workload(
            "sweep-p60", "sweep", 60, "auto", 20.0, "deqscores.experiment",
            "one 20-trial experiment cell in one process: synth, baselines, metrics and "
            "the double lambda resolution, no per-op import",
        ),
        Workload(
            "cli-p1500-fixed", "cli", 1500, "1", 11.0, "deqscores.cli",
            "P=1500 dequantize --lambda 1: one cold large solve where sparse LU fill "
            "sets time and memory, no lambda path",
        ),
    )
}


def op_count(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.nominal_op_s))


class SetupError(RuntimeError):
    """The benchmark could not set up its run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, log) -> dict:
    """Run ``cmd`` to completion; wall seconds from spawn to reaped exit,
    user+sys CPU seconds and peak RSS of the child from ``wait4``."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def import_breakdown() -> tuple[float, float]:
    """(import deqscores.cli, of which scipy.stats) in seconds, parsed from
    ``-X importtime``; the median of ``IMPORTTIME_SAMPLES`` fresh runs."""
    totals, stats = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import deqscores.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=False,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            key = name.strip() if name.strip() == "scipy.stats" else name
            cumulative.setdefault(key, int(parts[1]) / 1e6)
        if done.returncode != 0 or "deqscores.cli" not in cumulative:
            raise SetupError(f"import deqscores.cli failed: {done.stderr[-500:]}")
        totals.append(cumulative["deqscores.cli"])  # a top-level entry, so unindented
        stats.append(cumulative.get("scipy.stats", 0.0))
    return statistics.median(totals), statistics.median(stats)


def header(workload: Workload, seed: int, seconds: int, trace: int, command) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = done.stdout.strip() or sha
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "loadavg_1m": os.getloadavg()[0],
        "child_command": command,
        "loop": "closed, 1 client",
    }


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.log = work / "children.log"
        self.reference = reference
        self.problems: list[str] = []
        self.selected: list = []
        if workload.kind == "cli":
            prefix = work / "input"
            done = spawn(
                [sys.executable, "-m", "deqscores.cli", "simulate",
                 "--papers", str(workload.papers), "--sigma", "0.5",
                 "--reviews-per-paper", "4", "--papers-per-reviewer", "4",
                 "--seed", str(seed), "--output-prefix", str(prefix)],
                self.log,
            )
            if done["code"] != 0:
                raise SetupError(f"input generation failed (exit {done['code']}):\n{self.log_tail()}")
            self.reviews = work / "input_reviews.csv"
            self.rankings = work / "input_rankings.csv"

    def log_tail(self) -> str:
        return self.log.read_text(errors="replace")[-2000:]

    def cli_args(self, k: int) -> list[str]:
        return [
            "dequantize", "--reviews", str(self.reviews), "--rankings", str(self.rankings),
            "--lambda", self.workload.lam, "--epsilon", str(EPSILON),
            "--output", str(self.work / f"out_{k}.csv"), "--report", str(self.work / f"report_{k}.json"),
        ]

    def command(self, traced: bool, k: int, count: int) -> list[str]:
        """The child command of cli op ``k``, or of a sweep child running
        ``count`` cells."""
        spans = ["--spans", str(self.work / f"spans_{k}.json")] if traced else []
        if self.workload.kind == "sweep":
            return [sys.executable, str(HERE / "child.py"), "sweep", "--seed", str(self.seed),
                    "--ops", str(count), "--out", str(self.work), *spans]
        if traced:
            return [sys.executable, str(HERE / "child.py"), "cli", *spans, "--", *self.cli_args(k)]
        return [sys.executable, "-m", "deqscores.cli", *self.cli_args(k)]

    def _check(self, k: int, code: int) -> bool:
        if code != 0:
            self.problems.append(f"op {k}: exit code {code}")
            return False
        try:
            if self.workload.kind == "cli":
                problems, selected = check.check_dequantize(
                    self.reviews, self.rankings, self.work / f"out_{k}.csv",
                    self.work / f"report_{k}.json", EPSILON, self.workload.lam, self.reference,
                )
                self.selected.append(selected)
            else:
                problems = check.check_sweep(self.work / f"report_{k}.json", self.reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        self.problems.extend(f"op {k}: {p}" for p in problems)
        return not problems

    def ops(self, count: int, traced: bool) -> tuple[list[dict], list[dict]]:
        """Run ``count`` ops; returns (op records, per-layer metrics per op)."""
        records, layers = [], []
        if self.workload.kind == "cli":
            for k in range(count):
                rec = spawn(self.command(traced, k, count), self.log)
                rec["ok"] = self._check(k, rec["code"])
                records.append(rec)
                if traced and rec["code"] == 0:
                    layers.append(tracer.layer_metrics(tracer.load(self.work / f"spans_{k}.json")))
            return records, layers

        proc = spawn(self.command(traced, 0, count), self.log)
        timings = []
        if proc["code"] == 0:
            timings = json.loads((self.work / "timings.json").read_text())
        for k in range(count):
            # a child that died has no per-op timings: share its wall and CPU out
            rec = timings[k] if k < len(timings) else {
                "wall_s": proc["wall_s"] / count, "cpu_s": proc["cpu_s"] / count}
            rec.update(rss_mb=proc["rss_mb"], code=proc["code"])
            rec["ok"] = self._check(k, proc["code"])
            records.append(rec)
        if traced and proc["code"] == 0:
            spans = tracer.load(self.work / "spans_0.json")
            layers = [tracer.layer_metrics(spans, k, trials=check.SWEEP_TRIALS) for k in range(count)]
        return records, layers


def _tail(walls: list[float]) -> str:
    """The highest percentile with at least 10 samples beyond it."""
    n = len(walls)
    if n <= 10:
        return f"n/a (needs more than 10 ops; this run has {n})"
    value = sorted(walls)[n - 11]
    return f"{value!r} s (p{100.0 * (n - 10) / n:.0f} of {n} ops)"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run, count: int) -> dict:
    setup = [
        spawn([sys.executable, "-c", f"import {run.workload.setup_module}"], run.log)
        for _ in range(SETUP_SAMPLES)
    ]
    if any(s["code"] != 0 for s in setup):
        raise SetupError(f"import {run.workload.setup_module} failed:\n{run.log_tail()}")
    records, _ = run.ops(count, traced=False)
    walls = [r["wall_s"] for r in records]
    failed = sum(not r["ok"] for r in records)
    print(f"op_tail_s      {_tail(walls)}")
    print(f"fail_ratio     {failed / len(records)!r} ({failed} failed / {len(records)} attempted)")
    metrics = {
        "setup_s": _metric(statistics.median(s["wall_s"] for s in setup), "s"),
        "wall_s": _metric(sum(walls), "s"),
        "op_p50_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(statistics.median(r["cpu_s"] for r in records), "s"),
        "peak_rss_mb": _metric(max(r["rss_mb"] for r in records), "MB"),
    }
    return {"attempted": len(records), "failed": failed, "metrics": metrics}


def per_layer(run: Run, count: int) -> dict:
    # at least two traced ops, so counts can be compared; untraced and traced
    # ops alternate, so a drift in machine speed cancels out of the overhead
    count = max(2, count)
    plain, traced, layers = [], [], []
    for _ in range(count):
        plain += run.ops(1, traced=False)[0]
        records, op_layers = run.ops(1, traced=True)
        traced += records
        layers += op_layers
    records = plain + traced
    failed = sum(not r["ok"] for r in records)
    if len(layers) != count:
        raise SetupError(f"a traced op failed before writing its spans:\n{run.log_tail()}")
    root = "cli.main_s" if run.workload.kind == "cli" else "experiment.trial_self_s"
    if not all(layer[root] > 0 for layer in layers):
        raise SetupError(f"the traced ops recorded no {root.rsplit('_', 1)[0]} span")
    for name in tracer.COUNTS:
        values = {layer[name] for layer in layers}
        if len(values) != 1:
            run.problems.append(f"count {name} differs between traced ops: {sorted(values)}")
    import_s, stats_s = import_breakdown()
    metrics = {
        "cli.import_s": _metric(import_s, "s"),
        "cli.import_scipy_stats_s": _metric(stats_s, "s"),
    }
    for name in layers[0]:
        unit = "count" if name in tracer.COUNTS else "ratio" if name.endswith("_ratio") else "s"
        value = statistics.median(layer[name] for layer in layers)
        metrics[name] = _metric(value if unit != "count" else int(value), unit)
    overhead = sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return {"attempted": len(records), "failed": failed, "metrics": metrics}


def run_workload(workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK))
    try:
        reference = None
        if seed == DEFAULT_SEED:
            with open(HERE / "reference.json", encoding="utf-8") as handle:
                reference = json.load(handle)[workload.name]
        run = Run(workload, seed, work, reference)
        count = op_count(workload, seconds)
        info = header(workload, seed, seconds, trace, run.command(bool(trace), 0, count))
        print(f"# header {json.dumps(info)}")
        print(f"# {workload.name}: {workload.why}")
        ops = f"{max(2, count)} untraced/traced op pairs" if trace else f"{count} ops"
        print(f"# {ops}; checks: "
              + ("feasibility and reference values (default seed)" if run.reference
                 else f"feasibility only (reference values exist for seed {DEFAULT_SEED} only)"))
        result = per_layer(run, count) if trace else end_to_end(run, count)
        for name, metric in result["metrics"].items():
            print(f"{name:<30} {metric['value']!r} {metric['unit']}")
        if run.workload.kind == "cli" and workload.lam == "auto":
            print(f"# selected lambda per op: {run.selected}")
        for problem in run.problems:
            print(f"# FAILED {problem}")
        result["correct"] = not run.problems
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "deqscores" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        except (SetupError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
