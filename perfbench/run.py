"""qsc-lab benchmark: `verify` jobs driven in-process through `qsc_lab.cli.main`.

    python3 perfbench/run.py --workload jets-k8 --seed 1 --seconds 30 --trace 0

Run from the repository root.  `--trace 0` reports the end-to-end metrics
with tracing off; `--trace 1` reports per-layer metrics from spans around the
calls into each qsc_lab module, the tracing overhead, and the n-scaling probe.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  A JSON record of the run,
with every job's verdict and report digest, goes to `perfbench/out/`.
End-to-end times are in reference seconds: each is scaled by a fixed slice
of the benchmark's own work timed next to it (`reference.py`), so drift in
the shared host's speed cancels out.

The runtime is pinned here, before numpy is imported: one BLAS/OpenMP
thread, and every job runs in this one process.  Set-up is timed in fresh
child processes, one after another.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "qsc_lab" / "report_schema.json"
OUT = HERE / "out"
REPORT = HERE / "work" / "report.json"

SETUP_REPS = 11
TAIL_BEYOND = 10
SCALING_KS = (2, 4, 8)
SCALING_REPS = 3
SCALING_LAYERS = ("diff", "curvature", "invariants")

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MiB",
    "pass_frac": "ratio",
}

# eval_jets never runs on fd-k4, so its self time there would be a constant
# zero; the diff layer's self time carries it on the analytic workloads.
NO_SELF_TIME = ("diff.eval_jets",)


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in tracer.SPANS:
        units[f"{span}.calls_per_point"] = "count"
        if span not in NO_SELF_TIME:
            units[f"{span}.self_ms_per_point"] = "ms"
    for name in tracer.COUNTERS:
        units[f"{name}.calls_per_point"] = "count"
    for layer in tracer.LAYERS:
        units[f"{layer}.self_ms_per_point"] = "ms"
    units["report.bytes_per_point"] = "bytes"
    units["trace_overhead_frac"] = "ratio"
    for layer in SCALING_LAYERS:
        units[f"scaling.{layer}.n_exponent"] = "exponent"
    return units


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND jobs beyond it; the maximum when there are too few jobs."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def power_fit(xs: list[float], ys: list[float]) -> float:
    """Least-squares p in y = c * x**p."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
    }


def build_workload(w: workloads.Workload) -> None:
    """What a user pays before the first job: import the CLI, build the
    workload's manifolds and generators, and its argv list."""
    cli = importlib.import_module("qsc_lab.cli")
    report = importlib.import_module("qsc_lab.report")
    for chart in w.charts:
        m = report.resolve_manifold(chart, w.k)
        for spec in cli.split_generator_list(w.generators):
            report.parse_generator_spec(spec, m.n)
    workloads.rotation(w, 0, 0, str(REPORT))


def setup_probe(w: workloads.Workload) -> int:
    start = time.perf_counter()
    build_workload(w)
    print(time.perf_counter() - start)
    return 0


def setup_seconds(w: workloads.Workload, ref) -> list[tuple[float, float]]:
    """(raw, reference) seconds of set-up in SETUP_REPS fresh processes, one
    after another, each between two reference timings."""
    samples = []
    before = ref.seconds()
    for _ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", w.name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
        raw = float(child.stdout.strip().splitlines()[-1])
        after = ref.seconds()
        samples.append((raw, raw * ref.scale(before, after)))
        before = after
    return samples


class Runner:
    def __init__(self, w: workloads.Workload, seed: int):
        self.w, self.seed = w, seed
        self.cli = importlib.import_module("qsc_lab.cli")
        self.validate = jobs.schema_validator(SCHEMA)
        REPORT.parent.mkdir(parents=True, exist_ok=True)
        self.report_arg = os.path.relpath(REPORT)
        self.records: list[dict] = []

    def run(self, job: workloads.Job, trace: tracer.Tracer | None = None, phase: str = "timed"):
        undo = None
        if trace is not None:
            trace.job = f"{phase}-{job.index}"
            undo = tracer.install(trace)
        try:
            wall, verdict = jobs.run_job(self.cli.main, job.argv, REPORT, self.validate)
        finally:
            if undo is not None:
                undo()
        self.records.append(
            {
                "phase": phase,
                "index": job.index,
                "chart": job.chart,
                "argv": " ".join(job.argv),
                "traced": trace is not None,
                "wall_s": wall,
                **dataclasses.asdict(verdict),
                "failed": verdict.failed,
                "correct": verdict.correct,
            }
        )
        return wall, verdict

    def rotations(self, seconds: float):
        """Whole rotations of the job list until `seconds` have passed."""
        start = time.perf_counter()
        number = 0
        while number == 0 or time.perf_counter() - start < seconds:
            yield workloads.rotation(self.w, self.seed, number, self.report_arg)
            number += 1

    def warm_up(self) -> None:
        self.run(workloads.job(self.w, self.seed, 0, self.report_arg), phase="warm-up")

    def correct(self) -> bool:
        """Every report valid and in agreement with its exit code, and every
        run of the same argv gave the same report digest."""
        by_argv: dict[str, set] = {}
        for r in self.records:
            by_argv.setdefault(r["argv"], set()).add(r["digest"])
        return all(r["correct"] for r in self.records) and all(
            len(d) == 1 for d in by_argv.values()
        )


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics, tracing off, in reference seconds (reference.py).

    `job_p50_s` is the median over rotations of a rotation's mean job time:
    half the `suite-k2` jobs run cheap charts, so the plain median of its job
    times falls in the gap between the cheap and the dear ones.

    `reference` is imported here, not at the top: numpy must stay out of the
    set-up probes until qsc_lab imports it."""
    import reference

    reference.work()
    setup = setup_seconds(runner.w, reference)
    runner.warm_up()
    walls, raw_walls, rotation_means, points, failed = [], [], [], 0, 0
    before = reference.seconds()
    start = time.perf_counter()
    for rot in runner.rotations(seconds):
        for job in rot:
            wall, verdict = runner.run(job)
            after = reference.seconds()
            walls.append(wall * reference.scale(before, after))
            raw_walls.append(wall)
            runner.records[-1]["wall_ref_s"] = walls[-1]
            before = after
            points += job.points
            failed += verdict.failed
        rotation_means.append(statistics.fmean(walls[-len(rot):]))
    elapsed = time.perf_counter() - start
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(ref_s for _, ref_s in setup),
        "points_per_s": points / sum(walls),
        "job_p50_s": statistics.median(rotation_means),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": (len(walls) - failed) / len(walls),
    }
    detail = {
        "jobs": len(walls),
        "job_tail_percentile": tail_pct,
        "fail_frac": failed / len(walls),
        "raw_points_per_s": points / sum(raw_walls),
        "raw_job_p50_s": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(raw for raw, _ in setup),
        "reference_share": 1.0 - sum(raw_walls) / elapsed,
        "setup_samples_s": setup,
    }
    return {
        "correct": runner.correct(),
        "attempted": len(walls),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def scaling_probe(runner: Runner) -> dict[str, float]:
    """Fitted p in (layer self time per point) ~ n**p over fs analytic k = 2, 4, 8."""
    per_n: dict[str, list[float]] = {layer: [] for layer in SCALING_LAYERS}
    ns = []
    for k in SCALING_KS:
        w = workloads.Workload("scaling", ("fs",), k, workloads.THREE_GENERATORS, 1)
        samples = {layer: [] for layer in SCALING_LAYERS}
        for rep in range(SCALING_REPS):
            trace = tracer.Tracer()
            runner.run(workloads.job(w, runner.seed, rep, runner.report_arg), trace, f"scaling-k{k}")
            layers = tracer.layer_self_seconds(tracer.aggregate(trace))
            for layer in SCALING_LAYERS:
                samples[layer].append(layers[layer] / w.points)
        ns.append(2 * k)
        for layer in SCALING_LAYERS:
            per_n[layer].append(statistics.median(samples[layer]))
    return {f"scaling.{layer}.n_exponent": power_fit(ns, per_n[layer]) for layer in SCALING_LAYERS}


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics: each job runs untraced and traced, in alternating order."""
    runner.warm_up()
    scaling = scaling_probe(runner)
    trace = tracer.Tracer()
    plain_s = traced_s = 0.0
    points = report_bytes = failed = attempted = 0
    for rot in runner.rotations(seconds):
        for job in rot:
            order = (True, False) if job.index % 2 else (False, True)
            for traced in order:
                wall, verdict = runner.run(job, trace if traced else None)
                attempted += 1
                failed += verdict.failed
                if traced:
                    traced_s += wall
                    points += job.points
                    report_bytes += verdict.report_bytes
                else:
                    plain_s += wall
    trace.write(OUT / f"spans-{runner.w.name}-seed{runner.seed}.tsv.gz")
    agg = tracer.aggregate(trace)
    metrics = {}
    for name, (calls, own) in agg.items():
        metrics[f"{name}.calls_per_point"] = calls / points
        if name in tracer.SPANS and name not in NO_SELF_TIME:
            metrics[f"{name}.self_ms_per_point"] = 1e3 * own / points
    for layer, own in tracer.layer_self_seconds(agg).items():
        metrics[f"{layer}.self_ms_per_point"] = 1e3 * own / points
    metrics["report.bytes_per_point"] = report_bytes / points
    metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0
    metrics.update(scaling)
    return {
        "correct": runner.correct(),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {"traced_points": points, "spans": len(trace.spans)},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsc_lab" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no qsc_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(w)
    qsc_lab = importlib.import_module("qsc_lab")
    if Path(qsc_lab.__file__).resolve().parent != (SRC / "qsc_lab").resolve():
        print(f"error: qsc_lab imported from {qsc_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner = Runner(w, args.seed)
    if args.trace:
        result = measure_traced(runner, args.seconds)
        units = per_layer_units()
    else:
        result = measure(runner, args.seconds)
        units = END_TO_END_UNITS
    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        **result,
        "jobs": runner.records,
    }
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"# {w.name} seed={args.seed} trace={args.trace} {json.dumps(env)}")
    print(f"# {json.dumps(result['detail'])}")
    for name, value in result["metrics"].items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
