"""Verdict gate: the benchmark's verify jobs keep their exit codes, summaries
and per-row pass flags.

``golden/verdicts.json`` holds, for one rotation of each benchmark workload
at seed 1, the argv of every job with its exit code, its ``summary`` block
and the pass flag of every report row.  Every job exits 0, the flat fd4 job
included since finite differences centre their stencil sums; a change that
moves a verdict updates the file and says so.  Regenerate it with

    PYTHONPATH=src python tests/test_verdicts.py

A refactor that promises byte-identical reports checks it with

    PYTHONPATH=src python tests/test_verdicts.py --digest --rotations 3

which prints one line per benchmark job (rotations 0..N-1 at seed 1), then
one per job of ``multi_point_jobs``: its name, exit code and the digest of
its parsed report without ``generated_at``, the canonical one of
``perfbench/jobs.report_digest``, so the comparison holds across a change of
the report's layout.  The report goes to one fixed path, since
``config_echo`` records it; run the same command on the two trees and
``diff`` the outputs.  Run as a script, the file sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy is imported, as ``perfbench/run.py`` does: the fd4 reports
differ in their last digits between BLAS thread counts, so two trees compare
only at one count.  With ``--peak`` each line ends with the job's
tracemalloc peak in MiB (the report's rendering included), so a change to
the working set diffs across two trees the same way:

    PYTHONPATH=src python tests/test_verdicts.py --digest --peak
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

if __name__ == "__main__":  # one BLAS/OpenMP thread, set before numpy is imported
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from qsc_lab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "verdicts.json"
ROOT = Path(__file__).resolve().parent.parent
DIGEST_REPORT = Path(tempfile.gettempdir()) / "qsc-lab-digest-report.json"


def verdict(argv: list[str], report: Path) -> dict:
    code = main([*argv, "--report", str(report)])
    data = json.loads(report.read_text())
    return {
        "exit_code": code,
        "summary": data["summary"],
        "rows": [[r["id"], r["point_index"], r["pass"]] for r in data["results"]],
    }


def test_verdicts_match_golden(tmp_path, capsys):
    jobs = json.loads(GOLDEN.read_text())["jobs"]
    assert len(jobs) == 8
    for job in jobs:
        got = verdict(job["argv"], tmp_path / "report.json")
        capsys.readouterr()
        for key in ("exit_code", "summary", "rows"):
            assert got[key] == job[key], (job["name"], key)


def _perfbench(module: str):
    """One of the benchmark's own modules (its workloads, its digest)."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(module)


def benchmark_jobs(rotations: int = 1):
    """(name, argv without --report) of the benchmark's verify jobs at seed 1."""
    workloads = _perfbench("workloads")

    for name, w in workloads.WORKLOADS.items():
        for number in range(rotations):
            for j in workloads.rotation(w, 1, number, "unused"):
                yield f"{name}-{j.index}-{j.chart}", list(j.argv[: j.argv.index("--report")])


SCHEME_FLAGS = {
    "analytic": [],
    "fd2": ["--diff", "fd2"],
    "fd4": ["--diff", "fd4"],
    "fd2r": ["--diff", "fd2", "--richardson"],
    "fd4r": ["--diff", "fd4", "--richardson"],
}


def multi_point_jobs():
    """(name, argv without --report) of the multi-point jobs the benchmark
    does not run: every k=2 chart under every scheme, fs at k=8, hyperbolic
    at k=4 with fd4, and fs at k=2 and k=1 with a generator list without
    `zero`."""
    common = ["--generators", "zero,linear_j,grad,random_poly:3", "--seed", "7"]
    for chart in ("flat", "fs", "hyperbolic", "conformal-nonkahler"):
        for scheme, flags in SCHEME_FLAGS.items():
            argv = ["verify", "--manifold", chart, "--k", "2", "--points", "3", *flags]
            yield f"multi-{chart}-k2-{scheme}", argv + common
    yield "multi-fs-k8", ["verify", "--manifold", "fs", "--k", "8", "--points", "5", *common]
    yield "multi-hyperbolic-k4-fd4", [
        "verify", "--manifold", "hyperbolic", "--k", "4", "--points", "4", "--diff", "fd4",
        *common,
    ]
    for k in ("2", "1"):  # k=1 reads the n = 2 forms of the part-2 conditions
        yield f"multi-fs-k{k}-no-zero", [
            "verify", "--manifold", "fs", "--k", k, "--points", "3",
            "--generators", "linear_j,grad,random_poly:1,random_poly:2", "--seed", "7",
        ]


def digest(argv: list[str], report: Path = DIGEST_REPORT) -> tuple[int, str]:
    """Exit code and canonical digest of the report of one job, without
    `generated_at`."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--report", str(report)])
    return code, _perfbench("jobs").report_digest(json.loads(report.read_text()))


def _regenerate(out: Path, tmp: Path) -> None:
    jobs = [
        {"name": name, "argv": argv} | verdict(argv, tmp / "report.json")
        for name, argv in benchmark_jobs()
    ]
    out.parent.mkdir(exist_ok=True)
    out.write_text(_render(jobs))


def _render(jobs: list[dict]) -> str:
    """One report row per line, so a changed verdict is a one-line diff."""
    text = []
    for job in jobs:
        head = json.dumps({k: v for k, v in job.items() if k != "rows"})[:-1]
        rows = ",\n  ".join(json.dumps(row) for row in job["rows"])
        text.append(f'{head}, "rows": [\n  {rows}\n]}}')
    return '{"seed": 1, "jobs": [\n' + ",\n".join(text) + "\n]}\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="regenerate the golden verdicts")
    parser.add_argument("--digest", action="store_true", help="print report digests instead")
    parser.add_argument("--rotations", type=int, default=1, help="rotations per workload")
    parser.add_argument(
        "--peak", action="store_true", help="with --digest, each job's tracemalloc peak too"
    )
    args = parser.parse_args()
    if args.peak and not args.digest:
        parser.error("--peak needs --digest")
    if args.digest:
        for name, argv in [*benchmark_jobs(args.rotations), *multi_point_jobs()]:
            if args.peak:
                tracemalloc.start()
            code, sha = digest(argv)
            peak = []
            if args.peak:
                peak = [f"{tracemalloc.get_traced_memory()[1] / 2**20:.2f}"]
                tracemalloc.stop()
            print(name, code, sha, *peak)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            _regenerate(GOLDEN, Path(tmp))
