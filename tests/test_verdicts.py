"""Verdict gate: the benchmark's verify jobs keep their exit codes, summaries
and per-row pass flags.

``golden/verdicts.json`` holds, for one rotation of each benchmark workload
at seed 1, the argv of every job with its exit code, its ``summary`` block
and the pass flag of every report row.  Every job exits 0, the flat fd4 job
included since finite differences centre their stencil sums; a change that
moves a verdict updates the file and says so.  Regenerate it with

    PYTHONPATH=src python tests/test_verdicts.py
"""

import json
import sys
from pathlib import Path

from qsc_lab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "verdicts.json"
ROOT = Path(__file__).resolve().parent.parent


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


def _regenerate(out: Path, tmp: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    jobs = []
    for name, w in workloads.WORKLOADS.items():
        for j in workloads.rotation(w, 1, 0, "unused"):
            argv = list(j.argv[: j.argv.index("--report")])
            jobs.append({"name": f"{name}-{j.index}-{j.chart}", "argv": argv}
                        | verdict(argv, tmp / "report.json"))
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
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(GOLDEN, Path(tmp))
