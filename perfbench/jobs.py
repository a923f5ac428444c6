"""Run one `verify` job in-process and judge what it left behind.

A job fails if `cli.main` raises, exits non-zero, or writes a report that
does not validate against the package's report schema.  Every job gets a
digest of its report with `generated_at` removed, so two runs of the same
job list (traced and untraced, or before and after a refactor) can be
compared report by report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Verdict:
    exit_code: int | None  # None when main raised
    error: str | None  # exception type and message when main raised
    schema_ok: bool
    consistent: bool  # exit code agrees with the report's summary block
    digest: str | None
    report_bytes: int

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or not self.schema_ok

    @property
    def correct(self) -> bool:
        """The job produced a valid report that agrees with its exit code.

        An exit 1 with such a report is a failed job but a correct output: the
        program ran and reported its own verdict.
        """
        return self.error is None and self.schema_ok and self.consistent


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "generated_at"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def expected_exit(report: dict) -> int:
    """The exit code `verify` owes a report run without --audit-soft."""
    s = report["summary"]
    return 0 if s["core_pass"] and s["audit_pass"] and s["expected_fail_ok"] else 1


def classify(
    exit_code: int | None, error: str | None, report_text: str | None, validate: Callable
) -> Verdict:
    """Verdict of a finished job.

    `validate(obj)` returns True when `obj` matches the report schema.
    """
    if report_text is None:
        return Verdict(exit_code, error, False, False, None, 0)
    nbytes = len(report_text.encode())
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError:
        return Verdict(exit_code, error, False, False, None, nbytes)
    if not validate(report):
        return Verdict(exit_code, error, False, False, None, nbytes)
    consistent = exit_code == expected_exit(report)
    return Verdict(exit_code, error, True, consistent, report_digest(report), nbytes)


def schema_validator(schema_path: Path) -> Callable[[dict], bool]:
    import jsonschema.validators

    schema = json.loads(schema_path.read_text())
    validator = jsonschema.validators.validator_for(schema)(schema)
    return validator.is_valid


def run_job(
    main: Callable, argv: tuple[str, ...], report: Path, validate: Callable
) -> tuple[float, Verdict]:
    """(wall seconds of `main(argv)`, verdict); stdout and stderr are captured."""
    report.unlink(missing_ok=True)
    sink = io.StringIO()
    exit_code: int | None = None
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            exit_code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad argv this way
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raising job is a failed job, not a dead benchmark
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    text = report.read_text() if report.is_file() else None
    return wall, classify(exit_code, error, text, validate)
