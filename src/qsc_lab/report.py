"""Run configuration, verification orchestration and JSON report assembly.

A report is a plain dict rendered with sorted keys so that two runs with the
same configuration produce byte-identical output except for the timestamp,
which sits alone on its line.  ``geometry`` reads chart names and generator specs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .diff import DEFAULT_STEP, DiffConfig
from .geometry import manifold_by_name, parse_generator_spec, sample_points
from .invariants import IdentityRows, identity_suite
from .tensor import ConfigError

REPORT_VERSION = "qsc-report/1"

_ENCODER = json.JSONEncoder(sort_keys=True)  # no indent: the C encoder

# the name that the set-up probe of perfbench/run.py looks a chart up by
resolve_manifold = manifold_by_name


def _is_strings(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


# field annotation -> (the values it accepts, how one is stored if not as
# given, what the error message asks for)
_FIELD_TYPES = {
    "str": (lambda v: isinstance(v, str), None, "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), None, "a string or null"),
    "bool": (lambda v: isinstance(v, bool), None, "true or false"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), None, "an integer"),
    "float": (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), float, "a number"
    ),
    "tuple[str, ...]": (_is_strings, tuple, "a list of strings"),
}


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a ``verify`` run.  Each field is a config-file key,
    the ``dest`` of its ``verify`` flag and a key of the report's
    ``config_echo``; a value of any other type than its annotation's is a
    ``ConfigError`` naming the key."""

    manifold: str
    k: int = 2
    generators: tuple[str, ...] = ("zero", "linear_j")
    num_points: int = 5
    seed: int = 0
    scheme: str = "analytic"
    step: float = DEFAULT_STEP
    richardson: bool = False
    tolerance_core: float = 1e-6
    tolerance_audit: float = 1e-6
    audit_soft: bool = False
    report: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            accepts, stored_as, kind = _FIELD_TYPES[f.type]
            if not accepts(value):
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            if stored_as is not None:
                object.__setattr__(self, f.name, stored_as(value))
        if self.num_points < 1:
            raise ConfigError("num_points must be at least 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in 64 unsigned bits")
        for key in ("tolerance_core", "tolerance_audit"):
            tol = getattr(self, key)
            if not 0 < tol < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {tol!r}")
        if not self.generators:
            raise ConfigError("at least one generator is required")
        try:
            self.diff_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def diff_config(self) -> DiffConfig:
        return DiffConfig(self.scheme, self.step, self.richardson)


def run_verification(cfg: RunConfig) -> dict:
    """Run the identity suite for a configuration and assemble the report."""
    m = manifold_by_name(cfg.manifold, cfg.k)
    gens = [parse_generator_spec(s, m.n) for s in cfg.generators]
    points = sample_points(m, cfg.num_points, seed=cfg.seed)
    results = identity_suite(
        m,
        points,
        gens,
        cfg.diff_config(),
        tol_core=cfg.tolerance_core,
        tol_audit=cfg.tolerance_audit,
    )
    return build_report(cfg, m, points, results)


def _notes(m) -> list[str]:
    notes = [
        "kind-0 Ricci closed form: the antisymmetric block D1 enters its first "
        "correction term; the I-RIC-CF residual pins this convention"
    ]
    if m.n == 2:
        notes.append(
            "n = 2 run: below the usual dimension range; terms carrying a "
            "factor n - 2 drop out of the audit combinations, so this "
            "dimension exercises machinery only"
        )
    return notes


def build_report(cfg: RunConfig, m, points: np.ndarray, results: list[IdentityRows]) -> dict:
    """The report of a run: one row per (identity, point), in the order of
    `results` and then of the points, written from the records' arrays
    (``tolist`` gives the doubles and bools of their entries)."""
    out_results = []
    for r in results:
        details = None if r.details is None else {k: v.tolist() for k, v in r.details.items()}
        columns = r.max_residual.tolist(), r.scale.tolist(), r.relative.tolist(), r.passed.tolist()
        for point, (res, scale, rel, ok) in enumerate(zip(*columns)):
            entry = {"id": r.id, "point_index": point, "max_residual": res, "scale": scale,
                     "relative": rel, "pass": ok, "classification": r.classification}
            if details is not None:
                entry["details"] = {k: v[point] for k, v in details.items()}
            out_results.append(entry)
    return {
        "version": REPORT_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config_echo": asdict(cfg) | {"generators": list(cfg.generators)},
        "manifold": {
            "name": cfg.manifold,
            "label": m.label,
            "n": m.n,
            "k": m.n // 2,
            "kahler_expected": m.kahler_expected,
        },
        "notes": _notes(m),
        "points": [[float(c) for c in p] for p in np.atleast_2d(points)],
        "results": out_results,
        "summary": summarize(results),
    }


def summarize(results: list[IdentityRows]) -> dict:
    def block_ok(cls: str) -> bool:
        # all() of a list: a numpy reduction costs more on a job's few points
        return all(all(r.passed.tolist()) for r in results if r.classification == cls)

    return {
        "core_pass": block_ok("core"),
        "audit_pass": block_ok("audit"),
        "expected_fail_ok": block_ok("expected-fail"),
    }


def exit_code(report: dict, audit_soft: bool) -> int:
    s = report["summary"]
    ok = s["core_pass"] and (audit_soft or s["audit_pass"]) and s["expected_fail_ok"]
    return 0 if ok else 1


def render_report(report: dict) -> str:
    """Each top-level key on its own line and each result row on its own
    line, every value written by the C encoder; the layout is not part of
    the schema, but ``generated_at`` keeps a line to itself."""
    lines = []
    for key in sorted(report):
        head = f"  {_ENCODER.encode(key)}: "
        if key == "results":
            rows = ",\n".join("    " + _ENCODER.encode(row) for row in report[key])
            lines.append(f"{head}[\n{rows}\n  ]")
        else:
            lines.append(head + _ENCODER.encode(report[key]))
    return "{\n" + ",\n".join(lines) + "\n}\n"
