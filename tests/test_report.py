"""Run configuration, generator spec parsing, and report assembly."""

import json

import numpy as np
import pytest

from qsc_lab.geometry import manifold_by_name, parse_generator_spec, sample_points
from qsc_lab.report import (
    REPORT_VERSION,
    ConfigError,
    RunConfig,
    build_report,
    exit_code,
    render_report,
    resolve_manifold,
    run_verification,
    summarize,
)
from qsc_lab.invariants import IdentityRows


def test_config_defaults_and_diff_config():
    cfg = RunConfig(manifold="flat")
    assert cfg.k == 2
    assert cfg.generators == ("zero", "linear_j")
    d = cfg.diff_config()
    assert d.scheme == "analytic"
    assert d.step == 1e-4


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        ({"num_points": 0}, "num_points"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"tolerance_core": 0.0}, "positive"),
        ({"tolerance_audit": -1e-6}, "positive"),
        ({"scheme": "fd9"}, "scheme"),
        ({"generators": ()}, "generator"),
    ],
)
def test_config_validation(kwargs, msg):
    with pytest.raises(ConfigError, match=msg):
        RunConfig(manifold="flat", **kwargs)


def test_config_stores_numbers_as_floats_and_generators_as_a_tuple():
    cfg = RunConfig(manifold="flat", generators=["zero"], tolerance_core=1, step=1e-4)
    assert cfg.generators == ("zero",)
    assert type(cfg.tolerance_core) is float and cfg.tolerance_core == 1.0


@pytest.mark.parametrize(
    "key,value",
    [("k", True), ("seed", 1.0), ("tolerance_audit", False), ("report", 3),
     ("manifold", None), ("generators", ["zero", 1])],
)
def test_config_rejects_other_types_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        RunConfig(**{"manifold": "flat", key: value})


def test_generator_spec_round_trips():
    g = parse_generator_spec("const:1,0,0.5,0", dim=4)
    assert g.label == "const"
    assert list(g.value([0.0, 0.0, 0.0, 0.0])) == [1.0, 0.0, 0.5, 0.0]
    r = parse_generator_spec("random_poly:7", dim=4)
    assert r.label == "random_poly:7"
    assert parse_generator_spec("zero", dim=4).label == "zero"


@pytest.mark.parametrize(
    "spec,msg",
    [
        ("swirl", "unknown generator"),
        ("const", "needs components"),
        ("const:a,b,c,d", "bad const components"),
        ("const:1,0", "4 components"),
        ("const:nan,0,0,0", r"bad const components 'nan,0,0,0': expected finite"),
        ("const:1e400,0,0,0", r"bad const components '1e400,0,0,0': expected finite"),
        ("const:0,-inf,0,0", "expected finite"),
        ("random_poly:xyz", "bad random_poly seed"),
        ("random_poly:-1", "bad random_poly seed"),
        ("zero:3", "takes no argument"),
    ],
)
def test_generator_spec_errors(spec, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_generator_spec(spec, dim=4)


def test_resolve_manifold_errors():
    """report.resolve_manifold, the name the benchmark's set-up probe calls,
    raises manifold_by_name's ConfigErrors."""
    with pytest.raises(ConfigError, match="unknown manifold"):
        resolve_manifold("torus", k=2)
    with pytest.raises(ConfigError):
        resolve_manifold("fs", k=9999)
    assert resolve_manifold("hyperbolic", k=3).n == 6


def _tiny_report(**overrides):
    cfg = RunConfig(
        manifold="flat", num_points=1, generators=("zero", "linear_j"), **overrides
    )
    return run_verification(cfg)


def test_report_structure():
    rep = _tiny_report()
    assert rep["version"] == REPORT_VERSION
    assert set(rep) == {
        "version", "generated_at", "config_echo", "manifold",
        "notes", "points", "results", "summary",
    }
    assert rep["manifold"]["n"] == 4
    assert rep["manifold"]["kahler_expected"] is True
    assert rep["config_echo"]["generators"] == ["zero", "linear_j"]
    assert len(rep["points"]) == 1 and len(rep["points"][0]) == 4
    assert rep["summary"] == {
        "core_pass": True, "audit_pass": True, "expected_fail_ok": True,
    }
    for row in rep["results"]:
        assert set(row) >= {
            "id", "point_index", "max_residual", "scale",
            "relative", "pass", "classification",
        }


def test_notes_flag_convention_and_low_dimension():
    rep = _tiny_report()
    assert any("kind-0 Ricci closed form" in n for n in rep["notes"])
    assert not any("n = 2" in n for n in rep["notes"])
    low = run_verification(
        RunConfig(manifold="fs", k=1, num_points=1, generators=("zero",))
    )
    assert any("n = 2" in n for n in low["notes"])


def _result(cls: str, *passed: bool) -> IdentityRows:
    """One identity's rows, with the verdict `passed[i]` at point i."""
    count = len(passed)
    return IdentityRows(
        id="I-X", classification=cls, max_residual=np.zeros(count), scale=np.ones(count),
        relative=np.zeros(count), passed=np.array(passed),
    )


def test_summary_and_exit_code_matrix():
    ok = {"summary": summarize([_result("core", True), _result("audit", True)])}
    assert exit_code(ok, audit_soft=False) == 0
    core_bad = {"summary": summarize([_result("core", False)])}
    assert exit_code(core_bad, audit_soft=True) == 1
    audit_bad = {
        "summary": summarize([_result("core", True), _result("audit", False)])
    }
    assert exit_code(audit_bad, audit_soft=False) == 1
    assert exit_code(audit_bad, audit_soft=True) == 0
    ef_bad = {
        "summary": summarize([_result("core", True), _result("expected-fail", False)])
    }
    assert exit_code(ef_bad, audit_soft=True) == 1
    # a record whose second point fails: every entry is read, not the first
    for cls, key in (("core", "core_pass"), ("audit", "audit_pass"),
                     ("expected-fail", "expected_fail_ok")):
        assert summarize([_result(cls, True, True)])[key] is True
        assert summarize([_result(cls, True, False)])[key] is False


def test_report_rows_are_written_from_the_arrays():
    """One row per (identity, point), in (id, point_index) order, each float
    bit-equal to its array entry, each verdict a bool, the details under
    their own keys and no details key where a record has none."""
    rng = np.random.default_rng(5)
    cfg = RunConfig(manifold="flat", num_points=3)
    m = manifold_by_name("flat", 2)

    def record(ident, cls, details=None):
        stats = np.abs(rng.standard_normal((3, 3))) * 10.0 ** rng.integers(-300, 300, (3, 3))
        return IdentityRows(ident, cls, *stats, rng.random(3) < 0.5, details)

    results = [
        record("I-A", "core"),
        record("I-B", "audit", {"x": rng.random(3) / 3, "y": np.array([-0.0, 2.0, 1 + 2**-52])}),
    ]
    rows = build_report(cfg, m, sample_points(m, 3, seed=0), results)["results"]
    assert len(rows) == sum(len(r.passed) for r in results)
    assert [(row["id"], row["point_index"]) for row in rows] == [
        (r.id, p) for r in results for p in range(len(r.passed))
    ]

    def same_bits(value, array, p):
        return type(value) is float and np.float64(value).tobytes() == array[p].tobytes()

    for row in rows:
        r, p = {r.id: r for r in results}[row["id"]], row["point_index"]
        assert row["classification"] == r.classification
        assert row["pass"] is bool(r.passed[p])
        for key in ("max_residual", "scale", "relative"):
            assert same_bits(row[key], getattr(r, key), p), (row["id"], p, key)
        if r.details is None:
            assert "details" not in row
        else:
            assert row["details"].keys() == r.details.keys()
            assert all(same_bits(v, r.details[k], p) for k, v in row["details"].items())


def test_render_is_deterministic_and_sorted():
    rep = _tiny_report()
    text = render_report(rep)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == rep
    assert list(parsed) == sorted(parsed)
    rep2 = _tiny_report()
    a = json.loads(render_report(rep))
    b = json.loads(render_report(rep2))
    a.pop("generated_at"), b.pop("generated_at")
    assert a == b


def test_render_writes_one_line_per_key_and_per_result_row():
    """The layout the report keeps inside its one schema: every top-level key
    and every result row on a line of its own, `generated_at` alone on its."""
    rep = run_verification(RunConfig(manifold="fs", num_points=2))
    text = render_report(rep)
    assert json.loads(text) == json.loads(json.dumps(rep, sort_keys=True, indent=2))
    lines = text.splitlines()
    start = lines.index('  "results": [')
    rows = lines[start + 1 : start + 1 + len(rep["results"])]
    assert [json.loads(line.rstrip(",")) for line in rows] == rep["results"]
    assert lines[start + 1 + len(rep["results"])].rstrip(",") == "  ]"
    keyed = [line for line in lines if line.startswith('  "')]
    assert [line.split('"')[1] for line in keyed] == sorted(rep)
    for line, key in zip(keyed, sorted(rep)):
        if key != "results":
            value = json.loads("{" + line.rstrip(",") + "}")
            assert value == {key: rep[key]}
    stamp = [line for line in lines if "generated_at" in line]
    assert stamp == [f'  "generated_at": "{rep["generated_at"]}",']


def test_expected_fail_entries_reported_for_non_kahler():
    rep = run_verification(
        RunConfig(manifold="conformal-nonkahler", num_points=1,
                  generators=("linear_j",))
    )
    classes = {row["classification"] for row in rep["results"]}
    assert "expected-fail" in classes
    assert rep["summary"]["expected_fail_ok"] is True
    assert rep["manifold"]["kahler_expected"] is False
    assert exit_code(rep, audit_soft=False) == 0
