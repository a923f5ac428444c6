"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import sys

import pytest

import jobs
import reference
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

cli = importlib.import_module("qsc_lab.cli")


@pytest.fixture(scope="module")
def validate():
    return jobs.schema_validator(run.SCHEMA)


def test_self_time_subtracts_nested_child_spans():
    spans = [
        ("parent", "j", 0.0, 10.0, -1),
        ("child", "j", 1.0, 4.0, 0),
        ("grandchild", "j", 2.0, 3.0, 1),
        ("child", "j", 5.0, 6.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        ("parent", "j", 0.0, 10.0, -1),
        ("a", "j", 1.0, 5.0, 0),
        ("b", "j", 3.0, 7.0, 0),
        ("c", "j", 9.0, 12.0, 0),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_job_list_depends_only_on_seed():
    w = workloads.WORKLOADS["fd-k4"]
    first = [j for r in range(3) for j in workloads.rotation(w, 7, r, "r.json")]
    again = [j for r in range(3) for j in workloads.rotation(w, 7, r, "r.json")]
    other = [j for r in range(3) for j in workloads.rotation(w, 8, r, "r.json")]
    assert first == again
    assert [j.seed for j in first] != [j.seed for j in other]
    assert [j.chart for j in first] == ["flat", "fs", "hyperbolic"] * 3
    for j in first:
        assert j.argv[j.argv.index("--seed") + 1] == str(j.seed)
        assert 0 <= j.seed < 2**64


def test_tail_is_highest_percentile_with_ten_jobs_beyond():
    value, pct = run.tail([float(v) for v in range(30, 0, -1)])
    assert value == 20.0
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_power_fit_recovers_exponent():
    xs = [4.0, 8.0, 16.0]
    assert run.power_fit(xs, [3 * x**2.5 for x in xs]) == pytest.approx(2.5)


def test_reference_scale_turns_slow_host_time_into_reference_seconds():
    slow = 2 * reference.NOMINAL_S
    assert 3.0 * reference.scale(slow, slow) == pytest.approx(1.5)
    assert reference.scale(reference.NOMINAL_S, slow) == pytest.approx(2 / 3)
    assert reference.work() == reference.work()


def _verify(tmp_path, *flags):
    report = tmp_path / "report.json"
    argv = ("verify", "--manifold", "flat", "--k", "2", "--generators", "zero",
            "--points", "1", "--seed", "3", *flags, "--report", str(report))
    return argv, report


def test_classifier_passes_a_clean_job(tmp_path, validate):
    argv, report = _verify(tmp_path)
    _, v = jobs.run_job(cli.main, argv, report, validate)
    assert v.exit_code == 0 and v.schema_ok and v.consistent
    assert not v.failed and v.correct


def test_classifier_fails_an_exit_1_job_with_a_valid_report(tmp_path, validate):
    # flat + fd4 exits 1 today: fd4 rounding noise against a zero curvature
    argv, report = _verify(tmp_path, "--diff", "fd4")
    _, v = jobs.run_job(cli.main, argv, report, validate)
    assert v.exit_code == 1
    assert v.failed and v.correct


def test_classifier_fails_a_raising_job(tmp_path, validate):
    def main(argv):
        raise RuntimeError("boom")

    _, v = jobs.run_job(main, ("verify",), tmp_path / "none.json", validate)
    assert v.error == "RuntimeError: boom"
    assert v.failed and not v.correct


def test_classifier_fails_an_invalid_report(tmp_path, validate):
    argv, report = _verify(tmp_path)
    jobs.run_job(cli.main, argv, report, validate)
    broken = json.loads(report.read_text())
    del broken["summary"]
    v = jobs.classify(0, None, json.dumps(broken), validate)
    assert not v.schema_ok
    assert v.failed and not v.correct


def test_digest_ignores_only_the_timestamp():
    a = {"generated_at": "t0", "results": [1]}
    assert jobs.report_digest(a) == jobs.report_digest({**a, "generated_at": "t1"})
    assert jobs.report_digest(a) != jobs.report_digest({**a, "results": [2]})


def test_install_wraps_every_binding_and_undo_restores_them():
    import qsc_lab
    from qsc_lab import connections, curvature

    original = connections.levi_civita
    undo = tracer.install(tracer.Tracer())
    try:
        for mod in (qsc_lab, connections, curvature):
            assert mod.levi_civita is not original
            assert mod.levi_civita.__wrapped__ is original
    finally:
        undo()
    assert qsc_lab.levi_civita is curvature.levi_civita is original


def test_traced_counts_reproduce_the_per_point_jet_counts(tmp_path, validate):
    report = tmp_path / "report.json"
    argv = ("verify", "--manifold", "fs", "--k", "2", "--generators",
            workloads.THREE_GENERATORS, "--points", "2", "--seed", "5", "--report", str(report))
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        _, v = jobs.run_job(cli.main, argv, report, validate)
    finally:
        undo()
    assert not v.failed
    agg = tracer.aggregate(t)
    per_point = {name: calls / 2 for name, (calls, _) in agg.items()}
    assert per_point["geometry.jets.g"] == 25
    assert per_point["geometry.jets.pi"] == 4 * 3
    assert per_point["cli.main"] == 0.5
    _, plain = jobs.run_job(cli.main, argv, report, validate)
    assert plain.digest == v.digest


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
