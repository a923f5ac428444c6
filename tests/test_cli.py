"""Command line behavior: exit codes, printed tensors, catalogs, reports."""

import json
import warnings

import pytest

from qsc_lab.cli import main, split_generator_list

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_flat_passes(capsys):
    code, out, err = run(
        capsys, "verify", "--manifold", "flat", "--k", "2",
        "--generators", "zero,linear_j", "--points", "3", "--seed", "42",
    )
    assert code == 0, err
    assert "core_pass=True" in out
    assert "FAIL" not in out


def test_verify_conformal_expected_fail_block(capsys):
    code, out, _ = run(
        capsys, "verify", "--manifold", "conformal-nonkahler",
        "--generators", "linear_j", "--points", "2",
    )
    assert code == 0
    assert "expected-fail" in out
    assert "expected_fail_ok=True" in out


def test_verify_conformal_rejects_other_dimensions(capsys):
    """The conformal chart exists at k = 2 only; --k 4 must not run n = 4."""
    code, out, err = run(
        capsys, "verify", "--manifold", "conformal-nonkahler", "--k", "4",
        "--generators", "linear_j", "--points", "1",
    )
    assert code == 2
    assert "k = 4" in err and not out
    code, out, _ = run(
        capsys, "verify", "--manifold", "conformal-nonkahler", "--k", "2",
        "--generators", "linear_j", "--points", "1",
    )
    assert code == 0
    assert "expected_fail_ok=True" in out


def test_verify_rejects_out_of_range_dimension(capsys):
    code, _, err = run(capsys, "verify", "--manifold", "fs", "--k", "9999")
    assert code == 2
    assert err.strip()


def test_verify_unknown_manifold_names_options(capsys):
    code, _, err = run(capsys, "verify", "--manifold", "torus")
    assert code == 2
    assert "options" in err and "fs" in err


def test_verify_requires_manifold(capsys):
    code, _, err = run(capsys, "verify", "--points", "1")
    assert code == 2
    assert "--manifold" in err


def test_verify_numeric_blow_up_is_a_numeric_failure(capsys):
    """An overflowing generator is a numeric failure, not a configuration
    error: exit 3 with one stderr line and no numpy warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "verify", "--manifold", "fs", "--k", "2",
            "--generators", "const:1e200,1e200,1e200,1e200", "--points", "1",
        )
    assert code == 3
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_verify_detects_failures_with_tight_tolerance(capsys):
    code, out, _ = run(
        capsys, "verify", "--manifold", "fs", "--points", "1",
        "--diff", "fd2", "--tol-core", "1e-14", "--tol-audit", "1e-14",
    )
    assert code == 1
    assert "FAIL" in out


def test_audit_soft_downgrades_audit_failures(capsys):
    args = [
        "verify", "--manifold", "fs", "--points", "1", "--diff", "fd2",
        "--generators", "linear_j", "--tol-core", "1.0", "--tol-audit", "1e-16",
    ]
    code, out, _ = run(capsys, *args)
    assert code == 1
    assert "audit_pass=False" in out
    code_soft, out_soft, _ = run(capsys, *args, "--audit-soft")
    assert code_soft == 0
    assert "core_pass=True" in out_soft


def test_report_file_deterministic_and_valid(tmp_path, capsys):
    target = tmp_path / "report.json"
    args = [
        "verify", "--manifold", "hyperbolic", "--points", "2",
        "--seed", "5", "--report", str(target),
    ]
    assert run(capsys, *args)[0] == 0
    first = target.read_text()
    assert run(capsys, *args)[0] == 0
    second = target.read_text()
    a, b = json.loads(first), json.loads(second)
    a.pop("generated_at"), b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    if jsonschema is not None:
        from importlib import resources

        schema = json.loads(
            resources.files("qsc_lab").joinpath("report_schema.json").read_text()
        )
        jsonschema.validate(json.loads(first), schema)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"manifold": "flat", "num_points": 4, "seed": 9}))
    report = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "verify", "--config", str(cfg), "--points", "1",
        "--report", str(report),
    )
    assert code == 0
    echo = json.loads(report.read_text())["config_echo"]
    assert echo["num_points"] == 1  # flag beats file
    assert echo["seed"] == 9


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"manifold": "flat", "pts": 3}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_config_file_missing_or_invalid(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--config", str(tmp_path / "nope.json"))
    assert code == 2 and "not found" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--config", str(bad))
    assert code == 2 and "valid JSON" in err


def test_split_generator_list_reattaches_const_components():
    got = split_generator_list("linear_j,const:0.3,0,0.1,0,random_poly:3")
    assert got == ["linear_j", "const:0.3,0,0.1,0", "random_poly:3"]
    assert split_generator_list("zero") == ["zero"]
    assert split_generator_list("const:1,0,0,0,zero") == ["const:1,0,0,0", "zero"]


def test_tensor_d1_hand_value(capsys):
    code, out, _ = run(
        capsys, "tensor", "--what", "d1", "--manifold", "flat",
        "--generator", "linear_j", "--point", "1,0,0,0",
    )
    assert code == 0
    assert "[x1,y1] = 2" in out
    assert "[y1,x1] = -2" in out


def test_tensor_r1_hand_value(capsys):
    code, out, _ = run(
        capsys, "tensor", "--what", "r1", "--manifold", "flat",
        "--generator", "linear_j", "--point", "1,0,0,0",
    )
    assert code == 0
    assert "[y1,x1,y1,x1] = -2" in out


def test_tensor_h4_flat_below_threshold(capsys):
    code, out, _ = run(
        capsys, "tensor", "--what", "h4", "--manifold", "flat",
        "--generator", "linear_j", "--point", "1,0,0,0",
    )
    assert code == 0
    assert "below threshold" in out


def test_tensor_metric_needs_no_generator(capsys):
    code, out, _ = run(
        capsys, "tensor", "--what", "g", "--manifold", "fs", "--point", "0,0,0,0",
    )
    assert code == 0
    assert "[x1,x1] = 2" in out


def test_tensor_generator_required_for_pi_dependent(capsys):
    code, _, err = run(
        capsys, "tensor", "--what", "d1", "--manifold", "flat",
        "--point", "1,0,0,0",
    )
    assert code == 2
    assert "--generator" in err


@pytest.mark.parametrize(
    "point", ["1,0,x,0", "1,0,0", "2.5,0,0,0"]  # parse error, length, domain
)
def test_tensor_bad_points(capsys, point):
    code, _, err = run(
        capsys, "tensor", "--what", "g", "--manifold", "hyperbolic",
        "--point", point,
    )
    assert code == 2
    assert err.strip()


def test_tensor_values_print_where_stencils_leave_the_chart(capsys):
    """g, f, a, pi and torsion need no derivatives: at a hyperbolic point whose
    fd4 stencil crosses the boundary they still print, while rg fails cleanly."""
    common = ["--manifold", "hyperbolic", "--diff", "fd4", "--step", "1e-2",
              "--generator", "linear_j", "--point", "0.99,0,0,0"]
    for what in ("g", "f", "a", "pi", "torsion"):
        code, out, err = run(capsys, "tensor", "--what", what, *common)
        assert code == 0, (what, err)
        assert out.startswith(what)
    code, _, err = run(capsys, "tensor", "--what", "rg", *common)
    assert code == 2
    assert "stencil leaves the chart domain" in err


def test_tensor_unknown_what(capsys):
    for what in ("q9", "d5"):
        code, _, err = run(
            capsys, "tensor", "--what", what, "--manifold", "flat", "--point", "0,0,0,0",
        )
        assert code == 2
        assert "options" in err


def test_list_catalogs(capsys):
    code, out, _ = run(capsys, "list", "identities")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 38
    assert any("I-H4W" in l and "Weyl projective" in l for l in lines)
    code, out, _ = run(capsys, "list", "manifolds")
    assert len([l for l in out.splitlines() if l.strip()]) == 4
    code, out, _ = run(capsys, "list", "generators")
    assert len([l for l in out.splitlines() if l.strip()]) == 5
