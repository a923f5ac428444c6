"""Command line behavior: exit codes, printed tensors, catalogs, reports."""

import json
import warnings

import numpy as np
import pytest

from qsc_lab.cli import _WHAT_CHOICES, _print_table, main, split_generator_list
from qsc_lab.geometry import GENERATORS, MANIFOLDS, manifold_by_name

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


def test_verify_numeric_blow_up_on_a_non_kahler_chart_is_a_numeric_failure(capsys):
    """On a chart that builds no curvature stack the overflow of pi (x)
    (pi o A) is caught where the D blocks are built: exit 3 with one stderr
    line and no numpy warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "verify", "--manifold", "conformal-nonkahler",
            "--generators", "const:1e200,1e200,1e200,1e200",
        )
    assert code == 3
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("spec", ["const:nan,0,0,0", "const:1e400,0,0,0"])
def test_verify_non_finite_const_component_is_a_configuration_error(capsys, spec):
    """A const component that is already nan or inf is a bad spec (exit 2,
    naming it), not a numeric failure of the run."""
    code, out, err = run(
        capsys, "verify", "--manifold", "fs", "--generators", spec, "--points", "1"
    )
    assert code == 2 and not out
    assert spec.partition(":")[2] in err and "finite" in err


def test_verify_numeric_blow_up_in_a_stacked_job_is_a_numeric_failure(capsys):
    """An overflowing generator among others, at several points: the one
    finiteness check on the stacked curvature still exits 3, quietly."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "verify", "--manifold", "fs", "--k", "2",
            "--generators", "zero,const:1e200,1e200,1e200,1e200,linear_j",
            "--points", "3",
        )
    assert code == 3
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
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
    bad.write_text("[1, 2]")
    code, _, err = run(capsys, "verify", "--config", str(bad))
    assert code == 2 and "JSON object" in err
    # an empty path names no file: an error, not a run without a config file
    code, out, err = run(capsys, "verify", "--manifold", "flat", "--points", "1", "--config", "")
    assert code == 2 and not out
    assert err.startswith("error: config file not found") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "key,value",
    [
        ("audit_soft", "no"),
        ("richardson", "false"),
        ("k", 2.7),
        ("num_points", 1.9),
        ("generators", "zero"),
    ],
)
def test_config_file_value_of_the_wrong_type(tmp_path, capsys, key, value):
    """A config value is taken as written or rejected, never cast: "no" is
    not false, 2.7 is not 2 and "zero" is not a list of generators."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"manifold": "flat", "num_points": 1, key: value}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and not out
    assert err.startswith(f"error: {key} must be"), err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_rejects_a_tolerance_that_is_not_finite(tmp_path, capsys, value):
    """A NaN tolerance would fail every row and an infinite one pass every
    row.  As a flag or as a config value (Python's JSON reader takes NaN and
    Infinity) either is a configuration error naming the setting."""
    cfg = tmp_path / "run.json"
    config = {"manifold": "flat", "num_points": 1, "tolerance_audit": float(value)}
    cfg.write_text(json.dumps(config))
    flag = ["--manifold", "flat", "--points", "1", "--tol-core", value]
    for argv, key in ((flag, "tolerance_core"), (["--config", str(cfg)], "tolerance_audit")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and not out
        assert err.startswith(f"error: {key} must be positive and finite"), err


@pytest.mark.parametrize(
    "argv,setting",
    [
        (["verify", "--manifold", "flat", "--points", "1", "--richardson"], "richardson"),
        (["verify", "--manifold", "flat", "--points", "1", "--step", "5e-3"], "step"),
        (["tensor", "--what", "rg", "--manifold", "fs", "--point", "0.1,0,0,0",
          "--richardson"], "richardson"),
        (["tensor", "--what", "rg", "--manifold", "fs", "--point", "0.1,0,0,0",
          "--step", "5e-3"], "step"),
        (["verify", "--manifold", "flat", "--step", "1e-4"], "step"),
        (["tensor", "--what", "rg", "--manifold", "flat", "--k", "1", "--point", "0,0",
          "--step", "0.0001"], "step"),
    ],
    ids=[
        "verify-richardson", "verify-step", "tensor-richardson", "tensor-step",
        "verify-default-step", "tensor-default-step",
    ],
)
def test_analytic_scheme_rejects_finite_difference_settings(capsys, argv, setting):
    """A scheme flag the analytic scheme has no use for is an error, a
    --step flag at the default step included: it names the flag."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith(f"error: {setting}") and "analytic" in err, err
    assert setting != "step" or "--step" in err, err


def test_a_config_file_may_hold_the_default_step_under_the_analytic_scheme(tmp_path, capsys):
    """Every analytic report echoes step 1e-4, so a config file holding it
    runs; the same value given as --step beside that file does not."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"manifold": "flat", "num_points": 1, "step": 1e-4}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 0 and not err
    code, out, err = run(capsys, "verify", "--config", str(cfg), "--step", "1e-4")
    assert code == 2 and not out and "drop --step" in err, err


@pytest.mark.parametrize(
    "flags",
    [
        ["--manifold", "fs", "--points", "2", "--seed", "3",
         "--generators", "linear_j,const:0.3,0,0.1,0", "--diff", "fd4", "--richardson",
         "--step", "2e-3", "--tol-core", "1e-5", "--audit-soft"],
        ["--manifold", "hyperbolic", "--points", "1", "--generators", "grad"],
    ],
    ids=["fd4", "analytic"],
)
def test_config_echo_reproduces_its_report(tmp_path, capsys, flags):
    """A report's config_echo, fed back as a config file, gives the same
    report and table apart from the timestamp; the analytic echo's step and
    richardson are the defaults the scheme accepts."""
    report = tmp_path / "out.json"
    code, out, _ = run(capsys, "verify", *flags, "--report", str(report))
    first = json.loads(report.read_text())
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(first["config_echo"]))
    report.unlink()
    again = run(capsys, "verify", "--config", str(cfg))
    second = json.loads(report.read_text())
    assert again == (code, out, "")
    first.pop("generated_at"), second.pop("generated_at")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_verify_flags_config_keys_and_report_schema_name_the_same_settings():
    from dataclasses import fields
    from importlib import resources

    from qsc_lab.cli import build_parser
    from qsc_lab.report import RunConfig

    dests = set(vars(build_parser().parse_args(["verify"]))) - {"config", "command", "fn"}
    schema = json.loads(resources.files("qsc_lab").joinpath("report_schema.json").read_text())
    echo = schema["properties"]["config_echo"]
    assert dests == {f.name for f in fields(RunConfig)} == set(echo["required"])


def test_split_generator_list_reattaches_const_components():
    got = split_generator_list("linear_j,const:0.3,0,0.1,0,random_poly:3")
    assert got == ["linear_j", "const:0.3,0,0.1,0", "random_poly:3"]
    assert split_generator_list("zero") == ["zero"]
    assert split_generator_list("const:1,0,0,0,zero") == ["const:1,0,0,0", "zero"]


@pytest.mark.parametrize("listed", ["zero,linear_j,", "zero,,linear_j", "const:1,0,,0,0"])
def test_verify_names_an_empty_generator_item(capsys, listed):
    """An empty item after the first is named as such, with the list quoted,
    not read as part of the spec before it."""
    code, out, err = run(capsys, "verify", "--manifold", "fs", "--generators", listed)
    assert code == 2 and not out
    assert err == f"error: generator list {listed!r} has an empty item\n"


def _per_row_table(report):
    """The table as it was printed before, one print per line."""
    print(f"{'identity':16s} {'pt':>3s} {'class':13s} {'relative':>10s} status")
    for r in report["results"]:
        status = "pass" if r["pass"] else "FAIL"
        print(
            f"{r['id']:16s} {r['point_index']:3d} {r['classification']:13s} "
            f"{r['relative']:10.2e} {status}"
        )
    s = report["summary"]
    print(
        f"summary: core_pass={s['core_pass']} audit_pass={s['audit_pass']} "
        f"expected_fail_ok={s['expected_fail_ok']}"
    )


def test_table_in_one_write_equals_the_per_row_prints(capsys):
    """Each distinct relative is formatted once, yet 0.0 and -0.0 keep
    their signs and NaN and infinities print as before, beside a FAIL row."""
    relatives = [0.0, -0.0, 1 / 3, 0.0, 1 / 3, -0.0, float("nan"), float("inf"), 2.5e-17]
    report = {
        "results": [
            {"id": f"I-X{i % 2}", "point_index": i, "classification": "core",
             "relative": rel, "pass": i != 2}
            for i, rel in enumerate(relatives)
        ],
        "summary": {"core_pass": False, "audit_pass": True, "expected_fail_ok": True},
    }
    _print_table(report)
    got = capsys.readouterr().out
    _per_row_table(report)
    want = capsys.readouterr().out
    assert got == want
    assert "-0.00e+00" in got and " 0.00e+00" in got and "FAIL" in got


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
    """A tensor built from pi needs --generator; one that does not read pi
    rejects it, naming both, rather than printing as if it were not there."""
    code, _, err = run(
        capsys, "tensor", "--what", "d1", "--manifold", "flat",
        "--point", "1,0,0,0",
    )
    assert code == 2
    assert "--generator" in err
    for what in PI_FREE:
        code, out, err = run(
            capsys, "tensor", "--what", what, *FS_TENSOR, "--generator", "random_poly:3"
        )
        assert code == 2 and not out
        assert err == f"error: tensor {what!r} does not read the generator; drop --generator\n"


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
    common = ["--manifold", "hyperbolic", "--point", "0.99,0,0,0"]
    fd4 = ["--diff", "fd4", "--step", "1e-2"]
    for what in VALUE_ONLY:
        code, out, err = run(capsys, "tensor", "--what", what, *common, *_generator_flag(what))
        assert code == 0, (what, err)
        assert out.startswith(what)
    code, _, err = run(capsys, "tensor", "--what", "rg", *common, *fd4)
    assert code == 2
    assert "stencil leaves the chart domain" in err


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--diff", "fd4"], "--diff"),
        (["--diff", "analytic"], "--diff"),
        (["--diff", "fd2", "--step", "1e-3"], "--diff, --step"),
        (["--step", "1e-3"], "--step"),
        (["--richardson"], "--richardson"),
        (["--diff", "fd4", "--step", "1e-2", "--richardson"], "--diff, --step, --richardson"),
    ],
    ids=["fd4", "analytic", "fd2-step", "step", "richardson", "all"],
)
def test_value_tensors_reject_the_scheme_flags(capsys, flags, named):
    """A tensor read as a value takes no derivative scheme: every scheme flag
    given to it is an error that names it, rather than dropped unread."""
    for what in VALUE_ONLY:
        gen = _generator_flag(what)
        code, out, err = run(capsys, "tensor", "--what", what, *FS_TENSOR, *gen, *flags)
        assert code == 2 and not out, what
        assert err == f"error: tensor {what!r} takes no derivatives; drop {named}\n"


FS_TENSOR = ["--manifold", "fs", "--k", "2", "--point", "0.1,0.2,-0.15,0.3"]
PI_FREE = ("a", "f", "g", "p", "ric_g", "rg", "w")
VALUE_ONLY = ("a", "f", "g", "pi", "torsion")


def _generator_flag(what: str) -> list[str]:
    """--generator for the tensors that read it, nothing for the others."""
    return [] if what in PI_FREE else ["--generator", "random_poly:3"]


def _expected_slots(what: str) -> str:
    special = {"a": "ud", "pi": "d", "torsion": "udd", "rg": "uddd", "w": "uddd", "p": "uddd"}
    if what in special:
        return special[what]
    return "uddd" if what[0] in "rh" and what[1:].isdigit() else "dd"


def _printed_components(out: str) -> np.ndarray:
    """The printed entries of a `tensor` call at n = 4 as a dense array;
    entries below the print threshold read as zero."""
    header, *lines = out.splitlines()
    labels = {lab: i for i, lab in enumerate(["x1", "y1", "x2", "y2"])}
    comps = np.zeros((4,) * len(header.split()[1].removeprefix("slots=")))
    for line in lines:
        if "=" in line:
            idx, value = line.split(" = ")
            comps[tuple(labels[lab] for lab in idx.strip(" []").split(","))] = float(value)
    return comps


@pytest.mark.parametrize("what", _WHAT_CHOICES)
def test_tensor_header_gives_the_slots_of_every_tensor(capsys, what):
    """The header line names the tensor and its up/down slots; f is A^T g
    and ric_g the (out, X) trace of rg, to the 12 printed digits."""
    code, out, err = run(capsys, "tensor", "--what", what, *FS_TENSOR, *_generator_flag(what))
    assert code == 0, err
    assert out.splitlines()[0].split()[:2] == [what, f"slots={_expected_slots(what)}"]
    if what == "f":
        m, p = manifold_by_name("fs", k=2), [0.1, 0.2, -0.15, 0.3]
        want = m.structure_field.value(p).T @ m.metric_field.value(p)
        np.testing.assert_allclose(_printed_components(out), want, rtol=1e-11, atol=1e-12)
    elif what == "ric_g":
        _, rg, _ = run(capsys, "tensor", "--what", "rg", *FS_TENSOR)
        want = np.einsum("mmjk->jk", _printed_components(rg))
        np.testing.assert_allclose(_printed_components(out), want, rtol=1e-10, atol=1e-10)


def test_tensor_needs_a_manifold(capsys):
    code, out, err = run(capsys, "tensor", "--what", "g", "--point", "0,0,0,0")
    assert (code, out, err) == (2, "", "error: --manifold is required\n")


def test_tensor_unknown_what(capsys):
    """An unknown tensor, or an unknown generator even for a tensor that
    needs none, is a configuration error naming the options."""
    for what in (["q9"], ["d5"], ["g", "--generator", "bogus:7"]):
        code, _, err = run(
            capsys, "tensor", "--what", *what, "--manifold", "flat", "--point", "0,0,0,0",
        )
        assert code == 2
        assert "options" in err


@pytest.mark.parametrize(
    "argv,kind,name",
    [
        (["verify", "--manifold", "torus"], "manifold", "torus"),
        (["verify", "--manifold", "fs", "--generators", "bogus"], "generator", "bogus"),
        (["verify", "--generators", "bogus"], "generator", "bogus"),
        (["verify", "--manifold", "fs", "--generators", "zero,bogus:2"], "generator", "zero,bogus"),
        (["verify", "--manifold", "fs", "--generators", ",zero"], "generator", ""),
        (["tensor", "--what", "pi", "--manifold", "fs", "--point", "0,0,0,0",
          "--generator", "bogus:7"], "generator", "bogus"),
        (["tensor", "--what", "g", "--manifold", "torus", "--point", "0,0,0,0"],
         "manifold", "torus"),
    ],
    ids=["verify-manifold", "verify-generators", "verify-generators-first",
         "verify-generators-later", "verify-generators-empty", "tensor-generator",
         "tensor-manifold"],
)
def test_every_command_rejects_an_unknown_name_with_one_text(capsys, argv, kind, name):
    """An unknown chart or generator is exit 2 with the one catalog message;
    an unknown name after a known one is read as part of the spec before it."""
    code, out, err = run(capsys, *argv)
    options = ", ".join(MANIFOLDS if kind == "manifold" else GENERATORS)
    assert code == 2 and not out
    assert err == f"error: unknown {kind} {name!r}; options: {options}\n"


def test_list_catalogs(capsys):
    code, out, _ = run(capsys, "list", "identities")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 38
    assert any("I-H4W" in l and "Weyl projective" in l for l in lines)
    # one line per table entry, in table order: the name in 22 columns, then
    # the description the table holds for it
    for kind, table, count in (("manifolds", MANIFOLDS, 4), ("generators", GENERATORS, 5)):
        code, out, err = run(capsys, "list", kind)
        assert code == 0 and not err
        assert out.splitlines() == [f"{name:22s} {entry[-1]}" for name, entry in table.items()]
        assert len(table) == count


def test_main_builds_the_parser_once_and_keeps_no_flag_between_calls(
    capsys, monkeypatch, tmp_path
):
    """Every main() in a process shares one argument tree; a flag given to
    one call does not carry over to the next."""
    import qsc_lab.cli as cli

    built = []

    def counted(sub, _original=cli._add_common_flags):
        built.append(sub.prog)
        _original(sub)

    monkeypatch.setattr(cli, "_add_common_flags", counted)
    cli.build_parser.cache_clear()
    report = tmp_path / "report.json"
    argv = ["verify", "--manifold", "flat", "--points", "1", "--report", str(report)]
    echoes = []
    for extra in (["--audit-soft"], []):
        assert run(capsys, *argv, *extra)[0] == 0
        echoes.append(json.loads(report.read_text())["config_echo"]["audit_soft"])
    assert built == ["qsc-lab verify", "qsc-lab tensor"]
    assert echoes == [True, False]


def _report_path_case(tmp_path, case):
    """(the verify flags, the report path they name) of one case."""
    if case.startswith("empty"):
        path = ""
    else:
        path = tmp_path if case == "a directory" else tmp_path / "missing" / "x.json"
    if not case.endswith("config key"):
        return ["--report", str(path)], path
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"manifold": "flat", "report": str(path)}))
    return ["--config", str(config)], path


@pytest.mark.parametrize(
    "case",
    ["missing directory", "a directory", "config key", "empty path", "empty config key"],
)
def test_verify_rejects_an_unwritable_report_path_before_the_suite(
    capsys, monkeypatch, tmp_path, case
):
    """A report path whose directory is missing, that is a directory, or
    that is empty, from a flag or a config key, is a configuration error
    (exit 2) with one `error:` line naming it, and the suite never starts."""
    import qsc_lab.cli as cli

    def never(cfg):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_verification", never)
    extra, path = _report_path_case(tmp_path, case)
    code, out, err = run(capsys, "verify", "--manifold", "flat", *extra)
    assert code == 2 and not out
    assert err.startswith("error: cannot write report ") and str(path) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_verify_maps_an_error_on_writing_the_report_to_exit_2(capsys, monkeypatch, tmp_path):
    """An OSError while writing the report (after the path checks passed) is
    exit 2 with one `error:` line naming the path, not a traceback."""
    import qsc_lab.cli as cli

    target = tmp_path / "report.json"

    def refuse(self, *args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.Path, "write_text", refuse)
    code, out, err = run(
        capsys, "verify", "--manifold", "flat", "--points", "1", "--report", str(target)
    )
    assert code == 2 and not out
    assert err == f"error: cannot write report {target}: No space left on device\n"
