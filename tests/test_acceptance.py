"""Acceptance suite: ten end-to-end checks, one verdict line each.

Every test prints "[criterion N] PASS/FAIL: ..." on the live terminal
(bypassing capture) and then asserts, so a full run always shows the
scorecard even when individual criteria fail."""

import itertools
import json

import numpy as np

from charts import sheared, twisted
from qsc_lab.cli import main
from qsc_lab.connections import generator_jets, metricity_defects, point_jets
from qsc_lab.curvature import (
    commutator_curvature,
    curvature_bundle,
    lowered,
    riemann_g,
    rotation_rules,
)
from qsc_lab.diff import DiffConfig
from qsc_lab.geometry import generator, manifold_by_name, sample_points
from qsc_lab.invariants import (
    EXPECTED_FAIL_FLOOR,
    h_tensor,
    hol_projective,
    hybrid_defect,
    identity_suite,
    weyl_projective,
)
from qsc_lab.report import RunConfig, run_verification
from qsc_lab.tensor import norm_max

CFG = DiffConfig(scheme="analytic")
P0 = np.array([1.0, 0.0, 0.0, 0.0])


def _records(m, p, gen):
    pj = point_jets(m, p, CFG)
    return pj, generator_jets(pj, gen)


def _bundle(m, p, gen):
    return curvature_bundle(*_records(m, p, gen))


def _verdict(capsys, n: int, ok: bool, desc: str) -> None:
    with capsys.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def _rel(residual: float, *scales: float) -> float:
    return residual / max([*scales, 1e-12])


def test_criterion_01_flat_baseline(capsys):
    m = manifold_by_name("flat", k=2)
    gens = [generator("zero", dim=4), generator("linear_j", dim=4)]
    results = identity_suite(m, sample_points(m, 10, seed=42), gens, CFG)
    core = [r for r in results if r.classification == "core"]
    ok = bool(core) and all(r.relative.shape == (10,) and r.relative.max() < 1e-9 for r in core)

    b = _bundle(m, P0, gens[1])
    spots = [
        (b.d[1][0, 1], 2.0),
        (b.d[3][0, 1], 1.0),
        (b.d[2][0, 1], 2.0),
    ]
    ok &= all(abs(got - want) < 1e-12 for got, want in spots)
    from qsc_lab.connections import torsion

    t = torsion(gens[1].value(P0), m.structure_field.value(P0))
    ok &= bool(np.all(np.abs(t[:, 0, 1] - [0, 1, 0, 0]) < 1e-12))
    ok &= bool(np.all(np.abs(b.r[1][:, 0, 1, 0] - [0, -2, 0, 0]) < 1e-12))
    ok &= abs(b.ric[1][0, 0] - 2.0) < 1e-12
    ok &= norm_max(h_tensor(1, b)) < 1e-12 and norm_max(h_tensor(4, b)) < 1e-12
    _verdict(capsys, 1, ok, "flat baseline: core identities and hand values")


def test_criterion_02_generator_independence(capsys):
    gens = [
        generator("linear_j", dim=4),
        generator("random_poly", dim=4, seed=3),
        generator("random_poly", dim=4, seed=7),
    ]
    worst = 0.0
    for name in ("fs", "hyperbolic"):
        m = manifold_by_name(name, k=2)
        for p in sample_points(m, 20, seed=0):
            bundles = [_bundle(m, p, g) for g in gens]
            for theta in range(6):
                vals = [h_tensor(theta, b) for b in bundles]
                scale = max(max(norm_max(v) for v in vals), 1.0)
                for x, y in itertools.combinations(vals, 2):
                    worst = max(worst, norm_max(x - y) / scale)
    _verdict(
        capsys, 2, worst < 1e-6,
        f"H tensors generator-independent, worst relative gap {worst:.2e}",
    )


def test_criterion_03_h4_weyl_h1_h3(capsys):
    worst = 0.0
    for name in ("fs", "hyperbolic"):
        m = manifold_by_name(name, k=2)
        gen = generator("random_poly", dim=4, seed=3)
        for p in sample_points(m, 5, seed=1):
            b = _bundle(m, p, gen)
            w = weyl_projective(point_jets(m, p, CFG))
            h1 = h_tensor(1, b)
            h3 = h_tensor(3, b)
            h4 = h_tensor(4, b)
            scale = max(norm_max(w), norm_max(h1), 1.0)
            worst = max(worst, norm_max(h4 - w) / scale, norm_max(h1 - h3) / scale)
    _verdict(capsys, 3, worst < 1e-6, f"H4 = W and H1 = H3, worst {worst:.2e}")


def test_criterion_04_linear_identities(capsys):
    wanted = {"I-LIN1", "I-LIN2", "I-2H1H2", "I-PCOMB1", "I-PCOMB2", "I-PCOMB3",
              "I-H0PW"}
    m = manifold_by_name("fs", k=2)
    gens = [generator("linear_j", dim=4), generator("random_poly", dim=4, seed=3)]
    results = identity_suite(m, sample_points(m, 5, seed=2), gens, CFG)
    rows = [r for r in results if r.id in wanted]
    ok = {r.id for r in rows} == wanted
    ok &= all(r.relative.shape == (5,) and r.relative.max() < 1e-6 for r in rows)

    # the same combination checked directly: H0 = 1.5 P - 0.5 W at n = 4
    p0 = sample_points(m, 1, seed=3)[0]
    pj = point_jets(m, p0, CFG)
    b = curvature_bundle(pj, generator_jets(pj, gens[0]))
    h0 = h_tensor(0, b)
    w = weyl_projective(pj)
    p = hol_projective(pj)
    direct = norm_max(h0 - (1.5 * p - 0.5 * w))
    ok &= _rel(direct, norm_max(h0), norm_max(w), norm_max(p)) < 1e-6
    _verdict(capsys, 4, ok, "linear identities between H tensors, W and P")


def test_criterion_05_projective_flatness(capsys):
    worst = 0.0
    for name in ("fs", "hyperbolic"):
        m = manifold_by_name(name, k=2)
        for p in sample_points(m, 5, seed=4):
            pj = point_jets(m, p, CFG)
            ratio = norm_max(hol_projective(pj)) / norm_max(riemann_g(pj))
            worst = max(worst, ratio)
    _verdict(
        capsys, 5, worst < 1e-6,
        f"P vanishes on the model spaces, worst ratio {worst:.2e}",
    )


def test_criterion_06_parallel_structure_contrapositive(capsys):
    """The paper's first theorem, both ways: nabla^1 preserves G = g + F (and
    F) exactly where A is parallel under nabla^g.  Per (point, generator),
    under five schemes, the three defects are all below 1e-6 of the record's
    scale, on the Kahler charts (in sheared coordinates too), or all at or
    above the expected-fail floor, on conformal-nonkahler and on flat space
    in twisted frames, integrable or not, whose I-METRICITY rows are
    expected-fail and pass."""
    schemes = [
        DiffConfig(scheme, richardson=r)
        for scheme, r in (("analytic", False), ("fd2", False), ("fd4", False),
                          ("fd2", True), ("fd4", True))
    ]
    charts = [manifold_by_name(name, k) for name in ("flat", "fs", "hyperbolic") for k in (1, 2, 4)]
    charts += [sheared(manifold_by_name(name, k)) for name in ("fs", "hyperbolic") for k in (1, 2)]
    charts.append(manifold_by_name("conformal-nonkahler"))
    charts += [twisted(k, d) for d in (1, 3) for k in (2, 4)]
    ok, small, big = True, 0.0, 1.0
    for m in charts:
        gens = [generator(name, dim=m.n) for name in ("zero", "linear_j", "grad")]
        gens.append(generator("random_poly", dim=m.n, seed=3))
        for cfg in schemes:
            pj = point_jets(m, sample_points(m, 3, seed=6), cfg)
            res = metricity_defects(pj, generator_jets(pj, gens))
            sides = np.broadcast_arrays(
                *(res[key] / res["scale"] for key in ("nabla1_g_total", "nabla1_f", "nabla_g_a"))
            )
            if m.kahler_expected:
                small = max(small, *(side.max() for side in sides))
                ok &= all((side < 1e-6).all() for side in sides)
            else:
                big = min(big, *(side.min() for side in sides))
                ok &= all((side >= EXPECTED_FAIL_FLOOR).all() for side in sides)

    report = run_verification(
        RunConfig(manifold="conformal-nonkahler", num_points=3, seed=5,
                  generators=("linear_j",))
    )
    metricity_rows = [r for r in report["results"] if r["id"] == "I-METRICITY"]
    ok &= bool(metricity_rows) and all(
        r["classification"] == "expected-fail" and r["pass"]
        for r in metricity_rows
    )
    _verdict(
        capsys, 6, ok,
        f"structure parallelism splits the charts ({big:.2e} vs {small:.2e})",
    )


def test_criterion_07_commutator_oracle(capsys):
    specs = [
        generator("zero", dim=4),
        generator("const", dim=4, components=[0.3, 0.0, 0.1, 0.0]),
        generator("linear_j", dim=4),
        generator("grad", dim=4),
        generator("random_poly", dim=4, seed=3),
    ]
    worst = 0.0
    for name in ("flat", "fs", "hyperbolic"):
        m = manifold_by_name(name, k=2)
        for gen in specs:
            for p in sample_points(m, 3, seed=7):
                pj, gj = _records(m, p, gen)
                oracle = commutator_curvature(pj, gj)
                built = curvature_bundle(pj, gj).r[1]
                worst = max(
                    worst, _rel(norm_max(built - oracle), norm_max(oracle))
                )
    _verdict(
        capsys, 7, worst < 1e-7,
        f"assembled kind-1 curvature matches its commutator oracle ({worst:.2e})",
    )


def test_criterion_08_hybridity_cascade(capsys):
    m = manifold_by_name("flat", k=2)
    gen = generator("linear_j", dim=4)
    pts = sample_points(m, 10, seed=8)
    ok = True
    for p in pts:
        b = _bundle(m, p, gen)
        defect, scale = hybrid_defect(b.d[1], b.pj.a)
        ok &= defect < 1e-10 * max(scale, 1.0)
        rl = lowered(b.r[1], b.pj.g)
        scale = max(norm_max(rl), 1.0)
        ok &= max(rotation_rules(rl, b.pj.a).values()) < 1e-9 * scale
    for p in sample_points(m, 50, seed=9):
        pi = gen.value(p)
        defect, scale = hybrid_defect(np.outer(pi, pi), m.structure_field.value(p))
        degenerate = defect < 1e-10 * max(scale, 1.0) and norm_max(pi) >= 1e-5
        ok &= not degenerate
    _verdict(capsys, 8, ok, "hybrid generator derivative propagates to curvature")


def test_criterion_09_dual_path_differentiation(capsys):
    m = manifold_by_name("fs", k=2)
    fd = DiffConfig(scheme="fd4", step=1e-4)
    worst = 0.0
    for p in sample_points(m, 20, seed=10):
        exact = riemann_g(point_jets(m, p, CFG))
        approx = riemann_g(point_jets(m, p, fd))
        worst = max(worst, _rel(norm_max(approx - exact), norm_max(exact)))
    _verdict(
        capsys, 9, worst < 1e-5,
        f"fd4 curvature tracks the analytic path ({worst:.2e})",
    )


def test_criterion_10_deterministic_reports(capsys, tmp_path):
    target = tmp_path / "run.json"
    argv = [
        "verify", "--manifold", "fs", "--points", "4", "--seed", "11",
        "--generators", "linear_j,random_poly:3", "--report", str(target),
    ]
    code1 = main(list(argv))
    first = target.read_text()
    code2 = main(list(argv))
    second = target.read_text()
    capsys.readouterr()  # drop the two printed tables

    def strip_timestamp(text: str) -> list[str]:
        return [l for l in text.splitlines() if '"generated_at"' not in l]

    ok = code1 == code2 == 0 and strip_timestamp(first) == strip_timestamp(second)
    ok &= json.loads(first)["version"] == "qsc-report/1"
    _verdict(capsys, 10, ok, "identical configurations give byte-identical reports")
