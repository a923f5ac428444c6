"""H tensors, projective invariants, hybridity, and the identity suite."""

from collections import Counter

import numpy as np
import pytest

from qsc_lab.diff import DiffConfig
from qsc_lab.geometry import TensorField, generator, manifold_by_name, sample_points
from qsc_lab.tensor import norm_max
from qsc_lab.connections import generator_jets, point_jets
from qsc_lab.curvature import curvature_bundle
import qsc_lab.invariants as invariants
from qsc_lab.invariants import (
    EXPECTED_FAIL_FLOOR,
    IDENTITY_CATALOG,
    _h0_from_levi_civita,
    degeneracy_probe,
    h_tensor,
    hol_projective,
    hybrid_defect,
    identity_ids,
    identity_suite,
    weyl_projective,
)

CFG = DiffConfig(scheme="analytic")


def bundle(m, p, gen):
    pj = point_jets(m, p, CFG)
    return curvature_bundle(pj, generator_jets(pj, gen))


def _std_structure(n=4):
    a = np.zeros((n, n))
    for i in range(0, n, 2):
        a[i + 1, i] = 1.0
        a[i, i + 1] = -1.0
    return a


def test_hybrid_defect_metric_and_form():
    m = manifold_by_name("fs", k=2)
    p = sample_points(m, 1, seed=1)[0]
    a = m.structure(p).components
    rep_g = hybrid_defect(m.metric(p), a, label="g")
    rep_f = hybrid_defect(m.fundamental(p), a, label="f")
    assert rep_g.defect < 1e-13 * rep_g.scale
    assert rep_g.kahler_defect < 1e-13 * rep_g.scale
    assert rep_f.defect < 1e-13 * rep_f.scale
    assert rep_g.label == "g"


def test_hybrid_defect_rank_one_hand_value():
    """pi (x) pi with pi = dy1 and the standard structure: the commutator
    picks up two unit entries, so the defect is exactly one."""
    a = _std_structure()
    pi = np.array([0.0, 1.0, 0.0, 0.0])
    rep = hybrid_defect(np.outer(pi, pi), a)
    assert rep.defect == pytest.approx(1.0)
    assert rep.scale == pytest.approx(1.0)


def test_h_tensor_rejects_bad_kind():
    m = manifold_by_name("flat", k=2)
    b = bundle(m, np.zeros(4), generator("zero", dim=4))
    with pytest.raises(ValueError):
        h_tensor(7, b)


def test_h_tensors_vanish_on_flat():
    m = manifold_by_name("flat", k=2)
    gen = generator("linear_j", dim=4)
    for p in sample_points(m, 3, seed=2):
        b = bundle(m, p, gen)
        for theta in (1, 4):
            assert norm_max(h_tensor(theta, b)) < 1e-12


def test_h_tensors_generator_independent():
    """The point of every H shape: the generator drops out."""
    gens = [
        generator("linear_j", dim=4),
        generator("grad", dim=4),
        generator("random_poly", dim=4, seed=3),
    ]
    for name in ("fs", "hyperbolic"):
        m = manifold_by_name(name, k=2)
        for p in sample_points(m, 2, seed=3):
            bundles = [bundle(m, p, g) for g in gens]
            for theta in range(6):
                vals = [h_tensor(theta, b).components for b in bundles]
                scale = max(norm_max(v) for v in vals)
                for v in vals[1:]:
                    assert norm_max(v - vals[0]) < 1e-10 * max(scale, 1.0)


def test_h1_h3_and_h4_weyl_coincide():
    for name in ("fs", "hyperbolic"):
        m = manifold_by_name(name, k=2)
        gen = generator("grad", dim=4)
        p = sample_points(m, 1, seed=4)[0]
        b = bundle(m, p, gen)
        h1 = h_tensor(1, b).components
        h3 = h_tensor(3, b).components
        h4 = h_tensor(4, b).components
        w = weyl_projective(point_jets(m, p, CFG)).components
        scale = max(norm_max(h1), norm_max(w), 1.0)
        assert norm_max(h1 - h3) < 1e-11 * scale
        assert norm_max(h4 - w) < 1e-11 * scale


def test_h0_closed_form_matches_assembled():
    m = manifold_by_name("fs", k=2)
    gen = generator("random_poly", dim=4, seed=5)
    p = sample_points(m, 1, seed=5)[0]
    b = bundle(m, p, gen)
    direct = _h0_from_levi_civita(b)
    assembled = h_tensor(0, b).components
    assert norm_max(direct - assembled) < 1e-11 * max(norm_max(direct), 1.0)


def test_projective_invariants_flat_and_model_spaces():
    """Flat space kills both invariants; the model spaces are
    holomorphically projectively flat (P = 0) but not projectively flat."""
    m = manifold_by_name("flat", k=2)
    p = np.array([0.3, 0.1, -0.2, 0.4])
    pj = point_jets(m, p, CFG)
    assert norm_max(weyl_projective(pj)) == 0.0
    assert norm_max(hol_projective(pj)) == 0.0
    for name in ("fs", "hyperbolic"):
        mm = manifold_by_name(name, k=2)
        q = sample_points(mm, 1, seed=6)[0]
        qj = point_jets(mm, q, CFG)
        r_scale = norm_max(bundle(mm, q, generator("zero", dim=4)).r_g)
        assert norm_max(hol_projective(qj)) < 1e-9 * r_scale
        assert norm_max(weyl_projective(qj)) > 0.1 * r_scale


def test_degeneracy_probe_reports_obstruction():
    m = manifold_by_name("flat", k=2)
    pts = sample_points(m, 5, seed=7)
    recs = degeneracy_probe(m, pts, generator("linear_j", dim=4))
    assert len(recs) == 5
    for rec in recs:
        if rec["pi_norm"] >= 1e-5:
            assert rec["pipi_hybrid_defect"] > 1e-10
    zero_recs = degeneracy_probe(m, pts, generator("zero", dim=4))
    assert all(r["pi_norm"] == 0.0 for r in zero_recs)


def test_catalog_shape():
    ids = identity_ids()
    assert len(ids) == len(IDENTITY_CATALOG) == 38
    assert ids == list(IDENTITY_CATALOG)
    assert "Weyl projective" in IDENTITY_CATALOG["I-H4W"].description
    for info in IDENTITY_CATALOG.values():
        assert info.classification in ("core", "audit")
        assert info.scope in ("hermitian", "kahler_hypothesis", "kahler_only")


def test_suite_flat_all_pass_tight():
    m = manifold_by_name("flat", k=2)
    gens = [generator("zero", dim=4), generator("linear_j", dim=4)]
    pts = sample_points(m, 3, seed=8)
    results = identity_suite(m, pts, gens, CFG)
    assert all(r.passed for r in results)
    core = [r for r in results if r.classification == "core"]
    assert core and all(r.relative < 1e-9 for r in core)
    keys = [(r.id, r.point_index) for r in results]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_suite_covers_full_catalog_on_kahler():
    m = manifold_by_name("fs", k=2)
    gens = [generator("linear_j", dim=4), generator("grad", dim=4)]
    results = identity_suite(m, sample_points(m, 1, seed=9), gens, CFG)
    assert {r.id for r in results} == set(identity_ids())
    assert all(r.passed for r in results)


def test_suite_non_kahler_reclassifies():
    """On the conformal metric the Kahler-hypothesis block must fail loudly
    (that is its pass criterion) and the Kahler-only block must not run."""
    m = manifold_by_name("conformal-nonkahler")
    gens = [generator("linear_j", dim=4)]
    results = identity_suite(m, sample_points(m, 2, seed=10), gens, CFG)
    assert all(r.passed for r in results)
    by_class = {}
    for r in results:
        by_class.setdefault(r.classification, []).append(r)
    assert "expected-fail" in by_class
    for r in by_class["expected-fail"]:
        assert r.relative >= EXPECTED_FAIL_FLOOR
    ran = {r.id for r in results}
    for ident, info in IDENTITY_CATALOG.items():
        if info.scope == "kahler_only":
            assert ident not in ran
        else:
            assert ident in ran


def test_suite_requires_generators():
    m = manifold_by_name("flat", k=2)
    with pytest.raises(ValueError):
        identity_suite(m, np.zeros((1, 4)), [], CFG)


def test_suite_deterministic():
    m = manifold_by_name("fs", k=2)
    gens = [generator("random_poly", dim=4, seed=11)]
    pts = sample_points(m, 2, seed=11)
    a = identity_suite(m, pts, gens, CFG)
    b = identity_suite(m, pts, gens, CFG)
    assert a == b


def test_independence_identities_vacuous_with_one_generator():
    m = manifold_by_name("fs", k=2)
    results = identity_suite(
        m, sample_points(m, 1, seed=12), [generator("linear_j", dim=4)], CFG
    )
    hind = [r for r in results if r.id.startswith("I-HIND-")]
    assert len(hind) == 6
    assert all(r.passed and r.max_residual == 0.0 for r in hind)


def test_conditional_hybrid_details_non_vacuous():
    """Flat with zero and rotational generators: the nabla-pi hypothesis of
    the kind-1 statement holds for both, the pi (x) pi hypothesis of the
    other kinds only for the zero generator."""
    m = manifold_by_name("flat", k=2)
    gens = [generator("zero", dim=4), generator("linear_j", dim=4)]
    results = identity_suite(m, sample_points(m, 1, seed=13), gens, CFG)
    cond = {r.id: r for r in results if r.id.startswith("I-HYB-COND-")}
    assert set(cond) == {f"I-HYB-COND-{t}" for t in range(6)}
    for r in cond.values():
        assert r.details is not None
        assert r.details["violated"] == 0.0
        assert r.passed
    assert cond["I-HYB-COND-1"].details["part1_satisfied"] == 2.0
    assert cond["I-HYB-COND-2"].details["part1_satisfied"] == 1.0


def test_suite_differentiates_each_field_once_per_point(monkeypatch):
    """One metric jet, one structure jet and one jet per generator at each
    point; F and G come from the product rule, never from differencing."""
    calls = Counter()
    original = TensorField.jets

    def counted(self, *args, **kwargs):
        calls[self.label] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TensorField, "jets", counted)
    m = manifold_by_name("fs", k=2)
    gens = [
        generator("zero", dim=4),
        generator("linear_j", dim=4),
        generator("random_poly", dim=4, seed=3),
    ]
    results = identity_suite(m, sample_points(m, 2, seed=0), gens, CFG)
    assert all(r.passed for r in results)
    assert calls == {"g": 2, "A": 2, "zero": 2, "linear_j": 2, "random_poly:3": 2}


def test_suite_evaluates_hybrid_conclusions_only_under_their_hypotheses(monkeypatch):
    """An I-HYB-COND conclusion is computed only where its hypothesis holds:
    one call per (kind, point, generator) the rows count as satisfied."""
    calls = Counter()
    for name in ("_part1_conclusions", "_part2_conclusions"):

        def counted(*args, _name=name, _original=getattr(invariants, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(invariants, name, counted)
    m = manifold_by_name("fs", k=2)
    gens = [
        generator("zero", dim=4),
        generator("linear_j", dim=4),
        generator("random_poly", dim=4, seed=3),
    ]
    results = identity_suite(m, sample_points(m, 2, seed=0), gens, CFG)
    rows = [r for r in results if r.id.startswith("I-HYB-COND")]
    assert len(rows) == 12
    for part in ("part1", "part2"):
        satisfied = sum(r.details[f"{part}_satisfied"] for r in rows)
        assert calls[f"_{part}_conclusions"] == satisfied
        assert 0 < satisfied < len(rows) * len(gens)
