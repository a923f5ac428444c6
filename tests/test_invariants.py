"""H tensors, projective invariants, hybridity, and the identity suite."""

import dataclasses
import functools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from charts import cp1_times_ch1, sheared, twisted
from qsc_lab.diff import DiffConfig
from qsc_lab.geometry import TensorField, generator, manifold_by_name, sample_points
from qsc_lab.tensor import norm_max, relative_residual
from qsc_lab.connections import GeneratorJets, generator_jets, point_jets, torsion_identities
from qsc_lab.curvature import (
    R_TERMS,
    assemble_r_theta,
    commutation_rules,
    commutator_curvature,
    curvature_bundle,
    equals_r_g,
    kahler_identities,
    lowered,
    rotation_rules,
)
import qsc_lab.invariants as invariants
from qsc_lab.invariants import (
    EXPECTED_FAIL_FLOOR,
    IDENTITY_CATALOG,
    LinearRelation,
    h_tensor,
    hol_projective,
    hybrid_defect,
    identity_suite,
    weyl_projective,
)

CFG = DiffConfig(scheme="analytic")
ROW_FIELDS = ("max_residual", "scale", "relative", "passed")


def _all_pass(results) -> bool:
    return all(r.passed.all() for r in results)


def _assert_same_rows(got, want, point=None):
    """Bit for bit the rows of `want`: the same ids and classifications in
    the same order, and every field and detail array equal
    (``np.array_equal``); with `point`, the rows of `got` at that point
    against the one point of `want`."""
    assert [(r.id, r.classification) for r in got] == [(r.id, r.classification) for r in want]
    at = slice(None) if point is None else slice(point, point + 1)
    for g, w in zip(got, want):
        for field in ROW_FIELDS:
            assert np.array_equal(getattr(g, field)[at], getattr(w, field)), (g.id, field)
        assert (g.details is None) == (w.details is None)
        if g.details is not None:
            assert g.details.keys() == w.details.keys()
            for key, value in w.details.items():
                assert np.array_equal(g.details[key][at], value), (g.id, key)


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
    a = m.structure_field.value(p)
    g = m.metric_field.value(p)
    for defect, scale in (hybrid_defect(g, a), hybrid_defect(a.T @ g, a)):
        assert defect < 1e-13 * scale


def test_hybrid_defect_rank_one_hand_value():
    """pi (x) pi with pi = dy1 and the standard structure: the commutator
    picks up two unit entries, so the defect is exactly one."""
    a = _std_structure()
    pi = np.array([0.0, 1.0, 0.0, 0.0])
    defect, scale = hybrid_defect(np.outer(pi, pi), a)
    assert defect == pytest.approx(1.0)
    assert scale == pytest.approx(1.0)


def test_h_tensor_rejects_bad_kind():
    """Every lookup keyed by kind raises a ValueError for a kind outside
    0..5, -1 included, which no lookup reads as the last kind: H^theta,
    R^theta and the part-2 condition of I-HYB-COND."""
    m = manifold_by_name("flat", k=2)
    b = bundle(m, np.zeros(4), generator("zero", dim=4))
    table = "no rank-one terms for"
    for build, message in (
        (lambda kind: h_tensor(kind, b), table),
        (lambda kind: assemble_r_theta(kind, b.pj.r_g, b.pj.a_support, b.blocks), table),
        (lambda kind: invariants._part2_condition(kind, b), "no part-2 condition for"),
    ):
        for kind in (7, -1):
            with pytest.raises(ValueError, match=f"{message} {kind}"):
                build(kind)


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
                vals = [h_tensor(theta, b) for b in bundles]
                scale = max(norm_max(v) for v in vals)
                for v in vals[1:]:
                    assert norm_max(v - vals[0]) < 1e-10 * max(scale, 1.0)


def test_h1_h3_and_h4_weyl_coincide():
    for name in ("fs", "hyperbolic"):
        m = manifold_by_name(name, k=2)
        gen = generator("grad", dim=4)
        p = sample_points(m, 1, seed=4)[0]
        b = bundle(m, p, gen)
        h1 = h_tensor(1, b)
        h3 = h_tensor(3, b)
        h4 = h_tensor(4, b)
        w = weyl_projective(point_jets(m, p, CFG))
        scale = max(norm_max(h1), norm_max(w), 1.0)
        assert norm_max(h1 - h3) < 1e-11 * scale
        assert norm_max(h4 - w) < 1e-11 * scale


def test_h0_closed_form_matches_assembled():
    m = manifold_by_name("fs", k=2)
    gen = generator("random_poly", dim=4, seed=5)
    p = sample_points(m, 1, seed=5)[0]
    b = bundle(m, p, gen)
    direct = invariants._on_r_g("H0RG", b.pj)
    assembled = h_tensor(0, b)
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
        r_scale = norm_max(qj.r_g)
        assert norm_max(hol_projective(qj)) < 1e-9 * r_scale
        assert norm_max(weyl_projective(qj)) > 0.1 * r_scale


def test_degeneracy_probe_reports_obstruction():
    """Hybrid pi (x) pi forces pi ~ 0: a sizable generator is never hybrid."""
    m = manifold_by_name("flat", k=2)
    for p in sample_points(m, 5, seed=7):
        a = m.structure_field.value(p)
        pi = generator("linear_j", dim=4).value(p)
        if norm_max(pi) >= 1e-5:
            assert hybrid_defect(np.outer(pi, pi), a)[0] > 1e-10
        assert norm_max(generator("zero", dim=4).value(p)) == 0.0


def test_catalog_shape():
    assert list(IDENTITY_CATALOG) == [
        "I-T1", "I-T2", "I-T3", "I-NABLA1PI", "I-DREL", "I-METRICITY",
        "I-K1", "I-K2", "I-K3", "I-K4", "I-K5", "I-RICHYB",
        "I-R1COMM", "I-RIC-CF", "I-RIC23", "I-PR34", "I-H1H3",
        *(f"I-HIND-{t}" for t in range(6)),
        "I-H4W", "I-LIN1", "I-LIN2", "I-H0PW", "I-2H1H2",
        "I-PCOMB1", "I-PCOMB2", "I-PCOMB3", "I-H0RG",
        *(f"I-HYB-COND-{t}" for t in range(6)),
    ]
    assert "Weyl projective" in IDENTITY_CATALOG["I-H4W"].description
    m = manifold_by_name("fs", k=2)
    gens = [generator("linear_j", dim=4), generator("grad", dim=4)]
    ran = {r.id for r in identity_suite(m, sample_points(m, 1, seed=9), gens, CFG)}
    for ident, entry in IDENTITY_CATALOG.items():
        assert entry.classification in ("core", "audit")
        assert entry.scope in ("hermitian", "kahler_hypothesis", "kahler_only")
        assert callable(entry.evaluate) and ident in ran, ident


LINEAR_TERMS = [
    (ident, index)
    for ident, entry in IDENTITY_CATALOG.items()
    if isinstance(entry.evaluate, LinearRelation)
    for index in range(len(entry.evaluate.terms))
]


@pytest.mark.parametrize("ident,index", LINEAR_TERMS)
def test_flipping_one_term_of_a_linear_relation_fails_it(monkeypatch, ident, index):
    """Every term of a row is read, and the shared scale does not hide it:
    the row passes, and fails once one coefficient changes sign.  P vanishes
    on every complex space form, so a P term is flipped on CP^1 x CH^1."""
    entry = IDENTITY_CATALOG[ident]
    terms = list(entry.evaluate.terms)
    c, name, *slots = terms[index]
    terms[index] = (lambda n: -(c(n) if callable(c) else c), name, *slots)
    m = cp1_times_ch1() if name == "P" else manifold_by_name("fs", k=2)
    gens = [generator("linear_j", dim=4), generator("random_poly", dim=4, seed=3)]
    pts = sample_points(m, 1, seed=0)

    def row(evaluate):
        table = {ident: dataclasses.replace(entry, evaluate=evaluate)}
        monkeypatch.setattr(invariants, "IDENTITY_CATALOG", table)
        [result] = identity_suite(m, pts, gens, CFG)
        [passed] = result.passed
        return passed

    assert row(entry.evaluate)
    assert not row(LinearRelation(*terms))


def test_suite_flat_all_pass_tight():
    m = manifold_by_name("flat", k=2)
    gens = [generator("zero", dim=4), generator("linear_j", dim=4)]
    pts = sample_points(m, 3, seed=8)
    results = identity_suite(m, pts, gens, CFG)
    assert _all_pass(results)
    core = [r for r in results if r.classification == "core"]
    assert core and all(r.relative.max() < 1e-9 for r in core)
    ids = [r.id for r in results]
    assert ids == sorted(set(ids))
    assert all(len(r.passed) == 3 for r in results)


def test_suite_covers_full_catalog_on_kahler():
    m = manifold_by_name("fs", k=2)
    gens = [generator("linear_j", dim=4), generator("grad", dim=4)]
    results = identity_suite(m, sample_points(m, 1, seed=9), gens, CFG)
    assert {r.id for r in results} == set(IDENTITY_CATALOG)
    assert _all_pass(results)


def test_suite_non_kahler_reclassifies():
    """On the conformal metric the Kahler-hypothesis block must fail loudly
    (that is its pass criterion) and the Kahler-only block must not run."""
    m = manifold_by_name("conformal-nonkahler")
    gens = [generator("linear_j", dim=4)]
    results = identity_suite(m, sample_points(m, 2, seed=10), gens, CFG)
    assert _all_pass(results)
    by_class = {}
    for r in results:
        by_class.setdefault(r.classification, []).append(r)
    assert "expected-fail" in by_class
    for r in by_class["expected-fail"]:
        assert (r.relative >= EXPECTED_FAIL_FLOOR).all()
    ran = {r.id for r in results}
    for ident, info in IDENTITY_CATALOG.items():
        if info.scope == "kahler_only":
            assert ident not in ran
        else:
            assert ident in ran


def test_suite_requires_generators():
    """No generator, or no point: an error, never rows that pass vacuously."""
    m = manifold_by_name("flat", k=2)
    for points, gens, missing in (
        (np.zeros((1, 4)), [], "generator"),
        (np.zeros((0, 4)), [generator("zero", dim=4)], "point"),
    ):
        with pytest.raises(ValueError, match=missing):
            identity_suite(m, points, gens, CFG)


def test_suite_deterministic():
    m = manifold_by_name("fs", k=2)
    gens = [generator("random_poly", dim=4, seed=11)]
    pts = sample_points(m, 2, seed=11)
    a = identity_suite(m, pts, gens, CFG)
    b = identity_suite(m, pts, gens, CFG)
    assert all(len(r.passed) == 2 for r in a)
    _assert_same_rows(a, b)


def test_independence_identities_vacuous_with_one_generator():
    m = manifold_by_name("fs", k=2)
    results = identity_suite(
        m, sample_points(m, 1, seed=12), [generator("linear_j", dim=4)], CFG
    )
    hind = [r for r in results if r.id.startswith("I-HIND-")]
    assert len(hind) == 6
    assert all(r.passed.all() and (r.max_residual == 0.0).all() for r in hind)


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
        assert r.details["violated"].tolist() == [0.0]
        assert r.passed.tolist() == [True]
    assert cond["I-HYB-COND-1"].details["part1_satisfied"].tolist() == [2.0]
    assert cond["I-HYB-COND-2"].details["part1_satisfied"].tolist() == [1.0]


SCHEMES = {
    "analytic": CFG,
    "fd2": DiffConfig(scheme="fd2"),
    "fd4": DiffConfig(scheme="fd4"),
    "fd2r": DiffConfig(scheme="fd2", richardson=True),
    "fd4r": DiffConfig(scheme="fd4", richardson=True),
}


def _four(n):
    """The generators zero, linear_j, grad and random_poly:3 in dimension n."""
    return [
        generator("zero", dim=n),
        generator("linear_j", dim=n),
        generator("grad", dim=n),
        generator("random_poly", dim=n, seed=3),
    ]


@pytest.mark.parametrize("scheme", ["analytic", "fd4"])
@pytest.mark.parametrize("points", [1, 2, 5])
def test_suite_differentiates_each_field_once_per_job(monkeypatch, points, scheme):
    """One metric jet, one structure jet and one jet per generator for all
    points of an identity_suite call; F and G come from the product rule,
    never from differencing."""
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
    results = identity_suite(m, sample_points(m, points, seed=0), gens, SCHEMES[scheme])
    assert all(len(r.passed) == points for r in results)
    assert _all_pass(results)
    assert calls == {"g": 1, "A": 1, "zero": 1, "linear_j": 1, "random_poly:3": 1}


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("name", ["fs", "hyperbolic"])
def test_suite_passes_on_sheared_charts(name, k, scheme):
    """A Kahler chart in sheared coordinates carries a structure that varies,
    so the terms of the connection and of the metricity defects that
    multiply dA are read; every row passes, under every scheme."""
    m = sheared(manifold_by_name(name, k=k))
    pts = sample_points(m, 3, seed=0)
    assert norm_max(point_jets(m, pts, CFG).da, 3).min() > 0.1
    results = identity_suite(m, pts, _four(m.n), SCHEMES[scheme])
    assert all(r.classification != "expected-fail" for r in results)
    assert _all_pass(results), [r.id for r in results if not r.passed.all()]


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("d", [1, 3])
def test_suite_passes_on_twisted_charts(d, k, scheme):
    """Flat space through a twisted frame field is almost Hermitian and not
    Kahler, integrable at d = 1 and not at d = 3: under every scheme
    every hermitian row holds and the seven Kahler-hypothesis rows fail, as
    expected."""
    m = twisted(k, d)
    results = identity_suite(m, sample_points(m, 3, seed=0), _four(m.n), SCHEMES[scheme])
    assert sum(r.classification == "expected-fail" for r in results) == 7
    assert _all_pass(results), [r.id for r in results if not r.passed.all()]


@pytest.mark.parametrize("k", [2, 4])
def test_a_kahler_chart_marked_not_kahler_fails_every_expected_fail_row(k):
    """The twisted chart at d = 0 is flat space sheared, Kahler though marked
    not: on the analytic path each of the seven expected-fail rows fails at
    every point, so a mislabelled chart is caught.  (Under fd4 the noise of
    R^g lifts all of them but I-METRICITY above the floor.)"""
    m = twisted(k, 0)
    results = identity_suite(m, sample_points(m, 3, seed=0), _four(m.n), CFG)
    expected_fail = [r for r in results if r.classification == "expected-fail"]
    assert len(expected_fail) == 7
    assert not any(r.passed.any() for r in expected_fail)
    assert all(r.passed.all() for r in results if r.classification != "expected-fail")


def test_suite_evaluates_hybrid_conclusions_only_under_their_hypotheses(monkeypatch):
    """An I-HYB-COND conclusion is computed only where its hypothesis holds,
    and the rules run only on rows whose rank-one blocks do not vanish.  The
    vanishing-block mask is the one the suite reads, ``equals_r_g``; it holds
    at least where D1 = 0 for kind 1 and pi = nabla^g pi = 0 for the other
    kinds, and its rows are R^g but for the sign of a zero.  Per part,
    the rows handed to the rules are, in order, the held rows outside the
    mask; with the held rows inside it, which take R^g's rules, they are the
    (point, generator) pairs the report rows count as satisfied.  Checked
    with the zero generator, whose rows are all in the mask, and with the
    closed pi of grad and const, whose kind-1 rows are.  Each part holds
    rows for the first set; for grad and const only the kind-1 part-2 rows
    hold at these points, so part 1 holds none and the rules see none."""
    m = manifold_by_name("fs", k=2)
    pts = sample_points(m, 2, seed=0)
    zero_set = [
        generator("zero", dim=4),
        generator("linear_j", dim=4),
        generator("random_poly", dim=4, seed=3),
    ]
    # (generators, kinds with reused rows, parts that hold rows, rules run)
    cases = (
        (zero_set, set(range(6)), (True, True), True),
        (SEVEN[2:4], {1}, (False, True), False),
    )
    for gens, masked_kinds, parts_hold, rules_run in cases:
        pj = point_jets(m, pts, CFG)
        gj = generator_jets(pj, gens)
        held = _held_rows(monkeypatch, pj, gj)
        b = curvature_bundle(pj, gj)
        vanish = equals_r_g(b)
        no_pi = ~(gj.pi.any(-1) | gj.nabla_pi.any((-2, -1)))
        old = np.stack([~gj.d[1].any((-2, -1)) if t == 1 else no_pi for t in range(6)])
        assert (vanish >= old).all()
        # rotation_rules receives lowered rows, commutation_rules the (1,3) rows
        received = {"rotation_rules": [], "commutation_rules": []}
        with monkeypatch.context() as patch:
            for name in received:

                def counted(*args, _name=name, _original=getattr(invariants, name)):
                    received[_name].extend(args[0])
                    return _original(*args)

                patch.setattr(invariants, name, counted)
            results = identity_suite(m, pts, gens, CFG)
        rows = [r for r in results if r.id.startswith("I-HYB-COND")]
        assert len(rows) == 6 and all(len(r.passed) == 2 for r in rows)
        reused = held & vanish[..., None]
        assert {int(kind) for kind in np.nonzero(reused)[0]} == masked_kinds
        for kind, point, gen in zip(*np.nonzero(vanish)):
            assert (b.r[kind, point, gen] == b.pj.r_g[point, 0]).all()
        for part, rules in enumerate(("rotation_rules", "commutation_rules")):
            satisfied = sum(r.details[f"part{part + 1}_satisfied"].sum() for r in rows)
            handed = np.nonzero(held[..., part] & ~vanish)
            want = b.r[handed]
            if not part:
                want = lowered(want, b.pj.g[handed[1], 0])
            assert len(received[rules]) == len(want)
            assert np.array_equal(np.array(received[rules]).reshape(want.shape), want)
            assert len(received[rules]) + reused[..., part].sum() == satisfied
            assert (0 < satisfied) == parts_hold[part]
            assert satisfied < 6 * 2 * len(gens)
        assert (sum(len(v) for v in received.values()) > 0) == rules_run


def _direct_rules(b, row):
    """(residual, scale) of both I-HYB-COND parts for one (kind, point,
    generator) row, from the rules called on that row of the R stack alone."""
    _, point, gen = row
    r, a = b.r[row], b.pj.a[point, 0]
    rl = lowered(r, b.pj.g[point, 0])
    scale = np.maximum(b.scale[point, gen], norm_max(rl, 4))
    return [
        (functools.reduce(np.maximum, rules.values()), scale)
        for rules in (rotation_rules(rl, a), commutation_rules(r, rl, a))
    ]


def _r_g_rows_case(name):
    """(chart, generators, scheme) of one I-HYB-COND row case, by id, and
    the kinds whose held rows equal R^g: every kind under the zero
    generator; kind 1 alone under a closed pi (grad, const), whose D1 = 0."""
    if name == "fs-k8":
        return manifold_by_name("fs", k=8), K8_THREE, CFG, set(range(6))
    if name == "fs-no-zero":
        gens = [generator("random_poly", dim=4, seed=s) for s in (1, 2)]
        return manifold_by_name("fs", k=2), gens, CFG, set()
    if name == "fs-closed-pi":
        return manifold_by_name("fs", k=2), SEVEN[2:4], CFG, {1}
    chart, scheme = name.rsplit("-", 1)
    return manifold_by_name(chart, k=2), SEVEN, SCHEMES[scheme], set(range(6))


R_G_ROW_CASES = [
    f"{c}-{s}" for c in ("flat", "fs", "hyperbolic") for s in ("analytic", "fd4", "fd2r")
] + ["fs-k8", "fs-no-zero", "fs-closed-pi"]


@pytest.mark.parametrize("name", R_G_ROW_CASES)
def test_every_hybrid_row_equals_the_rules_on_its_own_curvature(monkeypatch, name):
    m, gens, cfg, equal_kinds = _r_g_rows_case(name)
    held, got_equal_kinds = _check_hybrid_rows(monkeypatch, m, gens, cfg)
    assert held > 0
    assert got_equal_kinds == equal_kinds


@pytest.mark.parametrize("name", R_G_ROW_CASES)
def test_every_row_the_r_g_mask_holds_is_r_g(name):
    """Wherever ``equals_r_g`` holds, on every row of the R stack, held or
    not, R^theta equals R^g, a zero of either sign counting as equal.  The
    mask holds wherever pi = nabla^g pi = 0, and for kind 1 exactly where
    D1 = 0."""
    m, gens, cfg, _ = _r_g_rows_case(name)
    pj = point_jets(m, sample_points(m, 2, seed=27), cfg)
    gj = generator_jets(pj, gens)
    b = curvature_bundle(pj, gj)
    mask = equals_r_g(b)
    assert mask.shape == b.r.shape[:3]
    for kind, point, gen in zip(*np.nonzero(mask)):
        assert (b.r[kind, point, gen] == pj.r_g[point, 0]).all(), (kind, point, gen)
    no_pi = ~(gj.pi.any(-1) | gj.nabla_pi.any((-2, -1)))
    assert (mask >= no_pi).all()
    assert np.array_equal(mask[1], ~gj.d[1].any((-2, -1)))


def test_every_table_row_finds_its_block_in_the_bundle():
    """Each block that a row of ``R_TERMS`` or ``H_TERMS`` names is an entry
    of the bundle's one dict, a (P, G, n, n) array."""
    m = manifold_by_name("fs", k=2)
    pj = point_jets(m, sample_points(m, 2, seed=25), CFG)
    b = curvature_bundle(pj, generator_jets(pj, SEVEN[:3]))
    for table in (R_TERMS, invariants.H_TERMS):
        for terms in table.values():
            for _, name, _, _ in terms:
                assert b.blocks[name].shape == (2, 3, 4, 4), name


def _held_rows(monkeypatch, pj, gj):
    """The held (kind, point, generator, part) rows of I-HYB-COND, as a
    boolean (6, P, G, 2) array: the rows that read NaN when every rule, of
    R^theta or of R^g, returns NaN."""
    nan_rules = {k: np.full_like(v, np.nan) for k, v in kahler_identities(pj).items()}
    with monkeypatch.context() as patch:
        for name in ("rotation_rules", "commutation_rules"):
            patch.setattr(invariants, name, lambda *args: {"nan": np.full(len(args[0]), np.nan)})
        patch.setattr(invariants, "kahler_identities", lambda _: nan_rules)
        probe = invariants._Job(pj, gj, 1e-6, kahler_chart=True)
        res = np.stack([res for res, _, _ in probe.hyb_cond])
    return np.isnan(res).reshape(res.shape[:2] + (-1, 2))


def _check_hybrid_rows(monkeypatch, m, gens, cfg):
    """Every held I-HYB-COND row's (residual, scale) is, bit for bit, the
    rules called on that row's own R^theta; every other row reads (0, 0),
    but for the (0, 1) of a (kind, point) with no conclusion.  Returns the
    number of held rows and the kinds of those whose R^theta equals R^g."""
    pts = sample_points(m, 2, seed=27)
    pj = point_jets(m, pts, cfg)
    gj = generator_jets(pj, gens)
    held = _held_rows(monkeypatch, pj, gj)
    got = invariants._Job(pj, gj, 1e-6, kahler_chart=True).hyb_cond
    b = curvature_bundle(pj, gj)  # the job keeps its bundle with r None
    equal_kinds = set()
    for kind, (res, sc, details) in enumerate(got):
        res, sc = (x.reshape(held.shape[1:]) for x in (res, sc))
        for point in range(len(pts)):
            assert list(held[kind, point].sum(0)) == [
                details["part1_satisfied"][point], details["part2_satisfied"][point]
            ]
            for gen in range(len(gens)):
                row = (kind, point, gen)
                for part, want in enumerate(_direct_rules(b, row)):
                    if not held[row + (part,)]:
                        empty = (gen, part) == (0, 0) and not held[kind, point].any()
                        want = (0.0, float(empty))
                    assert (res[point, gen, part], sc[point, gen, part]) == want, (row, part)
                if held[row].any() and np.array_equal(b.r[row], b.pj.r_g[point, 0]):
                    equal_kinds.add(kind)
    return int(held.sum()), equal_kinds


def _rows_close(got, want, rtol=1e-12):
    assert (got.id, got.classification) == (want.id, want.classification)
    assert np.array_equal(got.passed, want.passed), got.id
    for field in ("max_residual", "scale", "relative"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=rtol, abs=0), (
            got.id, field
        )
    assert (got.details is None) == (want.details is None)
    if got.details is not None:
        assert got.details.keys() == want.details.keys()
        for key, value in want.details.items():
            assert got.details[key] == pytest.approx(value, rel=rtol, abs=0), (got.id, key)


def _seven(dim):
    """Seven generators of every kind the catalog has, in dimension `dim`."""
    return [
        generator("zero", dim=dim),
        generator("linear_j", dim=dim),
        generator("grad", dim=dim),
        generator("const", dim=dim, components=[0.3, -0.2, 0.1, 0.5, -0.7, 0.25, 0.9, -0.4][:dim]),
        *(generator("random_poly", dim=dim, seed=seed) for seed in (1, 2, 3)),
    ]


SEVEN = _seven(4)


K8_GENS = [generator("zero", dim=16), generator("random_poly", dim=16, seed=3)]
K8_THREE = [K8_GENS[0], generator("linear_j", dim=16), K8_GENS[1]]
SUITE_GENS = {2: SEVEN, 4: _seven(8), 8: K8_GENS}  # the generators of a suite case, by k


@functools.cache
def _one_point_rows(name, scheme, k, index):
    """The rows of point `index` of sample_points(seed=21) alone; a sample
    is a prefix of every larger one, so runs of several sizes share them."""
    m = manifold_by_name(name, k=k)
    point = sample_points(m, index + 1, seed=21)[index]
    return identity_suite(m, point[None, :], SUITE_GENS[k], SCHEMES[scheme])


@pytest.mark.parametrize(
    "name,scheme,k,points",
    [
        # the k=2 cases keep their ids: the bare chart name when analytic
        pytest.param(name, scheme, 2, 4, id=name if scheme == "analytic" else f"{name}-{scheme}")
        for scheme in SCHEMES
        for name in ("flat", "fs", "hyperbolic", "conformal-nonkahler")
    ]
    # n=16 batches large enough that one batched jet differs from one-point jets
    + [pytest.param("fs", "analytic", 8, p, id=f"fs-k8-P{p}") for p in (8, 10, 20)]
    # n=8 with seven generators: blocks of at most 4 points, so 9 run as 3 + 3 + 3
    + [pytest.param("fs", "analytic", 4, 9, id="fs-k4-P9")],
)
def test_batched_suite_equals_single_point_runs(name, scheme, k, points):
    """One call over P points gives, row by row and bit for bit, what P
    one-point calls give, under every derivative scheme, at n=16, and over
    several multi-point blocks."""
    m, cfg = manifold_by_name(name, k=k), SCHEMES[scheme]
    pts = sample_points(m, points, seed=21)
    batched = identity_suite(m, pts, SUITE_GENS[k], cfg)
    assert all(len(r.passed) == points for r in batched)
    for index in range(points):
        _assert_same_rows(batched, _one_point_rows(name, scheme, k, index), point=index)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_the_largest_block_of_the_budget_equals_one_point_jets(k):
    """identity_suite's largest block, one generator's, holds
    _BLOCK_ARRAY_BYTES // (n^4 8) points (8192 at k=1, so P n^3 = 65536).
    At 16 evenly spaced points of it, every PointJets and GeneratorJets
    array is bit for bit the one-point call's (the D blocks, kind first,
    sliced on their point axis); a budget that builds blocks past that
    regime fails here."""
    m = manifold_by_name("fs", k=k)
    size = max(1, invariants._BLOCK_ARRAY_BYTES // (m.n**4 * 8))
    gens = [generator("random_poly", dim=m.n, seed=3)]
    pts = sample_points(m, size, seed=21)
    pj = point_jets(m, pts, CFG)
    records = (pj, generator_jets(pj, gens))
    for index in sorted(set(np.linspace(0, size - 1, 16).astype(int))):
        one = point_jets(m, pts[index : index + 1], CFG)  # a one-point job's block
        for batched, single in zip(records, (one, generator_jets(one, gens))):
            for f in dataclasses.fields(single):
                want = getattr(single, f.name)
                if isinstance(want, np.ndarray):
                    got = getattr(batched, f.name)
                    got = got[:, index : index + 1] if f.name == "d" else got[index : index + 1]
                    assert got.shape == want.shape, (f.name, index)
                    assert got.tobytes() == want.tobytes(), (f.name, index)


def test_traced_peak_is_bounded_in_the_number_of_points():
    """Points run in blocks sized by the byte budget: at n=16, ten points
    peak within 1.2 times one point (one batch of ten peaks near ten times)."""
    m = manifold_by_name("fs", k=8)
    pts = sample_points(m, 10, seed=21)
    peaks = []
    for count in (1, 10):
        tracemalloc.start()
        try:
            identity_suite(m, pts[:count], K8_GENS, CFG)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_rows_hold_at_most_57_bytes_per_identity_and_point():
    """One record of (P,) arrays per identity, no object per (identity,
    point): at n=2, where the rows outweigh the working set, what a call
    leaves allocated is at most 57 bytes a row (17 MiB at 8192 points)."""
    m = manifold_by_name("fs", k=1)
    gens = [generator("linear_j", dim=2)]
    pts = sample_points(m, 1024, seed=0)
    identity_suite(m, pts[:2], gens, CFG)  # first-call caches stay out of the trace
    tracemalloc.start()
    try:
        results = identity_suite(m, pts, gens, CFG)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = sum(len(r.passed) for r in results)
    assert rows == len(IDENTITY_CATALOG) * len(pts)
    assert held <= 57 * rows, held / rows


def test_h_tensors_take_over_the_curvature_stack():
    """A Kahler _Job builds each H^theta over R^theta, in the memory of the
    bundle's one stack, bit for bit the H^theta of a new array, with its
    max-norm; it keeps the bundle with r None, so a late read of R^theta
    fails, while the bundle scale, taken at assembly, is a fresh bundle's."""
    m = manifold_by_name("fs", k=2)
    pj = point_jets(m, sample_points(m, 2, seed=25), CFG)
    gj = generator_jets(pj, SEVEN[:3])
    job = invariants._Job(pj, gj, 1e-6, kahler_chart=True)
    fresh = curvature_bundle(pj, gj)
    stack = job.tensors["H0"][0].base
    assert stack.shape == fresh.r.shape
    for theta in range(6):
        h, norm = job.tensors[f"H{theta}"]
        assert h.base is stack and np.shares_memory(h, stack[theta])
        want = h_tensor(theta, fresh)
        np.testing.assert_array_equal(h, want)
        assert norm.tobytes() == norm_max(want, 4).tobytes()
    assert job.b.r is None
    with pytest.raises(TypeError):
        job.b.r[1]
    np.testing.assert_array_equal(job.b.scale, fresh.scale)


def _bits(value):
    """Shape, dtype and bytes of every array in a nest of dicts, lists and tuples."""
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if value is None:
        return None
    arr = np.asarray(value)
    return arr.shape, arr.dtype.str, arr.tobytes()


def test_a_job_holds_each_datum_in_one_record():
    """The bundle reads g, A, R^g, pi, nabla^g pi and the D blocks from the
    PointJets and GeneratorJets it was built from: no array field of it is
    or views an array of those records, and of its blocks exactly d1..d3
    are views of ``gj.d``.  _Job(pj, gj, tol, True) builds the Kahler
    rules, the torsion identities and the bundle itself;
    its bundle, I-R1COMM and I-HYB-COND rows and tensors are bit for bit
    those built by hand from a fresh bundle, and every evaluator reads them."""
    m = manifold_by_name("fs", k=2)
    pj = point_jets(m, sample_points(m, 2, seed=25), CFG)
    gj = generator_jets(pj, SEVEN[:3])
    built = invariants._Job(pj, gj, 1e-6, kahler_chart=True)
    assert built.b.pj is pj and built.b.gj is gj
    records = [
        x for rec in (pj, gj) for v in vars(rec).values()
        for x in (v if isinstance(v, tuple) else (v,)) if isinstance(x, np.ndarray)
    ]
    views = {"d1": gj.d[1], "d2": gj.d[2], "d3": gj.d[3]}
    for field in dataclasses.fields(built.b):
        value = getattr(built.b, field.name)
        for key, array in value.items() if isinstance(value, dict) else [(field.name, value)]:
            if key in views:
                assert np.shares_memory(array, views[key]), key
                np.testing.assert_array_equal(array, views[key])
            elif isinstance(array, np.ndarray):
                assert not any(np.may_share_memory(array, x) for x in records), key
    assert built.b.blocks.keys() >= views.keys()
    b = curvature_bundle(pj, gj)
    kahler = kahler_identities(pj)
    derived = lambda x: [
        getattr(x, f.name) for f in dataclasses.fields(x) if f.name not in ("pj", "gj", "r")
    ]
    by_hand = {
        "kahler": kahler,
        "torsion": torsion_identities(pj, gj),
        "r1comm": invariants._r1comm(b),
        "hyb_cond": invariants._hybrid_conditions(b, kahler, 1e-6),
        "b": derived(b),
        "tensors": {
            **{f"H{t}": (h_tensor(t, b), norm_max(h_tensor(t, b), 4)) for t in range(6)},
            "W": (weyl_projective(pj), norm_max(weyl_projective(pj), 4)),
            "P": (hol_projective(pj), norm_max(hol_projective(pj), 4)),
        },
    }
    got = {key: getattr(built, key) for key in by_hand}
    got["b"] = derived(built.b)
    assert _bits(got) == _bits(by_hand)
    assert IDENTITY_CATALOG["I-R1COMM"].evaluate(built) is built.r1comm
    for t in range(6):
        assert IDENTITY_CATALOG[f"I-HYB-COND-{t}"].evaluate(built) is built.hyb_cond[t]


@pytest.mark.parametrize("name", ["fs", "conformal-nonkahler"])
def test_permuting_generators_leaves_every_row_unchanged(name):
    m = manifold_by_name(name, k=2)
    pts = sample_points(m, 3, seed=22)
    want = identity_suite(m, pts, SEVEN, CFG)
    order = [4, 0, 6, 2, 5, 1, 3]
    got = identity_suite(m, pts, [SEVEN[i] for i in order], CFG)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _rows_close(g, w)


@pytest.mark.parametrize("k", [2, 8])
def test_stacked_h_tensor_equals_the_per_bundle_one(k):
    m = manifold_by_name("fs", k=k)
    n = m.n
    gens = [generator("linear_j", dim=n), generator("random_poly", dim=n, seed=5)]
    pts = sample_points(m, 2, seed=23)
    pj = point_jets(m, pts, CFG)
    b = curvature_bundle(pj, generator_jets(pj, gens))
    assert b.r.shape == (6, 2, 2) + (n,) * 4
    for theta in range(6):
        stacked = h_tensor(theta, b)
        assert stacked.shape == (2, 2) + (n,) * 4
        for i, p in enumerate(pts):
            for j, gen in enumerate(gens):
                single = h_tensor(theta, bundle(m, p, gen))
                scale = max(norm_max(single), 1.0)
                assert norm_max(stacked[i, j] - single) <= 1e-13 * scale, (theta, i, j)


@pytest.mark.parametrize(
    "points,gens,per_block",
    [(1, 1, None), (2, 3, None), (4, 7, None), (5, 7, 2)],
    ids=["1-1", "2-3", "4-7", "5-7-blocks-of-2"],
)
def test_suite_builds_one_bundle_and_six_h_tensors_per_call(monkeypatch, points, gens, per_block):
    """Everything after the jets runs once per block of points: at n=4
    every (P, G) here fits one block, unless the budget holds `per_block`
    points a block (five points then run as 2 + 2 + 1)."""
    m = manifold_by_name("hyperbolic", k=2)
    blocks = 1
    if per_block is not None:
        monkeypatch.setattr(invariants, "_BLOCK_ARRAY_BYTES", per_block * gens * m.n**4 * 8)
        blocks = -(-points // per_block)
    calls = _count_calls(monkeypatch, ("curvature_bundle", "h_tensor"))
    results = identity_suite(m, sample_points(m, points, seed=24), SEVEN[:gens], CFG)
    assert _all_pass(results)
    assert calls == {"curvature_bundle": blocks, "h_tensor": 6 * blocks}


def _count_calls(monkeypatch, names):
    """A Counter of the calls that identity_suite makes through each of
    `names` in ``invariants``."""
    calls = Counter()
    for name in names:

        def counted(*args, _name=name, _original=getattr(invariants, name), **kw):
            calls[_name] += 1
            return _original(*args, **kw)

        monkeypatch.setattr(invariants, name, counted)
    return calls


@pytest.mark.parametrize("chart", ["conformal-nonkahler", "twisted-3"])
def test_a_non_kahler_suite_builds_no_curvature_stack(monkeypatch, chart):
    """On a chart not marked Kahler only the first stage runs: no bundle,
    no commutator curvature and no H^theta, while every hermitian and
    Kahler-hypothesis row is there."""
    calls = _count_calls(monkeypatch, ("curvature_bundle", "commutator_curvature", "h_tensor"))
    m = twisted(2, 3) if chart == "twisted-3" else manifold_by_name(chart, k=2)
    results = identity_suite(m, sample_points(m, 5, seed=24), SEVEN, CFG)
    assert not calls, calls
    ran = {ident for ident, info in IDENTITY_CATALOG.items() if info.scope != "kahler_only"}
    assert {r.id for r in results} == ran


def test_a_non_kahler_suite_call_peaks_below_0_45_mib():
    """conformal-nonkahler at k=2, five points, seven generators: without the
    curvature stack one call peaks near 0.30 MiB (0.82 MiB when every job
    built the whole bundle)."""
    m = manifold_by_name("conformal-nonkahler", k=2)
    pts = sample_points(m, 5, seed=29)
    identity_suite(m, pts, SEVEN, CFG)  # first-call caches stay out of the trace
    tracemalloc.start()
    try:
        identity_suite(m, pts, SEVEN, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.45 * 2**20, peak / 2**20


@functools.cache
def _chunk_case(name):
    """(chart, points, generators, scheme) of one I-HYB-COND chunking case."""
    if name == "fs-k2":
        m = manifold_by_name("fs", k=2)
        return m, sample_points(m, 5, seed=26), SEVEN, CFG
    if name == "hyperbolic-k4-fd4":
        m = manifold_by_name("hyperbolic", k=4)
        gens = [generator(g, dim=8) for g in ("zero", "linear_j")]
        gens.append(generator("random_poly", dim=8, seed=3))
        return m, sample_points(m, 2, seed=26), gens, SCHEMES["fd4"]
    m = manifold_by_name("fs", k=8)
    return m, sample_points(m, 1, seed=26), K8_THREE, CFG


@pytest.mark.parametrize("name", ["fs-k2", "hyperbolic-k4-fd4", "fs-k8"])
@pytest.mark.parametrize("budget", [1, 1 << 60], ids=["one-row", "unlimited"])
def test_hybrid_rows_do_not_depend_on_the_chunk_size(monkeypatch, name, budget):
    """I-HYB-COND gathers the held rows of all six kinds in chunks of
    _SLAB_BYTES: one row per chunk and every row in one chunk (with the
    I-R1COMM chunks and linear slabs of that budget) give the shipped rows
    bit for bit."""
    m, pts, gens, cfg = _chunk_case(name)
    want = identity_suite(m, pts, gens, cfg)
    monkeypatch.setattr(invariants, "_SLAB_BYTES", budget)
    got = identity_suite(m, pts, gens, cfg)
    assert any(r.details is not None and r.details["part2_satisfied"].any() for r in got)
    _assert_same_rows(got, want)


def _whole_array_row(relation, job):
    """A linear relation summed as one array, the reference of the slab
    sums: a zeroed total, each term added in turn (as a c T temporary unless
    c is +-1), then the max-norm; with the scale of the row."""
    tensors, norms = [], [job.b.scale]
    for _, name, *_ in relation.terms:
        tensors.append(invariants._on_r_g(name, job.pj) if name == "H0RG" else job.tensors[name][0])
        norms.append(norm_max(tensors[-1], 4))
    total = np.zeros(np.broadcast_shapes(*(t.shape for t in tensors)))
    for (c, _, *slots), t in zip(relation.terms, tensors):
        c = c(job.pj.n) if callable(c) else c
        if slots:
            t = np.einsum(f"...l{slots[0]}->...lXYZ", t)
        if c == 1:
            total += t
        elif c == -1:
            total -= t
        else:
            total += c * t
    return norm_max(total, 4), functools.reduce(np.maximum, norms)


@functools.cache
def _slab_job(k):
    """A Kahler _Job, which builds its tensors: fs at k=8 with (P, G) =
    (1, 3), a row of several slabs, or at k=2 with (5, 7), a row of one slab."""
    m = manifold_by_name("fs", k=k)
    if k == 2:
        pts, gens = sample_points(m, 5, seed=27), SEVEN
    else:
        pts = sample_points(m, 1, seed=27)
        gens = K8_THREE
    pj = point_jets(m, pts, CFG)
    return invariants._Job(pj, generator_jets(pj, gens), 1e-6, kahler_chart=True)


@pytest.mark.parametrize(
    "k,rows", [(8, None), (8, 6), (2, None), (2, 1)], ids=["k8", "k8-6rows", "k2", "k2-1row"]
)
def test_linear_relation_rows_in_slabs_equal_the_whole_array_sum(monkeypatch, k, rows):
    """Every linear-relation row, I-LIN2 and I-PCOMB3 with their
    slot-permuted views among them, summed slab by slab gives the residual
    and scale of the whole-array sum bit for bit: at k=8 over several slabs
    (the shipped budget, and 6-row slabs, which leave a shorter last one), at
    k=2 in one slab, and one output row per slab."""
    job = _slab_job(k)
    n, batch = job.pj.n, job.gj.pi.shape[:-1]
    row_bytes = 8 * int(np.prod(batch)) * n**3
    assert (n * row_bytes > invariants._SLAB_BYTES) == (k == 8)
    if rows is not None:
        monkeypatch.setattr(invariants, "_SLAB_BYTES", rows * row_bytes)
    relations = {
        ident: entry.evaluate
        for ident, entry in IDENTITY_CATALOG.items()
        if isinstance(entry.evaluate, LinearRelation)
    }
    assert {"I-LIN2", "I-PCOMB3", "I-H0RG"} <= set(relations)
    for ident, relation in relations.items():
        res, scale, details = relation(job)
        want_res, want_scale = _whole_array_row(relation, job)
        assert res.tobytes() == want_res.tobytes(), ident
        assert scale.tobytes() == want_scale.tobytes(), ident
        assert details is None


def test_a_linear_relation_row_peaks_at_its_two_slab_buffers():
    """At n=16 with (P, G) = (1, 3), I-PCOMB3 (non-unit coefficients and
    slot-permuted views) peaks at its two slab buffers plus O(n^3) per
    (point, generator), under one n^4 block: no zeroed total and no c T
    temporary as large as H."""
    job = _slab_job(8)
    n, (p, g) = job.pj.n, job.gj.pi.shape[:-1]
    block = p * g * n**4 * 8
    relation = IDENTITY_CATALOG["I-PCOMB3"].evaluate
    tracemalloc.start()
    try:
        relation(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * invariants._SLAB_BYTES + 4 * p * g * n**3 * 8, peak
    assert peak < block, (peak, block)


def _fresh_bundle(k, points):
    """A bundle whose R stack is still readable: fs at k=8 with the three
    K8_THREE generators, or at k=2 with SEVEN."""
    m = manifold_by_name("fs", k=k)
    pj = point_jets(m, sample_points(m, points, seed=27), CFG)
    return curvature_bundle(pj, generator_jets(pj, SEVEN if k == 2 else K8_THREE))


@pytest.mark.parametrize("k,points", [(2, 2), (8, 1)])
def test_commutator_curvature_into_buffers_equals_a_new_array(monkeypatch, k, points):
    """commutator_curvature written into given buffers, all generators at
    once or one generator at a time, is the new array bit for bit, whatever
    the buffers held; I-R1COMM gives the whole-array residual and scale
    with one generator per chunk, the shipped chunks and one chunk, and a
    Kahler job's I-R1COMM row reads the shipped chunks' result."""
    b = _fresh_bundle(k, points)
    pj, gj = b.pj, b.gj
    want = commutator_curvature(pj, gj)
    out, work = np.full_like(want, np.nan), np.full_like(want, np.inf)
    assert commutator_curvature(pj, gj, out=out, work=work) is out
    assert out.tobytes() == want.tobytes()
    for g in range(want.shape[1]):
        one = GeneratorJets(
            *(x[:, g : g + 1] for x in (gj.pi, gj.dpi, gj.nabla_pi, gj.pq)), gj.d[:, :, g : g + 1]
        )
        out, work = np.full_like(want[:, :1], np.nan), np.full_like(want[:, :1], -1.0)
        commutator_curvature(pj, one, out=out, work=work)
        assert out.tobytes() == want[:, g : g + 1].tobytes(), g
    want_res = norm_max(b.r[1] - want, 4).tobytes()
    want_scale = np.maximum(b.r_norms[1], norm_max(want, 4)).tobytes()
    job = invariants._Job(pj, gj, 1e-6, kahler_chart=True)
    res, scale, details = IDENTITY_CATALOG["I-R1COMM"].evaluate(job)
    assert (res.tobytes(), scale.tobytes(), details) == (want_res, want_scale, None)
    for budget in (1, invariants._SLAB_BYTES, 1 << 60):
        monkeypatch.setattr(invariants, "_SLAB_BYTES", budget)
        res, scale, details = invariants._r1comm(b)
        assert (res.tobytes(), scale.tobytes(), details) == (want_res, want_scale, None), budget


def test_r1comm_peaks_at_its_two_chunk_buffers():
    """At n=16 with (P, G) = (1, 3), I-R1COMM runs one generator per chunk
    through two buffers of one n^4 block each: its peak is those two plus
    O(n^3) per (point, generator), under the G n^4 of one whole curvature."""
    b = _fresh_bundle(8, 1)
    n, (p, g) = b.pj.n, b.gj.pi.shape[:-1]
    invariants._r1comm(b)  # first-call caches stay out of the trace
    tracemalloc.start()
    try:
        invariants._r1comm(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * p * n**4 == invariants._SLAB_BYTES
    assert peak <= 2 * invariants._SLAB_BYTES + 4 * p * g * n**3 * 8, peak
    assert peak < p * g * n**4 * 8, peak


def test_an_n16_suite_call_peaks_within_1_4_times_its_stack():
    """fs at k=8, one point, three generators: one identity_suite call peaks
    at no more than 1.4 times its R/H stack of 6 G n^4 doubles (about 1.36;
    1.82 when I-R1COMM built whole-array temporaries and the Kahler rules of
    R^g ran beside the stack)."""
    m = manifold_by_name("fs", k=8)
    pts = sample_points(m, 1, seed=21)
    identity_suite(m, pts, K8_THREE, CFG)  # first-call caches stay out of the trace
    tracemalloc.start()
    try:
        identity_suite(m, pts, K8_THREE, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = 6 * len(K8_THREE) * m.n**4 * 8
    assert peak <= 1.4 * stack, peak / stack



def _per_identity_block_results(m, points, generators, cfg, plan, tol_audit):
    """The reference of ``_block_results``' one padded array: each
    identity's residuals and scales broadcast together, stacked with their
    relatives and reduced on their own; with the K of each identity by id."""
    pj = point_jets(m, points, cfg)
    job = invariants._Job(pj, generator_jets(pj, generators), tol_audit, m.kahler_expected)
    stats, details, widths = np.empty((3, len(plan), len(points))), {}, {}
    for i, (ident, _, evaluate) in enumerate(plan):
        res, scale, extra = evaluate(job)
        res, scale = np.broadcast_arrays(res, scale)
        stats[:, i] = np.array((res, scale, relative_residual(res, scale))).max(-1)
        widths[ident] = res.shape[-1]
        if extra is not None:
            details[i] = extra
    return stats, details, widths


@pytest.mark.parametrize(
    "name,gens,hind_width",
    [("fs", SEVEN[:1], 1), ("fs", SEVEN, 21), ("conformal-nonkahler", SEVEN, None)],
    ids=["fs-one-generator", "fs-seven", "conformal-nonkahler"],
)
def test_block_maxima_from_one_padded_array_equal_the_per_identity_loop(
    monkeypatch, name, gens, hind_width
):
    """The maxima of a block, taken from one zero-padded (2, identities, P,
    K_max) array, equal the per-identity broadcast, stack and max bit for
    bit, the details too: at k=2 with one generator (I-HIND's (P, 1) zeros
    against the scalar scale 1.0), with seven (I-HIND's 21 pairs, wider than
    G) and on a chart whose Kahler-hypothesis block is expected-fail."""
    m = manifold_by_name(name, k=2)
    pts = sample_points(m, 5, seed=28)
    calls, block_results = [], invariants._block_results

    def spy(*args):
        calls.append((args, block_results(*args)))
        return calls[-1][1]

    monkeypatch.setattr(invariants, "_block_results", spy)
    identity_suite(m, pts, gens, CFG)
    assert calls
    for args, (stats, details) in calls:
        want_stats, want_details, widths = _per_identity_block_results(*args)
        assert stats.shape == want_stats.shape and stats.tobytes() == want_stats.tobytes()
        assert details.keys() == want_details.keys()
        for i, extra in details.items():
            assert extra.keys() == want_details[i].keys()
            assert all(extra[key].tobytes() == want_details[i][key].tobytes() for key in extra)
        assert widths.get("I-HIND-0") == hind_width
        classes = {cls for _, cls, _ in args[4]}
        assert ("expected-fail" in classes) == (hind_width is None)
