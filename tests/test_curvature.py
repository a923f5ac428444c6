"""Curvature of both connections, the D blocks, and the closed-form traces.

The commutator-of-coefficients curvature is the oracle for every assembled
kind; flat space and hand values at (1,0,0,0) pin the conventions."""

import numpy as np
import pytest

from qsc_lab.diff import DiffConfig
from qsc_lab.geometry import generator, manifold_by_name, sample_points
from qsc_lab.tensor import norm_max, relative_residual
from qsc_lab.connections import generator_jets, point_jets
from qsc_lab.curvature import (
    assemble_r_theta,
    closed_form_residuals,
    commutator_curvature,
    curvature_bundle,
    kahler_identities,
    prime_r,
    ricci,
    riemann_g,
    rotate_slots,
    scalar_times_vector,
)

CFG = DiffConfig(scheme="analytic")
P0 = np.array([1.0, 0.0, 0.0, 0.0])


def records(m, p, gen, cfg=CFG):
    pj = point_jets(m, p, cfg)
    return pj, generator_jets(pj, gen)


def bundle(m, p, gen, cfg=CFG):
    return curvature_bundle(*records(m, p, gen, cfg))


def test_flat_riemann_vanishes():
    m = manifold_by_name("flat", k=2)
    r = riemann_g(point_jets(m, [0.4, -0.2, 0.7, 0.1], CFG))
    assert norm_max(r) == 0.0
    assert r.signature.slots == "uddd"


def test_riemann_symmetries_on_curved_metric():
    m = manifold_by_name("fs", k=2)
    gen = generator("zero", dim=4)
    for p in sample_points(m, 3, seed=11):
        b = bundle(m, p, gen)
        rl = b.lowered(None)
        scale = norm_max(rl)
        assert scale > 0.1
        assert norm_max(rl + rl.transpose(1, 0, 2, 3)) < 1e-12 * scale
        assert norm_max(rl + rl.transpose(0, 1, 3, 2)) < 1e-12 * scale
        assert norm_max(rl - rl.transpose(2, 3, 0, 1)) < 1e-12 * scale
        bianchi = rl + rl.transpose(1, 2, 0, 3) + rl.transpose(2, 0, 1, 3)
        assert norm_max(bianchi) < 1e-12 * scale


@pytest.mark.parametrize("name,lam", [("fs", 3.0), ("hyperbolic", -3.0)])
def test_model_spaces_are_einstein(name, lam):
    m = manifold_by_name(name, k=2)
    gen = generator("zero", dim=4)
    for p in sample_points(m, 3, seed=12):
        b = bundle(m, p, gen)
        assert norm_max(b.ric_g - lam * b.g) < 1e-10 * norm_max(b.ric_g)


def test_d_blocks_hand_values():
    """Flat, rotational generator, at (1,0,0,0): nabla pi has the single
    off-diagonal pair (+1, -1) and pi o A = dx1, so the four blocks peel
    apart at the (dx1, dy1) slot."""
    m = manifold_by_name("flat", k=2)
    gen = generator("linear_j", dim=4)
    vals = {0: 1.5, 1: 2.0, 2: 2.0, 3: 1.0}
    b = bundle(m, P0, gen)
    for theta, want in vals.items():
        assert b.d[theta][0, 1] == pytest.approx(want, abs=1e-14)
        assert b.d[theta].shape == (4, 4)


def test_d_block_linear_relations():
    """D1 = D0 - D0^T = D2 - D3^T and D2 + D3 = 2 D0, at generic points."""
    m = manifold_by_name("hyperbolic", k=2)
    gen = generator("random_poly", dim=4, seed=9)
    for p in sample_points(m, 4, seed=13):
        b = bundle(m, p, gen)
        d0, d1, d2, d3 = (b.d[t] for t in range(4))
        assert norm_max(d1 - (d0 - d0.T)) < 1e-13
        assert norm_max(d1 - (d2 - d3.T)) < 1e-13
        assert norm_max(d2 + d3 - 2 * d0) < 1e-13


def test_kind1_hand_values():
    """R1(dx1, dy1)dx1 = -2 dy1 and Ric1(dx1, dx1) = 2 on flat/linear_j."""
    m = manifold_by_name("flat", k=2)
    gen = generator("linear_j", dim=4)
    b = bundle(m, P0, gen)
    r1 = b.r[1].components
    np.testing.assert_allclose(r1[:, 0, 1, 0], [0.0, -2.0, 0.0, 0.0], atol=1e-14)
    assert b.ric[1][0, 0] == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("name", ["flat", "fs", "hyperbolic"])
@pytest.mark.parametrize("gen_name", ["linear_j", "grad", "random_poly"])
def test_kind1_matches_commutator_oracle(name, gen_name):
    """The assembled kind-1 tensor against curvature computed directly from
    the quarter-symmetric coefficients."""
    m = manifold_by_name(name, k=2)
    gen = (
        generator(gen_name, dim=4, seed=8)
        if gen_name == "random_poly"
        else generator(gen_name, dim=4)
    )
    for p in sample_points(m, 3, seed=14):
        pj, gj = records(m, p, gen)
        oracle = commutator_curvature(pj, gj)
        built = curvature_bundle(pj, gj).r[1]
        diff = norm_max(built.components - oracle.components)
        assert relative_residual(diff, [norm_max(oracle)]) < 1e-12


def test_zero_generator_collapses_every_kind():
    m = manifold_by_name("fs", k=2)
    gen = generator("zero", dim=4)
    p = sample_points(m, 1, seed=15)[0]
    b = bundle(m, p, gen)
    for theta in range(6):
        assert norm_max(b.r[theta].components - b.r_g.components) < 1e-13
        assert norm_max(b.ric[theta] - b.ric_g) < 1e-13


def test_general_and_reduced_assemblies_coincide():
    """The two shapes of kinds 0, 4, 5 differ only by pi-triple blocks
    carrying (A^2 + I); any almost complex structure kills that gap, so
    they must agree on the whole catalog, non-integrable case included."""
    for name in ("flat", "fs", "hyperbolic", "conformal-nonkahler"):
        m = manifold_by_name(name, k=2)
        gen = generator("random_poly", dim=4, seed=3)
        p = sample_points(m, 1, seed=7)[0]
        bk = bundle(m, p, gen)
        for theta in range(6):
            general = assemble_r_theta(
                theta, bk.r_g.components, bk.a, bk.pi, bk.d, kahler_form=False
            )
            diff = norm_max(bk.r[theta].components - general)
            assert diff < 1e-12 * max(norm_max(bk.r[theta]), 1.0)


@pytest.mark.parametrize("name", ["flat", "fs", "hyperbolic"])
def test_closed_form_traces(name):
    """Every Ricci / 'R closed shape and every inversion back to the D
    blocks, at random points with a generic generator."""
    m = manifold_by_name(name, k=2)
    gen = generator("random_poly", dim=4, seed=21)
    for p in sample_points(m, 3, seed=16):
        res = closed_form_residuals(bundle(m, p, gen))
        scale = max(res["scale"], 1.0)
        for key, val in res.items():
            if key != "scale":
                assert val < 1e-11 * scale, key


def test_ricci_and_prime_contractions():
    m = manifold_by_name("fs", k=2)
    gen = generator("grad", dim=4)
    p = sample_points(m, 1, seed=17)[0]
    b = bundle(m, p, gen)
    t = b.r[3]
    np.testing.assert_allclose(
        ricci(t).components, np.einsum("mmjk->jk", t.components), atol=0
    )
    np.testing.assert_allclose(
        prime_r(t).components, np.einsum("mijm->ij", t.components), atol=0
    )
    np.testing.assert_allclose(b.ric[3], ricci(t).components, atol=0)
    np.testing.assert_allclose(b.prime_r3, prime_r(t).components, atol=0)


def test_kahler_identities_split_the_catalog():
    for name in ("flat", "fs", "hyperbolic"):
        m = manifold_by_name(name, k=2)
        for p in sample_points(m, 2, seed=18):
            res = kahler_identities(point_jets(m, p, CFG))
            for key in ("k1_operator", "k2_pair_exchange", "k3_inner_outer",
                        "k4_all_four", "k5_last_pair"):
                assert res[key] < 1e-12 * max(res["scale"], 1.0), key
    m = manifold_by_name("conformal-nonkahler")
    res = kahler_identities(point_jets(m, np.array([0.3, 0.1, -0.2, 0.4]), CFG))
    assert res["k1_operator"] > 1e-3 * res["scale"]


def test_scalar_times_vector_pattern():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(3, 3))
    v = rng.normal(size=(3, 3))
    out = scalar_times_vector(s, v, "ij,lk")
    want = np.einsum("ij,lk->lijk", s, v)
    np.testing.assert_allclose(out, want, atol=0)
    out2 = scalar_times_vector(s, v, "jk,li")
    np.testing.assert_allclose(out2, np.einsum("jk,li->lijk", s, v), atol=0)


def test_rotate_slots_feeds_each_slot_through_a():
    """rotate_slots(t, A, (0, 1))[j, k] = t(A d_j, A d_k), slot by slot."""
    rng = np.random.default_rng(1)
    t = rng.normal(size=(4, 4, 4))
    a = rng.normal(size=(4, 4))
    want = np.einsum("mj,pk,mpq->jkq", a, a, t)
    np.testing.assert_allclose(rotate_slots(t, a, (0, 1)), want, atol=1e-12)
    want2 = np.einsum("mq,jkm->jkq", a, t)
    np.testing.assert_allclose(rotate_slots(t, a, (2,)), want2, atol=1e-12)


def test_fd_curvature_tracks_analytic():
    m = manifold_by_name("fs", k=2)
    p = sample_points(m, 1, seed=19)[0]
    exact = riemann_g(point_jets(m, p, CFG))
    fd = riemann_g(point_jets(m, p, DiffConfig(scheme="fd4", step=1e-3)))
    diff = norm_max(fd.components - exact.components)
    assert relative_residual(diff, [norm_max(exact)]) < 1e-7
