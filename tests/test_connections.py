"""Connection coefficients, covariant derivatives, torsion.

Oracles: flat space (all coefficients zero, covariant derivative equals the
coordinate derivative), the conformal metric (Christoffel symbols by hand)
and a finite-difference cross-check of the coefficient derivatives."""

import dataclasses

import numpy as np
import pytest

from charts import cp1_times_ch1
from qsc_lab.diff import DiffConfig, DomainError
from qsc_lab.geometry import generator, manifold_by_name, sample_points
from qsc_lab.connections import (
    _torsion_lowered,
    covariant_derivative,
    generator_jets,
    levi_civita,
    metricity_defects,
    nabla1_pi_defect,
    point_jets,
    quarter_symmetric,
    quarter_symmetric_jets,
    torsion,
    torsion_identities,
)
from qsc_lab.tensor import NumericError, norm_max

CFG = DiffConfig(scheme="analytic")
EXACT = 1e-14


def records(m, p, gen, cfg=CFG):
    pj = point_jets(m, p, cfg)
    return pj, generator_jets(pj, gen)


def test_generator_jets_build_the_d_blocks_and_reject_an_overflow():
    """The D blocks of a generator, kind first, from nabla^g pi and pq =
    pi (x) (pi o A); a pi whose pq overflows is a NumericError there."""
    m = manifold_by_name("conformal-nonkahler", k=2)
    pts = sample_points(m, 2, seed=5)
    pj, gj = records(m, pts, [generator("linear_j", dim=4), generator("grad", dim=4)])
    nabla, pq = gj.nabla_pi, gj.pq
    assert gj.d.shape == (4, 2, 2, 4, 4)
    np.testing.assert_array_equal(pq, gj.pi[..., :, None] * (gj.pi @ pj.a[:, 0])[..., None, :])
    want = (nabla + 0.5 * (pq + pq.swapaxes(-1, -2)), nabla - nabla.swapaxes(-1, -2))
    want += (nabla + pq.swapaxes(-1, -2), nabla + pq)
    for theta in range(4):
        assert norm_max(gj.d[theta] - want[theta]) <= 1e-15 * max(norm_max(want[theta]), 1.0)
    huge = generator("const", dim=4, components=[1e200] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite"):
            generator_jets(pj, [huge])


def test_generator_jets_stack_a_list_on_a_batch():
    """A list of G generators gives (P, G, n) on a batch, each slice what
    that generator alone gives at that point."""
    m = manifold_by_name("fs", k=2)
    gens = [generator("linear_j", dim=4), generator("random_poly", dim=4, seed=2)]
    pts = sample_points(m, 3, seed=8)
    stacked = generator_jets(point_jets(m, pts, CFG), gens)
    assert stacked.pi.shape == (3, 2, 4) and stacked.dpi.shape == (3, 2, 4, 4)
    for j, gen in enumerate(gens):
        for i, p in enumerate(pts):
            alone = generator_jets(point_jets(m, p, CFG), gen)
            assert alone.pi.shape == (4,)
            for key in ("pi", "dpi", "nabla_pi"):
                np.testing.assert_array_equal(getattr(stacked, key)[i, j], getattr(alone, key))


def test_an_empty_generator_list_is_named():
    """An empty list is a ValueError that asks for a generator, at a batch
    or at one point, not numpy's failed unpacking of no jets."""
    m = manifold_by_name("fs", k=2)
    pts = sample_points(m, 2, seed=8)
    for points in (pts, pts[0]):
        with pytest.raises(ValueError, match="at least one generator"):
            generator_jets(point_jets(m, points, CFG), [])


@pytest.mark.parametrize("k, count", [(1, 2), (2, 4), (2, 2)], ids=["G==n-k1", "G==n-k2", "G!=n"])
def test_generator_list_at_one_point_is_rejected(k, count):
    """At one point a stack of generators has no axis of its own to sit on,
    and a later slot rotation would read it as a tensor slot: a list needs
    a (P, n) batch, even of one point."""
    m = manifold_by_name("fs", k=k)
    gens = [generator("random_poly", dim=m.n, seed=s) for s in range(count)]
    p = sample_points(m, 1, seed=8)
    with pytest.raises(ValueError, match=r"\(P, n\) batch"):
        generator_jets(point_jets(m, p[0], CFG), gens)
    assert generator_jets(point_jets(m, p, CFG), gens).pi.shape == (1, count, m.n)


@pytest.mark.parametrize(
    "point, cfg, message",
    [
        ([0.0, 0.0, 1.2, 0.0], CFG, "point .* outside"),
        ([0.0, 0.0, 1.2, 0.0], DiffConfig("fd4"), "point .* outside"),
        ([0.0, 0.0, 0.9999, 0.0], DiffConfig("fd4", 1e-3), "stencil leaves"),
    ],
    ids=["analytic", "fd4", "fd4-stencil"],
)
def test_point_jets_stay_in_the_chart(point, cfg, message):
    """The metric is differentiated under its chart's predicate on every
    chart: on CP^1 x CH^1, |z2| = 1.2 lies outside the CH^1 disc although
    the metric there is finite, and a point just inside the disc has fd4
    stencil points outside it."""
    with pytest.raises(DomainError, match=message):
        point_jets(cp1_times_ch1(), np.array(point), cfg)


def test_flat_christoffel_vanishes():
    m = manifold_by_name("flat", k=2)
    gamma = levi_civita(point_jets(m, [0.3, -0.8, 1.0, 2.0], CFG))
    assert np.max(np.abs(gamma)) == 0.0


def test_conformal_christoffel_hand_values():
    """g = exp(2 x1) I: Gamma^i_{jk} = d_j s delta_ik + d_k s delta_ij
    - d_i s delta_jk with s = x1, so the only derivative is along slot 0."""
    m = manifold_by_name("conformal-nonkahler")
    gamma = levi_civita(point_jets(m, np.zeros(4), CFG))
    want = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                want[i, j, k] = (
                    (j == 0) * (i == k) + (k == 0) * (i == j) - (i == 0) * (j == k)
                )
    np.testing.assert_allclose(gamma, want, atol=EXACT)
    assert gamma[0, 0, 0] == pytest.approx(1.0)
    assert gamma[0, 1, 1] == pytest.approx(-1.0)


def test_quarter_symmetric_coefficients_flat():
    """On flat space L^i_{jk} = -pi_j A^i_k exactly."""
    m = manifold_by_name("flat", k=2)
    gen = generator("linear_j", dim=4)
    p = np.array([1.0, 0.0, 0.0, 0.0])
    gamma = quarter_symmetric(*records(m, p, gen))
    pi = gen.value(p)
    a = m.structure_field.value(p)
    np.testing.assert_allclose(gamma, -np.einsum("j,ik->ijk", pi, a), atol=0)
    assert gamma[1, 1, 0] == pytest.approx(-1.0)
    assert gamma[0, 1, 1] == pytest.approx(1.0)


def test_coefficient_antisymmetry_equals_torsion():
    """L^i_{jk} - L^i_{kj} reproduces the torsion components."""
    for name in ("flat", "fs", "hyperbolic", "conformal-nonkahler"):
        m = manifold_by_name(name, k=2)
        gen = generator("random_poly", dim=m.n, seed=5)
        for p in sample_points(m, 3, seed=1):
            l = quarter_symmetric(*records(m, p, gen))
            t = torsion(gen.value(p), m.structure_field.value(p))
            assert np.max(np.abs((l - np.swapaxes(l, 1, 2)) - t)) < EXACT


def test_covariant_derivative_flat_is_coordinate_derivative():
    m = manifold_by_name("flat", k=2)
    gen = generator("random_poly", dim=4, seed=2)
    p = np.array([0.2, 0.4, -0.1, 0.3])
    lc = levi_civita(point_jets(m, p, CFG))
    pi, dpi = gen.jets(p, CFG)
    got = covariant_derivative(lc, pi, dpi, "d")
    np.testing.assert_allclose(got, dpi, atol=0)


def test_covariant_derivative_product_rule():
    """nabla respects the pairing: d_a (pi_Y) = (nabla pi)(Y) + pi(nabla Y)
    checked as nabla g applied to the metric (zero) on a curved manifold."""
    m = manifold_by_name("hyperbolic", k=2)
    p = sample_points(m, 1, seed=10)[0]
    pj = point_jets(m, p, CFG)
    nabla_g = covariant_derivative(levi_civita(pj), pj.g, pj.dg, "dd")
    assert np.max(np.abs(nabla_g)) < 1e-12
    assert nabla_g.shape == (4, 4, 4)


def test_covariant_derivative_mixed_tensor_slots():
    """The structure field (1,1) gets one + and one - coefficient term."""
    m = manifold_by_name("conformal-nonkahler")
    p = np.array([0.1, 0.2, 0.3, 0.4])
    pj = point_jets(m, p, CFG)
    gamma = levi_civita(pj)
    got = covariant_derivative(gamma, pj.a, pj.da, "ud")
    a = m.structure_field.value(p)
    want = (
        np.einsum("iam,mj->aij", gamma, a) - np.einsum("maj,im->aij", gamma, a)
    )
    np.testing.assert_allclose(got, want, atol=EXACT)
    assert np.max(np.abs(got)) > 0.1


def test_quarter_symmetric_jets_match_fd():
    """Analytic dL against a finite difference of L itself."""
    m = manifold_by_name("fs", k=2)
    gen = generator("random_poly", dim=4, seed=4)
    p = np.array([0.15, -0.2, 0.3, 0.1])
    _, dl = quarter_symmetric_jets(*records(m, p, gen))
    h = 1e-4
    for a_dir in range(4):
        pp = p.copy(); pm = p.copy()
        pp[a_dir] += h; pm[a_dir] -= h
        fd = (
            quarter_symmetric(*records(m, pp, gen))
            - quarter_symmetric(*records(m, pm, gen))
        ) / (2 * h)
        assert np.max(np.abs(dl[a_dir] - fd)) < 1e-7


def test_levi_civita_jets_consistency():
    m = manifold_by_name("hyperbolic", k=2)
    p = np.array([0.2, 0.1, -0.15, 0.05])
    pj = point_jets(m, p, CFG)
    gamma, dgamma = pj.gamma, pj.dgamma
    np.testing.assert_allclose(gamma, levi_civita(pj), atol=0)
    h = 1e-4
    pp = p.copy(); pm = p.copy()
    pp[1] += h; pm[1] -= h
    fd = (point_jets(m, pp, CFG).gamma - point_jets(m, pm, CFG).gamma) / (2 * h)
    assert np.max(np.abs(dgamma[1] - fd)) < 1e-7


def test_torsion_hand_value():
    """T(dx1, dy1) = pi(dy1) A dx1 - pi(dx1) A dy1 = dy1 at (1,0,0,0)."""
    m = manifold_by_name("flat", k=2)
    gen = generator("linear_j", dim=4)
    p = np.array([1.0, 0.0, 0.0, 0.0])
    t = torsion(gen.value(p), m.structure_field.value(p))
    np.testing.assert_allclose(t[:, 0, 1], [0.0, 1.0, 0.0, 0.0], atol=0)
    assert np.max(np.abs(t + np.swapaxes(t, 1, 2))) == 0.0


def test_torsion_lowered_matches_metric_pairing():
    m = manifold_by_name("fs", k=2)
    gen = generator("grad", dim=4)
    p = sample_points(m, 1, seed=3)[0]
    pi, a, g = gen.value(p), m.structure_field.value(p), m.metric_field.value(p)
    t = torsion(pi, a)
    tl = _torsion_lowered(pi, a.T @ g)
    np.testing.assert_allclose(tl, np.einsum("mxy,mz->xyz", t, g), atol=1e-14)


@pytest.mark.parametrize("name", ["flat", "fs", "hyperbolic", "conformal-nonkahler"])
def test_torsion_identities_hold_on_all_catalog_manifolds(name):
    """The torsion identities need only the almost Hermitian structure."""
    m = manifold_by_name(name, k=2)
    gen = generator("random_poly", dim=m.n, seed=6)
    for p in sample_points(m, 3, seed=2):
        res = torsion_identities(*records(m, p, gen))
        for key in ("twisted_composition", "lowered_reconstruction", "cyclic_sum"):
            assert res[key] < 1e-13 * max(res["scale"], 1.0)


def _torsion_identities_by_three_operand_einsums(a, pi, f):
    """Reference: every rotation written as one direct einsum."""
    t = np.einsum("k,ij->ijk", pi, a) - np.einsum("j,ik->ijk", pi, a)
    tl = np.einsum("k,jl->jkl", pi, f) - np.einsum("j,kl->jkl", pi, f)
    lhs1 = np.einsum("im,mxy->ixy", a, np.einsum("imp,mx,py->ixy", t, a, a))
    rhs1 = (
        np.einsum("im,mxy->ixy", a, t)
        - np.einsum("imy,mx->ixy", t, a)
        - np.einsum("ixm,my->ixy", t, a)
    )
    tl_axay = np.einsum("mpz,mx,py->xyz", tl, a, a)
    tl_axaz = np.einsum("myp,mx,pz->xyz", tl, a, a)
    tl_ayaz = np.einsum("xmp,my,pz->xyz", tl, a, a)

    def cyc(arr):
        return arr + np.transpose(arr, (1, 2, 0)) + np.transpose(arr, (2, 0, 1))

    return {
        "twisted_composition": np.max(np.abs(lhs1 - rhs1)),
        "lowered_reconstruction": np.max(np.abs(tl - tl_axay - tl_axaz - tl_ayaz)),
        "cyclic_sum": np.max(np.abs(cyc(tl) - cyc(tl_axaz + tl_ayaz))),
        "scale": max(np.max(np.abs(t)), np.max(np.abs(tl))),
    }


@pytest.mark.parametrize("k", [2, 8])
def test_torsion_identities_match_three_operand_einsums(k):
    """The pairwise contractions agree with the direct einsums for a dense A
    and pi, where no product is exact and the identities do not hold."""
    m = manifold_by_name("fs", k=k)
    rng = np.random.default_rng(k)
    pj, gj = records(m, sample_points(m, 1, seed=7)[0], generator("zero", dim=m.n))
    a = rng.normal(size=(m.n, m.n))
    pj = dataclasses.replace(pj, a=a, f=a.T @ pj.g)
    gj = dataclasses.replace(gj, pi=rng.normal(size=m.n))
    got = torsion_identities(pj, gj)
    want = _torsion_identities_by_three_operand_einsums(a, gj.pi, pj.f)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert value > 1.0, key
        np.testing.assert_allclose(got[key], value, rtol=1e-12, err_msg=key)


@pytest.mark.parametrize("name", ["flat", "fs", "hyperbolic"])
def test_quarter_symmetric_preserves_everything_on_kahler(name):
    m = manifold_by_name(name, k=2)
    gen = generator("linear_j", dim=m.n)
    for p in sample_points(m, 2, seed=4):
        res = metricity_defects(*records(m, p, gen))
        for key in ("nabla1_g", "nabla1_f", "nabla1_g_total", "nabla1_a", "nabla_g_a"):
            assert res[key] < 1e-11 * max(res["scale"], 1.0), key


def test_conformal_breaks_structure_parallelism_but_not_g():
    m = manifold_by_name("conformal-nonkahler")
    gen = generator("linear_j", dim=4)
    res = metricity_defects(*records(m, np.zeros(4), gen))
    assert res["nabla1_g"] < 1e-13
    for key in ("nabla1_f", "nabla1_g_total", "nabla1_a", "nabla_g_a"):
        assert res[key] > 1e-3, key


@pytest.mark.parametrize("name", ["flat", "fs", "conformal-nonkahler"])
def test_nabla1_pi_closed_form(name):
    m = manifold_by_name(name, k=2)
    for gen_name in ("linear_j", "grad"):
        gen = generator(gen_name, dim=m.n)
        for p in sample_points(m, 2, seed=5):
            pj, gj = records(m, p, gen)
            # D3 = nabla^g pi + pi (x) (pi o A), built here as well as by generator_jets
            d3 = gj.nabla_pi + np.outer(gj.pi, gj.pi @ pj.a)
            assert norm_max(gj.d[3] - d3) <= 1e-15 * max(norm_max(d3), 1.0)
            res = nabla1_pi_defect(pj, gj)
            assert res["residual"] < 1e-13 * max(res["scale"], 1.0)
