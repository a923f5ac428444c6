"""Curvature of both connections, the D blocks, and the closed-form traces.

The commutator-of-coefficients curvature is the oracle for every assembled
kind; flat space and hand values at (1,0,0,0) pin the conventions."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qsc_lab.diff import DiffConfig
from qsc_lab.geometry import generator, manifold_by_name, sample_points
from qsc_lab.tensor import NumericError, contract_first, norm_max, relative_residual
from qsc_lab.connections import generator_jets, point_jets, support
from qsc_lab.curvature import (
    assemble_r_theta,
    closed_form_residuals,
    commutator_curvature,
    curvature_bundle,
    fold_rank_one,
    kahler_identities,
    lowered,
    riemann_g,
    rotate_slots,
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
    assert r.shape == (4, 4, 4, 4)


def test_riemann_symmetries_on_curved_metric():
    m = manifold_by_name("fs", k=2)
    gen = generator("zero", dim=4)
    for p in sample_points(m, 3, seed=11):
        b = bundle(m, p, gen)
        rl = lowered(b.pj.r_g, b.pj.g)
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
        assert norm_max(b.pj.ric_g - lam * b.pj.g) < 1e-10 * norm_max(b.pj.ric_g)


def test_d_blocks_hand_values():
    """Flat, rotational generator, at (1,0,0,0): nabla pi has the single
    off-diagonal pair (+1, -1) and pi o A = dx1, so the four blocks peel
    apart at the (dx1, dy1) slot."""
    m = manifold_by_name("flat", k=2)
    gen = generator("linear_j", dim=4)
    vals = {0: 1.5, 1: 2.0, 2: 2.0, 3: 1.0}
    b = bundle(m, P0, gen)
    for theta, want in vals.items():
        assert b.gj.d[theta][0, 1] == pytest.approx(want, abs=1e-14)
        assert b.gj.d[theta].shape == (4, 4)


def test_d_block_linear_relations():
    """D1 = D0 - D0^T = D2 - D3^T and D2 + D3 = 2 D0, at generic points."""
    m = manifold_by_name("hyperbolic", k=2)
    gen = generator("random_poly", dim=4, seed=9)
    for p in sample_points(m, 4, seed=13):
        b = bundle(m, p, gen)
        d0, d1, d2, d3 = b.gj.d
        assert norm_max(d1 - (d0 - d0.T)) < 1e-13
        assert norm_max(d1 - (d2 - d3.T)) < 1e-13
        assert norm_max(d2 + d3 - 2 * d0) < 1e-13


def test_kind1_hand_values():
    """R1(dx1, dy1)dx1 = -2 dy1 and Ric1(dx1, dx1) = 2 on flat/linear_j."""
    m = manifold_by_name("flat", k=2)
    gen = generator("linear_j", dim=4)
    b = bundle(m, P0, gen)
    r1 = b.r[1]
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
        diff = norm_max(built - oracle)
        assert relative_residual(diff, norm_max(oracle)) < 1e-12


def test_zero_generator_collapses_every_kind():
    m = manifold_by_name("fs", k=2)
    gen = generator("zero", dim=4)
    p = sample_points(m, 1, seed=15)[0]
    b = bundle(m, p, gen)
    for theta in range(6):
        assert norm_max(b.r[theta] - b.pj.r_g) < 1e-13
        assert norm_max(b.ric[theta] - b.pj.ric_g) < 1e-13


def _pi_triple(pi, vec, arrangement):
    """pi(Z)(pi(Y) V X - pi(X) V Y) style blocks; vec is delta or A^2."""
    if arrangement == "z_yx":
        return np.einsum("k,j,li->lijk", pi, pi, vec) - np.einsum(
            "k,i,lj->lijk", pi, pi, vec
        )
    return np.einsum("j,i,lk->lijk", pi, pi, vec) - np.einsum(
        "j,k,li->lijk", pi, pi, vec
    )


def _general_assembly(theta, r_g, a, pi, d):
    """Reference: the six kinds with A^2 kept explicit, one einsum a block."""
    sa = lambda s, pat: np.einsum(f"{pat}->lijk", s, a)
    a2 = a @ a
    if theta == 1:
        return r_g - sa(d[1], "ij,lk")
    if theta == 2:
        return r_g - sa(d[2], "ik,lj") + sa(d[2], "jk,li")
    if theta == 3:
        return r_g - sa(d[2], "ij,lk") + sa(d[3], "jk,li")
    if theta == 0:
        return (
            r_g
            - 0.5 * sa(d[0] - d[0].T, "ij,lk")
            - 0.5 * sa(d[0], "ik,lj")
            + 0.5 * sa(d[0], "jk,li")
            - 0.25 * _pi_triple(pi, a2, "z_yx")
        )
    if theta == 4:
        return (
            r_g
            - sa(d[3], "ij,lk")
            + sa(d[3], "jk,li")
            - _pi_triple(pi, a2, "z_yx")
        )
    return (
        r_g
        - 0.5 * sa(d[2] - d[3].T, "ij,lk")
        - 0.5 * sa(d[3], "ik,lj")
        + 0.5 * sa(d[2], "jk,li")
        + 0.5 * _pi_triple(pi, a2, "y_xz")
    )


def test_general_and_reduced_assemblies_coincide():
    """The general shapes of kinds 0, 4, 5 and the A^2 = -I shapes the
    bundle uses differ only by pi-triple blocks carrying (A^2 + I); any almost
    complex structure kills that gap, so they must agree on the whole
    catalog, non-integrable case included."""
    for name in ("flat", "fs", "hyperbolic", "conformal-nonkahler"):
        m = manifold_by_name(name, k=2)
        gen = generator("random_poly", dim=4, seed=3)
        p = sample_points(m, 1, seed=7)[0]
        bk = bundle(m, p, gen)
        pj, pi, d = bk.pj, bk.gj.pi, bk.gj.d
        pp = pi[..., :, None] * pi[..., None, :]
        blocks = {"d1": d[1], "d2": d[2], "d3": d[3], "d23": 0.5 * (d[2] + d[3]), "pp": pp}
        for theta in range(6):
            general = _general_assembly(theta, pj.r_g, pj.a, pi, d)
            diff = norm_max(bk.r[theta] - general)
            assert diff < 1e-12 * max(norm_max(bk.r[theta]), 1.0)
            reduced = assemble_r_theta(theta, pj.r_g, pj.a_support, blocks)
            np.testing.assert_array_equal(reduced, bk.r[theta])


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
    np.testing.assert_allclose(b.ric[3], np.einsum("mmjk->jk", b.r[3]), atol=0)
    np.testing.assert_allclose(b.prime_r3, np.einsum("mijm->ij", b.r[3]), atol=0)


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


# (vector slot, the other two slots) of every rank-one pattern
PATTERN_SLOTS = (("lk", "ij"), ("lj", "ik"), ("li", "jk"))


def test_fold_rank_one_matches_einsum():
    """Every V in {I, A}, vector slot and orientation of s, alone and all at
    once, against einsum: a dense A and a block-diagonal rotation (cos/sin
    entries, a support that is no permutation), batch axes (P, G) = (2, 3),
    and a base with a unit generator axis, the scalar 0, none, or a full one
    that out=base folds onto in place, bit for bit the new array's sums."""
    rng = np.random.default_rng(0)
    n = 4
    a = rng.normal(size=(2, 1, n, n))
    s = rng.normal(size=(2, 3, n, n))
    cases = [
        [(rng.normal(), s, v, f"{lhs},{rhs}")]
        for v in ("I", "A")
        for rhs, pair in PATTERN_SLOTS
        for lhs in (pair, pair[::-1])
    ]
    cases.append([term for case in cases for term in case])
    full = rng.normal(size=(2, 3) + (n,) * 4)
    bases = (rng.normal(size=(2, 1) + (n,) * 4), 0.0, None, full)
    for a in (a, _block_rotation(rng.uniform(0, 2 * np.pi, size=(2, 1, n // 2)))):
        vectors, a_support = {"I": np.broadcast_to(np.eye(n), a.shape), "A": a}, support(a)
        for base in bases:
            for terms in cases:
                want = (0.0 if base is None else base) + sum(
                    c * np.einsum(f"...{pattern.replace(',', ',...')}->...lijk", x, vectors[v])
                    for c, x, v, pattern in terms
                )
                got = fold_rank_one(base, a_support, terms)
                assert got.shape == (2, 3) + (n,) * 4
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * norm_max(want))
                if base is full:
                    out = full.copy()
                    assert fold_rank_one(out, a_support, terms, out) is out
                    np.testing.assert_array_equal(out, got)


def _block_rotation(angle: np.ndarray) -> np.ndarray:
    """The block-diagonal rotation by angle[..., p] in the plane (2p, 2p+1)."""
    n = 2 * angle.shape[-1]
    rot = np.zeros(angle.shape[:-1] + (n, n))
    even = np.arange(0, n, 2)
    rot[..., even, even] = rot[..., even + 1, even + 1] = np.cos(angle)
    rot[..., even + 1, even] = np.sin(angle)
    rot[..., even, even + 1] = -np.sin(angle)
    return rot


def _fold_by_matmul(base, a, terms, out=None):
    """The rank-one fold as an n^5 matmul: the A-groups go into the n^3
    diagonals of a zeroed buffer that A is applied to as a whole, the
    reference the fold through the support of A is held to."""
    groups = {"A": {}, "I": {}}
    for c, s, v, pattern in terms:
        lhs, rhs = pattern.split(",")
        s = s.swapaxes(-1, -2) if lhs[0] > lhs[1] else s
        slot, group = rhs[1], groups[v]
        group[slot] = group[slot] + c * s if slot in group else c * s
    blocks = [s.shape[:-2] + (a.shape[-1],) * 4 for g in groups.values() for s in g.values()]
    diagonals = {"k": "...lijl->...lij", "j": "...lilk->...lik", "i": "...lljk->...ljk"}

    def add_diagonals(out, v):
        for slot, s in groups[v].items():
            diagonal = np.einsum(diagonals[slot], out)
            diagonal += s[..., None, :, :]
        return out

    acc = add_diagonals(np.zeros(np.broadcast_shapes(np.shape(base), *blocks)), "A")
    if groups["A"]:
        acc = contract_first(a, acc, 4)
    if out is None:
        out = acc if base is None else np.add(acc, base, out=acc)
    else:
        out += acc
    return add_diagonals(out, "I")


@pytest.mark.parametrize("k", [2, 8])
def test_fold_through_the_support_of_the_catalog_j_equals_the_matmul_bit_for_bit(k):
    """For the standard J, a signed permutation, every product of the fold
    is exact, so writing each block through the nonzero entries of A gives
    the matmul's bytes: every (V, vector slot, orientation) alone and all at
    once, batch axes (P, G) = (2, 3), each kind of base, into a new array,
    onto the base in place, or into a given buffer whose contents it never
    reads."""
    m = manifold_by_name("fs", k=k)
    pj = point_jets(m, sample_points(m, 2, seed=11), CFG)
    n, rng = m.n, np.random.default_rng(k)
    s = rng.normal(size=(2, 3, n, n))
    cases = [
        [(rng.normal(), s, v, f"{lhs},{rhs}")]
        for v in ("I", "A")
        for rhs, pair in PATTERN_SLOTS
        for lhs in (pair, pair[::-1])
    ]
    cases.append([term for case in cases for term in case])
    full = rng.normal(size=(2, 3) + (n,) * 4)
    for base in (rng.normal(size=(2, 1) + (n,) * 4), 0.0, None, full):
        for terms in cases:
            want = _fold_by_matmul(base, pj.a, terms)
            assert fold_rank_one(base, pj.a_support, terms).tobytes() == want.tobytes()
            into = np.full_like(want, np.nan)
            assert fold_rank_one(base, pj.a_support, terms, into) is into
            assert into.tobytes() == want.tobytes()
            if base is full:
                out = full.copy()
                fold_rank_one(out, pj.a_support, terms, out)
                assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_levi_civita_curvature_raises_at_assembly(bad):
    """A non-finite R^g entry reaches every kind, and the max-norms taken at
    assembly catch it: NaN and inf survive max and min."""
    m = manifold_by_name("fs", k=2)
    pj, gj = records(m, sample_points(m, 2, seed=3), [generator("zero", dim=4)] * 2)
    r_g = pj.r_g.copy()
    r_g[1, 0, 2, 0, 1, 3] = bad
    with pytest.raises(NumericError, match="non-finite"):
        curvature_bundle(dataclasses.replace(pj, r_g=r_g), gj)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_levi_civita_curvature_raises_in_the_kahler_rules(bad):
    """The Kahler rules of R^g, which every chart runs and which read no
    bundle, catch a non-finite R^g entry through their scale: the max-norm
    of R^g and of its lowered form."""
    m = manifold_by_name("conformal-nonkahler", k=2)
    pj = point_jets(m, sample_points(m, 2, seed=3), CFG)
    r_g = pj.r_g.copy()
    r_g[1, 0, 2, 0, 1, 3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite"):
        kahler_identities(dataclasses.replace(pj, r_g=r_g))


def test_fold_rank_one_builds_no_n4_temporary():
    """At n=16 with (P, G) = (1, 3), one fold of every group kind peaks at
    two output-sized blocks (the A buffer and the output) plus n^3 per
    (point, generator); one n^4 temporary more would be n times that."""
    rng = np.random.default_rng(7)
    n, p, g = 16, 1, 3
    base = rng.normal(size=(p, 1) + (n,) * 4)
    a = rng.normal(size=(p, 1, n, n))
    s = rng.normal(size=(p, g, n, n))
    terms = [
        (0.5, s, v, f"{lhs},{rhs}")
        for v in ("I", "A")
        for rhs, pair in PATTERN_SLOTS
        for lhs in (pair, pair[::-1])
    ]
    block = p * g * n**4 * 8
    a_support = support(a)
    tracemalloc.start()
    try:
        out = fold_rank_one(base, a_support, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == block
    assert peak <= 2 * block + p * g * n**3 * 8


def test_rotate_slots_feeds_each_slot_through_a():
    """rotate_slots(t, A, (0, 1))[j, k] = t(A d_j, A d_k), slot by slot."""
    rng = np.random.default_rng(1)
    t = rng.normal(size=(4, 4, 4))
    a = rng.normal(size=(4, 4))
    want = np.einsum("mj,pk,mpq->jkq", a, a, t)
    np.testing.assert_allclose(rotate_slots(t, a, (0, 1)), want, atol=1e-12)
    want2 = np.einsum("mq,jkm->jkq", a, t)
    np.testing.assert_allclose(rotate_slots(t, a, (2,)), want2, atol=1e-12)


def test_rotate_slots_extends_a_computed_rotation_exactly():
    """Slots are fed in order, so rotating (2, 3) after (0, 1) repeats the
    operations of rotating (0, 1, 2, 3): equal bit for bit, for a dense A."""
    rng = np.random.default_rng(2)
    t = rng.normal(size=(4, 4, 4, 4))
    a = rng.normal(size=(4, 4))
    np.testing.assert_array_equal(
        rotate_slots(rotate_slots(t, a, (0, 1)), a, (2, 3)),
        rotate_slots(t, a, (0, 1, 2, 3)),
    )


@pytest.mark.parametrize("rank", [2, 4])
def test_rotate_slots_feeds_one_slot_through_a_dense_a(rank):
    """Each single slot, with leading axes and a dense A, against einsum."""
    rng = np.random.default_rng(5)
    n = 4
    t = rng.normal(size=(2, 3) + (n,) * rank)
    a = rng.normal(size=(2, 1, n, n))
    slots = "ijkl"[:rank]
    for s in range(rank):
        fed = slots[:s] + "m" + slots[s + 1:]
        want = np.einsum(f"...{fed},...m{slots[s]}->...{slots}", t, a)
        got = rotate_slots(t, a, (s,))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * norm_max(want))


@pytest.mark.parametrize("rank", [2, 4])
def test_rotate_slots_is_exact_for_the_standard_structure(rank):
    """The catalog's A is the standard J, a signed permutation (J d_x = d_y,
    J d_y = -d_x), so feeding a slot through it only moves and negates
    components: equal bit for bit to indexing."""
    n = 4
    j = point_jets(manifold_by_name("fs", k=2), P0, CFG).a
    perm, sign = np.array([1, 0, 3, 2]), np.array([1.0, -1.0, 1.0, -1.0])
    np.testing.assert_array_equal(j, np.eye(n)[perm].T * sign)
    t = np.random.default_rng(6).normal(size=(2, 3) + (n,) * rank)
    for s in range(rank):
        shape = (n,) + (1,) * (rank - 1 - s)
        want = np.take(t, perm, axis=s - rank) * sign.reshape(shape)
        np.testing.assert_array_equal(rotate_slots(t, j[None, None], (s,)), want)


def test_fd_curvature_tracks_analytic():
    m = manifold_by_name("fs", k=2)
    p = sample_points(m, 1, seed=19)[0]
    exact = riemann_g(point_jets(m, p, CFG))
    fd = riemann_g(point_jets(m, p, DiffConfig(scheme="fd4", step=1e-3)))
    diff = norm_max(fd - exact)
    assert relative_residual(diff, norm_max(exact)) < 1e-7


def test_rotate_slots_with_leading_axes_rotates_each_index():
    """Batch axes lead, and A carries them (size one where shared)."""
    rng = np.random.default_rng(4)
    t = rng.normal(size=(2, 3, 4, 4, 4))
    a = rng.normal(size=(2, 1, 4, 4))
    for slots in ((0,), (1, 2), (0, 1, 2)):
        got = rotate_slots(t, a, slots)
        assert got.shape == t.shape
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(
                    got[i, j], rotate_slots(t[i, j], a[i, 0], slots), rtol=1e-14, atol=1e-14
                )


def _bracket(g, f, a):
    """g(Y,Z)X - g(X,Z)Y + F(Y,Z)AX - F(X,Z)AY - 2F(X,Y)AZ as [l, i, j, k],
    with F(X, Y) = g(AX, Y)."""
    eye = np.eye(len(g))
    return (
        np.einsum("jk,li->lijk", g, eye)
        - np.einsum("ik,lj->lijk", g, eye)
        + np.einsum("jk,li->lijk", f, a)
        - np.einsum("ik,lj->lijk", f, a)
        - 2 * np.einsum("ij,lk->lijk", f, a)
    )


def _holomorphic_curvature_at_origin(potential: str, k: int) -> float:
    """c of R = (c/4) bracket at the origin, from the metric
    g = (H + A^T H A) / 2 of a Kahler potential, H its coordinate Hessian.

    sympy gives the exact partials of the potential up to order four; there
    dg = 0, so R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} with
    d_i Gamma^l_{jk} = g^{lm} (d_i d_j g_mk + d_i d_k g_jm - d_i d_m g_jk) / 2.
    The fit must leave no residual: the bracket is the whole curvature.
    """
    sympy = pytest.importorskip("sympy")
    import itertools

    n = 2 * k
    u = sympy.symbols(f"u0:{n}", real=True)
    s = sum(x * x for x in u)
    phi = {"fs": sympy.log(1 + s), "hyperbolic": -sympy.log(1 - s)}[potential]
    partials = {(): phi}
    for order in range(1, 5):
        for idx in itertools.combinations_with_replacement(range(n), order):
            partials[idx] = sympy.diff(partials[idx[:-1]], u[idx[-1]])
    origin = {x: 0 for x in u}

    def tensor_of(order):
        return np.array(
            [float(partials[tuple(sorted(i))].subs(origin)) for i in np.ndindex((n,) * order)]
        ).reshape((n,) * order)

    a = np.zeros((n, n))
    for pair in range(k):
        a[2 * pair + 1, 2 * pair] = 1.0
        a[2 * pair, 2 * pair + 1] = -1.0
    sym = lambda t: (t + a.T @ t @ a) / 2
    g, dg, d2g = sym(tensor_of(2)), sym(tensor_of(3)), sym(tensor_of(4))
    assert np.abs(dg).max() == 0.0
    dgamma = 0.5 * np.einsum(
        "lm,imjk->iljk",
        np.linalg.inv(g),
        np.einsum("ijmk->imjk", d2g)
        + np.einsum("ikjm->imjk", d2g)
        - np.einsum("imjk->imjk", d2g),
    )
    r = np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
    t = _bracket(g, a.T @ g, a)
    c = 4 * np.sum(r * t) / np.sum(t * t)
    assert np.abs(r - c / 4 * t).max() < 1e-14 * np.abs(r).max()
    return c


@pytest.mark.parametrize("name,c", [("fs", 2.0), ("hyperbolic", -2.0)])
def test_space_forms_have_constant_holomorphic_curvature(name, c):
    """R^g = (c/4)[g(Y,Z)X - g(X,Z)Y + F(Y,Z)AX - F(X,Z)AY - 2F(X,Y)AZ]:
    c pinned by sympy at the origin for n = 2 and 4, then checked at sampled
    points against R^g from the jets, n up to 8.  The first Bianchi identity
    fixes the sign of the last term for F(X, Y) = g(AX, Y); with
    g(X, AY) = -F(X, Y) it reads +2 g(X, AY) AZ."""
    for k in (1, 2):
        assert _holomorphic_curvature_at_origin(name, k) == pytest.approx(c, rel=1e-14)
    for k in (1, 2, 4):
        m = manifold_by_name(name, k=k)
        pj = point_jets(m, sample_points(m, 3, seed=20), CFG)
        for i in range(3):  # batch point data are (P, 1, ...)
            want = c / 4 * _bracket(pj.g[i, 0], pj.f[i, 0], pj.a[i, 0])
            assert norm_max(pj.r_g[i, 0] - want) < 1e-12 * norm_max(want)
