"""The part-2 hypotheses of I-HYB-COND: the (0,2) forms of
``invariants.PART2_FORMS`` against the rank-one conditions they restate, and
the hypotheses met at a point with pi != 0.

The paper states the part-2 hypothesis of kinds 2..5 as a rank-one (1,3)
expression in D2, D3, pi (x) pi and B = nabla^g pi that vanishes; ``FOLD_ROWS``
writes those 14 rows, in the layout of ``curvature.fold_rank_one``, as this
file's own reference.  At A = J, for generic pi and B and at n = 2 and 4,
sympy proves that each form vanishes on exactly the same set as its fold:
kinds 2 and 3 are linear in their block, so their kernels agree; kinds 4 and
5 generate the same polynomial ideal (each side's Groebner basis reduces the
other side's generators to zero).  Every A with A^2 = -I is conjugate to J,
and both sides are tensor expressions, so this covers every chart.

The per-point affine generator pi(u) = pi0 + (u - u0) M, with M solved by
least squares so that a kind's forms vanish at u0, meets the hypotheses of
kinds 0, 2 and 3 with pi0 != 0 on fs at k=2.
"""

import itertools

import numpy as np
import pytest

from qsc_lab.connections import GeneratorJets, generator_jets, point_jets, support
from qsc_lab.curvature import R_TERMS, curvature_bundle, equals_r_g, fold_rank_one
from qsc_lab.diff import DiffConfig
from qsc_lab.geometry import TensorField, _standard_matrix, manifold_by_name, sample_points
from qsc_lab.invariants import PART2_FORMS, identity_suite

# (c, block, V, pattern) of the rank-one part-2 conditions of kinds 2..5: the
# pattern "ik,lj" adds c s[i, k] V[l, j] at [l, i, j, k]; blocks from ``_generator``
FOLD_ROWS = {
    2: (
        (1, "d2", "I", "ik,lj"), (1, "d2_a", "A", "ik,lj"),
        (-1, "d2", "I", "jk,li"), (-1, "d2_a", "A", "jk,li"),
    ),
    3: ((1, "d3", "I", "jk,li"), (1, "d3_a", "A", "jk,li")),
    4: (
        (1, "d4", "A", "jk,li"), (1, "pp", "A", "ik,lj"),
        (1, "d4_a", "I", "jk,li"), (-1, "pp_a", "I", "ik,lj"),
    ),
    5: (
        (1, "d3", "I", "ik,lj"), (1, "d3_a", "A", "ik,lj"),
        (-1, "d2_pq", "I", "jk,li"), (-1, "d2_a_pp", "A", "jk,li"),
    ),
}


def _generator(pi, b, a):
    """(pp, GeneratorJets, the blocks of ``FOLD_ROWS``) of pi and B = nabla^g
    pi at one point, in any dtype: pq = pi (x) (pi o A), D0..D3 as
    ``connections.generator_jets`` forms them."""
    pq = np.outer(pi, pi @ a)
    qp, pp = pq.T, np.outer(pi, pi)
    d = np.stack([b + (pq + qp) / 2, b - b.T, b + qp, b + pq])
    d2, d3, d4 = d[2], d[3], b @ a - 2 * pp
    blocks = {
        "d2": d2, "d3": d3, "pp": pp, "d2_a": d2 @ a, "d3_a": d3 @ a, "pp_a": pp @ a,
        "d2_pq": d2 + pq, "d2_a_pp": d2 @ a - pp, "d4": d4, "d4_a": d4 @ a,
    }
    return pp, GeneratorJets(pi, b, b, pq, d), blocks


def _fold(kind, blocks, a):
    """The (1,3) fold of ``FOLD_ROWS[kind]``, entry by entry, in any dtype."""
    n = len(a)
    vectors = {"I": np.eye(n, dtype=int), "A": a}
    out = np.zeros((n,) * 4, dtype=blocks["d2"].dtype)
    for l, i, j, k in itertools.product(range(n), repeat=4):
        at = {"l": l, "i": i, "j": j, "k": k}
        out[l, i, j, k] = sum(
            c * blocks[s][at[p[0]], at[p[1]]] * vectors[v][l, at[p[4]]]
            for c, s, v, p in FOLD_ROWS[kind]
        )
    return out


def _forms(kind, pi, b, a):
    pp, gj, _ = _generator(pi, b, a)
    return PART2_FORMS[kind](a, pp, gj)


@pytest.mark.parametrize("kind", sorted(FOLD_ROWS))
def test_the_reference_rows_fold_as_the_package_folds(kind):
    """``_fold`` reads ``FOLD_ROWS`` as ``fold_rank_one`` reads a table row."""
    rng = np.random.default_rng(kind)
    a = _standard_matrix(4)
    _, _, blocks = _generator(rng.normal(size=4), rng.normal(size=(4, 4)), a)
    terms = [(c, blocks[s], v, p) for c, s, v, p in FOLD_ROWS[kind]]
    want = fold_rank_one(None, support(a), terms)
    np.testing.assert_allclose(_fold(kind, blocks, a.astype(int)), want, rtol=0, atol=1e-14)


def _symbolic(n):
    """pi and B as sympy symbols, and A = J as an integer array."""
    sympy = pytest.importorskip("sympy")
    pi = np.array(sympy.symbols(f"p0:{n}"), dtype=object)
    b = np.array(sympy.symbols(f"b0:{n * n}"), dtype=object).reshape(n, n)
    return pi, b, _standard_matrix(n).astype(int)


def _polys(arrays):
    """The distinct nonzero expanded entries of the arrays."""
    return sorted({e for x in arrays for e in (v.expand() for v in x.ravel()) if e != 0}, key=str)


def _linear_map(exprs, xs):
    """The matrix of the linear map xs -> exprs, which must be linear and
    homogeneous in xs and free of every other symbol."""
    sympy = pytest.importorskip("sympy")
    matrix, constant = sympy.linear_eq_to_matrix(exprs, xs)
    assert constant.is_zero_matrix and not matrix.free_symbols
    return matrix


def _hybrid_basis(a):
    """The columns vec(I) and vec(A): at n = 2, the hybrid (0,2) forms."""
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([list(np.eye(len(a), dtype=int).ravel()), list(a.ravel())]).T


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kind", [2, 3])
def test_a_linear_form_has_the_kernel_of_its_fold(kind, n):
    """Kinds 2 and 3 read B only through their block X = D2 or D3: with B =
    X - (pi o A) (x) pi or X - pi (x) (pi o A), the fold and the form are
    linear maps of X alone with the same kernel.  At n = 2 kind 2's kernel
    is span{I, A}, the hybrid forms; otherwise it is 0."""
    pi, x, a = _symbolic(n)
    pq = np.outer(pi, pi @ a)
    b = x - (pq.T if kind == 2 else pq)
    _, _, blocks = _generator(pi, b, a)
    xs = list(x.ravel())
    fold = _linear_map(_polys([_fold(kind, blocks, a)]), xs)
    form = _linear_map(_polys(_forms(kind, pi, b, a)), xs)
    rank = fold.rank()
    assert rank == form.rank() == fold.col_join(form).rank()
    assert rank == n * n - (2 if (kind, n) == (2, 2) else 0)
    assert (kind, n) != (2, 2) or (fold * _hybrid_basis(a)).is_zero_matrix


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kind", [4, 5])
def test_a_quadratic_form_generates_the_ideal_of_its_fold(kind, n):
    """Kinds 4 and 5: the entries of the fold and of the forms have one
    reduced Groebner basis in (pi, B), so they generate one ideal and vanish
    on the same set: pi = 0 and B = 0, but for kind 5 at n = 2, where pi = 0
    and B hybrid.  With pi = 0, kind 5's fold is linear in B, and at n = 2
    its kernel is span{I, A}."""
    sympy = pytest.importorskip("sympy")
    pi, b, a = _symbolic(n)
    _, _, blocks = _generator(pi, b, a)
    gens = [*pi, *b.ravel()]
    fold = _polys([_fold(kind, blocks, a)])
    form = _polys(_forms(kind, pi, b, a))
    basis = [sympy.groebner(f, *gens, order="grevlex").exprs for f in (fold, form)]
    assert basis[0] == basis[1]
    assert all(p * q in basis[1] for p, q in itertools.product(pi, pi))
    if kind == 5:
        at_zero = np.array([f.subs({p: 0 for p in pi}) for f in fold])
        linear = _linear_map(_polys([at_zero]), list(b.ravel()))
        assert linear.rank() == n * n - (2 if n == 2 else 0)
        assert n != 2 or (linear * _hybrid_basis(a)).is_zero_matrix


# -- the hypotheses met with pi != 0 ----------------------------------------

CFG = DiffConfig(scheme="analytic")


def _affine(pi0, u0, m):
    """pi(u) = pi0 + (u - u0) M."""
    c = pi0 - u0 @ m
    return TensorField("d", lambda u: c + u @ m, label="affine")


@pytest.fixture(scope="module")
def met():
    """(chart, u0 as a (1, n) batch, the generator that meets kind theta's
    part-2 hypothesis at u0 with pi0 != 0, by theta in 0, 2, 3).  The forms
    are affine in M, so M comes from least squares over the generators of M =
    0 and of each unit M."""
    m = manifold_by_name("fs", k=2)
    n, u0 = m.n, sample_points(m, 1, seed=3)
    pi0 = np.random.default_rng(5).uniform(-1.0, 1.0, n)
    units = [np.zeros((n, n)), *np.eye(n * n).reshape(n * n, n, n)]
    pj = point_jets(m, u0, CFG)
    gj = generator_jets(pj, [_affine(pi0, u0[0], unit) for unit in units])
    pp = gj.pi[..., :, None] * gj.pi[..., None, :]
    gens = {}
    for kind in (0, 2, 3):
        forms = PART2_FORMS[kind](pj.a, pp, gj)
        forms = np.concatenate([f.reshape(len(units), -1) for f in forms], axis=1)
        solution = np.linalg.lstsq((forms[1:] - forms[0]).T, -forms[0], rcond=None)[0]
        gens[kind] = _affine(pi0, u0[0], solution.reshape(n, n))
    return m, u0, gens


def _held_row(m, u0, gen, kind):
    return {r.id: r for r in identity_suite(m, u0, [gen], CFG)}[f"I-HYB-COND-{kind}"]


@pytest.mark.parametrize("kind", [0, 2, 3])
def test_the_part2_hypothesis_holds_with_nonzero_pi(met, kind):
    """The row is held at pi0 != 0, outside ``equals_r_g`` (so the rules run
    on its own R^theta), and its conclusion passes.  For kinds 0 and 3,
    R^theta differs from R^g by order one; kind 2's hypothesis is D2 = 0,
    where R^2 is R^g up to rounding."""
    m, u0, gens = met
    pj = point_jets(m, u0, CFG)
    gj = generator_jets(pj, [gens[kind]])
    b = curvature_bundle(pj, gj)
    assert np.abs(gj.pi).max() > 0.5
    assert not equals_r_g(b)[kind].any()
    distance = np.abs(b.r[kind] - pj.r_g).max()
    assert distance > 0.1 if kind != 2 else distance < 1e-14
    row = _held_row(m, u0, gens[kind], kind)
    assert row.details["part2_satisfied"].tolist() == [1.0]
    assert row.details["part2_condition_rel_min"][0] < 1e-14
    assert row.details["part2_conclusion_rel_max"][0] < 1e-15
    assert row.passed.all()


def test_a_flipped_r_term_fails_a_held_part2_row_where_it_can(met, monkeypatch):
    """A sign flip of an ``R_TERMS`` row of kind 0, 2 or 3 fails that kind's
    held part-2 row, but where the flip cannot: a term s(X, Y) AZ (pattern
    "ij,lk") commutes with A and, under a Hermitian g, meets k5 whatever its
    sign, so k1 and k5 hold either way, and the blocks D2 (kind 2) and D3
    (kind 3) vanish where their hypothesis holds.  So only kind 0's four
    other rows are caught."""
    m, u0, gens = met
    caught = set()
    for kind in (0, 2, 3):
        for index, (c, *rest) in enumerate(R_TERMS[kind]):
            with monkeypatch.context() as patch:
                flipped = list(R_TERMS[kind])
                flipped[index] = (-c, *rest)
                patch.setitem(R_TERMS, kind, tuple(flipped))
                row = _held_row(m, u0, gens[kind], kind)
            assert row.details["part2_satisfied"].tolist() == [1.0]
            if not row.passed.all():
                caught.add((kind, index))
    assert caught == {(0, 1), (0, 2), (0, 3), (0, 4)}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_the_d3_zero_generator_passes_the_hermitian_rows(met):
    """Where D3 = 0 with pi != 0, nabla^1 pi and 'R3 = 'R4 vanish while
    the terms that cancelled to make them are of order one; their scales
    miss those terms, so I-NABLA1PI and I-PR34 fail from a residual of about
    1e-16."""
    m, u0, gens = met
    rows = {r.id: r for r in identity_suite(m, u0, [gens[3]], CFG)}
    assert rows["I-NABLA1PI"].passed.all() and rows["I-PR34"].passed.all()
