"""Curvature of the quarter-symmetric connection: six kinds and their traces.

All (1,3) curvature operators use slots (out; X, Y, Z), components
R[..., l, i, j, k], sign convention R(X, Y)Z = [nabla_X, nabla_Y] Z -
nabla_{[X,Y]} Z, so the round unit sphere has Ric = (n-1) g > 0.

The generator enters through four derived (0,2) tensors built from
B = nabla^g pi (direction first) and p = pi, q = pi o A:

    D0 = B + (p (x) q + q (x) p) / 2      D1 = B - B^T
    D2 = B + q (x) p                      D3 = B + p (x) q

``connections.generator_jets`` builds them, kind first as ``gj.d``, with pq
= pi (x) (pi o A): they are all that the identities valid on any almost
Hermitian chart read of the generator.  The six curvature kinds are linear
in them.  ``curvature_bundle`` assembles the kinds, their traces and the
blocks that the term tables read once per job, from the two records of
``connections``: ``PointJets`` (g, A, Gamma with their partials, R^g, Ric^g)
and ``GeneratorJets``, so no consumer differentiates a field itself.  The
bundle holds those two records as ``b.pj`` and ``b.gj`` and only what it
derives from them, so each datum of a job lives in one record.  For P points
and G generators every derived array has the batch axes (P, G) in front of
its tensor slots; the kind-indexed arrays carry the kind first, so
``b.r[theta]`` is R^theta.  A consumer that folds H^theta over the stack
keeps ``dataclasses.replace(b, r=None)``, so a late reader of R^theta fails.

``commutator_curvature`` builds the curvature of nabla^1 from its
coefficients instead, the oracle of the kind-1 shape, as one new array for
every (point, generator); I-R1COMM runs it before the stack exists.  The
Kahler rules of R^g (``kahler_identities``) are per point and read no
bundle; a non-finite R^g is a NumericError there.

Every kind is R^g plus signed rank-one terms c s(., .) V(.), V the identity
or A, in the shapes specialized to A^2 = -I, which every catalog structure
satisfies exactly.  The terms are data, rows (c, block, V, pattern) of
``R_TERMS`` by kind, like those of H, W and P in ``invariants``:
``table_terms`` looks up a row's blocks, all but W's and P's in the
bundle's one dict ``b.blocks``, and ``fold_rank_one`` adds them;
``equals_r_g`` reads from ``R_TERMS`` the rows of the stack that are R^g.
The order of the rows in a (V, vector slot) group fixes the bits of a report.

Batch convention (as in ``connections``): tensor slots trail, any leading
axes are batch axes; point data (P, 1, ...) broadcast against generator data
(P, G, ...).  Transpose with ``swapaxes(-1, -2)``, never ``.T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

import numpy as np

from .connections import (
    GeneratorJets,
    PointJets,
    curvature_from_coefficients,
    quarter_symmetric_jets,
)
from .tensor import NumericError, contract_first, emax, norm_max

THETAS = (0, 1, 2, 3, 4, 5)


def riemann_g(pj: PointJets) -> np.ndarray:
    """Curvature R^g[..., l, i, j, k] of the Levi-Civita connection."""
    return pj.r_g


def commutator_curvature(pj: PointJets, gj: GeneratorJets) -> np.ndarray:
    """Curvature of the quarter-symmetric connection straight from its
    coefficients; the oracle every kind-1 closed shape is checked against."""
    return curvature_from_coefficients(*quarter_symmetric_jets(pj, gj))


def rotate_slots(arr: np.ndarray, a: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    """Feed each listed slot through A: slot s of the result at X is slot s
    of `arr` at AX, e.g. slots (0, 1) give t(A., A.).

    Slots count from the first tensor slot.  `a` carries the leading axes of
    `arr` (size one where shared), so the tensor slots are the trailing
    arr.ndim - a.ndim + 2 axes.  Each slot is one matmul, no transposed copy.
    """
    rank, n = arr.ndim - a.ndim + 2, a.shape[-1]
    a_last = a.reshape(a.shape[:-2] + (1,) * (rank - 2) + a.shape[-2:])
    a_t = a.swapaxes(-1, -2)[..., None, :, :]
    out = arr
    for s in slots:
        if s == rank - 1:
            out = out @ a_last
        else:  # the slots before s flattened to a batch axis, those after to columns
            fed = a_t @ out.reshape(out.shape[: out.ndim - rank] + (n**s, n, -1))
            out = fed.reshape(fed.shape[:-3] + (n,) * rank)
    return out


def lowered(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(0,4) form R(X,Y,Z,W) = g(R(X,Y)Z, W) of a (1,3) operator."""
    return np.moveaxis(r, -4, -1) @ g[..., None, None, :, :]


# writable n^3 views out[..., l, i, j, k] with l equal to the vector slot
_DIAGONALS = {"k": "...lijl->...lij", "j": "...lilk->...lik", "i": "...lljk->...ljk"}
# out[..., l, i, j, k] transposed to l, the vector slot, the other two in order
_SLOT_SECOND = {"i": (-4, -3, -2, -1), "j": (-4, -2, -3, -1), "k": (-4, -1, -3, -2)}


def fold_rank_one(base, a_support, terms, out: np.ndarray | None = None) -> np.ndarray:
    """base + sum of c * s(., .) V(.) over terms (c, s, V, pattern), V "I" or
    "A"; pattern "ij,lk" means out[..., l,i,j,k] += s[..., i,j] V[..., l,k],
    and "ji,lk" reads s transposed; A comes as ``connections.support(A)``.
    out=base folds the terms onto base in place, any other out takes the
    result (its contents unread), the same IEEE sums as a new array.

    Terms sharing (V, vector slot) are summed first.  An I-group is added
    through an n^3 diagonal view of the output.  An A-group goes into one
    zeroed buffer: A[l, m] s at row l with the vector slot set to m, for the
    nonzero A[l, m], n at a time (exact products for a signed permutation A).
    """
    groups: dict[str, dict[str, np.ndarray]] = {"A": {}, "I": {}}
    for c, s, v, pattern in terms:
        lhs, rhs = pattern.split(",")
        if lhs[0] > lhs[1]:
            s = s.swapaxes(-1, -2)
        slot, group = rhs[1], groups[v]
        group[slot] = group[slot] + c * s if slot in group else c * s
    n = s.shape[-1]
    blocks = [s.shape[:-2] + (n,) * 4 for g in groups.values() for s in g.values()]
    onto_base = out is not None and out is base
    if out is None or onto_base:
        acc = np.zeros(np.broadcast_shapes(np.shape(base), *blocks))
    else:  # out is the buffer
        acc = out
        acc.fill(0.0)
    rows, cols, vals = a_support
    batches = [(rows[q : q + n], cols[q : q + n], vals[q : q + n]) for q in range(0, len(rows), n)]
    for index, (slot, s) in enumerate(groups["A"].items()):
        view = acc.transpose(*range(acc.ndim - 4), *_SLOT_SECOND[slot])
        for l, m, v in batches:
            prod = v[..., None, None] * s
            # zero under the first group; numpy lays the gathered entries out entry first, as prod
            before = view[..., l, m, :, :] if index else 0.0
            view[..., l, m, :, :] = before + prod.transpose(*range(1, prod.ndim - 2), 0, -2, -1)
    if onto_base:
        out += acc
    else:
        out = np.add(acc, base, out=acc)
    for slot, s in groups["I"].items():
        diagonal = np.einsum(_DIAGONALS[slot], out)
        diagonal += s[..., None, :, :]
    return out


def table_terms(table: dict, key, blocks: dict, n: int) -> list[tuple]:
    """The ``fold_rank_one`` terms of the rows (c, block, V, pattern) of
    table[key]: c, a number or a function of n, at n, the block from `blocks`."""
    if key not in table:
        raise ValueError(f"no rank-one terms for {key!r}: the table holds {tuple(table)}")
    return [(c(n) if callable(c) else c, blocks[s], v, pattern) for c, s, v, pattern in table[key]]


# The rank-one terms of R^theta - R^g by kind; blocks d1..d3, d23 = (D2 + D3) / 2, pp = pi (x) pi
R_TERMS = {
    0: (
        (-0.5, "d1", "A", "ij,lk"), (-0.5, "d23", "A", "ik,lj"), (0.5, "d23", "A", "jk,li"),
        # pi(Z)(pi(Y) X - pi(X) Y) / 4
        (0.25, "pp", "I", "jk,li"), (-0.25, "pp", "I", "ik,lj"),
    ),
    1: ((-1.0, "d1", "A", "ij,lk"),),
    2: ((-1.0, "d2", "A", "ik,lj"), (1.0, "d2", "A", "jk,li")),
    3: ((-1.0, "d2", "A", "ij,lk"), (1.0, "d3", "A", "jk,li")),
    4: (
        (-1.0, "d3", "A", "ij,lk"), (1.0, "d3", "A", "jk,li"),
        # pi(Z)(pi(Y) X - pi(X) Y)
        (1.0, "pp", "I", "jk,li"), (-1.0, "pp", "I", "ik,lj"),
    ),
    5: (
        (-0.5, "d1", "A", "ij,lk"), (-0.5, "d3", "A", "ik,lj"), (0.5, "d2", "A", "jk,li"),
        # -pi(Y)(pi(X) Z - pi(Z) X) / 2
        (-0.5, "pp", "I", "ij,lk"), (0.5, "pp", "I", "jk,li"),
    ),
}


def equals_r_g(b: CurvatureBundle) -> np.ndarray:
    """The (6, ...) mask of the rows where every block that kind theta's
    ``R_TERMS`` name is all zero, so R^theta is R^g but for the sign of a zero."""
    names = {s for terms in R_TERMS.values() for _, s, _, _ in terms}
    zero = {s: ~b.blocks[s].any((-2, -1)) for s in names}
    return np.stack([reduce(and_, (zero[s] for _, s, _, _ in R_TERMS[t])) for t in THETAS])


def assemble_r_theta(theta: int, r_g: np.ndarray, a_support, blocks: dict, out=None) -> np.ndarray:
    """R^theta, R^g plus the ``R_TERMS`` of kind theta: a new array, or written into `out`."""
    return fold_rank_one(r_g, a_support, table_terms(R_TERMS, theta, blocks, r_g.shape[-1]), out)


@dataclass(frozen=True)
class CurvatureBundle:
    """The curvature kinds and their traces for the generators at the points
    of one job, beside the records they were built from: g, A, R^g and Ric^g
    are read from ``pj`` (point data with a unit generator axis), pi, nabla^g
    pi and the D blocks from ``gj``, never copied.  r (6, ..., n^4), r_norms
    (6, ...) and ric (6, ..., n, n) lead with the kind; r is None once H^theta
    is folded over it.  ``blocks`` holds by name each (..., n, n) block that a
    term table or a closed form reads: x_a = x A, a_x = A^T x = x(A., .),
    x_aa = x(A., A.), d1..d3 from ``gj``, pp = pi (x) pi and d23 = (D2 +
    D3) / 2.  ``scale``, the largest max-norm among R^g, the six kinds, their
    Ricci traces, Ric^g, 'R3 and 'R4 per (point, generator), is the residual
    scale every identity on this bundle starts from."""

    pj: PointJets
    gj: GeneratorJets
    blocks: dict[str, np.ndarray]
    r: np.ndarray | None
    r_norms: np.ndarray  # the max-norm of each kind, taken at assembly
    ric: np.ndarray
    prime_r3: np.ndarray
    prime_r4: np.ndarray
    scale: np.ndarray


def curvature_bundle(pj: PointJets, gj: GeneratorJets) -> CurvatureBundle:
    """Assemble every kind for all points and generators at once; a value
    that overflowed anywhere in the stack is a NumericError, found from the
    max-norms (NaN and inf survive max and min)."""
    n, a, pi = pj.n, pj.a, gj.pi
    pp = pi[..., :, None] * pi[..., None, :]
    _, d1, d2, d3 = gj.d
    blocks = {"d1": d1, "d2": d2, "d3": d3, "d23": 0.5 * (d2 + d3), "pp": pp}
    batch = np.broadcast_shapes(pj.point.shape[:-1], pi.shape[:-1])
    r = np.empty((len(THETAS),) + batch + (n,) * 4)
    for theta in THETAS:
        assemble_r_theta(theta, pj.r_g, pj.a_support, blocks, out=r[theta])
    r_norms = norm_max(r, 4)
    if not np.isfinite(r_norms).all():
        raise NumericError("non-finite curvature components")
    ric = np.trace(r, axis1=-4, axis2=-3)
    pr3, pr4 = (np.trace(r[theta], axis1=-4, axis2=-1) for theta in (3, 4))
    at = a.swapaxes(-1, -2)
    blocks |= {
        **{f"ric{theta}": ric[theta] for theta in THETAS},
        "ric1_a": ric[1] @ a, "ric3_a": ric[3] @ a, "a_ric2": at @ ric[2],
        "a_pr3": at @ pr3, "a_pr4": at @ pr4, "d3_a": d3 @ a,
        "pr3_aa": rotate_slots(pr3, a, (0, 1)), "pr4_aa": rotate_slots(pr4, a, (0, 1)),
    }
    scale = emax(
        norm_max(pj.r_g, 4),
        r_norms.max(0),
        norm_max(ric, 2).max(0),
        norm_max(pj.ric_g, 2),
        norm_max(pr3, 2),
        norm_max(pr4, 2),
    )
    return CurvatureBundle(pj, gj, blocks, r, r_norms, ric, pr3, pr4, scale)


def rotation_rules(rl: np.ndarray, a: np.ndarray) -> dict[str, np.ndarray]:
    """k2..k4, the rules that move A between slot pairs of a lowered (0,4)
    tensor with batch axes: the part-1 conclusions of I-HYB-COND.

    k2: R(X,Y,AZ,AW) = R(AX,AY,Z,W)    k3: R(X,AY,AZ,W) = R(AX,Y,Z,AW)
    k4: R(AX,AY,AZ,AW) = R(X,Y,Z,W)
    """
    rot = lambda *slots: rotate_slots(rl, a, slots)
    r01 = rot(0, 1)
    return {
        "k2_pair_exchange": norm_max(rot(2, 3) - r01, 4),
        "k3_inner_outer": norm_max(rot(1, 2) - rot(0, 3), 4),
        # the same operations as rot(0, 1, 2, 3): slots are fed in order
        "k4_all_four": norm_max(rotate_slots(r01, a, (2, 3)) - rl, 4),
    }


def commutation_rules(r: np.ndarray, rl: np.ndarray, a: np.ndarray) -> dict[str, np.ndarray]:
    """k1 and k5, the rules that A commutes with R(X, Y), on the (1,3)
    operator r and its lowered form rl: the part-2 conclusions of I-HYB-COND.

    k1: R(X,Y)AZ = A R(X,Y)Z           k5: R(X,Y,Z,AW) = -R(X,Y,AZ,W)
    """
    return {
        "k1_operator": norm_max(r @ a[..., None, None, :, :] - contract_first(a, r, 4), 4),
        "k5_last_pair": norm_max(rotate_slots(rl, a, (3,)) + rotate_slots(rl, a, (2,)), 4),
    }


def kahler_identities(pj: PointJets) -> dict[str, np.ndarray]:
    """Residuals of the five structure/curvature exchange rules k1..k5 of
    ``rotation_rules`` and ``commutation_rules`` for R^g, one per point,
    with the residual scale: the max-norm of R^g and of its lowered form,
    which an I-HYB-COND row equal to R^g also reuses.  A non-finite scale
    is a NumericError (NaN and inf survive max)."""
    rl = lowered(pj.r_g, pj.g)
    scale = np.maximum(norm_max(pj.r_g, 4), norm_max(rl, 4))
    if not np.isfinite(scale).all():
        raise NumericError("non-finite Levi-Civita curvature")
    return {**commutation_rules(pj.r_g, rl, pj.a), **rotation_rules(rl, pj.a), "scale": scale}


def closed_form_residuals(b: CurvatureBundle) -> dict[str, np.ndarray]:
    n, a, ricg = b.pj.n, b.pj.a, b.pj.ric_g
    t = lambda x: x.swapaxes(-1, -2)
    at = t(a)
    _, d1, d2, d3 = b.gj.d
    pipi, pr3_aa = b.blocks["pp"], b.blocks["pr3_aa"]  # 'R3(A d_j, A d_k)

    def da(dblock: np.ndarray, first_rotated: bool) -> np.ndarray:
        # D(A d_k, d_j) -> [j, k] when first_rotated, else D(A d_j, d_k) -> [j, k]
        return t(dblock) @ a if first_rotated else at @ dblock

    closed = {
        "ric1": ricg - da(d1, True),
        "ric2": ricg - da(d2, False),
        "ric3": ricg - da(d2, True),
        "ric4": ricg - da(d3, True) + (n - 1) * pipi,
        "ric5": ricg - 0.5 * da(d1, True) - 0.5 * da(d3, False) + 0.5 * (n - 1) * pipi,
        # the untagged derivative in the kind-0 trace is the antisymmetrized one (D1)
        "ric0": ricg
        - 0.5 * da(d1, True)
        - 0.25 * (da(d2, False) + da(d3, False))
        + 0.25 * (n - 1) * pipi,
    }
    res = {
        f"closed_{name}": norm_max(b.ric[int(name[-1])] - val, 2)
        for name, val in closed.items()
    }
    prime_closed = t(b.blocks["d3_a"])  # 'R3(X,Y) = D3(Y, AX)
    res["closed_prime_r3"] = norm_max(b.prime_r3 - prime_closed, 2)
    res["closed_prime_r4"] = norm_max(b.prime_r4 - prime_closed, 2)

    # inverse formulas: traces back to generator data
    ric0, ric1, ric2, ric3, ric4, ric5 = b.ric
    # D1(Z, Y) = (Ric1 - Ricg)(Y, AZ): residual indexed [Z, Y]
    res["invert_d1"] = norm_max(d1 - t((ric1 - ricg) @ a), 2)
    # D2(Y, Z) = (Ric2 - Ricg)(AY, Z)
    res["invert_d2_from_ric2"] = norm_max(d2 - at @ (ric2 - ricg), 2)
    # D2(Z, Y) = (Ric3 - Ricg)(Y, AZ)
    res["invert_d2_from_ric3"] = norm_max(d2 - t((ric3 - ricg) @ a), 2)
    # D3(Y, X) = -'R3(AX, Y)
    res["invert_d3_from_prime"] = norm_max(t(d3) + b.blocks["a_pr3"], 2)
    res["recover_pipi_4"] = norm_max(pipi - (ric4 - ricg - b.blocks["pr4_aa"]) / (n - 1), 2)
    res["recover_pipi_5"] = norm_max(
        pipi - (2 * ric5 - ric1 - t(pr3_aa) - ricg) / (n - 1), 2
    )
    res["recover_pipi_0"] = norm_max(
        pipi - (4 * ric0 - 2 * ric1 - t(ric3) - t(pr3_aa) - ricg) / (n - 1), 2
    )
    res["scale"] = emax(
        norm_max(ricg, 2),
        norm_max(b.ric, 2).max(0),
        norm_max(b.prime_r3, 2),
        norm_max(b.prime_r4, 2),
        (n - 1) * norm_max(pipi, 2),
        norm_max(b.gj.d, 2).max(0),
    )
    return res
