"""Projective-type tensors, generator-invariant tensors and the identity suite.

The six curvature kinds depend on the generator one-form.  For each kind a
correction by its own traces produces a tensor that does not:

    H1 ... H5, H0   (kind-wise generator-invariant tensors)

H4 coincides with the Weyl projective tensor W of g, and all of them are
linear combinations of W and the structure-adapted projective tensor P.  The
identity suite turns every such statement into a residual with a stable ID.

The identities live in one table, ``IDENTITY_CATALOG``: each entry holds the
description, classification, scope and evaluator of one ID.  A linear
relation among H0..H5, W, P and H0 written in R^g is one row of coefficients,
a ``LinearRelation``; one evaluator computes the residual of every such row.

``identity_suite`` runs whole points in blocks, so a job's n^4 working set
is bounded in P.  Per block of P points it differentiates each field once
into one ``PointJets`` (axes (P, 1)) and one ``GeneratorJets`` (P, G), with
the D blocks, from which one ``_Job`` runs in two stages by scope.  The
first, on every chart, takes what the hermitian and Kahler-hypothesis
identities read: the per-point Kahler rules of R^g and the torsion
identities.  The second, on a Kahler chart alone, builds one
``CurvatureBundle`` with batch axes (P, G) over both records, runs the two
readers of R^theta (I-R1COMM, I-HYB-COND), folds each H^theta onto R^theta
in the bundle's stack (one n^4 stack per kind family; the job keeps the
bundle with r None), then builds W and P; the evaluators only read these.
Beside that stack a block holds a constant number of n^4 arrays per (point,
generator): I-R1COMM builds its commutator curvature in chunks of
generators through two reused buffers, and the linear rows sum in slabs of
output rows; ``_chunks`` cuts these, the point blocks and the chunks of
I-HYB-COND rows, each by a byte budget.
Each evaluator returns residuals and scales shaped (P, K), K the generators
or, for an independence check, the generator pairs; their maxima over K make
one ``IdentityRows`` of (P,) arrays per identity, never an object per
(identity, point).  I-HYB-COND runs all six kinds in one pass over the held
(kind, point, generator) rows of the R stack.  A held row whose
``R_TERMS`` blocks all vanish (``curvature.equals_r_g``) is R^g, and takes
the Kahler rules of R^g from ``kahler_identities``; the rules run on the
others, gathered in chunks of R rows.  Its part-2 hypotheses are the
(0,2) forms of ``PART2_FORMS``.  The rank-one terms of H^theta and of W, P
and H0 in R^g are the rows of ``H_TERMS`` and ``RG_TERMS``, folded by
``curvature.fold_rank_one``; as in ``curvature``, their order inside a
(V, vector slot) group fixes the bits.

Residual scale convention: the scale of an identity is the largest max-norm
among the tensors entering it, including the curvature and trace blocks that
composite tensors are assembled from; this keeps cancellation noise measured
against the magnitude of what actually cancelled.  The part shared by every
identity on one (point, generator), the max-norm over R^g, the six kinds,
their traces and 'R3, 'R4, is ``CurvatureBundle.scale``.  The max-norm of
each H^theta, W and P is taken once per job, as the tensor is built, while
it is still in cache.

Batch convention as in ``connections``: tensor slots trail, leading axes are
batch axes, transposes are ``swapaxes(-1, -2)`` (never ``.T``, which would
reverse the batch axes too).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod
from typing import Callable

import numpy as np

from .connections import (
    GeneratorJets,
    PointJets,
    generator_jets,
    metricity_defects,
    nabla1_pi_defect,
    point_jets,
    torsion_identities,
)
from .curvature import (
    THETAS,
    CurvatureBundle,
    closed_form_residuals,
    commutation_rules,
    commutator_curvature,
    curvature_bundle,
    equals_r_g,
    fold_rank_one,
    kahler_identities,
    lowered,
    rotation_rules,
    table_terms,
)
from .diff import DiffConfig
from .geometry import ManifoldSpec, TensorField
from .tensor import emax, norm_max, relative_residual

EXPECTED_FAIL_FLOOR = 1e-3

# The bytes of one n^4 array over a block's (point, generator) pairs: a block
# peaks at about 16 such arrays (a tracemalloc peak of 12.4 at n=16 and G=1,
# 7.8 at G=5), so it holds about 16 MiB; its batched jets equal one-point jets
_BLOCK_ARRAY_BYTES = 1 << 20
# The largest slab of output rows a linear-relation row sums at once, of
# generators an I-R1COMM chunk holds per buffer, and of R rows an I-HYB-COND
# chunk gathers, in bytes
_SLAB_BYTES = 512 << 10


def _chunks(count: int, item_bytes: int, budget: int) -> list[slice]:
    """As few slices of range(count) as keep each within `budget` bytes at
    `item_bytes` an item, with at least one item each: of equal size, but
    for a shorter last one."""
    if not count:
        return []
    parts = -(-count // max(1, budget // item_bytes))
    size = -(-count // parts)
    return [slice(first, min(first + size, count)) for first in range(0, count, size)]


def hybrid_defect(b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hybridity of a (0,2) tensor, B(AX, Y) = -B(X, AY): the defect
    max |B(AX, Y) + B(X, AY)| and the scale max |B|, per leading index."""
    return norm_max(a.swapaxes(-1, -2) @ b + b @ a, 2), norm_max(b, 2)


def _trace(k: float):
    """The coefficient k / (n - 1) of a trace correction, as a function of n."""
    return lambda n: k / (n - 1)


# The rank-one terms of W, P and H0 written in R^g and Ric^g; blocks from ``_on_r_g``
RG_TERMS = {
    "W": ((_trace(1), "ric_g", "I", "ik,lj"), (_trace(-1), "ric_g", "I", "jk,li")),
    "P": (
        (lambda n: 1 / (n + 2), "ric_g", "I", "ik,lj"),
        (lambda n: -1 / (n + 2), "ric_g", "I", "jk,li"),
        (lambda n: -1 / (n + 2), "ric_g_a", "A", "ik,lj"),
        (lambda n: 1 / (n + 2), "ric_g_a", "A", "jk,li"),
        (lambda n: -2 / (n + 2), "ric_g_a", "A", "ij,lk"),
    ),
    "H0RG": (
        (_trace(0.25), "ric_g", "I", "ik,lj"), (_trace(-0.25), "ric_g", "I", "jk,li"),
        (0.5, "a_ric_g", "A", "ij,lk"), (0.25, "a_ric_g", "A", "ik,lj"),
        (-0.25, "a_ric_g", "A", "jk,li"),
    ),
}

# The rank-one terms of H^theta - R^theta, by kind; blocks from ``CurvatureBundle.blocks``
H_TERMS = {
    0: (
        # trace correction carries slots (X, Z), not (X, Y)
        (_trace(1), "ric0", "I", "ik,lj"), (_trace(-1), "ric0", "I", "jk,li"),
        (_trace(-0.5), "ric1", "I", "ik,lj"), (_trace(0.5), "ric1", "I", "jk,li"),
        (_trace(-0.25), "ric3", "I", "ki,lj"), (_trace(0.25), "ric3", "I", "kj,li"),
        (_trace(-0.25), "pr3_aa", "I", "ki,lj"), (_trace(0.25), "pr3_aa", "I", "kj,li"),
        (0.5, "ric1_a", "A", "ji,lk"),
        (0.25, "ric3_a", "A", "ki,lj"), (-0.25, "ric3_a", "A", "kj,li"),
        (-0.25, "a_pr3", "A", "ki,lj"), (0.25, "a_pr3", "A", "kj,li"),
    ),
    1: ((1.0, "ric1_a", "A", "ji,lk"),),
    2: ((1.0, "a_ric2", "A", "ik,lj"), (-1.0, "a_ric2", "A", "jk,li")),
    3: ((1.0, "ric3_a", "A", "ji,lk"), (1.0, "a_pr3", "A", "kj,li")),
    4: (
        (-1.0, "a_pr4", "A", "ji,lk"), (1.0, "a_pr4", "A", "kj,li"),
        (_trace(-1), "ric4", "I", "jk,li"), (_trace(1), "ric4", "I", "ik,lj"),
        (_trace(1), "pr4_aa", "I", "jk,li"), (_trace(-1), "pr4_aa", "I", "ik,lj"),
    ),
    5: (
        (_trace(1), "ric5", "I", "ij,lk"), (_trace(-1), "ric5", "I", "jk,li"),
        (_trace(-0.5), "ric1", "I", "ij,lk"), (_trace(0.5), "ric1", "I", "jk,li"),
        (_trace(-0.5), "pr3_aa", "I", "ji,lk"), (_trace(0.5), "pr3_aa", "I", "kj,li"),
        (0.5, "ric1_a", "A", "ji,lk"), (-0.5, "ric3_a", "A", "kj,li"),
        (-0.5, "a_pr3", "A", "ki,lj"),
    ),
}


def _on_r_g(name: str, pj: PointJets) -> np.ndarray:
    """R^g plus the ``RG_TERMS`` of `name`, from the R^g, Ric^g and A of `pj`."""
    ric, a = pj.ric_g, pj.a
    blocks = {"ric_g": ric, "ric_g_a": ric @ a, "a_ric_g": a.swapaxes(-1, -2) @ ric}
    return fold_rank_one(pj.r_g, pj.a_support, table_terms(RG_TERMS, name, blocks, pj.n))


def weyl_projective(pj: PointJets) -> np.ndarray:
    """W = R^g + (Ric(X,Z)Y - Ric(Y,Z)X) / (n-1); zero iff constant curvature."""
    return _on_r_g("W", pj)


def hol_projective(pj: PointJets) -> np.ndarray:
    """Structure-adapted projective tensor P; zero iff constant holomorphic
    sectional curvature (complex space form)."""
    return _on_r_g("P", pj)


def h_tensor(theta: int, b: CurvatureBundle, out: np.ndarray | None = None) -> np.ndarray:
    """Generator-invariant tensor of kind theta, built from the kind-theta
    curvature and its traces, for every (point, generator) of the bundle:
    a new array, or, given R^theta's buffer as `out`, in place over it."""
    terms = table_terms(H_TERMS, theta, b.blocks, b.pj.n)
    return fold_rank_one(b.r[theta] if out is None else out, b.pj.a_support, terms, out)


def _with_norm(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A tensor and its max-norm, taken while the tensor is in cache."""
    return t, norm_max(t, 4)


# -- identity suite ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IdentityRows:
    """The rows of one identity as (P,) arrays: per point, the largest
    residual, scale and relative residual over the generators (each taken on
    its own) and the verdict; `details`, if any, maps a key to a (P,) array."""

    id: str
    classification: str  # core | audit | expected-fail
    max_residual: np.ndarray
    scale: np.ndarray
    relative: np.ndarray
    passed: np.ndarray
    details: dict[str, np.ndarray] | None = None


def _hybrid_part(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(n - 1) X - A^T X A: zero iff X is, but at n = 2 iff X is hybrid (A^2 = -I)."""
    return (a.shape[-1] - 1) * x - a.swapaxes(-1, -2) @ x @ a


# The part-2 hypothesis of I-HYB-COND by kind: (0,2) forms that all vanish
# exactly where it holds, for kinds 2..5 where the paper's rank-one (1,3)
# condition does (tests/test_part2_forms.py); kind 1 has none
PART2_FORMS = {
    0: lambda a, pp, gj: (gj.nabla_pi + gj.pq + 0.5 * gj.pq.swapaxes(-1, -2),),
    1: lambda a, pp, gj: (),
    2: lambda a, pp, gj: (_hybrid_part(gj.d[2], a),),
    3: lambda a, pp, gj: (gj.d[3],),
    4: lambda a, pp, gj: (pp, gj.nabla_pi),
    5: lambda a, pp, gj: (pp, _hybrid_part(gj.nabla_pi, a)),
}


def _part2_condition(theta: int, b: CurvatureBundle) -> np.ndarray:
    """The largest max-norm of kind theta's ``PART2_FORMS``, per (point, generator)."""
    if theta not in PART2_FORMS:
        raise ValueError(f"no part-2 condition for {theta!r}: the kinds are {THETAS}")
    forms = PART2_FORMS[theta](b.pj.a, b.blocks["pp"], b.gj)
    return emax(np.zeros(b.gj.pi.shape[:-1]), *(norm_max(f, 2) for f in forms))


def _hybrid_conditions(b: CurvatureBundle, kahler: dict, tol: float):
    """(residuals, scales, details) of I-HYB-COND for each kind, from one
    pass over all six: the hypotheses as (6, P, G) arrays, then, per part,
    the Kahler rules on the held (kind, point, generator) rows of the R
    stack (k2..k4, then k1 and k5).  A held row in ``equals_r_g``, where
    every block of its kind's ``R_TERMS`` is zero, takes R^g's rules from
    `kahler`; the rules run on the others, in ``_chunks`` of ``_SLAB_BYTES``.
    Such a row is R^g up to the sign of a zero, and the rules are per-row
    functions in which no sum, product or max-norm carries that sign: the
    same bits."""
    pj, gj = b.pj, b.gj
    # part 1 asks nabla^g pi hybrid, and pi (x) pi too except for kind 1
    nabla, nabla_scale = hybrid_defect(gj.nabla_pi, pj.a)
    pipi, pipi_scale = hybrid_defect(b.blocks["pp"], pj.a)
    kind1 = relative_residual(nabla, nabla_scale)
    other = relative_residual(np.maximum(nabla, pipi), np.maximum(nabla_scale, pipi_scale))
    h1 = np.stack([kind1 if t == 1 else other for t in THETAS])
    hyp2_scale = emax(norm_max(gj.d, 2).max(0), nabla_scale, pipi_scale)
    h2 = relative_residual(np.stack([_part2_condition(t, b) for t in THETAS]), hyp2_scale)
    held = (h1 < tol, h2 < tol)
    either = held[0] | held[1]
    batch = h1.shape[1:]
    a, g = (np.broadcast_to(x, batch + x.shape[-2:]) for x in (pj.a, pj.g))
    same = equals_r_g(b)
    from_g = (
        emax(kahler["k2_pair_exchange"], kahler["k3_inner_outer"], kahler["k4_all_four"]),
        emax(kahler["k1_operator"], kahler["k5_last_pair"]),
    )
    g_scale = np.maximum(b.scale, kahler["scale"])
    res, sc = np.zeros(h1.shape + (2,)), np.zeros(h1.shape + (2,))
    for part, mask in enumerate(held):
        reuse = mask & same
        res[..., part] = np.where(reuse, from_g[part], 0.0)
        sc[..., part] = np.where(reuse, g_scale, 0.0)
        rows = np.nonzero(mask & ~same)
        for chunk in _chunks(len(rows[0]), 8 * pj.n**4, _SLAB_BYTES):
            kind, point, gen = (i[chunk] for i in rows)
            r, ar = b.r[kind, point, gen], a[point, gen]
            rl = lowered(r, g[point, gen])
            rules = commutation_rules(r, rl, ar) if part else rotation_rules(rl, ar)
            res[kind, point, gen, part] = emax(*rules.values())
            sc[kind, point, gen, part] = np.maximum(b.scale[point, gen], norm_max(rl, 4))
    rel = relative_residual(res, sc)
    res, sc = (x.reshape(len(THETAS), batch[0], -1) for x in (res, sc))
    sc[~either.any(-1), 0] = 1.0  # no conclusion at this point: (0, 1)
    details = {
        "part1_hypothesis_rel_min": h1.min(-1),
        "part1_satisfied": held[0].sum(-1).astype(float),
        "part1_conclusion_rel_max": rel[..., 0].max(-1),
        "part2_condition_rel_min": h2.min(-1),
        "part2_satisfied": held[1].sum(-1).astype(float),
        "part2_conclusion_rel_max": rel[..., 1].max(-1),
        "violated": (rel >= tol).any((-2, -1)).astype(float),
    }
    return [(res[t], sc[t], {k: v[t] for k, v in details.items()}) for t in THETAS]


def _r1comm(b: CurvatureBundle):
    """(residuals, scales, None) of I-R1COMM: R^1 against the commutator
    curvature, in ``_chunks`` of generators of at most ``_SLAB_BYTES`` per
    buffer: one buffer takes dL, then the commutator; the other the products
    of dL, L L and the sum of half of R, then R^1 minus the commutator."""
    pj, gj, r1 = b.pj, b.gj, b.r[1]
    points, gens = r1.shape[:-4]
    block = points * pj.n**4
    chunks = _chunks(gens, 8 * block, _SLAB_BYTES)
    buffers = np.empty((2, (chunks[0].stop - chunks[0].start) * block))
    res, comm_norms = [], []
    for part in chunks:
        shape = (points, part.stop - part.start) + r1.shape[-4:]
        comm, diff = (buf[: prod(shape)].reshape(shape) for buf in buffers)
        sliced = (gj.pi[:, part], gj.dpi[:, part], gj.nabla_pi[:, part], gj.pq[:, part])
        commutator_curvature(pj, GeneratorJets(*sliced, gj.d[:, :, part]), out=comm, work=diff)
        comm_norms.append(norm_max(comm, 4))
        res.append(norm_max(np.subtract(r1[:, part], comm, out=diff), 4))
    comm_norm = np.concatenate(comm_norms, axis=-1)
    return np.concatenate(res, axis=-1), np.maximum(b.r_norms[1], comm_norm), None


class _Job:
    """What the evaluators of one ``identity_suite`` call read, built from
    the records of all points and generators in the two stages of the
    module docstring; the second, on a Kahler chart alone, fills ``r1comm``,
    ``hyb_cond``, ``b`` (r None) and ``tensors``, H0..H5, W and P each with
    its max-norm, taken as it is built.  Point-level results carry a unit
    generator axis."""

    def __init__(self, pj: PointJets, gj: GeneratorJets, tol_audit: float, kahler_chart: bool):
        self.pj, self.gj = pj, gj
        # per point: their n^4 temporaries go before the stack comes
        self.kahler = kahler_identities(pj)
        self.torsion = torsion_identities(pj, gj)
        if not kahler_chart:
            return
        b = curvature_bundle(pj, gj)
        self.r1comm = _r1comm(b)
        self.hyb_cond = _hybrid_conditions(b, self.kahler, tol_audit)
        self.tensors = {f"H{t}": _with_norm(h_tensor(t, b, b.r[t])) for t in THETAS}
        self.b = replace(b, r=None)
        self.tensors |= {"W": _with_norm(weyl_projective(pj)), "P": _with_norm(hol_projective(pj))}


# An evaluator maps a _Job to (residuals, scales, details): residuals and
# scales broadcast to (P, K); details, if any, map a key to one value per point.

def _record(name: str, key: str):
    """The evaluator of entry `key` of the job's record `name`, ``torsion``
    or ``kahler``, with the record's scale."""
    return lambda j: (getattr(j, name)[key], getattr(j, name)["scale"], None)


def _metricity_evaluator(j: _Job):
    rec = metricity_defects(j.pj, j.gj)
    batch = j.gj.pi.shape[:-1]
    worst = {k: np.broadcast_to(v, batch) for k, v in rec.items() if k != "scale"}
    details = {k: v.max(-1) for k, v in worst.items()}
    return emax(*worst.values()), rec["scale"], details


def _nabla1pi_evaluator(j: _Job):
    rec = nabla1_pi_defect(j.pj, j.gj)
    return rec["residual"], rec["scale"], None


def _drel_evaluator(j: _Job):
    d0, d1, d2, d3 = j.gj.d
    t = lambda x: x.swapaxes(-1, -2)
    res = emax(
        norm_max(d1 - (d2 - t(d3)), 2),
        norm_max(d1 - (d0 - t(d0)), 2),
        norm_max(2 * d0 - (d2 + d3), 2),
    )
    return res, norm_max(j.gj.d, 2).max(0), None


def _richyb_evaluator(j: _Job):
    return (*hybrid_defect(j.pj.ric_g, j.pj.a), None)


def _riccf_evaluator(j: _Job):
    rec = closed_form_residuals(j.b)
    return emax(*(v for k, v in rec.items() if k != "scale")), rec["scale"], None


def _ric23_evaluator(j: _Job):
    ric2, ric3 = j.b.ric[2], j.b.ric[3]
    res = norm_max(ric2 - ric3.swapaxes(-1, -2), 2)
    return res, np.maximum(norm_max(ric2, 2), norm_max(ric3, 2)), None


def _pr34_evaluator(j: _Job):
    pr3, pr4 = j.b.prime_r3, j.b.prime_r4
    return norm_max(pr3 - pr4, 2), np.maximum(norm_max(pr3, 2), norm_max(pr4, 2)), None


def _hind_evaluator(theta: int):
    def evaluate(j: _Job):
        if j.gj.pi.shape[-2] == 1:  # single generator: nothing to compare
            return np.zeros((len(j.pj.point), 1)), 1.0, None
        h, hn = j.tensors[f"H{theta}"]
        scale = np.maximum(j.b.scale, hn)  # per generator
        # the pairs (i, i+1..G-1) of one triangle row at a time: no copy of H per pair
        rows = range(h.shape[1] - 1)
        res = [norm_max(h[:, i + 1 :] - h[:, i, None], 4) for i in rows]
        pairs = [np.maximum(scale[:, i, None], scale[:, i + 1 :]) for i in rows]
        return np.concatenate(res, axis=-1), np.concatenate(pairs, axis=-1), None

    return evaluate


class LinearRelation:
    """The evaluator of one linear relation: sum_i c_i T_i = 0.

    A term is (c, name) or (c, name, slots).  c is a number or a function of
    n.  name is a key of ``_Job.tensors`` or "H0RG", H0 written in R^g, which
    is built for its row alone (kept for the whole job, it would raise the
    peak memory).  slots names the arguments of T: "YZX" is T(Y, Z)X.  The
    scale is the bundle scale and the max-norm of every T_i in the row.  The
    sum runs in ``_chunks`` of the output slot of ``_SLAB_BYTES`` (one slab
    reads its terms whole), in two reused buffers: the first term is read in
    place if c = 1 (1 T is T) and written otherwise, the others added (c T in
    the second buffer unless c = +-1); the residual is the largest slab's."""

    def __init__(self, *terms):
        self.terms = terms

    def __call__(self, j: _Job):
        terms, norms = [], [j.b.scale]
        for c, name, *slots in self.terms:
            t, norm = _with_norm(_on_r_g(name, j.pj)) if name == "H0RG" else j.tensors[name]
            norms.append(norm)
            if slots:
                t = np.einsum(f"...l{slots[0]}->...lXYZ", t)
            terms.append((c(j.pj.n) if callable(c) else c, t))
        shape = np.broadcast_shapes(*(t.shape for _, t in terms))
        n = shape[-1]
        slabs = _chunks(n, 8 * prod(shape[:-4]) * n**3, _SLAB_BYTES)
        rows = slabs[0].stop - slabs[0].start
        total, scaled, residual = np.empty(shape[:-4] + (rows,) + shape[-3:]), None, []
        for part in slabs:
            slab = total[..., : part.stop - part.start, :, :, :]
            for i, (c, t) in enumerate(terms):
                t = t[..., part, :, :, :] if len(slabs) > 1 else t
                if i == 0:  # 1 T is T: read in place, not copied into the slab
                    acc = t if c == 1 else np.multiply(t, c, out=slab)
                    continue
                if c not in (1, -1):  # c T at T's own batch shape, in the second buffer
                    scaled = np.empty(total.size) if scaled is None else scaled
                    t = np.multiply(t, c, out=scaled[: t.size].reshape(t.shape))
                acc = (np.subtract if c == -1 else np.add)(acc, t, out=slab)
            residual.append(norm_max(acc, 4))
        return emax(*residual), emax(*norms), None


@dataclass(frozen=True)
class Identity:
    description: str
    classification: str  # core | audit
    scope: str  # hermitian | kahler_hypothesis | kahler_only
    evaluate: Callable[[_Job], tuple]


IDENTITY_CATALOG: dict[str, Identity] = {
    "I-T1": Identity(
        "torsion: A T(AX,AY) = A T(X,Y) - T(AX,Y) - T(X,AY)", "core", "hermitian",
        _record("torsion", "twisted_composition"),
    ),
    "I-T2": Identity(
        "lowered torsion rebuilt from structure-rotated slots", "core", "hermitian",
        _record("torsion", "lowered_reconstruction"),
    ),
    "I-T3": Identity(
        "cyclic torsion sums agree", "core", "hermitian", _record("torsion", "cyclic_sum")
    ),
    "I-NABLA1PI": Identity(
        "(nabla^1 pi)(X,Y) = (nabla^g pi)(X,Y) + pi(X) pi(AY)", "core", "hermitian",
        _nabla1pi_evaluator,
    ),
    "I-DREL": Identity(
        "linear relations among the D blocks (D1, D0, D2, D3)", "core", "hermitian",
        _drel_evaluator,
    ),
    "I-METRICITY": Identity(
        "connection preserves g, F, G and A (and A is g-parallel)", "core",
        "kahler_hypothesis", _metricity_evaluator,
    ),
    "I-K1": Identity(
        "R(X,Y)AZ = A R(X,Y)Z", "core", "kahler_hypothesis", _record("kahler", "k1_operator")
    ),
    "I-K2": Identity(
        "R(X,Y,AZ,AW) = R(AX,AY,Z,W)", "core", "kahler_hypothesis",
        _record("kahler", "k2_pair_exchange"),
    ),
    "I-K3": Identity(
        "R(X,AY,AZ,W) = R(AX,Y,Z,AW)", "core", "kahler_hypothesis",
        _record("kahler", "k3_inner_outer"),
    ),
    "I-K4": Identity(
        "R(AX,AY,AZ,AW) = R(X,Y,Z,W)", "core", "kahler_hypothesis",
        _record("kahler", "k4_all_four"),
    ),
    "I-K5": Identity(
        "R(X,Y,Z,AW) = -R(X,Y,AZ,W)", "core", "kahler_hypothesis",
        _record("kahler", "k5_last_pair"),
    ),
    "I-RICHYB": Identity(
        "Ricci tensor of g is hybrid", "core", "kahler_hypothesis", _richyb_evaluator
    ),
    "I-R1COMM": Identity(
        "kind-1 curvature equals the coefficient-commutator curvature", "core",
        "kahler_only", lambda j: j.r1comm,
    ),
    "I-RIC-CF": Identity(
        "closed forms of all Ricci-type traces and their inversions", "core",
        "kahler_only", _riccf_evaluator,
    ),
    "I-RIC23": Identity("Ric2(X,Y) = Ric3(Y,X)", "core", "kahler_only", _ric23_evaluator),
    "I-PR34": Identity("'R3 = 'R4", "core", "kahler_only", _pr34_evaluator),
    "I-H1H3": Identity(
        "H1 = H3", "core", "kahler_only", LinearRelation((1, "H1"), (-1, "H3"))
    ),
    **{
        f"I-HIND-{t}": Identity(
            f"H{t} is generator-independent", "core", "kahler_only", _hind_evaluator(t)
        )
        for t in THETAS
    },
    "I-H4W": Identity(
        "H4 equals the Weyl projective tensor", "core", "kahler_only",
        LinearRelation((1, "H4"), (-1, "W")),
    ),
    "I-LIN1": Identity(
        "4 H0 - 2 H1 - H2 = W", "audit", "kahler_only",
        LinearRelation((4, "H0"), (-2, "H1"), (-1, "H2"), (-1, "W")),
    ),
    "I-LIN2": Identity(
        "2 H5(X,Y)Z - H1(X,Y)Z + H1(Y,Z)X = W(X,Z)Y", "audit", "kahler_only",
        LinearRelation((2, "H5"), (-1, "H1"), (1, "H1", "YZX"), (-1, "W", "XZY")),
    ),
    "I-H0PW": Identity(
        "H0 = ((n+2)/4) P - ((n-2)/4) W", "audit", "kahler_only",
        LinearRelation((1, "H0"), (lambda n: -(n + 2) / 4, "P"), (lambda n: (n - 2) / 4, "W")),
    ),
    "I-2H1H2": Identity(
        "2 H1 + H2 = (n+2) P - (n-1) W", "audit", "kahler_only",
        LinearRelation((2, "H1"), (1, "H2"), (lambda n: -(n + 2), "P"), (lambda n: n - 1, "W")),
    ),
    "I-PCOMB1": Identity(
        "P = (4 H0 + (n-2) H4) / (n+2)", "audit", "kahler_only",
        LinearRelation(
            (1, "P"), (lambda n: -4 / (n + 2), "H0"), (lambda n: -(n - 2) / (n + 2), "H4")
        ),
    ),
    "I-PCOMB2": Identity(
        "P = (4(n-1) H0 - 2(n-2) H1 - (n-2) H2) / (n+2)", "audit", "kahler_only",
        LinearRelation(
            (1, "P"),
            (lambda n: -4 * (n - 1) / (n + 2), "H0"),
            (lambda n: 2 * (n - 2) / (n + 2), "H1"),
            (lambda n: (n - 2) / (n + 2), "H2"),
        ),
    ),
    "I-PCOMB3": Identity(
        "P from H0 and the H5/H1 slot-permuted combination", "audit", "kahler_only",
        # (n+2) P = 4 H0 + (n-2)(2 H5(X,Z)Y - H1(X,Z)Y + H1(Z,Y)X)
        LinearRelation(
            (1, "P"),
            (lambda n: -4 / (n + 2), "H0"),
            (lambda n: -2 * (n - 2) / (n + 2), "H5", "XZY"),
            (lambda n: (n - 2) / (n + 2), "H1", "XZY"),
            (lambda n: -(n - 2) / (n + 2), "H1", "ZYX"),
        ),
    ),
    "I-H0RG": Identity(
        "H0 written directly in R^g and Ric^g", "audit", "kahler_only",
        LinearRelation((1, "H0"), (-1, "H0RG")),
    ),
    **{
        f"I-HYB-COND-{t}": Identity(
            f"conditional hybrid curvature properties, kind {t}", "audit", "kahler_only",
            lambda j, t=t: j.hyb_cond[t],
        )
        for t in THETAS
    },
}


def identity_suite(
    m: ManifoldSpec,
    points,
    generators: list[TensorField],
    cfg: DiffConfig,
    tol_core: float = 1e-6,
    tol_audit: float = 1e-6,
) -> list[IdentityRows]:
    """Evaluate every applicable identity at every point: one
    ``IdentityRows`` per identity, sorted by id, whose arrays hold the
    worst generator (or generator pair) of each point.

    On a Kahler-expected manifold the full catalog runs.  Otherwise only the
    almost-Hermitian-valid identities run as stated, and the Kahler-hypothesis
    block is re-classified expected-fail (its residuals should be large).
    The points run in the ``_chunks`` whose n^4 arrays over all (point,
    generator) pairs fit ``_BLOCK_ARRAY_BYTES`` each; one block is freed
    before the next is built.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not generators:
        raise ValueError("identity suite needs at least one generator")
    if not len(points):
        raise ValueError("identity suite needs at least one point")
    plan = []  # (id, classification, evaluator)
    for ident, info in IDENTITY_CATALOG.items():
        if m.kahler_expected or info.scope == "hermitian":
            plan.append((ident, info.classification, info.evaluate))
        elif info.scope == "kahler_hypothesis":  # kahler_only does not run
            plan.append((ident, "expected-fail", info.evaluate))
    blocks = [
        _block_results(m, points[chunk], generators, cfg, plan, tol_audit)
        for chunk in _chunks(len(points), len(generators) * m.n**4 * 8, _BLOCK_ARRAY_BYTES)
    ]
    stats = np.concatenate([s for s, _ in blocks], axis=-1)  # max_residual, scale, relative
    details = {
        i: {key: np.concatenate([d[i][key] for _, d in blocks]) for key in keys}
        for i, keys in blocks[0][1].items()
    }
    classes = np.array([cls for _, cls, _ in plan])[:, None]
    tol = np.where(classes == "core", tol_core, tol_audit)
    passed = np.where(classes == "expected-fail", stats[2] >= EXPECTED_FAIL_FLOOR, stats[2] < tol)
    rows = [
        IdentityRows(ident, cls, *stats[:, i], passed[i], details.get(i))
        for i, (ident, cls, _) in enumerate(plan)
    ]
    return sorted(rows, key=lambda r: r.id)


def _block_results(m, points, generators, cfg, plan, tol_audit):
    """The (3, identities, points) maxima (residual, scale, relative) of one
    block of points, in the order of `plan`, and the details by identity
    index.  Each field is differentiated once, on all the block's points;
    everything after runs on (point, generator) batches."""
    pj = point_jets(m, points, cfg)
    job = _Job(pj, generator_jets(pj, generators), tol_audit, m.kahler_expected)
    evaluated = [evaluate(job) for _, _, evaluate in plan]
    # zero-padded to the widest K: residuals and scales are >= 0, relative(0, 0) = 0
    widths = [max(np.shape(res)[-1:] + np.shape(scale)[-1:]) for res, scale, _ in evaluated]
    padded = np.zeros((2, len(plan), len(points), max(widths)))
    for i, ((res, scale, _), k) in enumerate(zip(evaluated, widths)):
        padded[0, i, :, :k], padded[1, i, :, :k] = res, scale
    stats = np.concatenate([padded.max(-1), relative_residual(*padded).max(-1)[None]])
    return stats, {i: extra for i, (_, _, extra) in enumerate(evaluated) if extra is not None}
