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

``identity_suite`` runs whole points in blocks sized by a byte budget, so a
job's n^4 working set is bounded in P.  Per block of P points it
differentiates each field once into one ``PointJets`` (axes (P, 1)) and one
``GeneratorJets`` (P, G), builds one ``CurvatureBundle`` with batch axes
(P, G), runs the identities that read R^theta, then calls ``h_tensor`` once
per kind, folding H^theta onto R^theta in the bundle's stack (the R -> H
handover: one n^4 stack per kind family, and R^theta unreadable after).
Each evaluator returns residuals and scales shaped (P, K), K the generators
or, for an independence check, the generator pairs; a report row takes the
per-point maxima.  I-HYB-COND runs all six kinds in one pass: it gathers the
held (kind, point, generator) rows of the R stack and applies the Kahler
rules to chunks of them, at most ``_HYB_CHUNK_BYTES`` (128 KiB) of R rows
each.  H, W, P and the I-HYB-COND conditions are rank-one folds
(``curvature.fold_rank_one``): n^3 diagonal adds for the identity blocks and
one matmul with A per tensor for the structure blocks.

Residual scale convention: the scale of an identity is the largest max-norm
among the tensors entering it, including the curvature and trace blocks that
composite tensors are assembled from; this keeps cancellation noise measured
against the magnitude of what actually cancelled.  The part shared by every
identity on one (point, generator), the max-norm over R^g, the six kinds,
their traces and 'R3, 'R4, is ``CurvatureBundle.scale``.  The max-norms of
each H^theta, W and P are taken once per job, next to the tensors.

Batch convention as in ``connections``: tensor slots trail, leading axes are
batch axes, transposes are ``swapaxes(-1, -2)`` (never ``.T``, which would
reverse the batch axes too).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
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
    fold_rank_one,
    kahler_identities,
    lowered,
    rotate_slots,
    rotation_rules,
)
from .diff import DiffConfig
from .geometry import ManifoldSpec, TensorField
from .tensor import norm_max, relative_residual

EXPECTED_FAIL_FLOOR = 1e-3

# The working-set budget of one block of points, and the n^4 arrays per
# (point, generator) live at a block's peak, measured at n=16 and G=1..5
_BLOCK_BYTES = 16 << 20
_LIVE_BLOCKS = 16
# The R rows one I-HYB-COND chunk gathers, in bytes
_HYB_CHUNK_BYTES = 128 << 10


def _emax(*arrays):
    """Elementwise maximum of arrays that broadcast together."""
    return reduce(np.maximum, arrays)


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def hybrid_defect(b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hybridity of a (0,2) tensor, B(AX, Y) = -B(X, AY): the defect
    max |B(AX, Y) + B(X, AY)| and the scale max |B|, per leading index."""
    return norm_max(a.swapaxes(-1, -2) @ b + b @ a, 2), norm_max(b, 2)


def weyl_projective(pj: PointJets) -> np.ndarray:
    """W = R^g + (Ric(X,Z)Y - Ric(Y,Z)X) / (n-1); zero iff constant curvature."""
    c, ric = 1.0 / (pj.n - 1), pj.ric_g
    return fold_rank_one(pj.r_g, pj.a, [(c, ric, "I", "ik,lj"), (-c, ric, "I", "jk,li")])


def hol_projective(pj: PointJets) -> np.ndarray:
    """Structure-adapted projective tensor P; zero iff constant holomorphic
    sectional curvature (complex space form)."""
    c, ric = 1.0 / (pj.n + 2), pj.ric_g
    ric_a = ric @ pj.a  # Ric(., A .)
    terms = [
        (c, ric, "I", "ik,lj"), (-c, ric, "I", "jk,li"),
        (-c, ric_a, "A", "ik,lj"), (c, ric_a, "A", "jk,li"), (-2 * c, ric_a, "A", "ij,lk"),
    ]
    return fold_rank_one(pj.r_g, pj.a, terms)


def h_tensor(theta: int, b: CurvatureBundle, out: np.ndarray | None = None) -> np.ndarray:
    """Generator-invariant tensor of kind theta, built from the kind-theta
    curvature and its traces, for every (point, generator) of the bundle:
    a new array, or, given R^theta's buffer as `out`, in place over it."""
    if theta not in THETAS:
        raise ValueError(f"h_tensor kind must be 0..5, got {theta}")
    a, ric, pr3, pr4 = b.a, b.ric, b.prime_r3, b.prime_r4
    at = a.swapaxes(-1, -2)
    c = 1.0 / (b.n - 1)
    if theta == 1:
        terms = [(1.0, ric[1] @ a, "A", "ji,lk")]
    elif theta == 2:
        s = at @ ric[2]  # Ric2(A., .)
        terms = [(1.0, s, "A", "ik,lj"), (-1.0, s, "A", "jk,li")]
    elif theta == 3:
        terms = [(1.0, ric[3] @ a, "A", "ji,lk"), (1.0, at @ pr3, "A", "kj,li")]
    elif theta == 4:
        s = at @ pr4  # 'R4(A., .)
        s2 = rotate_slots(pr4, a, (0, 1))  # 'R4(A., A.)
        terms = [
            (-1.0, s, "A", "ji,lk"), (1.0, s, "A", "kj,li"),
            (-c, ric[4], "I", "jk,li"), (c, ric[4], "I", "ik,lj"),
            (c, s2, "I", "jk,li"), (-c, s2, "I", "ik,lj"),
        ]
    elif theta == 5:
        s2 = rotate_slots(pr3, a, (0, 1))
        terms = [
            (c, ric[5], "I", "ij,lk"), (-c, ric[5], "I", "jk,li"),
            (-c / 2, ric[1], "I", "ij,lk"), (c / 2, ric[1], "I", "jk,li"),
            (-c / 2, s2, "I", "ji,lk"), (c / 2, s2, "I", "kj,li"),
            (0.5, ric[1] @ a, "A", "ji,lk"), (-0.5, ric[3] @ a, "A", "kj,li"),
            (-0.5, at @ pr3, "A", "ki,lj"),
        ]
    else:
        s2 = rotate_slots(pr3, a, (0, 1))
        sp = at @ pr3
        terms = [
            # trace correction carries slots (X, Z), not (X, Y)
            (c, ric[0], "I", "ik,lj"), (-c, ric[0], "I", "jk,li"),
            (-c / 2, ric[1], "I", "ik,lj"), (c / 2, ric[1], "I", "jk,li"),
            (-c / 4, ric[3], "I", "ki,lj"), (c / 4, ric[3], "I", "kj,li"),
            (-c / 4, s2, "I", "ki,lj"), (c / 4, s2, "I", "kj,li"),
            (0.5, ric[1] @ a, "A", "ji,lk"),
            (0.25, ric[3] @ a, "A", "ki,lj"), (-0.25, ric[3] @ a, "A", "kj,li"),
            (-0.25, sp, "A", "ki,lj"), (0.25, sp, "A", "kj,li"),
        ]
    return fold_rank_one(b.r[theta] if out is None else out, a, terms, out)


def _h0_from_levi_civita(b: CurvatureBundle) -> np.ndarray:
    """H0 written directly in the curvature and Ricci tensor of g."""
    a, ric = b.a, b.ric_g
    s = a.swapaxes(-1, -2) @ ric  # Ric(A., .)
    c = 1.0 / (4 * (b.n - 1))
    terms = [
        (c, ric, "I", "ik,lj"), (-c, ric, "I", "jk,li"),
        (0.5, s, "A", "ij,lk"), (0.25, s, "A", "ik,lj"), (-0.25, s, "A", "jk,li"),
    ]
    return fold_rank_one(b.r_g, a, terms)


# -- identity suite ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IdentityResult:
    id: str
    point_index: int
    max_residual: float
    scale: float
    relative: float
    passed: bool
    classification: str  # core | audit | expected-fail
    details: dict[str, float] | None = None


def _part2_condition(theta: int, b: CurvatureBundle) -> np.ndarray:
    a, pi, pa = b.a, b.pi, b.pa
    pipi = _outer(pi, pi)
    d2, d3 = b.d[2], b.d[3]
    if theta == 1:
        return np.zeros(pi.shape[:-1])
    if theta == 0:
        return norm_max(b.nabla_pi + _outer(pi, pa) + 0.5 * _outer(pa, pi), 2)
    if theta == 2:
        terms = [
            (1.0, d2, "I", "ik,lj"), (1.0, d2 @ a, "A", "ik,lj"),
            (-1.0, d2, "I", "jk,li"), (-1.0, d2 @ a, "A", "jk,li"),
        ]
    elif theta == 3:
        terms = [(1.0, d3, "I", "jk,li"), (1.0, d3 @ a, "A", "jk,li")]
    elif theta == 4:
        d4 = b.nabla_pi @ a - 2 * pipi
        terms = [
            (1.0, d4, "A", "jk,li"), (1.0, pipi, "A", "ik,lj"),
            (1.0, d4 @ a, "I", "jk,li"), (-1.0, pipi @ a, "I", "ik,lj"),
        ]
    else:
        terms = [
            (1.0, d3, "I", "ik,lj"), (1.0, d3 @ a, "A", "ik,lj"),
            (-1.0, d2 + _outer(pi, pa), "I", "jk,li"), (-1.0, d2 @ a - pipi, "A", "jk,li"),
        ]
    return norm_max(fold_rank_one(None, a, terms), 4)


class _Job:
    """What the evaluators of one ``identity_suite`` call read: the records
    of all points and generators, the bundle, and the tensors built from them
    (on first use, so only on Kahler charts).  Point-level results carry a
    unit generator axis."""

    def __init__(self, pj: PointJets, gj: GeneratorJets, b: CurvatureBundle, tol_audit: float):
        self.pj, self.gj, self.b, self.tol_audit = pj, gj, b, tol_audit
        self.kahler = kahler_identities(pj)
        self.torsion = torsion_identities(pj, gj)

    @cached_property
    def tensors(self) -> dict[str, np.ndarray]:
        """H0..H5 per (point, generator), each built over R^theta in the
        bundle's stack (so R^theta is unreadable from then on), W and P per
        point."""
        r = self.b.hand_over_r()
        t = {f"H{theta}": h_tensor(theta, self.b, r[theta]) for theta in THETAS}
        t["W"], t["P"] = weyl_projective(self.pj), hol_projective(self.pj)
        return t

    @cached_property
    def norms(self) -> dict[str, np.ndarray]:
        """The max-norm of each of ``tensors``."""
        return {name: norm_max(t, 4) for name, t in self.tensors.items()}

    @cached_property
    def hyb_cond(self) -> list[tuple]:
        """(residuals, scales, details) of I-HYB-COND for each kind, from one
        pass over all six: the hypotheses as (6, P, G) arrays, then, per part,
        the Kahler rules on the held (kind, point, generator) rows of the R
        stack (k2..k4, then k1 and k5), in chunks of ``_HYB_CHUNK_BYTES``."""
        b, tol = self.b, self.tol_audit
        # part 1 asks nabla^g pi hybrid, and pi (x) pi too except for kind 1
        nabla, nabla_scale = hybrid_defect(b.nabla_pi, b.a)
        pipi, pipi_scale = hybrid_defect(_outer(b.pi, b.pi), b.a)
        kind1 = relative_residual(nabla, nabla_scale)
        other = relative_residual(np.maximum(nabla, pipi), np.maximum(nabla_scale, pipi_scale))
        h1 = np.stack([kind1 if t == 1 else other for t in THETAS])
        hyp2_scale = _emax(norm_max(b.d, 2).max(0), nabla_scale, pipi_scale)
        h2 = relative_residual(np.stack([_part2_condition(t, b) for t in THETAS]), hyp2_scale)
        held = (h1 < tol, h2 < tol)
        batch = h1.shape[1:]
        a, g = (np.broadcast_to(x, batch + x.shape[-2:]) for x in (b.a, b.g))
        res, sc = np.zeros(h1.shape + (2,)), np.zeros(h1.shape + (2,))
        size = max(1, _HYB_CHUNK_BYTES // (8 * b.n**4))
        for part, mask in enumerate(held):
            rows = np.nonzero(mask)
            for first in range(0, len(rows[0]), size):
                kind, point, gen = (i[first : first + size] for i in rows)
                r, ar = b.r[kind, point, gen], a[point, gen]
                rl = lowered(r, g[point, gen])
                rules = commutation_rules(r, rl, ar) if part else rotation_rules(rl, ar)
                res[kind, point, gen, part] = _emax(*rules.values())
                sc[kind, point, gen, part] = np.maximum(b.scale[point, gen], norm_max(rl, 4))
        rel = relative_residual(res, sc)
        res, sc = (x.reshape(len(THETAS), batch[0], -1) for x in (res, sc))
        sc[~(held[0] | held[1]).any(-1), 0] = 1.0  # no conclusion at this point: (0, 1)
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


# An evaluator maps a _Job to (residuals, scales, details): residuals and
# scales broadcast to (P, K); details, if any, map a key to one value per point.

def _hyb_cond_evaluator(theta: int):
    return lambda j: j.hyb_cond[theta]


def _torsion_evaluator(key: str):
    return lambda j: (j.torsion[key], j.torsion["scale"], None)


def _metricity_evaluator(j: _Job):
    rec = metricity_defects(j.pj, j.gj)
    batch = j.b.pi.shape[:-1]
    worst = {k: np.broadcast_to(v, batch) for k, v in rec.items() if k != "scale"}
    details = {k: v.max(-1) for k, v in worst.items()}
    return _emax(*worst.values()), rec["scale"], details


def _nabla1pi_evaluator(j: _Job):
    rec = nabla1_pi_defect(j.pj, j.gj)
    return rec["residual"], rec["scale"], None


def _drel_evaluator(j: _Job):
    d0, d1, d2, d3 = j.b.d
    t = lambda x: x.swapaxes(-1, -2)
    res = _emax(
        norm_max(d1 - (d2 - t(d3)), 2),
        norm_max(d1 - (d0 - t(d0)), 2),
        norm_max(2 * d0 - (d2 + d3), 2),
    )
    return res, norm_max(j.b.d, 2).max(0), None


def _kahler_evaluator(key: str):
    return lambda j: (j.kahler[key], j.kahler["scale"], None)


def _richyb_evaluator(j: _Job):
    return (*hybrid_defect(j.pj.ric_g, j.pj.a), None)


def _r1comm_evaluator(j: _Job):
    comm = commutator_curvature(j.pj, j.gj)
    r1 = j.b.r[1]
    return norm_max(r1 - comm, 4), np.maximum(norm_max(r1, 4), norm_max(comm, 4)), None


def _riccf_evaluator(j: _Job):
    rec = closed_form_residuals(j.b)
    return _emax(*(v for k, v in rec.items() if k != "scale")), rec["scale"], None


def _ric23_evaluator(j: _Job):
    ric2, ric3 = j.b.ric[2], j.b.ric[3]
    res = norm_max(ric2 - ric3.swapaxes(-1, -2), 2)
    return res, np.maximum(norm_max(ric2, 2), norm_max(ric3, 2)), None


def _pr34_evaluator(j: _Job):
    pr3, pr4 = j.b.prime_r3, j.b.prime_r4
    return norm_max(pr3 - pr4, 2), np.maximum(norm_max(pr3, 2), norm_max(pr4, 2)), None


def _hind_evaluator(theta: int):
    def evaluate(j: _Job):
        first, second = np.triu_indices(j.b.pi.shape[-2], 1)
        if not first.size:  # single generator: nothing to compare
            return np.zeros((len(j.pj.point), 1)), 1.0, None
        name, bs = f"H{theta}", j.b.scale
        h, hn = j.tensors[name], j.norms[name]
        # the pairs (i, i+1..G-1) of one triangle row at a time, in the order
        # of (first, second): no copy of H per pair
        res = np.concatenate(
            [norm_max(h[:, i + 1 :] - h[:, i, None], 4) for i in range(h.shape[1] - 1)],
            axis=-1,
        )
        scale = _emax(bs[:, first], bs[:, second], hn[:, first], hn[:, second])
        return res, scale, None

    return evaluate


class LinearRelation:
    """The evaluator of one linear relation: sum_i c_i T_i = 0.

    A term is (c, name) or (c, name, slots).  c is a number or a function of
    n.  name is a key of ``_Job.tensors`` or "H0RG", H0 written in R^g, which
    is built for its row alone (kept for the whole job, it would raise the
    peak memory).  slots names the arguments of T: "YZX" is T(Y, Z)X.  The
    scale is the bundle scale and the max-norm of every T_i in the row."""

    def __init__(self, *terms):
        self.terms = terms

    def __call__(self, j: _Job):
        tensors, norms = [], [j.b.scale]
        for _, name, *_ in self.terms:
            if name == "H0RG":
                tensors.append(_h0_from_levi_civita(j.b))
                norms.append(norm_max(tensors[-1], 4))
            else:
                tensors.append(j.tensors[name])
                norms.append(j.norms[name])
        # allocated once the tensors exist, so building them does not peak on top of it
        total = np.zeros(np.broadcast_shapes(*(t.shape for t in tensors)))
        for (c, _, *slots), t in zip(self.terms, tensors):
            c = c(j.pj.n) if callable(c) else c
            if slots:
                t = np.einsum(f"...l{slots[0]}->...lXYZ", t)
            if c == 1:  # unit terms in place: no temporary as large as H
                total += t
            elif c == -1:
                total -= t
            else:
                total += c * t
        return norm_max(total, 4), _emax(*norms), None


@dataclass(frozen=True)
class Identity:
    description: str
    classification: str  # core | audit
    scope: str  # hermitian | kahler_hypothesis | kahler_only
    evaluate: Callable[[_Job], tuple]


IDENTITY_CATALOG: dict[str, Identity] = {
    "I-T1": Identity(
        "torsion: A T(AX,AY) = A T(X,Y) - T(AX,Y) - T(X,AY)", "core", "hermitian",
        _torsion_evaluator("twisted_composition"),
    ),
    "I-T2": Identity(
        "lowered torsion rebuilt from structure-rotated slots", "core", "hermitian",
        _torsion_evaluator("lowered_reconstruction"),
    ),
    "I-T3": Identity(
        "cyclic torsion sums agree", "core", "hermitian", _torsion_evaluator("cyclic_sum")
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
        "R(X,Y)AZ = A R(X,Y)Z", "core", "kahler_hypothesis", _kahler_evaluator("k1_operator")
    ),
    "I-K2": Identity(
        "R(X,Y,AZ,AW) = R(AX,AY,Z,W)", "core", "kahler_hypothesis",
        _kahler_evaluator("k2_pair_exchange"),
    ),
    "I-K3": Identity(
        "R(X,AY,AZ,W) = R(AX,Y,Z,AW)", "core", "kahler_hypothesis",
        _kahler_evaluator("k3_inner_outer"),
    ),
    "I-K4": Identity(
        "R(AX,AY,AZ,AW) = R(X,Y,Z,W)", "core", "kahler_hypothesis",
        _kahler_evaluator("k4_all_four"),
    ),
    "I-K5": Identity(
        "R(X,Y,Z,AW) = -R(X,Y,AZ,W)", "core", "kahler_hypothesis",
        _kahler_evaluator("k5_last_pair"),
    ),
    "I-RICHYB": Identity(
        "Ricci tensor of g is hybrid", "core", "kahler_hypothesis", _richyb_evaluator
    ),
    "I-R1COMM": Identity(
        "kind-1 curvature equals the coefficient-commutator curvature", "core",
        "kahler_only", _r1comm_evaluator,
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
            _hyb_cond_evaluator(t),
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
) -> list[IdentityResult]:
    """Evaluate every applicable identity at every point.

    On a Kahler-expected manifold the full catalog runs.  Otherwise only the
    almost-Hermitian-valid identities run as stated, and the Kahler-hypothesis
    block is re-classified expected-fail (its residuals should be large).
    Per (identity, point) the worst generator (or generator pair) is reported.
    The points run in blocks whose estimated working set fits
    ``_BLOCK_BYTES``; one block is freed before the next is built.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not generators:
        raise ValueError("identity suite needs at least one generator")
    size = max(1, _BLOCK_BYTES // (_LIVE_BLOCKS * len(generators) * m.n**4 * 8))
    results: list[IdentityResult] = []
    for first in range(0, len(points), size):
        block = points[first : first + size]
        results += _block_results(m, block, first, generators, cfg, tol_core, tol_audit)
    results.sort(key=lambda r: (r.id, r.point_index))
    return results


def _block_results(m, points, first, generators, cfg, tol_core, tol_audit):
    """The rows of one block of points, numbered from `first`.  The metric,
    the structure and each generator are differentiated once, on all the
    block's points; everything after runs on (point, generator) batches."""
    pj = point_jets(m, points, cfg)
    gj = generator_jets(pj, generators)
    job = _Job(pj, gj, curvature_bundle(pj, gj), tol_audit)
    results: list[IdentityResult] = []
    # the readers of R^theta run before the H^theta are built over it
    order = sorted(IDENTITY_CATALOG, key=lambda i: not i.startswith(("I-HYB-COND", "I-R1COMM")))
    for ident in order:
        info = IDENTITY_CATALOG[ident]
        if info.scope == "kahler_only" and not m.kahler_expected:
            continue
        classification = info.classification
        if info.scope == "kahler_hypothesis" and not m.kahler_expected:
            classification = "expected-fail"
        tol = tol_core if classification == "core" else tol_audit
        res, scale, details = info.evaluate(job)
        res, scale = np.broadcast_arrays(res, scale)
        rel = relative_residual(res, scale).max(-1)
        if classification == "expected-fail":
            passed = rel >= EXPECTED_FAIL_FLOOR
        else:
            passed = rel < tol
        for point_index, (r, s, q, ok) in enumerate(
            zip(res.max(-1), scale.max(-1), rel, passed)
        ):
            results.append(
                IdentityResult(
                    id=ident,
                    point_index=first + point_index,
                    max_residual=float(r),
                    scale=float(s),
                    relative=float(q),
                    passed=bool(ok),
                    classification=classification,
                    details=None
                    if details is None
                    else {k: float(v[point_index]) for k, v in details.items()},
                )
            )
    return results
