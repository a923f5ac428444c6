"""Projective-type tensors, generator-invariant tensors and the identity suite.

The six curvature kinds depend on the generator one-form.  For each kind a
correction by its own traces produces a tensor that does not:

    H1 ... H5, H0   (kind-wise generator-invariant tensors)

H4 coincides with the Weyl projective tensor W of g, and all of them are
linear combinations of W and the structure-adapted projective tensor P.  The
identity suite turns every such statement into a residual with a stable ID.

Residual scale convention: the scale of an identity is the largest max-norm
among the tensors entering it, including the curvature and trace blocks that
composite tensors are assembled from; this keeps cancellation noise measured
against the magnitude of what actually cancelled.  The part shared by every
identity on one generator, the max-norm over R^g, the six kinds, their traces
and 'R3, 'R4, is ``CurvatureBundle.scale``: computed once per bundle, on first
use.  ``identity_suite`` takes the max-norm of each H^theta, W and P once per
point, next to the tensor itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connections import (
    PointJets,
    generator_jets,
    metricity_defects,
    nabla1_pi_defect,
    point_jets,
    torsion_identities,
)
from .curvature import (
    CurvatureBundle,
    commutator_curvature,
    closed_form_residuals,
    curvature_bundle,
    kahler_identities,
    rotate_slots,
    scalar_times_vector,
)
from .diff import DiffConfig
from .geometry import GeneratorField, ManifoldSpec
from .tensor import Signature, Tensor, norm_max, relative_residual

EXPECTED_FAIL_FLOOR = 1e-3
HYBRID_TOL = 1e-10


@dataclass(frozen=True)
class HybridReport:
    label: str
    defect: float          # max |B(AX, Y) + B(X, AY)|
    kahler_defect: float   # max |B(AX, AY) - B(X, Y)|
    scale: float
    tol: float = HYBRID_TOL

    @property
    def is_hybrid(self) -> bool:
        return relative_residual(self.defect, [self.scale]) < self.tol


def hybrid_defect(b: np.ndarray | Tensor, a: np.ndarray | Tensor, label: str = "") -> HybridReport:
    """Hybridity of a (0,2) tensor: B(AX, Y) = -B(X, AY)."""
    bb = b.components if isinstance(b, Tensor) else np.asarray(b)
    aa = a.components if isinstance(a, Tensor) else np.asarray(a)
    return HybridReport(
        label=label,
        defect=norm_max(aa.T @ bb + bb @ aa),
        kahler_defect=norm_max(aa.T @ bb @ aa - bb),
        scale=norm_max(bb),
    )


def weyl_projective(pj: PointJets) -> Tensor:
    """W = R^g + (Ric(X,Z)Y - Ric(Y,Z)X) / (n-1); zero iff constant curvature."""
    n, eye = pj.n, np.eye(pj.n)
    comps = pj.r_g + (
        scalar_times_vector(pj.ric_g, eye, "ik,lj")
        - scalar_times_vector(pj.ric_g, eye, "jk,li")
    ) / (n - 1)
    return Tensor(n, Signature("uddd"), comps)


def hol_projective(pj: PointJets) -> Tensor:
    """Structure-adapted projective tensor P; zero iff constant holomorphic
    sectional curvature (complex space form)."""
    n, eye, a, ric_g = pj.n, np.eye(pj.n), pj.a, pj.ric_g
    ric_a = ric_g @ a  # Ric(., A .)
    comps = (
        pj.r_g
        + (
            scalar_times_vector(ric_g, eye, "ik,lj")
            - scalar_times_vector(ric_g, eye, "jk,li")
        )
        / (n + 2)
        - (
            scalar_times_vector(ric_a, a, "ik,lj")
            - scalar_times_vector(ric_a, a, "jk,li")
            + 2 * scalar_times_vector(ric_a, a, "ij,lk")
        )
        / (n + 2)
    )
    return Tensor(n, Signature("uddd"), comps)


def h_tensor(theta: int, b: CurvatureBundle) -> Tensor:
    """Generator-invariant tensor of kind theta, built from the kind-theta
    curvature and its traces."""
    n, a = b.n, b.a
    eye = np.eye(n)
    sv = scalar_times_vector
    if theta == 1:
        comps = b.r[1].components + sv(b.ric[1] @ a, a, "ji,lk")
    elif theta == 2:
        s = a.T @ b.ric[2]  # Ric2(A., .)
        comps = b.r[2].components + sv(s, a, "ik,lj") - sv(s, a, "jk,li")
    elif theta == 3:
        comps = (
            b.r[3].components
            + sv(b.ric[3] @ a, a, "ji,lk")
            + sv(a.T @ b.prime_r3, a, "kj,li")
        )
    elif theta == 4:
        s = a.T @ b.prime_r4  # 'R4(A., .)
        s2 = rotate_slots(b.prime_r4, a, (0, 1))  # 'R4(A., A.)
        comps = (
            b.r[4].components
            - sv(s, a, "ji,lk")
            + sv(s, a, "kj,li")
            - (
                sv(b.ric[4], eye, "jk,li")
                - sv(b.ric[4], eye, "ik,lj")
                - sv(s2, eye, "jk,li")
                + sv(s2, eye, "ik,lj")
            )
            / (n - 1)
        )
    elif theta == 5:
        s2 = rotate_slots(b.prime_r3, a, (0, 1))
        comps = (
            b.r[5].components
            + (sv(b.ric[5], eye, "ij,lk") - sv(b.ric[5], eye, "jk,li")) / (n - 1)
            - (sv(b.ric[1], eye, "ij,lk") - sv(b.ric[1], eye, "jk,li")) / (2 * (n - 1))
            - (sv(s2, eye, "ji,lk") - sv(s2, eye, "kj,li")) / (2 * (n - 1))
            + 0.5
            * (
                sv(b.ric[1] @ a, a, "ji,lk")
                - sv(b.ric[3] @ a, a, "kj,li")
                - sv(a.T @ b.prime_r3, a, "ki,lj")
            )
        )
    elif theta == 0:
        s2 = rotate_slots(b.prime_r3, a, (0, 1))
        sp = a.T @ b.prime_r3
        comps = (
            b.r[0].components
            # trace correction carries slots (X, Z), not (X, Y)
            + (sv(b.ric[0], eye, "ik,lj") - sv(b.ric[0], eye, "jk,li")) / (n - 1)
            - (sv(b.ric[1], eye, "ik,lj") - sv(b.ric[1], eye, "jk,li")) / (2 * (n - 1))
            - (
                sv(b.ric[3], eye, "ki,lj")
                - sv(b.ric[3], eye, "kj,li")
                + sv(s2, eye, "ki,lj")
                - sv(s2, eye, "kj,li")
            )
            / (4 * (n - 1))
            + 0.25
            * (
                2 * sv(b.ric[1] @ a, a, "ji,lk")
                + sv(b.ric[3] @ a, a, "ki,lj")
                - sv(b.ric[3] @ a, a, "kj,li")
            )
            - 0.25 * (sv(sp, a, "ki,lj") - sv(sp, a, "kj,li"))
        )
    else:
        raise ValueError(f"h_tensor kind must be 0..5, got {theta}")
    return Tensor(n, b.r_g.signature, comps)


def _h0_from_levi_civita(b: CurvatureBundle) -> np.ndarray:
    """H0 written directly in the curvature and Ricci tensor of g."""
    n, a = b.n, b.a
    eye = np.eye(n)
    sv = scalar_times_vector
    s = a.T @ b.ric_g  # Ric(A., .)
    return (
        b.r_g.components
        + (sv(b.ric_g, eye, "ik,lj") - sv(b.ric_g, eye, "jk,li")) / (4 * (n - 1))
        + 0.25 * (2 * sv(s, a, "ij,lk") + sv(s, a, "ik,lj") - sv(s, a, "jk,li"))
    )


def degeneracy_probe(
    m: ManifoldSpec, points, gen: GeneratorField
) -> list[dict[str, float]]:
    """Pointwise witness that hybrid pi (x) pi forces pi ~ 0.

    Returns one record per point with the pi (x) pi hybrid defect and the
    generator norm; a hybrid defect below tolerance with a sizable generator
    would disprove the degeneracy (none exists)."""
    out = []
    for p in np.atleast_2d(np.asarray(points, dtype=np.float64)):
        pi = gen.pi(p).components
        a = m.structure(p).components
        rep = hybrid_defect(np.outer(pi, pi), a, label="pipi")
        out.append(
            {
                "pi_norm": norm_max(pi),
                "pipi_hybrid_defect": rep.defect,
                "pipi_scale": rep.scale,
            }
        )
    return out


# -- identity suite ----------------------------------------------------------

@dataclass(frozen=True)
class IdentityResult:
    id: str
    point_index: int
    max_residual: float
    scale: float
    relative: float
    passed: bool
    classification: str  # core | audit | expected-fail
    details: dict[str, float] | None = None


@dataclass(frozen=True)
class IdentityInfo:
    description: str
    classification: str  # core | audit
    scope: str  # hermitian | kahler_hypothesis | kahler_only


IDENTITY_CATALOG: dict[str, IdentityInfo] = {
    "I-T1": IdentityInfo(
        "torsion: A T(AX,AY) = A T(X,Y) - T(AX,Y) - T(X,AY)", "core", "hermitian"
    ),
    "I-T2": IdentityInfo(
        "lowered torsion rebuilt from structure-rotated slots", "core", "hermitian"
    ),
    "I-T3": IdentityInfo("cyclic torsion sums agree", "core", "hermitian"),
    "I-NABLA1PI": IdentityInfo(
        "(nabla^1 pi)(X,Y) = (nabla^g pi)(X,Y) + pi(X) pi(AY)", "core", "hermitian"
    ),
    "I-DREL": IdentityInfo(
        "linear relations among the D blocks (D1, D0, D2, D3)", "core", "hermitian"
    ),
    "I-METRICITY": IdentityInfo(
        "connection preserves g, F, G and A (and A is g-parallel)",
        "core",
        "kahler_hypothesis",
    ),
    "I-K1": IdentityInfo("R(X,Y)AZ = A R(X,Y)Z", "core", "kahler_hypothesis"),
    "I-K2": IdentityInfo("R(X,Y,AZ,AW) = R(AX,AY,Z,W)", "core", "kahler_hypothesis"),
    "I-K3": IdentityInfo("R(X,AY,AZ,W) = R(AX,Y,Z,AW)", "core", "kahler_hypothesis"),
    "I-K4": IdentityInfo("R(AX,AY,AZ,AW) = R(X,Y,Z,W)", "core", "kahler_hypothesis"),
    "I-K5": IdentityInfo("R(X,Y,Z,AW) = -R(X,Y,AZ,W)", "core", "kahler_hypothesis"),
    "I-RICHYB": IdentityInfo("Ricci tensor of g is hybrid", "core", "kahler_hypothesis"),
    "I-R1COMM": IdentityInfo(
        "kind-1 curvature equals the coefficient-commutator curvature",
        "core",
        "kahler_only",
    ),
    "I-RIC-CF": IdentityInfo(
        "closed forms of all Ricci-type traces and their inversions",
        "core",
        "kahler_only",
    ),
    "I-RIC23": IdentityInfo("Ric2(X,Y) = Ric3(Y,X)", "core", "kahler_only"),
    "I-PR34": IdentityInfo("'R3 = 'R4", "core", "kahler_only"),
    "I-H1H3": IdentityInfo("H1 = H3", "core", "kahler_only"),
    "I-HIND-0": IdentityInfo("H0 is generator-independent", "core", "kahler_only"),
    "I-HIND-1": IdentityInfo("H1 is generator-independent", "core", "kahler_only"),
    "I-HIND-2": IdentityInfo("H2 is generator-independent", "core", "kahler_only"),
    "I-HIND-3": IdentityInfo("H3 is generator-independent", "core", "kahler_only"),
    "I-HIND-4": IdentityInfo("H4 is generator-independent", "core", "kahler_only"),
    "I-HIND-5": IdentityInfo("H5 is generator-independent", "core", "kahler_only"),
    "I-H4W": IdentityInfo("H4 equals the Weyl projective tensor", "core", "kahler_only"),
    "I-LIN1": IdentityInfo("4 H0 - 2 H1 - H2 = W", "audit", "kahler_only"),
    "I-LIN2": IdentityInfo(
        "2 H5(X,Y)Z - H1(X,Y)Z + H1(Y,Z)X = W(X,Z)Y", "audit", "kahler_only"
    ),
    "I-H0PW": IdentityInfo(
        "H0 = ((n+2)/4) P - ((n-2)/4) W", "audit", "kahler_only"
    ),
    "I-2H1H2": IdentityInfo(
        "2 H1 + H2 = (n+2) P - (n-1) W", "audit", "kahler_only"
    ),
    "I-PCOMB1": IdentityInfo(
        "P = (4 H0 + (n-2) H4) / (n+2)", "audit", "kahler_only"
    ),
    "I-PCOMB2": IdentityInfo(
        "P = (4(n-1) H0 - 2(n-2) H1 - (n-2) H2) / (n+2)", "audit", "kahler_only"
    ),
    "I-PCOMB3": IdentityInfo(
        "P from H0 and the H5/H1 slot-permuted combination", "audit", "kahler_only"
    ),
    "I-H0RG": IdentityInfo(
        "H0 written directly in R^g and Ric^g", "audit", "kahler_only"
    ),
    "I-HYB-COND-0": IdentityInfo(
        "conditional hybrid curvature properties, kind 0", "audit", "kahler_only"
    ),
    "I-HYB-COND-1": IdentityInfo(
        "conditional hybrid curvature properties, kind 1", "audit", "kahler_only"
    ),
    "I-HYB-COND-2": IdentityInfo(
        "conditional hybrid curvature properties, kind 2", "audit", "kahler_only"
    ),
    "I-HYB-COND-3": IdentityInfo(
        "conditional hybrid curvature properties, kind 3", "audit", "kahler_only"
    ),
    "I-HYB-COND-4": IdentityInfo(
        "conditional hybrid curvature properties, kind 4", "audit", "kahler_only"
    ),
    "I-HYB-COND-5": IdentityInfo(
        "conditional hybrid curvature properties, kind 5", "audit", "kahler_only"
    ),
}


def identity_ids() -> list[str]:
    return list(IDENTITY_CATALOG)


def _part1_conclusions(rl: np.ndarray, a: np.ndarray) -> float:
    rot = lambda slots: rotate_slots(rl, a, slots)
    r01 = rot((0, 1))
    return max(
        norm_max(rot((2, 3)) - r01),
        norm_max(rot((1, 2)) - rot((0, 3))),
        # the same operations as rot((0, 1, 2, 3)): slots are fed in order
        norm_max(rotate_slots(r01, a, (2, 3)) - rl),
    )


def _part2_conclusions(r: np.ndarray, rl: np.ndarray, a: np.ndarray) -> float:
    op = norm_max(r @ a - (a @ r.reshape(len(a), -1)).reshape(r.shape))
    rot = lambda slots: rotate_slots(rl, a, slots)
    return max(op, norm_max(rot((3,)) + rot((2,))))


def _part2_condition(theta: int, b: CurvatureBundle) -> float:
    n, a = b.n, b.a
    eye = np.eye(n)
    sv = scalar_times_vector
    pipi = np.outer(b.pi, b.pi)
    if theta == 1:
        return 0.0
    if theta == 2:
        d2 = b.d[2]
        c = (
            sv(d2, eye, "ik,lj")
            + sv(d2 @ a, a, "ik,lj")
            - sv(d2, eye, "jk,li")
            - sv(d2 @ a, a, "jk,li")
        )
        return norm_max(c)
    if theta == 3:
        d3 = b.d[3]
        return norm_max(sv(d3, eye, "jk,li") + sv(d3 @ a, a, "jk,li"))
    if theta == 4:
        d4 = b.nabla_pi @ a - 2 * pipi
        c = (
            sv(d4, a, "jk,li")
            + sv(pipi, a, "ik,lj")
            + sv(d4 @ a, eye, "jk,li")
            - sv(pipi @ a, eye, "ik,lj")
        )
        return norm_max(c)
    if theta == 5:
        d2, d3 = b.d[2], b.d[3]
        c = (
            sv(d3, eye, "ik,lj")
            + sv(d3 @ a, a, "ik,lj")
            - sv(d2 + np.outer(b.pi, b.pa), eye, "jk,li")
            - sv(d2 @ a - pipi, a, "jk,li")
        )
        return norm_max(c)
    # theta == 0
    return norm_max(b.nabla_pi + np.outer(b.pi, b.pa) + 0.5 * np.outer(b.pa, b.pi))


def _hyb_hypotheses(b: CurvatureBundle) -> tuple[float, float, float]:
    """The kind-independent parts of the I-HYB-COND hypotheses of one bundle:
    the relative part-1 defect for kind 1 (nabla^g pi hybrid), the one for the
    other kinds (nabla^g pi and pi (x) pi hybrid), and the part-2 scale."""
    nabla = hybrid_defect(b.nabla_pi, b.a)
    pipi = hybrid_defect(np.outer(b.pi, b.pi), b.a)
    return (
        relative_residual(nabla.defect, [nabla.scale]),
        relative_residual(
            max(nabla.defect, pipi.defect), [max(nabla.scale, pipi.scale)]
        ),
        max(max(norm_max(d) for d in b.d.values()), nabla.scale, pipi.scale),
    )


def _hyb_cond_evaluator(theta: int):
    def evaluate(ctx: dict) -> tuple[list[tuple[float, float]], dict[str, float]]:
        tol = ctx["tol_audit"]
        pairs: list[tuple[float, float]] = []
        h1_rels, h2_rels = [], []
        c1_sat, c2_sat = [], []
        violated = False
        for label, b in ctx["bundles"].items():
            a = b.a
            hyp1_kind1_rel, hyp1_rel, hyp2_scale = ctx["hyb_hypotheses"][label]
            if theta == 1:
                hyp1_rel = hyp1_kind1_rel
            hyp2_rel = relative_residual(_part2_condition(theta, b), [hyp2_scale])
            h1_rels.append(hyp1_rel)
            h2_rels.append(hyp2_rel)
            # a conclusion says something only where its hypothesis holds
            if hyp1_rel < tol or hyp2_rel < tol:
                rl = b.lowered(theta)
                scale = max(b.scale, norm_max(rl))
            if hyp1_rel < tol:
                c1 = _part1_conclusions(rl, a)
                c1_rel = relative_residual(c1, [scale])
                c1_sat.append(c1_rel)
                pairs.append((c1, scale))
                if c1_rel >= tol:
                    violated = True
            if hyp2_rel < tol:
                c2 = _part2_conclusions(b.r[theta].components, rl, a)
                c2_rel = relative_residual(c2, [scale])
                c2_sat.append(c2_rel)
                pairs.append((c2, scale))
                if c2_rel >= tol:
                    violated = True
        if not pairs:
            pairs = [(0.0, 1.0)]
        details = {
            "part1_hypothesis_rel_min": min(h1_rels),
            "part1_satisfied": float(len(c1_sat)),
            "part1_conclusion_rel_max": max(c1_sat) if c1_sat else 0.0,
            "part2_condition_rel_min": min(h2_rels),
            "part2_satisfied": float(len(c2_sat)),
            "part2_conclusion_rel_max": max(c2_sat) if c2_sat else 0.0,
            "violated": 1.0 if violated else 0.0,
        }
        return pairs, details

    return evaluate


def _torsion_evaluator(key: str):
    def evaluate(ctx):
        return [(rec[key], rec["scale"]) for rec in ctx["torsion"]], None

    return evaluate


def _metricity_evaluator(ctx):
    pairs = []
    worst: dict[str, float] = {}
    for gj in ctx["gens"]:
        rec = metricity_defects(ctx["pj"], gj)
        defect = max(v for k, v in rec.items() if k != "scale")
        pairs.append((defect, rec["scale"]))
        for k, v in rec.items():
            if k != "scale":
                worst[k] = max(worst.get(k, 0.0), v)
    return pairs, worst


def _nabla1pi_evaluator(ctx):
    pairs = []
    for gj in ctx["gens"]:
        rec = nabla1_pi_defect(ctx["pj"], gj)
        pairs.append((rec["residual"], rec["scale"]))
    return pairs, None


def _drel_evaluator(ctx):
    pairs = []
    for b in ctx["bundles"].values():
        d0, d1, d2, d3 = b.d[0], b.d[1], b.d[2], b.d[3]
        res = max(
            norm_max(d1 - (d2 - d3.T)),
            norm_max(d1 - (d0 - d0.T)),
            norm_max(2 * d0 - (d2 + d3)),
        )
        scale = max(norm_max(d0), norm_max(d1), norm_max(d2), norm_max(d3))
        pairs.append((res, scale))
    return pairs, None


def _kahler_evaluator(key: str):
    def evaluate(ctx):
        rec = ctx["kahler_identities"]
        return [(rec[key], rec["scale"])], None

    return evaluate


def _richyb_evaluator(ctx):
    b = next(iter(ctx["bundles"].values()))
    rep = hybrid_defect(b.ric_g, b.a, label="ric_g")
    return [(rep.defect, rep.scale)], None


def _r1comm_evaluator(ctx):
    pairs = []
    for gj in ctx["gens"]:
        b = ctx["bundles"][gj.label]
        comm = commutator_curvature(ctx["pj"], gj).components
        res = norm_max(b.r[1].components - comm)
        pairs.append((res, max(norm_max(b.r[1]), norm_max(comm))))
    return pairs, None


def _riccf_evaluator(ctx):
    pairs = []
    for b in ctx["bundles"].values():
        rec = closed_form_residuals(b)
        res = max(v for k, v in rec.items() if k != "scale")
        pairs.append((res, rec["scale"]))
    return pairs, None


def _ric23_evaluator(ctx):
    pairs = []
    for b in ctx["bundles"].values():
        res = norm_max(b.ric[2] - b.ric[3].T)
        pairs.append((res, max(norm_max(b.ric[2]), norm_max(b.ric[3]))))
    return pairs, None


def _pr34_evaluator(ctx):
    pairs = []
    for b in ctx["bundles"].values():
        res = norm_max(b.prime_r3 - b.prime_r4)
        pairs.append((res, max(norm_max(b.prime_r3), norm_max(b.prime_r4))))
    return pairs, None


def _h1h3_evaluator(ctx):
    pairs = []
    h, hn = ctx["h"], ctx["h_norm"]
    for b in ctx["bundles"].values():
        res = norm_max(h(1, b) - h(3, b))
        pairs.append((res, max(b.scale, hn(1, b), hn(3, b))))
    return pairs, None


def _hind_evaluator(theta: int):
    def evaluate(ctx):
        bundles = list(ctx["bundles"].values())
        h, hn = ctx["h"], ctx["h_norm"]
        pairs = []
        for i in range(len(bundles)):
            for j in range(i + 1, len(bundles)):
                bi, bj = bundles[i], bundles[j]
                res = norm_max(h(theta, bi) - h(theta, bj))
                scale = max(bi.scale, bj.scale, hn(theta, bi), hn(theta, bj))
                pairs.append((res, scale))
        if not pairs:  # single generator: nothing to compare
            pairs = [(0.0, 1.0)]
        return pairs, None

    return evaluate


def _h4w_evaluator(ctx):
    pairs = []
    h, hn, w, wn = ctx["h"], ctx["h_norm"], ctx["weyl"], ctx["weyl_norm"]
    for b in ctx["bundles"].values():
        res = norm_max(h(4, b) - w)
        pairs.append((res, max(b.scale, wn, hn(4, b))))
    return pairs, None


def _lin1_evaluator(ctx):
    pairs = []
    h, hn, w, wn = ctx["h"], ctx["h_norm"], ctx["weyl"], ctx["weyl_norm"]
    for b in ctx["bundles"].values():
        res = norm_max(4 * h(0, b) - 2 * h(1, b) - h(2, b) - w)
        pairs.append((res, max(b.scale, hn(0, b), hn(1, b), hn(2, b), wn)))
    return pairs, None


def _lin2_evaluator(ctx):
    pairs = []
    h, hn, w, wn = ctx["h"], ctx["h_norm"], ctx["weyl"], ctx["weyl_norm"]
    w_xzy = np.einsum("likj->lijk", w)  # W(X, Z)Y
    for b in ctx["bundles"].values():
        h1, h5 = h(1, b), h(5, b)
        h1_yzx = np.einsum("ljki->lijk", h1)  # H1(Y, Z)X
        res = norm_max(2 * h5 - h1 + h1_yzx - w_xzy)
        pairs.append((res, max(b.scale, hn(1, b), hn(5, b), wn)))
    return pairs, None


def _h0pw_evaluator(ctx):
    pairs = []
    h, hn, n = ctx["h"], ctx["h_norm"], ctx["pj"].n
    w, p, wn, pn = ctx["weyl"], ctx["proj"], ctx["weyl_norm"], ctx["proj_norm"]
    target = (n + 2) / 4.0 * p - (n - 2) / 4.0 * w
    for b in ctx["bundles"].values():
        res = norm_max(h(0, b) - target)
        pairs.append((res, max(b.scale, hn(0, b), wn, pn)))
    return pairs, None


def _2h1h2_evaluator(ctx):
    pairs = []
    h, hn, n = ctx["h"], ctx["h_norm"], ctx["pj"].n
    w, p, wn, pn = ctx["weyl"], ctx["proj"], ctx["weyl_norm"], ctx["proj_norm"]
    target = (n + 2) * p - (n - 1) * w
    for b in ctx["bundles"].values():
        res = norm_max(2 * h(1, b) + h(2, b) - target)
        pairs.append((res, max(b.scale, hn(1, b), hn(2, b), wn, pn)))
    return pairs, None


def _pcomb1_evaluator(ctx):
    pairs = []
    h, hn, n = ctx["h"], ctx["h_norm"], ctx["pj"].n
    p, pn = ctx["proj"], ctx["proj_norm"]
    for b in ctx["bundles"].values():
        res = norm_max(p - (4 * h(0, b) + (n - 2) * h(4, b)) / (n + 2))
        pairs.append((res, max(b.scale, hn(0, b), hn(4, b), pn)))
    return pairs, None


def _pcomb2_evaluator(ctx):
    pairs = []
    h, hn, n = ctx["h"], ctx["h_norm"], ctx["pj"].n
    p, pn = ctx["proj"], ctx["proj_norm"]
    for b in ctx["bundles"].values():
        h0, h1, h2 = h(0, b), h(1, b), h(2, b)
        res = norm_max(
            p - (4 * (n - 1) * h0 - 2 * (n - 2) * h1 - (n - 2) * h2) / (n + 2)
        )
        pairs.append((res, max(b.scale, hn(0, b), hn(1, b), hn(2, b), pn)))
    return pairs, None


def _pcomb3_evaluator(ctx):
    pairs = []
    h, hn, n = ctx["h"], ctx["h_norm"], ctx["pj"].n
    p, pn = ctx["proj"], ctx["proj_norm"]
    for b in ctx["bundles"].values():
        h0, h1, h5 = h(0, b), h(1, b), h(5, b)
        middle = (
            2 * np.einsum("likj->lijk", h5)
            - np.einsum("likj->lijk", h1)
            + np.einsum("lkji->lijk", h1)
        )
        res = norm_max(p - 4 / (n + 2) * h0 - (n - 2) / (n + 2) * middle)
        pairs.append((res, max(b.scale, hn(0, b), hn(1, b), hn(5, b), pn)))
    return pairs, None


def _h0rg_evaluator(ctx):
    pairs = []
    h, hn = ctx["h"], ctx["h_norm"]
    for b in ctx["bundles"].values():
        direct = _h0_from_levi_civita(b)
        res = norm_max(h(0, b) - direct)
        pairs.append((res, max(b.scale, hn(0, b), norm_max(direct))))
    return pairs, None


_EVALUATORS: dict[str, Callable] = {
    "I-T1": _torsion_evaluator("twisted_composition"),
    "I-T2": _torsion_evaluator("lowered_reconstruction"),
    "I-T3": _torsion_evaluator("cyclic_sum"),
    "I-NABLA1PI": _nabla1pi_evaluator,
    "I-DREL": _drel_evaluator,
    "I-METRICITY": _metricity_evaluator,
    "I-K1": _kahler_evaluator("k1_operator"),
    "I-K2": _kahler_evaluator("k2_pair_exchange"),
    "I-K3": _kahler_evaluator("k3_inner_outer"),
    "I-K4": _kahler_evaluator("k4_all_four"),
    "I-K5": _kahler_evaluator("k5_last_pair"),
    "I-RICHYB": _richyb_evaluator,
    "I-R1COMM": _r1comm_evaluator,
    "I-RIC-CF": _riccf_evaluator,
    "I-RIC23": _ric23_evaluator,
    "I-PR34": _pr34_evaluator,
    "I-H1H3": _h1h3_evaluator,
    **{f"I-HIND-{t}": _hind_evaluator(t) for t in range(6)},
    "I-H4W": _h4w_evaluator,
    "I-LIN1": _lin1_evaluator,
    "I-LIN2": _lin2_evaluator,
    "I-H0PW": _h0pw_evaluator,
    "I-2H1H2": _2h1h2_evaluator,
    "I-PCOMB1": _pcomb1_evaluator,
    "I-PCOMB2": _pcomb2_evaluator,
    "I-PCOMB3": _pcomb3_evaluator,
    "I-H0RG": _h0rg_evaluator,
    **{f"I-HYB-COND-{t}": _hyb_cond_evaluator(t) for t in range(6)},
}


def identity_suite(
    m: ManifoldSpec,
    points,
    generators: list[GeneratorField],
    cfg: DiffConfig,
    tol_core: float = 1e-6,
    tol_audit: float = 1e-6,
) -> list[IdentityResult]:
    """Evaluate every applicable identity at every point.

    On a Kahler-expected manifold the full catalog runs.  Otherwise only the
    almost-Hermitian-valid identities run as stated, and the Kahler-hypothesis
    block is re-classified expected-fail (its residuals should be large).
    Per (identity, point) the worst generator (or generator pair) is reported.
    Each point's metric, structure and generators are differentiated once.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not generators:
        raise ValueError("identity suite needs at least one generator")
    results: list[IdentityResult] = []
    for point_index, p in enumerate(points):
        pj = point_jets(m, p, cfg)
        gens = [generator_jets(pj, gen) for gen in generators]
        bundles = {gj.label: curvature_bundle(pj, gj) for gj in gens}
        # H^theta of each bundle and its max-norm, each computed once
        h_cache: dict[tuple[int, int], tuple[np.ndarray, float]] = {}

        def h_entry(theta: int, b: CurvatureBundle) -> tuple[np.ndarray, float]:
            key = (id(b), theta)
            if key not in h_cache:
                comps = h_tensor(theta, b).components
                h_cache[key] = (comps, norm_max(comps))
            return h_cache[key]

        ctx = {
            "pj": pj,
            "gens": gens,
            "bundles": bundles,
            "kahler_identities": kahler_identities(pj),
            "torsion": [torsion_identities(pj, gj) for gj in gens],
            "h": lambda theta, b: h_entry(theta, b)[0],
            "h_norm": lambda theta, b: h_entry(theta, b)[1],
            "tol_audit": tol_audit,
        }
        if m.kahler_expected:
            ctx["weyl"] = weyl_projective(pj).components
            ctx["proj"] = hol_projective(pj).components
            ctx["weyl_norm"] = norm_max(ctx["weyl"])
            ctx["proj_norm"] = norm_max(ctx["proj"])
            ctx["hyb_hypotheses"] = {
                label: _hyb_hypotheses(b) for label, b in bundles.items()
            }
        for ident, info in IDENTITY_CATALOG.items():
            if info.scope == "kahler_only" and not m.kahler_expected:
                continue
            classification = info.classification
            if info.scope == "kahler_hypothesis" and not m.kahler_expected:
                classification = "expected-fail"
            tol = tol_core if classification == "core" else tol_audit
            pairs, details = _EVALUATORS[ident](ctx)
            max_res = max(r for r, _ in pairs)
            scale = max(s for _, s in pairs)
            rel = max(relative_residual(r, [s]) for r, s in pairs)
            if ident.startswith("I-HYB-COND") and details is not None:
                passed = details["violated"] == 0.0
            elif classification == "expected-fail":
                passed = rel >= EXPECTED_FAIL_FLOOR
            else:
                passed = rel < tol
            results.append(
                IdentityResult(
                    id=ident,
                    point_index=point_index,
                    max_residual=max_res,
                    scale=scale,
                    relative=rel,
                    passed=passed,
                    classification=classification,
                    details=details,
                )
            )
    results.sort(key=lambda r: (r.id, r.point_index))
    return results
