"""Curvature of the quarter-symmetric connection: six kinds and their traces.

All (1,3) curvature operators use slots (out; X, Y, Z), components
R[l, i, j, k], sign convention R(X, Y)Z = [nabla_X, nabla_Y] Z -
nabla_{[X,Y]} Z, so the round unit sphere has Ric = (n-1) g > 0.

The generator enters through four derived (0,2) tensors built from
B = nabla^g pi (direction first) and p = pi, q = pi o A:

    D0 = B + (p (x) q + q (x) p) / 2      D1 = B - B^T
    D2 = B + q (x) p                      D3 = B + p (x) q

The six curvature kinds are linear in these.  ``curvature_bundle`` assembles
them, their traces and the D blocks from the two per-point records of
``connections``: ``PointJets`` (g, A, Gamma with their partials, R^g, Ric^g) and
``GeneratorJets`` (pi, dpi, nabla^g pi), so no consumer differentiates a field
itself.  The bundle uses the shapes specialized with A^2 = -I;
``assemble_r_theta(kahler_form=False)`` keeps A^2 explicit.  For catalog
structures A^2 = -I holds exactly, so the two agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connections import (
    GeneratorJets,
    PointJets,
    curvature_from_coefficients,
    quarter_symmetric_jets,
)
from .tensor import Signature, Tensor, contract, norm_max

THETAS = (0, 1, 2, 3, 4, 5)


def riemann_g(pj: PointJets) -> Tensor:
    """Curvature of the Levi-Civita connection as a (1,3) tensor."""
    return Tensor(pj.n, Signature("uddd"), pj.r_g)


def commutator_curvature(pj: PointJets, gj: GeneratorJets) -> Tensor:
    """Curvature of the quarter-symmetric connection straight from its
    coefficients; the oracle every kind-1 closed shape is checked against."""
    l, dl = quarter_symmetric_jets(pj, gj)
    return Tensor(pj.n, Signature("uddd"), curvature_from_coefficients(l, dl))


def rotate_slots(arr: np.ndarray, a: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    """Feed each listed covariant slot through A: slot s of the result at X
    is slot s of `arr` at AX, e.g. slots (0, 1) give t(A., A.)."""
    out = arr
    for s in slots:
        out = np.moveaxis(np.tensordot(out, a, axes=([s], [0])), -1, s)
    return out


def _d_blocks(nabla_pi: np.ndarray, pi: np.ndarray, pa: np.ndarray):
    d0 = nabla_pi + 0.5 * (np.outer(pi, pa) + np.outer(pa, pi))
    d1 = nabla_pi - nabla_pi.T
    d2 = nabla_pi + np.outer(pa, pi)
    d3 = nabla_pi + np.outer(pi, pa)
    return {0: d0, 1: d1, 2: d2, 3: d3}


def scalar_times_vector(s: np.ndarray, v: np.ndarray, pattern: str) -> np.ndarray:
    """Rank-one (1,3) blocks  s(slot, slot) * V(vector slot).

    pattern "ij,lk" means s(X, Y) V Z, i.e. out[l,i,j,k] = s[i,j] v[l,k];
    v is an endomorphism (A) or the identity (coefficient along X, Y or Z).
    """
    lhs, rhs = pattern.split(",")
    return np.einsum(f"{lhs},{rhs}->lijk", s, v)


def _pi_triple(pi: np.ndarray, vec: np.ndarray, arrangement: str) -> np.ndarray:
    """pi(Z)(pi(Y) V X - pi(X) V Y) style blocks; vec is delta or A^2."""
    if arrangement == "z_yx":
        return np.einsum("k,j,li->lijk", pi, pi, vec) - np.einsum(
            "k,i,lj->lijk", pi, pi, vec
        )
    if arrangement == "y_xz":
        return np.einsum("j,i,lk->lijk", pi, pi, vec) - np.einsum(
            "j,k,li->lijk", pi, pi, vec
        )
    raise ValueError(arrangement)


def assemble_r_theta(
    theta: int,
    r_g: np.ndarray,
    a: np.ndarray,
    pi: np.ndarray,
    d: dict[int, np.ndarray],
    kahler_form: bool = True,
) -> np.ndarray:
    """Curvature of kind theta from the Levi-Civita curvature and D blocks."""
    if theta not in THETAS:
        raise ValueError(f"curvature kind must be one of {THETAS}, got {theta}")
    eye = np.eye(a.shape[0])
    sa = lambda s, pat: scalar_times_vector(s, a, pat)
    if theta == 1:
        return r_g - sa(d[1], "ij,lk")
    if theta == 2:
        return r_g - sa(d[2], "ik,lj") + sa(d[2], "jk,li")
    if theta == 3:
        return r_g - sa(d[2], "ij,lk") + sa(d[3], "jk,li")
    if kahler_form:
        if theta == 0:
            half_sum = 0.5 * (d[2] + d[3])
            return (
                r_g
                - 0.5 * sa(d[1], "ij,lk")
                - 0.5 * sa(half_sum, "ik,lj")
                + 0.5 * sa(half_sum, "jk,li")
                + 0.25 * _pi_triple(pi, eye, "z_yx")
            )
        if theta == 4:
            return (
                r_g
                - sa(d[3], "ij,lk")
                + sa(d[3], "jk,li")
                + _pi_triple(pi, eye, "z_yx")
            )
        # theta == 5
        return (
            r_g
            - 0.5 * sa(d[1], "ij,lk")
            - 0.5 * sa(d[3], "ik,lj")
            + 0.5 * sa(d[2], "jk,li")
            - 0.5 * _pi_triple(pi, eye, "y_xz")
        )
    a2 = a @ a
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
    # theta == 5 general shape
    return (
        r_g
        - 0.5 * sa(d[2] - d[3].T, "ij,lk")
        - 0.5 * sa(d[3], "ik,lj")
        + 0.5 * sa(d[2], "jk,li")
        + 0.5 * _pi_triple(pi, a2, "y_xz")
    )


def ricci(t: Tensor) -> Tensor:
    """Ric(Y, Z) = trace of X -> R(X, Y)Z (contract out with X)."""
    return contract(t, 0, 1)


def prime_r(t: Tensor) -> Tensor:
    """'R(X, Y) = trace of Z -> R(X, Y)Z (contract out with Z)."""
    return contract(t, 0, 3)


@dataclass(frozen=True)
class CurvatureBundle:
    """The curvature kinds, their traces and the D blocks of one generator at
    one point, assembled from its PointJets and GeneratorJets."""

    n: int
    g: np.ndarray
    a: np.ndarray
    pi: np.ndarray
    pa: np.ndarray  # pi o A
    nabla_pi: np.ndarray
    d: dict[int, np.ndarray]
    r_g: Tensor
    r: dict[int, Tensor]
    ric_g: np.ndarray
    ric: dict[int, np.ndarray]
    prime_r3: np.ndarray
    prime_r4: np.ndarray

    @cached_property
    def scale(self) -> float:
        """Largest max-norm among R^g, the six kinds, their Ricci traces,
        Ric^g, 'R3 and 'R4: the residual scale every identity on this bundle
        starts from.  Computed on first use, once per bundle."""
        return max(
            norm_max(self.r_g),
            max(norm_max(t) for t in self.r.values()),
            max(norm_max(v) for v in self.ric.values()),
            norm_max(self.ric_g),
            norm_max(self.prime_r3),
            norm_max(self.prime_r4),
        )

    def lowered(self, theta: int | None = None) -> np.ndarray:
        """(0,4) form R(X,Y,Z,W) = g(R(X,Y)Z, W); theta None means r_g."""
        t = self.r_g if theta is None else self.r[theta]
        return t.components.transpose(1, 2, 3, 0) @ self.g


def curvature_bundle(pj: PointJets, gj: GeneratorJets) -> CurvatureBundle:
    n, a, pi = pj.n, pj.a, gj.pi
    pa = pi @ a
    d = _d_blocks(gj.nabla_pi, pi, pa)
    r_g = riemann_g(pj)
    r = {
        theta: Tensor(n, Signature("uddd"), assemble_r_theta(theta, pj.r_g, a, pi, d))
        for theta in THETAS
    }
    ric = {theta: ricci(r[theta]).components for theta in THETAS}
    return CurvatureBundle(
        n=n,
        g=pj.g,
        a=a,
        pi=pi,
        pa=pa,
        nabla_pi=gj.nabla_pi,
        d=d,
        r_g=r_g,
        r=r,
        ric_g=pj.ric_g,
        ric=ric,
        prime_r3=prime_r(r[3]).components,
        prime_r4=prime_r(r[4]).components,
    )


def kahler_identities(pj: PointJets) -> dict[str, float]:
    """Residuals of the five structure/curvature exchange rules for R^g.

    k1 (operator form): R(X,Y)AZ = A R(X,Y)Z; k2..k5 on the lowered tensor:
    k2: R(X,Y,AZ,AW) = R(AX,AY,Z,W)    k3: R(X,AY,AZ,W) = R(AX,Y,Z,AW)
    k4: R(AX,AY,AZ,AW) = R(X,Y,Z,W)    k5: R(X,Y,Z,AW) = -R(X,Y,AZ,W)
    """
    r, a = pj.r_g, pj.a
    rl = r.transpose(1, 2, 3, 0) @ pj.g
    rot = lambda *slots: rotate_slots(rl, a, slots)
    # rotate_slots feeds slots in order, so extending a computed rotation
    # repeats the same operations: r2 -> r23 and r01 -> r0123 are exact.
    r2, r01 = rot(2), rot(0, 1)
    k1 = norm_max(r @ a - (a @ r.reshape(pj.n, -1)).reshape(r.shape))
    k2 = norm_max(rotate_slots(r2, a, (3,)) - r01)
    k3 = norm_max(rot(1, 2) - rot(0, 3))
    k4 = norm_max(rotate_slots(r01, a, (2, 3)) - rl)
    k5 = norm_max(rot(3) + r2)
    return {
        "k1_operator": k1,
        "k2_pair_exchange": k2,
        "k3_inner_outer": k3,
        "k4_all_four": k4,
        "k5_last_pair": k5,
        "scale": max(norm_max(r), norm_max(rl)),
    }


def closed_form_residuals(b: CurvatureBundle) -> dict[str, float]:
    n, a, pi = b.n, b.a, b.pi
    ricg = b.ric_g
    d1, d2, d3 = b.d[1], b.d[2], b.d[3]
    pipi = np.outer(pi, pi)

    def da(dblock: np.ndarray, first_rotated: bool) -> np.ndarray:
        # D(A d_k, d_j) -> [j, k] when first_rotated, else D(A d_j, d_k) -> [j, k]
        if first_rotated:
            return np.einsum("mk,mj->jk", a, dblock)
        return np.einsum("mj,mk->jk", a, dblock)

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
        f"closed_{name}": norm_max(b.ric[int(name[-1])] - val)
        for name, val in closed.items()
    }
    prime_closed = np.einsum("jm,mi->ij", d3, a)  # 'R3(X,Y) = D3(Y, AX)
    res["closed_prime_r3"] = norm_max(b.prime_r3 - prime_closed)
    res["closed_prime_r4"] = norm_max(b.prime_r4 - prime_closed)

    # inverse formulas: traces back to generator data
    ric1, ric2, ric3 = b.ric[1], b.ric[2], b.ric[3]
    ric4, ric5, ric0 = b.ric[4], b.ric[5], b.ric[0]
    # D1(Z, Y) = (Ric1 - Ricg)(Y, AZ): residual indexed [Z, Y]
    res["invert_d1"] = norm_max(d1 - np.einsum("jm,mk->kj", ric1 - ricg, a))
    # D2(Y, Z) = (Ric2 - Ricg)(AY, Z)
    res["invert_d2_from_ric2"] = norm_max(
        d2 - np.einsum("mj,mk->jk", a, ric2 - ricg)
    )
    # D2(Z, Y) = (Ric3 - Ricg)(Y, AZ)
    res["invert_d2_from_ric3"] = norm_max(
        d2 - np.einsum("jm,mk->kj", ric3 - ricg, a)
    )
    # D3(Y, X) = -'R3(AX, Y)
    res["invert_d3_from_prime"] = norm_max(
        d3.T + np.einsum("mi,mj->ij", a, b.prime_r3)
    )
    pr3_aa = rotate_slots(b.prime_r3, a, (0, 1))  # 'R3(A d_j, A d_k)
    res["recover_pipi_4"] = norm_max(
        pipi - (ric4 - ricg - rotate_slots(b.prime_r4, a, (0, 1))) / (n - 1)
    )
    res["recover_pipi_5"] = norm_max(
        pipi - (2 * ric5 - ric1 - pr3_aa.T - ricg) / (n - 1)
    )
    res["recover_pipi_0"] = norm_max(
        pipi - (4 * ric0 - 2 * ric1 - ric3.T - pr3_aa.T - ricg) / (n - 1)
    )
    res["scale"] = max(
        norm_max(ricg),
        max(norm_max(val) for val in b.ric.values()),
        norm_max(b.prime_r3),
        norm_max(b.prime_r4),
        (n - 1) * norm_max(pipi),
        max(norm_max(val) for val in b.d.values()),
    )
    return res
