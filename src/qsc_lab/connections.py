"""Levi-Civita and quarter-symmetric connections in coordinates, and the
per-point jet records every later layer reads.

Coefficient convention is direction-first: nabla_{d_j} d_k = L^i_{jk} d_i,
stored as gamma[i, j, k].  The quarter-symmetric connection of a metric g,
structure A and generator one-form pi is

    L^i_{jk} = Gamma^i_{jk} - pi_j A^i_k,

the coordinate form of nabla^1_X Y = nabla^g_X Y - pi(X) A Y.  Its torsion is
T(X, Y) = pi(Y) A X - pi(X) A Y.

Everything computed at a point is algebra on two immutable records:

* ``PointJets`` (``point_jets``): g with its first and second partials, g^-1,
  A and its partials, F = g(A., .), Gamma and its partials, R^g and Ric^g.
  The metric and the structure are differentiated once each, and the metric
  is inverted once.
* ``GeneratorJets`` (``generator_jets``): pi, its partials and nabla^g pi for
  one generator at that point; the generator is differentiated once.

F, G = g + F and their partials follow from the product rule, not from
differencing F and G again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diff import DiffConfig
from .geometry import Chart, GeneratorField, ManifoldSpec, as_point
from .tensor import Signature, Tensor, metric_inverse, norm_max


@dataclass(frozen=True)
class ConnectionCoefficients:
    dim: int
    kind: str
    gamma: np.ndarray  # gamma[i, j, k] = L^i_{jk}, j the direction slot

    def __post_init__(self) -> None:
        g = np.ascontiguousarray(self.gamma, dtype=np.float64)
        if g.shape != (self.dim,) * 3:
            raise ValueError(f"coefficient block must be cubic, got {g.shape}")
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)


def _freeze_arrays(record) -> None:
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


@dataclass(frozen=True)
class PointJets:
    """Metric and structure data at one point.

    Derivative directions lead: dg[a, i, j] = d_a g_ij, d2g[a, b, i, j] =
    d_a d_b g_ij, da[a, i, j] = d_a A^i_j, dgamma[a, i, j, k] = d_a Gamma^i_jk.
    """

    chart: Chart
    cfg: DiffConfig
    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    g_inv: np.ndarray
    a: np.ndarray
    da: np.ndarray
    f: np.ndarray  # F_ij = A^m_i g_mj
    gamma: np.ndarray
    dgamma: np.ndarray
    r_g: np.ndarray  # R^l_{ijk} of g, slots (out; X, Y, Z)
    ric_g: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)

    @property
    def n(self) -> int:
        return self.chart.dim


@dataclass(frozen=True)
class GeneratorJets:
    """One generator at one point: pi, dpi[a, j] = d_a pi_j, and
    nabla_pi[a, j] = (nabla^g_{d_a} pi)_j."""

    label: str
    pi: np.ndarray
    dpi: np.ndarray
    nabla_pi: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)


def levi_civita_jets(g_inv: np.ndarray, dg: np.ndarray, d2g: np.ndarray):
    """(Gamma, dGamma) from the inverse metric and the metric partials:
    Gamma^i_{jk} = (1/2) g^{il} (d_j g_{lk} + d_k g_{jl} - d_l g_{jk})."""
    term = (
        np.einsum("jlk->ljk", dg)
        + np.einsum("kjl->ljk", dg)
        - np.einsum("ljk->ljk", dg)
    )
    dterm = (
        np.einsum("ajlk->aljk", d2g)
        + np.einsum("akjl->aljk", d2g)
        - np.einsum("aljk->aljk", d2g)
    )
    dg_inv = -np.einsum("im,amp,pl->ail", g_inv, dg, g_inv)
    gamma = 0.5 * np.einsum("il,ljk->ijk", g_inv, term)
    dgamma = 0.5 * (
        np.einsum("ail,ljk->aijk", dg_inv, term)
        + np.einsum("il,aljk->aijk", g_inv, dterm)
    )
    return gamma, dgamma


def curvature_from_coefficients(l: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """R^l_{ijk} = d_i L^l_{jk} - d_j L^l_{ik} + L^l_{im} L^m_{jk} - L^l_{jm} L^m_{ik}."""
    dterm = np.einsum("iljk->lijk", dl) - np.einsum("jlik->lijk", dl)
    qterm = np.einsum("lim,mjk->lijk", l, l) - np.einsum("ljm,mik->lijk", l, l)
    return dterm + qterm


def point_jets(m: ManifoldSpec, point, cfg: DiffConfig) -> PointJets:
    """Differentiate the metric and the structure of `m` once at `point`."""
    point = as_point(point, m.n)
    g, dg, d2g = m.metric_jets(point, cfg)
    g_inv = metric_inverse(Tensor(m.n, Signature("dd"), g)).components
    a, da = m.structure_jets(point, cfg)
    gamma, dgamma = levi_civita_jets(g_inv, dg, d2g)
    r_g = curvature_from_coefficients(gamma, dgamma)
    return PointJets(
        chart=m.chart,
        cfg=cfg,
        point=point,
        g=g,
        dg=dg,
        d2g=d2g,
        g_inv=g_inv,
        a=a,
        da=da,
        f=a.T @ g,
        gamma=gamma,
        dgamma=dgamma,
        r_g=r_g,
        ric_g=np.trace(r_g, axis1=0, axis2=1),
    )


def generator_jets(pj: PointJets, gen: GeneratorField) -> GeneratorJets:
    """Differentiate one generator once at the point of `pj`."""
    pi, dpi = gen.jets(pj.point, pj.cfg)
    nabla_pi = covariant_derivative(levi_civita(pj), pi, dpi, "d").components
    return GeneratorJets(gen.label, pi, dpi, nabla_pi)


def levi_civita(pj: PointJets) -> ConnectionCoefficients:
    return ConnectionCoefficients(pj.n, "levi_civita", pj.gamma)


def quarter_symmetric(pj: PointJets, gj: GeneratorJets) -> ConnectionCoefficients:
    gamma = pj.gamma - np.einsum("j,ik->ijk", gj.pi, pj.a)
    return ConnectionCoefficients(pj.n, "quarter_symmetric", gamma)


def quarter_symmetric_jets(pj: PointJets, gj: GeneratorJets):
    """(L, dL) of the quarter-symmetric connection."""
    l = quarter_symmetric(pj, gj).gamma
    dl = (
        pj.dgamma
        - np.einsum("aj,ik->aijk", gj.dpi, pj.a)
        - np.einsum("j,aik->aijk", gj.pi, pj.da)
    )
    return l, dl


def covariant_derivative(
    conn: ConnectionCoefficients, value: np.ndarray, d1: np.ndarray, slots: str
) -> Tensor:
    """nabla of a field given its value and partials d1 (direction first) and
    its slot kinds; the derivative direction is the new leading slot."""
    comps = d1.copy()
    letters = "bcdefghi"
    sub = letters[: len(slots)]
    for slot, kind in enumerate(slots):
        t_sub = sub[:slot] + "m" + sub[slot + 1 :]
        out_sub = "a" + sub
        if kind == "u":
            comps += np.einsum(f"{sub[slot]}am,{t_sub}->{out_sub}", conn.gamma, value)
        else:
            comps -= np.einsum(f"ma{sub[slot]},{t_sub}->{out_sub}", conn.gamma, value)
    return Tensor(conn.dim, Signature("d" + slots), comps)


def _torsion(pi: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.einsum("k,ij->ijk", pi, a) - np.einsum("j,ik->ijk", pi, a)


def _torsion_lowered(pi: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.einsum("k,jl->jkl", pi, f) - np.einsum("j,kl->jkl", pi, f)


def torsion(m: ManifoldSpec, point, gen: GeneratorField) -> Tensor:
    """T(X, Y) = pi(Y) A X - pi(X) A Y as a (1,2) tensor, slots (out; X, Y)."""
    comps = _torsion(gen.pi(point).components, m.structure(point).components)
    return Tensor(m.n, Signature("udd"), comps)


def torsion_lowered(m: ManifoldSpec, point, gen: GeneratorField) -> Tensor:
    """T(X, Y, Z) = pi(Y) F(X, Z) - pi(X) F(Y, Z), slots (X, Y, Z)."""
    comps = _torsion_lowered(gen.pi(point).components, m.fundamental(point).components)
    return Tensor(m.n, Signature("ddd"), comps)


def metricity_defects(pj: PointJets, gj: GeneratorJets) -> dict[str, float]:
    """Max-norm covariant-derivative defects of g, F, G, A under the
    quarter-symmetric connection, plus nabla^g A under Levi-Civita."""
    conn = quarter_symmetric(pj, gj)
    # d_a F_ij = d_a A^m_i g_mj + A^m_i d_a g_mj; G = g + F
    df = np.einsum("ami,mj->aij", pj.da, pj.g) + np.einsum("mi,amj->aij", pj.a, pj.dg)
    return {
        "nabla1_g": norm_max(covariant_derivative(conn, pj.g, pj.dg, "dd")),
        "nabla1_f": norm_max(covariant_derivative(conn, pj.f, df, "dd")),
        "nabla1_g_total": norm_max(
            covariant_derivative(conn, pj.g + pj.f, pj.dg + df, "dd")
        ),
        "nabla1_a": norm_max(covariant_derivative(conn, pj.a, pj.da, "ud")),
        "nabla_g_a": norm_max(covariant_derivative(levi_civita(pj), pj.a, pj.da, "ud")),
        "scale": max(norm_max(pj.g), norm_max(pj.f), norm_max(pj.a)),
    }


def nabla1_pi_defect(pj: PointJets, gj: GeneratorJets) -> dict[str, float]:
    """Residual of (nabla^1_X pi)(Y) = (nabla^g_X pi)(Y) + pi(X) pi(A Y)."""
    conn = quarter_symmetric(pj, gj)
    lhs = covariant_derivative(conn, gj.pi, gj.dpi, "d").components
    pa = gj.pi @ pj.a  # pa_j = pi(A d_j)
    rhs = gj.nabla_pi + np.outer(gj.pi, pa)
    return {
        "residual": norm_max(lhs - rhs),
        "scale": max(norm_max(lhs), norm_max(rhs)),
    }


def torsion_identities(pj: PointJets, gj: GeneratorJets) -> dict[str, float]:
    """Residuals of the structure-twisted torsion identities.

    twisted_composition:   A T(AX, AY) = A T(X, Y) - T(AX, Y) - T(X, AY)
    lowered_reconstruction: T(X,Y,Z) = T(AX,AY,Z) + T(AX,Y,AZ) + T(X,AY,AZ)
    cyclic_sum: cyclic XYZ sums of T(X,Y,Z) and of T(AX,Y,AZ) + T(X,AY,AZ) agree
    """
    a = pj.a
    t = _torsion(gj.pi, a)  # t[i, x, y]
    tl = _torsion_lowered(gj.pi, pj.f)  # tl[x, y, z]

    t_axay = np.einsum("imp,mx,py->ixy", t, a, a)
    lhs1 = np.einsum("im,mxy->ixy", a, t_axay)
    rhs1 = (
        np.einsum("im,mxy->ixy", a, t)
        - np.einsum("imy,mx->ixy", t, a)
        - np.einsum("ixm,my->ixy", t, a)
    )

    tl_axay = np.einsum("mpz,mx,py->xyz", tl, a, a)
    tl_axaz = np.einsum("myp,mx,pz->xyz", tl, a, a)
    tl_ayaz = np.einsum("xmp,my,pz->xyz", tl, a, a)
    rhs2 = tl_axay + tl_axaz + tl_ayaz

    def cyc(arr: np.ndarray) -> np.ndarray:
        return arr + np.transpose(arr, (1, 2, 0)) + np.transpose(arr, (2, 0, 1))

    scale = max(norm_max(t), norm_max(tl), 0.0)
    return {
        "twisted_composition": norm_max(lhs1 - rhs1),
        "lowered_reconstruction": norm_max(tl - rhs2),
        "cyclic_sum": norm_max(cyc(tl) - cyc(tl_axaz + tl_ayaz)),
        "scale": scale,
    }
