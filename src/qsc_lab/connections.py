"""Levi-Civita and quarter-symmetric connections in coordinates, and the
jet records every later layer reads.

Coefficient convention is direction-first: nabla_{d_j} d_k = L^i_{jk} d_i,
stored as gamma[i, j, k].  The quarter-symmetric connection of a metric g,
structure A and generator one-form pi is

    L^i_{jk} = Gamma^i_{jk} - pi_j A^i_k,

the coordinate form of nabla^1_X Y = nabla^g_X Y - pi(X) A Y.  Its torsion is
T(X, Y) = pi(Y) A X - pi(X) A Y.  ``levi_civita`` and ``quarter_symmetric``
return the coefficient array, which ``covariant_derivative`` takes, and
``torsion`` builds T from the arrays pi and A.

Everything computed from the fields is algebra on two immutable records:

* ``PointJets`` (``point_jets``): g and its first partials, A and its
  partials, the nonzero entries of A (``a_support``, which the rank-one folds
  of ``curvature`` write through), F = g(A., .), Gamma and its partials
  (which consume the second partials of g and g^-1), R^g and Ric^g, at one
  point or a batch of P points.  The metric and the structure are
  differentiated, and the metric inverted, once per job, on all points at
  once; Gamma, R^g and Ric^g follow on the same arrays.
* ``GeneratorJets`` (``generator_jets``): pi, its partials and nabla^g pi of
  one generator, or of G generators stacked on an axis after the point axes,
  with the (0,2) blocks every chart reads: pq = pi (x) (pi o A) and the D
  blocks D0..D3 (see ``curvature``); each generator is differentiated once
  per job.  The record holds arrays only: a generator's name stays with its
  ``TensorField`` and its spec.

F, G = g + F and their partials follow from the product rule, not from
differencing F and G again.

Batch convention: arrays carry batch axes first and tensor slots last, and
every function here takes any leading axes; with none, it returns its
single-point value.  The points of a batch sit on a unit generator axis,
(P, 1, n), so point data (P, 1, ...) broadcast against the generator data
(P, G, ...) as they are.  Transpose with ``swapaxes(-1, -2)``: ``.T`` would
reverse the batch axes too.  Contract with ``@`` on moved trailing axes
(``einsum`` with ``...`` only below n^5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diff import DiffConfig
from .geometry import ManifoldSpec, TensorField, as_point
from .tensor import NumericError, contract_first, metric_inverse, norm_max


def _freeze_arrays(record) -> None:
    for value in vars(record).values():
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False


@dataclass(frozen=True)
class PointJets:
    """Metric and structure data of a chart of dimension n at one point, or
    at a batch of points on the leading axes (point shape (n,) or (P, 1, n);
    the unit axis is the generator axis of ``GeneratorJets``).

    Derivative directions lead the slots: dg[..., a, i, j] = d_a g_ij,
    da[..., a, i, j] = d_a A^i_j, dgamma[..., a, i, j, k] = d_a Gamma^i_jk.
    """

    n: int
    cfg: DiffConfig
    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    a: np.ndarray
    a_support: tuple[np.ndarray, np.ndarray, np.ndarray]  # support(a)
    da: np.ndarray
    f: np.ndarray  # F_ij = A^m_i g_mj
    gamma: np.ndarray
    dgamma: np.ndarray
    r_g: np.ndarray  # R^l_{ijk} of g, slots (out; X, Y, Z)
    ric_g: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)


@dataclass(frozen=True)
class GeneratorJets:
    """Generators at the points of a PointJets: pi, dpi[..., a, j] = d_a pi_j,
    nabla_pi[..., a, j] = (nabla^g_{d_a} pi)_j, pq = pi (x) (pi o A) and the
    blocks D0..D3 with the kind first, d (4, ..., n, n).  One generator has
    the point axes of its PointJets; a stack of G fills the generator axis of
    a batch, (P, G, ...), in the order of the list it was built from."""

    pi: np.ndarray
    dpi: np.ndarray
    nabla_pi: np.ndarray
    pq: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)


def support(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the entries of A[..., l, m] that are nonzero
    at any of its leading indices: values[q] = a[..., rows[q], cols[q]].
    One pair (l, m) per row l for a signed permutation such as the standard J."""
    n = a.shape[-1]
    rows, cols = np.nonzero((a != 0).reshape(-1, n, n).any(0))
    return rows, cols, np.moveaxis(a[..., rows, cols], -1, 0)


def levi_civita_jets(g_inv: np.ndarray, dg: np.ndarray, d2g: np.ndarray):
    """(Gamma, dGamma) from the inverse metric and the metric partials:
    Gamma^i_{jk} = (1/2) g^{il} (d_j g_{lk} + d_k g_{jl} - d_l g_{jk})."""
    # term[l, j, k] = dg[j, l, k] + dg[k, j, l] - dg[l, j, k]; dterm likewise
    term = dg.swapaxes(-3, -2) + dg.swapaxes(-3, -1) - dg
    dterm = d2g.swapaxes(-3, -2) + d2g.swapaxes(-3, -1) - d2g
    g_inv_a = g_inv[..., None, :, :]  # one copy per derivative direction
    dg_inv = -(g_inv_a @ dg @ g_inv_a)
    gamma = 0.5 * contract_first(g_inv, term, 3)
    dgamma = 0.5 * (
        contract_first(dg_inv, term[..., None, :, :, :], 3)
        + contract_first(g_inv_a, dterm, 3)
    )
    return gamma, dgamma


def curvature_from_coefficients(l: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """R^l_{ijk} = d_i L^l_{jk} - d_j L^l_{ik} + L^l_{im} L^m_{jk} - L^l_{jm} L^m_{ik}."""
    n = l.shape[-1]
    lead = l.shape[:-3]
    # half[l, i, j, k] = d_i L^l_{jk} + L^l_{im} L^m_{jk}; R is its (i, j) skew part
    half = (l.reshape(lead + (n * n, n)) @ l.reshape(lead + (n, n * n))).reshape(lead + (n,) * 4)
    np.add(dl.swapaxes(-4, -3), half, out=half)
    return half - half.swapaxes(-3, -2)


def point_jets(m: ManifoldSpec, points, cfg: DiffConfig) -> PointJets:
    """Differentiate the metric and the structure of `m` once, at one point
    (n,) or at all points of a batch (P, n), which gain the unit generator
    axis (P, 1, n); invert the metric once per point.  Past about
    P n^3 = 3e4 a batch may differ from one-point calls in the last digits."""
    point = as_point(points, m.n)
    if point.ndim > 1:
        point = point.reshape(-1, 1, m.n)
    g, dg, d2g = m.metric_field.jets(point, cfg, second=True, domain=m.contains)
    a, da = m.structure_field.jets(point, cfg)
    gamma, dgamma = levi_civita_jets(metric_inverse(g), dg, d2g)
    r_g = curvature_from_coefficients(gamma, dgamma)
    f, ric_g = a.swapaxes(-1, -2) @ g, np.trace(r_g, axis1=-4, axis2=-3)
    return PointJets(m.n, cfg, point, g, dg, a, support(a), da, f, gamma, dgamma, r_g, ric_g)


def generator_jets(pj: PointJets, gens: TensorField | Sequence[TensorField]) -> GeneratorJets:
    """Differentiate each generator once, at all points of `pj`: one
    generator keeps the point axes, a list of G stacks them on the generator
    axis, (P, G, n), and needs `pj` at a batch of points.  As in
    ``point_jets``, past about P n^3 = 3e4 a batch may differ from one-point
    calls in the last digits.  A D block that overflowed is a NumericError."""
    if isinstance(gens, TensorField):
        pi, dpi = gens.jets(pj.point, pj.cfg)
    elif not gens:
        raise ValueError("generator_jets needs at least one generator; the list is empty")
    elif pj.point.ndim == 1:
        raise ValueError(
            "a generator list needs a batch of points; pass point_jets a (P, n) batch"
        )
    else:
        jets = [gen.jets(pj.point, pj.cfg) for gen in gens]
        pi, dpi = (np.concatenate(part, axis=pj.point.ndim - 2) for part in zip(*jets))
    nabla = covariant_derivative(levi_civita(pj), pi, dpi, "d")
    pq = pi[..., :, None] * (pi[..., None, :] @ pj.a)[..., 0, None, :]
    qp, nabla_t = pq.swapaxes(-1, -2), nabla.swapaxes(-1, -2)  # qp[i, j] = (pi o A)_i pi_j
    d = np.stack([nabla + 0.5 * (pq + qp), nabla - nabla_t, nabla + qp, nabla + pq])  # D0..D3
    if not np.isfinite(d).all():
        raise NumericError("non-finite generator blocks")
    return GeneratorJets(pi, dpi, nabla, pq, d)


def levi_civita(pj: PointJets) -> np.ndarray:
    """Coefficients Gamma[..., i, j, k] of the Levi-Civita connection."""
    return pj.gamma


def quarter_symmetric(pj: PointJets, gj: GeneratorJets) -> np.ndarray:
    """Coefficients L[..., i, j, k] = Gamma^i_jk - pi_j A^i_k."""
    return pj.gamma - gj.pi[..., None, :, None] * pj.a[..., :, None, :]


def quarter_symmetric_jets(pj: PointJets, gj: GeneratorJets):
    """(L, dL) of the quarter-symmetric connection:
    d_a L^i_jk = d_a Gamma^i_jk - d_a pi_j A^i_k - pi_j d_a A^i_k."""
    l = quarter_symmetric(pj, gj)
    dl = pj.dgamma - gj.dpi[..., :, None, :, None] * pj.a[..., None, :, None, :]
    dl -= gj.pi[..., None, None, :, None] * pj.da[..., :, :, None, :]
    return l, dl


def covariant_derivative(
    gamma: np.ndarray, value: np.ndarray, d1: np.ndarray, slots: str
) -> np.ndarray:
    """nabla of a field, under the connection of coefficients gamma, given
    its value, its partials d1 (direction first) and its slot kinds; the
    derivative direction is the new leading slot."""
    out = d1
    letters = "bcdefghi"
    sub = letters[: len(slots)]
    for slot, kind in enumerate(slots):
        t_sub = sub[:slot] + "m" + sub[slot + 1 :]
        spec = f"...{t_sub}->...a{sub}"
        if kind == "u":
            out = out + np.einsum(f"...{sub[slot]}am,{spec}", gamma, value)
        else:
            out = out - np.einsum(f"...ma{sub[slot]},{spec}", gamma, value)
    return out


def torsion(pi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """T(X, Y) = pi(Y) A X - pi(X) A Y as a (1,2) tensor, slots (out; X, Y):
    t[..., i, j, k] = pi_k A^i_j - pi_j A^i_k."""
    return a[..., :, :, None] * pi[..., None, None, :] - a[..., :, None, :] * pi[..., None, :, None]


def _torsion_lowered(pi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """tl[..., j, k, l] = pi_k F_jl - pi_j F_kl."""
    return pi[..., None, :, None] * f[..., :, None, :] - pi[..., :, None, None] * f[..., None, :, :]


def metricity_defects(pj: PointJets, gj: GeneratorJets) -> dict[str, np.ndarray]:
    """Max-norm covariant-derivative defects of g, F, G, A under the
    quarter-symmetric connection, plus nabla^g A under Levi-Civita; each has
    the batch shape of pj's point axes (with gj's generator axis where the
    generator enters)."""
    conn = quarter_symmetric(pj, gj)
    # d_a F_ij = d_a A^m_i g_mj + A^m_i d_a g_mj; G = g + F
    df = pj.da.swapaxes(-1, -2) @ pj.g[..., None, :, :] + (
        pj.a.swapaxes(-1, -2)[..., None, :, :] @ pj.dg
    )
    defect = lambda c, v, d1, slots: norm_max(covariant_derivative(c, v, d1, slots), 3)
    return {
        "nabla1_g": defect(conn, pj.g, pj.dg, "dd"),
        "nabla1_f": defect(conn, pj.f, df, "dd"),
        "nabla1_g_total": defect(conn, pj.g + pj.f, pj.dg + df, "dd"),
        "nabla1_a": defect(conn, pj.a, pj.da, "ud"),
        "nabla_g_a": defect(levi_civita(pj), pj.a, pj.da, "ud"),
        "scale": np.max([norm_max(pj.g, 2), norm_max(pj.f, 2), norm_max(pj.a, 2)], axis=0),
    }


def nabla1_pi_defect(pj: PointJets, gj: GeneratorJets) -> dict[str, np.ndarray]:
    """Residual of (nabla^1_X pi)(Y) = (nabla^g_X pi)(Y) + pi(X) pi(A Y),
    whose right-hand side is the D3 block of `gj`."""
    lhs = covariant_derivative(quarter_symmetric(pj, gj), gj.pi, gj.dpi, "d")
    d3 = gj.d[3]
    return {
        "residual": norm_max(lhs - d3, 2),
        "scale": np.maximum(norm_max(lhs, 2), norm_max(d3, 2)),
    }


def torsion_identities(pj: PointJets, gj: GeneratorJets) -> dict[str, np.ndarray]:
    """Residuals of the structure-twisted torsion identities.

    twisted_composition:   A T(AX, AY) = A T(X, Y) - T(AX, Y) - T(X, AY)
    lowered_reconstruction: T(X,Y,Z) = T(AX,AY,Z) + T(AX,Y,AZ) + T(X,AY,AZ)
    cyclic_sum: cyclic XYZ sums of T(X,Y,Z) and of T(AX,Y,AZ) + T(X,AY,AZ) agree
    """
    a = pj.a
    at = a.swapaxes(-1, -2)
    t = torsion(gj.pi, a)  # t[..., i, x, y]
    tl = _torsion_lowered(gj.pi, pj.f)  # tl[..., x, y, z]

    # pairwise contractions only; `at3 @ arr @ a3` feeds the last two slots
    # of a 3-slot arr through A for every leading index
    a3, at3 = a[..., None, :, :], at[..., None, :, :]
    lhs1 = contract_first(a, at3 @ t @ a3, 3)
    rhs1 = contract_first(a, t, 3) - at3 @ t - t @ a3

    tl_ax = contract_first(at, tl, 3)  # tl(AX, Y, Z)
    tl_axaz = tl_ax @ a3
    tl_ayaz = at3 @ tl @ a3
    rhs2 = at3 @ tl_ax + tl_axaz + tl_ayaz

    def cyc(arr: np.ndarray) -> np.ndarray:
        return arr + np.moveaxis(arr, -3, -1) + np.moveaxis(arr, -1, -3)

    return {
        "twisted_composition": norm_max(lhs1 - rhs1, 3),
        "lowered_reconstruction": norm_max(tl - rhs2, 3),
        "cyclic_sum": norm_max(cyc(tl) - cyc(tl_axaz + tl_ayaz), 3),
        "scale": np.maximum(norm_max(t, 3), norm_max(tl, 3)),
    }
