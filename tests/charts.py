"""Charts built for the tests alone, outside the catalog of ``geometry``."""

import numpy as np

from qsc_lab.geometry import (
    HYPERBOLIC_MARGIN, ManifoldSpec, TensorField, _chart, _standard_matrix, flat_complex
)


def cp1_times_ch1():
    """CP^1 x CH^1 on C x (unit disc), sampled near the origin: Kahler, with
    holomorphic sectional curvature of opposite signs on the two factors,
    so P != 0."""
    blocks = np.diag([2.0, 2.0, 0.0, 0.0]), np.diag([0.0, 0.0, 2.0, 2.0])

    def metric(u):
        s1 = u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1]
        s2 = u[..., 2] * u[..., 2] + u[..., 3] * u[..., 3]
        f, h = 1 / ((1 + s1) * (1 + s1)), 1 / ((1 - s2) * (1 - s2))
        return f[..., None, None] * blocks[0] + h[..., None, None] * blocks[1]

    def inside(points):
        z2 = points[..., 2:]
        return np.isfinite(points).all(-1) & ((z2 * z2).sum(-1) < 1.0 - HYPERBOLIC_MARGIN)

    return _chart("cp1xch1", 4, metric, inside, sample_radius=0.4)


def sheared(m, eps=0.3):
    """The Kahler chart `m` pulled back by the shear phi(u) = u + eps u0^2 e1,
    which is not holomorphic, so the structure varies: with c = 2 eps u0,
    dphi = I + c E10, g'(u) = dphi^T g(phi(u)) dphi and
    A' = dphi^-1 J dphi = J + c (E11 - E00) + c^2 E10.  The chart holds u
    when `m` holds phi(u)."""
    n = m.n
    e = np.eye(n)
    j = _standard_matrix(n)
    e00, e10, e11 = np.outer(e[0], e[0]), np.outer(e[1], e[0]), np.outer(e[1], e[1])

    def phi(u):
        x = u[..., 0]
        return u + (eps * x * x)[..., None] * e[1]

    def metric(u):
        g = m.metric_field.fn(phi(u))
        c = 2 * eps * u[..., 0]
        # dphi^T g dphi = g + c (E01 g + g E10) + c^2 g11 E00, g symmetric
        cross = g[..., :, 1:2] * e[0] + e[0][:, None] * g[..., 1:2, :]
        return g + c[..., None, None] * cross + (c * c * g[..., 1, 1])[..., None, None] * e00

    def structure(u):
        c = 2 * eps * u[..., 0]
        return j + c[..., None, None] * (e11 - e00) + (c * c)[..., None, None] * e10

    return ManifoldSpec(
        f"sheared {m.label}", n, lambda points: m.contains(phi(points)),
        TensorField("dd", metric, label="g"), TensorField("ud", structure, label="A"),
        kahler_expected=m.kahler_expected, sample_radius=m.sample_radius,
    )


def twisted(k, d, eps=0.4):
    """Flat C^k through the frame field P = I + s N, N = E20 and s = eps u_d:
    g' = P^T P = I + s (N + N^T) + s^2 N^T N and, as N^2 = 0,
    A' = P^-1 J P = J + s (JN - NJ) - s^2 NJN.  J is orthogonal, so A' is
    g'-orthogonal: almost Hermitian, and marked not Kahler.  At d = 0, P is
    the Jacobian of u + eps u0^2 e2 / 2, so the chart is flat space sheared,
    Kahler after all; at d = 1 it is integrable and not Kahler, at d = 3
    not integrable."""
    m = flat_complex(k)
    n = m.n
    e, j = np.eye(n), _standard_matrix(n)
    nn = np.outer(e[2], e[0])
    sym, sq, comm, njn = nn + nn.T, nn.T @ nn, j @ nn - nn @ j, nn @ j @ nn

    def metric(u):
        s = eps * u[..., d]
        return e + s[..., None, None] * sym + (s * s)[..., None, None] * sq

    def structure(u):
        s = eps * u[..., d]
        return j + s[..., None, None] * comm - (s * s)[..., None, None] * njn

    return ManifoldSpec(
        f"twisted {m.label} d={d}", n, m.contains,
        TensorField("dd", metric, label="g"), TensorField("ud", structure, label="A"),
        kahler_expected=False, sample_radius=m.sample_radius,
    )


def _left(mat, t):
    """mat t over the last two axes of t, an array or a Taylor number, which
    contracts only its last axis with a constant: sum_a mat[i, a] t[..., a, j]."""
    return (mat.T[:, :, None] * t[..., :, None, :]).sum(-3)


def linear_pullback(m, mat):
    """The chart `m` pulled back by the linear map u -> M u:
    g'(u) = M^T g(Mu) M and A'(u) = M^-1 A(Mu) M.  The chart holds u when
    `m` holds Mu.  ``pulled_one_form`` pulls a generator back the same way."""
    inv = np.linalg.inv(mat)

    def metric(u):
        return _left(mat.T, m.metric_field.fn(u @ mat.T) @ mat)

    def structure(u):
        return _left(inv, m.structure_field.fn(u @ mat.T) @ mat)

    return ManifoldSpec(
        f"{m.label} pulled back linearly", m.n, lambda points: m.contains(points @ mat.T),
        TensorField("dd", metric, label="g"), TensorField("ud", structure, label="A"),
        kahler_expected=m.kahler_expected, sample_radius=m.sample_radius,
    )


def pulled_one_form(pi, mat):
    """The one-form pi pulled back by u -> M u: pi'(u) = pi(Mu) M."""
    return TensorField("d", lambda u: pi.fn(u @ mat.T) @ mat, label=pi.label)


def random_linear_map(n, seed, size=0.3):
    """M = I + size N(0, 1) / sqrt(n), seeded."""
    return np.eye(n) + size * np.random.default_rng(seed).normal(size=(n, n)) / np.sqrt(n)
