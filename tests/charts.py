"""Charts built for the tests alone, outside the catalog of ``geometry``."""

import numpy as np

from qsc_lab.geometry import HYPERBOLIC_MARGIN, _chart


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
