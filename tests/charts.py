"""Charts built for the tests alone, outside the catalog of ``geometry``."""

import dataclasses

import numpy as np

from qsc_lab.geometry import TensorField, manifold_by_name


def cp1_times_ch1():
    """CP^1 x CH^1, sampled near the origin (the CH^1 factor needs |z2| < 1):
    Kahler, with holomorphic sectional curvature of opposite signs on the two
    factors, so P != 0."""
    blocks = np.diag([2.0, 2.0, 0.0, 0.0]), np.diag([0.0, 0.0, 2.0, 2.0])

    def metric(u):
        s1 = u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1]
        s2 = u[..., 2] * u[..., 2] + u[..., 3] * u[..., 3]
        f, h = 1 / ((1 + s1) * (1 + s1)), 1 / ((1 - s2) * (1 - s2))
        return f[..., None, None] * blocks[0] + h[..., None, None] * blocks[1]

    return dataclasses.replace(
        manifold_by_name("flat", k=2),
        label="cp1xch1",
        metric_field=TensorField("dd", metric, label="g"),
        sample_radius=0.4,
    )
