"""Manifold catalog and generator catalog.

The curved metrics are checked against an oracle that never touches the
catalog formulas: the finite-difference Hessian of the defining potential,
symmetrized with the complex structure.  For a metric with potential phi,
g_ij = (H_ij + (A^T H A)_ij) / 2 where H is the coordinate Hessian of phi.
"""

import numpy as np
import pytest

from qsc_lab.diff import DiffConfig, DomainError
from qsc_lab.geometry import (
    Chart,
    check_almost_hermitian,
    generator,
    generator_names,
    manifold_by_name,
    manifold_names,
    sample_points,
)

ORACLE_TOL = 1e-6
STRUCTURE_TOL = 1e-13


def fd_hessian(phi, u, h=1e-5):
    n = len(u)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pp = u.copy(); pm = u.copy(); mp = u.copy(); mm = u.copy()
            pp[i] += h; pp[j] += h
            pm[i] += h; pm[j] -= h
            mp[i] -= h; mp[j] += h
            mm[i] -= h; mm[j] -= h
            out[i, j] = (phi(pp) - phi(pm) - phi(mp) + phi(mm)) / (4 * h * h)
    return out


POTENTIALS = {
    "fs": lambda u: np.log1p(float(u @ u)),
    "hyperbolic": lambda u: -np.log1p(-float(u @ u)),
}


@pytest.mark.parametrize("name", ["fs", "hyperbolic"])
def test_curved_metrics_match_potential_oracle(name):
    m = manifold_by_name(name, k=2)
    phi = POTENTIALS[name]
    for p in sample_points(m, 6, seed=13):
        hess = fd_hessian(phi, p)
        a = m.structure(p).components
        oracle = 0.5 * (hess + a.T @ hess @ a)
        got = m.metric(p).components
        assert np.max(np.abs(got - oracle)) < ORACLE_TOL


@pytest.mark.parametrize("name,k", [("flat", 2), ("fs", 2), ("fs", 3), ("hyperbolic", 1)])
def test_metric_at_origin_is_twice_identity(name, k):
    m = manifold_by_name(name, k=k)
    np.testing.assert_allclose(
        m.metric(np.zeros(m.n)).components,
        (1.0 if name == "flat" else 2.0) * np.eye(m.n),
        atol=0,
    )


def test_conformal_metric_frozen():
    m = manifold_by_name("conformal-nonkahler")
    p = np.array([0.3, -0.2, 0.1, 0.4])
    np.testing.assert_allclose(
        m.metric(p).components, np.exp(0.6) * np.eye(4), rtol=1e-15
    )
    assert not m.kahler_expected


@pytest.mark.parametrize("name", manifold_names())
def test_catalog_is_almost_hermitian(name):
    m = manifold_by_name(name, k=2)
    res = check_almost_hermitian(m, sample_points(m, 8, seed=3))
    assert res["a_squared"] < STRUCTURE_TOL
    assert res["metric_compat"] < STRUCTURE_TOL
    assert res["f_compat"] < STRUCTURE_TOL
    assert res["g_total_compat"] < STRUCTURE_TOL
    assert res["min_metric_eigenvalue"] > 0


def test_fundamental_form_is_skew():
    m = manifold_by_name("fs", k=3)
    for p in sample_points(m, 4, seed=8):
        f = m.fundamental(p).components
        assert np.max(np.abs(f + f.T)) < STRUCTURE_TOL


def test_metric_jets_match_fd():
    m = manifold_by_name("fs", k=2)
    p = np.array([0.2, -0.1, 0.05, 0.3])
    _, dg_a, d2g_a = m.metric_jets(p, DiffConfig(scheme="analytic"))
    _, dg_f, d2g_f = m.metric_jets(p, DiffConfig(scheme="fd4", step=1e-3))
    assert np.max(np.abs(dg_a - dg_f)) < 1e-9
    assert np.max(np.abs(d2g_a - d2g_f)) < 1e-6


def test_structure_jets_constant():
    m = manifold_by_name("hyperbolic", k=2)
    a, da = m.structure_jets(np.zeros(4), DiffConfig())
    assert np.max(np.abs(da)) == 0.0
    np.testing.assert_allclose(a @ a, -np.eye(4), atol=0)


def test_manifold_by_name_errors():
    with pytest.raises(ValueError, match="unknown manifold"):
        manifold_by_name("torus")
    with pytest.raises(ValueError, match="complex dimension"):
        manifold_by_name("fs", k=9)
    with pytest.raises(ValueError, match="complex dimension"):
        manifold_by_name("flat", k=0)


def test_chart_validation_and_domain():
    with pytest.raises(ValueError):
        Chart(3, "odd", lambda p: True)
    m = manifold_by_name("hyperbolic", k=1)
    with pytest.raises(DomainError):
        m.chart.require(np.array([0.8, 0.7]))
    m.chart.require(np.array([0.5, 0.5]))


def test_generator_zero_and_linear_j():
    z = generator("zero", dim=4)
    assert np.max(np.abs(z.pi([0.4, 1.0, -2.0, 0.0]).components)) == 0.0
    lj = generator("linear_j", dim=4)
    np.testing.assert_allclose(
        lj.pi([1.0, 0.0, 0.0, 0.0]).components, [0.0, 1.0, 0.0, 0.0], atol=0
    )
    np.testing.assert_allclose(
        lj.pi([0.3, -0.5, 0.2, 0.7]).components, [0.5, 0.3, -0.7, 0.2], atol=0
    )


def test_generator_grad_and_const():
    gr = generator("grad", dim=4)
    np.testing.assert_allclose(
        gr.pi([0.3, -0.5, 9.0, 9.0]).components, [0.6, -1.0, 0.0, 0.0], atol=1e-15
    )
    c = generator("const", components=[1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(c.pi(np.zeros(4)).components, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        c.pi(np.zeros(6))
    with pytest.raises(ValueError):
        generator("const")


def test_generator_random_poly_deterministic():
    p = [0.1, 0.2, -0.3, 0.05]
    a = generator("random_poly", dim=4, seed=3)
    b = generator("random_poly", dim=4, seed=3)
    c = generator("random_poly", dim=4, seed=7)
    assert a.label == "random_poly:3"
    np.testing.assert_array_equal(a.pi(p).components, b.pi(p).components)
    assert np.max(np.abs(a.pi(p).components - c.pi(p).components)) > 1e-3
    with pytest.raises(ValueError):
        generator("random_poly")
    with pytest.raises(ValueError):
        a.pi(np.zeros(6))


def test_generator_unknown_label():
    with pytest.raises(ValueError, match="unknown generator"):
        generator("swirl", dim=4)
    assert set(generator_names()) == {"zero", "const", "linear_j", "grad", "random_poly"}


def test_sample_points_deterministic_and_in_domain():
    m = manifold_by_name("hyperbolic", k=2)
    a = sample_points(m, 12, seed=42)
    b = sample_points(m, 12, seed=42)
    c = sample_points(m, 12, seed=43)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3
    assert a.shape == (12, 4)
    for p in a:
        assert m.chart.contains(p)
        assert np.linalg.norm(p) <= m.sample_radius + 1e-12
