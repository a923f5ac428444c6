"""Derivative engine: Taylor jets against hand values, finite differences
against their stated convergence orders, and the dual-path agreement that the
rest of the package relies on."""

import math

import numpy as np
import pytest

from qsc_lab.diff import (
    DiffConfig,
    DomainError,
    Jet2,
    eval_jets,
    field_jets,
    jet_exp,
    jet_log,
    partial,
)
from qsc_lab.tensor import NumericError


def poly(u):
    # f = x^2 y + x / y at (x, y)
    x, y = u[0], u[1]
    return x * x * y + x / y


def poly_grad(x, y):
    return np.array([2 * x * y + 1 / y, x * x - x / (y * y)])


def poly_hess(x, y):
    return np.array(
        [
            [2 * y, 2 * x - 1 / (y * y)],
            [2 * x - 1 / (y * y), 2 * x / (y * y * y)],
        ]
    )


def test_diffconfig_validation():
    with pytest.raises(ValueError):
        DiffConfig(scheme="fd8")
    with pytest.raises(ValueError):
        DiffConfig(step=1.0)
    with pytest.raises(ValueError):
        DiffConfig(step=1e-9)


def test_jets_match_hand_derivatives():
    val, d1, d2 = eval_jets(poly, np.array([1.5, 0.7]), second=True)
    assert val == pytest.approx(poly(np.array([1.5, 0.7])))
    np.testing.assert_allclose(d1, poly_grad(1.5, 0.7), rtol=1e-14)
    np.testing.assert_allclose(d2, poly_hess(1.5, 0.7), rtol=1e-14)


def test_jet_division_and_power():
    x = Jet2.variable(2.0, 0, 1)
    y = (x**3 / x - x) / x  # simplifies to x - 1
    assert y.val == pytest.approx(1.0)
    assert y.g[0] == pytest.approx(1.0)
    assert y.h[0, 0] == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        x ** (-1)


def test_jet_exp_log_roundtrip():
    x = Jet2.variable(0.8, 0, 1)
    y = jet_log(jet_exp(x))
    assert y.val == pytest.approx(0.8)
    assert y.g[0] == pytest.approx(1.0)
    assert abs(y.h[0, 0]) < 1e-14
    assert jet_exp(0.0) == 1.0
    assert jet_log(math.e) == pytest.approx(1.0)


def test_jet_exp_hand_second_derivative():
    x = Jet2.variable(0.3, 0, 2)
    e = jet_exp(x * x)
    # d2/dx2 exp(x^2) = (2 + 4 x^2) exp(x^2)
    want = (2 + 4 * 0.09) * math.exp(0.09)
    assert e.h[0, 0] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("scheme", ["analytic", "fd2", "fd4"])
def test_partial_square(scheme):
    cfg = DiffConfig(scheme=scheme)
    f = lambda u: u[0] * u[0]
    assert partial(f, [3.0], 0, cfg) == pytest.approx(6.0, rel=1e-7)
    assert partial(f, [3.0], 0, cfg, order=2) == pytest.approx(2.0, rel=1e-5)


def test_partial_validates_arguments():
    f = lambda u: u[0]
    with pytest.raises(ValueError):
        partial(f, [1.0], 3)
    with pytest.raises(ValueError):
        partial(f, [1.0], 0, order=3)


def test_fd_convergence_orders():
    """Halving the step divides the error by ~2^order."""
    f = lambda u: jet_exp(u[0])
    exact = math.exp(0.5)
    for scheme, order in (("fd2", 2), ("fd4", 4)):
        errors = []
        for step in (1e-2, 5e-3):
            got = partial(f, [0.5], 0, DiffConfig(scheme=scheme, step=step))
            errors.append(abs(got - exact))
        ratio = errors[0] / errors[1]
        assert 0.5 * 2**order < ratio < 2.0 * 2**order


def test_richardson_beats_plain_fd2():
    f = lambda u: jet_exp(u[0])
    exact = math.exp(0.5)
    plain = partial(f, [0.5], 0, DiffConfig(scheme="fd2", step=1e-3))
    extrap = partial(f, [0.5], 0, DiffConfig(scheme="fd2", step=1e-3, richardson=True))
    assert abs(extrap - exact) < abs(plain - exact) / 10


def test_fd_mixed_second_partials_match_analytic():
    point = np.array([1.1, 0.6])
    _, _, exact = eval_jets(poly, point, second=True)
    _, _, fd = field_jets(poly, point, DiffConfig(scheme="fd4", step=1e-3), second=True)
    np.testing.assert_allclose(fd, exact, atol=5e-9)
    np.testing.assert_allclose(fd, np.swapaxes(fd, 0, 1), atol=1e-12)


def test_field_jets_layout_for_vector_fields():
    fn = lambda u: [u[0] * u[1], u[0] + 2.0 * u[1], 3.0]
    val, d1 = field_jets(fn, np.array([2.0, 5.0]), DiffConfig())
    assert val.shape == (3,)
    assert d1.shape == (2, 3)
    assert d1[0, 0] == pytest.approx(5.0)  # d/dx of x*y
    assert d1[1, 1] == pytest.approx(2.0)  # d/dy of x + 2y
    assert d1[0, 2] == 0.0


def test_domain_blocks_stencil_and_point():
    ball = lambda u: float(np.dot(u, u)) < 1.0
    f = lambda u: u[0] * u[0]
    cfg = DiffConfig(scheme="fd4", step=1e-2)
    with pytest.raises(DomainError):
        field_jets(f, np.array([1.5, 0.0]), cfg, domain=ball)
    with pytest.raises(DomainError):
        field_jets(f, np.array([0.9999, 0.0]), cfg, domain=ball)
    val, d1 = field_jets(f, np.array([0.5, 0.0]), cfg, domain=ball)
    assert d1[0] == pytest.approx(1.0, rel=1e-9)


def test_non_finite_values_rejected():
    f = lambda u: math.inf * (u[0] + 1.0)
    with pytest.raises(NumericError):
        field_jets(f, np.array([1.0]), DiffConfig(scheme="fd2"))
