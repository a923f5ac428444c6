"""Derivative engine: Taylor jets against hand values, finite differences
against their stated convergence orders, and the dual-path agreement that the
rest of the package relies on."""

import math
import tracemalloc

import numpy as np
import pytest

from qsc_lab.diff import (
    DiffConfig,
    DomainError,
    Jet2,
    eval_jets,
    field_jets,
    jet_exp,
)
from qsc_lab.geometry import GENERATORS, generator, manifold_by_name, sample_points
from qsc_lab.tensor import NumericError


def seed(point):
    """The Taylor seed of `point`: value the point, gradient the identity."""
    p = np.asarray(point, dtype=np.float64)
    n = p.shape[0]
    return Jet2(p, np.eye(n), np.zeros((n, n, n)))


def poly(u):
    # f = x^2 y + x / y at (x, y)
    x, y = u[..., 0], u[..., 1]
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


def test_analytic_config_rejects_stencil_settings():
    """step and richardson shape finite differences only; the analytic scheme
    rejects any but their defaults instead of ignoring them."""
    with pytest.raises(ValueError, match="richardson"):
        DiffConfig(richardson=True)
    with pytest.raises(ValueError, match="step"):
        DiffConfig(step=5e-3)
    assert DiffConfig("analytic", 1e-4, False) == DiffConfig()


def test_jets_match_hand_derivatives():
    val, d1, d2 = eval_jets(poly, np.array([1.5, 0.7]), second=True)
    assert val == pytest.approx(poly(np.array([1.5, 0.7])))
    np.testing.assert_allclose(d1, poly_grad(1.5, 0.7), rtol=1e-14)
    np.testing.assert_allclose(d2, poly_hess(1.5, 0.7), rtol=1e-14)


def test_jet_division_and_power():
    x = seed([2.0])[..., 0]
    y = (x**3 / x - x) / x  # simplifies to x - 1
    assert y.val == pytest.approx(1.0)
    assert y.g[0] == pytest.approx(1.0)
    assert y.h[0, 0] == pytest.approx(0.0, abs=1e-14)
    one = x**0
    assert (one.val, one.g[0], one.h[0, 0]) == (1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        x ** (-1)


def widened(u):
    """(x^2 y + delta_ij) / c_j: a scalar spread to a (2, 2) value by adding
    a constant matrix, then divided by a constant vector."""
    s = u[..., 0] * u[..., 0] * u[..., 1]
    return (s[..., None, None] + np.eye(2)) / np.array([2.0, 4.0])


@pytest.mark.parametrize("second", [True, False], ids=["second-order", "first-order"])
@pytest.mark.parametrize("scheme,rtol", [("analytic", 1e-14), ("fd4", 1e-6)])
def test_widened_and_divided_jets_match_hand_derivatives(scheme, rtol, second):
    """A jet plus a constant of a wider shape, and a jet over a constant:
    value and partials on the Taylor path and on the array path (fd4) are
    the hand values, and a first-order jet gives its first partials."""
    (x, y), c = (1.5, 0.7), np.array([2.0, 4.0])
    out = field_jets(widened, np.array([x, y]), DiffConfig(scheme=scheme), second=second)
    np.testing.assert_allclose(out[0], (x * x * y + np.eye(2)) / c, rtol=1e-15)
    ds, d2s = np.array([2 * x * y, x * x]), np.array([[2 * y, 2 * x], [2 * x, 0.0]])
    want = [ds[:, None, None] / np.broadcast_to(c, (2, 2))]
    if second:
        want.append(d2s[:, :, None, None] / np.broadcast_to(c, (2, 2)))
    assert len(out) == 1 + len(want)
    for got, hand in zip(out[1:], want):
        assert got.shape == hand.shape
        np.testing.assert_allclose(got, hand, rtol=rtol, atol=rtol)


def test_jet_exp_log_roundtrip():
    x = seed([0.8])[..., 0]
    e = jet_exp(x)
    # log by the chain rule: d log e = de / e, d2 log e = d2e / e - de de^T / e^2
    assert math.log(e.val) == pytest.approx(0.8)
    assert e.g[0] / e.val == pytest.approx(1.0)
    assert abs(e.h[0, 0] / e.val - (e.g[0] / e.val) ** 2) < 1e-14
    assert jet_exp(0.0) == 1.0


def test_jet_exp_hand_second_derivative():
    x = seed([0.3, 0.0])[..., 0]
    e = jet_exp(x * x)
    # d2/dx2 exp(x^2) = (2 + 4 x^2) exp(x^2)
    want = (2 + 4 * 0.09) * math.exp(0.09)
    assert e.h[0, 0] == pytest.approx(want, rel=1e-14)


def test_array_jets_keep_derivative_axes_last():
    u = seed([0.5, -1.0, 2.0])
    assert u.shape == (3,)
    outer = u[..., :, None] * u[..., None, :]
    assert outer.shape == (3, 3) and outer.g.shape == (3, 3, 3) and outer.h.shape == (3, 3, 3, 3)
    # d_a (u_i u_j) = delta_ai u_j + u_i delta_aj
    np.testing.assert_array_equal(outer.g[0, 1], [-1.0, 0.5, 0.0])
    s = (u * u).sum(-1)
    np.testing.assert_array_equal(s.g, 2 * u.val)
    np.testing.assert_array_equal(s.h, 2 * np.eye(3))
    m = np.arange(6.0).reshape(3, 2)
    lin = u @ m
    np.testing.assert_array_equal(lin.val, u.val @ m)
    np.testing.assert_array_equal(lin.g, m.T)
    assert lin.reshape((2, 1)).g.shape == (2, 1, 3)


def test_ndarray_operands_defer_to_the_jet():
    u = seed([1.0, 2.0])
    assert isinstance(np.ones(2) * u, Jet2)
    assert isinstance(np.float64(2.0) - u, Jet2)
    with pytest.raises(TypeError):
        np.eye(2) @ u  # write u @ M: M @ u reads a batch of points as a matrix
    with pytest.raises(ValueError, match="constant vector or matrix only"):
        u @ np.ones((2, 2, 2))


@pytest.mark.parametrize("scheme", ["analytic", "fd2", "fd4"])
def test_partial_square(scheme):
    cfg = DiffConfig(scheme=scheme)
    f = lambda u: u[..., 0] * u[..., 0]
    _, d1, d2 = field_jets(f, np.array([3.0]), cfg, second=True)
    assert d1[0] == pytest.approx(6.0, rel=1e-7)
    assert d2[0, 0] == pytest.approx(2.0, rel=1e-5)


def test_fd_convergence_orders():
    """Halving the step divides the error by ~2^order."""
    f = lambda u: jet_exp(u[..., 0])
    exact = math.exp(0.5)
    for scheme, order in (("fd2", 2), ("fd4", 4)):
        errors = []
        for step in (1e-2, 5e-3):
            _, d1 = field_jets(f, np.array([0.5]), DiffConfig(scheme=scheme, step=step))
            errors.append(abs(d1[0] - exact))
        ratio = errors[0] / errors[1]
        assert 0.5 * 2**order < ratio < 2.0 * 2**order


def test_richardson_beats_plain_fd2():
    f = lambda u: jet_exp(u[..., 0])
    exact = math.exp(0.5)
    point = np.array([0.5])
    _, plain = field_jets(f, point, DiffConfig(scheme="fd2", step=1e-3))
    _, extrap = field_jets(f, point, DiffConfig(scheme="fd2", step=1e-3, richardson=True))
    assert abs(extrap[0] - exact) < abs(plain[0] - exact) / 10


def test_fd_mixed_second_partials_match_analytic():
    point = np.array([1.1, 0.6])
    _, _, exact = eval_jets(poly, point, second=True)
    _, _, fd = field_jets(poly, point, DiffConfig(scheme="fd4", step=1e-3), second=True)
    np.testing.assert_allclose(fd, exact, atol=5e-9)
    np.testing.assert_allclose(fd, np.swapaxes(fd, 0, 1), atol=1e-12)


def test_field_jets_layout_for_vector_fields():
    # f = (x y, x + 2 y, 3)
    pick_y = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    linear = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
    fn = lambda u: u[..., 0, None] * (u @ pick_y) + u @ linear + np.array([0.0, 0.0, 3.0])
    val, d1 = field_jets(fn, np.array([2.0, 5.0]), DiffConfig())
    assert val.shape == (3,)
    assert d1.shape == (2, 3)
    assert d1[0, 0] == pytest.approx(5.0)  # d/dx of x*y
    assert d1[1, 1] == pytest.approx(2.0)  # d/dy of x + 2y
    assert d1[0, 2] == 0.0
    _, d1_fd = field_jets(fn, np.array([2.0, 5.0]), DiffConfig(scheme="fd4"))
    np.testing.assert_allclose(d1_fd, d1, atol=1e-9)


def _pointwise_fd(fn, point, step, scheme):
    """Reference: the stencils evaluated one point at a time, as loops."""
    d1_stencil = {
        "fd2": ((-1, -0.5), (1, 0.5)),
        "fd4": ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)),
    }[scheme]
    pure = {
        "fd2": ((-1, 1.0), (0, -2.0), (1, 1.0)),
        "fd4": ((-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12), (2, -1 / 12)),
    }[scheme]
    n = point.shape[0]
    f = lambda *moves: fn(point + sum((k * step * np.eye(n)[i] for i, k in moves), np.zeros(n)))
    d1 = np.array([sum(c * f((i, k)) for k, c in d1_stencil) / step for i in range(n)])
    d2 = np.empty((n, n) + d1.shape[1:])
    for i in range(n):
        d2[i, i] = sum(c * f((i, k)) for k, c in pure) / (step * step)
        for j in range(i + 1, n):
            mixed = sum(
                ci * cj * f((i, ki), (j, kj)) for ki, ci in d1_stencil for kj, cj in d1_stencil
            )
            d2[i, j] = d2[j, i] = mixed / (step * step)
    return d1, d2


@pytest.mark.parametrize("scheme", ["fd2", "fd4"])
def test_batched_stencils_match_the_pointwise_loop(scheme):
    """Same stencil points and coefficients; only the summation order moves,
    by a few eps |f| / step^order."""
    m = manifold_by_name("fs", k=2)
    point, step = np.array([0.2, -0.1, 0.05, 0.3]), 1e-3
    want1, want2 = _pointwise_fd(m.metric_field.fn, point, step, scheme)
    _, got1, got2 = field_jets(m.metric_field.fn, point, DiffConfig(scheme, step), second=True)
    scale = 16 * np.finfo(float).eps * np.abs(m.metric_field.value(point)).max()
    np.testing.assert_allclose(got1, want1, rtol=0, atol=scale / step)
    np.testing.assert_allclose(got2, want2, rtol=0, atol=scale / step**2)


def test_domain_blocks_stencil_and_point():
    ball = lambda u: (u * u).sum(-1) < 1.0
    f = lambda u: u[..., 0] * u[..., 0]
    cfg = DiffConfig(scheme="fd4", step=1e-2)
    with pytest.raises(DomainError):
        field_jets(f, np.array([1.5, 0.0]), cfg, domain=ball)
    # the first stencil point outside the ball is named: x + h along axis 0
    with pytest.raises(DomainError, match=r"\[1\.0099, 0\.0\]"):
        field_jets(f, np.array([0.9999, 0.0]), cfg, domain=ball)
    val, d1 = field_jets(f, np.array([0.5, 0.0]), cfg, domain=ball)
    assert d1[0] == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("scheme", ["analytic", "fd4"])
def test_domain_error_on_a_batch_names_the_first_offending_point(scheme):
    """Points and stencils are checked for the whole batch at once; the
    error names the first point, in batch order, that leaves the domain."""
    ball = lambda u: (u * u).sum(-1) < 1.0
    f = lambda u: u[..., 0] * u[..., 0]
    cfg = DiffConfig(scheme=scheme, step=1e-2) if scheme != "analytic" else DiffConfig()
    outside = np.array([[0.5, 0.0], [1.5, 0.0], [0.0, 2.0]])[:, None]
    with pytest.raises(DomainError, match=r"point \[1\.5, 0\.0\] outside"):
        field_jets(f, outside, cfg, domain=ball)
    if scheme == "fd4":
        near = np.array([[0.5, 0.0], [0.0, 0.985], [0.9999, 0.0]])[:, None]
        with pytest.raises(DomainError, match=r"at \[0\.0, 1\.00"):
            field_jets(f, near, cfg, domain=ball)


def test_non_finite_values_rejected():
    f = lambda u: math.inf * (u[..., 0] + 1.0)
    with pytest.raises(NumericError):
        field_jets(f, np.array([1.0]), DiffConfig(scheme="fd2"))
    # a jet that overflows, with the warning silenced as the command line does
    grows = lambda u: jet_exp(1000.0 * u[..., 0])
    for second in (True, False):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite"):
            field_jets(grows, np.array([1.0]), DiffConfig(), second=second)


def test_constant_fields_are_sampled_and_broadcast():
    const = np.array([[1.0, 2.0], [3.0, 4.0]])
    point = np.zeros(2)
    val, d1, d2 = field_jets(lambda u: const, point, DiffConfig(), second=True)
    np.testing.assert_array_equal(val, const)
    assert d1.shape == (2, 2, 2) and d2.shape == (2, 2, 2, 2)
    assert not d1.any() and not d2.any()
    # fd4 samples the constant like any field; only rounding, eps |c| / h^order, remains
    val, d1, d2 = field_jets(lambda u: const, point, DiffConfig("fd4"), second=True)
    np.testing.assert_array_equal(val, const)
    assert d1.shape == (2, 2, 2) and d2.shape == (2, 2, 2, 2)
    assert np.abs(d1).max() < 1e-10 and np.abs(d2).max() < 1e-6


@pytest.mark.parametrize("second,most", [(False, 3), (True, 3)])
def test_fd_calls_the_field_once_per_stencil_level(second, most):
    """fd4 with Richardson: the point, then one batch per step, which holds
    the axis stencils and, for second partials, the pair stencils too."""
    m = manifold_by_name("fs", k=4)
    calls = []

    def counted(u):
        calls.append(np.shape(u))
        return m.metric_field.fn(u)

    point = np.full(8, 0.1)
    cfg = DiffConfig(scheme="fd4", richardson=True)
    out = field_jets(counted, point, cfg, second=second)
    assert len(calls) <= most
    assert calls[0] == (8,)
    assert all(len(shape) == 2 and shape[1] == 8 for shape in calls[1:])
    for x, y in zip(out, field_jets(m.metric_field.fn, point, cfg, second=second)):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("scheme", ["fd2", "fd4"])
@pytest.mark.parametrize("richardson", [False, True])
def test_fd_derivatives_of_a_constant_field_are_exactly_zero(scheme, richardson):
    """The stencil sums are centred on the value at the point, so the size of
    a constant field leaves no rounding in its derivatives."""
    c = np.full((3, 3), 7.0 / 3.0)
    cfg = DiffConfig(scheme=scheme, richardson=richardson)
    _, d1, d2 = field_jets(lambda u: c, np.array([0.3, -0.2, 0.1, 0.5]), cfg, second=True)
    assert not d1.any() and not d2.any()


def test_analytic_jets_call_the_field_once():
    m = manifold_by_name("fs", k=4)
    calls = []

    def counted(u):
        calls.append(u)
        return m.metric_field.fn(u)

    field_jets(counted, np.full(8, 0.1), DiffConfig(), second=True)
    assert len(calls) == 1 and isinstance(calls[0], Jet2)


def _catalog_fields(k):
    """Every catalog generator at dimension 2k, the structure field, and the
    metric fields of the charts that exist at k."""
    n = 2 * k
    comps = np.linspace(-1.0, 1.0, n)
    gens = [generator(name, dim=n, components=comps, seed=3) for name in GENERATORS]
    charts = ["flat", "fs", "hyperbolic"] + (["conformal-nonkahler"] if k == 2 else [])
    ms = [manifold_by_name(name, k) for name in charts]
    return gens + [ms[0].structure_field] + [m.metric_field for m in ms]


@pytest.mark.parametrize("k", [1, 2, 8])
def test_first_order_jets_have_the_bits_of_second_order_jets(k):
    """eval_jets(second=False) carries no Hessian, and its values and first
    partials come from the same expressions: on a (P, 1, n) batch every
    catalog field gives the bytes of second=True."""
    pts = sample_points(manifold_by_name("hyperbolic", k), 3, seed=9)[:, None]
    for field in _catalog_fields(k):
        val, d1, d2 = eval_jets(field.fn, pts, second=False)
        want = eval_jets(field.fn, pts, second=True)
        assert d2 is None
        assert val.tobytes() == want[0].tobytes() and val.shape == want[0].shape, field.label
        assert d1.tobytes() == want[1].tobytes() and d1.shape == want[1].shape, field.label


def test_first_order_jets_reach_the_field_without_a_hessian():
    seen = []

    def probe(u):
        seen.append(u)
        return u * u

    field_jets(probe, np.array([[[0.2, 0.1]]]), DiffConfig())
    assert len(seen) == 1 and isinstance(seen[0], Jet2) and seen[0].h is None
    x = seen[0][..., 0]
    for y in (x + x, x - 1.0, 2.0 / x, x * x / x, x**2, jet_exp(x), x.reshape((1, 1)).sum(-1)):
        assert y.h is None


def test_first_order_random_poly_jets_stay_below_one_n4_array():
    """At n = 16 the first partials of random_poly:3 take O(n^3) memory: the
    peak stays below one n^4 float64 array, the size of its Hessian."""
    n = 16
    fn = generator("random_poly", dim=n, seed=3).fn
    pts = sample_points(manifold_by_name("fs", 8), 1, seed=9)[:, None]
    eval_jets(fn, pts, second=False)  # first-call caches stay out of the trace
    tracemalloc.start()
    try:
        eval_jets(fn, pts, second=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n**4, peak
