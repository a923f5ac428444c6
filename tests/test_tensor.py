"""The one-point Tensor record and the array helpers, checked against
loop-level oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsc_lab.curvature import lowered
from qsc_lab.tensor import (
    SingularMetricError,
    Tensor,
    metric_inverse,
    norm_max,
    relative_residual,
)

ROUNDTRIP_TOL = 1e-12


def components(dim: int, rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=(dim,) * rank)


def spd_metric(dim: int, seed: int) -> Tensor:
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return Tensor(dim, "dd", b @ b.T + dim * np.eye(dim))


def test_signature_counts():
    """The signature is a plain string with one character per slot."""
    t = Tensor(2, "uddd", np.zeros((2,) * 4))
    assert t.signature == "uddd"
    assert len(t.signature) == t.components.ndim == 4


def test_signature_rejects_bad_slots():
    for sig in ("uxd", None, ("u", "d")):
        with pytest.raises(ValueError, match="signature slots"):
            Tensor(2, sig, np.zeros((2, 2)))


def test_tensor_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        Tensor(3, "dd", np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Tensor(2, "d", [np.nan, 0.0])
    with pytest.raises(ValueError):
        Tensor(17, "d", np.zeros(17))


def test_tensor_components_frozen():
    t = Tensor(2, "dd", np.eye(2))
    with pytest.raises(ValueError):
        t.components[0, 0] = 5.0


def test_zeros_and_getitem():
    t = Tensor(3, "ud", np.zeros((3, 3)))
    assert t.components.shape == (3, 3)
    assert t.components[1, 2] == 0.0


@given(dim=st.integers(2, 5), batch=st.integers(0, 2), seed=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_lower_raise_roundtrip(dim, batch, seed):
    """lowered() on a (1,3) operator with `batch` leading axes, undone by
    raising the trailing slot with g^-1 and moving it back to the front."""
    t = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2,) * batch + (dim,) * 4)
    g = spd_metric(dim, seed + 1).components
    low = lowered(t, g)
    assert low.shape == t.shape
    back = np.moveaxis(low @ metric_inverse(g), -1, -4)
    assert norm_max(back - t) < ROUNDTRIP_TOL


def test_lowered_appends_the_lowered_slot_last():
    """R[l,i,j,k] must become R[i,j,k,w] = sum_l g[l,w] R[l,i,j,k]."""
    dim = 2
    t = components(dim, 4, 7)
    g = np.diag([2.0, 5.0])
    low = lowered(t, g)
    for i, j, k, w in np.ndindex(low.shape):
        assert low[i, j, k, w] == sum(g[l, w] * t[l, i, j, k] for l in range(dim))


def test_norms():
    assert norm_max(np.array([[3.0, 0.0], [0.0, -4.0]])) == 4.0
    assert norm_max(np.zeros((2, 2))) == 0.0


def test_norm_of_an_all_zero_block_is_positive_zero():
    """Zeros of either sign have max-norm +0.0, never -0.0, so a report
    never prints a negative zero residual."""
    for zero in (0.0, -0.0):
        block = np.full((2, 3, 4, 4), zero)
        for norm in (*norm_max(block, 2).ravel(), norm_max(block)):
            assert math.copysign(1.0, norm) == 1.0


def test_batched_norms_and_residuals_keep_leading_axes():
    """norm_max(x, rank) is one max-norm per leading index; relative_residual
    works elementwise, and with no leading axes both give today's values."""
    x = np.random.default_rng(3).normal(size=(2, 3, 4, 4))
    got = norm_max(x, 2)
    assert got.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert got[i, j] == norm_max(x[i, j])
    assert norm_max(x[0, 0], 2) == norm_max(x[0, 0])
    assert norm_max(np.zeros((0, 4, 4)), 2).shape == (0,)
    rel = relative_residual(got, np.maximum(np.full((2, 1), 2.0), 1.0))
    np.testing.assert_array_equal(rel, got / np.maximum(got * 0 + 2.0, 1.0))
    assert relative_residual(0.0, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


@given(dim=st.integers(2, 5), seed=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_metric_inverse_roundtrip(dim, seed):
    g = spd_metric(dim, seed)
    g_inv = metric_inverse(g.components)
    assert g_inv.shape == (dim, dim)
    np.testing.assert_allclose(g.components @ g_inv, np.eye(dim), atol=1e-10)


def test_metric_inverse_rejects_singular():
    with pytest.raises(SingularMetricError):
        metric_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_metric_inverse_of_a_stack_inverts_each_matrix():
    """A (P, 1, n, n) stack gives the one-matrix inverses bit for bit, and
    one singular matrix anywhere in it rejects the stack."""
    stack = np.stack([spd_metric(4, seed).components for seed in range(5)])[:, None]
    got = metric_inverse(stack)
    assert got.shape == (5, 1, 4, 4)
    for i in range(5):
        np.testing.assert_array_equal(got[i, 0], metric_inverse(stack[i, 0]))
    stack[3, 0] = np.ones((4, 4))
    with pytest.raises(SingularMetricError, match="condition number"):
        metric_inverse(stack)


def test_relative_residual_guard():
    assert relative_residual(0.0, 0.0) == 0.0
    assert relative_residual(1e-15, 0.0) <= 1e-3
    assert relative_residual(2.0, 4.0) == 0.5
