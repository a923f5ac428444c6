"""Tensor container and slot algebra, checked against loop-level oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsc_lab.tensor import (
    Signature,
    SingularMetricError,
    Tensor,
    contract,
    lower_first,
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
    sig = Signature("uddd")
    assert sig.rank == 4
    assert sig.drop(0, 2).slots == "dd"
    assert str(sig) == "uddd"


def test_signature_rejects_bad_slots():
    with pytest.raises(ValueError):
        Signature("uxd")


def test_tensor_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        Tensor(3, "dd", np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Tensor(2, "d", [np.nan, 0.0])
    with pytest.raises(ValueError):
        Tensor(17, Signature("d"), np.zeros(17))


def test_tensor_components_frozen():
    t = Tensor(2, "dd", np.eye(2))
    with pytest.raises(ValueError):
        t.components[0, 0] = 5.0


def test_zeros_and_getitem():
    t = Tensor(3, "ud", np.zeros((3, 3)))
    assert t.components.shape == (3, 3)
    assert t[1, 2] == 0.0


@given(dim=st.integers(2, 4), seed=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_contract_matches_explicit_sum(dim, seed):
    """contract() against the definition written as an index loop."""
    t = Tensor(dim, Signature("udd"), components(dim, 3, seed))
    got = contract(t, 0, 1)
    want = np.zeros(dim)
    for k in range(dim):
        for m in range(dim):
            want[k] += t[m, m, k]
    assert got.signature.slots == "d"
    np.testing.assert_allclose(got.components, want, atol=1e-14)


@given(dim=st.integers(2, 4), seed=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_contract_last_slot_matches_explicit_sum(dim, seed):
    t = Tensor(dim, Signature("uddd"), components(dim, 4, seed))
    got = contract(t, 0, 3)
    want = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            for m in range(dim):
                want[i, j] += t[m, i, j, m]
    np.testing.assert_allclose(got.components, want, atol=1e-14)


def test_contract_rejects_bad_slots():
    t = Tensor(2, Signature("udd"), components(2, 3, 1))
    with pytest.raises(ValueError):
        contract(t, 1, 2)  # slot 1 is covariant
    with pytest.raises(ValueError):
        contract(t, 0, 0)
    with pytest.raises(ValueError):
        contract(t, 0, 5)


@given(dim=st.integers(2, 5), rank=st.integers(1, 4), seed=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_lower_raise_roundtrip(dim, rank, seed):
    sig = Signature("u" + "d" * (rank - 1))
    t = Tensor(dim, sig, components(dim, rank, seed))
    g = spd_metric(dim, seed + 1)
    g_inv = metric_inverse(g.components)
    low = lower_first(t, g)
    assert low.signature.slots == "d" * rank
    # raise the trailing slot with g^-1 and move it back to the front
    back = np.moveaxis(
        np.tensordot(low.components, g_inv, axes=([rank - 1], [0])), -1, 0
    )
    assert norm_max(back - t.components) < ROUNDTRIP_TOL


def test_lower_first_slot_order():
    """R[l,i,j,k] must become R[i,j,k,w] with the lowered slot appended last."""
    dim = 2
    t = Tensor(dim, Signature("ud"), np.array([[1.0, 2.0], [3.0, 4.0]]))
    g = Tensor(dim, "dd", np.diag([2.0, 5.0]))
    low = lower_first(t, g)
    assert low.signature.slots == "dd"
    # low[j, w] = g[l, w] t[l, j]
    assert low[0, 0] == 2.0 * 1.0
    assert low[0, 1] == 5.0 * 3.0


def test_norms():
    t = Tensor(2, "dd", [[3.0, 0.0], [0.0, -4.0]])
    assert norm_max(t) == 4.0
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
    rel = relative_residual(got, [np.full((2, 1), 2.0), 1.0])
    np.testing.assert_array_equal(rel, got / np.maximum(got * 0 + 2.0, 1.0))
    assert relative_residual(0.0, [np.zeros(3)]).tolist() == [0.0, 0.0, 0.0]


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


def test_relative_residual_guard():
    assert relative_residual(0.0, [0.0]) == 0.0
    assert relative_residual(1e-15, [0.0]) <= 1e-3
    assert relative_residual(2.0, [4.0]) == 0.5
