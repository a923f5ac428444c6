"""The one-point Tensor record and the array helpers, checked against
loop-level oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsc_lab.curvature import lowered
from qsc_lab.tensor import (
    _ABS_BYTES,
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


def test_tensor_leaves_the_callers_array_writable():
    x = np.eye(2)
    t = Tensor(2, "dd", x)
    assert x.flags.writeable
    x[0, 0] = 5.0
    assert t.components[0, 0] == 1.0


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


def _max_min_norm(x, rank):
    """The max/-min kernel written out: +0.0 turns the -0.0 of an all-zero
    block into +0.0."""
    if rank is None:
        return 0.0 if x.size == 0 else float(np.maximum(x.max(), -x.min()) + 0.0)
    lead = x.shape[: x.ndim - rank]
    flat = x.reshape(lead + (math.prod(x.shape[len(lead):]),))
    return np.maximum(flat.max(-1), -flat.min(-1)) + 0.0


def _blocks_of(count, rank, seed):
    """`count` blocks of 4^rank normal values, their first entries set to
    NaN, +inf, -inf and a NaN of negative sign, then blocks of all -0.0, all
    +0.0 and zeros of both signs."""
    x = np.random.default_rng(seed).normal(size=(count, 4**rank))
    for row, value in zip(x, (np.nan, np.inf, -np.inf, -np.nan)):
        row[0] = value
    for row, zeros in zip(x[4:], ((-0.0,), (0.0,), (0.0, -0.0))):
        row[:] = np.resize(zeros, row.size)
    return x.reshape((count,) + (4,) * rank)


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4, None])
def test_the_two_norm_kernels_agree_bit_for_bit(rank):
    """norm_max takes |x| and one max up to _ABS_BYTES, max and -min above:
    just below, at and just above the threshold and at 1.5 MiB both give the
    bits of the max/-min formula, also on NaN, +-inf and blocks of zeros of
    either sign (a +0.0 norm).  A NaN keeps its place but not its sign, which
    abs clears and which no report prints."""
    block = 8 * 4 ** (rank or 0)
    counts = [n // block for n in (_ABS_BYTES - block, _ABS_BYTES, _ABS_BYTES + block)]
    for count in counts + [(3 << 19) // block, 0]:
        x = _blocks_of(count, rank or 0, seed=count)
        got, want = norm_max(x, rank), _max_min_norm(x, rank)
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.float64
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert np.asarray(got)[~nan].tobytes() == np.asarray(want)[~nan].tobytes(), count
        if rank is not None and count:
            assert not np.signbit(got[4:7]).any()  # the blocks of zeros
            assert got[0].tobytes() == want[0].tobytes()  # a NaN of positive sign
    assert norm_max(np.zeros((0, 3, 4, 4, 4, 4)), 4).shape == (0, 3)


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
    with pytest.raises(SingularMetricError, match=r"exceeds bound 1\.0e\+12$"):
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
