"""Dense coordinate tensors at a point, and the array helpers of the pipeline.

A tensor is a dim**rank block of float64 components plus a signature that
tags every slot contravariant ("u") or covariant ("d").  Slot order is the
argument order of the multilinear map; mixed tensors keep the output slot
first, so a curvature operator R(X, Y)Z is stored as R[l, i, j, k] with
signature "uddd" and slots (out; X, Y, Z).

Values are immutable after construction and safe to share.  ``Tensor`` is
the API and CLI view of one tensor at one point; the pipeline itself works
on plain arrays whose tensor slots are the trailing axes, after any leading
batch axes (``norm_max(x, rank)`` takes one max-norm per leading index).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import Iterable

import numpy as np

UP = "u"
DOWN = "d"

MAX_DIM = 16

_SCALE_GUARD = 1e-12


class SingularMetricError(ValueError):
    """Metric inversion rejected: condition number above the configured bound."""


class NumericError(ValueError, ArithmeticError):
    """A computed value overflowed or became undefined (inf or nan); maps to
    exit code 3, apart from the configuration errors of exit code 2."""


@dataclass(frozen=True)
class Signature:
    """Slot tags for a tensor, one character per slot: 'u' up, 'd' down."""

    slots: str

    def __post_init__(self) -> None:
        if any(c not in (UP, DOWN) for c in self.slots):
            raise ValueError(f"signature slots must be 'u' or 'd', got {self.slots!r}")

    @property
    def rank(self) -> int:
        return len(self.slots)

    def drop(self, *positions: int) -> "Signature":
        keep = [c for i, c in enumerate(self.slots) if i not in positions]
        return Signature("".join(keep))

    def __str__(self) -> str:
        return self.slots


@dataclass(frozen=True)
class Tensor:
    """Immutable dense tensor of float64 components at a single point."""

    dim: int
    signature: Signature
    components: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.signature, str):
            object.__setattr__(self, "signature", Signature(self.signature))
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} outside [1, {MAX_DIM}]")
        comps = np.ascontiguousarray(self.components, dtype=np.float64)
        expected = (self.dim,) * self.signature.rank
        if comps.shape != expected:
            raise ValueError(
                f"components shape {comps.shape} does not match "
                f"signature {self.signature} at dim {self.dim}"
            )
        if not np.all(np.isfinite(comps)):
            raise NumericError("non-finite tensor components")
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)

    @property
    def rank(self) -> int:
        return self.signature.rank

    def __getitem__(self, idx):
        return self.components[idx]


def contract(t: Tensor, up_slot: int, down_slot: int) -> Tensor:
    """Trace one contravariant slot against one covariant slot."""
    sig = t.signature
    if not (0 <= up_slot < sig.rank and 0 <= down_slot < sig.rank):
        raise ValueError(f"slot out of range for rank-{sig.rank} tensor")
    if up_slot == down_slot:
        raise ValueError("cannot contract a slot with itself")
    if sig.slots[up_slot] != UP or sig.slots[down_slot] != DOWN:
        raise ValueError(
            f"slot kind mismatch: need (up, down), got "
            f"({sig.slots[up_slot]}, {sig.slots[down_slot]})"
        )
    comps = np.trace(t.components, axis1=up_slot, axis2=down_slot)
    if t.rank == 2:
        return Tensor(t.dim, sig.drop(up_slot, down_slot), np.asarray(comps))
    return Tensor(t.dim, sig.drop(up_slot, down_slot), comps)


def lower_first(t: Tensor, g: Tensor) -> Tensor:
    """Lower the leading contravariant slot and move it to the end.

    Matches the usual (0, 4) curvature convention: a map-valued tensor
    T(args) with output slot first becomes the form g(T(args), W) with W
    appended last, e.g. R[l,i,j,k] -> R[i,j,k,l'] and A -> F = g(A., .).
    """
    _check_metric_like(g, t.dim)
    if t.rank == 0 or t.signature.slots[0] != UP:
        raise ValueError("lower_first needs a leading contravariant slot")
    comps = np.tensordot(t.components, g.components, axes=([0], [0]))
    return Tensor(t.dim, Signature(t.signature.slots[1:] + DOWN), comps)


def norm_max(t: Tensor | np.ndarray, rank: int | None = None):
    """Largest absolute component.  With `rank`, one max-norm per leading
    index, taken over the trailing `rank` axes (the tensor slots)."""
    comps = t.components if isinstance(t, Tensor) else np.asarray(t)
    if rank is not None:
        # max and -min: no temporary the size of the input; adding +0.0
        # turns the -0.0 that -min gives on an all-zero block into +0.0
        lead = comps.shape[: comps.ndim - rank]
        flat = comps.reshape(lead + (prod(comps.shape[len(lead):]),))
        return np.maximum(flat.max(-1), -flat.min(-1)) + 0.0
    if comps.size == 0:
        return 0.0
    return float(np.abs(comps).max())


def contract_first(m: np.ndarray, arr: np.ndarray, rank: int) -> np.ndarray:
    """m[..., i, l] contracted with the first of the `rank` trailing slots of
    `arr`, as one matmul on the flattened remaining slots."""
    n = arr.shape[-1]
    lead = arr.shape[: arr.ndim - rank]
    out = m @ arr.reshape(lead + (n, n ** (rank - 1)))
    return out.reshape(out.shape[:-2] + (n,) * rank)


def metric_inverse(g: np.ndarray, cond_bound: float = 1e12) -> np.ndarray:
    """Invert the components of a (0,2) metric, rejecting near-singular input."""
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"expected a square metric block, got shape {g.shape}")
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > cond_bound:
        raise SingularMetricError(
            f"metric condition number {cond:.3e} exceeds bound {cond_bound:.1e}"
        )
    inv = np.linalg.inv(g)
    return 0.5 * (inv + inv.T)  # symmetrize away inversion rounding


def relative_residual(residual, scales: Iterable):
    """residual / max(scale, guard), elementwise over arrays; the guard keeps
    all-zero identities exact."""
    scale = reduce(np.maximum, scales, 0.0)
    return residual / np.maximum(scale, _SCALE_GUARD)


def _check_metric_like(g: Tensor, dim: int) -> None:
    if g.rank != 2 or g.signature.slots[0] != g.signature.slots[1]:
        raise ValueError(f"expected a rank-2 metric-like tensor, got {g.signature}")
    if g.dim != dim:
        raise ValueError(f"dimension mismatch: {dim} vs {g.dim}")
