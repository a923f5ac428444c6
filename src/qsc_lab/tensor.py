"""Dense coordinate tensors at a point.

A tensor is a dim**rank block of float64 components plus a signature that
tags every slot contravariant ("u") or covariant ("d").  Slot order is the
argument order of the multilinear map; mixed tensors keep the output slot
first, so a curvature operator R(X, Y)Z is stored as R[l, i, j, k] with
signature "uddd" and slots (out; X, Y, Z).

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def contravariant(self) -> int:
        return self.slots.count(UP)

    @property
    def covariant(self) -> int:
        return self.slots.count(DOWN)

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


def tensor(dim: int, signature: str, components) -> Tensor:
    """Convenience constructor accepting any array-like components."""
    return Tensor(dim, Signature(signature), np.asarray(components, dtype=np.float64))


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


def norm_max(t: Tensor | np.ndarray) -> float:
    comps = t.components if isinstance(t, Tensor) else np.asarray(t)
    if comps.size == 0:
        return 0.0
    return float(np.max(np.abs(comps)))


def metric_inverse(g: Tensor, cond_bound: float = 1e12) -> Tensor:
    """Invert a (0,2) metric, rejecting near-singular input."""
    _check_metric_like(g, g.dim)
    cond = float(np.linalg.cond(g.components))
    if not np.isfinite(cond) or cond > cond_bound:
        raise SingularMetricError(
            f"metric condition number {cond:.3e} exceeds bound {cond_bound:.1e}"
        )
    inv = np.linalg.inv(g.components)
    inv = 0.5 * (inv + inv.T)  # symmetrize away inversion rounding
    return Tensor(g.dim, Signature(UP + UP), inv)


def relative_residual(residual: float, scales: Iterable[float]) -> float:
    """residual / max(scale, guard); the guard keeps all-zero identities exact."""
    scale = max(list(scales) + [0.0])
    return residual / max(scale, _SCALE_GUARD)


def _check_metric_like(g: Tensor, dim: int) -> None:
    if g.rank != 2 or g.signature.slots[0] != g.signature.slots[1]:
        raise ValueError(f"expected a rank-2 metric-like tensor, got {g.signature}")
    if g.dim != dim:
        raise ValueError(f"dimension mismatch: {dim} vs {g.dim}")
