"""The array helpers of the pipeline, and the one-point ``Tensor`` record.

Arrays are the one tensor algebra: a tensor is a float64 array whose tensor
slots are its trailing axes, after any leading batch axes.  Slot order is the
argument order of the multilinear map; mixed tensors keep the output slot
first, so a curvature operator R(X, Y)Z is stored as R[..., l, i, j, k] with
slots (out; X, Y, Z).  Contractions are numpy traces, einsums and matmuls on
those axes; ``norm_max(x, rank)`` takes one max-norm per leading index.

``Tensor`` is only the record that ``qsc-lab tensor`` prints: the array of
one tensor at one point, frozen and checked finite, with a ``signature``
string of one "u" (contravariant) or "d" (covariant) per slot.  Nothing in
the pipeline returns one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

MAX_DIM = 16

_SCALE_GUARD = 1e-12


class SingularMetricError(ValueError):
    """Metric inversion rejected: condition number above the configured bound."""


class ConfigError(ValueError):
    """Invalid run configuration, such as an unknown catalog name; exit code 2."""


class NumericError(ValueError, ArithmeticError):
    """A computed value overflowed or became undefined (inf or nan); maps to
    exit code 3, apart from the configuration errors of exit code 2."""


@dataclass(frozen=True)
class Tensor:
    """Immutable dense tensor of float64 components at a single point, with
    one "u" or "d" per slot in `signature`; the printed form of an array."""

    dim: int
    signature: str
    components: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.signature, str) or set(self.signature) - {"u", "d"}:
            raise ValueError(f"signature slots must be 'u' or 'd', got {self.signature!r}")
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} outside [1, {MAX_DIM}]")
        # a copy, so freezing it leaves the caller's array writable
        comps = np.array(self.components, dtype=np.float64, order="C")
        expected = (self.dim,) * len(self.signature)
        if comps.shape != expected:
            raise ValueError(
                f"components shape {comps.shape} does not match "
                f"signature {self.signature} at dim {self.dim}"
            )
        if not np.all(np.isfinite(comps)):
            raise NumericError("non-finite tensor components")
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)


def norm_max(x: np.ndarray, rank: int | None = None):
    """Largest absolute component.  With `rank`, one max-norm per leading
    index, taken over the trailing `rank` axes (the tensor slots)."""
    comps = np.asarray(x)
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
    """Invert a (0,2) metric, or each of a stack, rejecting near-singular
    input; the error names the first such matrix's condition number."""
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"expected a square metric block, got shape {g.shape}")
    cond = np.linalg.cond(g)
    bad = ~(cond <= cond_bound)  # also NaN
    if bad.any():
        worst = float(np.ravel(cond)[np.argmax(bad)])
        raise SingularMetricError(
            f"metric condition number {worst:.3e} exceeds bound {cond_bound:.1e}"
        )
    inv = np.linalg.inv(g)
    return 0.5 * (inv + inv.swapaxes(-1, -2))  # symmetrize away inversion rounding


def relative_residual(residual, scale):
    """residual / max(scale, guard), elementwise over arrays; the guard keeps
    all-zero identities exact."""
    return residual / np.maximum(scale, _SCALE_GUARD)

