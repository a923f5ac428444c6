"""Differentiation engine for pointwise fields.

Two interchangeable backends produce first and second partial derivatives of
component functions u -> nested lists of scalars:

* "analytic": forward-mode Taylor numbers of order two (Jet2).  Component
  functions are written in plain arithmetic, so evaluating them on jets
  yields exact derivatives to rounding.
* "fd2" / "fd4": central finite-difference stencils of order two and four,
  with optional Richardson extrapolation.  Second derivatives use direct
  two-dimensional stencils; nothing is differenced twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .tensor import NumericError

SCHEMES = ("analytic", "fd2", "fd4")

MIN_STEP = 1e-7
MAX_STEP = 1e-2


class DomainError(ValueError):
    """A point (or a finite-difference stencil around it) left the chart domain."""


@dataclass(frozen=True)
class DiffConfig:
    scheme: str = "analytic"
    step: float = 1e-4
    richardson: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not MIN_STEP <= self.step <= MAX_STEP:
            raise ValueError(
                f"step {self.step:g} outside [{MIN_STEP:g}, {MAX_STEP:g}]"
            )


class Jet2:
    """Second-order Taylor number: value, gradient and symmetric Hessian."""

    __slots__ = ("val", "g", "h")

    def __init__(self, val: float, g: np.ndarray, h: np.ndarray):
        self.val = float(val)
        self.g = g
        self.h = h

    @staticmethod
    def constant(val: float, n: int) -> "Jet2":
        return Jet2(val, np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def variable(val: float, index: int, n: int) -> "Jet2":
        g = np.zeros(n)
        g[index] = 1.0
        return Jet2(val, g, np.zeros((n, n)))

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(float(other), self.g.shape[0])

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.val + o.val, self.g + o.g, self.h + o.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.g, -self.h)

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.val - o.val, self.g - o.g, self.h - o.h)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            c = float(other)
            return Jet2(self.val * c, self.g * c, self.h * c)
        o = other
        cross = np.outer(self.g, o.g)
        return Jet2(
            self.val * o.val,
            self.g * o.val + self.val * o.g,
            self.h * o.val + cross + cross.T + self.val * o.h,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        val = self.val / o.val
        g = (self.g - val * o.g) / o.val
        cross = np.outer(g, o.g)
        h = (self.h - cross - cross.T - val * o.h) / o.val
        return Jet2(val, g, h)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Jet2 powers are non-negative integers")
        out = Jet2.constant(1.0, self.g.shape[0])
        for _ in range(exponent):
            out = out * self
        return out


def jet_exp(x):
    if isinstance(x, Jet2):
        e = math.exp(x.val)
        return Jet2(e, e * x.g, e * (x.h + np.outer(x.g, x.g)))
    return math.exp(x)


def jet_log(x):
    if isinstance(x, Jet2):
        return Jet2(
            math.log(x.val),
            x.g / x.val,
            x.h / x.val - np.outer(x.g, x.g) / (x.val * x.val),
        )
    return math.log(x)


ComponentFn = Callable[[Sequence[Any]], Any]


def _shape_of(structure) -> tuple[int, ...]:
    if isinstance(structure, (list, tuple)):
        return (len(structure),) + _shape_of(structure[0])
    return ()


def _flatten(structure, out: list) -> None:
    if isinstance(structure, (list, tuple)):
        for item in structure:
            _flatten(item, out)
    else:
        out.append(structure)


def eval_components(fn: ComponentFn, coords: np.ndarray) -> np.ndarray:
    """Evaluate a component function at float coordinates."""
    arr = np.array(fn([float(c) for c in coords]), dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite field value")
    return arr


def eval_jets(
    fn: ComponentFn, point: np.ndarray, second: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Evaluate on Taylor seeds; returns (value, d1, d2) with the derivative
    direction leading: d1[a, ...] = da(component ...)."""
    n = point.shape[0]
    seeds = [Jet2.variable(float(point[i]), i, n) for i in range(n)]
    result = fn(seeds)
    shape = _shape_of(result)
    flat: list = []
    _flatten(result, flat)
    size = len(flat)
    val = np.zeros(size)
    d1 = np.zeros((n, size))
    d2 = np.zeros((n, n, size)) if second else None
    for idx, entry in enumerate(flat):
        if isinstance(entry, Jet2):
            val[idx] = entry.val
            d1[:, idx] = entry.g
            if second:
                d2[:, :, idx] = entry.h
        else:
            val[idx] = float(entry)
    tail = shape or ()
    val = val.reshape(tail) if tail else val.reshape(())
    d1 = d1.reshape((n,) + tail)
    if second:
        d2 = d2.reshape((n, n) + tail)
    for arr in (val, d1) + ((d2,) if second else ()):
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite field value")
    return val, d1, d2


# Central stencils: offset -> coefficient, to be scaled by 1/step**order.
_D1_STENCILS = {
    "fd2": ((-1, -0.5), (1, 0.5)),
    "fd4": ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12)),
}
_D2_PURE_STENCILS = {
    "fd2": ((-1, 1.0), (0, -2.0), (1, 1.0)),
    "fd4": ((-2, -1.0 / 12), (-1, 16.0 / 12), (0, -30.0 / 12), (1, 16.0 / 12), (2, -1.0 / 12)),
}


def _check_domain(
    point: np.ndarray, offsets: list[np.ndarray], domain: Callable[[np.ndarray], bool] | None
) -> None:
    if domain is None:
        return
    for off in offsets:
        q = point + off
        if not domain(q):
            raise DomainError(
                f"finite-difference stencil leaves the chart domain at {q.tolist()}"
            )


def _fd_d1_once(fn, point, step, scheme, domain) -> np.ndarray:
    n = point.shape[0]
    stencil = _D1_STENCILS[scheme]
    offsets = []
    for i in range(n):
        for k, _ in stencil:
            e = np.zeros(n)
            e[i] = k * step
            offsets.append(e)
    _check_domain(point, offsets, domain)
    base_shape = eval_components(fn, point).shape
    out = np.zeros((n,) + base_shape)
    for i in range(n):
        acc = np.zeros(base_shape)
        for k, c in stencil:
            e = np.zeros(n)
            e[i] = k * step
            acc += c * eval_components(fn, point + e)
        out[i] = acc / step
    return out


def _fd_d2_once(fn, point, step, scheme, domain) -> np.ndarray:
    n = point.shape[0]
    pure = _D2_PURE_STENCILS[scheme]
    cross = _D1_STENCILS[scheme]
    offsets = []
    for i in range(n):
        for k, _ in pure:
            e = np.zeros(n)
            e[i] = k * step
            offsets.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            for ki, _ in cross:
                for kj, _ in cross:
                    e = np.zeros(n)
                    e[i] = ki * step
                    e[j] = kj * step
                    offsets.append(e)
    _check_domain(point, offsets, domain)
    f0 = eval_components(fn, point)
    out = np.zeros((n, n) + f0.shape)
    for i in range(n):
        acc = np.zeros(f0.shape)
        for k, c in pure:
            if k == 0:
                acc += c * f0
            else:
                e = np.zeros(n)
                e[i] = k * step
                acc += c * eval_components(fn, point + e)
        out[i, i] = acc / (step * step)
    # mixed partials: tensor product of two first-derivative stencils
    for i in range(n):
        for j in range(i + 1, n):
            acc = np.zeros(f0.shape)
            for ki, ci in cross:
                for kj, cj in cross:
                    e = np.zeros(n)
                    e[i] = ki * step
                    e[j] = kj * step
                    acc += ci * cj * eval_components(fn, point + e)
            val = acc / (step * step)
            out[i, j] = val
            out[j, i] = val
    return out


def _richardson(coarse: np.ndarray, fine: np.ndarray, scheme: str) -> np.ndarray:
    # error orders: fd2 ~ h^2, fd4 ~ h^4
    factor = 4.0 if scheme == "fd2" else 16.0
    return (factor * fine - coarse) / (factor - 1.0)


def fd_d1(fn, point, cfg: DiffConfig, domain=None) -> np.ndarray:
    d = _fd_d1_once(fn, point, cfg.step, cfg.scheme, domain)
    if cfg.richardson:
        d_half = _fd_d1_once(fn, point, cfg.step / 2, cfg.scheme, domain)
        d = _richardson(d, d_half, cfg.scheme)
    return d


def fd_d2(fn, point, cfg: DiffConfig, domain=None) -> np.ndarray:
    d = _fd_d2_once(fn, point, cfg.step, cfg.scheme, domain)
    if cfg.richardson:
        d_half = _fd_d2_once(fn, point, cfg.step / 2, cfg.scheme, domain)
        d = _richardson(d, d_half, cfg.scheme)
    return d


def field_jets(
    fn: ComponentFn,
    point: np.ndarray,
    cfg: DiffConfig,
    domain=None,
    second: bool = False,
):
    """(value, d1[, d2]) of a component function under the configured scheme."""
    point = np.asarray(point, dtype=np.float64)
    if domain is not None and not domain(point):
        raise DomainError(f"point {point.tolist()} outside the chart domain")
    if cfg.scheme == "analytic":
        val, d1, d2 = eval_jets(fn, point, second)
    else:
        val = eval_components(fn, point)
        d1 = fd_d1(fn, point, cfg, domain)
        d2 = fd_d2(fn, point, cfg, domain) if second else None
    if second:
        return val, d1, d2
    return val, d1


def partial(
    field: ComponentFn,
    point,
    direction: int,
    cfg: DiffConfig | None = None,
    order: int = 1,
    domain=None,
):
    """Partial derivative of a component field along one coordinate.

    order 1 gives d_field/d_u(direction), order 2 the pure second partial.
    Returns a scalar for scalar fields, else an array shaped like the field.
    """
    cfg = cfg or DiffConfig()
    point = np.asarray(point, dtype=np.float64)
    n = point.shape[0]
    if not 0 <= direction < n:
        raise ValueError(f"direction {direction} out of range for dimension {n}")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if cfg.scheme == "analytic":
        val, d1, d2 = eval_jets(field, point, second=(order == 2))
        out = d1[direction] if order == 1 else d2[direction, direction]
        return float(out) if np.ndim(out) == 0 else out
    stencil = (_D1_STENCILS if order == 1 else _D2_PURE_STENCILS)[cfg.scheme]
    offsets = []
    for k, _ in stencil:
        e = np.zeros(n)
        e[direction] = k * cfg.step
        offsets.append(e)
    _check_domain(point, offsets, domain)

    def evaluate(h: float) -> np.ndarray:
        acc = None
        for k, c in stencil:
            e = np.zeros(n)
            e[direction] = k * h
            term = c * eval_components(field, point + e)
            acc = term if acc is None else acc + term
        return acc / h**order

    out = evaluate(cfg.step)
    if cfg.richardson:
        out = _richardson(out, evaluate(cfg.step / 2), cfg.scheme)
    return float(out) if np.ndim(out) == 0 else out
