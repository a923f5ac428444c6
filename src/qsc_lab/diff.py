"""Differentiation engine for pointwise fields.

A field is a function ``fn(u)`` written once in numpy style.  The last axis of
``u`` holds the n coordinates; ``fn`` returns an array of the field's shape,
with any leading axes of ``u`` in front.  Fields index coordinates as
``u[..., i]`` and contract them as ``u @ M`` (never ``M @ u``, which reads a
batch of points as a matrix).  A constant field may return its constant
array; both backends broadcast it.  Two interchangeable backends produce the
first and second partials at one point (n,) or, in one call, at a batch of
points with leading axes.  With a unit axis before the coordinates, (P, 1, n),
every product runs once per point on one-point shapes, so a batch gives what
P one-point calls give, bit for bit; (P, n) would make ``u @ M`` one gemm.

* "analytic": ``fn`` is called once on one array-valued second-order Taylor
  number (``Jet2``) seeded with all the points, so its derivatives are exact
  to rounding.  Without second partials the seed is first order, a ``Jet2``
  whose Hessian ``h`` is None, so ``fn`` reads derivatives only through the
  operators, never through ``.g`` or ``.h``.
* "fd2" / "fd4": central finite-difference stencils of order two and four,
  with optional Richardson extrapolation.  ``fn`` is called once per stencil
  level on the stencils of all the points as one batch; second derivatives
  use direct two-dimensional stencils, nothing is differenced twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .tensor import NumericError

SCHEMES = ("analytic", "fd2", "fd4")

MIN_STEP = 1e-7
MAX_STEP = 1e-2
DEFAULT_STEP = 1e-4


class DomainError(ValueError):
    """A point (or a finite-difference stencil around it) left the chart domain."""


@dataclass(frozen=True)
class DiffConfig:
    """A derivative scheme; step and richardson shape finite-difference
    stencils only, so the analytic scheme rejects any but their defaults."""

    scheme: str = "analytic"
    step: float = DEFAULT_STEP
    richardson: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not MIN_STEP <= self.step <= MAX_STEP:
            raise ValueError(
                f"step {self.step:g} outside [{MIN_STEP:g}, {MAX_STEP:g}]"
            )
        if self.scheme == "analytic" and self.richardson:
            raise ValueError(
                "richardson extrapolates finite differences; the analytic scheme takes none"
            )
        if self.scheme == "analytic" and self.step != DEFAULT_STEP:
            raise ValueError(
                f"step {self.step:g} sizes finite-difference stencils; "
                "the analytic scheme takes none"
            )


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetrised outer product of two gradients: a b^T + b a^T."""
    c = a[..., :, None] * b[..., None, :]
    return c + np.swapaxes(c, -1, -2)


class Jet2:
    """Array-valued second-order Taylor number in n variables.

    ``val`` has the value shape S, the gradient ``g`` shape S + (n,) and the
    symmetric Hessian ``h`` shape S + (n, n): derivative axes trail, so numpy
    broadcasting lines up the value axes.  A first-order jet has ``h`` None,
    and every operation on it gives a first-order jet.
    """

    __slots__ = ("val", "g", "h")
    __array_ufunc__ = None  # `ndarray op Jet2` dispatches to the jet

    def __init__(self, val, g: np.ndarray, h: np.ndarray | None):
        self.val = np.asarray(val)
        self.g = g
        self.h = h

    @property
    def shape(self) -> tuple[int, ...]:
        return self.val.shape

    def _spread(self, shape) -> tuple[np.ndarray, np.ndarray | None]:
        """Gradient and Hessian broadcast to the value shape `shape`."""
        if shape == self.val.shape:
            return self.g, self.h
        n = self.g.shape[-1]
        h = None if self.h is None else np.broadcast_to(self.h, shape + (n, n))
        return np.broadcast_to(self.g, shape + (n,)), h

    def __add__(self, other):
        if isinstance(other, Jet2):
            h = None if self.h is None or other.h is None else self.h + other.h
            return Jet2(self.val + other.val, self.g + other.g, h)
        val = self.val + other
        return Jet2(val, *self._spread(np.shape(val)))

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.g, None if self.h is None else -self.h)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            c = np.asarray(other)
            h = None if self.h is None else self.h * c[..., None, None]
            return Jet2(self.val * c, self.g * c[..., None], h)
        o = other
        h = None if self.h is None or o.h is None else (
            self.h * o.val[..., None, None]
            + _cross(self.g, o.g)
            + self.val[..., None, None] * o.h
        )
        return Jet2(self.val * o.val, self.g * o.val[..., None] + self.val[..., None] * o.g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            c = np.asarray(other)
            h = None if self.h is None else self.h / c[..., None, None]
            return Jet2(self.val / c, self.g / c[..., None], h)
        o = other
        val = self.val / o.val
        g = (self.g - val[..., None] * o.g) / o.val[..., None]
        h = None if self.h is None or o.h is None else (
            (self.h - _cross(g, o.g) - val[..., None, None] * o.h) / o.val[..., None, None]
        )
        return Jet2(val, g, h)

    def __rtruediv__(self, other):
        c = np.asarray(other, dtype=np.float64)
        n = self.g.shape[-1]
        h = None if self.h is None else np.zeros(c.shape + (n, n))
        return Jet2(c, np.zeros(c.shape + (n,)), h) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Jet2 powers are non-negative integers")
        h = None if self.h is None else np.zeros_like(self.h)
        out = Jet2(np.ones(self.shape), np.zeros_like(self.g), h)
        for _ in range(exponent):
            out = out * self
        return out

    def __matmul__(self, m):
        """Contract the last value axis with a constant vector or matrix."""
        m = np.asarray(m)
        if m.ndim not in (1, 2):
            raise ValueError("a Jet2 contracts with a constant vector or matrix only")
        g = np.swapaxes(self.g, -1, -2) @ m
        h = None if self.h is None else np.moveaxis(self.h, -3, -1) @ m
        if m.ndim == 2:
            g = np.swapaxes(g, -1, -2)
            h = None if h is None else np.moveaxis(h, -1, -3)
        return Jet2(self.val @ m, g, h)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        every = slice(None)
        h = None if self.h is None else self.h[key + (every, every)]
        return Jet2(self.val[key], self.g[key + (every,)], h)

    def reshape(self, shape):
        shape = tuple(shape)
        n = self.g.shape[-1]
        h = None if self.h is None else self.h.reshape(shape + (n, n))
        return Jet2(self.val.reshape(shape), self.g.reshape(shape + (n,)), h)

    def sum(self, axis: int):
        axis %= self.val.ndim
        h = None if self.h is None else self.h.sum(axis)
        return Jet2(self.val.sum(axis), self.g.sum(axis), h)


def jet_exp(x):
    if isinstance(x, Jet2):
        e = np.exp(x.val)
        if x.h is None:
            return Jet2(e, e[..., None] * x.g, None)
        gg = x.g[..., :, None] * x.g[..., None, :]
        return Jet2(e, e[..., None] * x.g, e[..., None, None] * (x.h + gg))
    return np.exp(x)


FieldFn = Callable[[Any], Any]


def eval_components(
    fn: FieldFn, coords: np.ndarray, shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Field values at float coordinates: one point of shape (n,) or points
    with leading axes.  `shape`, the field's own shape, lets a constant field
    return its constant array; it is broadcast over the leading axes."""
    arr = np.array(fn(coords), dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericError("non-finite field value")
    if shape is not None:
        arr = np.broadcast_to(arr, coords.shape[:-1] + shape)
    return arr


def eval_jets(
    fn: FieldFn, point: np.ndarray, second: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Call `fn` once on a Taylor seed at the points; returns (value, d1, d2)
    with the derivative directions after the point axes:
    d1[..., a, i] = d_a(component i)."""
    n, lead, at = point.shape[-1], point.shape[:-1], point.ndim - 1
    seed = np.broadcast_to(np.eye(n), point.shape + (n,)).copy()
    out = fn(Jet2(point.copy(), seed, np.zeros(point.shape + (n, n)) if second else None))
    if isinstance(out, Jet2):
        val, g, h = np.asarray(out.val, dtype=np.float64), out.g, out.h
    else:  # a constant field
        val = np.broadcast_to(np.asarray(out, dtype=np.float64), lead + np.shape(out))
        g, h = np.zeros(val.shape + (n,)), np.zeros(val.shape + (n, n)) if second else None
    if not all(np.isfinite(x).all() for x in (val, g, h) if x is not None):
        raise NumericError("non-finite field value")
    d1 = np.ascontiguousarray(np.moveaxis(g, -1, at))
    d2 = np.ascontiguousarray(np.moveaxis(h, (-2, -1), (at, at + 1))) if second else None
    return np.array(val), d1, d2


# Central stencils: offset -> coefficient, to be scaled by 1/step**order.
_D1_STENCILS = {
    "fd2": ((-1, -0.5), (1, 0.5)),
    "fd4": ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12)),
}
_D2_PURE_STENCILS = {
    "fd2": ((-1, 1.0), (0, -2.0), (1, 1.0)),
    "fd4": ((-2, -1.0 / 12), (-1, 16.0 / 12), (0, -30.0 / 12), (1, 16.0 / 12), (2, -1.0 / 12)),
}


def _stencil(n: int, terms) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, coefficients) of a stencil given as (slots, offset, coefficient)
    terms: offsets is (m, n) in units of the step, one row per distinct
    offset in order of first use; coefficients is (n,) * len(slots) + (m,)."""
    rows: dict[tuple[int, ...], int] = {}
    entries = []
    for slots, offset, c in terms:
        entries.append((slots, rows.setdefault(offset, len(rows)), c))
    coef = np.zeros((n,) * len(entries[0][0]) + (len(rows),))
    for slots, row, c in entries:
        coef[slots + (row,)] = c
    offsets = np.array(list(rows), dtype=np.float64)
    offsets.flags.writeable = coef.flags.writeable = False  # shared through the cache
    return offsets, coef


def _offset(n: int, *moves: tuple[int, int]) -> tuple[int, ...]:
    """Unit offset with entry k on axis i for each (i, k) in `moves`."""
    e = [0] * n
    for i, k in moves:
        e[i] = k
    return tuple(e)


@lru_cache(maxsize=None)
def _d1_stencil(n: int, scheme: str):
    return _stencil(
        n,
        (((i,), _offset(n, (i, k)), c) for i in range(n) for k, c in _D1_STENCILS[scheme]),
    )


@lru_cache(maxsize=None)
def _d2_stencil(n: int, scheme: str):
    cross = _D1_STENCILS[scheme]

    def terms():
        for i in range(n):
            for k, c in _D2_PURE_STENCILS[scheme]:
                yield (i, i), _offset(n, (i, k)), c
        # mixed partials: tensor product of two first-derivative stencils
        for i in range(n):
            for j in range(i + 1, n):
                for ki, ci in cross:
                    for kj, cj in cross:
                        offset = _offset(n, (i, ki), (j, kj))
                        yield (i, j), offset, ci * cj
                        yield (j, i), offset, ci * cj

    return _stencil(n, terms())


def _check_domain(
    points: np.ndarray, domain: Callable[[np.ndarray], Any] | None, message: str
) -> None:
    """DomainError naming the first point outside `domain`, in batch order."""
    if domain is None:
        return
    inside = np.asarray(domain(points), dtype=bool)
    if not inside.all():
        q = points.reshape(-1, points.shape[-1])[int(np.argmin(inside))]
        raise DomainError(message.format(q.tolist()))


def _fd_level(stencil, order, fn, point, val, step, scheme, domain) -> np.ndarray:
    """One stencil level: the stencils of all points sampled in one batch,
    the samples contracted with the stencil coefficients by one matmul per
    point.  The coefficients of each slot sum to zero, so the samples are
    centred on ``val``, the value at ``point``: on a constant field
    sum c_k (f_k - f_0) is exactly zero, where sum c_k f_k leaves rounding of
    about eps |f| / step^order."""
    offsets, coef = stencil(point.shape[-1], scheme)
    lead, m = point.shape[:-1], len(offsets)
    points = point[..., None, :] + offsets * step
    _check_domain(points, domain, "finite-difference stencil leaves the chart domain at {}")
    shape = val.shape[len(lead):]
    samples = eval_components(fn, points, shape) - np.expand_dims(val, len(lead))
    d = coef.reshape(-1, m) @ samples.reshape(lead + (m, -1))
    return d.reshape(lead + coef.shape[:-1] + shape) / (step if order == 1 else step * step)


def _richardson(coarse: np.ndarray, fine: np.ndarray, scheme: str) -> np.ndarray:
    # error orders: fd2 ~ h^2, fd4 ~ h^4
    factor = 4.0 if scheme == "fd2" else 16.0
    return (factor * fine - coarse) / (factor - 1.0)


def _fd(stencil, order, fn, point, val, cfg: DiffConfig, domain) -> np.ndarray:
    d = _fd_level(stencil, order, fn, point, val, cfg.step, cfg.scheme, domain)
    if cfg.richardson:
        d_half = _fd_level(stencil, order, fn, point, val, cfg.step / 2, cfg.scheme, domain)
        d = _richardson(d, d_half, cfg.scheme)
    return d


def field_jets(
    fn: FieldFn,
    point: np.ndarray,
    cfg: DiffConfig,
    domain=None,
    second: bool = False,
    shape: tuple[int, ...] | None = None,
):
    """(value, d1[, d2]) of a field under the configured scheme, at one point
    or a batch; `shape`, the field's own, broadcasts a constant field."""
    point = np.asarray(point, dtype=np.float64)
    _check_domain(point, domain, "point {} outside the chart domain")
    if cfg.scheme == "analytic":
        val, d1, d2 = eval_jets(fn, point, second)
    else:
        val = np.array(eval_components(fn, point, shape))
        d1 = _fd(_d1_stencil, 1, fn, point, val, cfg, domain)
        d2 = _fd(_d2_stencil, 2, fn, point, val, cfg, domain) if second else None
    if second:
        return val, d1, d2
    return val, d1
