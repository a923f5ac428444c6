"""Explicit Kahler (and deliberately non-Kahler) manifolds in coordinate charts.

The catalog is small and concrete.  Every chart is even-dimensional with real
coordinates ordered (x1, y1, ..., xk, yk) and carries the standard complex
structure A dx_a = dy_a, A dy_a = -dx_a:

* ``flat_complex(k)``        g = identity, curvature zero.
* ``fubini_study(k)``        metric of the potential ln(1 + |z|^2), entire chart.
* ``complex_hyperbolic(k)``  metric of the potential -ln(1 - |z|^2), open unit ball.
* ``conformal_nonkahler(2)`` g = exp(2 x1) * identity on R^4, k = 2 only: almost
  Hermitian but with nonparallel A, the negative control for every Kahler-only
  theorem.

Every field is one numpy-style function of ``u``, whose last axis holds the
coordinates: it indexes them as ``u[..., i]``, contracts them as ``u @ M``
(never ``M @ u``) and returns an array of the field's shape.  The same
function serves the stencils of a batch of points (``u`` of shape
(P, 1, m, n)) and the analytic backend (``u`` one array-valued Taylor number
seeded with all the points); see ``diff``.  Domain predicates likewise take
points with leading axes and answer per point.

A field is read as arrays only: ``TensorField.jets`` gives its components
with their partials, ``TensorField.value`` its components alone.  A
manifold is its chart plus the metric and structure fields, all in one
record, ``ManifoldSpec``: its label, its dimension n, its domain predicate
``contains``, the fields, and what the suite expects of it.  ``_chart``
builds one from the metric's function, with the standard structure; the
metric's jets take ``contains``, so a point or a stencil point outside the
chart is a ``DomainError``.  A generator one-form is a one-slot field
labelled with its catalog name.

Each catalog is one table, the only place its names are written:
``MANIFOLDS`` maps a chart name to its builder and its ``qsc-lab list``
line, ``GENERATORS`` a generator name to its builder, its spec argument and
its line.  ``parse_generator_spec`` reads a spec, ``NAME`` or
``const:v1,...,vn`` or ``random_poly:SEED``; ``lookup`` raises the one
``ConfigError`` for an unknown name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .diff import DiffConfig, _check_domain, eval_components, field_jets, jet_exp
from .tensor import MAX_DIM, ConfigError

__all__ = [
    "TensorField",
    "ManifoldSpec",
    "flat_complex",
    "fubini_study",
    "complex_hyperbolic",
    "conformal_nonkahler",
    "MANIFOLDS",
    "GENERATORS",
    "lookup",
    "manifold_by_name",
    "generator",
    "parse_generator_spec",
    "sample_points",
]

HYPERBOLIC_MARGIN = 1e-6


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Float coordinates of one point (n,) or of points with leading axes."""
    p = np.atleast_1d(np.asarray(coords, dtype=np.float64))
    if dim is not None and p.shape[-1] != dim:
        raise ValueError(f"point has {p.shape[-1]} coordinates, chart needs {dim}")
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite point coordinates")
    return p


@dataclass(frozen=True)
class TensorField:
    """A tensor-valued function of the chart coordinates.

    ``fn`` maps coordinates ``u`` (last axis the n coordinates) to an array
    of the field's shape, in numpy style: ``u[..., i]`` and ``u @ M`` only.
    The analytic backend calls it on one Taylor number, the
    finite-difference backends on a batch of stencil points.
    """

    signature: str  # one "u" or "d" per slot
    fn: Callable[[Any], Any]
    label: str = ""

    def value(self, point) -> np.ndarray:
        """Components at one point (n,) or at points with leading axes,
        without derivatives, so no stencil point can leave the chart."""
        return eval_components(self.fn, as_point(point))

    def jets(self, point, cfg: DiffConfig, second: bool = False, domain=None):
        """Components plus derivative stacks at one point (n,) or at points
        with leading axes, the derivative directions after those axes; a
        constant field is broadcast over the points.  With a `domain`
        predicate, a point or a stencil point outside it is a DomainError."""
        point = as_point(point)
        shape = point.shape[-1:] * len(self.signature)
        return field_jets(self.fn, point, cfg, domain, second, shape)


@dataclass(frozen=True)
class ManifoldSpec:
    """A chart: its label, its even dimension n, a membership predicate that
    answers for each row of a batch of points, and the metric and structure
    fields on it."""

    label: str
    n: int
    contains: Callable[[np.ndarray], Any]
    metric_field: TensorField
    structure_field: TensorField
    kahler_expected: bool = True
    sample_radius: float = 0.5

    def __post_init__(self) -> None:
        if self.n % 2 != 0 or not 2 <= self.n <= MAX_DIM:
            raise ValueError(f"chart dimension must be even and in [2, {MAX_DIM}], got {self.n}")

    def require(self, point: np.ndarray) -> None:
        """DomainError naming the point (n,), or the first row of a batch
        (P, n), outside the chart."""
        _check_domain(np.asarray(point), self.contains, f"point {{}} outside chart {self.label}")


def _standard_matrix(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for pair in range(n // 2):
        x, y = 2 * pair, 2 * pair + 1
        a[y, x] = 1.0   # A @ dx = dy
        a[x, y] = -1.0  # A @ dy = -dx
    return a


def _everywhere(points: np.ndarray) -> np.ndarray:
    return np.isfinite(points).all(axis=-1)


def _chart(label: str, n: int, metric_fn, contains=_everywhere, **kw) -> ManifoldSpec:
    """The chart `label` of dimension n with the metric of `metric_fn`,
    labelled "g", and the standard structure, labelled "A"; `kw` sets the
    other fields of ``ManifoldSpec``."""
    a = _standard_matrix(n)
    return ManifoldSpec(
        label, n, contains, TensorField("dd", metric_fn, label="g"),
        TensorField("ud", lambda u: a, label="A"), **kw
    )


def _hermitian_pair_metric(k: int, c_fn: Callable[[Any], tuple[Any, Any]]):
    """Real metric 2[c1(s) I + c2(s)(u u^T + Ju (Ju)^T)], s = |u|^2, of the
    U(k)-invariant Hermitian form c1*delta + c2*zbar z^T."""
    n = 2 * k
    eye, a = np.eye(n), _standard_matrix(n)

    def fn(u):
        c1, c2 = c_fn((u * u).sum(-1))
        ju = u @ a  # (Ju)_a = (y_a, -x_a): its sign drops out of Ju (Ju)^T
        pairs = u[..., :, None] * u[..., None, :] + ju[..., :, None] * ju[..., None, :]
        return 2 * (c2[..., None, None] * pairs + c1[..., None, None] * eye)

    return fn


def flat_complex(k: int = 2) -> ManifoldSpec:
    """Flat chart: identity metric, standard structure, zero curvature."""
    n = _check_pairs(k)
    eye = np.eye(n)
    return _chart(f"flat_complex({k})", n, lambda u: eye)


def fubini_study(k: int = 2) -> ManifoldSpec:
    """Affine chart of the Fubini-Study metric, potential ln(1 + |z|^2)."""
    n = _check_pairs(k)

    def c_fn(s):
        c1 = 1 / (1 + s)
        return c1, -(c1 * c1)

    return _chart(f"fubini_study({k})", n, _hermitian_pair_metric(k, c_fn))


def complex_hyperbolic(k: int = 2) -> ManifoldSpec:
    """Unit-ball chart of the complex hyperbolic metric, potential -ln(1 - |z|^2)."""
    n = _check_pairs(k)

    def c_fn(s):
        c1 = 1 / (1 - s)
        return c1, c1 * c1

    def inside(points: np.ndarray) -> np.ndarray:
        return _everywhere(points) & ((points * points).sum(-1) < 1.0 - HYPERBOLIC_MARGIN)

    metric = _hermitian_pair_metric(k, c_fn)
    return _chart(f"complex_hyperbolic({k})", n, metric, inside, sample_radius=0.4)


def conformal_nonkahler(k: int = 2) -> ManifoldSpec:
    """g = exp(2 x1) * identity on R^4: almost Hermitian, A not parallel.

    The chart exists for k = 2 only; any other k is rejected, not ignored.
    """
    if k != 2:
        raise ConfigError(
            f"conformal_nonkahler is defined for k = 2 (n = 4) only, got k = {k}"
        )
    eye = np.eye(4)

    def fn(u):
        return jet_exp(2 * u[..., 0])[..., None, None] * eye

    return _chart("conformal_nonkahler", 4, fn, kahler_expected=False)


# name -> (builder of the chart at complex dimension k, the line that
# `qsc-lab list manifolds` prints)
MANIFOLDS = {
    "flat": (flat_complex, "flat complex space, zero curvature baseline"),
    "fs": (fubini_study, "Fubini-Study type metric, positive holomorphic curvature"),
    "hyperbolic": (complex_hyperbolic, "complex hyperbolic ball, negative holomorphic curvature"),
    "conformal-nonkahler": (
        conformal_nonkahler, "conformally flat Hermitian counterexample, not parallel"
    ),
}


def lookup(table: dict, kind: str, name: str):
    """The entry of `name` in a catalog table; an unknown name is a
    ``ConfigError`` that names the table's options."""
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}; options: {', '.join(table)}")
    return table[name]


def manifold_by_name(name: str, k: int = 2) -> ManifoldSpec:
    return lookup(MANIFOLDS, "manifold", name)[0](k)


def _check_pairs(k: int) -> int:
    if not 1 <= k <= MAX_DIM // 2:
        raise ConfigError(
            f"complex dimension k must be in [1, {MAX_DIM // 2}] (n = 2k <= {MAX_DIM}), got {k}"
        )
    return 2 * k


# -- generator catalog -------------------------------------------------------

def _zero(dim, components, seed):
    return lambda u: np.zeros(u.shape[-1])


def _const(dim, components, seed):
    if components is None:
        raise ValueError("const generator needs `components`")
    comps = np.array([float(c) for c in components])

    def fn(u):
        n = u.shape[-1]
        if len(comps) != n:
            raise ValueError(f"const generator has {len(comps)} components, chart needs {n}")
        return comps

    return fn


def _linear_j(dim, components, seed):
    # pi = sum_a (x_a dy_a - y_a dx_a) = -(u @ A): pi_{2a} = -y_a, pi_{2a+1} = x_a
    return lambda u: -(u @ _standard_matrix(u.shape[-1]))


def _grad(dim, components, seed):
    # pi = d(x1^2 + y1^2) = u @ diag(2, 2, 0, ..., 0)
    return lambda u: u @ np.diag(np.r_[2.0, 2.0, np.zeros(u.shape[-1] - 2)])


def _random_poly(dim, components, seed):
    """Components of degree at most two, coefficients uniform in [-1, 1]."""
    if dim is None:
        raise ValueError("random_poly generator needs `dim`")
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(-1.0, 1.0, size=dim)
    c1 = rng.uniform(-1.0, 1.0, size=(dim, dim))
    c2 = rng.uniform(-1.0, 1.0, size=(dim, dim, dim))
    c2 = 0.5 * (c2 + np.transpose(c2, (0, 2, 1)))  # only the symmetric part acts
    # pi_j = c0_j + c1_ji u_i + c2_jil u_i u_l; rows of c2 flattened over (j, i)
    c2_rows = c2.reshape(dim * dim, dim).T

    def fn(u):
        m = u.shape[-1]
        if m != dim:
            raise ValueError(f"random_poly built for dim {dim}, point has {m}")
        c2u = (u @ c2_rows).reshape(u.shape[:-1] + (dim, dim))  # [..., j, i] = c2_jil u_l
        return c0 + u @ c1.T + (c2u * u[..., None, :]).sum(-1)

    return fn


# name -> (builder of pi's components from the keywords of `generator`, what
# the argument after ":" in a spec gives: None, "components" or "seed", the
# line that `qsc-lab list generators` prints)
GENERATORS = {
    "zero": (_zero, None, "identically zero one-form"),
    "const": (_const, "components", "constant components, const:v1,...,vn"),
    "linear_j": (_linear_j, None, "rotational linear form, x_a dy_a - y_a dx_a summed over pairs"),
    "grad": (_grad, None, "differential of |z_1|^2"),
    "random_poly": (
        _random_poly, "seed", "seeded random polynomial of degree two, random_poly:SEED"
    ),
}


def generator(
    label: str,
    dim: int | None = None,
    components: Sequence[float] | None = None,
    seed: int = 0,
) -> TensorField:
    """Build the one-form pi of ``GENERATORS[label]``, a "d" field labelled
    with its name (and its seed, if it takes one); the torsion of the
    connection is built from it.  ``const`` takes ``components``,
    ``random_poly`` takes ``dim`` and ``seed``."""
    build, arg, _ = lookup(GENERATORS, "generator", label)
    name = f"{label}:{seed}" if arg == "seed" else label
    return TensorField("d", build(dim, components, seed), label=name)


def parse_generator_spec(spec: str, dim: int) -> TensorField:
    """Build a generator field from its spec: ``NAME``, or ``NAME:ARG`` for a
    generator that takes an argument, ``const:v1,...,vn`` (exactly `dim`
    finite components) or ``random_poly:SEED`` (a non-negative integer, 0 if
    left out)."""
    name, _, text = spec.partition(":")
    _, arg, _ = lookup(GENERATORS, "generator", name)
    if arg == "components":
        if not text:
            raise ConfigError(f"{name} generator needs components, e.g. {name}:1,0,0,0")
        try:
            comps = [float(v) for v in text.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad {name} components {text!r}") from exc
        if not all(math.isfinite(c) for c in comps):
            raise ConfigError(f"bad {name} components {text!r}: expected finite numbers")
        if len(comps) != dim:
            raise ConfigError(f"{name} generator needs {dim} components, got {len(comps)}")
        return generator(name, dim=dim, components=comps)
    if arg == "seed":
        try:
            seed = int(text) if text else 0
        except ValueError:
            seed = -1
        if seed < 0:
            raise ConfigError(f"bad {name} seed {text!r}: expected a non-negative integer")
        return generator(name, dim=dim, seed=seed)
    if text:
        raise ConfigError(f"generator {name!r} takes no argument")
    return generator(name, dim=dim)


def sample_points(m: ManifoldSpec, count: int, seed: int) -> np.ndarray:
    """Deterministic points, uniform in the ball of the chart's sample radius."""
    rng = np.random.default_rng(seed)
    n = m.n
    points = np.empty((count, n))
    for row in range(count):
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        r = m.sample_radius * rng.uniform() ** (1.0 / n)
        points[row] = r * v
    m.require(points)
    return points

