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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .diff import DiffConfig, DomainError, eval_components, field_jets, jet_exp
from .tensor import MAX_DIM, Tensor

__all__ = [
    "Chart",
    "TensorField",
    "ManifoldSpec",
    "GeneratorField",
    "DiffConfig",
    "DomainError",
    "flat_complex",
    "fubini_study",
    "complex_hyperbolic",
    "conformal_nonkahler",
    "manifold_names",
    "manifold_by_name",
    "generator",
    "generator_names",
    "sample_points",
]

HYPERBOLIC_MARGIN = 1e-6


@dataclass(frozen=True)
class Chart:
    """A coordinate domain: even dimension and a membership predicate that
    answers for each row of a batch of points."""

    dim: int
    label: str
    contains: Callable[[np.ndarray], Any]

    def __post_init__(self) -> None:
        if self.dim % 2 != 0 or not 2 <= self.dim <= MAX_DIM:
            raise ValueError(f"chart dimension must be even and in [2, {MAX_DIM}], got {self.dim}")

    def require(self, point: np.ndarray) -> None:
        if not self.contains(point):
            raise DomainError(f"point {point.tolist()} outside chart {self.label}")


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
    domain: Callable[[np.ndarray], Any] | None = None
    label: str = ""

    def value(self, point) -> Tensor:
        point = as_point(point)
        comps = eval_components(self.fn, point)
        return Tensor(point.shape[-1], self.signature, comps)

    def jets(self, point, cfg: DiffConfig, second: bool = False):
        """Components plus derivative stacks at one point (n,) or at points
        with leading axes, the derivative directions after those axes; a
        constant field is broadcast over the points."""
        point = as_point(point)
        shape = point.shape[-1:] * len(self.signature)
        return field_jets(self.fn, point, cfg, self.domain, second, shape)


@dataclass(frozen=True)
class ManifoldSpec:
    label: str
    chart: Chart
    metric_field: TensorField
    structure_field: TensorField
    kahler_expected: bool = True
    sample_radius: float = 0.5

    @property
    def n(self) -> int:
        return self.chart.dim

    def metric(self, point) -> Tensor:
        return self.metric_field.value(point)

    def structure(self, point) -> Tensor:
        return self.structure_field.value(point)

    def fundamental(self, point) -> Tensor:
        """F(X, Y) = g(AX, Y), the skew form of the pair (g, A)."""
        a = self.structure(point).components
        return Tensor(self.n, "dd", a.T @ self.metric(point).components)

    def metric_jets(self, point, cfg: DiffConfig):
        """(g, dg, d2g) with dg[a,i,j] = (d_a g)_ij, d2g[a,b,i,j] = d_a d_b g_ij."""
        return self.metric_field.jets(point, cfg, second=True)

    def structure_jets(self, point, cfg: DiffConfig):
        """(A, dA) with dA[a,i,j] = d_a A^i_j."""
        return self.structure_field.jets(point, cfg, second=False)


@dataclass(frozen=True)
class GeneratorField:
    """A one-form pi on the chart; the torsion of the connection is built from it."""

    label: str
    field: TensorField

    def pi(self, point) -> Tensor:
        return self.field.value(point)

    def jets(self, point, cfg: DiffConfig):
        """(pi, dpi) with dpi[a,j] = d_a pi_j."""
        return self.field.jets(point, cfg, second=False)


def _standard_matrix(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for pair in range(n // 2):
        x, y = 2 * pair, 2 * pair + 1
        a[y, x] = 1.0   # A @ dx = dy
        a[x, y] = -1.0  # A @ dy = -dx
    return a


def _standard_structure(n: int):
    a = _standard_matrix(n)
    return lambda u: a


def _everywhere(points: np.ndarray) -> np.ndarray:
    return np.isfinite(points).all(axis=-1)


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
    chart = Chart(n, f"flat_complex({k})", _everywhere)
    return ManifoldSpec(
        label=f"flat_complex({k})",
        chart=chart,
        metric_field=TensorField("dd", lambda u: eye, label="g"),
        structure_field=TensorField("ud", _standard_structure(n), label="A"),
    )


def fubini_study(k: int = 2) -> ManifoldSpec:
    """Affine chart of the Fubini-Study metric, potential ln(1 + |z|^2)."""
    n = _check_pairs(k)

    def c_fn(s):
        c1 = 1 / (1 + s)
        return c1, -(c1 * c1)

    chart = Chart(n, f"fubini_study({k})", _everywhere)
    return ManifoldSpec(
        label=f"fubini_study({k})",
        chart=chart,
        metric_field=TensorField("dd", _hermitian_pair_metric(k, c_fn), label="g"),
        structure_field=TensorField("ud", _standard_structure(n), label="A"),
    )


def complex_hyperbolic(k: int = 2) -> ManifoldSpec:
    """Unit-ball chart of the complex hyperbolic metric, potential -ln(1 - |z|^2)."""
    n = _check_pairs(k)

    def c_fn(s):
        c1 = 1 / (1 - s)
        return c1, c1 * c1

    def inside(points: np.ndarray) -> np.ndarray:
        return _everywhere(points) & ((points * points).sum(-1) < 1.0 - HYPERBOLIC_MARGIN)

    chart = Chart(n, f"complex_hyperbolic({k})", inside)
    return ManifoldSpec(
        label=f"complex_hyperbolic({k})",
        chart=chart,
        metric_field=TensorField("dd", _hermitian_pair_metric(k, c_fn), domain=inside, label="g"),
        structure_field=TensorField("ud", _standard_structure(n), label="A"),
        sample_radius=0.4,
    )


def conformal_nonkahler(k: int = 2) -> ManifoldSpec:
    """g = exp(2 x1) * identity on R^4: almost Hermitian, A not parallel.

    The chart exists for k = 2 only; any other k is rejected, not ignored.
    """
    if k != 2:
        raise ValueError(
            f"conformal_nonkahler is defined for k = 2 (n = 4) only, got k = {k}"
        )
    n = 4
    eye = np.eye(n)

    def fn(u):
        return jet_exp(2 * u[..., 0])[..., None, None] * eye

    chart = Chart(n, "conformal_nonkahler", _everywhere)
    return ManifoldSpec(
        label="conformal_nonkahler",
        chart=chart,
        metric_field=TensorField("dd", fn, label="g"),
        structure_field=TensorField("ud", _standard_structure(n), label="A"),
        kahler_expected=False,
    )


_MANIFOLDS = {
    "flat": flat_complex,
    "fs": fubini_study,
    "hyperbolic": complex_hyperbolic,
    "conformal-nonkahler": conformal_nonkahler,
}


def manifold_names() -> list[str]:
    return list(_MANIFOLDS)


def manifold_by_name(name: str, k: int = 2) -> ManifoldSpec:
    if name not in _MANIFOLDS:
        raise ValueError(
            f"unknown manifold {name!r}; choose from {', '.join(_MANIFOLDS)}"
        )
    return _MANIFOLDS[name](k)


def _check_pairs(k: int) -> int:
    if not 1 <= k <= MAX_DIM // 2:
        raise ValueError(
            f"complex dimension k must be in [1, {MAX_DIM // 2}] (n = 2k <= {MAX_DIM}), got {k}"
        )
    return 2 * k


# -- generator catalog -------------------------------------------------------

def _linear_j_fn(u):
    # pi = sum_a (x_a dy_a - y_a dx_a) = -(u @ A): pi_{2a} = -y_a, pi_{2a+1} = x_a
    return -(u @ _standard_matrix(u.shape[-1]))


def _grad_fn(u):
    # pi = d(x1^2 + y1^2) = u @ diag(2, 2, 0, ..., 0)
    scale = np.zeros(u.shape[-1])
    scale[:2] = 2.0
    return u @ np.diag(scale)


def generator(
    label: str,
    dim: int | None = None,
    components: Sequence[float] | None = None,
    seed: int = 0,
) -> GeneratorField:
    """Build a catalog one-form.

    Labels: ``zero``, ``const`` (takes ``components``), ``linear_j`` (the
    rotation form sum x_a dy_a - y_a dx_a), ``grad`` (differential of
    x1^2 + y1^2) and ``random_poly`` (seeded polynomial components of degree
    at most two, coefficients uniform in [-1, 1]; takes ``dim`` and ``seed``).
    """
    if label == "zero":
        fn = lambda u: np.zeros(u.shape[-1])
        name = "zero"
    elif label == "const":
        if components is None:
            raise ValueError("const generator needs `components`")
        comps = np.array([float(c) for c in components])
        fn = lambda u: _require_len(comps, u.shape[-1])
        name = "const"
    elif label == "linear_j":
        fn = _linear_j_fn
        name = "linear_j"
    elif label == "grad":
        fn = _grad_fn
        name = "grad"
    elif label == "random_poly":
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

        name = f"random_poly:{seed}"
    else:
        raise ValueError(
            f"unknown generator {label!r}; choose from {', '.join(generator_names())}"
        )
    return GeneratorField(name, TensorField("d", fn, label=name))


def generator_names() -> list[str]:
    return ["zero", "const", "linear_j", "grad", "random_poly"]


def _require_len(comps: np.ndarray, n: int) -> np.ndarray:
    if len(comps) != n:
        raise ValueError(f"const generator has {len(comps)} components, chart needs {n}")
    return comps


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
        m.chart.require(points[row])
    return points

