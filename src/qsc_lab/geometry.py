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

Component functions are written in plain arithmetic so that the analytic
(Taylor-number) differentiation backend applies to them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .diff import DiffConfig, DomainError, eval_components, field_jets, jet_exp, partial
from .tensor import Signature, Tensor, lower_first, norm_max

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
    "check_almost_hermitian",
    "partial",
]

HYPERBOLIC_MARGIN = 1e-6


@dataclass(frozen=True)
class Chart:
    """A coordinate domain: even dimension and a membership predicate."""

    dim: int
    label: str
    contains: Callable[[np.ndarray], bool]

    def __post_init__(self) -> None:
        if self.dim % 2 != 0 or not 2 <= self.dim <= 16:
            raise ValueError(f"chart dimension must be even and in [2, 16], got {self.dim}")

    def require(self, point: np.ndarray) -> None:
        if not self.contains(point):
            raise DomainError(f"point {point.tolist()} outside chart {self.label}")


def as_point(coords, dim: int | None = None) -> np.ndarray:
    p = np.asarray(coords, dtype=np.float64).reshape(-1)
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"point has {p.shape[0]} coordinates, chart needs {dim}")
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite point coordinates")
    return p


@dataclass(frozen=True)
class TensorField:
    """A tensor-valued function of the chart coordinates.

    ``fn`` maps a coordinate sequence to nested lists of scalars and must be
    written in arithmetic the Taylor-number backend understands; the same
    function is sampled by the finite-difference backends.
    """

    signature: Signature
    fn: Callable[[Sequence[Any]], Any]
    domain: Callable[[np.ndarray], bool] | None = None
    label: str = ""

    def value(self, point) -> Tensor:
        point = as_point(point)
        comps = eval_components(self.fn, point)
        return Tensor(point.shape[0], self.signature, comps)

    def jets(self, point, cfg: DiffConfig, second: bool = False):
        """Components plus derivative stacks, derivative directions leading."""
        point = as_point(point)
        return field_jets(self.fn, point, cfg, domain=self.domain, second=second)


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
        return lower_first(self.structure(point), self.metric(point))

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


def _standard_structure(n: int):
    a = np.zeros((n, n))
    for pair in range(n // 2):
        x, y = 2 * pair, 2 * pair + 1
        a[y, x] = 1.0   # A @ dx = dy
        a[x, y] = -1.0  # A @ dy = -dx
    rows = a.tolist()

    def fn(u):
        return rows

    return fn


def _everywhere(point: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(point)))


def _hermitian_pair_metric(k: int, c_fn: Callable[[Any], tuple[Any, Any]]):
    """Real metric of a U(k)-invariant Hermitian form c1*delta + c2*zbar z^T."""
    n = 2 * k

    def fn(u):
        s = u[0] * u[0]
        for i in range(1, n):
            s = s + u[i] * u[i]
        c1, c2 = c_fn(s)
        g = [[0.0] * n for _ in range(n)]
        for a in range(k):
            xa, ya = u[2 * a], u[2 * a + 1]
            for b in range(k):
                xb, yb = u[2 * b], u[2 * b + 1]
                sym = c2 * (xa * xb + ya * yb)
                if a == b:
                    sym = sym + c1
                skew = c2 * (xa * yb - ya * xb)
                g[2 * a][2 * b] = 2 * sym
                g[2 * a + 1][2 * b + 1] = 2 * sym
                g[2 * a][2 * b + 1] = 2 * skew
                g[2 * a + 1][2 * b] = -2 * skew
        return g

    return fn


def flat_complex(k: int = 2) -> ManifoldSpec:
    """Flat chart: identity metric, standard structure, zero curvature."""
    n = _check_pairs(k)
    eye = np.eye(n).tolist()
    chart = Chart(n, f"flat_complex({k})", _everywhere)
    return ManifoldSpec(
        label=f"flat_complex({k})",
        chart=chart,
        metric_field=TensorField(Signature("dd"), lambda u: eye, label="g"),
        structure_field=TensorField(Signature("ud"), _standard_structure(n), label="A"),
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
        metric_field=TensorField(Signature("dd"), _hermitian_pair_metric(k, c_fn), label="g"),
        structure_field=TensorField(Signature("ud"), _standard_structure(n), label="A"),
    )


def complex_hyperbolic(k: int = 2) -> ManifoldSpec:
    """Unit-ball chart of the complex hyperbolic metric, potential -ln(1 - |z|^2)."""
    n = _check_pairs(k)

    def c_fn(s):
        c1 = 1 / (1 - s)
        return c1, c1 * c1

    def inside(point: np.ndarray) -> bool:
        return _everywhere(point) and float(point @ point) < 1.0 - HYPERBOLIC_MARGIN

    chart = Chart(n, f"complex_hyperbolic({k})", inside)
    return ManifoldSpec(
        label=f"complex_hyperbolic({k})",
        chart=chart,
        metric_field=TensorField(
            Signature("dd"), _hermitian_pair_metric(k, c_fn), domain=inside, label="g"
        ),
        structure_field=TensorField(Signature("ud"), _standard_structure(n), label="A"),
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

    def fn(u):
        c = jet_exp(2 * u[0])
        return [[c if i == j else 0.0 for j in range(n)] for i in range(n)]

    chart = Chart(n, "conformal_nonkahler", _everywhere)
    return ManifoldSpec(
        label="conformal_nonkahler",
        chart=chart,
        metric_field=TensorField(Signature("dd"), fn, label="g"),
        structure_field=TensorField(Signature("ud"), _standard_structure(n), label="A"),
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
    if not 1 <= k <= 8:
        raise ValueError(f"complex dimension k must be in [1, 8] (n = 2k <= 16), got {k}")
    return 2 * k


# -- generator catalog -------------------------------------------------------

def _linear_j_fn(u):
    # pi = sum_a (x_a dy_a - y_a dx_a)
    out = []
    for pair in range(len(u) // 2):
        out.append(-u[2 * pair + 1])
        out.append(u[2 * pair])
    return out


def _grad_fn(u):
    # pi = d(x1^2 + y1^2)
    out = [0.0] * len(u)
    out[0] = 2 * u[0]
    out[1] = 2 * u[1]
    return out


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
        fn = lambda u: [0.0] * len(u)
        name = "zero"
    elif label == "const":
        if components is None:
            raise ValueError("const generator needs `components`")
        comps = [float(c) for c in components]
        fn = lambda u: _require_len(comps, len(u))
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

        def fn(u):
            m = len(u)
            if m != dim:
                raise ValueError(f"random_poly built for dim {dim}, point has {m}")
            out = []
            for j in range(m):
                val = c0[j]
                for i in range(m):
                    val = val + c1[j, i] * u[i]
                    for l in range(m):
                        val = val + c2[j, i, l] * u[i] * u[l]
                out.append(val)
            return out

        name = f"random_poly:{seed}"
    else:
        raise ValueError(
            f"unknown generator {label!r}; choose from {', '.join(generator_names())}"
        )
    return GeneratorField(name, TensorField(Signature("d"), fn, label=name))


def generator_names() -> list[str]:
    return ["zero", "const", "linear_j", "grad", "random_poly"]


def _require_len(comps: list[float], n: int) -> list[float]:
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


def check_almost_hermitian(m: ManifoldSpec, points) -> dict[str, float]:
    """Max residuals of the structure equations over the given points.

    Checks A^2 + I, g(A., A.) - g, F(A., .) + g and G(A., A.) - G, plus the
    smallest metric eigenvalue encountered (positive definiteness witness).
    """
    res = {"a_squared": 0.0, "metric_compat": 0.0, "f_compat": 0.0, "g_total_compat": 0.0}
    min_eig = np.inf
    eye = np.eye(m.n)
    for p in np.atleast_2d(np.asarray(points, dtype=np.float64)):
        g = m.metric(p).components
        a = m.structure(p).components
        f = a.T @ g  # F_ij = A^m_i g_mj
        big_g = g + f
        res["a_squared"] = max(res["a_squared"], norm_max(a @ a + eye))
        res["metric_compat"] = max(res["metric_compat"], norm_max(a.T @ g @ a - g))
        res["f_compat"] = max(res["f_compat"], norm_max(a.T @ f + g))
        res["g_total_compat"] = max(res["g_total_compat"], norm_max(a.T @ big_g @ a - big_g))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(0.5 * (g + g.T)))))
    res["min_metric_eigenvalue"] = float(min_eig)
    return res
