"""Manifold catalog and generator catalog.

The curved metrics are checked against an oracle that never touches the
catalog formulas: the finite-difference Hessian of the defining potential,
symmetrized with the complex structure.  For a metric with potential phi,
g_ij = (H_ij + (A^T H A)_ij) / 2 where H is the coordinate Hessian of phi.
"""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from qsc_lab.diff import (
    DiffConfig,
    DomainError,
    eval_components,
    eval_jets,
    field_jets,
)
from qsc_lab.geometry import (
    GENERATORS,
    as_point,
    MANIFOLDS,
    generator,
    manifold_by_name,
    parse_generator_spec,
    sample_points,
)
from qsc_lab.tensor import MAX_DIM, ConfigError

ORACLE_TOL = 1e-6
STRUCTURE_TOL = 1e-13


def fd_hessian(phi, u, h=1e-5):
    n = len(u)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pp = u.copy(); pm = u.copy(); mp = u.copy(); mm = u.copy()
            pp[i] += h; pp[j] += h
            pm[i] += h; pm[j] -= h
            mp[i] -= h; mp[j] += h
            mm[i] -= h; mm[j] -= h
            out[i, j] = (phi(pp) - phi(pm) - phi(mp) + phi(mm)) / (4 * h * h)
    return out


POTENTIALS = {
    "fs": lambda u: np.log1p(float(u @ u)),
    "hyperbolic": lambda u: -np.log1p(-float(u @ u)),
}


@pytest.mark.parametrize("name", ["fs", "hyperbolic"])
def test_curved_metrics_match_potential_oracle(name):
    m = manifold_by_name(name, k=2)
    phi = POTENTIALS[name]
    for p in sample_points(m, 6, seed=13):
        hess = fd_hessian(phi, p)
        a = m.structure_field.value(p)
        oracle = 0.5 * (hess + a.T @ hess @ a)
        got = m.metric_field.value(p)
        assert np.max(np.abs(got - oracle)) < ORACLE_TOL


@pytest.mark.parametrize("name,k", [("flat", 2), ("fs", 2), ("fs", 3), ("hyperbolic", 1)])
def test_metric_at_origin_is_twice_identity(name, k):
    m = manifold_by_name(name, k=k)
    np.testing.assert_allclose(
        m.metric_field.value(np.zeros(m.n)),
        (1.0 if name == "flat" else 2.0) * np.eye(m.n),
        atol=0,
    )


def test_conformal_metric_frozen():
    m = manifold_by_name("conformal-nonkahler")
    p = np.array([0.3, -0.2, 0.1, 0.4])
    np.testing.assert_allclose(
        m.metric_field.value(p), np.exp(0.6) * np.eye(4), rtol=1e-15
    )
    assert not m.kahler_expected


@pytest.mark.parametrize("name", MANIFOLDS)
def test_catalog_is_almost_hermitian(name):
    """A^2 = -I, g(A., A.) = g, F(A., .) = -g, G(A., A.) = G and g > 0."""
    m = manifold_by_name(name, k=2)
    eye = np.eye(m.n)
    for p in sample_points(m, 8, seed=3):
        g, a = m.metric_field.value(p), m.structure_field.value(p)
        f = a.T @ g  # F_ij = A^m_i g_mj
        big_g = g + f
        assert np.max(np.abs(a @ a + eye)) < STRUCTURE_TOL
        assert np.max(np.abs(a.T @ g @ a - g)) < STRUCTURE_TOL
        assert np.max(np.abs(a.T @ f + g)) < STRUCTURE_TOL
        assert np.max(np.abs(a.T @ big_g @ a - big_g)) < STRUCTURE_TOL
        assert np.min(np.linalg.eigvalsh(0.5 * (g + g.T))) > 0


def test_fundamental_form_is_skew():
    m = manifold_by_name("fs", k=3)
    for p in sample_points(m, 4, seed=8):
        f = m.structure_field.value(p).T @ m.metric_field.value(p)
        assert np.max(np.abs(f + f.T)) < STRUCTURE_TOL


def test_metric_jets_match_fd():
    m = manifold_by_name("fs", k=2)
    p = np.array([0.2, -0.1, 0.05, 0.3])
    _, dg_a, d2g_a = m.metric_field.jets(p, DiffConfig(scheme="analytic"), second=True)
    _, dg_f, d2g_f = m.metric_field.jets(p, DiffConfig(scheme="fd4", step=1e-3), second=True)
    assert np.max(np.abs(dg_a - dg_f)) < 1e-9
    assert np.max(np.abs(d2g_a - d2g_f)) < 1e-6


def test_structure_jets_constant():
    m = manifold_by_name("hyperbolic", k=2)
    a, da = m.structure_field.jets(np.zeros(4), DiffConfig())
    assert np.max(np.abs(da)) == 0.0
    np.testing.assert_allclose(a @ a, -np.eye(4), atol=0)


def test_manifold_by_name_errors():
    """An unknown chart, or a k outside the chart's range, is a ConfigError."""
    with pytest.raises(ConfigError, match="unknown manifold"):
        manifold_by_name("torus")
    with pytest.raises(ConfigError, match="complex dimension"):
        manifold_by_name("fs", k=9)
    with pytest.raises(ConfigError, match="complex dimension"):
        manifold_by_name("flat", k=0)
    with pytest.raises(ConfigError, match="k = 2"):
        manifold_by_name("conformal-nonkahler", k=3)
    with pytest.raises(ConfigError):
        manifold_by_name("fs", k=9999)
    assert manifold_by_name("hyperbolic", k=3).n == 6


def test_chart_validation_and_domain():
    m = manifold_by_name("hyperbolic", k=1)
    with pytest.raises(ValueError):
        dataclasses.replace(m, n=3)
    outside = rf"^point \[0.8, 0.7\] outside chart {re.escape(m.label)}$"
    with pytest.raises(DomainError, match=outside):
        m.require(np.array([0.8, 0.7]))
    m.require(np.array([0.5, 0.5]))


def test_as_point_rejects_the_wrong_length_and_non_finite_coordinates():
    """Coordinates of one point or of a batch, checked against the chart's
    dimension and for finiteness in every row."""
    assert as_point([1, 2], dim=2).dtype == np.float64
    with pytest.raises(ValueError, match="^point has 3 coordinates, chart needs 4$"):
        as_point([0.1, 0.2, 0.3], dim=4)
    for bad in ([0.1, np.nan], [[0.1, 0.2], [np.inf, 0.0]]):
        with pytest.raises(ValueError, match="^non-finite point coordinates$"):
            as_point(bad, dim=2)


def test_require_names_the_first_point_of_a_batch_outside_the_chart():
    """On a (P, n) batch require answers per row, as contains does, and
    names the first row outside; a batch inside passes."""
    m = manifold_by_name("hyperbolic", k=1)
    m.require(np.array([[0.5, 0.5], [0.1, -0.2]]))
    batch = np.array([[0.5, 0.5], [0.9, 0.9], [0.8, 0.7]])
    outside = rf"^point \[0.9, 0.9\] outside chart {re.escape(m.label)}$"
    with pytest.raises(DomainError, match=outside):
        m.require(batch)


def test_generator_zero_and_linear_j():
    z = generator("zero", dim=4)
    assert np.max(np.abs(z.value([0.4, 1.0, -2.0, 0.0]))) == 0.0
    lj = generator("linear_j", dim=4)
    np.testing.assert_allclose(
        lj.value([1.0, 0.0, 0.0, 0.0]), [0.0, 1.0, 0.0, 0.0], atol=0
    )
    np.testing.assert_allclose(
        lj.value([0.3, -0.5, 0.2, 0.7]), [0.5, 0.3, -0.7, 0.2], atol=0
    )


def test_generator_grad_and_const():
    gr = generator("grad", dim=4)
    np.testing.assert_allclose(
        gr.value([0.3, -0.5, 9.0, 9.0]), [0.6, -1.0, 0.0, 0.0], atol=1e-15
    )
    c = generator("const", components=[1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(c.value(np.zeros(4)), [1, 2, 3, 4])
    with pytest.raises(ValueError):
        c.value(np.zeros(6))
    with pytest.raises(ValueError):
        generator("const")


def test_generator_random_poly_deterministic():
    p = [0.1, 0.2, -0.3, 0.05]
    a = generator("random_poly", dim=4, seed=3)
    b = generator("random_poly", dim=4, seed=3)
    c = generator("random_poly", dim=4, seed=7)
    assert a.label == "random_poly:3"
    np.testing.assert_array_equal(a.value(p), b.value(p))
    assert np.max(np.abs(a.value(p) - c.value(p))) > 1e-3
    with pytest.raises(ValueError):
        generator("random_poly")
    with pytest.raises(ValueError):
        a.value(np.zeros(6))


def test_generator_unknown_label():
    with pytest.raises(ValueError, match="unknown generator"):
        generator("swirl", dim=4)
    assert set(GENERATORS) == {"zero", "const", "linear_j", "grad", "random_poly"}


@pytest.mark.parametrize(
    "kind,build",
    [
        ("manifold", lambda name: manifold_by_name(name, k=2)),
        ("generator", lambda name: generator(name, dim=4)),
        ("generator", lambda name: parse_generator_spec(name, dim=4)),
        ("generator", lambda name: parse_generator_spec(f"{name}:1", dim=4)),
    ],
    ids=["manifold_by_name", "generator", "parse_generator_spec", "parse_generator_spec-arg"],
)
@pytest.mark.parametrize("name", ["torus", "swirl", "", "FS", "zero,grad"])
def test_every_entry_point_rejects_an_unknown_name_with_one_text(kind, build, name):
    """One ConfigError text, naming the table's options in order."""
    options = ", ".join(MANIFOLDS if kind == "manifold" else GENERATORS)
    with pytest.raises(ConfigError) as info:
        build(name)
    assert str(info.value) == f"unknown {kind} {name!r}; options: {options}"


@pytest.mark.parametrize("name", list(GENERATORS))
def test_every_generator_builds_from_its_keywords_and_from_its_spec(name):
    """No name sits in the table without a builder and a spec grammar: each
    builds through `generator` and through `parse_generator_spec`, to the
    same label and the same components."""
    arg = GENERATORS[name][1]
    comps = [0.5, -1.0, 0.25, 2.0]
    if arg == "components":
        keywords, spec = {"components": comps}, f"{name}:{','.join(map(str, comps))}"
    elif arg == "seed":
        keywords, spec = {"seed": 4}, f"{name}:4"
    else:
        assert arg is None
        keywords, spec = {}, name
    by_keywords = generator(name, dim=4, **keywords)
    by_spec = parse_generator_spec(spec, dim=4)
    assert by_spec.label == by_keywords.label
    assert by_spec.label.partition(":")[0] == name
    p = [0.1, 0.2, -0.3, 0.05]
    np.testing.assert_array_equal(by_spec.value(p), by_keywords.value(p))
    assert by_spec.value(p).shape == (4,)


def _accepted_k():
    """(name, k) of every catalog chart at every complex dimension it accepts."""
    for name in MANIFOLDS:
        for k in range(1, MAX_DIM // 2 + 1):
            try:
                manifold_by_name(name, k=k)
            except ConfigError:
                continue
            yield name, k


CATALOG_CHARTS = list(_accepted_k())


def test_sample_points_deterministic_and_in_domain():
    for name, k in CATALOG_CHARTS:
        m = manifold_by_name(name, k=k)
        assert m.n == 2 * k, (name, k)
        a = sample_points(m, 12, seed=42)
        b = sample_points(m, 12, seed=42)
        c = sample_points(m, 12, seed=43)
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(a - c)) > 1e-3, (name, k)
        assert a.shape == (12, m.n), (name, k)
        for p in a:
            assert m.contains(p), (name, k, p)
            m.require(p)
            assert np.linalg.norm(p) <= m.sample_radius + 1e-12, (name, k, p)


# -- the array field protocol -------------------------------------------------

def _catalog_fields(k):
    """(name, field) for the metric and structure of every chart at complex
    dimension k and for every generator family at n = 2k."""
    n = 2 * k
    for name in MANIFOLDS:
        if name == "conformal-nonkahler" and k != 2:
            continue
        m = manifold_by_name(name, k=k)
        yield f"{name}.g", m.metric_field
        yield f"{name}.A", m.structure_field
    consts = [0.3, -0.2, 0.1, 0.5, -0.7, 0.25, 0.9, -0.4][:n]
    for label, gen in (
        ("zero", generator("zero", dim=n)),
        ("const", generator("const", components=consts)),
        ("linear_j", generator("linear_j", dim=n)),
        ("grad", generator("grad", dim=n)),
        ("random_poly:1", generator("random_poly", dim=n, seed=1)),
        ("random_poly:3", generator("random_poly", dim=n, seed=3)),
    ):
        yield label, gen


def _sympy_jets(exprs, u, point):
    """(value, d1, d2) of sympy expressions at `point`, evaluated in 30-digit
    arithmetic; derivative directions lead, as in eval_jets."""
    sympy = pytest.importorskip("sympy")
    import mpmath

    n = len(u)
    exprs = np.array(exprs, dtype=object)
    flat = list(exprs.ravel())
    d1 = [[sympy.diff(e, u[a]) for e in flat] for a in range(n)]
    d2 = [[[sympy.diff(e, u[b]) for e in d1[a]] for b in range(n)] for a in range(n)]
    evaluate = sympy.lambdify(u, [flat, d1, d2], modules="mpmath")
    with mpmath.workdps(30):
        val, g, h = (np.array(x, dtype=float) for x in evaluate(*map(mpmath.mpf, point)))
    return val.reshape(exprs.shape), g.reshape((n,) + exprs.shape), h.reshape((n, n) + exprs.shape)


def _sympy_oracle(k, point):
    """Jets of the fields of `_catalog_fields`, written independently in
    sympy.  The curved metrics come from their Kahler potentials phi:
    g = (H + A^T H A) / 2 with H the coordinate Hessian of phi, so their
    jets are the third and fourth derivatives of phi, symmetrized the same way."""
    sympy = pytest.importorskip("sympy")
    import mpmath

    n = 2 * k
    u = sympy.symbols(f"u0:{n}", real=True)
    a = np.zeros((n, n))
    for pair in range(k):
        a[2 * pair + 1, 2 * pair] = 1.0
        a[2 * pair, 2 * pair + 1] = -1.0
    s = sum(x * x for x in u)

    def from_potential(phi):
        # each partial of phi once, by sorted multi-index up to order four
        partials = {(): phi}
        for order in range(1, 5):
            for idx in itertools.combinations_with_replacement(range(n), order):
                partials[idx] = sympy.diff(partials[idx[:-1]], u[idx[-1]])
        keys = [idx for idx in partials if len(idx) >= 2]
        evaluate = sympy.lambdify(u, [partials[idx] for idx in keys], modules="mpmath")
        with mpmath.workdps(30):
            values = dict(zip(keys, (float(x) for x in evaluate(*map(mpmath.mpf, point)))))
        sym = lambda t: (t + np.swapaxes(a, 0, 1) @ t @ a) / 2
        cube = lambda order: np.array(
            [values[tuple(sorted(i))] for i in np.ndindex((n,) * order)]
        ).reshape((n,) * order)
        return tuple(sym(cube(order)) for order in (2, 3, 4))

    def constant(c):
        c = np.asarray(c, dtype=float)
        return c, np.zeros((n,) + c.shape), np.zeros((n, n) + c.shape)

    consts = [0.3, -0.2, 0.1, 0.5, -0.7, 0.25, 0.9, -0.4][:n]
    oracle = {
        "flat.g": constant(np.eye(n)),
        "fs.g": from_potential(sympy.log(1 + s)),
        "hyperbolic.g": from_potential(-sympy.log(1 - s)),
        "zero": constant(np.zeros(n)),
        "const": constant(consts),
        "linear_j": _sympy_jets(
            [(-u[i + 1] if i % 2 == 0 else u[i - 1]) for i in range(n)], u, point
        ),
        "grad": _sympy_jets([2 * u[0], 2 * u[1]] + [sympy.Integer(0)] * (n - 2), u, point),
    }
    if k == 2:
        oracle["conformal-nonkahler.g"] = _sympy_jets(
            [
                [sympy.exp(2 * u[0]) if i == j else sympy.Integer(0) for j in range(n)]
                for i in range(n)
            ],
            u,
            point,
        )
    for name in MANIFOLDS:
        if name != "conformal-nonkahler" or k == 2:
            oracle[f"{name}.A"] = constant(a)
    for seed in (1, 3):
        # the documented generator: uniform [-1, 1] coefficients in this order
        rng = np.random.default_rng(seed)
        c0 = rng.uniform(-1.0, 1.0, size=n)
        c1 = rng.uniform(-1.0, 1.0, size=(n, n))
        c2 = rng.uniform(-1.0, 1.0, size=(n, n, n))
        oracle[f"random_poly:{seed}"] = _sympy_jets(
            [
                c0[j]
                + sum(c1[j, i] * u[i] for i in range(n))
                + sum(c2[j, i, l] * u[i] * u[l] for i in range(n) for l in range(n))
                for j in range(n)
            ],
            u,
            point,
        )
    return oracle


@pytest.mark.parametrize("k", [1, 2])
def test_analytic_jets_match_sympy_derivatives(k):
    """eval_jets of every catalog field against sympy's derivatives of the
    closed form, evaluated in 30-digit arithmetic: no jet code involved."""
    point = sample_points(manifold_by_name("hyperbolic", k=k), 1, seed=11)[0]
    oracle = _sympy_oracle(k, point)
    names = []
    for name, field in _catalog_fields(k):
        got = eval_jets(field.fn, point, second=True)
        for part, x, want in zip(("value", "d1", "d2"), got, oracle[name]):
            np.testing.assert_allclose(x, want, rtol=1e-12, err_msg=f"{name} {part}")
        names.append(name)
    assert sorted(names) == sorted(oracle)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("rows", ["m=n", "m=3"])
def test_batched_fields_equal_single_point_calls(k, rows):
    """A stencil batch (m, n) gives the same values as m single-point calls,
    also when m = n, where M @ u would silently read the batch as a matrix."""
    n = 2 * k
    m = n if rows == "m=n" else 3
    batch = sample_points(manifold_by_name("hyperbolic", k=k), m, seed=5)
    for name, field in _catalog_fields(k):
        single = [eval_components(field.fn, p) for p in batch]
        got = eval_components(field.fn, batch, single[0].shape)
        assert got.shape == (m,) + single[0].shape, name
        np.testing.assert_allclose(got, np.stack(single), rtol=1e-14, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize(
    "cfg",
    [DiffConfig(), DiffConfig("fd2"), DiffConfig("fd4"), DiffConfig("fd2", 1e-3, True),
     DiffConfig("fd4", 1e-3, True)],
    ids=["analytic", "fd2", "fd4", "fd2r", "fd4r"],
)
def test_field_jets_on_a_batch_equal_one_point_calls(k, cfg):
    """field_jets on (P, 1, n) points gives what P one-point calls give, bit
    for bit, for every catalog field; the constant ones (the structure, the
    flat metric, zero and const) broadcast over the batch."""
    n = 2 * k
    pts = sample_points(manifold_by_name("hyperbolic", k=k), 3, seed=6)
    for name, field in _catalog_fields(k):
        shape = (n,) * len(field.signature)
        got = field_jets(field.fn, pts[:, None], cfg, second=True, shape=shape)
        for i, p in enumerate(pts):
            want = field_jets(field.fn, p, cfg, second=True)
            for part, x, y in zip(("value", "d1", "d2"), got, want):
                assert x.shape == (3, 1) + y.shape, (name, part)
                np.testing.assert_array_equal(x[i, 0], y, err_msg=f"{name} {part}")


def test_domain_predicates_answer_per_row():
    """Each chart's predicate answers for each row of a batch what it
    answers for the row alone: sampled points and the origin are inside, a
    NaN row is not, and (0.8, ..., 0.8) lies outside the unit ball only."""
    for name, k in CATALOG_CHARTS:
        m = manifold_by_name(name, k=k)
        nan_row = np.r_[np.nan, np.zeros(m.n - 1)]
        rows = np.vstack([sample_points(m, 2, seed=3), np.zeros(m.n), np.full(m.n, 0.8), nan_row])
        want = [True, True, True, name != "hyperbolic", False]
        np.testing.assert_array_equal(m.contains(rows), want, err_msg=f"{name} k={k}")
        assert [bool(m.contains(row)) for row in rows] == want, (name, k)
        with pytest.raises(DomainError):
            m.require(nan_row)
