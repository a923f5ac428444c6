"""Command-line harness: run the identity suite, print tensors, list catalogs.

Each ``verify`` setting is a field of ``report.RunConfig``, which holds its
default and checks its value; the field name is the ``dest`` of its flag
and its key in a ``--config`` file.  ``tensor`` hands the derivative flags
it was given to ``DiffConfig``, which holds their defaults.

Exit codes: 0 all checks behaved as configured, 1 identity failure,
2 configuration error, 3 numeric failure (a value overflowed or became
undefined).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .connections import generator_jets, point_jets, torsion
from .curvature import curvature_bundle, riemann_g
from .diff import DiffConfig, MAX_STEP, MIN_STEP, SCHEMES
from .geometry import generator_names, manifold_names
from .invariants import IDENTITY_CATALOG, h_tensor, hol_projective, weyl_projective
from .report import (
    ConfigError,
    RunConfig,
    exit_code,
    parse_generator_spec,
    render_report,
    resolve_manifold,
    run_verification,
)
from .tensor import NumericError, Tensor

PRINT_EPS = 1e-12

_MANIFOLD_DESCRIPTIONS = {
    "flat": "flat complex space, zero curvature baseline",
    "fs": "Fubini-Study type metric, positive holomorphic curvature",
    "hyperbolic": "complex hyperbolic ball, negative holomorphic curvature",
    "conformal-nonkahler": "conformally flat Hermitian counterexample, not parallel",
}

_GENERATOR_DESCRIPTIONS = {
    "zero": "identically zero one-form",
    "const": "constant components, const:v1,...,vn",
    "linear_j": "rotational linear form, x_a dy_a - y_a dx_a summed over pairs",
    "grad": "differential of |z_1|^2",
    "random_poly": "seeded random polynomial of degree two, random_poly:SEED",
}

_PI_FREE = {"g", "f", "a", "rg", "ric_g", "w", "p"}
_WHAT_CHOICES = sorted(
    _PI_FREE
    | {"pi", "torsion", "prime_r3", "prime_r4"}
    | {f"d{t}" for t in range(4)}
    | {f"r{t}" for t in range(6)}
    | {f"ric{t}" for t in range(6)}
    | {f"h{t}" for t in range(6)}
)

def split_generator_list(value: str) -> list[str]:
    """Split a comma list of generator specs; const components keep their
    commas by re-attaching bare numeric items to the preceding spec."""
    names = set(generator_names())
    out: list[str] = []
    for item in value.split(","):
        head = item.partition(":")[0]
        if head in names:
            out.append(item)
        elif out:
            out[-1] += "," + item
        else:
            raise ConfigError(
                f"unknown generator {head!r}; options: {', '.join(generator_names())}"
            )
    if not out:
        raise ConfigError("empty generator list")
    return out


def _parse_point(value: str, n: int) -> np.ndarray:
    try:
        coords = [float(c) for c in value.split(",")]
    except ValueError as exc:
        raise ConfigError(f"malformed point {value!r}") from exc
    if len(coords) != n:
        raise ConfigError(f"point needs {n} coordinates, got {len(coords)}")
    return np.asarray(coords, dtype=np.float64)


def _coord_labels(n: int) -> list[str]:
    return [("x" if i % 2 == 0 else "y") + str(i // 2 + 1) for i in range(n)]


def _print_tensor(name: str, t) -> None:
    comps = t.components if isinstance(t, Tensor) else np.asarray(t)
    labels = _coord_labels(comps.shape[0])
    sig = t.signature if isinstance(t, Tensor) else "d" * comps.ndim
    print(f"{name}  slots={sig}  (entries with |value| > {PRINT_EPS:g})")
    shown = 0
    for idx in np.ndindex(comps.shape):
        v = float(comps[idx])
        if abs(v) > PRINT_EPS:
            lab = ",".join(labels[i] for i in idx)
            print(f"  [{lab}] = {v:.12g}")
            shown += 1
    if shown == 0:
        print("  all components below threshold")


def _merge_config(args) -> RunConfig:
    """The config file's settings, overlaid with the flags that were given."""
    keys = {f.name for f in fields(RunConfig)}
    merged = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - keys
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        merged.update(loaded)
    given = {key: getattr(args, key) for key in keys}
    if given["generators"] is not None:
        given["generators"] = split_generator_list(given["generators"])
    merged.update({k: v for k, v in given.items() if v is not None})
    if merged.get("manifold") is None:
        raise ConfigError("--manifold is required (or set it in the config file)")
    return RunConfig(**merged)


def _print_table(report: dict) -> None:
    print(f"{'identity':16s} {'pt':>3s} {'class':13s} {'relative':>10s} status")
    for r in report["results"]:
        status = "pass" if r["pass"] else "FAIL"
        print(
            f"{r['id']:16s} {r['point_index']:3d} {r['classification']:13s} "
            f"{r['relative']:10.2e} {status}"
        )
    s = report["summary"]
    print(
        f"summary: core_pass={s['core_pass']} audit_pass={s['audit_pass']} "
        f"expected_fail_ok={s['expected_fail_ok']}"
    )


def cmd_verify(args) -> int:
    cfg = _merge_config(args)
    report = run_verification(cfg)
    if cfg.report:
        Path(cfg.report).write_text(render_report(report))
    _print_table(report)
    return exit_code(report, cfg.audit_soft)


def cmd_tensor(args) -> int:
    if args.manifold is None:
        raise ConfigError("--manifold is required")
    m = resolve_manifold(args.manifold, args.k if args.k is not None else RunConfig.k)
    point = _parse_point(args.point, m.n)
    m.chart.require(point)
    given = {f.name: getattr(args, f.name) for f in fields(DiffConfig)}
    cfg = DiffConfig(**{k: v for k, v in given.items() if v is not None})
    what = args.what.lower()
    if what not in _WHAT_CHOICES:
        raise ConfigError(
            f"unknown tensor {args.what!r}; options: {', '.join(_WHAT_CHOICES)}"
        )
    gen = None if args.generator is None else parse_generator_spec(args.generator, m.n)
    if gen is None and what not in _PI_FREE:
        raise ConfigError(f"tensor {what!r} depends on the generator; pass --generator")
    # g, f, a, pi and torsion need no derivatives, so no stencil can leave the chart
    if what == "g":
        t = m.metric(point)
    elif what == "f":
        t = m.fundamental(point)
    elif what == "a":
        t = m.structure(point)
    elif what == "pi":
        t = gen.pi(point)
    elif what == "torsion":
        t = torsion(m, point, gen)
    else:
        pj = point_jets(m, point, cfg)
        operator = lambda comps: Tensor(m.n, "uddd", comps)
        if what == "rg":
            t = riemann_g(pj)
        elif what == "ric_g":
            t = pj.ric_g
        elif what == "w":
            t = operator(weyl_projective(pj))
        elif what == "p":
            t = operator(hol_projective(pj))
        else:
            b = curvature_bundle(pj, generator_jets(pj, gen))
            if what.startswith("d"):
                t = b.d[int(what[1])]
            elif what.startswith("ric"):
                t = b.ric[int(what[3])]
            elif what.startswith("prime_r"):
                t = b.prime_r3 if what == "prime_r3" else b.prime_r4
            elif what.startswith("h"):
                t = operator(h_tensor(int(what[1]), b))
            else:
                t = operator(b.r[int(what[1])])
    _print_tensor(what, t)
    return 0


def cmd_list(args) -> int:
    kind = args.catalog
    if kind == "identities":
        for ident, info in IDENTITY_CATALOG.items():
            print(f"{ident:16s} {info.classification:6s} {info.description}")
    elif kind == "manifolds":
        for name in manifold_names():
            print(f"{name:22s} {_MANIFOLD_DESCRIPTIONS[name]}")
    else:
        for name in generator_names():
            print(f"{name:22s} {_GENERATOR_DESCRIPTIONS[name]}")
    return 0


# A flag left out parses to None, so the config file or the dataclass
# default decides; each dest is the name of the setting it sets.
def _add_common_flags(sub) -> None:
    sub.add_argument("--manifold", help="manifold name, see `list manifolds`")
    sub.add_argument("--k", type=int, help="complex dimension (n = 2k)")
    sub.add_argument("--diff", dest="scheme", choices=SCHEMES, help="derivative scheme")
    sub.add_argument(
        "--step", type=float, help=f"finite-difference step in [{MIN_STEP:g}, {MAX_STEP:g}]"
    )
    sub.add_argument(
        "--richardson", action="store_const", const=True, help="extrapolate finite differences"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later
    ``main`` in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qsc-lab",
        description="residual verification for quarter-symmetric connection geometry",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="run the identity suite and report")
    _add_common_flags(verify)
    verify.add_argument("--generators", help="comma list of generator specs")
    verify.add_argument("--points", dest="num_points", type=int, help="sample point count")
    verify.add_argument("--seed", type=int, help="sampling seed")
    verify.add_argument("--tol-core", dest="tolerance_core", type=float, help="core tolerance")
    verify.add_argument(
        "--tol-audit", dest="tolerance_audit", type=float, help="audit tolerance"
    )
    verify.add_argument(
        "--audit-soft",
        action="store_const",
        const=True,
        help="audit failures do not affect the exit code",
    )
    verify.add_argument("--report", help="write the JSON report here")
    verify.add_argument("--config", help="JSON config file; flags win")
    verify.set_defaults(fn=cmd_verify)

    tensor = subs.add_parser("tensor", help="print one tensor at a point")
    _add_common_flags(tensor)
    tensor.add_argument("--what", required=True, help=", ".join(_WHAT_CHOICES))
    tensor.add_argument("--generator", help="generator spec")
    tensor.add_argument("--point", required=True, help="comma list of coordinates")
    tensor.set_defaults(fn=cmd_tensor)

    lister = subs.add_parser("list", help="print a catalog")
    lister.add_argument(
        "catalog", choices=["identities", "manifolds", "generators"]
    )
    lister.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow surfaces once, as the NumericError of a finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
