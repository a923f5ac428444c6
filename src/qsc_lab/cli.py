"""Command-line harness: run the identity suite, print tensors, list catalogs.

Catalog names, their ``list`` lines and the generator spec grammar live in
``geometry``; this module only splits a ``--generators`` list into specs.
Each ``verify`` setting is a field of ``report.RunConfig``, which holds its
default and checks its value; the field name is the ``dest`` of its flag
and its key in a ``--config`` file.  ``tensor`` reads each ``--what``
through one table, ``_TENSORS``, which names its slots, whether it reads the
generator and its reader.  It rejects a ``--generator`` that the tensor does
not read and a derivative flag for a tensor read as a value; it hands the
other derivative flags it was given to ``DiffConfig``, which holds their
defaults.  Both commands reject a ``--step`` flag under the analytic scheme,
even at the default step.

Exit codes: 0 all checks behaved as configured, 1 identity failure,
2 configuration error (a ``--report`` path that cannot be written among
them), 3 numeric failure (a value overflowed or became undefined).
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
from .geometry import GENERATORS, MANIFOLDS, lookup, manifold_by_name, parse_generator_spec
from .invariants import IDENTITY_CATALOG, h_tensor, hol_projective, weyl_projective
from .report import RunConfig, exit_code, render_report, run_verification
from .tensor import ConfigError, NumericError, Tensor

PRINT_EPS = 1e-12

# --what -> (the slots of the tensor it prints, whether it reads the generator,
# its reader).  A value tensor's reader takes (m, point, gen) and reads fields
# without derivatives, so no stencil can leave the chart and no scheme flag
# applies; the others read (pj, b): the point's jets and the generator's
# curvature bundle, None for a tensor that reads no generator.
_VALUES = {
    "g": ("dd", False, lambda m, x, gen: m.metric_field.value(x)),
    "f": ("dd", False, lambda m, x, gen: m.structure_field.value(x).T @ m.metric_field.value(x)),
    "a": ("ud", False, lambda m, x, gen: m.structure_field.value(x)),
    "pi": ("d", True, lambda m, x, gen: gen.value(x)),
    "torsion": ("udd", True, lambda m, x, gen: torsion(gen.value(x), m.structure_field.value(x))),
}
_TENSORS = {
    **_VALUES,
    "rg": ("uddd", False, lambda pj, b: riemann_g(pj)),
    "ric_g": ("dd", False, lambda pj, b: pj.ric_g),
    "w": ("uddd", False, lambda pj, b: weyl_projective(pj)),
    "p": ("uddd", False, lambda pj, b: hol_projective(pj)),
    "prime_r3": ("dd", True, lambda pj, b: b.prime_r3),
    "prime_r4": ("dd", True, lambda pj, b: b.prime_r4),
    **{f"d{t}": ("dd", True, lambda pj, b, t=t: b.gj.d[t]) for t in range(4)},
    **{f"r{t}": ("uddd", True, lambda pj, b, t=t: b.r[t]) for t in range(6)},
    **{f"ric{t}": ("dd", True, lambda pj, b, t=t: b.ric[t]) for t in range(6)},
    **{f"h{t}": ("uddd", True, lambda pj, b, t=t: h_tensor(t, b)) for t in range(6)},
}
_WHAT_CHOICES = sorted(_TENSORS)


def split_generator_list(value: str) -> list[str]:
    """Split a comma list of generator specs; const components keep their
    commas by re-attaching items without a generator name to the preceding
    spec.  An empty item after the first or an unknown first name fails here."""
    out: list[str] = []
    for item in value.split(","):
        if out and not item:
            raise ConfigError(f"generator list {value!r} has an empty item")
        if out and item.partition(":")[0] not in GENERATORS:
            out[-1] += "," + item
        else:
            out.append(item)
    lookup(GENERATORS, "generator", out[0].partition(":")[0])
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


def _print_tensor(name: str, t: Tensor) -> None:
    labels = _coord_labels(t.dim)
    print(f"{name}  slots={t.signature}  (entries with |value| > {PRINT_EPS:g})")
    shown = 0
    for idx in np.ndindex(t.components.shape):
        v = float(t.components[idx])
        if abs(v) > PRINT_EPS:
            lab = ",".join(labels[i] for i in idx)
            print(f"  [{lab}] = {v:.12g}")
            shown += 1
    if shown == 0:
        print("  all components below threshold")


def _reject_analytic_step(step: float | None, scheme: str) -> None:
    """A --step flag under the analytic scheme is an error at any value: the
    scheme takes the default step, which every analytic report echoes, only
    so that a config file holding that echo reads back."""
    if step is not None and scheme == "analytic":
        raise ConfigError(
            f"step {step:g} sizes finite-difference stencils; the analytic scheme takes none;"
            " drop --step"
        )


def _merge_config(args) -> RunConfig:
    """The config file's settings, overlaid with the flags that were given."""
    keys = {f.name for f in fields(RunConfig)}
    merged = {}
    if args.config is not None:
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
    _reject_analytic_step(given["step"], merged.get("scheme", RunConfig.scheme))
    return RunConfig(**merged)


def _print_table(report: dict) -> None:
    """The verdict table in one write."""
    lines = [f"{'identity':16s} {'pt':>3s} {'class':13s} {'relative':>10s} status"]
    lines += [
        f"{r['id']:16s} {r['point_index']:3d} {r['classification']:13s} "
        f"{r['relative']:10.2e} {'pass' if r['pass'] else 'FAIL'}"
        for r in report["results"]
    ]
    s = report["summary"]
    lines.append(
        f"summary: core_pass={s['core_pass']} audit_pass={s['audit_pass']} "
        f"expected_fail_ok={s['expected_fail_ok']}"
    )
    print("\n".join(lines))


def cmd_verify(args) -> int:
    cfg = _merge_config(args)
    path = Path(cfg.report) if cfg.report else None
    if path and (path.is_dir() or not path.parent.is_dir()):  # checked before the suite runs
        raise ConfigError(f"cannot write report {cfg.report}: not a file in an existing directory")
    report = run_verification(cfg)
    if path:
        try:
            path.write_text(render_report(report))
        except OSError as exc:
            raise ConfigError(f"cannot write report {cfg.report}: {exc.strerror or exc}") from exc
    _print_table(report)
    return exit_code(report, cfg.audit_soft)


def cmd_tensor(args) -> int:
    if args.manifold is None:
        raise ConfigError("--manifold is required")
    m = manifold_by_name(args.manifold, args.k if args.k is not None else RunConfig.k)
    point = _parse_point(args.point, m.n)
    m.require(point)
    given = {f.name: getattr(args, f.name) for f in fields(DiffConfig)}
    given = {k: v for k, v in given.items() if v is not None}
    what = args.what.lower()
    if what not in _TENSORS:
        raise ConfigError(
            f"unknown tensor {args.what!r}; options: {', '.join(_WHAT_CHOICES)}"
        )
    slots, reads_pi, read = _TENSORS[what]
    gen = None if args.generator is None else parse_generator_spec(args.generator, m.n)
    if gen is None and reads_pi:
        raise ConfigError(f"tensor {what!r} depends on the generator; pass --generator")
    if gen is not None and not reads_pi:
        raise ConfigError(f"tensor {what!r} does not read the generator; drop --generator")
    if what in _VALUES:
        if given:
            flags = ", ".join(f"--{'diff' if k == 'scheme' else k}" for k in given)
            raise ConfigError(f"tensor {what!r} takes no derivatives; drop {flags}")
        array = read(m, point, gen)
    else:
        _reject_analytic_step(given.get("step"), given.get("scheme", DiffConfig.scheme))
        pj = point_jets(m, point, DiffConfig(**given))
        b = None if gen is None else curvature_bundle(pj, generator_jets(pj, gen))
        array = read(pj, b)
    _print_tensor(what, Tensor(m.n, slots, array))
    return 0


def cmd_list(args) -> int:
    kind = args.catalog
    if kind == "identities":
        for ident, info in IDENTITY_CATALOG.items():
            print(f"{ident:16s} {info.classification:6s} {info.description}")
    else:
        for name, entry in (MANIFOLDS if kind == "manifolds" else GENERATORS).items():
            print(f"{name:22s} {entry[-1]}")
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
