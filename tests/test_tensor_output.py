"""Output gate for ``qsc-lab tensor``: every ``--what`` prints the same bytes.

``golden/tensor.json`` holds, for each call, its exit code and the sha256
digests of its stdout and stderr.  The calls are every ``--what`` on fs,
flat and hyperbolic at k=2, with analytic and fd4 derivatives, at one point
inside all three charts, with ``--generator random_poly:3``; the tensors
that need no generator are also called without one, which is how they
print: with one they exit 2.  A change that moves
a printed value updates the file and says so.  Regenerate it with

    PYTHONPATH=src python tests/test_tensor_output.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qsc_lab.cli import _WHAT_CHOICES, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "tensor.json"
POINT = "0.1,0.2,-0.15,0.3"
MANIFOLDS = ("fs", "flat", "hyperbolic")
SCHEMES = ("analytic", "fd4")
GENERATOR = "random_poly:3"
PI_FREE = ("a", "f", "g", "p", "ric_g", "rg", "w")
WHATS = (
    PI_FREE
    + ("pi", "prime_r3", "prime_r4", "torsion")
    + tuple(f"d{t}" for t in range(4))
    + tuple(f"{name}{t}" for name in ("h", "r", "ric") for t in range(6))
)


def cases():
    """(name, argv) of every pinned call."""
    for manifold in MANIFOLDS:
        for scheme in SCHEMES:
            common = ["--manifold", manifold, "--k", "2", "--diff", scheme, "--point", POINT]
            for what in sorted(WHATS):
                argv = ["tensor", "--what", what, *common]
                yield f"{manifold}-{scheme}-{what}-{GENERATOR}", [*argv, "--generator", GENERATOR]
                if what in PI_FREE:
                    yield f"{manifold}-{scheme}-{what}", argv


def outcome(argv: list[str]) -> list:
    """Exit code and the sha256 of stdout and of stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    sha = lambda s: hashlib.sha256(s.getvalue().encode()).hexdigest()
    return [code, sha(out), sha(err)]


def test_every_what_is_pinned():
    assert sorted(WHATS) == sorted(_WHAT_CHOICES)


def test_tensor_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert golden["point"] == POINT
    got = {name: outcome(argv) for name, argv in cases()}
    assert got.keys() == golden["calls"].keys()
    assert [name for name in got if got[name] != golden["calls"][name]] == []


def _render(calls: dict) -> str:
    """One call per line, so a changed output is a one-line diff."""
    lines = ",\n".join(f"  {json.dumps(name)}: {json.dumps(v)}" for name, v in calls.items())
    return f'{{"point": {json.dumps(POINT)}, "calls": {{\n{lines}\n}}}}\n'


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_render({name: outcome(argv) for name, argv in cases()}))
