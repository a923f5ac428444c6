"""The package's public names, and the names the benchmark's tracer wraps."""

import ast
import importlib
import operator
import types
from pathlib import Path

import qsc_lab
import qsc_lab.geometry

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsc_lab"
TRACER = ROOT / "perfbench" / "tracer.py"
MAX_COLUMNS = 100


def test_every_exported_name_resolves():
    for module in (qsc_lab, qsc_lab.geometry):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace: dict = {}
    exec("from qsc_lab import *", namespace)
    assert set(qsc_lab.__all__) <= namespace.keys()


def _load_tracer() -> types.ModuleType:
    """The benchmark's tracer, compiled from its source: nothing is written
    next to it and nothing is imported from its directory."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _binding(span: str):
    """The function that the span of this name is recorded around."""
    layer, _, name = span.partition(".")
    module = importlib.import_module(f"qsc_lab.{layer}")
    if name.startswith("jets."):
        return module.TensorField.jets
    if span == "tensor.Tensor":
        return module.Tensor.__post_init__
    return operator.attrgetter(name)(module)


def test_every_traced_name_is_wrapped_and_the_install_undone():
    """Each span of the tracer names a function the package still has: a
    deleted one makes ``install`` raise, so the benchmark's traced runs
    would crash."""
    tracer = _load_tracer()
    before = {span: _binding(span) for span in tracer.SPANS}
    undo = tracer.install(tracer.Tracer())
    try:
        unwrapped = [
            span for span in tracer.SPANS
            if getattr(_binding(span), "__wrapped__", None) is not before[span]
        ]
    finally:
        undo()
    assert unwrapped == []
    assert {span: _binding(span) for span in tracer.SPANS} == before


def test_source_lines_fit_the_column_limit():
    """No line of the package's modules or of its tests is wider than MAX_COLUMNS."""
    paths = sorted((ROOT / "src" / "qsc_lab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    wide = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert wide == []


def _top_level_names(tree: ast.Module):
    """The functions, classes and assigned names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _reads(tree: ast.Module):
    """Every name a module reads: a loaded name, an attribute or an import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_top_level_name_of_the_package_is_read():
    """No function, class or assigned name of the package, dunders aside,
    goes unread by the package and the benchmark: a name only listed in
    ``__all__`` is dead."""
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    }
    read = {name for tree in trees.values() for name in _reads(tree)}
    dead = [
        f"{path.name}:{name}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for name in _top_level_names(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in read
    ]
    assert dead == []


def test_only_the_writers_of_the_r_h_stack_take_a_buffer():
    """``out`` is a parameter of the three functions that write the R/H stack
    and of no other package function, and no package function takes
    ``work``: how an oracle bounds its memory is known by no module."""
    params = [
        (node.name, {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs})
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert sorted(name for name, args in params if "out" in args) == [
        "assemble_r_theta", "fold_rank_one", "h_tensor"
    ]
    assert [name for name, args in params if "work" in args] == []
