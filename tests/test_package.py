"""The package's public names, its module layering, and the names the
benchmark tracer wraps."""

from __future__ import annotations

import ast
import functools
import importlib
import sys
import types
from pathlib import Path

import tapecat

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
#: Each module imports only from the modules before it.  kan evaluates
#: from the shape category alone, so it must not reach the rule in machine.
LAYERS = ("tape", "fincat", "colimit", "kan", "machine", "cli")


def test_every_exported_name_resolves():
    assert [name for name in tapecat.__all__ if not hasattr(tapecat, name)] == []


def _imported_modules(name: str) -> set[str]:
    """The tapecat modules that module ``name`` imports, anywhere in it."""
    source = Path(tapecat.__file__).with_name(f"{name}.py").read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            # from .kan import x, or from . import tape
            names.update([f"tapecat.{node.module}"] if node.module
                         else (f"tapecat.{alias.name}" for alias in node.names))
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return {n.split(".")[1] if "." in n else n for n in names if n.split(".")[0] == "tapecat"}


def test_modules_import_only_earlier_layers():
    package = Path(tapecat.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__") == \
        sorted(LAYERS)
    breaches = {name: sorted(_imported_modules(name) - set(LAYERS[:k]))
                for k, name in enumerate(LAYERS)}
    assert {name: found for name, found in breaches.items() if found} == {}


def test_kan_imports_only_the_cell_gluing_from_colimit():
    # evaluation and every sweep glue by CellGluing and phrase a fault from
    # its GlueError; the comma-diagram front end is not theirs to call
    tree = ast.parse(Path(tapecat.__file__).with_name("kan.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level and node.module == "colimit"
                for alias in node.names}
    assert imported == {"CellGluing", "GlueError"}


def test_machine_glues_only_by_the_walks():
    # each rule-facing sweep extends every string's pass or memo state from
    # its prefix's, so machine glues no string from its first cell
    tree = ast.parse(Path(tapecat.__file__).with_name("machine.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level and node.module == "kan"
                for alias in node.names}
    assert imported == {"ShapeCategory", "ShapeObject", "walk", "walk_unclosed"}


def test_no_library_module_names_the_comma_diagram_path():
    # colimit defines it and the package re-exports it; tests and the
    # benchmark tracer are its only other callers
    comma_path = {"glue", "glue_cells", "canonical_diagram", "density_check"}
    named = {}
    for path in sorted(Path(tapecat.__file__).parent.glob("*.py")):
        if path.stem in ("colimit", "__init__"):
            continue
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
        if found & comma_path:
            named[path.stem] = sorted(found & comma_path)
    assert named == {}


def test_no_unused_imports():
    # a deleted last use must take its import with it
    unused = {}
    for path in sorted(Path(tapecat.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.stem] = sorted(imported - used)
    assert unused == {}


def test_sources_parse_as_python_3_10():
    # pyproject's requires-python floor: a newer construct fails here
    root = Path(__file__).resolve().parent.parent
    for path in sorted(root.glob("src/**/*.py")) + sorted(root.glob("tests/**/*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _is_command(node: ast.AST) -> bool:
    """A function that click registers as a command or group by decorator."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _module_names(tree: ast.Module) -> list[tuple[str, int, int]]:
    """The names a module's top-level assignments bind, with their lines."""
    return [(target.id, node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(target, ast.Name)
            and not (target.id.startswith("__") and target.id.endswith("__"))]


def test_no_unreferenced_definitions():
    # a function, method, class or module-level name that nothing names
    # outside its own definition is dead: a name, attribute, import or
    # string (a monkeypatched or traced name) in src/ or tests/ counts as a use
    root = Path(__file__).resolve().parent.parent
    definitions, uses = [], []
    for path in sorted(root.glob("src/**/*.py")) + sorted(root.glob("tests/**/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.is_relative_to(root / "src"):
            definitions += [(name, path, first, last) for name, first, last in _module_names(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.alias):
                uses.append((node.asname or node.name.split(".")[-1], path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses.append((node.value, path, node.lineno))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and path.is_relative_to(root / "src") and not _is_command(node) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                definitions.append((node.name, path, node.lineno, node.end_lineno))
    named = {}
    for name, path, line in uses:
        named.setdefault(name, []).append((path, line))
    assert [f"{path.name}:{first} {name}" for name, path, first, last in definitions
            if all(where == path and first <= line <= last
                   for where, line in named.get(name, []))] == []


def _load_tracer() -> types.ModuleType:
    # executed from its source, so that no bytecode is written next to it
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def _snapshot(tracer) -> dict:
    """By identity: every attribute of every tapecat module and of every
    class whose methods the tracer wraps, and the function behind each
    wrapped cached property."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "tapecat" or name.startswith("tapecat."):
            state.update(((name, attr), value) for attr, value in vars(module).items())
    for module, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(sys.modules[module], cls_name)
        state.update((((module, cls_name), a), value) for a, value in vars(cls).items())
        if isinstance(cls.__dict__[attr], functools.cached_property):
            state[((module, cls_name), attr + ".func")] = cls.__dict__[attr].func
    return state


def _changed(before: dict, after: dict) -> set:
    missing = object()
    return {key for key in before.keys() | after.keys()
            if before.get(key, missing) is not after.get(key, missing)}


def test_benchmark_tracer_wraps_and_restores_every_traced_name():
    # a traced name that a refactor deletes or renames breaks --trace 1 runs
    for name in ("cli", "colimit", "fincat", "kan", "machine", "tape"):
        importlib.import_module(f"tapecat.{name}")
    tracer = _load_tracer()
    before = _snapshot(tracer)
    with tracer.Tracer().installed():
        inside = _snapshot(tracer)
    wrapped = {(module, attr) for module, attr, _ in tracer.FUNCTIONS + tracer.COUNTED}
    for module, cls_name, attr, _ in tracer.METHODS:
        prop = isinstance(vars(getattr(sys.modules[module], cls_name))[attr],
                          functools.cached_property)
        wrapped.add(((module, cls_name), attr + ".func" if prop else attr))
    assert {key for key in wrapped if inside.get(key, before[key]) is before[key]} == set()
    assert _changed(before, _snapshot(tracer)) == set()
