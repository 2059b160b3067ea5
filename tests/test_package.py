"""The package's public names, and the names the benchmark tracer wraps."""

from __future__ import annotations

import functools
import importlib
import sys
import types
from pathlib import Path

import tapecat

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    assert [name for name in tapecat.__all__ if not hasattr(tapecat, name)] == []


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
