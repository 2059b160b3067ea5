"""Per-layer tracing for the benchmark's traced runs (``--trace 1``).

The tracer replaces the public functions at each module boundary of tapecat
with timing wrappers, at every site that imported them (for example
``tapecat.kan.glue_cells`` as well as ``tapecat.colimit.glue_cells``), and
puts the originals back afterwards.  Timed runs never install it.

Each wrapped call records a span (name, start, end, parent, op id), kept in
flat arrays in memory and written out when the run ends.  A span's self time
is its duration minus the durations of its direct children; spans of one
thread nest, so the children never overlap.  Hot leaf functions that would
swamp the run with spans (``tape.hom``) are counted, not timed.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

COMMAND = "cli.command"

# (module, attribute, span name); the span's calls are counted from the spans.
FUNCTIONS = (
    ("tapecat.machine", "parse_machine", "machine.parse_machine"),
    ("tapecat.machine", "validate_machine", "machine.validate_machine"),
    ("tapecat.machine", "shape_category", "machine.shape_category"),
    ("tapecat.machine", "apply", "machine.apply"),
    ("tapecat.machine", "universality_check", "machine.universality_check"),
    ("tapecat.machine", "adjunction_sweep", "machine.adjunction_sweep"),
    ("tapecat.machine", "functoriality_sweep", "machine.functoriality_sweep"),
    ("tapecat.kan", "evaluate", "kan.evaluate"),
    ("tapecat.colimit", "glue_cells", "colimit.glue_cells"),
    ("tapecat.colimit", "glue", "colimit.glue"),
    ("tapecat.colimit", "density_check", "colimit.density_check"),
    ("tapecat.colimit", "canonical_diagram", "colimit.canonical_diagram"),
    ("tapecat.fincat", "validate_category", "fincat.validate_category"),
)
# (module, class, attribute, span name) for methods and properties.
METHODS = (
    ("tapecat.machine", "ShapeCategory", "presentation", "machine.presentation"),
    ("tapecat.fincat", "FinCatPresentation", "dumps", "fincat.dumps"),
    ("tapecat.fincat", "FinCatPresentation", "loads", "fincat.loads"),
)
COUNTED = (("tapecat.tape", "hom", "tape.hom.calls"),)

# Per-layer metrics: seconds, self seconds and calls derive from spans.
TIMED = [name for *_, name in FUNCTIONS + METHODS] + [COMMAND]
SELF_TIMED = ("kan.evaluate", COMMAND)
CALLED = ("kan.evaluate", "colimit.glue_cells", "machine.apply", "machine.universality_check")


def _tapecat_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "tapecat" or name.startswith("tapecat.")]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter[str] = Counter()
        self.memo: Counter[str] = Counter()
        self.largest: dict[str, int] = {}  # sizes: the largest seen in the run
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def command_span(self):
        idx = self._open(self._intern(COMMAND))
        try:
            yield
        finally:
            self._close(idx)

    def _timed(self, name: str, fn, observe=None):
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(idx)
                self.counts[name + ".errors"] += 1
                raise
            self._close(idx)
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- observers of arguments and results ----------------------------------

    def _glue_cells(self, args, result) -> None:
        values, edges = args[0], args[1]
        self.counts["colimit.nodes"] += len(values)
        self.counts["colimit.edges"] += len(edges) if hasattr(edges, "__len__") else 0
        self.counts["colimit.cells"] += sum(map(len, values))

    def _universality(self, args, report) -> None:
        self.counts["machine.universality.candidates"] += report.candidates

    def _largest(self, key: str, value: int) -> None:
        self.largest[key] = max(self.largest.get(key, 0), value)

    def _shape(self, args, shape) -> None:
        self._largest("machine.shape.objects", len(shape.objects))
        self._largest("machine.shape.morphisms", len(shape.morphisms))

    def _presentation(self, args, cat) -> None:
        self._largest("fincat.table_entries", len(cat.table))

    # -- installing ----------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in _tapecat_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        observers = {"colimit.glue_cells": self._glue_cells,
                     "machine.universality_check": self._universality,
                     "machine.shape_category": self._shape,
                     "machine.presentation": self._presentation}
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._patch_everywhere(original, self._timed(name, original, observers.get(name)))
        for module, attr, key in COUNTED:
            original = getattr(sys.modules[module], attr)
            self._patch_everywhere(original, self._counted(key, original))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                # cached_property looks its function up on every miss
                self._patches.append((original, "func", original.func))
                original.func = self._timed(name, original.func, observers.get(name))
            elif isinstance(original, classmethod):
                self._patches.append((cls, attr, original))
                setattr(cls, attr, classmethod(self._timed(name, original.__func__)))
            else:
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._timed(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _memo_info(self):
        update_cells = getattr(sys.modules["tapecat.machine"], "_update_cells", None)
        return update_cells.cache_info() if update_cells is not None else None

    @contextlib.contextmanager
    def installed(self):
        """Trace one op: wrappers in, memo statistics diffed around it."""
        self.op_id += 1
        self.install()
        before = self._memo_info()
        try:
            yield
        finally:
            after = self._memo_info()
            self.uninstall()
            if after is not None:
                self.memo["hits"] += after.hits - before.hits
                self.memo["misses"] += after.misses - before.misses
                self._largest("machine.update_memo.size", after.currsize)

    # -- results -------------------------------------------------------------

    def _durations(self):
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, child

    def summary(self, ops: int, overhead_ratio: float
                ) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metrics, per traced op, and any problems found.

        ``overhead_ratio`` is the median traced op time over the median
        untraced one; it is reported, and it bounds how far the self times
        under a command span may stray from the command's wall time.
        """
        dur, child = self._durations()
        total = Counter()
        self_total = Counter()
        calls = Counter()
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            total[name] += dur[i]
            self_total[name] += dur[i] - child[i]
            calls[name] += 1
        metrics: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            metrics[f"{name}.s"] = (total[name] / ops, "s")
        for name in SELF_TIMED:
            metrics[f"{name}.self_s"] = (self_total[name] / ops, "s")
        for name in CALLED:
            metrics[f"{name}.calls"] = (calls[name] / ops, "count")
        for key in ("colimit.nodes", "colimit.edges", "colimit.cells",
                    "machine.universality.candidates", "tape.hom.calls"):
            metrics[key] = (self.counts[key] / ops, "count")
        metrics["colimit.glue_errors"] = (self.counts["colimit.glue_cells.errors"] / ops, "count")
        for key in ("machine.shape.objects", "machine.shape.morphisms",
                    "fincat.table_entries", "machine.update_memo.size"):
            metrics[key] = (self.largest.get(key, 0), "count")
        lookups = self.memo["hits"] + self.memo["misses"]
        metrics["machine.update_memo.hits"] = (self.memo["hits"] / ops, "count")
        metrics["machine.update_memo.misses"] = (self.memo["misses"] / ops, "count")
        metrics["machine.update_memo.hit_ratio"] = (
            self.memo["hits"] / lookups if lookups else 0.0, "ratio")
        metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        problems = [f"{len(self._stack)} spans still open"] if self._stack else []
        return metrics, problems + self._check_self_times(dur, child, overhead_ratio - 1)

    def _check_self_times(self, dur, child, tolerance: float) -> list[str]:
        """Every span lies inside its parent, and the self times of each
        command span's subtree add up to the command's wall time within
        ``tolerance`` (a share of that wall time)."""
        tolerance = max(tolerance, 0.0)
        problems = []
        root = array("i", [0]) * len(dur)
        self_sum = Counter()
        for i in range(len(dur)):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0 and not (self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]):
                problems.append(f"span {i} ({self.names[self.name_id[i]]}) leaves its parent")
            self_sum[root[i]] += dur[i] - child[i]
        for i in range(len(dur)):
            if self.parent[i] < 0 and abs(self_sum[i] - dur[i]) > tolerance * dur[i] + 1e-9:
                problems.append(f"command span {i}: self times add to {self_sum[i]:.6f}s, "
                                f"wall {dur[i]:.6f}s")
        return problems[:5]

    def write(self, path: Path) -> None:
        """Spans as tab-separated text, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}"
                          f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
