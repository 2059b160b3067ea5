"""Rule-free evaluation of the update by colimit gluing.

Every placement of a shape-category window in the input contributes one
copy of its generator; aligned window inclusions contribute the edges.
Gluing that diagram reproduces the updated string, so the update can be
computed from the precomputed shape category alone.  The evaluator is
firewalled from the rule table: all rule knowledge reaches it compiled
into the shape category's objects, which is what keeps the equivalence
sweep against the direct oracle honest.  A traced evaluation records the
very diagram evaluate glued; it is not built or glued a second time.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

from . import tape
from .colimit import GlueError, glue_cells
from .machine import (
    Explanation,
    MachineSpec,
    ShapeCategory,
    apply,
    causal_neighbourhood,
    shape_category,
)
from .tape import AlphabetMismatch, Occurrence, TapeString, find_all


@dataclass
class EvalTrace:
    """Audit record of one evaluation: the diagram evaluate glued, as raw data.

    Nodes are (object index, placement offset) pairs, edges are (source
    node, target node, offset, morphism index) tuples, and legs hold the
    offset of each node's generator in the value.
    """

    input: TapeString
    shape: ShapeCategory
    nodes: list[tuple[int, int]]
    edges: list[tuple[int, int, int, int]]
    value: TapeString
    legs: list[int]

    def render(self) -> str:
        objects = [self.shape.objects[k] for k, _ in self.nodes]
        lines = [f"input: {self.input}"]
        lines.append(f"nodes: {len(self.nodes)}")
        for k, (p_obj, (_, q)) in enumerate(zip(objects, self.nodes)):
            lines.append(f"  n{k}: {p_obj.name} placed {Occurrence(p_obj.window, self.input, q)}")
        lines.append(f"edges: {len(self.edges)}")
        for src, dst, off, mor_idx in self.edges:
            occ = Occurrence(objects[src].generator, objects[dst].generator, off)
            lines.append(f"  n{src} -> n{dst} via {self.shape.morphisms[mor_idx].name} "
                         f"carrying ({occ})")
        lines.append(f"value: {self.value}")
        for k, (p_obj, leg) in enumerate(zip(objects, self.legs)):
            lines.append(f"  leg n{k}: {Occurrence(p_obj.generator, self.value, leg)}")
        return "\n".join(lines)


class _CompiledShape:
    """Plain-string view of a shape category for the evaluation hot path."""

    def __init__(self, shape: ShapeCategory) -> None:
        self.generators = [o.generator.cells for o in shape.objects]
        self.windows = [o.window.cells for o in shape.objects]
        index = {o.name: k for k, o in enumerate(shape.objects)}
        self.step_edges = [
            (index[m.src], index[m.dst], m.offset, k)
            for k, m in enumerate(shape.morphisms)
            if len(shape.object(m.dst).generator) - len(shape.object(m.src).generator) == 1
        ]


_compiled: "weakref.WeakKeyDictionary[ShapeCategory, _CompiledShape]" = weakref.WeakKeyDictionary()


def _compile(shape: ShapeCategory) -> _CompiledShape:
    cached = _compiled.get(shape)
    if cached is None:
        cached = _compiled[shape] = _CompiledShape(shape)
    return cached


def _indexed_diagram(shape: ShapeCategory, x_cells: str):
    """Nodes, edges and node values of the evaluation diagram, on raw data.

    Nodes are (object index, window placement offset) pairs; an edge joins
    the sub-window placement induced by each one-cell-larger morphism.
    """
    compiled = _compile(shape)
    nodes: list[tuple[int, int]] = []
    node_index: dict[tuple[int, int], int] = {}
    placements: list[list[int]] = []
    for k, window in enumerate(compiled.windows):
        offs = [0] if not window else find_all(window, x_cells)
        placements.append(offs)
        for q in offs:
            node_index[(k, q)] = len(nodes)
            nodes.append((k, q))
    edges: list[tuple[int, int, int, int]] = []
    for src, dst, j, mor_idx in compiled.step_edges:
        src_empty = not compiled.generators[src]
        for q in placements[dst]:
            src_q = 0 if src_empty else q + j
            edges.append((node_index[(src, src_q)], node_index[(dst, q)],
                          0 if src_empty else j, mor_idx))
    values = [compiled.generators[k] for k, _ in nodes]
    return nodes, edges, values


def _glued(shape: ShapeCategory, x: TapeString):
    """Place the windows in x and glue their generators once: the value,
    the raw nodes and edges of the diagram, and the leg offsets."""
    if x.alphabet != shape.alphabet:
        raise AlphabetMismatch(f"{x} is not over the shape category's alphabet")
    nodes, edges, values = _indexed_diagram(shape, x.cells)
    cells, legs = glue_cells(values, [(s, d, off) for s, d, off, _ in edges])
    return TapeString(shape.alphabet, cells), nodes, edges, legs


def evaluate(shape: ShapeCategory, x: TapeString) -> TapeString:
    """Update x without consulting any rule: glue the generators of all
    windows placed in x along their aligned inclusions."""
    return _glued(shape, x)[0]


def evaluate_traced(shape: ShapeCategory, x: TapeString) -> tuple[TapeString, EvalTrace]:
    """As evaluate, also returning the glued diagram as an EvalTrace."""
    value, nodes, edges, legs = _glued(shape, x)
    return value, EvalTrace(x, shape, nodes, edges, value, legs)


# ---------------------------------------------------------------------------
# the oracle-equivalence sweep


@dataclass
class SweepReport:
    max_len: int
    inputs: int = 0
    mismatches: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        return f"inputs={self.inputs} mismatches={len(self.mismatches)} max_len={self.max_len}"


def equivalence_sweep(spec: MachineSpec, max_len: int,
                      shape: ShapeCategory | None = None) -> SweepReport:
    """Compare colimit evaluation against the direct rule on every string up
    to max_len; a lawful machine must show zero mismatches."""
    if shape is None:
        shape = shape_category(spec)
    report = SweepReport(max_len)
    started = time.perf_counter()
    for x in tape.all_strings(spec.alphabet, max_len):
        report.inputs += 1
        want = apply(spec, x)
        try:
            got = evaluate(shape, x)
        except GlueError as exc:
            report.mismatches.append(f"{x}: glue failed: {exc}")
            continue
        if got != want:
            report.mismatches.append(f"{x}: evaluated {got}, rule gives {want}")
    report.elapsed = time.perf_counter() - started
    return report


def explain(spec: MachineSpec, x: TapeString, start: int, stop: int) -> Explanation:
    """Causal neighbourhood of the updated cells [start, stop) of x."""
    ux = apply(spec, x)
    if not 0 <= start <= stop <= ux.length:
        raise ValueError(f"cell range [{start}, {stop}) outside the update of {x} "
                         f"({ux.length} cells)")
    part = ux.segment(start, stop)
    p = Occurrence(part, ux, start if not part.is_empty() else 0)
    return causal_neighbourhood(spec, p, x)
