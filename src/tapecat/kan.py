"""Rule-free evaluation of the update by colimit gluing.

Every placement of a shape-category window in the input contributes one
copy of its generator; aligned window inclusions contribute the edges.
Gluing that diagram reproduces the updated string, so the update can be
computed from the precomputed shape category alone.  The evaluator is
firewalled from the rule table: all rule knowledge reaches it compiled
into the shape category's objects, which is what keeps the equivalence
sweep against the direct oracle honest.

Evaluation is one left-to-right pass over the input.  A nonempty window
names its object, so at each right end one dictionary lookup per window
length places a node; its generator is glued at once, through
colimit.CellGluing, to those of its one-cell-smaller sub-windows, which
ended at most one cell earlier.  The value is then read off the quotient.
A traced evaluation reads its diagram off that same pass, the placed
windows and the joins between them, and renumbers it in the shape
category's order; nothing is glued a second time.

Since a join's source window ends at most one cell before its target's, a
class whose cells all lie in nodes ending two or more cells back can never
be identified again (Hedlund 1969: sliding-block locality).  Once the pass
holds some thousands of cells, evaluate therefore closes such classes
(CellGluing.close): it emits their labels and drops their cells, so it
holds only the frontier and the emitted word.  Only a held state that
glues is closed, along the path that CellGluing.result reads off it, so
every closing happens on a glued prefix of the input; a state that does
not glue stays held, and if the finished pass does not glue, evaluation
goes to a second pass over the same input that closes nothing, whose
value or error (class, message, nodes and cells) is the answer.  A fault
therefore costs two passes, and its report is that of the whole diagram.
A traced evaluation closes nothing.

The pass is resumable: its state after the right ends of x is all that
placing the windows of x·c needs.  The equivalence sweep therefore walks
the trie of strings depth-first, and each child extends a copy of its
parent's state by its one new right end instead of re-running the pass
from the first cell (Hedlund 1969: the update at a cell depends only on a
bounded window).
"""

from __future__ import annotations

import sys
import weakref
from bisect import bisect_left
from dataclasses import dataclass

from .colimit import CellGluing, GlueError
from .machine import MachineSpec, ShapeCategory, SweepOutcome, apply, shape_category
from .tape import AlphabetMismatch, Occurrence, TapeString


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
    """Plain-data view of a shape category for the evaluation pass.

    A nonempty window names its object, so the objects with nonempty
    windows are indexed per window length, shortest first (a level);
    objects with an empty window are placed once, at offset 0.  Each object
    lists the morphisms into it from one-cell-smaller generators: ``joins``
    those from nonempty windows as (source level, lag, offset, morphism
    index), the source window ending ``lag`` cells before the destination
    window; ``unwindowed_joins`` those from empty windows as (source node,
    morphism index), the pass placing ``unwindowed`` first, as nodes
    0, 1, ...
    """

    def __init__(self, shape: ShapeCategory) -> None:
        objects = shape.objects
        self.generators = [o.generator.cells for o in objects]
        self.window_lengths = [o.window.length for o in objects]
        self.unwindowed = [k for k, o in enumerate(objects) if o.window.is_empty()]
        unwindowed_node = {k: node for node, k in enumerate(self.unwindowed)}
        by_length: dict[int, dict[str, int]] = {}
        for k, o in enumerate(objects):
            if not o.window.is_empty():
                by_length.setdefault(o.window.length, {})[o.window.cells] = k
        self.levels = sorted(by_length.items())
        level_of = {n: i for i, (n, _) in enumerate(self.levels)}
        index = {o.name: k for k, o in enumerate(objects)}
        self.joins: list[list[tuple[int, int, int, int]]] = [[] for _ in objects]
        self.unwindowed_joins: list[list[tuple[int, int]]] = [[] for _ in objects]
        for mor_idx, m in enumerate(shape.morphisms):
            src, dst = index[m.src], index[m.dst]
            if len(self.generators[dst]) - len(self.generators[src]) != 1:
                continue
            if objects[src].window.is_empty():
                self.unwindowed_joins[dst].append((unwindowed_node[src], mor_idx))
                continue
            # windows are generators plus 2r cells, so the sub-window of a
            # one-cell-larger window ends at the same cell or one before
            lag = self.window_lengths[dst] - self.window_lengths[src] - m.offset
            self.joins[dst].append((level_of[self.window_lengths[src]], lag, m.offset, mor_idx))


_compiled: "weakref.WeakKeyDictionary[ShapeCategory, _CompiledShape]" = weakref.WeakKeyDictionary()


def _compile(shape: ShapeCategory) -> _CompiledShape:
    cached = _compiled.get(shape)
    if cached is None:
        cached = _compiled[shape] = _CompiledShape(shape)
    return cached


# A closing pass closes finished classes each time it has added this many
# cells since it last did (or more, while closing stalls; see _Pass.close).
_CLOSE_AT = 4096


class _Pass:
    """The state of the evaluation pass over a prefix of the input.

    ``gluing`` holds the nodes placed so far; per held node in placement
    order, ``placed`` is its object index and ``ends`` the right end of its
    window.  ``previous`` and ``current`` hold, per level, the node whose
    window ends one cell before ``end`` and the one ending at it (or None);
    ``end`` is the next right end to place.  A closing pass closes the
    gluing's finished classes once it holds ``limit`` cells, so it holds
    only the frontier; any other pass holds every node.
    """

    __slots__ = ("gluing", "placed", "ends", "previous", "current", "end", "limit")

    def __init__(self, compiled: _CompiledShape, closing: bool) -> None:
        self.gluing = CellGluing()
        self.placed = list(compiled.unwindowed)
        self.ends = [0] * len(self.placed)
        for k in self.placed:
            self.gluing.add(compiled.generators[k])
        self.previous: list[int | None] = [None] * len(compiled.levels)
        self.current: list[int | None] = [None] * len(compiled.levels)
        self.end = 0
        self.limit = _CLOSE_AT if closing else sys.maxsize

    def copy(self) -> _Pass:
        """An independent state: extending either leaves the other as it was."""
        twin = object.__new__(_Pass)
        twin.gluing = self.gluing.copy()
        twin.placed, twin.ends = self.placed.copy(), self.ends.copy()
        twin.previous, twin.current = self.previous.copy(), self.current.copy()
        twin.end, twin.limit = self.end, self.limit
        return twin

    def close(self, end: int, nodes: list[int | None]) -> int:
        """Before placing the windows ending at ``end``, close the classes
        held by nodes ending two or more cells back, which no later join
        reaches (a join's source ends at most one cell before its target);
        renumbers the held nodes, ``nodes`` among them, and returns the new
        limit."""
        gluing = self.gluing
        frontier = bisect_left(self.ends, end - 1)
        dropped = gluing.close(frontier)
        if dropped:
            del self.placed[:dropped], self.ends[:dropped]
            nodes[:] = [None if node is None else node - dropped for node in nodes]
            frontier -= dropped
        # cells of finished nodes still held wait on their neighbours; waiting
        # for as many new cells keeps the pass linear when closing stalls
        waiting = gluing.starts[frontier] if frontier < len(gluing.starts) else len(gluing.parent)
        self.limit = len(gluing.parent) + max(_CLOSE_AT, waiting)
        return self.limit


def _place_and_glue(compiled: _CompiledShape, state: _Pass, x_cells: str) -> None:
    """Extend the left-to-right pass over x from ``state.end`` to its last
    right end: at each, place the window ending there at every length and
    glue its generator at once to those of its one-cell-smaller sub-windows,
    placed at most one step earlier.

    ``state`` must hold the pass over x's right ends before ``state.end``.
    """
    generators, joins = compiled.generators, compiled.joins
    gluing = state.gluing
    add, identify = gluing.add, gluing.identify
    placed, ends = state.placed, state.ends
    levels = [(level, length, by_window.get)
              for level, (length, by_window) in enumerate(compiled.levels)]
    previous, current, limit = state.previous, state.current, state.limit
    for end in range(state.end, len(x_cells) + 1):
        previous, current = current, previous
        if len(gluing.parent) >= limit:
            limit = state.close(end, previous)
        for level, length, lookup in levels:
            k = lookup(x_cells[end - length : end]) if end >= length else None
            if k is None:
                current[level] = None
                continue
            node = current[level] = add(generators[k])
            placed.append(k)
            ends.append(end)
            for src_level, lag, off, _ in joins[k]:
                identify((previous if lag else current)[src_level], node, off)
    state.previous, state.current = previous, current
    state.end = len(x_cells) + 1


def _check_alphabet(shape: ShapeCategory, x: TapeString) -> None:
    if x.alphabet != shape.alphabet:
        raise AlphabetMismatch(f"{x} is not over the shape category's alphabet")


def _glued(shape: ShapeCategory, x: TapeString, closing: bool = True
           ) -> tuple[str, list[int], _Pass]:
    """Place the windows in x and glue their generators in one pass: the
    value's cells, the leg offsets of the held nodes and the final pass."""
    _check_alphabet(shape, x)
    compiled = _compile(shape)
    state = _Pass(compiled, closing)
    _place_and_glue(compiled, state, x.cells)
    return _read_off(shape, x, state)


def _read_off(shape: ShapeCategory, x: TapeString, state: _Pass,
              ) -> tuple[str, list[int], _Pass]:
    """The value's cells and held legs of a finished pass over x, and the
    pass they were read off.  A GlueError also names the input cells of its
    nodes' window placements.  A pass that closed classes cannot name the
    nodes of a fault, so when its held state does not glue, x is glued again
    without closing, and that pass's value or error is the answer."""
    try:
        cells, legs = state.gluing.result()
    except GlueError as exc:
        if not state.gluing.closed:
            lengths = _compile(shape).window_lengths
            exc.cells = tuple((state.ends[i] - lengths[state.placed[i]], state.ends[i])
                              for i in exc.nodes)
            raise
    else:
        return cells, legs, state
    return _glued(shape, x, closing=False)


def evaluate(shape: ShapeCategory, x: TapeString) -> TapeString:
    """Update x without consulting any rule: glue the generators of all
    windows placed in x along their aligned inclusions."""
    return TapeString(shape.alphabet, _glued(shape, x)[0])


def evaluate_traced(shape: ShapeCategory, x: TapeString) -> tuple[TapeString, EvalTrace]:
    """As evaluate, also returning the glued diagram as an EvalTrace.

    The edges are read off the finished pass, which closes nothing: each
    placed node is joined to the windows its object's joins name, which the
    pass placed ending at the same cell or one before.  The trace renumbers
    nodes by (object, offset) and edges by (morphism, target offset), the
    order of the shape category's own enumeration.
    """
    cells, legs, state = _glued(shape, x, closing=False)
    compiled = _compile(shape)
    lengths = compiled.window_lengths
    nodes = list(enumerate(zip(state.placed, state.ends)))
    node_at = {(lengths[k], end): n for n, (k, end) in nodes}
    edges = [(node_at[compiled.levels[level][0], end - lag], n, off, mor)
             for n, (k, end) in nodes for level, lag, off, mor in compiled.joins[k]]
    edges += [(src, n, 0, mor) for n, (k, _) in nodes for src, mor in compiled.unwindowed_joins[k]]
    placements = [(k, end - lengths[k]) for k, end in zip(state.placed, state.ends)]
    order = sorted(range(len(placements)), key=placements.__getitem__)
    renumber = {old: new for new, old in enumerate(order)}
    edges.sort(key=lambda e: (e[3], placements[e[1]][1]))
    value = TapeString(shape.alphabet, cells)
    return value, EvalTrace(
        x, shape, [placements[i] for i in order],
        [(renumber[s], renumber[d], off, mor) for s, d, off, mor in edges],
        value, [legs[i] for i in order])


# ---------------------------------------------------------------------------
# the oracle-equivalence sweep


def equivalence_sweep(spec: MachineSpec, max_len: int,
                      shape: ShapeCategory | None = None) -> SweepOutcome:
    """Compare colimit evaluation against the direct rule on every string up
    to max_len: one case per string, one failure line per mismatch; a
    lawful machine must show none.

    The strings are walked as a trie, depth-first in alphabet order: a
    string's pass state, copied, is resumed for one more right end by each
    of its children, and every string's value is read off its pass state as
    evaluate reads it.  A negative max_len visits no string.
    Mismatches are reported shortest string first, then in alphabet order.
    """
    if shape is None:
        shape = shape_category(spec)
    alphabet = spec.alphabet
    _check_alphabet(shape, TapeString.empty(alphabet))
    compiled = _compile(shape)
    cases = 0
    found: list[tuple[int, str]] = []
    *others, last = alphabet.symbols
    stack = [("", _Pass(compiled, closing=True))] if max_len >= 0 else []
    while stack:
        cells, state = stack.pop()
        _place_and_glue(compiled, state, cells)
        cases += 1
        x = TapeString(alphabet, cells)
        want = apply(spec, x)
        try:
            got = _read_off(shape, x, state)[0]
        except GlueError as exc:
            found.append((len(cells), f"{x}: glue failed: {exc}"))
        else:
            if got != want.cells:
                found.append((len(cells), f"{x}: evaluated {TapeString(alphabet, got)}, "
                                          f"rule gives {want}"))
        if len(cells) < max_len:
            # pushed in reverse so the first symbol pops first; the last
            # symbol's child, popped after its siblings, takes the state itself
            stack.append((cells + last, state))
            stack.extend((cells + c, state.copy()) for c in reversed(others))
    # depth-first order lists each length in alphabet order already, so a
    # stable sort by length gives the order of tape.all_strings
    found.sort(key=lambda item: item[0])
    return SweepOutcome(cases, [line for _, line in found])

