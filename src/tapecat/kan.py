"""The shape category, and rule-free evaluation by colimit gluing.

Every placement of a shape-category window in the input contributes one
copy of its generator; aligned window inclusions contribute the edges.
Gluing that diagram reproduces the updated string, so the update can be
computed from the precomputed shape category alone.  The evaluator is
firewalled from the rule table, and the imports hold the firewall: this
module imports only colimit, fincat and tape, so all rule knowledge
reaches it compiled into the shape category's objects, which is what
keeps machine's equivalence sweep against the direct oracle honest.

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
be identified again (Hedlund 1969: sliding-block locality).  evaluate
therefore places the right ends in stretches of _CLOSE_AT and closes such
classes between stretches (CellGluing.close): it emits their labels and
drops their cells, so it holds only the frontier and the emitted word.
Only a held state that glues is closed, along the path that
CellGluing.result reads off it, so every closing happens on a glued
prefix of the input.  The first close that meets a state that does not
glue raises and ends closing.  If a pass that closed something does not
glue, evaluation goes to a second pass over the same input that closes
nothing, whose value or error (class, message, nodes and cells) is the
answer, so every error report is that of the whole diagram.  A traced
evaluation and evaluate_all close nothing.

The pass is resumable: its state after the right ends of x is all that
placing the windows of x·c needs.  evaluate_all therefore walks the trie
of strings depth-first, and each child extends a copy of its parent's
state by its one new right end instead of re-running the pass from the
first cell (Hedlund 1969: the update at a cell depends only on a bounded
window).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .colimit import CellGluing, GlueError, MalformedDiagram
from .fincat import DenseSubcategory, FinCatPresentation, FunctorData, TapeCategory
from .tape import Alphabet, AlphabetMismatch, Occurrence, TapeString


@dataclass(frozen=True)
class ShapeObject:
    """A generator together with one window that explains it."""

    name: str
    generator: TapeString
    window: TapeString


@dataclass(frozen=True)
class ShapeMorphism:
    name: str
    src: str
    dst: str
    offset: int


class ShapeCategory:
    """The finite category of (generator, explaining window) pairs.

    Morphisms are the simultaneous occurrences of a generator in a larger
    generator and of its window in the larger window, at the same offset;
    an object's identity is its morphism to itself at offset 0.  It depends
    only on the machine and the generators, never on any input state, so it
    is precomputed once (machine.shape_category) and handed to evaluate.
    """

    def __init__(self, alphabet: Alphabet, objects: tuple[ShapeObject, ...],
                 morphisms: tuple[ShapeMorphism, ...]) -> None:
        self.alphabet = alphabet
        self.objects = objects
        self.morphisms = morphisms
        self._by_name = {o.name: o for o in objects}
        for m in morphisms:
            if m.src not in self._by_name or m.dst not in self._by_name:
                raise MalformedDiagram(f"morphism {m.name} names an object not in the category")

    def without_object(self, name: str) -> ShapeCategory:
        """A corrupted copy with one object (and its morphisms) deleted;
        for fault-injection tests.  Raises ValueError when no object has
        that name, which would inject no fault."""
        if name not in self._by_name:
            raise ValueError(f"{name} is not an object of the shape category")
        objects = tuple(o for o in self.objects if o.name != name)
        morphisms = tuple(m for m in self.morphisms if m.src != name and m.dst != name)
        return ShapeCategory(self.alphabet, objects, morphisms)

    @cached_property
    def compiled(self) -> _CompiledShape:
        """The plain-data view that the evaluation pass reads."""
        return _CompiledShape(self)

    @cached_property
    def presentation(self) -> FinCatPresentation:
        cat = FinCatPresentation()
        for o in self.objects:
            cat.add_object(o.name)
        for m in self.morphisms:
            cat.add_morphism(m.name, m.src, m.dst)
        by_key = {(m.src, m.dst, m.offset): m.name for m in self.morphisms}
        for o in self.objects:
            if (o.name, o.name, 0) not in by_key:
                raise MalformedDiagram(f"object {o.name} has no identity morphism")
            cat.set_identity(o.name, by_key[(o.name, o.name, 0)])
        by_src: dict[str, list[ShapeMorphism]] = {}
        for m in self.morphisms:
            by_src.setdefault(m.src, []).append(m)
        for m1 in self.morphisms:
            from_empty = self._by_name[m1.src].generator.is_empty()
            for m2 in by_src.get(m1.dst, ()):
                off = 0 if from_empty else m1.offset + m2.offset
                composite = by_key.get((m1.src, m2.dst, off))
                if composite is None:
                    raise MalformedDiagram(f"morphisms {m1.name} then {m2.name} have no composite")
                cat.set_composite(m2.name, m1.name, composite)
        return cat

    def generator_functor(self, dense: DenseSubcategory) -> FunctorData:
        """Projection onto generators, landing in the dense subcategory."""
        obj_map = {o.name: str(o.generator) for o in self.objects}
        mor_map = {}
        for m in self.morphisms:
            src, dst = self._by_name[m.src], self._by_name[m.dst]
            off = 0 if src.generator.is_empty() else m.offset
            mor_map[m.name] = f"{src.generator}>{dst.generator}@{off}"
        return FunctorData(self.presentation, dense.presentation, obj_map, mor_map)

    def window_functor(self) -> FunctorData:
        """Projection onto windows, landing in the tape category."""
        obj_map = {o.name: o.window for o in self.objects}
        mor_map = {}
        for m in self.morphisms:
            src, dst = self._by_name[m.src], self._by_name[m.dst]
            off = 0 if src.window.is_empty() else m.offset
            mor_map[m.name] = Occurrence(src.window, dst.window, off)
        return FunctorData(self.presentation, TapeCategory(self.alphabet), obj_map, mor_map)


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
            if m.offset not in (0, 1):  # the generators differ by one cell
                raise MalformedDiagram(f"morphism {m.name} at offset {m.offset} is outside {m.dst}")
            if objects[src].window.is_empty():
                self.unwindowed_joins[dst].append((unwindowed_node[src], mor_idx))
                continue
            # windows are generators plus 2r cells, so the sub-window of a
            # one-cell-larger window ends at the same cell or one before
            lag = self.window_lengths[dst] - self.window_lengths[src] - m.offset
            if lag not in (0, 1):
                raise MalformedDiagram(f"morphism {m.name} joins windows ending {lag} cells apart")
            self.joins[dst].append((level_of[self.window_lengths[src]], lag, m.offset, mor_idx))


# A closing pass closes finished classes after every stretch of this many
# right ends.  A right end places at most one node per level, and the levels'
# generators have 1 and 2 cells, so a stretch adds at most 4,095 cells.
_CLOSE_AT = 1365


class _Pass:
    """The state of the evaluation pass over a prefix of the input.

    ``gluing`` holds the nodes placed so far; per held node in placement
    order, ``placed`` is its object index and ``ends`` the right end of its
    window.  ``previous`` and ``current`` hold, per level, the node whose
    window ends two cells before ``end`` and the one ending one cell before
    it (or None); ``end`` is the next right end to place.  The pass holds
    every node it placed until ``close`` drops the finished ones.
    """

    __slots__ = ("gluing", "placed", "ends", "previous", "current", "end")

    def __init__(self, compiled: _CompiledShape) -> None:
        self.gluing = CellGluing()
        self.placed = list(compiled.unwindowed)
        self.ends = [0] * len(self.placed)
        for k in self.placed:
            self.gluing.add(compiled.generators[k])
        self.previous: list[int | None] = [None] * len(compiled.levels)
        self.current: list[int | None] = [None] * len(compiled.levels)
        self.end = 0

    def copy(self) -> _Pass:
        """An independent state: extending either leaves the other as it was."""
        twin = object.__new__(_Pass)
        twin.gluing = self.gluing.copy()
        twin.placed, twin.ends = self.placed.copy(), self.ends.copy()
        twin.previous, twin.current = self.previous.copy(), self.current.copy()
        twin.end = self.end
        return twin

    def close(self) -> None:
        """Close the classes held by nodes ending two or more cells before
        ``end``, which no later join reaches (a join's source ends at most
        one cell before its target), and renumber the held nodes; raises,
        closing nothing, when the held state does not glue."""
        dropped = self.gluing.close(bisect_left(self.ends, self.end - 1))
        if dropped:
            del self.placed[:dropped], self.ends[:dropped]
            self.current = [None if node is None else node - dropped for node in self.current]


def _place_and_glue(compiled: _CompiledShape, state: _Pass, x_cells: str, stop: int) -> None:
    """Extend the left-to-right pass over x from ``state.end`` to right end
    ``stop``, exclusive: at each right end, place the window ending there at
    every length and glue its generator at once to those of its
    one-cell-smaller sub-windows, placed at most one step earlier.

    ``state`` must hold the pass over x's right ends before ``state.end``.
    """
    generators, joins = compiled.generators, compiled.joins
    add, identify = state.gluing.add, state.gluing.identify
    placed, ends = state.placed, state.ends
    levels = [(level, length, by_window.get)
              for level, (length, by_window) in enumerate(compiled.levels)]
    previous, current = state.previous, state.current
    for end in range(state.end, stop):
        previous, current = current, previous
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
    state.end = stop


def _glued(shape: ShapeCategory, x: TapeString, closing: bool = True
           ) -> tuple[str, list[int], _Pass]:
    """Place the windows in x and glue their generators in one pass: the
    value's cells, the leg offsets of the held nodes and the final pass.
    A closing pass closes after every _CLOSE_AT right ends that more right
    ends follow, until a close raises.  A GlueError also names the input
    cells of its nodes' window placements.  A pass that closed classes
    cannot name the nodes of a fault, so when its held state does not glue,
    x is glued again without closing, and that pass's value or error is the
    answer."""
    if x.alphabet != shape.alphabet:
        raise AlphabetMismatch(f"{x} is not over the shape category's alphabet")
    compiled = shape.compiled
    state = _Pass(compiled)
    stop = len(x) + 1
    while closing and state.end + _CLOSE_AT < stop:
        _place_and_glue(compiled, state, x.cells, state.end + _CLOSE_AT)
        try:
            state.close()
        except GlueError:
            break
    _place_and_glue(compiled, state, x.cells, stop)
    try:
        cells, legs = state.gluing.result()
    except GlueError as exc:
        if not state.gluing.closed:
            lengths = compiled.window_lengths
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
    compiled = shape.compiled
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


def evaluate_all(shape: ShapeCategory, max_len: int) -> Iterator[tuple[str, str | GlueError]]:
    """Evaluate every string of at most max_len cells without consulting
    any rule: yield its cells with its value's cells, or with the GlueError
    that gluing raised (naming nodes, not cells).  The strings come from
    the trie, depth-first, so each length in alphabet order: a string's
    pass, copied, is resumed for one more right end by each child, and is
    read as evaluate reads it; these passes close nothing.  A negative
    max_len yields nothing."""
    compiled = shape.compiled
    *others, last = shape.alphabet.symbols
    stack = [("", _Pass(compiled))] if max_len >= 0 else []
    while stack:
        cells, state = stack.pop()
        _place_and_glue(compiled, state, cells, len(cells) + 1)
        try:
            value: str | GlueError = state.gluing.result()[0]
        except GlueError as exc:
            value = exc
        yield cells, value
        if len(cells) < max_len:
            # pushed in reverse so the first symbol pops first; the last
            # symbol's child, popped after its siblings, takes the state itself
            stack.append((cells + last, state))
            stack.extend((cells + c, state.copy()) for c in reversed(others))
