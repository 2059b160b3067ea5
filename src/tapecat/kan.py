"""The shape category, and rule-free evaluation by colimit gluing.

Every placement of a shape-category window in the input contributes one
copy of its generator; aligned window inclusions contribute the edges.
Gluing that diagram reproduces the updated string, so the update can be
computed from the precomputed shape category alone.  The evaluator is
firewalled from the rule table, and the imports hold the firewall: this
module imports only colimit, fincat and tape, so all rule knowledge
reaches it compiled into the shape category's objects, which is what
keeps machine's equivalence and functor sweeps against the rule honest.

Evaluation is one left-to-right pass over the input.  A nonempty window
names its object, so at each right end one dictionary lookup per window
length places a node; its generator is glued at once, through
colimit.CellGluing, to those of its one-cell-smaller sub-windows, which
ended at most one cell earlier.  The value is then read off the quotient.
evaluate_traced runs that pass without closing anything and reads the
placed windows and their legs off it, in the shape category's order; its
trace builds the diagram's edges, the joins between those windows, only
when they are read, and nothing is glued a second time.

Since a join's source window ends at most one cell before its target's, a
class whose cells all lie in nodes ending two or more cells back can never
be identified again (Hedlund 1969: sliding-block locality).
CellGluing.close closes such classes: it emits their labels and drops
their cells, so the pass holds only the frontier and the emitted word.
Only a held state that glues is closed, along the path that
CellGluing.result reads off it, so every closing happens on a glued
prefix of the input; a close that meets a state that does not glue raises.

A sliding-block code is a finite-state transducer (Hedlund 1969), and
evaluate runs the pass as one.  It closes at every right end and interns
the held quotient, not the objects that built it, so passes that glue
alike share one state (_CompiledShape._intern).  The compiled shape
memoises per state and next cell the emitted cells and the next state,
and per state the word held when the input ends.  The memo is
filled only by gluing, so evaluate never reads the rule table.  An input
that would intern more than _MEMO_CAP states goes on from the last state
it reached, closing after every _CLOSE_AT right ends instead of every one.
One fallback keeps every answer that of the whole diagram: an input on
which a step, or a close or the final read past a full memo, does not
glue is glued again by the pass that closes nothing, evaluate_traced,
whose value or error (class, message, nodes and cells) is the answer.

The pass is resumable: its state after the right ends of x is all that
placing the windows of x·c needs (Hedlund 1969: the update at a cell
depends only on a bounded window).  So a memo miss copies a state's
representative pass and glues one right end on it, instead of re-running
the pass from the input's first cell.

The same resumption lets walk serve every exhaustive sweep.  It extends
each string by one memo step from its prefix's state, and extends the
reference that the sweep compares it with by what the reference adds for
the last cell: the rule's output for the last window in the equivalence
sweep, the cell itself in density_sweep (the identity update over the
generators' (g|g) shape).  Strings that reach one state, with the same
last cells that the reference reads and as many cells left to the bound,
have alike subtrees (Moore 1956: equivalent states of a machine).  So once
such a subtree passed by memo steps alone, the walk skips the next one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

from .colimit import CellGluing, GlueError, density_check
from .fincat import (FinCatPresentation, FunctorData, MalformedDiagram, occurrence_category,
                     occurrence_inclusion, occurrence_name)
from .tape import Alphabet, AlphabetMismatch, Occurrence, TapeString


@dataclass(frozen=True)
class ShapeObject:
    """A generator together with one window that explains it, named
    ``(generator|window)``."""

    generator: TapeString
    window: TapeString
    name: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", f"({self.generator.cells}|{self.window.cells})")


class ShapeMorphism(NamedTuple):
    """A morphism, itself the (name, src, dst, offset) tuple that occurrence_category reads."""

    name: str
    src: str
    dst: str
    offset: int


class ShapeCategory:
    """The finite category of (generator, explaining window) pairs.

    Morphisms are the simultaneous occurrences of a generator in a larger
    generator and of its window in the larger window, at the same offset;
    an object's identity is its morphism to itself at offset 0.  They are
    derived from the objects, which depend only on the machine and the
    generators, never on any input state, so the category is precomputed
    once (machine.shape_category) and handed to evaluate.
    """

    def __init__(self, alphabet: Alphabet, objects: tuple[ShapeObject, ...]) -> None:
        self.alphabet = alphabet
        self.objects = objects
        self._by_name = {o.name: o for o in objects}
        if len(self._by_name) != len(objects):  # only an object listed twice repeats a name
            seen: set[str] = set()
            for o in objects:
                if o.name in seen:
                    raise MalformedDiagram(f"{o.name} is listed twice")
                seen.add(o.name)
        # a nonempty window names its object, so each sub-window is one lookup
        by_window: dict[str, ShapeObject] = {}
        for o in objects:
            twin = by_window.setdefault(o.window.cells, o) if o.window.cells else o
            if twin is not o:
                raise MalformedDiagram(f"{twin.name} and {o.name} have the same window {o.window}")
        lengths = sorted({len(w) for w in by_window})
        into: dict[str, list[tuple[ShapeObject, int]]] = {o.name: [] for o in objects}
        for dst in objects:
            window, generator = dst.window.cells, dst.generator.cells
            for n in lengths:
                for j in range(len(window) - n + 1):
                    src = by_window.get(window[j : j + n])
                    if src is not None and generator.startswith(src.generator.cells, j):
                        into[src.name].append((dst, j))
        self.morphisms = tuple(
            ShapeMorphism(occurrence_name(src.name, dst.name, j), src.name, dst.name, j)
            for src in objects
            for dst, j in ([(dst, 0) for dst in objects] if src.generator.is_empty()
                           else into[src.name]))

    def without_object(self, name: str) -> ShapeCategory:
        """A corrupted copy with one object (and its morphisms) deleted;
        for fault-injection tests.  Raises ValueError when no object has
        that name, which would inject no fault."""
        if name not in self._by_name:
            raise ValueError(f"{name} is not an object of the shape category")
        return ShapeCategory(self.alphabet, tuple(o for o in self.objects if o.name != name))

    @cached_property
    def compiled(self) -> _CompiledShape:
        """The plain-data view that the evaluation pass reads, holding
        evaluate's step memo for this category."""
        return _CompiledShape(self)

    @cached_property
    def presentation(self) -> FinCatPresentation:
        """The occurrence category of the generators (fincat.occurrence_category)."""
        return occurrence_category({o.name: o.generator for o in self.objects}, self.morphisms)

    def generator_functor(self, generators: FinCatPresentation) -> FunctorData:
        """Projection onto generators, landing in their occurrence category
        (the source of fincat.string_inclusion)."""
        obj_map = {o.name: str(o.generator) for o in self.objects}
        mor_map = {m.name: occurrence_name(obj_map[m.src], obj_map[m.dst], m.offset)
                   for m in self.morphisms}
        return FunctorData(self.presentation, generators, obj_map, mor_map)

    def window_functor(self) -> FunctorData:
        """Projection onto windows, landing in the tape category."""
        windows = {o.name: o.window for o in self.objects}
        return occurrence_inclusion(self.presentation, self.alphabet, windows, self.morphisms)


@dataclass
class EvalTrace:
    """Audit record of one evaluation: the diagram evaluate glued, as raw data.

    The pass gives its nodes in the order it placed them: per node its
    object index, its window's right end and its leg, the offset of its
    generator in the value.  nodes, (object index, placement offset) pairs,
    and legs are ordered on first read, as edges are built.
    """

    input: TapeString
    shape: ShapeCategory
    value: TapeString
    placed: list[int]
    ends: list[int]
    placed_legs: list[int]

    @cached_property
    def _order(self) -> list[int]:
        # an object's windows have one length, so the pass placed them by
        # offset, and a stable sort by object orders them by (object, offset)
        return sorted(range(len(self.placed)), key=self.placed.__getitem__)

    @cached_property
    def nodes(self) -> list[tuple[int, int]]:
        """(object index, placement offset) per node, in that order."""
        placed, ends, lengths = self.placed, self.ends, self.shape.compiled.window_lengths
        return [(placed[i], ends[i] - lengths[placed[i]]) for i in self._order]

    @cached_property
    def legs(self) -> list[int]:
        """Each node's leg, in the order of nodes."""
        return [self.placed_legs[i] for i in self._order]

    @cached_property
    def edges(self) -> list[tuple[int, int, int, int]]:
        """The (source node, target node, offset, morphism index) edges,
        built on first read.  Each node is joined to the windows its
        object's joins name, which the pass placed ending at the same cell
        or one before, so the edges are read off the nodes alone; they are
        ordered by (morphism, target offset), the order of the shape
        category's own enumeration."""
        compiled, nodes = self.shape.compiled, self.nodes
        lengths = compiled.window_lengths
        number = {node: n for n, node in enumerate(nodes)}
        # a nonempty window names its node by its length and right end
        node_at = {(lengths[k], q + lengths[k]): n for n, (k, q) in enumerate(nodes)}
        edges = [(node_at[compiled.levels[level][0], q + lengths[k] - lag], n, off, mor)
                 for n, (k, q) in enumerate(nodes) for level, lag, off, mor in compiled.joins[k]]
        edges += [(number[compiled.unwindowed[src], 0], n, 0, mor)
                  for n, (k, _) in enumerate(nodes) for src, mor in compiled.unwindowed_joins[k]]
        edges.sort(key=lambda e: (e[3], nodes[e[1]][1]))
        return edges

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
    windows are indexed per window length, shortest first (a level), and
    ``lookups`` holds each level's number, length and window lookup;
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
        self.lookups = [(level, length, by_window.get)
                        for level, (length, by_window) in enumerate(self.levels)]
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
            if lag not in (0, 1):
                raise MalformedDiagram(f"morphism {m.name} joins windows ending {lag} cells apart")
            self.joins[dst].append((level_of[self.window_lengths[src]], lag, m.offset, mor_idx))
        # the step memo, filled by gluing as evaluate meets held states: per
        # state its representative pass and held input cells (see _intern),
        # its memoised steps by next cell, and its value at the input's end
        self.lookback = max((n for n, _ in self.levels), default=1) - 1
        self.states: dict[tuple, int] = {}
        self.held: list[tuple[_Pass, str]] = []
        self.steps: list[dict[str, tuple[str, int]]] = []
        self.finals: dict[int, str] = {}

    def start(self) -> int:
        """The state before the input's first cell: right end 0 placed."""
        if not self.held:
            state = _Pass(self)
            _place_and_glue(self, state, "", 1)
            state.close()
            self._intern(state, "")
        return 0

    def step(self, number: int, cell: str) -> tuple[str, int] | None:
        """Extend state ``number`` by one input cell, placing and gluing its
        next right end, and close it: the cells the close emits and the next
        state, memoised.  None when the next state is new and the memo is
        full; raises GlueError, memoising nothing, when the close does."""
        rep, tail = self.held[number]
        state, cells = rep.copy(), tail + cell
        _place_and_glue(self, state, cells, len(cells) + 1)
        state.close()
        emitted = "".join(state.gluing.closed)
        state.gluing.closed.clear()
        following = self._intern(state, cells[max(len(cells) - self.lookback, 0):])
        if following is None:
            return None
        hit = self.steps[number][cell] = emitted, following
        return hit

    def final(self, number: int) -> str:
        """The word state ``number`` holds when the input ends there,
        memoised.  Every interned state was closed, so it glues
        (CellGluing.close) and this read cannot raise."""
        word = self.finals.get(number)
        if word is None:
            word = self.finals[number] = self.held[number][0].gluing.result()[0]
        return word

    def _intern(self, state: _Pass, tail: str) -> int | None:
        """Number a closed pass whose last input cells are ``tail``, the
        ``lookback`` cells (fewer at the input's start) that windows ending
        at its next right end still read, renumbered to end where
        ``tail + cell`` does; None when the state is new and the memo holds
        _MEMO_CAP states.  The key is the held quotient: per held node its
        cells, window length and right end, each held cell's class and the
        class of ``after``, each named by the first held cell of the class
        (close leaves the parents so), and ``tail``.  It holds all that the
        pass reads on: the next right end reads ``tail`` and joins the nodes
        that ``current`` names, which the window lengths and right ends fix;
        a close reads the quotient and the right ends.  A held node's object
        is not kept: the joins into it are made, and its cells carry them.
        So two passes with one key glue alike, on every shape.

        On a shape whose window lengths each hold one generator length, of
        at most two cells, as every machine's shape does, the classes follow
        from the rest of the key, so no test of such shapes sees them split a
        state.  A class is all held or all closed, so the held classes are
        generated by the joins between held cells.  A join is made when its
        one-cell source window is placed and the target's generator holds the
        source's cell at the join's offset: the window lengths and right ends
        name the nodes, fix the offset and how many cells each node has
        closed, and the held values show both cells.  The classes stay in
        the key for other shapes, where a held node's closed cells, or a
        two-cell source's closed cell, can hide whether a join was made."""
        shift = len(tail) + 1 - state.end
        state.ends[:] = [end + shift for end in state.ends]
        state.end += shift
        gluing = state.gluing
        key = (tuple(gluing.values), tuple(map(self.window_lengths.__getitem__, state.placed)),
               tuple(state.ends), tuple(gluing.parent), gluing.after, tail)
        number = self.states.get(key)
        if number is None and len(self.held) < _MEMO_CAP:
            number = self.states[key] = len(self.held)
            self.held.append((state, tail))
            self.steps.append({})
        return number


# The step memo interns at most this many states per compiled shape; an
# input that would intern one more goes on from its last state (_stretched).
_MEMO_CAP = 4096

# The memoised walk joins its pending emissions after every this many cells,
# so that it holds a string per stretch of the input, not one per cell.
_JOIN_AT = 4096

# Past a full memo, the pass closes after every stretch of this many right
# ends.  A right end places at most one node per level, and the levels'
# generators have 1 and 2 cells, so a stretch adds at most 4,095 cells.
_CLOSE_AT = 1365


class _Pass:
    """The state of the evaluation pass over a prefix of the input.

    ``gluing`` holds the nodes placed so far; per held node in placement
    order, ``placed`` is its object index and ``ends`` the right end of its
    window.  ``current`` holds, per level, the node whose window ends one
    cell before ``end`` (or None); ``end`` is the next right end to place.
    The pass holds every node it placed until ``close`` drops the finished
    ones.
    """

    __slots__ = ("gluing", "placed", "ends", "current", "end")

    def __init__(self, compiled: _CompiledShape) -> None:
        self.gluing = CellGluing()
        self.placed = list(compiled.unwindowed)
        self.ends = [0] * len(self.placed)
        for k in self.placed:
            self.gluing.add(compiled.generators[k])
        self.current: list[int | None] = [None] * len(compiled.levels)
        self.end = 0

    def copy(self) -> _Pass:
        """An independent state: extending either leaves the other as it was."""
        twin = object.__new__(_Pass)
        twin.gluing = self.gluing.copy()
        twin.placed, twin.ends = self.placed.copy(), self.ends.copy()
        twin.current = self.current.copy()
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
    generators, joins, lookups = compiled.generators, compiled.joins, compiled.lookups
    add, identify = state.gluing.add, state.gluing.identify
    placed, ends = state.placed, state.ends
    # per level, the nodes ending one cell back, and a list to place into
    current, previous = state.current, [None] * len(lookups)
    for end in range(state.end, stop):
        previous, current = current, previous
        for level, length, lookup in lookups:
            k = lookup(x_cells[end - length : end]) if end >= length else None
            if k is None:
                current[level] = None
                continue
            node = current[level] = add(generators[k])
            placed.append(k)
            ends.append(end)
            for src_level, lag, off, _ in joins[k]:
                identify((previous if lag else current)[src_level], node, off)
    state.current = current
    state.end = stop


def _stretched(compiled: _CompiledShape, number: int, rest: str) -> str:
    """The cells that state ``number`` goes on to over the input's remaining
    cells ``rest``, on a copy of its representative pass that closes after
    every _CLOSE_AT right ends that more follow; raises GlueError when a
    close or the final read does."""
    rep, tail = compiled.held[number]
    state, cells = rep.copy(), tail + rest
    stop = len(cells) + 1
    while state.end + _CLOSE_AT < stop:
        _place_and_glue(compiled, state, cells, state.end + _CLOSE_AT)
        state.close()
    _place_and_glue(compiled, state, cells, stop)
    return state.gluing.result()[0]


def _transduced(compiled: _CompiledShape, x_cells: str) -> str:
    """The value's cells by the step memo, closing at every right end: the
    emitted cells, then the word the last state holds.  When a step would
    intern a state the full memo has no room for, the pass goes on from the
    last state reached (_stretched).  Raises GlueError when a step does, or
    a close or the final read of _stretched."""
    steps, state = compiled.steps, compiled.start()
    chunks = []
    for begin in range(0, len(x_cells), _JOIN_AT):
        emitted = []
        for cell in x_cells[begin : begin + _JOIN_AT]:
            hit = steps[state].get(cell) or compiled.step(state, cell)
            if hit is None:
                rest = x_cells[begin + len(emitted):]
                return "".join(chunks + emitted) + _stretched(compiled, state, rest)
            cells, state = hit
            emitted.append(cells)
        chunks.append("".join(emitted))
    chunks.append(compiled.final(state))
    return "".join(chunks)


def evaluate(shape: ShapeCategory, x: TapeString) -> TapeString:
    """Update x without consulting any rule: glue the generators of all
    windows placed in x along their aligned inclusions, by the step memo
    (_transduced).  An input on which a step, or a close or the final read
    past a full memo, does not glue is glued again without closing, for its
    value or error."""
    if x.alphabet != shape.alphabet:
        raise AlphabetMismatch(f"{x} is not over the shape category's alphabet")
    try:
        cells = _transduced(shape.compiled, x.cells)
    except GlueError:
        return evaluate_traced(shape, x)[0]
    return TapeString(shape.alphabet, cells)


def walk(shape: ShapeCategory, max_len: int, extend: Callable[[str], str], lookback: int,
         ) -> Iterator[tuple[str, str | GlueError, str]]:
    """Every string up to max_len over the shape category's alphabet whose
    value, the cells evaluate gives it or the GlueError it raises, is not
    its reference, as (cells, value, reference); none for a negative
    max_len.  A string's reference is its prefix's followed by
    extend(cells), and the empty string's is extend("").  extend must read
    only the string's last cell, the lookback cells before it and, while
    the string is shorter than that, its length.

    Depth first by prefix extension, children in alphabet order, so each
    length comes in tape.windows order.  x·c takes one memo step from x's
    state, as _transduced does.  Where a step finds the memo full,
    evaluate takes that string and its subtree, past the full memo.  Where
    a step does not glue, evaluate would replay the memo to that step,
    which raises again, so evaluate_traced takes them.  A state the walk
    reaches was closed, so its final read glues.

    Subtrees that passed are shared.  Once a string x in state s passed,
    and so did every string of its subtree, each reached by memo steps, the
    walk records the subtree's depth under the key (s, x's last lookback
    cells).  A later string x' that passes, with that key and a subtree no
    deeper, is not extended.  Memo entries never change, so x'·y would
    replay x·y's steps and emit what x·y emits after x, and extend would
    add what it adds after x.  x and x' each pass, so their emitted cells
    fall short of their references by the same final word, and x'·y passes
    as x·y did.  The skipped steps are memo hits, so the walk interns the
    states that a walk of every string would, in the same order.  Strings
    whose steps fail, and their subtrees, are walked one by one.  The stack
    holds at most max_len * (|alphabet| - 1) + 1 strings, and an exit
    marker per passing string on the current path, at most max_len + 1.
    """
    compiled, alphabet = shape.compiled, shape.alphabet
    steps, step, symbols = compiled.steps, compiled.step, alphabet.symbols
    finals, final = compiled.finals, compiled.final  # a read memo hit skips the call
    try:
        start: int | None = compiled.start()
    except GlueError:
        start = None
    passed: dict[tuple[int, str], int] = {}  # per key, the deepest subtree that passed
    misses = 0  # the strings walked so far that failed or left the memo
    # per string to visit: its cells, the cells the walk emitted on them, the
    # state reached (None once a step failed), whether that step found the
    # memo full rather than raised, and its prefix's reference; per passing
    # string whose subtree is being walked, an exit marker: its key, depth
    # and the misses before its subtree
    stack: list[tuple] = [("", "", start, False, "")] if max_len >= 0 else []
    while stack:
        entry = stack.pop()
        if len(entry) == 3:  # an exit marker
            key, depth, before = entry
            if misses == before:
                passed[key] = depth
            continue
        cells, emitted, state, full, reference = entry
        reference += extend(cells)
        depth = max_len - len(cells)
        value: str | GlueError
        if state is not None:
            value = emitted + (finals.get(state) or final(state))
        else:
            x = TapeString(alphabet, cells)
            try:
                value = (evaluate(shape, x) if full else evaluate_traced(shape, x)[0]).cells
            except GlueError as exc:
                value = exc
        if state is not None and value == reference:
            key = (state, cells[max(len(cells) - lookback, 0):])
            if passed.get(key, -1) >= depth:
                continue
            stack.append((key, depth, misses))
        else:
            misses += 1
            if value != reference:
                yield cells, value, reference
        if not depth:
            continue
        children = []
        for c in symbols:
            hit = None
            if state is not None:
                try:
                    hit = steps[state].get(c) or step(state, c)
                    full = hit is None
                except GlueError:
                    full = False
            children.append((cells + c, emitted + hit[0], hit[1], False, reference) if hit
                            else (cells + c, "", None, full, reference))
        stack += reversed(children)


def density_sweep(alphabet: Alphabet, generators: Sequence[TapeString], max_len: int,
                  ) -> list[tuple[int, str | None]]:
    """density_check on every string of length <= max_len: per length, the
    number of strings and the first failing one, in windows order, with
    density_check's detail (None when all pass).

    Density is evaluation by the identity update: walk over the shape of
    the (g|g) objects, one per generator however often it is listed, with
    each string its own reference, extended by its last cell.  For
    generators of at most two cells (a longer one raises ValueError) the
    only comma morphisms that identify cells are the one-cell-smaller
    inclusions that the pass joins.  Every edge keeps each cell at its
    position in x, so a linear quotient that spells x puts each leg at its
    offset: checking the word is checking density.
    """
    longer = next((g for g in generators if len(g) > 2), None)
    if longer is not None:
        raise ValueError(f"generator {longer} has more than two cells")
    shape = ShapeCategory(alphabet, tuple(ShapeObject(g, g) for g in dict.fromkeys(generators)))
    failures: list[str | None] = [None] * (max_len + 1)
    for cells, _, _ in walk(shape, max_len, lambda cells: cells[-1:], 0):
        if failures[len(cells)] is None:
            x = TapeString(alphabet, cells)
            failures[len(cells)] = f"{x}: {density_check(x, generators).detail}"
    return [(len(alphabet.symbols) ** n, failure) for n, failure in enumerate(failures)]


def evaluate_traced(shape: ShapeCategory, x: TapeString) -> tuple[TapeString, EvalTrace]:
    """As evaluate, by the pass that closes nothing, also returning the
    glued diagram as an EvalTrace: each placed window's node and its leg,
    in placement order.  The trace orders its nodes and legs, and builds
    its edges, only when they are read, so evaluate's fallback, which reads
    the value alone, orders nothing.  A GlueError also names the input
    cells of its nodes' window placements."""
    if x.alphabet != shape.alphabet:
        raise AlphabetMismatch(f"{x} is not over the shape category's alphabet")
    compiled = shape.compiled
    state = _Pass(compiled)
    _place_and_glue(compiled, state, x.cells, len(x) + 1)
    placed, ends, lengths = state.placed, state.ends, compiled.window_lengths
    try:
        cells, legs = state.gluing.result()
    except GlueError as exc:
        exc.cells = tuple((ends[i] - lengths[placed[i]], ends[i]) for i in exc.nodes)
        raise
    value = TapeString(shape.alphabet, cells)
    return value, EvalTrace(x, shape, value, placed, ends, legs)
