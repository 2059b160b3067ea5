"""Colimits of tape-string diagrams by cell gluing, plus the density check.

A diagram's cells are united under the equivalence generated by its edge
occurrences; the quotient must chain into a single simple path whose labels
spell the colimit.  Anything else (branching, cycles, label clashes, two
components) is an error: those colimits do not exist among tape strings,
and the engine's job is to detect them, not invent them.  CellGluing holds
that union-find incrementally, so a diagram can be glued while it is being
built, and it can close the classes a builder has left behind, so that it
holds only a frontier; glue_cells drives it over a finished diagram.  The
density check glues the comma diagram of generator occurrences in a string
the same way, on node indices; the string-id TapeDiagram and glue wrap that
core for named diagrams.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, compress, count
from operator import eq, not_, sub
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import tape
from .fincat import DenseSubcategory, MalformedDiagram
from .tape import Alphabet, AlphabetMismatch, Occurrence, TapeString


class GlueError(Exception):
    """A diagram whose colimit does not exist among tape strings.

    ``nodes`` names the offending nodes.  When the diagram was placed in an
    input, ``cells`` holds their window placements as input cell ranges
    (start, stop).
    """

    def __init__(self, message: str, nodes: tuple = (),
                 cells: tuple[tuple[int, int], ...] = ()) -> None:
        super().__init__(message)
        self.nodes = nodes
        self.cells = cells


class LabelConflict(GlueError):
    """Two glued cells carry different symbols."""


class NotLinear(GlueError):
    """The quotient adjacency branches or cycles."""


class Disconnected(GlueError):
    """The quotient has two or more nonempty components."""


@dataclass(frozen=True)
class DiagramNode:
    id: str
    value: TapeString


@dataclass(frozen=True)
class DiagramEdge:
    src: str
    dst: str
    occ: Occurrence


@dataclass(frozen=True)
class TapeDiagram:
    alphabet: Alphabet
    nodes: tuple[DiagramNode, ...]
    edges: tuple[DiagramEdge, ...]

    @classmethod
    def build(cls, alphabet: Alphabet,
              nodes: Iterable[tuple[str, TapeString]],
              edges: Iterable[tuple[str, str, Occurrence]]) -> TapeDiagram:
        return cls(
            alphabet,
            tuple(DiagramNode(i, v) for i, v in nodes),
            tuple(DiagramEdge(s, d, o) for s, d, o in edges),
        )


@dataclass
class GlueResult:
    value: TapeString
    legs: dict[str, Occurrence]


class CellGluing:
    """Incremental gluing state: the one union-find behind every colimit.

    ``add`` registers a node's cells and ``identify`` unites them at once
    with the cells of another node along an edge, so a diagram can be glued
    while it is being built.  One reader serves ``result`` and ``close``: it
    resolves every cell's root once, checks labels, linearity and
    connectivity over those roots, and reads the quotient's classes off its
    successor chain as one path; ``result`` spells the colimit word along it.
    It locates each fault with the maps that detect it: a label clash at the
    first cell whose label is not its root's, a fold or branch at the first
    pair of consecutive cells that contradicts each root's first successor
    and predecessor.

    A diagram built in order can also be glued in bounded memory: ``close``
    takes the leading classes of that path that no later edge can reach
    (every cell in a node before a frontier node the builder names),
    appends their labels to the closed word, drops their cells and
    renumbers the held ones.  On a held state that does not glue it raises
    as ``result`` does and closes nothing.  ``result`` reads the held
    quotient on from the closed word.  Once a prefix is closed, the nodes
    and message of a GlueError describe only the held state: a caller that
    must name the fault glues the whole diagram again without closing.
    """

    def __init__(self) -> None:
        self.values: list[str] = []
        self.starts: list[int] = []
        self.parent: list[int] = []
        self.closed: list[str] = []  # the closed word, in chunks
        self.after: int | None = None  # a held cell of the class after it

    def add(self, value: str) -> int:
        """Register a node with the given cells; returns its index."""
        start = len(self.parent)
        self.starts.append(start)
        self.values.append(value)
        self.parent.extend(range(start, start + len(value)))
        return len(self.values) - 1

    def copy(self) -> CellGluing:
        """An independent copy: adding, identifying, closing or path halving
        in either leaves the other as it was."""
        twin = CellGluing()
        twin.values, twin.starts, twin.parent, twin.closed = (
            self.values.copy(), self.starts.copy(), self.parent.copy(), self.closed.copy())
        twin.after = self.after
        return twin

    def identify(self, i: int, j: int, off: int) -> None:
        """Identify cell k of node i with cell off+k of node j; the caller
        keeps node i's cells inside node j."""
        parent = self.parent
        base_i, base_j = self.starts[i], self.starts[j] + off
        for k in range(len(self.values[i])):
            a, b = base_i + k, base_j + k
            while parent[a] != a:  # find both roots, halving the paths
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:  # j's root joins i's: a pass adds j after i, so trees stay shallow
                parent[b] = a

    def _roots(self) -> list[int]:
        """Every held cell's root, by pointer jumping."""
        roots = self.parent
        while True:
            jumped = [roots[r] for r in roots]
            if jumped == roots:
                return roots
            roots = jumped

    def close(self, frontier: int) -> int:
        """Close the classes whose cells all lie in nodes before node
        ``frontier``, which the caller guarantees no later identify touches;
        returns how many leading nodes were dropped, by which the indices of
        the held nodes fall.

        Only a held state that glues is closed, and only along the path that
        ``result`` reads off it: the classes before the first one with a
        cell at or after the frontier, never the last, whose successor may
        still come.  Merges among held classes only ever remove distinct
        neighbours, so once the closed classes have glued, they stay glued.
        On a state that does not glue, raises as ``result`` does and closes
        nothing.
        """
        values, starts = self.values, self.starts
        finished = starts[frontier] if frontier < len(starts) else len(self.parent)
        roots, labels, path = self._read()
        held = set(roots[finished:])
        stop = [*map(held.__contains__, path[:-1]), True].index(True)
        if not stop:
            return 0
        cur = path[stop]
        self.closed.append("".join(map(labels.__getitem__, path[:stop])))
        # renumber the held cells: each falls by the closed cells before it.
        # A node's closed cells come first in it (the path runs through the
        # node's cells in order, and the closed classes are its prefix).
        kept = list(map(set(path[stop:]).__contains__, roots))
        before = list(accumulate(map(not_, kept), initial=0))
        kept_roots = list(compress(roots, kept))
        self.parent = list(map(sub, kept_roots, map(before.__getitem__, kept_roots)))
        new_starts = list(map(sub, starts, map(before.__getitem__, starts)))
        new_stops = new_starts[1:] + [len(kept_roots)]
        dropped = min(frontier, bisect_right(new_stops, 0))
        self.values = [v[len(v) - stop + start:] for v, start, stop
                       in zip(values[dropped:], new_starts[dropped:], new_stops[dropped:])]
        self.starts = new_starts[dropped:]
        self.after = cur - before[cur]
        return dropped

    def result(self) -> tuple[str, list[int]]:
        """The colimit word and the leg offset of every held node (0 for
        empty nodes; once a prefix is closed, that of the node's held
        cells); raises as ``_read``."""
        roots, labels, path = self._read()
        prefix = "".join(self.closed)
        pos = dict(zip(path, range(len(prefix), len(prefix) + len(path))))
        legs = [pos[roots[s]] if v else 0 for s, v in zip(self.starts, self.values)]
        return prefix + "".join(map(labels.__getitem__, path)), legs

    def _read(self) -> tuple[list[int], str, list[int]]:
        """Read the held quotient: every held cell's root, the held labels,
        and the held classes in path order, which continues the closed word;
        raises LabelConflict, NotLinear or Disconnected, in that order of
        priority, carrying the offending node indices."""
        values, starts = self.values, self.starts
        roots = self._roots()
        labels = "".join(values)
        if not labels:
            return roots, labels, []

        first: dict[int, int] = {}  # root -> its first cell, built on the error paths

        def first_cell(r: int) -> int:
            if not first:
                first.update(zip(reversed(roots), range(len(roots) - 1, -1, -1)))
            return first[r]

        def node_of(c: int) -> int:
            return bisect_right(starts, c) - 1

        def rep(r: int) -> int:
            return node_of(first_cell(r))

        # a root is a cell too: every cell must carry its root's label
        if "".join(map(labels.__getitem__, roots)) != labels:
            c = next(c for c, r in enumerate(roots) if labels[c] != labels[first_cell(r)])
            i, j = rep(roots[c]), node_of(c)
            raise LabelConflict(
                f"cells of nodes {i} and {j} are glued but labelled "
                f"{labels[first_cell(roots[c])]!r} vs {labels[c]!r}",
                nodes=(i, j),
            )

        # the adjacency: the roots of each pair of consecutive cells of a node
        inner = bytearray(b"\x01") * len(roots)
        inner[-1] = 0
        for s in starts:
            if s:
                inner[s - 1] = 0
        left, right = list(compress(roots, inner)), list(compress(roots[1:], inner))
        # each root's successor and predecessor in its first pair: on a linear
        # quotient its only ones; otherwise the first pair, in node order,
        # that they contradict is where the quotient folds or branches
        succ = dict(zip(reversed(left), reversed(right)))
        pred = dict(zip(reversed(right), reversed(left)))
        if (any(map(eq, left, right)) or list(map(succ.__getitem__, left)) != right
                or list(map(pred.__getitem__, right)) != left):
            c, a, b = next((c, a, b) for c, a, b in zip(compress(count(), inner), left, right)
                           if a == b or succ[a] != b or pred[b] != a)
            i = node_of(c)
            if a == b:
                raise NotLinear(f"node {i} glues onto itself (cycle)", nodes=(i,))
            if succ[a] != b:
                raise NotLinear(f"quotient branches after a cell of node {i}", nodes=(rep(a), i))
            raise NotLinear(f"quotient branches before a cell of node {i}", nodes=(rep(b), i))

        classes = set(roots)
        sources = classes.difference(pred)
        if self.after is not None and roots[self.after] not in sources:
            raise NotLinear("quotient branches before the closed word's successor",
                            nodes=(rep(roots[self.after]),))
        if len(sources) > 1:
            raise Disconnected(
                f"quotient splits into {len(sources)} components",
                nodes=tuple(sorted({rep(r) for r in sources})),
            )
        if not sources:
            raise NotLinear("quotient adjacency is a cycle", nodes=(rep(roots[0]),))
        # every root has at most one predecessor, so no walk from a source cycles
        path: list[int] = []
        cur: int | None = sources.pop()
        while cur is not None:
            path.append(cur)
            cur = succ.get(cur)
        if len(path) != len(classes):
            stray = min(map(first_cell, classes - set(path)))
            raise NotLinear("quotient contains a disconnected cycle", nodes=(node_of(stray),))
        return roots, labels, path


def glue_cells(values: Sequence[str], edges: Iterable[tuple[int, int, int]],
               ) -> tuple[str, list[int]]:
    """Core gluing on raw words: returns (colimit word, leg offset per node).

    ``edges`` are (source index, target index, offset) triples; cell k of a
    source is identified with cell offset+k of the target.  Empty nodes take
    the canonical leg offset 0.  Raises LabelConflict / NotLinear /
    Disconnected (carrying offending node indices) when the quotient is not
    a single labelled path, and MalformedDiagram when an edge names an
    unknown node or an offset outside its target (an empty source sits at
    offset 0).
    """
    gluing = CellGluing()
    for v in values:
        gluing.add(v)
    n = len(values)
    for i, j, off in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedDiagram(f"edge {i} -> {j} references an unknown node")
        if off and not values[i]:
            raise MalformedDiagram(f"edge {i} -> {j}: an empty source sits at offset 0, not {off}")
        if off < 0 or off + len(values[i]) > len(values[j]):
            raise MalformedDiagram(f"edge {i} -> {j} at offset {off} falls outside node {j}")
        gluing.identify(i, j, off)
    return gluing.result()


def glue(diagram: TapeDiagram) -> GlueResult:
    """Colimit of a tape-string diagram as a glued string with its legs."""
    ids = [n.id for n in diagram.nodes]
    if len(set(ids)) != len(ids):
        raise MalformedDiagram("duplicate node ids")
    index = {n.id: k for k, n in enumerate(diagram.nodes)}
    for n in diagram.nodes:
        if n.value.alphabet != diagram.alphabet:
            raise MalformedDiagram(f"node {n.id} is not over the diagram alphabet")
    int_edges = []
    for e in diagram.edges:
        if e.src not in index or e.dst not in index:
            raise MalformedDiagram(f"edge {e.src} -> {e.dst} references unknown node")
        if e.occ.source != diagram.nodes[index[e.src]].value \
                or e.occ.target != diagram.nodes[index[e.dst]].value:
            raise MalformedDiagram(f"edge {e.src} -> {e.dst} does not carry the node strings")
        int_edges.append((index[e.src], index[e.dst], e.occ.offset))
    try:
        cells, leg_offsets = glue_cells([n.value.cells for n in diagram.nodes], int_edges)
    except GlueError as exc:
        named = tuple(diagram.nodes[i].id for i in exc.nodes)
        raise type(exc)(f"{exc} [nodes: {', '.join(named)}]", nodes=named) from None
    value = TapeString(diagram.alphabet, cells)
    legs = {
        n.id: Occurrence(n.value, value, leg_offsets[k] if n.value.cells else 0)
        for k, n in enumerate(diagram.nodes)
    }
    return GlueResult(value, legs)


# ---------------------------------------------------------------------------
# density of the canonical generators


@dataclass
class DensityResult:
    ok: bool
    detail: str


def canonical_diagram(x: TapeString, dense: DenseSubcategory,
                      ) -> tuple[list[tuple[TapeString, int]], list[tuple[int, int, int]]]:
    """The comma category of generators over x, on indices: every occurrence
    (generator, offset) of a generator in x, and every comma morphism as
    (source index, target index, offset difference).

    Such a morphism from one occurrence to another exists exactly when the
    first span lies inside the second (always, for an empty first source),
    and it is then the unique occurrence at the difference of the offsets.
    A nonempty span therefore only lies inside spans that start at most the
    longest generator's length before it; edges are listed by source, then
    by target index, the order in which they are glued.
    """
    if dense.alphabet != x.alphabet:
        raise AlphabetMismatch("string and generators use different alphabets")
    occs = [(g, off) for g in dense.strings
            for off in (tape.find_all(g.cells, x.cells) if g.cells else [0])]
    starting: dict[int, list[int]] = {}
    for j, (_, off) in enumerate(occs):
        starting.setdefault(off, []).append(j)
    longest = max((len(g) for g, _ in occs), default=0)
    edges = []
    for i, (g1, off1) in enumerate(occs):
        n = len(g1)
        if not n:
            edges.extend((i, j, 0) for j in range(len(occs)))
            continue
        targets = sorted(j for off2 in range(off1 + n - longest, off1 + 1)
                         for j in starting.get(off2, ()) if off1 + n <= off2 + len(occs[j][0]))
        edges.extend((i, j, off1 - occs[j][1]) for j in targets)
    return occs, edges


def _node_id(generator: TapeString, offset: int) -> str:
    return f"{generator}@{offset}"


def density_check(x: TapeString, dense: DenseSubcategory) -> DensityResult:
    """Glue the canonical diagram of generator occurrences in x and verify
    the colimit is x itself with the original occurrences as legs."""
    occs, edges = canonical_diagram(x, dense)
    try:
        cells, legs = glue_cells([g.cells for g, _ in occs], edges)
    except GlueError as exc:
        named = ", ".join(_node_id(*occs[i]) for i in exc.nodes)
        return DensityResult(False, f"glue failed: {exc} [nodes: {named}]")
    if cells != x.cells:
        return DensityResult(False, f"colimit is {TapeString(x.alphabet, cells)}, not {x}")
    for (g, off), leg in zip(occs, legs):
        if leg != off:
            return DensityResult(False, f"leg of {_node_id(g, off)} is {Occurrence(g, x, leg)}, "
                                        f"expected {Occurrence(g, x, off)}")
    return DensityResult(True, "ok")
