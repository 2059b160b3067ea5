"""Colimits of tape-string diagrams by cell gluing, plus the density check.

A diagram's cells are united under the equivalence generated by its edge
occurrences; the quotient must chain into a single simple path whose labels
spell the colimit.  Anything else (branching, cycles, label clashes, two
components) is an error: those colimits do not exist among tape strings,
and the engine's job is to detect them, not invent them.  CellGluing holds
that union-find incrementally, so a diagram can be glued while it is being
built, and it can close the classes a builder has left behind, so that it
holds only a frontier; glue_cells drives it over a finished diagram.  Its
reader decides in one pass over the held cells whether they glue, and the
check that finds a fault names that fault's nodes.  density_check glues the
comma diagram of generator occurrences in a string the same way, on node
indices, and glue wraps that core for diagrams of named strings; no library
module calls either, as kan.density_sweep glues by the evaluation pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import tape
from .fincat import MalformedDiagram
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


class CellGluing:
    """Incremental gluing state: the one union-find behind every colimit.

    ``add`` registers a node's cells and ``identify`` unites them at once
    with the cells of another node along an edge, so a diagram can be glued
    while it is being built.  One reader serves ``result`` and ``close``.
    It resolves every cell's root once and detects in one pass: each cell
    must carry its root's label; each root's successor and predecessor come
    from its first pair of consecutive cells of a node, and the pass stops
    at the first pair that is a self-loop or contradicts them; one class,
    the closed word's successor's when a prefix is closed, must have no
    predecessor, and the successor chain from it must reach every class.
    That chain is the quotient's path; ``result`` spells the colimit word
    along it.  The pass names the nodes of the fault it finds: a label clash
    at the first cell whose label is not its class's first cell's, a fold
    or branch at the first pair of consecutive cells that contradicts each
    root's first successor and predecessor, LabelConflict before NotLinear
    before Disconnected.

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
        twin = object.__new__(CellGluing)
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
            jumped = list(map(roots.__getitem__, roots))
            if jumped == roots:
                return roots
            roots = jumped

    def close(self, frontier: int) -> int:
        """Close the classes whose cells all lie in nodes before node
        ``frontier``, which the caller guarantees no later identify touches;
        returns how many leading nodes were dropped (those before the
        frontier left with no held cell), by which the indices of the held
        nodes fall.

        Only a held state that glues is closed, and only along the path that
        ``result`` reads off it: the classes before the first one with a
        cell at or after the frontier, never the last, whose successor may
        still come.  Merges among held classes only ever remove distinct
        neighbours, so once the closed classes have glued, they stay glued.
        On a state that does not glue, raises as ``result`` does and closes
        nothing.  A state that close returns from glues: it holds a suffix
        of that path, whose one source is the class after the closed word,
        and each link between its classes comes from a pair of consecutive
        cells of the classes, which are all held.  So ``result`` cannot
        raise on it until something more is added or identified.

        Closing or not, it leaves each held cell's parent, and ``after``, at
        the first held cell of its class, so two closed states that hold the
        same labelled quotient hold equal lists.
        """
        values, starts = self.values, self.starts
        finished = starts[frontier] if frontier < len(starts) else len(self.parent)
        roots, labels, path = self._read()
        held = set(roots[finished:])
        stop = 0
        while stop < len(path) - 1 and path[stop] not in held:
            stop += 1
        if stop:
            self.closed.append("".join(map(labels.__getitem__, path[:stop])))
        # renumber the held cells in order, each pointing at its class's
        # first.  A node's closed cells come first in it (the path runs
        # through the node's cells in order, and the closed classes are its
        # prefix), so it keeps the end of its value.
        closing = set(path[:stop])
        first: dict[int, int] = {}
        parent: list[int] = []
        kept_values, kept_starts = [], []
        dropped = kept = 0
        for value, start in zip(values, starts):
            begin = kept
            for root in roots[start : start + len(value)]:
                if root not in closing:
                    parent.append(first.setdefault(root, kept))
                    kept += 1
            if not kept and dropped < frontier:
                dropped += 1
                continue
            kept_values.append(value[len(value) - kept + begin:])
            kept_starts.append(begin)
        self.values, self.starts, self.parent = kept_values, kept_starts, parent
        if stop or self.after is not None:  # the path's source, once a class has closed
            self.after = first[path[stop]]
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
        priority, carrying the offending node indices.

        One pass over each node's consecutive cells detects a fault, and the
        check that detects it names its nodes: the first cell not labelled
        as its class's first cell, the first pair that contradicts the
        successors and predecessors built before it, the sources, or a cycle
        apart from the path.  It holds no comprehension or closure: one that
        read a local would make that local a cell on every read."""
        roots = self._roots()
        labels = "".join(self.values)
        if not labels:
            return roots, labels, []
        # a root is a cell too: every cell must carry its root's label
        if "".join(map(labels.__getitem__, roots)) != labels:
            first = self._first_cells(roots)
            for c, r in enumerate(roots):
                if labels[c] != labels[first[r]]:
                    i, j = self._node_of(first[r]), self._node_of(c)
                    raise LabelConflict(
                        f"cells of nodes {i} and {j} are glued but labelled "
                        f"{labels[first[r]]!r} vs {labels[c]!r}",
                        nodes=(i, j),
                    )
        # each root's successor and predecessor in its first pair of
        # consecutive cells of a node; any other pair must agree with them
        succ: dict[int, int] = {}
        pred: dict[int, int] = {}
        start = 0
        for value in self.values:
            if len(value) > 1:
                a = roots[start]
                for b in roots[start + 1 : start + len(value)]:
                    if a == b or succ.setdefault(a, b) != b or pred.setdefault(b, a) != a:
                        i = self._node_of(start)
                        if a == b:
                            raise NotLinear(f"node {i} glues onto itself (cycle)", nodes=(i,))
                        first = self._first_cells(roots)
                        if succ[a] != b:
                            raise NotLinear(f"quotient branches after a cell of node {i}",
                                            nodes=(self._node_of(first[a]), i))
                        raise NotLinear(f"quotient branches before a cell of node {i}",
                                        nodes=(self._node_of(first[b]), i))
                    a = b
            start += len(value)
        # one class without a predecessor, the closed word's successor's,
        # and a path from it through every class (a walk from a class with
        # a predecessor could cycle, so ``after``'s is checked first)
        classes = set(roots)
        if self.after is not None and roots[self.after] in pred:
            raise NotLinear("quotient branches before the closed word's successor",
                            nodes=(self._node_of(self._first_cells(roots)[roots[self.after]]),))
        if len(pred) + 1 != len(classes):
            first = self._first_cells(roots)
            sources = classes.difference(pred)
            if sources:
                raise Disconnected(
                    f"quotient splits into {len(sources)} components",
                    nodes=tuple(sorted(set(map(self._node_of, map(first.__getitem__, sources))))),
                )
            raise NotLinear("quotient adjacency is a cycle",
                            nodes=(self._node_of(first[roots[0]]),))
        if self.after is None:
            (cur,) = classes.difference(pred)
        else:
            cur = roots[self.after]
        path = [cur]
        while cur in succ:
            cur = succ[cur]
            path.append(cur)
        if len(path) != len(classes):
            stray = min(map(self._first_cells(roots).__getitem__, classes.difference(path)))
            raise NotLinear("quotient contains a disconnected cycle",
                            nodes=(self._node_of(stray),))
        return roots, labels, path

    @staticmethod
    def _first_cells(roots: list[int]) -> dict[int, int]:
        """Each root's first cell; built only to name a fault's nodes."""
        return dict(zip(reversed(roots), range(len(roots) - 1, -1, -1)))

    def _node_of(self, cell: int) -> int:
        """The node that holds a cell."""
        return bisect_right(self.starts, cell) - 1


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


def glue(alphabet: Alphabet, nodes: Sequence[tuple[str, TapeString]],
         edges: Iterable[tuple[str, str, Occurrence]],
         ) -> tuple[TapeString, dict[str, Occurrence]]:
    """Colimit of a diagram of named tape strings, given as (id, string)
    nodes and (source id, target id, occurrence) edges: the glued string
    and each node's leg into it."""
    ids = [i for i, _ in nodes]
    if len(set(ids)) != len(ids):
        raise MalformedDiagram("duplicate node ids")
    index = {i: k for k, i in enumerate(ids)}
    for i, v in nodes:
        if v.alphabet != alphabet:
            raise MalformedDiagram(f"node {i} is not over the diagram alphabet")
    int_edges = []
    for src, dst, occ in edges:
        if src not in index or dst not in index:
            raise MalformedDiagram(f"edge {src} -> {dst} references unknown node")
        if occ.source != nodes[index[src]][1] or occ.target != nodes[index[dst]][1]:
            raise MalformedDiagram(f"edge {src} -> {dst} does not carry the node strings")
        int_edges.append((index[src], index[dst], occ.offset))
    try:
        cells, leg_offsets = glue_cells([v.cells for _, v in nodes], int_edges)
    except GlueError as exc:
        named = tuple(ids[i] for i in exc.nodes)
        raise type(exc)(f"{exc} [nodes: {', '.join(named)}]", nodes=named) from None
    value = TapeString(alphabet, cells)
    return value, {i: Occurrence(v, value, leg) for (i, v), leg in zip(nodes, leg_offsets)}


# ---------------------------------------------------------------------------
# density of the canonical generators


@dataclass
class DensityResult:
    ok: bool
    detail: str


def canonical_diagram(x: TapeString, generators: Sequence[TapeString],
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
    if any(g.alphabet != x.alphabet for g in generators):
        raise AlphabetMismatch("string and generators use different alphabets")
    occs = [(g, off) for g in generators
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


def density_check(x: TapeString, generators: Sequence[TapeString]) -> DensityResult:
    """Glue the canonical diagram of generator occurrences in x and verify
    the colimit is x itself with the original occurrences as legs."""
    occs, edges = canonical_diagram(x, generators)
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
