"""Colimits of tape-string diagrams by cell gluing, plus the density check.

A diagram's cells are united under the equivalence generated by its edge
occurrences; the quotient must chain into a single simple path whose labels
spell the colimit.  Anything else (branching, cycles, label clashes, two
components) is an error: those colimits do not exist among tape strings,
and the engine's job is to detect them, not invent them.  CellGluing holds
that union-find incrementally, so a diagram can be glued while it is being
built; glue_cells drives it over a finished diagram.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from operator import eq
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import tape
from .fincat import DenseSubcategory
from .tape import Alphabet, Occurrence, TapeString


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


class MalformedDiagram(ValueError):
    """Structural breakage: unknown node ids, out-of-range edge offsets."""


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

    def dumps(self) -> str:
        lines = [f"node {n.id} {n.value}" for n in self.nodes]
        lines += [f"edge {e.src} {e.dst} {e.occ.offset}" for e in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str, alphabet: Alphabet) -> TapeDiagram:
        nodes: list[tuple[str, TapeString]] = []
        edges: list[tuple[str, str, int]] = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            toks = raw.split()
            if not toks:
                continue
            if toks[0] == "node" and len(toks) == 3:
                cells = "" if toks[2] == "(empty)" else toks[2]
                nodes.append((toks[1], TapeString(alphabet, cells)))
            elif toks[0] == "edge" and len(toks) == 4:
                edges.append((toks[1], toks[2], int(toks[3])))
            else:
                raise ValueError(f"line {lineno}: unrecognized diagram line {raw!r}")
        by_id = dict(nodes)
        full_edges = []
        for s, d, off in edges:
            if s not in by_id or d not in by_id:
                raise MalformedDiagram(f"edge {s} -> {d} references unknown node")
            full_edges.append((s, d, Occurrence(by_id[s], by_id[d], off)))
        return cls.build(alphabet, nodes, full_edges)


@dataclass
class GlueResult:
    value: TapeString
    legs: dict[str, Occurrence]


class CellGluing:
    """Incremental gluing state: the one union-find behind every colimit.

    ``add`` registers a node's cells and ``identify`` unites them at once
    with the cells of another node along an edge, so a diagram can be glued
    while it is being built.  ``result`` resolves every cell's root once,
    checks labels, linearity and connectivity over those roots, and reads
    the colimit word off the quotient's successor chain.
    """

    def __init__(self) -> None:
        self.values: list[str] = []
        self.starts: list[int] = []
        self.parent: list[int] = []

    def add(self, value: str) -> int:
        """Register a node with the given cells; returns its index."""
        start = len(self.parent)
        self.starts.append(start)
        self.values.append(value)
        self.parent.extend(range(start, start + len(value)))
        return len(self.values) - 1

    def identify(self, i: int, j: int, off: int) -> None:
        """Identify cell k of node i with cell off+k of node j."""
        vi = self.values[i]
        if not vi:
            return
        if off < 0 or off + len(vi) > len(self.values[j]):
            raise MalformedDiagram(f"edge {i} -> {j} at offset {off} falls outside node {j}")
        parent = self.parent
        base_i, base_j = self.starts[i], self.starts[j] + off
        for k in range(len(vi)):
            a, b = base_i + k, base_j + k
            while parent[a] != a:  # find both roots, halving the paths
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:  # j's root joins i's: a pass adds j after i, so trees stay shallow
                parent[b] = a

    def result(self) -> tuple[str, list[int]]:
        """The colimit word and the leg offset of every node (0 for empty
        nodes); raises LabelConflict, NotLinear or Disconnected, in that
        order of priority, carrying the offending node indices."""
        values, starts = self.values, self.starts
        roots = self.parent
        while True:  # pointer jumping: every cell ends on its root
            jumped = [roots[r] for r in roots]
            if jumped == roots:
                break
            roots = jumped
        labels = "".join(values)
        if not labels:
            return "", [0] * len(values)

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

        # the quotient's adjacency: the roots of consecutive cells of a node
        inner = bytearray(b"\x01") * len(roots)
        inner[-1] = 0
        for s in starts:
            if s:
                inner[s - 1] = 0
        left = list(compress(roots, inner))
        right = list(compress(roots[1:], inner))
        succ, pred = dict(zip(left, right)), dict(zip(right, left))
        if (any(map(eq, left, right)) or list(map(succ.__getitem__, left)) != right
                or list(map(pred.__getitem__, right)) != left):
            self._raise_not_linear(roots, rep)

        classes = set(roots)
        sources = classes - pred.keys()
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
        pos = dict(zip(path, range(len(path))))
        legs = [pos[roots[s]] if v else 0 for s, v in zip(starts, values)]
        return "".join(map(labels.__getitem__, path)), legs

    def _raise_not_linear(self, roots: list[int], rep) -> None:
        """Raise NotLinear at the first consecutive cell pair, in node order,
        that folds a node onto itself or branches the quotient."""
        succ: dict[int, int] = {}
        pred: dict[int, int] = {}
        for i, v in enumerate(self.values):
            for c in range(self.starts[i], self.starts[i] + len(v) - 1):
                a, b = roots[c], roots[c + 1]
                if a == b:
                    raise NotLinear(f"node {i} glues onto itself (cycle)", nodes=(i,))
                if succ.setdefault(a, b) != b:
                    raise NotLinear(f"quotient branches after a cell of node {i}",
                                    nodes=(rep(a), i))
                if pred.setdefault(b, a) != a:
                    raise NotLinear(f"quotient branches before a cell of node {i}",
                                    nodes=(rep(b), i))


def glue_cells(values: Sequence[str], edges: Iterable[tuple[int, int, int]],
               ) -> tuple[str, list[int]]:
    """Core gluing on raw words: returns (colimit word, leg offset per node).

    ``edges`` are (source index, target index, offset) triples; cell k of a
    source is identified with cell offset+k of the target.  Empty nodes take
    the canonical leg offset 0.  Raises LabelConflict / NotLinear /
    Disconnected (carrying offending node indices) when the quotient is not
    a single labelled path.
    """
    gluing = CellGluing()
    for v in values:
        gluing.add(v)
    for i, j, off in edges:
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


def canonical_diagram(x: TapeString, dense: DenseSubcategory) -> TapeDiagram:
    """One node per occurrence of a generator in x, edges from all comma
    morphisms over the identity of x.

    Such a morphism from one occurrence to another exists exactly when the
    first span lies inside the second (always, for an empty first source),
    and it is then the unique occurrence at the difference of the offsets.
    """
    if dense.alphabet != x.alphabet:
        raise MalformedDiagram("string and generators use different alphabets")
    return _comma_diagram(x, _generator_occurrences(x, dense))


def _generator_occurrences(x: TapeString, dense: DenseSubcategory) -> list[tuple[str, Occurrence]]:
    """Every occurrence of a generator in x, with its canonical node id."""
    return [(f"{s}@{o.offset}", o) for s in dense.strings for o in tape.hom(s, x)]


def _comma_diagram(x: TapeString, occs: list[tuple[str, Occurrence]]) -> TapeDiagram:
    nodes = [(node_id, o.source) for node_id, o in occs]
    edges: list[tuple[str, str, Occurrence]] = []
    for id1, o1 in occs:
        n = len(o1.source)
        for id2, o2 in occs:
            d = o1.offset - o2.offset if n else 0
            if 0 <= d and d + n <= len(o2.source):
                edges.append((id1, id2, Occurrence(o1.source, o2.source, d)))
    return TapeDiagram.build(x.alphabet, nodes, edges)


def density_check(x: TapeString, dense: DenseSubcategory) -> DensityResult:
    """Glue the canonical diagram of generator occurrences in x and verify
    the colimit is x itself with the original occurrences as legs."""
    occs = _generator_occurrences(x, dense)
    try:
        result = glue(_comma_diagram(x, occs))
    except GlueError as exc:
        return DensityResult(False, f"glue failed: {exc}")
    if result.value != x:
        return DensityResult(False, f"colimit is {result.value}, not {x}")
    for node_id, want in occs:
        if result.legs[node_id] != want:
            return DensityResult(False, f"leg of {node_id} is {result.legs[node_id]}, "
                                        f"expected {want}")
    return DensityResult(True, "ok")
