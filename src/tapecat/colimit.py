"""Colimits of tape-string diagrams by cell gluing, plus the density check.

A diagram's cells are united under the equivalence generated by its edge
occurrences; the quotient must chain into a single simple path whose labels
spell the colimit.  Anything else (branching, cycles, label clashes, two
components) is an error: those colimits do not exist among tape strings,
and the engine's job is to detect them, not invent them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import tape
from .fincat import DenseSubcategory
from .tape import Alphabet, Occurrence, TapeString


class GlueError(Exception):
    """A diagram whose colimit does not exist among tape strings."""

    def __init__(self, message: str, nodes: tuple = ()) -> None:
        super().__init__(message)
        self.nodes = nodes


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


def glue_cells(values: Sequence[str], edges: Iterable[tuple[int, int, int]],
               ) -> tuple[str, list[int]]:
    """Core gluing on raw words: returns (colimit word, leg offset per node).

    ``edges`` are (source index, target index, offset) triples; cell k of a
    source is identified with cell offset+k of the target.  Empty nodes take
    the canonical leg offset 0.  Raises LabelConflict / NotLinear /
    Disconnected (carrying offending node indices) when the quotient is not
    a single labelled path.
    """
    starts: list[int] = []
    total = 0
    for v in values:
        starts.append(total)
        total += len(v)
    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, off in edges:
        vi = values[i]
        if not vi:
            continue
        if off < 0 or off + len(vi) > len(values[j]):
            raise MalformedDiagram(f"edge {i} -> {j} at offset {off} falls outside node {j}")
        base_i, base_j = starts[i], starts[j] + off
        for k in range(len(vi)):
            a, b = find(base_i + k), find(base_j + k)
            if a != b:
                parent[a] = b

    label: dict[int, str] = {}
    rep: dict[int, int] = {}
    for i, v in enumerate(values):
        for k, c in enumerate(v):
            r = find(starts[i] + k)
            prev = label.get(r)
            if prev is None:
                label[r] = c
                rep[r] = i
            elif prev != c:
                raise LabelConflict(
                    f"cells of nodes {rep[r]} and {i} are glued but labelled {prev!r} vs {c!r}",
                    nodes=(rep[r], i),
                )

    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    for i, v in enumerate(values):
        for k in range(len(v) - 1):
            a, b = find(starts[i] + k), find(starts[i] + k + 1)
            if a == b:
                raise NotLinear(f"node {i} glues onto itself (cycle)", nodes=(i,))
            if succ.setdefault(a, b) != b:
                raise NotLinear(f"quotient branches after a cell of node {i}",
                                nodes=(rep[a], i))
            if pred.setdefault(b, a) != a:
                raise NotLinear(f"quotient branches before a cell of node {i}",
                                nodes=(rep[b], i))

    roots: list[int] = []
    seen_roots: set[int] = set()
    for i, v in enumerate(values):
        for k in range(len(v)):
            r = find(starts[i] + k)
            if r not in seen_roots:
                seen_roots.add(r)
                roots.append(r)
    if not roots:
        return "", [0] * len(values)

    heads = [r for r in roots if r not in pred]
    if len(heads) > 1:
        raise Disconnected(
            f"quotient splits into {len(heads)} components",
            nodes=tuple(sorted({rep[h] for h in heads})),
        )
    if not heads:
        raise NotLinear("quotient adjacency is a cycle", nodes=(rep[roots[0]],))
    path: list[int] = []
    on_path: set[int] = set()
    cur: int | None = heads[0]
    while cur is not None:
        if cur in on_path:
            raise NotLinear("quotient adjacency is a cycle", nodes=(rep[cur],))
        path.append(cur)
        on_path.add(cur)
        cur = succ.get(cur)
    if len(path) != len(roots):
        stray = next(r for r in roots if r not in on_path)
        raise NotLinear("quotient contains a disconnected cycle", nodes=(rep[stray],))

    pos = {r: t for t, r in enumerate(path)}
    value = "".join(label[r] for r in path)
    legs = [pos[find(starts[i])] if v else 0 for i, v in enumerate(values)]
    return value, legs


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
