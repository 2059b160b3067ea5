"""Tests for diagram gluing and the density of the canonical generators."""

from __future__ import annotations

import dataclasses
import itertools
import random
from bisect import bisect_left

import pytest

from tapecat.colimit import (
    CellGluing,
    DensityResult,
    Disconnected,
    GlueError,
    LabelConflict,
    MalformedDiagram,
    NotLinear,
    TapeDiagram,
    canonical_diagram,
    density_check,
    glue,
    glue_cells,
)
from tapecat.fincat import canonical_dense_subcategory
from tapecat.tape import (
    DEFAULT_ALPHABET,
    Alphabet,
    AlphabetMismatch,
    Occurrence,
    all_strings,
    compose,
)

from .support import (
    brute_offsets,
    cocones_to,
    comma_over,
    count_mediators,
    occ,
    ts,
    unchecked_occurrence,
)


@pytest.fixture(scope="module")
def dense():
    return canonical_dense_subcategory(DEFAULT_ALPHABET)


def diagram(nodes, edges):
    node_list = [(i, ts(v)) for i, v in nodes]
    by_id = dict(node_list)
    edge_list = [(s, d, Occurrence(by_id[s], by_id[d], off)) for s, d, off in edges]
    return TapeDiagram.build(DEFAULT_ALPHABET, node_list, edge_list)


SHARED_CELL = diagram(
    [("n1", "#."), ("n2", ".#"), ("n3", ".")],
    [("n3", "n1", 1), ("n3", "n2", 0)],
)


class TestGlue:
    def test_overlap_through_shared_cell(self):
        result = glue(SHARED_CELL)
        assert result.value == ts("#.#")
        assert result.legs["n1"] == occ("#.", "#.#", 0)
        assert result.legs["n2"] == occ(".#", "#.#", 1)
        assert result.legs["n3"] == occ(".", "#.#", 1)

    def test_shared_cell_result_is_universal(self):
        # brute-force cocone search over every candidate string
        values = ["#.", ".#", "."]
        edges = [(2, 0, 1), (2, 1, 0)]
        legs = [0, 1, 1]
        seen = 0
        for w in all_strings(DEFAULT_ALPHABET, 5):
            for cocone in cocones_to(values, edges, w.cells):
                assert count_mediators(values, "#.#", legs, cocone, w.cells) == 1
                seen += 1
        assert seen > 0

    def test_single_node(self):
        result = glue(diagram([("a", "..#")], []))
        assert result.value == ts("..#")
        assert result.legs["a"] == occ("..#", "..#", 0)

    def test_empty_diagram(self):
        result = glue(TapeDiagram.build(DEFAULT_ALPHABET, [], []))
        assert result.value == ts("")

    def test_empty_nodes_are_absorbed(self):
        d = diagram([("e", ""), ("n", "#")], [("e", "n", 0)])
        result = glue(d)
        assert result.value == ts("#")
        assert result.legs["e"] == occ("", "#", 0)

    def test_label_conflict_on_forced_clash(self):
        # a shared single-cell node mapped into both '#' and '.': the second
        # edge cannot exist as a real occurrence, so it is injected raw
        nodes = [("n1", ts("#")), ("n2", ts(".")), ("n3", ts("#"))]
        edges = [
            ("n3", "n1", Occurrence(ts("#"), ts("#"), 0)),
            ("n3", "n2", unchecked_occurrence(ts("#"), ts("."), 0)),
        ]
        with pytest.raises(LabelConflict) as exc:
            glue(TapeDiagram.build(DEFAULT_ALPHABET, nodes, edges))
        assert set(exc.value.nodes) <= {"n1", "n2", "n3"} and exc.value.nodes

    def test_not_linear_on_branch(self):
        d = diagram(
            [("s", "#"), ("a", "#."), ("b", "##")],
            [("s", "a", 0), ("s", "b", 0)],
        )
        with pytest.raises(NotLinear):
            glue(d)

    def test_not_linear_on_cycle(self):
        # gluing '#' onto both cells of '##' folds the node onto itself
        d = diagram([("s", "#"), ("a", "##")], [("s", "a", 0), ("s", "a", 1)])
        with pytest.raises(NotLinear):
            glue(d)

    def test_disconnected(self):
        with pytest.raises(Disconnected) as exc:
            glue(diagram([("a", "#"), ("b", ".")], []))
        assert set(exc.value.nodes) == {"a", "b"}

    # '#' glued into the first cells of '#.' and '##': the quotient branches
    BRANCH = (["#", "#.", "##"], [(0, 1, 0), (0, 2, 0)])

    @pytest.mark.parametrize("extra_value, extra_edges, error", [
        (None, [], NotLinear),
        # '.' glued onto the branching cell as well: the labels clash
        (".", [(3, 2, 0)], LabelConflict),
        # a lone '.' makes a second component besides the branch
        (".", [], NotLinear),
    ])
    def test_error_priority(self, extra_value, extra_edges, error):
        # the raised class does not depend on node or edge order
        values, edges = self.BRANCH
        values = values + ([extra_value] if extra_value else [])
        edges = edges + extra_edges
        for perm in itertools.permutations(range(len(values))):
            new = {old: k for k, old in enumerate(perm)}
            permuted = [values[old] for old in perm]
            for edge_perm in itertools.permutations(edges):
                renamed = [(new[i], new[j], off) for i, j, off in edge_perm]
                with pytest.raises(GlueError) as exc:
                    glue_cells(permuted, renamed)
                assert type(exc.value) is error

    def test_malformed_edge_rejected(self):
        nodes = [("a", ts("#")), ("b", ts("##"))]
        bad = unchecked_occurrence(ts("#"), ts("##"), 5)
        with pytest.raises(MalformedDiagram):
            glue(TapeDiagram.build(DEFAULT_ALPHABET, nodes, [("a", "b", bad)]))

    @pytest.mark.parametrize("values, edges", [
        (["a", "a"], [(0, -1, 0)]),  # a negative index would name node 1
        (["a"], [(0, 3, 0)]),
        (["", "a"], [(0, 5, 0)]),  # an empty source glues no cell
        (["", "a"], [(0, 1, 7)]),  # an empty source sits at offset 0
        (["#", "#."], [(0, 1, -1)]),  # before its target
        (["#", "#."], [(0, 1, 2)]),  # past the end of its target
        (["##", "#"], [(0, 1, 0)]),  # longer than its target
    ])
    def test_malformed_index_edge_rejected(self, values, edges):
        with pytest.raises(MalformedDiagram):
            glue_cells(values, edges)

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(MalformedDiagram):
            glue(diagram([("a", "#"), ("a", "#")], []))

    def test_reorder_invariance(self):
        base = glue(SHARED_CELL)
        for node_perm in itertools.permutations(SHARED_CELL.nodes):
            for edge_perm in itertools.permutations(SHARED_CELL.edges):
                d = TapeDiagram(DEFAULT_ALPHABET, tuple(node_perm), tuple(edge_perm))
                result = glue(d)
                assert result.value == base.value
                assert result.legs == base.legs

    def test_legs_commute_with_edges(self):
        result = glue(SHARED_CELL)
        for e in SHARED_CELL.edges:
            assert compose(e.occ, result.legs[e.dst]) == result.legs[e.src]


class TestCellGluing:
    def test_copy_is_independent(self):
        # cell 2 -> cell 1 -> cell 0: finding cell 2's root halves its path
        gluing = CellGluing()
        for _ in range(3):
            gluing.add("#")
        gluing.identify(1, 2, 0)
        gluing.identify(0, 1, 0)
        assert gluing.parent == [0, 0, 1]
        twin = gluing.copy()
        assert twin.add("#.") == 3
        twin.identify(2, 3, 0)
        assert twin.parent == [0, 0, 0, 0, 4]
        assert twin.result() == ("#.", [0, 0, 0, 0])
        assert gluing.parent == [0, 0, 1]
        assert gluing.result() == ("#", [0, 0, 0])
        gluing.add(".")
        assert twin.result() == ("#.", [0, 0, 0, 0])


    def test_close_emits_the_finished_prefix(self):
        # "#." and ".#" share their middle cell through "."; with node 0
        # finished, only its first cell's class is closed, and node 0 stays
        # held for its second cell
        gluing = CellGluing()
        for value in ("#.", ".#", "."):
            gluing.add(value)
        gluing.identify(2, 0, 1)
        gluing.identify(2, 1, 0)
        assert gluing.close(1) == 0
        assert gluing.closed == ["#"] and gluing.values == [".", ".#", "."]
        assert gluing.result() == ("#.#", [1, 1, 1])
        # every node finished: the middle class closes too, but not the
        # last, which has no successor; node 0 is dropped, and node 2 is
        # held empty behind node 1
        assert gluing.close(3) == 1
        assert gluing.closed == ["#", "."] and gluing.values == ["#", ""]
        assert gluing.result() == ("#.#", [2, 0])

    def test_close_holds_a_cycle(self):
        # "#." and ".#" glued end to end both ways: every class has one
        # successor and one predecessor, but none starts the path
        gluing = CellGluing()
        for value in ("#.", ".#", ".", "#"):
            gluing.add(value)
        for i, j, off in [(2, 0, 1), (2, 1, 0), (3, 0, 0), (3, 1, 1)]:
            gluing.identify(i, j, off)
        held = gluing.copy()
        with pytest.raises(NotLinear, match="cycle"):
            gluing.close(4)
        _assert_same_state(gluing, held)
        assert not gluing.closed
        with pytest.raises(NotLinear, match="cycle"):
            gluing.result()

    def test_close_needs_a_state_that_glues(self):
        # "#." and two ".#" share one middle class through ".": node 0's
        # "#" is finished and starts the path, but the middle class
        # branches, so the held state does not glue: close raises as result
        # does, and nothing closes
        gluing = CellGluing()
        for value in ("#.", ".#", ".", ".#"):
            gluing.add(value)
        for i, j, off in [(2, 0, 1), (2, 1, 0), (2, 3, 0)]:
            gluing.identify(i, j, off)
        held = gluing.copy()
        with pytest.raises(NotLinear, match="quotient branches after a cell of node 3"):
            gluing.close(1)
        _assert_same_state(gluing, held)
        assert gluing.closed == []
        with pytest.raises(NotLinear, match="quotient branches after a cell of node 3"):
            gluing.result()

    def test_closing_never_certifies_what_result_rejects(self):
        # diagrams built in steps, as the evaluation pass builds them: at
        # step t, spans of 0-3 cells of a hidden word ending at cell t + 1,
        # each glued to the spans of steps t - 1 and t that hold it or that
        # it holds.  Faults: spans left out, edges left out, flipped labels
        # and a few random edges, which also make branches and cycles.
        # Closing before each step must agree with the batch result wherever
        # it certifies, and must certify the lawful diagrams; each closing
        # happens on a state that glues, whose word starts with the closed
        # one, and a close that raises closes nothing.
        rng = random.Random(5)
        certified = lawful = 0
        for case in range(1000):
            faults = case % 2 * 0.05
            word = "".join(rng.choices("#.", k=12))
            batch, streaming = CellGluing(), CellGluing()
            spans: list[tuple[int, int]] = []
            steps: list[int] = []
            dropped = 0
            for t in range(10):
                closings = len(streaming.closed)
                held = streaming.copy()
                try:
                    dropped += streaming.close(bisect_left(steps, t - 1) - dropped)
                except GlueError:
                    assert faults, word
                    _assert_same_state(streaming, held)
                if len(streaming.closed) > closings:
                    assert batch.copy().result()[0].startswith("".join(streaming.closed))
                for n in rng.sample(range(min(4, t + 2)), min(4, t + 2)):
                    if rng.random() < faults:
                        continue
                    start, stop = t + 1 - n, t + 1
                    value = word[start:stop]
                    if value and rng.random() < faults:
                        value = value[:-1] + ("#" if value[-1] == "." else ".")
                    node = batch.add(value)
                    assert streaming.add(value) == node - dropped
                    recent = range(bisect_left(steps, t - 1), node + 1)
                    edges = []
                    for other in recent[:-1]:
                        o_start, o_stop = spans[other]
                        if rng.random() < faults:
                            continue
                        if o_start <= start and stop <= o_stop:
                            edges.append((node, other, start - o_start))
                        elif start <= o_start and o_stop <= stop:
                            edges.append((other, node, o_start - start))
                    if rng.random() < faults:
                        i, j = rng.choices(recent, k=2)
                        if len(batch.values[i]) <= len(batch.values[j]):
                            edges.append((i, j, rng.randint(0, len(batch.values[j])
                                                            - len(batch.values[i]))))
                    for i, j, off in edges:
                        batch.identify(i, j, off)
                        streaming.identify(i - dropped, j - dropped, off)
                    spans.append((start, stop))
                    steps.append(t)
            try:
                want = batch.result()
            except GlueError:
                want = None
            lawful += not faults
            try:
                got = streaming.result()
            except GlueError:
                assert faults, word
                continue
            assert want is not None and got[0] == want[0]
            # a held node's leg is that of its held cells, after any closed ones
            assert got[1] == [leg + len(v) - len(held) if held else 0 for v, held, leg
                              in zip(batch.values[dropped:], streaming.values, want[1][dropped:])]
            assert streaming.closed
            certified += 1
        assert lawful == 500 and certified > lawful


def _assert_same_state(gluing, held):
    assert (gluing.values, gluing.starts, gluing.parent, gluing.closed, gluing.after) == \
        (held.values, held.starts, held.parent, held.closed, held.after)


class TestGlueUniversalitySmall:
    def test_exhaustive_small_diagrams(self):
        # every diagram with <= 3 nodes of length <= 2 and <= 2 joining edges:
        # when glue succeeds, the result must be the universal cocone.
        # (empty-source and identity self-edges never join cells, so they are
        # not enumerated as joining edges)
        strings = [s.cells for s in all_strings(DEFAULT_ALPHABET, 2) if s.cells]
        checked = 0
        for n in range(1, 4):
            for values in itertools.combinations_with_replacement(strings, n):
                available = [
                    (i, j, off)
                    for i in range(n)
                    for j in range(n)
                    if i != j
                    for off in brute_offsets(values[i], values[j])
                ]
                for k in range(3):
                    for edges in itertools.combinations(available, k):
                        try:
                            value, legs = glue_cells(list(values), list(edges))
                        except GlueError:
                            continue
                        total = sum(len(v) for v in values)
                        for w in all_strings(DEFAULT_ALPHABET, total):
                            for cocone in cocones_to(list(values), list(edges), w.cells):
                                assert count_mediators(list(values), value, legs,
                                                       cocone, w.cells) == 1
                        checked += 1
        assert checked > 100


class TestDensity:
    def test_double_black(self, dense):
        assert density_check(ts("##"), dense).ok

    def test_empty_string(self, dense):
        assert density_check(ts(""), dense).ok

    def test_sweep_up_to_6(self, dense):
        for x in all_strings(DEFAULT_ALPHABET, 6):
            verdict = density_check(x, dense)
            assert verdict.ok, f"{x}: {verdict.detail}"

    def test_canonical_diagram_is_the_comma_category(self):
        # reference: the comma category (generators over x), enumerated by search
        def node(o):
            return o.mid.source, o.mid.offset

        for alphabet, max_len in [(DEFAULT_ALPHABET, 6), (Alphabet(("a", "b", "c")), 4)]:
            gens = canonical_dense_subcategory(alphabet)
            for x in all_strings(alphabet, max_len):
                comma = comma_over(gens.inclusion, x)
                occs, edges = canonical_diagram(x, gens)
                assert occs == [node(o) for o in comma.objects]
                assert [(occs[i], occs[j], Occurrence(occs[i][0], occs[j][0], d))
                        for i, j, d in edges] == \
                    [(node(m.src), node(m.dst), gens.inclusion.on_morphism(m.f_comp))
                     for m in comma.morphisms]

    def test_occurrence_edges_match_all_pairs(self, dense):
        # reference: test every ordered pair of occurrences for a comma
        # morphism, sources in order and then targets in order
        def all_pairs(occs):
            edges = []
            for i, (g1, off1) in enumerate(occs):
                for j, (g2, off2) in enumerate(occs):
                    d = off1 - off2 if g1.cells else 0
                    if 0 <= d and d + len(g1) <= len(g2):
                        edges.append((i, j, d))
            return edges

        ternary = Alphabet(("a", "b", "c"))
        cells_only = dataclasses.replace(dense, strings=dense.strings[:3])
        for gens, max_len in [(dense, 10), (canonical_dense_subcategory(ternary), 6),
                              (cells_only, 6)]:
            for x in all_strings(gens.alphabet, max_len):
                occs, edges = canonical_diagram(x, gens)
                assert edges == all_pairs(occs), str(x)

    def test_single_cell_legs_enumerate_cells(self, dense):
        x = ts("#..#")
        occs, edges = canonical_diagram(x, dense)
        cells, legs = glue_cells([g.cells for g, _ in occs], edges)
        single = [(g, leg) for (g, _), leg in zip(occs, legs) if g.length == 1]
        assert {leg for _, leg in single} == set(range(x.length))
        for g, leg in single:
            assert cells[leg] == g.cells

    def test_failure_details_are_pinned(self, dense):
        cells_only = dataclasses.replace(dense, strings=dense.strings[:3])
        for x, detail in [
            ("#.", "glue failed: quotient splits into 2 components [nodes: .@1, #@0]"),
            ("#.#", "glue failed: quotient splits into 3 components [nodes: .@1, #@0, #@2]"),
        ]:
            assert density_check(ts(x), cells_only) == DensityResult(False, detail)
        for x in ("#", ""):
            assert density_check(ts(x), cells_only) == DensityResult(True, "ok")
        black_only = dataclasses.replace(dense, strings=(dense.strings[0], dense.strings[2]))
        assert density_check(ts("."), black_only) == \
            DensityResult(False, "colimit is (empty), not .")
        with pytest.raises(AlphabetMismatch):
            density_check(ts("#"), canonical_dense_subcategory(Alphabet(("a", "b"))))

    def test_diagnostic_on_failure(self, dense):
        # a corrupted diagram (node deleted) must fail with a diagnostic,
        # exercised through the underlying glue on a doctored canonical diagram
        x = ts("##")
        occs, edges = canonical_diagram(x, dense)
        kept = [k for k, o in enumerate(occs) if o != (ts("#"), 0)]
        assert len(kept) == len(occs) - 1
        renumber = {k: n for n, k in enumerate(kept)}
        cells, _ = glue_cells([occs[k][0].cells for k in kept],
                              [(renumber[i], renumber[j], d) for i, j, d in edges
                               if i in renumber and j in renumber])
        assert cells == x.cells  # still glues: the pair node covers both cells
