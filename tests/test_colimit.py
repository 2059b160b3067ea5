"""Tests for diagram gluing and the density of the canonical generators."""

from __future__ import annotations

import itertools
import random
import re
from bisect import bisect_left
from collections import Counter

import pytest

from tapecat.colimit import (
    CellGluing,
    DensityResult,
    Disconnected,
    GlueError,
    LabelConflict,
    MalformedDiagram,
    NotLinear,
    canonical_diagram,
    density_check,
    glue,
    glue_cells,
)
from tapecat.fincat import canonical_generators, string_inclusion
from tapecat.kan import density_sweep
from tapecat.tape import (
    DEFAULT_ALPHABET,
    Alphabet,
    AlphabetMismatch,
    Occurrence,
    TapeString,
    all_strings,
    compose,
)

from .support import (
    brute_offsets,
    cocones_to,
    comma_over,
    count_mediators,
    gluing_signature,
    occ,
    per_string_density,
    reference_read,
    ts,
    unchecked_occurrence,
)


def diagram(nodes, edges):
    node_list = [(i, ts(v)) for i, v in nodes]
    by_id = dict(node_list)
    edge_list = [(s, d, Occurrence(by_id[s], by_id[d], off)) for s, d, off in edges]
    return DEFAULT_ALPHABET, node_list, edge_list


SHARED_CELL = diagram(
    [("n1", "#."), ("n2", ".#"), ("n3", ".")],
    [("n3", "n1", 1), ("n3", "n2", 0)],
)


class TestGlue:
    def test_overlap_through_shared_cell(self):
        value, legs = glue(*SHARED_CELL)
        assert value == ts("#.#")
        assert legs["n1"] == occ("#.", "#.#", 0)
        assert legs["n2"] == occ(".#", "#.#", 1)
        assert legs["n3"] == occ(".", "#.#", 1)

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
        value, legs = glue(*diagram([("a", "..#")], []))
        assert value == ts("..#")
        assert legs["a"] == occ("..#", "..#", 0)

    def test_empty_diagram(self):
        value, _ = glue(DEFAULT_ALPHABET, [], [])
        assert value == ts("")

    def test_empty_nodes_are_absorbed(self):
        d = diagram([("e", ""), ("n", "#")], [("e", "n", 0)])
        value, legs = glue(*d)
        assert value == ts("#")
        assert legs["e"] == occ("", "#", 0)

    def test_label_conflict_on_forced_clash(self):
        # a shared single-cell node mapped into both '#' and '.': the second
        # edge cannot exist as a real occurrence, so it is injected raw
        nodes = [("n1", ts("#")), ("n2", ts(".")), ("n3", ts("#"))]
        edges = [
            ("n3", "n1", Occurrence(ts("#"), ts("#"), 0)),
            ("n3", "n2", unchecked_occurrence(ts("#"), ts("."), 0)),
        ]
        with pytest.raises(LabelConflict) as exc:
            glue(DEFAULT_ALPHABET, nodes, edges)
        assert set(exc.value.nodes) <= {"n1", "n2", "n3"} and exc.value.nodes

    def test_not_linear_on_branch(self):
        d = diagram(
            [("s", "#"), ("a", "#."), ("b", "##")],
            [("s", "a", 0), ("s", "b", 0)],
        )
        with pytest.raises(NotLinear):
            glue(*d)

    def test_not_linear_on_cycle(self):
        # gluing '#' onto both cells of '##' folds the node onto itself
        d = diagram([("s", "#"), ("a", "##")], [("s", "a", 0), ("s", "a", 1)])
        with pytest.raises(NotLinear):
            glue(*d)

    def test_disconnected(self):
        with pytest.raises(Disconnected) as exc:
            glue(*diagram([("a", "#"), ("b", ".")], []))
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
        # an offset outside the target, a node over another alphabet, an
        # edge to an unknown id and an edge that carries other strings
        nodes = [("a", ts("#")), ("b", ts("##"))]
        foreign = ("c", TapeString(Alphabet(("x", "y")), "x"))
        for node_list, edge, message in [
            (nodes, ("a", "b", unchecked_occurrence(ts("#"), ts("##"), 5)),
             "edge 0 -> 1 at offset 5 falls outside node 1"),
            (nodes + [foreign], None, "node c is not over the diagram alphabet"),
            (nodes, ("a", "z", occ("#", "##", 0)), "edge a -> z references unknown node"),
            (nodes, ("a", "b", occ("#", "#", 0)), "edge a -> b does not carry the node strings"),
        ]:
            with pytest.raises(MalformedDiagram, match=f"^{re.escape(message)}$"):
                glue(DEFAULT_ALPHABET, node_list, [edge] if edge else [])

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
            glue(*diagram([("a", "#"), ("a", "#")], []))

    def test_reorder_invariance(self):
        alphabet, nodes, edges = SHARED_CELL
        base_value, base_legs = glue(*SHARED_CELL)
        for node_perm in itertools.permutations(nodes):
            for edge_perm in itertools.permutations(edges):
                value, legs = glue(alphabet, list(node_perm), list(edge_perm))
                assert value == base_value
                assert legs == base_legs

    def test_legs_commute_with_edges(self):
        _, legs = glue(*SHARED_CELL)
        for src, dst, e in SHARED_CELL[2]:
            assert compose(e, legs[dst]) == legs[src]


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
        # one, a close that raises closes nothing, and a state that a close
        # returns from glues.
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
                else:
                    streaming.copy().result()
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


def _small_diagrams():
    """Every diagram with <= 3 nodes of length <= 2 and <= 2 joining edges,
    as (values, edges).  Empty-source and identity self-edges never join
    cells, so they are not enumerated as joining edges."""
    strings = [s.cells for s in all_strings(DEFAULT_ALPHABET, 2) if s.cells]
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
                    yield list(values), list(edges)


def _reading(gluing, reference):
    """An independent copy of gluing that reads by the reference reader or
    by its own."""
    twin = gluing.copy()
    if reference:
        twin._read = reference_read.__get__(twin)
    return twin


def _read_outcomes(gluing, reference):
    """What result gives, then what close gives at each frontier: a value
    (for close, the nodes dropped, the signature of the state left and the
    closed word) or the error's class, message and nodes."""
    calls = [lambda g: g.result()] + [
        lambda g, f=frontier: (g.close(f), gluing_signature(g), g.closed)
        for frontier in range(len(gluing.values) + 1)]
    outcomes = []
    for call in calls:
        try:
            outcomes.append(call(_reading(gluing, reference)))
        except GlueError as exc:
            outcomes.append((type(exc), str(exc), exc.nodes))
    return outcomes


def _larger_gluings(seed, count):
    """Seeded diagrams built in steps, as the evaluation pass builds them:
    at step t, spans of 0-3 cells of a hidden word ending at cell t + 1,
    each glued to the recent spans that hold it or that it holds, with
    spans and edges left out, flipped labels and stray edges, at a rate
    of 0, 3% or 10% per case.  Every other diagram is closed before each
    step, as the pass closes it, while that glues, so that ``after`` is
    set, and the rest is built on the held state."""
    rng = random.Random(seed)
    for case in range(count):
        faults = (0, 0.03, 0.1)[case % 3]
        word = "".join(rng.choices("#.", k=10))
        gluing, spans, steps = CellGluing(), [], []
        for t in range(rng.randint(2, 8)):
            if case % 2:
                trial = gluing.copy()
                try:
                    dropped = trial.close(bisect_left(steps, t - 1))
                except GlueError:
                    pass
                else:  # a held node keeps the end of its span
                    gluing, steps = trial, steps[dropped:]
                    spans = [(stop - len(v), stop) for v, (_, stop)
                             in zip(gluing.values, spans[dropped:])]
            for n in rng.sample(range(4), rng.randint(1, 4)):
                start, stop = max(t + 1 - n, 0), t + 1
                value = word[start:stop]
                if value and rng.random() < faults:
                    value = value[:-1] + ("#" if value[-1] == "." else ".")
                node = gluing.add(value)
                for other in range(bisect_left(steps, t - 1), node):
                    o_start, o_stop = spans[other]
                    if rng.random() < faults:
                        continue
                    if o_start <= start and stop <= o_stop:
                        gluing.identify(node, other, start - o_start)
                    elif start <= o_start and o_stop <= stop:
                        gluing.identify(other, node, o_start - start)
                if rng.random() < 2 * faults:
                    i, j = rng.choices(range(node + 1), k=2)
                    room = len(gluing.values[j]) - len(gluing.values[i])
                    if room >= 0:
                        gluing.identify(i, j, rng.randint(0, room))
                spans.append((start, stop))
                steps.append(t)
        yield gluing


def _rings():
    """The ring of test_close_holds_a_cycle, alone and beside a path, and
    holding ``after`` or not."""
    for extra, after in itertools.product(("", "#", "##"), (None, 0)):
        gluing = CellGluing()
        for value in ("#.", ".#", ".", "#", extra):
            gluing.add(value)
        for i, j, off in [(2, 0, 1), (2, 1, 0), (3, 0, 0), (3, 1, 1)]:
            gluing.identify(i, j, off)
        gluing.after = after
        yield gluing


def _outcome_kind(outcome):
    """A read outcome with its numbers and labels blanked: "glued", or the
    error's class and message."""
    if not isinstance(outcome[0], type):
        return "glued"
    return re.sub(r"[0-9]+|'.'", "N", f"{outcome[0].__name__}: {outcome[1]}")


FAULT_KINDS = [
    "LabelConflict: cells of nodes N and N are glued but labelled N vs N",
    "NotLinear: node N glues onto itself (cycle)",
    "NotLinear: quotient branches after a cell of node N",
    "NotLinear: quotient branches before a cell of node N",
    "NotLinear: quotient branches before the closed word's successor",
    "Disconnected: quotient splits into N components",
    "NotLinear: quotient adjacency is a cycle",
    "NotLinear: quotient contains a disconnected cycle",
]


class TestReader:
    """The reader that names a fault's nodes where its one pass finds it,
    against the one that checks the adjacency list by list
    (support.reference_read)."""

    def test_every_small_diagram_reads_as_the_reference(self):
        checked = failing = 0
        for values, edges in _small_diagrams():
            gluing = CellGluing()
            for v in values:
                gluing.add(v)
            for i, j, off in edges:
                gluing.identify(i, j, off)
            got = _read_outcomes(gluing, False)
            assert got == _read_outcomes(gluing, True), (values, edges)
            checked += 1
            failing += isinstance(got[0][0], type)
        assert 0 < failing < checked

    def test_larger_diagrams_read_as_the_reference(self):
        # with empty nodes and, once a prefix closed, a set ``after``; with
        # the rings, every fault the reader names is met
        kinds, after = Counter(), 0
        for gluing in itertools.chain(_larger_gluings(3, 600), _rings()):
            got = _read_outcomes(gluing, False)
            assert got == _read_outcomes(gluing, True)
            after += gluing.after is not None
            kinds.update(map(_outcome_kind, got))
        assert after > 50 and len(kinds) == 9, kinds

    @pytest.fixture(scope="class")
    def first_faults(self):
        """Each fault kind, with the first of the larger diagrams and rings
        that raises it and the call that does: 0 for result, f + 1 for
        close at frontier f."""
        found = {}
        for gluing in itertools.chain(_larger_gluings(3, 600), _rings()):
            for call, outcome in enumerate(_read_outcomes(gluing, False)):
                found.setdefault(_outcome_kind(outcome), (gluing, call))
        return found

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_a_failing_state_is_read_once(self, kind, first_faults, monkeypatch):
        # the check that finds the fault names its nodes: no second reading
        # resolves the roots again or builds the first-cell map twice
        gluing, call = first_faults[kind]
        reads = Counter()
        roots, first_cells = CellGluing._roots, CellGluing._first_cells

        def counted_roots(g):
            reads["roots"] += 1
            return roots(g)

        def counted_first_cells(r):
            reads["first cells"] += 1
            return first_cells(r)

        monkeypatch.setattr(CellGluing, "_roots", counted_roots)
        monkeypatch.setattr(CellGluing, "_first_cells", staticmethod(counted_first_cells))
        twin = gluing.copy()
        with pytest.raises(GlueError) as raised:
            twin.close(call - 1) if call else twin.result()
        assert _outcome_kind((type(raised.value), str(raised.value))) == kind
        assert reads["roots"] == 1 and reads["first cells"] <= 1, reads


class TestGlueUniversalitySmall:
    def test_exhaustive_small_diagrams(self):
        # every small diagram: when glue succeeds, the result must be the
        # universal cocone
        checked = 0
        for values, edges in _small_diagrams():
            try:
                value, legs = glue_cells(values, edges)
            except GlueError:
                continue
            total = sum(len(v) for v in values)
            for w in all_strings(DEFAULT_ALPHABET, total):
                for cocone in cocones_to(values, edges, w.cells):
                    assert count_mediators(values, value, legs, cocone, w.cells) == 1
            checked += 1
        assert checked > 100


class TestDensity:
    def test_double_black(self, generators):
        assert density_check(ts("##"), generators).ok

    def test_empty_string(self, generators):
        assert density_check(ts(""), generators).ok

    def test_sweep_up_to_6(self, generators):
        for x in all_strings(DEFAULT_ALPHABET, 6):
            verdict = density_check(x, generators)
            assert verdict.ok, f"{x}: {verdict.detail}"

    def test_the_sweep_agrees_with_density_check(self, generators):
        # the prefix-extension sweep against a string-by-string reference:
        # per length the count, and the first failing string with its detail
        ternary = Alphabet(("a", "b", "c"))
        strings = generators  # (empty), ., #, .., .#, #., ##
        faulty = [strings[:3], (strings[0], strings[2]), strings[1:], (strings[0], *strings[3:])]
        runs = [(DEFAULT_ALPHABET, generators, 8), (ternary, canonical_generators(ternary), 5)] + [
            (DEFAULT_ALPHABET, gens, 6) for gens in faulty]
        # a generator listed twice is one object of the sweep's shape
        runs.append((DEFAULT_ALPHABET, generators + generators[1:2], 6))
        failing = 0
        for alphabet, gens, max_len in runs:
            rows = density_sweep(alphabet, gens, max_len)
            assert rows == per_string_density(alphabet, gens, max_len), [str(g) for g in gens]
            failing += any(failure for _, failure in rows)
        assert failing == 3  # the empty generator identifies no cell: without it, all glue
        assert density_sweep(DEFAULT_ALPHABET, generators, -1) == []

    def test_the_sweep_refuses_a_three_cell_generator(self, generators):
        # its comma morphisms could identify cells that the pass's joins of
        # one-cell-smaller generators miss
        with pytest.raises(ValueError, match=r"^generator ### has more than two cells$"):
            density_sweep(DEFAULT_ALPHABET, (*generators, ts("###")), 3)

    def test_a_displaced_leg_is_named(self, generators, monkeypatch):
        # ## glues to itself; shifting the leg of its node #@0 by one cell
        # leaves the word right, so only the leg comparison can fail it
        result = CellGluing.result

        def shifted(gluing):
            cells, legs = result(gluing)
            legs[1] += 1
            return cells, legs

        monkeypatch.setattr(CellGluing, "result", shifted)
        assert density_check(ts("##"), generators) == \
            DensityResult(False, "leg of #@0 is # @ 1 in ##, expected # @ 0 in ##")

    def test_canonical_diagram_is_the_comma_category(self):
        # reference: the comma category (generators over x), enumerated by search
        def node(o):
            return o.mid.source, o.mid.offset

        for alphabet, max_len in [(DEFAULT_ALPHABET, 6), (Alphabet(("a", "b", "c")), 4)]:
            gens = canonical_generators(alphabet)
            inclusion = string_inclusion(alphabet, gens)
            for x in all_strings(alphabet, max_len):
                comma = comma_over(inclusion, x)
                occs, edges = canonical_diagram(x, gens)
                assert occs == [node(o) for o in comma.objects]
                assert [(occs[i], occs[j], Occurrence(occs[i][0], occs[j][0], d))
                        for i, j, d in edges] == \
                    [(node(m.src), node(m.dst), inclusion.on_morphism(m.f_comp))
                     for m in comma.morphisms]

    def test_occurrence_edges_match_all_pairs(self, generators):
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
        for alphabet, gens, max_len in [(DEFAULT_ALPHABET, generators, 10),
                                        (ternary, canonical_generators(ternary), 6),
                                        (DEFAULT_ALPHABET, generators[:3], 6)]:
            for x in all_strings(alphabet, max_len):
                occs, edges = canonical_diagram(x, gens)
                assert edges == all_pairs(occs), str(x)

    def test_single_cell_legs_enumerate_cells(self, generators):
        x = ts("#..#")
        occs, edges = canonical_diagram(x, generators)
        cells, legs = glue_cells([g.cells for g, _ in occs], edges)
        single = [(g, leg) for (g, _), leg in zip(occs, legs) if g.length == 1]
        assert {leg for _, leg in single} == set(range(x.length))
        for g, leg in single:
            assert cells[leg] == g.cells

    def test_failure_details_are_pinned(self, generators):
        cells_only = generators[:3]
        for x, detail in [
            ("#.", "glue failed: quotient splits into 2 components [nodes: .@1, #@0]"),
            ("#.#", "glue failed: quotient splits into 3 components [nodes: .@1, #@0, #@2]"),
        ]:
            assert density_check(ts(x), cells_only) == DensityResult(False, detail)
        for x in ("#", ""):
            assert density_check(ts(x), cells_only) == DensityResult(True, "ok")
        black_only = (generators[0], generators[2])
        assert density_check(ts("."), black_only) == \
            DensityResult(False, "colimit is (empty), not .")
        with pytest.raises(AlphabetMismatch):
            density_check(ts("#"), canonical_generators(Alphabet(("a", "b"))))

    def test_diagnostic_on_failure(self, generators):
        # a corrupted diagram (node deleted) must fail with a diagnostic,
        # exercised through the underlying glue on a doctored canonical diagram
        x = ts("##")
        occs, edges = canonical_diagram(x, generators)
        kept = [k for k, o in enumerate(occs) if o != (ts("#"), 0)]
        assert len(kept) == len(occs) - 1
        renumber = {k: n for n, k in enumerate(kept)}
        cells, _ = glue_cells([occs[k][0].cells for k in kept],
                              [(renumber[i], renumber[j], d) for i, j, d in edges
                               if i in renumber and j in renumber])
        assert cells == x.cells  # still glues: the pair node covers both cells
