"""Tests for colimit evaluation, the oracle-equivalence sweep, and tracing."""

from __future__ import annotations

import dataclasses
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest

import tapecat.kan
import tapecat.machine
from tapecat.colimit import CellGluing, Disconnected, GlueError, MalformedDiagram, glue_cells
from tapecat.kan import ShapeCategory, evaluate, evaluate_traced
from tapecat.machine import (
    MachineSpec,
    SweepOutcome,
    apply,
    equivalence_sweep,
    explain,
    shape_category,
)
from tapecat.tape import (
    DEFAULT_ALPHABET,
    Alphabet,
    AlphabetMismatch,
    Occurrence,
    TapeString,
    all_strings,
    compose,
)

from .support import check_explanation, comma_over, occ, ts


class TestEvaluate:
    def test_worked_example(self, spread, spread_shape):
        assert evaluate(spread_shape, ts("#...#.")) == ts("#.##")

    def test_short_input_gives_empty(self, spread_shape):
        assert evaluate(spread_shape, ts("#")) == ts("")
        assert evaluate(spread_shape, ts("")) == ts("")

    def test_matches_oracle_to_8(self, spread, spread_shape):
        for x in all_strings(spread.alphabet, 8):
            assert evaluate(spread_shape, x) == apply(spread, x), str(x)

    def test_identity_machine(self, identity_machine):
        shape = shape_category(identity_machine)
        for x in all_strings(identity_machine.alphabet, 6):
            assert evaluate(shape, x) == x

    @pytest.mark.parametrize("machine", ["spread", "parity_machine"])
    def test_matches_oracle_on_a_long_tape(self, machine, request):
        spec = request.getfixturevalue(machine)
        rng = random.Random(5)
        x = TapeString(spec.alphabet, "".join(rng.choices(spec.alphabet.symbols, k=10**5)))
        assert evaluate(shape_category(spec), x) == apply(spec, x)

    def test_holds_only_the_frontier(self, spread, spread_shape):
        # the pass closes finished classes as it goes; holding every cell
        # peaked at about 11 MiB here (and tracing allocations slows the
        # pass about tenfold, which sets the tape's length)
        x = TapeString(spread.alphabet, "".join(random.Random(7).choices(".#", k=2 * 10**4)))
        evaluate(spread_shape, ts(""))  # compile the shape outside the trace
        tracemalloc.start()
        try:
            value = evaluate(spread_shape, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == apply(spread, x)
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("dropped", ["(.|...)", "(##|..#.)"])
    def test_a_stalled_pass_stays_cheap(self, spread, spread_shape, dropped, monkeypatch):
        # a dropped object leaves the held state unglued from its first
        # fault on; the first close that meets it raises and ends closing,
        # so a pass closes once per stretch of _CLOSE_AT right ends before
        # its first fault and never after it
        shape = spread_shape.without_object(dropped)
        x = TapeString(spread.alphabet, "".join(random.Random(3).choices(".#", k=3 * 10**4)))
        want = _batch(shape, x)
        assert isinstance(want, tuple)
        calls, raised = [], []
        close = CellGluing.close

        def counted(gluing, frontier):
            calls.append(frontier)
            try:
                return close(gluing, frontier)
            except GlueError:
                raised.append(frontier)
                raise

        monkeypatch.setattr(CellGluing, "close", counted)
        assert _streamed(shape, x) == want
        assert raised in ([], calls[-1:])
        assert 0 < len(calls) <= 2 + math.log2(len(x) / tapecat.kan._CLOSE_AT)

    def test_a_stretch_adds_at_most_4095_cells(self, spread_shape, request):
        # _CLOSE_AT counts right ends; each places at most one node per
        # level, and the levels hold the 1- and 2-cell generators
        shapes = [shape_category(request.getfixturevalue(machine)) for machine in
                  ("spread", "identity_machine", "parity_machine", "ternary_machine")]
        shapes += [spread_shape.without_object(o.name) for o in spread_shape.objects]
        for shape in shapes:
            compiled = shape.compiled
            assert [{len(compiled.generators[k]) for k in by_window.values()}
                    for _, by_window in compiled.levels] == [{1}, {2}]
        assert 3 * tapecat.kan._CLOSE_AT <= 4095

    @pytest.mark.parametrize("offset, window", [
        (2, "..#."), (-1, "..#."),
        (0, "..#.."),  # the source window then ends two cells before the target's
    ])
    def test_a_join_outside_its_target_is_refused(self, spread_shape, offset, window):
        # (#|..#) sits in (##|..#.) at offset 0: move it, or lengthen the window
        objects = tuple(dataclasses.replace(o, window=ts(window)) if o.name == "(##|..#.)"
                        else o for o in spread_shape.objects)
        morphisms = tuple(dataclasses.replace(m, offset=offset)
                          if m.name == "(#|..#)>(##|..#.)@0" else m
                          for m in spread_shape.morphisms)
        shape = ShapeCategory(spread_shape.alphabet, objects, morphisms)
        with pytest.raises(MalformedDiagram, match=re.escape("(#|..#)>(##|..#.)@0")):
            evaluate(shape, ts("#..#."))

    @pytest.mark.parametrize("end", ["src", "dst"])
    def test_a_morphism_naming_no_object_is_refused(self, spread_shape, end):
        morphisms = tuple(dataclasses.replace(m, **{end: "(#|#.x)"})
                          if m.name == "(#|..#)>(##|..#.)@0" else m
                          for m in spread_shape.morphisms)
        with pytest.raises(MalformedDiagram, match=re.escape("(#|..#)>(##|..#.)@0")):
            ShapeCategory(spread_shape.alphabet, spread_shape.objects, morphisms)

    def test_an_object_without_its_identity_has_no_presentation(self, spread_shape):
        morphisms = tuple(m for m in spread_shape.morphisms if m.name != "(#|#.#)>(#|#.#)@0")
        shape = ShapeCategory(spread_shape.alphabet, spread_shape.objects, morphisms)
        with pytest.raises(MalformedDiagram, match=re.escape("(#|#.#) has no identity")):
            shape.presentation

    def test_a_missing_composite_leaves_no_presentation(self, spread_shape):
        # the first pair, in morphism order, whose composite is the dropped one
        morphisms = tuple(m for m in spread_shape.morphisms if m.name != "(|)>(##|..#.)@0")
        shape = ShapeCategory(spread_shape.alphabet, spread_shape.objects, morphisms)
        with pytest.raises(MalformedDiagram, match=re.escape(
                "morphisms (|)>(#|.#.)@0 then (#|.#.)>(##|..#.)@1 have no composite")):
            shape.presentation

    def test_never_consults_the_rule(self, spread, spread_shape, monkeypatch):
        # the evaluator receives only the shape category; rule lookups are
        # compiled away, so poisoning the rule path must not change anything
        def poisoned(spec, cells):
            raise AssertionError("evaluate consulted the rule table")

        monkeypatch.setattr(tapecat.machine, "_window_map", poisoned)
        assert evaluate(spread_shape, ts("#...#.")) == ts("#.##")


class TestDroppedObjects:
    def test_evaluate_matches_gluing_the_comma_category(self, spread_shape):
        # reference: glue (window functor over x) along all its morphisms.
        # Dropping an object leaves the full subcategory on the others, so
        # the damaged shape's comma category is the whole one without the
        # nodes over the dropped object.
        objects = {o.name: o for o in spread_shape.objects}
        generator_offset = {
            m.name: 0 if objects[m.src].generator.is_empty() else m.offset
            for m in spread_shape.morphisms
        }
        window = spread_shape.window_functor()
        damaged = {name: spread_shape.without_object(name) for name in objects}
        outcomes = Counter()
        for x in all_strings(DEFAULT_ALPHABET, 8):
            comma = comma_over(window, x)
            # number the comma objects and arrows once, then filter the ids
            lefts = [o.left for o in comma.objects]
            ids = {o: i for i, o in enumerate(comma.objects)}
            arrows = [(ids[m.src], ids[m.dst], generator_offset[m.f_comp])
                      for m in comma.morphisms]
            for name, shape in damaged.items():
                kept = [i for i, left in enumerate(lefts) if left != name]
                index = {i: k for k, i in enumerate(kept)}
                values = [objects[lefts[i]].generator.cells for i in kept]
                edges = [(index[s], index[d], off) for s, d, off in arrows
                         if s in index and d in index]
                try:
                    want = glue_cells(values, edges)[0]
                except GlueError as exc:
                    want = exc
                try:
                    got = evaluate(shape, x).cells
                except GlueError as exc:
                    got = exc
                where = f"{x} without {name}"
                if isinstance(want, GlueError):
                    assert type(got) is type(want), where
                    if isinstance(want, Disconnected):
                        assert str(got) == str(want), where
                    outcomes[type(want).__name__] += 1
                else:
                    assert got == want, where
                    outcomes["glued"] += 1
        assert outcomes["glued"] and outcomes["Disconnected"]


def _batch(shape, x):
    """The value of the pass over x that closes nothing, or its error as
    (class, message, nodes, cells)."""
    try:
        return tapecat.kan._glued(shape, x, closing=False)[0]
    except GlueError as exc:
        return type(exc), str(exc), exc.nodes, exc.cells


def _streamed(shape, x):
    """The value of evaluate, or its error as _batch gives it."""
    try:
        return evaluate(shape, x).cells
    except GlueError as exc:
        return type(exc), str(exc), exc.nodes, exc.cells


def _random_inputs(alphabet, count, seed):
    rng = random.Random(seed)
    return [TapeString(alphabet, "".join(rng.choices(alphabet.symbols, k=rng.randint(0, 200))))
            for _ in range(count)]


class TestClosing:
    """Evaluation that closes finished classes at every right end, against
    the pass that holds every node."""

    @pytest.fixture(autouse=True)
    def close_at_every_end(self, monkeypatch):
        monkeypatch.setattr(tapecat.kan, "_CLOSE_AT", 1)

    @pytest.mark.parametrize("machine", [
        "spread", "identity_machine", "parity_machine", "ternary_machine"])
    def test_lawful_machines_close_all_but_the_frontier(self, machine, request):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        inputs = all_strings(spec.alphabet, 4) + _random_inputs(spec.alphabet, 20, seed=11)
        for x in inputs:
            cells, _, state = tapecat.kan._glued(shape, x)
            # certified without the fallback, holding only the last windows
            assert cells == state.gluing.result()[0] == _batch(shape, x) \
                == apply(spec, x).cells, str(x)
            assert len(state.gluing.parent) <= 12 * (2 * spec.radius + 2), str(x)
            assert len(state.placed) == len(state.ends) == len(state.gluing.values), str(x)
            assert bool(state.gluing.closed) == (len(x) > 2 * spec.radius + 3), str(x)

    @pytest.mark.parametrize("machine", ["spread", "parity_machine"])
    def test_every_dropped_object_errs_as_the_batch_pass(self, machine, request):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        outcomes = Counter()
        for k, o in enumerate(shape.objects):
            damaged = shape.without_object(o.name)
            for x in _random_inputs(spec.alphabet, 3, seed=k):
                want = _batch(damaged, x)
                assert _streamed(damaged, x) == want, f"{x} without {o.name}"
                outcomes[want[0].__name__ if isinstance(want, tuple) else "glued"] += 1
        assert outcomes["glued"] and outcomes["Disconnected"]

    # the sweep's passes close nothing; the per-string reference evaluates
    # each string closing at every right end

    @pytest.mark.parametrize("machine, max_len", [("spread", 8), ("parity_machine", 7)])
    def test_sweep_matches_the_per_string_sweep(self, machine, max_len, request):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        report = equivalence_sweep(spec, max_len, shape)
        assert (report.cases, report.failures) == _per_string_sweep(spec, max_len, shape)

    def test_sweep_without_each_object_matches_the_per_string_sweep(self, spread, spread_shape):
        shapes = [spread_shape.without_object(o.name) for o in spread_shape.objects]
        got = [equivalence_sweep(spread, 6, shape) for shape in shapes]
        assert [(r.cases, r.failures) for r in got] == \
            [_per_string_sweep(spread, 6, shape) for shape in shapes]
        assert any(not r.ok for r in got)


class TestEquivalenceSweep:
    def test_negative_bound_visits_no_string(self, spread):
        assert equivalence_sweep(spread, -1) == SweepOutcome(0, [])

    def test_spread_machine_to_10(self, spread, spread_shape):
        report = equivalence_sweep(spread, 10, spread_shape)
        assert report.ok
        assert report.cases == 2047

    def test_identity_machine_to_8(self, identity_machine):
        report = equivalence_sweep(identity_machine, 8)
        assert report.ok and report.cases == 511

    def test_parity_machine_radius_2(self, parity_machine):
        report = equivalence_sweep(parity_machine, 8)
        assert report.ok, report.failures[:3]

    def test_ternary_machine(self, ternary_machine):
        report = equivalence_sweep(ternary_machine, 6)
        assert report.ok and report.cases == 1093

    def test_corrupted_shape_is_flagged(self, spread, spread_shape):
        # deleting the object explaining '#' by '###' starves X = '###'
        broken = spread_shape.without_object("(#|###)")
        report = equivalence_sweep(spread, 6, broken)
        assert not report.ok
        assert any("###" in line for line in report.failures)

    @pytest.mark.parametrize("machine, max_len", [
        ("spread", 10), ("parity_machine", 8), ("ternary_machine", 6), ("identity_machine", 8)])
    def test_matches_the_per_string_sweep(self, machine, max_len, request):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        report = equivalence_sweep(spec, max_len, shape)
        assert (report.cases, report.failures) == _per_string_sweep(spec, max_len, shape)

    def test_matches_the_per_string_sweep_without_each_object(self, spread, spread_shape):
        failing = 0
        for o in spread_shape.objects:
            shape = spread_shape.without_object(o.name)
            report = equivalence_sweep(spread, 8, shape)
            assert (report.cases, report.failures) == _per_string_sweep(spread, 8, shape), o.name
            failing += not report.ok
        assert len(spread_shape.objects) == 25 and failing

    def test_a_machine_over_another_alphabet_is_refused(self, spread_shape):
        spec = MachineSpec(Alphabet(("a", "b")), 0, {"a": "a", "b": "b"})
        with pytest.raises(AlphabetMismatch,
                           match=r"\(a b\) is not the shape category's \(\. #\)"):
            equivalence_sweep(spec, 3, spread_shape)

    def test_deep_trie_without_recursion(self):
        # a one-symbol alphabet makes the trie a single path deeper than
        # Python's default recursion limit
        spec = MachineSpec(Alphabet(("a",)), 0, {"a": "a"})
        report = equivalence_sweep(spec, 1200)
        assert report.ok and report.cases == 1201


def _per_string_sweep(spec, max_len, shape):
    """Reference sweep: evaluate each string of all_strings on its own, in
    order, and compare it with the rule; (inputs, mismatch lines)."""
    mismatches = []
    inputs = all_strings(spec.alphabet, max_len)
    for x in inputs:
        want = apply(spec, x)
        try:
            got = evaluate(shape, x)
        except GlueError as exc:
            mismatches.append(f"{x}: glue failed: {exc}")
            continue
        if got != want:
            mismatches.append(f"{x}: evaluated {got}, rule gives {want}")
    return len(inputs), mismatches


def _placement(shape, x, node):
    """A trace node's window placement as an occurrence in the input."""
    k, q = node
    return Occurrence(shape.objects[k].window, x, q)


class TestTrace:
    def test_trace_squares_commute(self, spread_shape):
        x = ts("#...#.")
        value, trace = evaluate_traced(spread_shape, x)
        assert value == ts("#.##")
        assert trace.value == value
        objects = spread_shape.objects
        for src, dst, off, mor_idx in trace.edges:
            s_obj, d_obj = objects[trace.nodes[src][0]], objects[trace.nodes[dst][0]]
            mor = spread_shape.morphisms[mor_idx]
            assert (mor.src, mor.dst) == (s_obj.name, d_obj.name)
            window_occ = occ(s_obj.window.cells, d_obj.window.cells,
                             0 if s_obj.window.is_empty() else mor.offset)
            assert compose(window_occ, _placement(spread_shape, x, trace.nodes[dst])) \
                == _placement(spread_shape, x, trace.nodes[src])
            # the legs form a cocone over the generator edge
            generator_occ = occ(s_obj.generator.cells, d_obj.generator.cells, off)
            assert compose(generator_occ, Occurrence(d_obj.generator, value, trace.legs[dst])) \
                == Occurrence(s_obj.generator, value, trace.legs[src])

    def test_every_cell_covered_by_a_single_generator(self, spread_shape):
        x = ts("#..##.#")
        value, trace = evaluate_traced(spread_shape, x)
        covered = {
            trace.legs[k]
            for k, (obj, _) in enumerate(trace.nodes)
            if spread_shape.objects[obj].generator.length == 1
        }
        assert covered == set(range(value.length))

    def test_diagram_is_the_window_comma_category(self, spread_shape):
        # reference: (window functor over x), enumerated by search
        window = spread_shape.window_functor()
        names = [o.name for o in spread_shape.objects]
        for x in all_strings(DEFAULT_ALPHABET, 6):
            comma = comma_over(window, x)
            _, trace = evaluate_traced(spread_shape, x)
            nodes, edges = trace.nodes, trace.edges
            assert [(names[k], q) for k, q in nodes] == \
                [(o.left, o.mid.offset) for o in comma.objects]
            index = {o: i for i, o in enumerate(comma.objects)}
            comma_edges = {(index[m.src], index[m.dst], m.f_comp) for m in comma.morphisms}
            for src, dst, _, mor in edges:
                assert (src, dst, spread_shape.morphisms[mor].name) in comma_edges

    @pytest.mark.parametrize("machine, dropped, max_len", [
        ("spread", None, 6), ("parity_machine", None, 6),
        ("spread", "(|)", 5), ("spread", "(#|#.#)", 5), ("spread", "(.#|...#)", 5)])
    def test_edges_are_the_comma_morphisms_one_cell_apart(self, machine, dropped, max_len,
                                                         request):
        # reference: the morphisms of (window functor over x) between
        # generators one cell apart, in (morphism, target offset) order
        shape = shape_category(request.getfixturevalue(machine))
        if dropped:
            shape = shape.without_object(dropped)
        window = shape.window_functor()
        objects = {o.name: o for o in shape.objects}
        mor_index = {m.name: i for i, m in enumerate(shape.morphisms)}
        traced = 0
        for x in all_strings(shape.alphabet, max_len):
            try:
                _, trace = evaluate_traced(shape, x)
            except GlueError:
                assert dropped, str(x)
                continue
            comma = comma_over(window, x)
            assert [(shape.objects[k].name, q) for k, q in trace.nodes] == \
                [(o.left, o.mid.offset) for o in comma.objects]
            index = {o: i for i, o in enumerate(comma.objects)}
            want = []
            for m in comma.morphisms:
                mor = shape.morphisms[mor_index[m.f_comp]]
                src, dst = objects[mor.src].generator, objects[mor.dst].generator
                if len(dst) - len(src) == 1:
                    want.append((index[m.src], index[m.dst], mor.offset if src else 0,
                                 mor_index[m.f_comp]))
            want.sort(key=lambda e: (e[3], comma.objects[e[1]].mid.offset))
            assert trace.edges == want, str(x)
            traced += 1
        assert traced

    def test_render_is_deterministic(self, spread_shape):
        _, t1 = evaluate_traced(spread_shape, ts("#...#."))
        _, t2 = evaluate_traced(spread_shape, ts("#...#."))
        assert t1.render() == t2.render()
        assert "value: #.##" in t1.render()


class TestLocality:
    @pytest.mark.parametrize("cells", ["#...#.", "#..##.#", ".......#", "####"])
    def test_distant_nodes_do_not_affect_nearby_cells(self, spread, spread_shape, cells):
        # keep only nodes whose window placement meets a chosen stretch of
        # the input; the reduced diagram must still glue to the matching
        # slice of the true update, unchanged cell for cell
        x = ts(cells)
        full = apply(spread, x)
        _, trace = evaluate_traced(spread_shape, x)
        objects = [spread_shape.objects[k] for k, _ in trace.nodes]
        for w_start, w_stop in [(0, 3), (2, 5), (1, 4)]:
            keep = []
            for k, (_, q) in enumerate(trace.nodes):
                window = objects[k].window
                if window.is_empty() or (q < w_stop and q + window.length > w_start):
                    keep.append(k)
            index = {k: i for i, k in enumerate(keep)}
            values = [objects[k].generator.cells for k in keep]
            edges = [(index[s], index[d], off) for s, d, off, _ in trace.edges
                     if s in index and d in index]
            reduced, legs = glue_cells(values, edges)
            # align the reduced value inside the full update via any kept
            # single-generator node and compare cellwise
            anchors = [i for i, k in enumerate(keep) if objects[k].generator.length == 1]
            if not anchors or not reduced:
                continue
            a = anchors[0]
            shift = trace.legs[keep[a]] - legs[a]
            assert full.cells[shift : shift + len(reduced)] == reduced
            # every updated cell whose window meets the stretch is retained
            for c in range(full.length):
                if c < w_stop and c + 2 * spread.radius + 1 > w_start:
                    assert 0 <= c - shift < len(reduced)


class TestExplain:
    def test_worked_range(self, spread):
        expl = explain(spread, ts("#...#."), 2, 4)
        assert expl.window == occ("..#.", "#...#.", 2)
        assert expl.part == occ("##", "#.##", 2)

    def test_single_cell(self, spread):
        expl = explain(spread, ts("#...#."), 0, 1)
        assert expl.window == occ("#..", "#...#.", 0)

    def test_identity_machine_cell(self, identity_machine):
        x = ts("#.#")
        for k in range(3):
            expl = explain(identity_machine, x, k, k + 1)
            assert expl.window == occ(x.cells[k], "#.#", k)

    def test_updates_the_state_once(self, spread, monkeypatch):
        # the range check's update is the only one: the window is read off x
        window_map = tapecat.machine._window_map
        calls = []
        monkeypatch.setattr(tapecat.machine, "_window_map",
                            lambda spec, cells: calls.append(cells) or window_map(spec, cells))
        assert explain(spread, ts("#...#."), 2, 4).unit == occ("##", "##", 0)
        assert calls == ["#...#."]

    def test_range_validation(self, spread):
        with pytest.raises(ValueError):
            explain(spread, ts("#...#."), 2, 9)

    def test_empty_range(self, spread):
        expl = explain(spread, ts("#...#."), 1, 1)
        assert expl.window == occ("", "#...#.", 0)
        assert check_explanation(spread, expl) == []
