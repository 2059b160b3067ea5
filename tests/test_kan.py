"""Tests for colimit evaluation, the oracle-equivalence sweep, and tracing."""

from __future__ import annotations

import pytest

import tapecat.machine
from tapecat.colimit import glue
from tapecat.fincat import TapeCategory, comma_enumerate, constant_functor
from tapecat.kan import _indexed_diagram, equivalence_sweep, evaluate, evaluate_traced, explain
from tapecat.machine import apply, shape_category
from tapecat.tape import DEFAULT_ALPHABET, all_strings, compose

from .support import occ, ts


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

    def test_never_consults_the_rule(self, spread, spread_shape, monkeypatch):
        # the evaluator receives only the shape category; rule lookups are
        # compiled away, so poisoning the rule path must not change anything
        def poisoned(spec, cells):
            raise AssertionError("evaluate consulted the rule table")

        monkeypatch.setattr(tapecat.machine, "_update_cells", poisoned)
        assert evaluate(spread_shape, ts("#...#.")) == ts("#.##")


class TestEquivalenceSweep:
    def test_spread_machine_to_10(self, spread, spread_shape):
        report = equivalence_sweep(spread, 10, spread_shape)
        assert report.ok
        assert report.inputs == 2047
        assert str(report) == "inputs=2047 mismatches=0 max_len=10"

    def test_identity_machine_to_8(self, identity_machine):
        report = equivalence_sweep(identity_machine, 8)
        assert report.ok and report.inputs == 511

    def test_parity_machine_radius_2(self, parity_machine):
        report = equivalence_sweep(parity_machine, 8)
        assert report.ok, report.mismatches[:3]

    def test_ternary_machine(self, ternary_machine):
        report = equivalence_sweep(ternary_machine, 6)
        assert report.ok and report.inputs == 1093

    def test_corrupted_shape_is_flagged(self, spread, spread_shape):
        # deleting the object explaining '#' by '###' starves X = '###'
        broken = spread_shape.without_object("(#|###)")
        report = equivalence_sweep(spread, 6, broken)
        assert not report.ok
        assert any("###" in line for line in report.mismatches)


class TestTrace:
    def test_trace_squares_commute(self, spread_shape):
        x = ts("#...#.")
        value, trace = evaluate_traced(spread_shape, x)
        assert value == ts("#.##")
        assert trace.output.value == value
        for src, dst, mor, _ in trace.edges:
            window_occ = occ(
                trace.nodes[src].p_obj.window.cells,
                trace.nodes[dst].p_obj.window.cells,
                0 if trace.nodes[src].p_obj.window.is_empty() else mor.offset,
            )
            assert compose(window_occ, trace.nodes[dst].placement) \
                == trace.nodes[src].placement

    def test_every_cell_covered_by_a_single_generator(self, spread_shape):
        x = ts("#..##.#")
        value, trace = evaluate_traced(spread_shape, x)
        covered = {
            trace.output.legs[f"n{k}"].offset
            for k, node in enumerate(trace.nodes)
            if node.p_obj.generator.length == 1
        }
        assert covered == set(range(value.length))

    def test_diagram_is_the_window_comma_category(self, spread_shape):
        # reference: (window functor over x), enumerated by search
        window = spread_shape.window_functor()
        names = [o.name for o in spread_shape.objects]
        for x in all_strings(DEFAULT_ALPHABET, 6):
            comma = comma_enumerate(window, constant_functor(TapeCategory(DEFAULT_ALPHABET), x))
            nodes, edges, _ = _indexed_diagram(spread_shape, x.cells)
            assert [(names[k], q) for k, q in nodes] == \
                [(o.left, o.mid.offset) for o in comma.objects]
            index = {o: i for i, o in enumerate(comma.objects)}
            comma_edges = {(index[m.src], index[m.dst], m.f_comp) for m in comma.morphisms}
            for src, dst, _, mor in edges:
                assert (src, dst, spread_shape.morphisms[mor].name) in comma_edges

    def test_render_is_deterministic(self, spread_shape):
        _, t1 = evaluate_traced(spread_shape, ts("#...#."))
        _, t2 = evaluate_traced(spread_shape, ts("#...#."))
        assert t1.render() == t2.render()
        assert "value: #.##" in t1.render()

    def test_glue_of_trace_diagram_matches(self, spread_shape):
        _, trace = evaluate_traced(spread_shape, ts("##.#"))
        assert glue(trace.diagram).value == trace.output.value


class TestLocality:
    @pytest.mark.parametrize("cells", ["#...#.", "#..##.#", ".......#", "####"])
    def test_distant_nodes_do_not_affect_nearby_cells(self, spread, spread_shape, cells):
        # keep only nodes whose window placement meets a chosen stretch of
        # the input; the reduced diagram must still glue to the matching
        # slice of the true update, unchanged cell for cell
        x = ts(cells)
        full = apply(spread, x)
        _, trace = evaluate_traced(spread_shape, x)
        for w_start, w_stop in [(0, 3), (2, 5), (1, 4)]:
            keep = []
            for k, node in enumerate(trace.nodes):
                q = node.placement.offset
                span = node.p_obj.window.length
                if node.p_obj.window.is_empty() or \
                        (q < w_stop and q + span > w_start):
                    keep.append(k)
            kept_ids = {f"n{k}" for k in keep}
            nodes = [n for n in trace.diagram.nodes if n.id in kept_ids]
            edges = [e for e in trace.diagram.edges
                     if e.src in kept_ids and e.dst in kept_ids]
            reduced = type(trace.diagram)(trace.diagram.alphabet, tuple(nodes), tuple(edges))
            result = glue(reduced)
            # align the reduced value inside the full update via any kept
            # single-generator node and compare cellwise
            anchors = [k for k in keep if trace.nodes[k].p_obj.generator.length == 1]
            if not anchors or result.value.is_empty():
                continue
            a = anchors[0]
            shift = trace.output.legs[f"n{a}"].offset - result.legs[f"n{a}"].offset
            assert full.cells[shift : shift + result.value.length] == result.value.cells
            # every updated cell whose window meets the stretch is retained
            for c in range(full.length):
                if c < w_stop and c + 2 * spread.radius + 1 > w_start:
                    assert 0 <= c - shift < result.value.length


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

    def test_range_validation(self, spread):
        with pytest.raises(ValueError):
            explain(spread, ts("#...#."), 2, 9)

    def test_empty_range(self, spread):
        expl = explain(spread, ts("#...#."), 1, 1)
        assert expl.window == occ("", "#...#.", 0)
        assert expl.check(spread) == []
