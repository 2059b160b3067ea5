"""Tests for update machines, causal neighbourhoods and the shape category."""

from __future__ import annotations

import itertools

import pytest

import tapecat.colimit
import tapecat.fincat
import tapecat.kan
import tapecat.machine
from tapecat.fincat import (canonical_generators, string_inclusion, validate_category,
                            validate_functor)
from tapecat.machine import (
    Explanation,
    MachineConfigError,
    MachineSpec,
    TargetMismatch,
    adjunction_sweep,
    apply,
    apply_morphism,
    causal_neighbourhood,
    equivalence_sweep,
    format_machine,
    functoriality_sweep,
    parse_machine,
    shape_category,
    shape_table,
    shifted_explanation,
    universality_check,
    validate_machine,
)
from tapecat.tape import (
    DEFAULT_ALPHABET,
    Alphabet,
    AlphabetMismatch,
    Occurrence,
    TapeString,
    all_strings,
    hom,
    identity,
    windows,
)

from .conftest import max_machine, spread_rule
from .support import (all_spans_universality, check_explanation, closed_form_windows, occ,
                      occurrence_adjunction, per_state_shift_adjunction, per_string_functoriality,
                      random_machine, table_functoriality, ts, update_functoriality)

MACHINES = ["spread", "identity_machine", "parity_machine", "ternary_machine"]


class TestValidateMachine:
    def test_spread_machine_is_total(self, spread):
        assert validate_machine(spread).ok

    def test_missing_window_reported(self):
        spec = MachineSpec(DEFAULT_ALPHABET, 0, {"#": "#"})
        report = validate_machine(spec)
        assert [v.kind for v in report.violations] == ["missing-window"]

    def test_long_windows_reported_by_space_size(self):
        # past 64 cells no count or window is spelled out; one symbol leaves
        # a single window, so one entry makes such a rule total
        one = Alphabet((".",))
        assert validate_machine(MachineSpec(one, 40, {"." * 81: "."})).ok
        for spec, detail in [
            (MachineSpec(one, 40, {".": "."}), "the rule binds 0 of the 1**81 windows"),
            (MachineSpec(DEFAULT_ALPHABET, 40, {"." * 81: "."}),
             "the rule binds 1 of the 2**81 windows"),
        ]:
            assert str(validate_machine(spec).violations[-1]) == f"missing-window: {detail}"

    def test_identity_rule_is_total(self, identity_machine):
        assert validate_machine(identity_machine).ok

    def test_bad_symbols_reported(self):
        spec = MachineSpec(DEFAULT_ALPHABET, 0, {".": ".", "#": "x"})
        assert any(v.kind == "bad-symbol" for v in validate_machine(spec).violations)


class TestMachineSpec:
    def test_equal_specs_are_interchangeable(self):
        first = MachineSpec(DEFAULT_ALPHABET, 1, spread_rule())
        second = MachineSpec(DEFAULT_ALPHABET, 1, dict(reversed(spread_rule().items())))
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert apply(second, ts("#..#.##...")) == apply(first, ts("#..#.##..."))

    def test_a_negative_radius_is_refused(self):
        with pytest.raises(ValueError, match="^radius must be >= 0$"):
            MachineSpec(DEFAULT_ALPHABET, -1, spread_rule())


class TestApply:
    def test_worked_example(self, spread):
        assert apply(spread, ts("#...#.")) == ts("#.##")

    @pytest.mark.parametrize("call", [apply, shape_table], ids=["apply", "shape_table"])
    def test_an_input_over_another_alphabet_is_refused(self, spread, call):
        with pytest.raises(AlphabetMismatch, match="^ab is not over the machine alphabet$"):
            call(spread, TapeString(Alphabet(("a", "b")), "ab"))

    def test_too_few_cells(self, spread):
        assert apply(spread, ts("#")) == ts("")
        assert apply(spread, ts(".#")) == ts("")
        assert apply(spread, ts("")) == ts("")

    def test_identity_machine_is_identity(self, identity_machine):
        for x in all_strings(DEFAULT_ALPHABET, 6):
            assert apply(identity_machine, x) == x

    def test_oracle_window_scan(self, spread):
        # independent oracle: roll the raw rule table over every window
        rule = spread_rule()
        for x in all_strings(DEFAULT_ALPHABET, 7):
            want = "".join(rule[x.cells[i:i + 3]] for i in range(max(0, x.length - 2)))
            assert apply(spread, x).cells == want

    def test_parity_machine_shrinks_by_4(self, parity_machine):
        assert apply(parity_machine, ts("#.#.#")) == ts("#")
        assert apply(parity_machine, ts("####")) == ts("")


class TestApplyMorphism:
    def test_identity_occurrence(self, spread):
        f = identity(ts("#...#."))
        assert apply_morphism(spread, f) == identity(ts("#.##"))

    def test_worked_inner_occurrence(self, spread):
        f = occ("..#.", "#...#.", 2)
        assert apply_morphism(spread, f) == occ("##", "#.##", 2)

    def test_empty_image_canonicalizes(self, spread):
        f = occ("#.", "#...#.", 0)
        image = apply_morphism(spread, f)
        assert image == occ("", "#.##", 0)

    def test_functoriality_sweep_small(self, spread):
        outcome = functoriality_sweep(spread, 5)
        assert outcome.ok and outcome.cases > 1000

    def test_functoriality_other_machines(self, parity_machine, ternary_machine):
        assert functoriality_sweep(parity_machine, 6).ok
        assert functoriality_sweep(ternary_machine, 4).ok

    @pytest.mark.parametrize("machine, max_len, cases", [
        ("spread", 5, 3770), ("parity_machine", 6, 13306), ("ternary_machine", 4, 4532),
    ], ids=["spread", "parity", "ternary"])
    def test_apply_morphism_is_a_functor(self, machine, max_len, cases, request):
        outcome = update_functoriality(request.getfixturevalue(machine), max_len)
        assert (outcome.cases, outcome.failures) == (cases, [])

    def test_functoriality_sweep_reports_a_displaced_image(self, spread, monkeypatch):
        # seed a fault in the morphism action: one non-identity occurrence
        # maps to a wrong but valid offset, so only composition can expose it;
        # the reference checks apply_morphism against the functor laws
        honest = apply_morphism
        victim = occ("...", "....", 1)

        def faulty(spec, f):
            image = honest(spec, f)
            return occ(image.source.cells, image.target.cells, 0) if f == victim else image

        monkeypatch.setattr(tapecat.machine, "apply_morphism", faulty)
        outcome = update_functoriality(spread, 5)
        assert ("U((... @ 1 in ....);(.... @ 0 in .....)) != "
                "U(... @ 1 in ....);U(.... @ 0 in .....)") in outcome.failures

    def test_functoriality_sweep_reports_a_displaced_identity(self, spread, monkeypatch):
        # the identity case takes each identity's image before the composition
        # cases do: displace only that first image of id_#.#, out of the empty
        # string, so that the composition cases still compose
        honest = apply_morphism
        pending = [identity(ts("#.#"))]

        def faulty(spec, f):
            if f in pending:
                pending.remove(f)
                return occ("", "#", 0)
            return honest(spec, f)

        monkeypatch.setattr(tapecat.machine, "apply_morphism", faulty)
        outcome = update_functoriality(spread, 3)
        assert outcome.failures == ["U(id_#.#) != id_U(#.#)"]


#: Faults in CellGluing.result's legs, each a leg as a function of the
#: value's cells, the node's number, its honest leg and its generator value.
LEG_FAULTS = {
    # whenever the value is ###, the leg of held node 1 (the window on input
    # cells [0, 3)) moves one cell right
    "one-node": lambda cells, k, leg, value: leg + (cells == "###" and k == 1),
    # every leg one cell further left, stopping at 0
    "all-left": lambda cells, k, leg, value: max(leg - 1, 0),
    # every nonempty leg one cell further right
    "all-alike": lambda cells, k, leg, value: leg + bool(value),
}


def displace_legs(monkeypatch, fault: str) -> None:
    """Keep every glued value but move its legs by LEG_FAULTS[fault]."""
    honest = tapecat.colimit.CellGluing.result
    move = LEG_FAULTS[fault]

    def displaced(self):
        cells, legs = honest(self)
        return cells, [move(cells, k, leg, value)
                       for k, (leg, value) in enumerate(zip(legs, self.values))]

    monkeypatch.setattr(tapecat.colimit.CellGluing, "result", displaced)


def against_table(spec: MachineSpec, max_len: int, shape=None) -> list[tuple]:
    """(cases, verdict) of the functor sweep, then of its table reference,
    which spells its failures per law instance."""
    return [(outcome.cases, outcome.ok)
            for outcome in (functoriality_sweep(spec, max_len, shape),
                            table_functoriality(spec, max_len, shape))]


def against_occurrences(spec: MachineSpec, max_len: int, shape=None) -> list[tuple]:
    """(cases, failures) of the honest adjunction sweep, then of its
    Occurrence-based reference, whose lines are kept only where they name
    an object for the first time: the sweep reports each missing object
    once."""
    outcome = adjunction_sweep(spec, max_len, shape=shape)
    reference = occurrence_adjunction(spec, max_len, shape)
    first: dict[str, str] = {}
    for line in reference.failures:
        first.setdefault(line.rsplit(" ", 1)[1], line)
    return [(outcome.cases, outcome.failures), (reference.cases, list(first.values()))]


def assert_shift_matches_per_state(spec: MachineSpec) -> None:
    """The displaced adjunction sweep against its per-state reference at
    each bound from -1 to 6 (to 5 over three symbols): the same cases,
    verdict and first line, and failing parts numbered as the sweep's
    argument predicts, the one-cell parts of states longer than a window
    and the two-cell parts of states longer than theirs."""
    k, w = len(spec.alphabet), spec.window_len
    rows = per_state_shift_adjunction(spec, 5 if k > 2 else 6)
    for bound in range(-1, len(rows)):
        got = adjunction_sweep(spec, bound, mutate=True)
        cases = sum(row.cases for row in rows[: bound + 1])
        lines = [line for row in rows[: bound + 1] for line in row.failures]
        assert (got.cases, got.ok, got.failures) == (cases, not lines, lines[:1]), bound
        assert len(lines) == sum(k ** n * ((n > w) * (n - w + 1) + (n > w + 1) * (n - w))
                                 for n in range(bound + 1)), bound


class TestFunctorialitySweep:
    """The functor row: gluing's action on occurrences, read off the legs."""

    def test_displaced_legs_fail_the_sweep(self, spread, monkeypatch):
        # every value is kept, so only the legs see the fault: each string
        # that updates to ### names its displaced node
        displace_legs(monkeypatch, "one-node")
        assert equivalence_sweep(spread, 5).ok
        outcome = functoriality_sweep(spread, 5)
        assert (outcome.cases, len(outcome.failures)) == (3770, 24)
        assert outcome.failures[0] == "..#..: leg of (#|..#) placed at 0 is 1"
        assert [line.split(":")[0] for line in outcome.failures] == \
            [w for w in windows(DEFAULT_ALPHABET, 5) if apply(spread, ts(w)).cells == "###"]

    def test_legs_displaced_left_fail_the_row(self, spread, monkeypatch):
        # every leg past 0 moves one cell left; from 4 cells on, each string
        # has a node placed at 1 whose leg reads 0
        displace_legs(monkeypatch, "all-left")
        outcome = functoriality_sweep(spread, 4)
        assert outcome.failures[:2] == ["....: leg of (.|...) placed at 1 is 0",
                                        "...#: leg of (#|..#) placed at 1 is 0"]
        assert len(outcome.failures) == 2**4  # every string of 4 cells

    def test_legs_displaced_alike_fail_the_row(self, spread, monkeypatch):
        # the values and every difference of legs are kept, so only the
        # legs themselves, each against its window's offset, see the fault
        displace_legs(monkeypatch, "all-alike")
        assert equivalence_sweep(spread, 5).ok
        outcome = functoriality_sweep(spread, 4)
        assert outcome.cases == 986
        assert outcome.failures[:2] == ["...: leg of (.|...) placed at 0 is 1",
                                        "..#: leg of (#|..#) placed at 0 is 1"]
        assert len(outcome.failures) == 2**4 + 2**3  # every string of 3 or 4 cells

    def test_only_the_empty_object_can_be_dropped(self, spread, spread_shape):
        # every one-object deletion but (|) fails the row at length 4; the
        # empty generator adds no cell to any glued value, so without it
        # the equivalence sweep passes too
        passed = [o.name for o in spread_shape.objects
                  if functoriality_sweep(spread, 4, spread_shape.without_object(o.name)).ok]
        assert passed == ["(|)"]
        assert equivalence_sweep(spread, 4, spread_shape.without_object("(|)")).ok

    def test_a_string_that_does_not_glue_is_one_line(self, spread, spread_shape):
        outcome = functoriality_sweep(spread, 4, spread_shape.without_object("(..|....)"))
        assert (outcome.cases, outcome.failures) == \
            (986, ["....: glue failed: quotient splits into 2 components"])

    @pytest.mark.parametrize("machine, max_len", [
        ("spread", 5), ("identity_machine", 5), ("parity_machine", 5), ("ternary_machine", 3),
    ])
    def test_matches_the_table_reference(self, machine, max_len, request):
        got, want = against_table(request.getfixturevalue(machine), max_len)
        assert got == want

    @pytest.mark.parametrize("max_len", [4, 5])
    def test_matches_the_table_reference_on_every_deletion(self, spread, spread_shape, max_len):
        for o in spread_shape.objects:
            got, want = against_table(spread, max_len, spread_shape.without_object(o.name))
            assert got == want, o.name

    @pytest.mark.parametrize("fault", sorted(LEG_FAULTS))
    def test_matches_the_table_reference_on_displaced_legs(self, spread, fault, monkeypatch):
        displace_legs(monkeypatch, fault)
        got, want = against_table(spread, 5)
        assert got == want
        # and the per-string sweep line for line
        row, reference = functoriality_sweep(spread, 5), per_string_functoriality(spread, 5)
        assert (row.cases, row.failures) == (reference.cases, reference.failures)
        assert not row.ok

    @pytest.mark.parametrize("machine, max_len", [
        ("spread", 5), ("parity_machine", 5), ("ternary_machine", 4),
    ])
    def test_matches_the_per_string_sweep_line_for_line(self, machine, max_len, request):
        # the walk extends each string's pass from its prefix's; the
        # reference glues each string from its first cell, honest and
        # without each object in turn
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        failed = 0
        for faulty in [shape] + [shape.without_object(o.name) for o in shape.objects]:
            got = functoriality_sweep(spec, max_len, faulty)
            want = per_string_functoriality(spec, max_len, faulty)
            assert (got.cases, got.failures) == (want.cases, want.failures), faulty.objects
            failed += not got.ok
        # exactly the deletions of nonempty objects whose windows fit fail
        assert failed == sum(bool(o.generator.cells) and o.window.length <= max_len
                             for o in shape.objects)

    @pytest.mark.parametrize("symbols, radius, seed, max_len", [
        (2, 1, 1, 5), (2, 2, 2, 5), (3, 1, 3, 3), (3, 1, 4, 3),
    ])
    def test_matches_the_table_reference_on_random_machines(self, symbols, radius, seed,
                                                            max_len):
        got, want = against_table(random_machine(symbols, radius, seed), max_len)
        assert got == want

    def test_builds_no_presentation(self, spread, monkeypatch):
        # the composition table of the strings up to 5 cells has 3,707
        # entries; the sweep decides their laws per string without it
        def refuse(*args, **kwargs):
            raise AssertionError("the functor sweep built an occurrence category")

        monkeypatch.setattr(tapecat.fincat, "occurrence_category", refuse)
        outcome = functoriality_sweep(spread, 5)
        assert (outcome.cases, outcome.failures) == (3770, [])

    def test_builds_no_edges(self, spread, monkeypatch):
        # the row reads each trace's nodes and legs, and a trace builds its
        # edges only when they are read
        def refuse(trace):
            raise AssertionError("the functor sweep built a trace's edges")

        monkeypatch.setattr(tapecat.kan.EvalTrace, "edges", property(refuse))
        outcome = functoriality_sweep(spread, 6)
        assert (outcome.cases, outcome.failures) == (13306, [])

    @pytest.mark.parametrize("symbols, max_len", [(("#",), 5), ((".", "#"), 5),
                                                   (("a", "b", "c"), 3)])
    def test_cases_are_the_presented_law_instances(self, symbols, max_len):
        # one case per object and per composition-table entry
        alphabet = Alphabet(symbols)
        spec = MachineSpec(alphabet, 0, {s: s for s in symbols})
        for n in range(max_len + 1):
            cat = string_inclusion(alphabet, all_strings(alphabet, n)).source
            assert functoriality_sweep(spec, n).cases == len(cat.objects) + len(cat.table)

    def test_cases_in_closed_form_beyond_the_presentation(self, spread):
        # 138,234 law instances at 8 cells, none of them built; no strings below 0
        for max_len, cases in ((8, 138234), (-1, 0)):
            outcome = functoriality_sweep(spread, max_len)
            assert (outcome.cases, outcome.failures) == (cases, [])

    @pytest.mark.parametrize("machine", ["spread", "parity_machine"])
    def test_value_lines_name_the_equivalence_mismatches(self, machine, request):
        # on every one-object deletion, the strings that fail to glue or
        # glue to the wrong value are those the equivalence sweep names
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        for o in shape.objects:
            faulty = shape.without_object(o.name)
            row = functoriality_sweep(spec, 5, faulty).failures
            mismatches = equivalence_sweep(spec, 5, faulty).failures
            assert [line.split(":")[0] for line in row if ": leg of " not in line] == \
                [line.split(":")[0] for line in mismatches], o.name


class TestCausalNeighbourhood:
    def test_worked_example(self, spread):
        x = ts("#...#.")
        expl = causal_neighbourhood(spread, occ("##", "#.##", 2), x)
        assert expl.window == occ("..#.", "#...#.", 2)
        assert expl.unit == occ("##", "##", 0)
        assert check_explanation(spread, expl) == []

    def test_leading_cell(self, spread):
        x = ts("#...#.")
        expl = causal_neighbourhood(spread, occ("#", "#.##", 0), x)
        assert expl.window == occ("#..", "#...#.", 0)
        assert apply(spread, expl.window.source) == ts("#")

    def test_empty_part(self, spread):
        x = ts("#...#.")
        expl = causal_neighbourhood(spread, occ("", "#.##", 0), x)
        assert expl.window == occ("", "#...#.", 0)
        assert check_explanation(spread, expl) == []

    def test_target_mismatch(self, spread):
        with pytest.raises(TargetMismatch):
            causal_neighbourhood(spread, occ("#", "#", 0), ts("#...#."))

    def test_coherence_sweep(self, spread):
        # every part of every updated state up to 10 cells: the explanation
        # invariants hold, and the window updates to the part
        cases = 0
        failures = []
        for x in all_strings(spread.alphabet, 10):
            ux = apply(spread, x)
            parts = [Occurrence(TapeString.empty(spread.alphabet), ux, 0)]
            parts += [
                Occurrence(ux.segment(s, e), ux, s)
                for s in range(ux.length)
                for e in range(s + 1, ux.length + 1)
            ]
            for p in parts:
                expl = causal_neighbourhood(spread, p, x)
                cases += 1
                problems = check_explanation(spread, expl)
                if problems:
                    failures.append(f"({p}) over {x}: {problems[0]}")
                if not p.source.is_empty() and apply(spread, expl.window.source) != p.source:
                    failures.append(f"({p}) over {x}: window does not update to part")
        assert not failures, failures[:3]
        assert cases > 10000

    @pytest.mark.parametrize("symbols, radius", itertools.product((1, 2, 3), (0, 1, 2)))
    def test_window_updates_to_the_part_on_random_machines(self, symbols, radius):
        # the library takes the unit to be the identity; on seeded random
        # rules, every canonical part's window updates to exactly the part,
        # the sweep passes, and a displaced window fails it once a state
        # has room to shift (2r + 2 cells)
        max_len = 4 if (symbols, radius) == (3, 2) else 2 * radius + 2
        for seed in range(3):
            spec = random_machine(symbols, radius, seed)
            for x in all_strings(spec.alphabet, max_len):
                for a in canonical_generators(spec.alphabet):
                    for p in hom(a, apply(spec, x)):
                        assert check_explanation(spec, causal_neighbourhood(spec, p, x)) == [], \
                            (format_machine(spec), str(p), x)
            assert adjunction_sweep(spec, max_len).ok
            if max_len >= 2 * radius + 2:
                assert not adjunction_sweep(spec, max_len, mutate=True).ok


class TestUniversality:
    def test_worked_example_passes(self, spread):
        report = universality_check(spread, occ("##", "#.##", 2), ts("#...#."))
        assert report.ok and report.candidates > 0

    def test_identity_machine_passes(self, identity_machine):
        for cells, off in [("#", 0), (".", 1)]:
            p = occ(cells, "#.", off)
            report = universality_check(identity_machine, p, ts("#."))
            assert report.ok and report.candidates > 0

    def test_empty_part_passes(self, spread):
        report = universality_check(spread, occ("", "#.##", 0), ts("#...#."))
        assert report.ok and report.candidates > 0

    def test_shifted_window_is_flagged(self, spread):
        x = ts("#...#.")
        p = occ("#", "#.##", 0)
        mutant = shifted_explanation(spread, p, x)
        assert mutant.window.offset == 1  # displaced from the honest 0
        report = universality_check(spread, p, x, explanation=mutant)
        assert not report.ok
        assert any(f.endswith(" has 0 mediators") for f in report.failures)

    def test_default_bounds(self, spread):
        # spans of at most 1 + 2 + 2 cells in hosts of at most 6 + 2 cells
        p = occ("#", "#.##", 0)
        report = universality_check(spread, p, ts("#...#."))
        assert report.candidates == 75
        assert report.ok

    @pytest.mark.parametrize("machine, max_len, counts", [
        ("spread", 5, (34577, 0, 14144)),
        ("identity_machine", 4, (18111, 0, 12784)),
        ("parity_machine", 6, (70425, 0, 8704)),
        ("ternary_machine", 4, (100219, 0, 22680)),
    ], ids=["spread", "identity", "parity", "ternary"])
    def test_candidate_and_failure_counts(self, machine, max_len, counts, request):
        # radius 0, 1 and 2 and three symbols pin the span-update arithmetic
        spec = request.getfixturevalue(machine)
        candidates = failures = shifted_failures = 0
        for x in all_strings(spec.alphabet, max_len):
            for a in canonical_generators(spec.alphabet):
                for p in hom(a, apply(spec, x)):
                    report = universality_check(spec, p, x)
                    candidates += report.candidates
                    failures += len(report.failures)
                    mutant = shifted_explanation(spec, p, x)
                    shifted_failures += len(
                        universality_check(spec, p, x, explanation=mutant).failures)
        assert (candidates, failures, shifted_failures) == counts

    @pytest.mark.parametrize("machine, max_len", [
        ("spread", 5), ("identity_machine", 4), ("parity_machine", 5), ("ternary_machine", 3),
    ], ids=["spread", "identity", "parity", "ternary"])
    def test_matches_all_spans_reference(self, machine, max_len, request):
        # the span window yields the reference's candidates and failure
        # lines in its order
        spec = request.getfixturevalue(machine)
        for x in all_strings(spec.alphabet, max_len):
            for a in canonical_generators(spec.alphabet):
                for p in hom(a, apply(spec, x)):
                    for expl in (None, shifted_explanation(spec, p, x)):
                        report = universality_check(spec, p, x, explanation=expl)
                        assert (report.candidates, report.failures) == \
                            all_spans_universality(spec, p, x, expl), (str(p), x)

    def test_target_mismatch(self, spread):
        with pytest.raises(TargetMismatch):
            universality_check(spread, occ("#", "#", 0), ts("#...#."))

    def test_sweep_calls_the_module_level_check(self, spread, monkeypatch):
        # the benchmark's tracer counts checks and candidates by wrapping
        # tapecat.machine.universality_check, so the displaced sweep must
        # call that name, once for its one part (#### has 17 hosts, 68
        # candidates); the honest sweep checks the closed form instead
        check = tapecat.machine.universality_check
        calls = candidates = 0

        def counting(*args, **kwargs):
            nonlocal calls, candidates
            report = check(*args, **kwargs)
            calls += 1
            candidates += report.candidates
            return report

        monkeypatch.setattr(tapecat.machine, "universality_check", counting)
        assert adjunction_sweep(spread, 5).ok and calls == 0
        assert not adjunction_sweep(spread, 5, mutate=True).ok
        assert (calls, candidates) == (1, 68)

    @pytest.mark.parametrize("mutate, updates", [(False, 25), (True, 19)])
    def test_sweep_updates_each_host_once(self, spread, monkeypatch, mutate, updates):
        # the honest sweep updates each window of 0, 3 and 4 cells once
        # (1 + 8 + 16) and no state; the displaced one updates the 17 hosts
        # of its one state, ...., once, that state for its part, and again
        # for the displaced explanation's target check
        window_map = tapecat.machine._window_map
        calls = 0

        def counting(spec, cells):
            nonlocal calls
            calls += 1
            return window_map(spec, cells)

        monkeypatch.setattr(tapecat.machine, "_window_map", counting)
        adjunction_sweep(spread, 8, mutate=mutate)
        assert calls == updates

    def test_shift_sweep_enumerates_no_state(self, spread, monkeypatch):
        # the displaced row checks one part of one state, whatever the bound
        check = tapecat.machine.universality_check
        calls = 0

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return check(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the displaced adjunction sweep enumerated states or parts")

        monkeypatch.setattr(tapecat.tape, "all_strings", refuse)
        monkeypatch.setattr(tapecat.tape, "hom", refuse)
        monkeypatch.setattr(tapecat.machine, "universality_check", counting)
        counts = []
        for bound in (spread.window_len + 1, 8):
            calls = 0
            assert not adjunction_sweep(spread, bound, mutate=True).ok
            counts.append(calls)
        assert counts == [1, 1]

    @pytest.mark.parametrize("machine", MACHINES)
    def test_shift_matches_the_per_state_reference(self, machine, request):
        # ternary_machine is the rule of perfbench/machines/max3_r1.machine
        assert_shift_matches_per_state(request.getfixturevalue(machine))

    @pytest.mark.parametrize("symbols, radius, seed", [
        (2, 1, 1), (2, 2, 2), (1, 0, 5), (1, 2, 6),
    ])
    def test_shift_matches_the_per_state_reference_on_random_machines(self, symbols, radius,
                                                                      seed):
        assert_shift_matches_per_state(random_machine(symbols, radius, seed))

    def test_sweep_small(self, spread):
        outcome = adjunction_sweep(spread, 5)
        assert outcome.ok and outcome.cases > 50

    def test_mutated_sweep_fails(self, spread):
        outcome = adjunction_sweep(spread, 4, mutate=True)
        assert not outcome.ok

    @pytest.mark.parametrize("machine, max_len, objects", [
        ("spread", 4, 25), ("parity_machine", 6, 97), ("ternary_machine", 4, 109),
    ], ids=["spread", "parity", "ternary"])
    def test_sweep_fails_without_any_shape_object(self, machine, max_len, objects, request):
        # every explanation must be an object of the shape category that
        # evaluate glues, so deleting any one object fails the sweep
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        assert len(shape.objects) == objects
        assert adjunction_sweep(spec, max_len, shape=shape).ok
        for o in shape.objects:
            outcome = adjunction_sweep(spec, max_len, shape=shape.without_object(o.name))
            assert not outcome.ok, o.name
            assert all(line.endswith(f"the shape category has no object {o.name}")
                       for line in outcome.failures), o.name

    def test_sweep_names_the_missing_object(self, spread, spread_shape):
        # one line per missing object, naming the shortest state that holds
        # its window: the window itself
        outcome = adjunction_sweep(spread, 4, shape=spread_shape.without_object("(.|...)"))
        assert (outcome.cases, outcome.failures) == (87, [
            "part (. @ 0 in .) over ...: the shape category has no object (.|...)",
        ])

    @pytest.mark.parametrize("machine", ["spread", "parity_machine", "ternary_machine"],
                             ids=["spread", "parity", "ternary"])
    def test_failures_do_not_grow_with_the_bound(self, machine, request):
        # every window the row reads has at most 2r + 2 cells, so past that
        # bound only the count of cases grows
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        reach = 2 * spec.radius + 2
        assert all(adjunction_sweep(spec, n, shape=shape).ok for n in range(reach + 3))
        for o in shape.objects:
            faulty = shape.without_object(o.name)
            near, far = (adjunction_sweep(spec, n, shape=faulty) for n in (reach, reach + 2))
            assert near.failures == far.failures and near.cases < far.cases, o.name

    @pytest.mark.parametrize("machine, max_len", [
        ("spread", 8), ("identity_machine", 6), ("parity_machine", 7), ("ternary_machine", 4),
    ])
    def test_matches_the_occurrence_reference(self, machine, max_len, request):
        got, want = against_occurrences(request.getfixturevalue(machine), max_len)
        assert got == want

    @pytest.mark.parametrize("machine, max_len", [
        ("spread", 5), ("parity_machine", 6), ("ternary_machine", 4),
    ], ids=["spread", "parity", "ternary"])
    def test_matches_the_occurrence_reference_on_every_deletion(self, machine, max_len,
                                                                request):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        for o in shape.objects:
            got, want = against_occurrences(spec, max_len, shape.without_object(o.name))
            assert got == want, o.name

    @pytest.mark.parametrize("symbols, radius, seed, max_len", [
        (2, 1, 1, 7), (2, 2, 2, 7), (3, 1, 3, 4), (3, 0, 4, 4), (1, 0, 5, 4), (1, 2, 6, 7),
    ])
    def test_matches_the_occurrence_reference_on_random_machines(self, symbols, radius, seed,
                                                                 max_len):
        # the cases' closed form also at the edges: no state, the empty one
        # alone, and bounds just short of, at and past a window
        spec = random_machine(symbols, radius, seed)
        w = spec.window_len
        for bound in (max_len, -1, 0, w - 1, w, w + 1):
            got, want = against_occurrences(spec, bound)
            assert got == want, bound

    def test_honest_sweep_builds_no_occurrence_search_or_explanation(self, spread, monkeypatch):
        # each window is one update and one lookup, and no part is searched
        # for in an update
        def refuse(*args, **kwargs):
            raise AssertionError("the honest adjunction sweep built an explanation")

        monkeypatch.setattr(tapecat.tape, "hom", refuse)
        monkeypatch.setattr(tapecat.machine, "_neighbourhood", refuse)
        outcome = adjunction_sweep(spread, 8)
        assert (outcome.cases, outcome.failures) == (5143, [])

    def test_honest_sweep_enumerates_no_state(self, spread, spread_shape, monkeypatch):
        # the row reads windows, not states, nor the parts of their updates
        def refuse(*args, **kwargs):
            raise AssertionError("the honest adjunction sweep enumerated states or parts")

        monkeypatch.setattr(tapecat.tape, "all_strings", refuse)
        monkeypatch.setattr(tapecat.tape, "find_all", refuse)
        outcome = adjunction_sweep(spread, 8, shape=spread_shape.without_object("(#|#..)"))
        assert (outcome.cases, outcome.failures) == (5143, [
            "part (# @ 0 in #) over #..: the shape category has no object (#|#..)"])

    @pytest.mark.parametrize("machine, max_len, cases", [
        ("spread", 8, 5143), ("identity_machine", 6, 1285), ("parity_machine", 8, 3167),
        ("ternary_machine", 4, 391),
    ], ids=["spread", "identity", "parity", "ternary"])
    def test_neighbourhood_has_the_closed_form(self, machine, max_len, cases, request):
        outcome = closed_form_windows(request.getfixturevalue(machine), max_len)
        assert (outcome.cases, outcome.failures) == (cases, [])

    def test_sweep_names_a_displaced_window(self, spread, monkeypatch):
        # the reference reads explanations through _neighbourhood; one
        # displaced as shifted_explanation does is no longer the slice that
        # the honest sweep looks up, and fails the closed form
        honest = tapecat.machine._neighbourhood

        def displaced(spec, p, x):
            n = p.source.length + 2 * spec.radius
            off = p.offset + 1 if p.offset + 1 + n <= x.length else p.offset - 1
            if p.source.is_empty() or off < 0:
                return honest(spec, p, x)
            return Explanation(p, Occurrence(x.segment(off, off + n), x, off))

        monkeypatch.setattr(tapecat.machine, "_neighbourhood", displaced)
        outcome = closed_form_windows(spread, 4)
        assert outcome.cases == 87
        assert outcome.failures[0] == (
            "part (. @ 0 in ..) over ....: window (... @ 1 in ....) is not cells [0, 3) "
            "of the state")

    @pytest.mark.parametrize("sweep", [adjunction_sweep, functoriality_sweep],
                             ids=["adjunction", "functor"])
    def test_sweep_refuses_a_shape_over_another_alphabet(self, spread, ternary_machine, sweep):
        with pytest.raises(AlphabetMismatch):
            sweep(spread, 2, shape=shape_category(ternary_machine))


class TestShapeTable:
    def test_black_cell_windows(self, spread):
        want = {"###", "##.", "#.#", "#..", ".##", ".#.", "..#"}
        assert {s.cells for s in shape_table(spread, ts("#"))} == want

    def test_white_cell_window_unique(self, spread):
        # oracle: push all 8 windows through the raw rule table
        rule = spread_rule()
        want = {w for w in windows(DEFAULT_ALPHABET, 3) if rule[w] == "."}
        assert want == {"..."}
        assert {s.cells for s in shape_table(spread, ts("."))} == want

    def test_identity_machine(self, identity_machine):
        assert shape_table(identity_machine, ts("#")) == {ts("#")}

    def test_empty_part(self, spread):
        assert shape_table(spread, ts("")) == {ts("")}

    def test_pair_windows_partition(self, spread):
        # every length-4 window explains exactly one pair
        counts = {
            pair: len(shape_table(spread, ts(pair)))
            for pair in ("..", ".#", "#.", "##")
        }
        assert sum(counts.values()) == 16
        assert counts[".."] == 1 and counts[".#"] == 1 and counts["#."] == 1
        assert counts["##"] == 13

    @pytest.mark.parametrize("machine", MACHINES)
    def test_joins_match_window_enumeration(self, machine, request):
        spec = request.getfixturevalue(machine)
        parts = [a for a in all_strings(spec.alphabet, 3) if not a.is_empty()]
        if machine == "spread":
            parts.append(ts("#" * 10))
        for a in parts:
            # oracle: update every window of the explaining length
            want = {w for w in windows(spec.alphabet, a.length + 2 * spec.radius)
                    if apply(spec, TapeString(spec.alphabet, w)) == a}
            assert {n.cells for n in shape_table(spec, a)} == want, a


class TestShapeCategory:
    def test_object_count(self, spread_shape, spread, generators):
        # cross-check against the shape-table sums
        want = sum(len(shape_table(spread, a)) for a in generators)
        assert len(spread_shape.objects) == want == 25

    def test_finiteness_bound(self, spread_shape, spread, generators):
        # windows never exceed max generator length + two radii
        bound = len(generators) * len(spread.alphabet) ** (2 + 2 * spread.radius)
        assert len(spread_shape.objects) <= bound

    def test_black_objects(self, spread_shape):
        assert len([o for o in spread_shape.objects if o.generator == ts("#")]) == 7

    def test_presentation_is_lawful(self, spread_shape):
        report = validate_category(spread_shape.presentation)
        assert report.ok, str(report)

    def test_projections_are_lawful(self, spread_shape, generators):
        inclusion = string_inclusion(spread_shape.alphabet, generators)
        assert validate_functor(spread_shape.generator_functor(inclusion.source)).ok
        assert validate_functor(spread_shape.window_functor()).ok

    @pytest.mark.parametrize("machine", MACHINES)
    def test_morphisms_match_brute_force(self, machine, request):
        shape = shape_category(request.getfixturevalue(machine))
        # oracle: enumerate all object pairs and all offsets directly, in order
        want = []
        for src, dst in itertools.product(shape.objects, repeat=2):
            if src.generator.is_empty():
                want.append((src.name, dst.name, 0))
                continue
            a, g2 = src.generator.cells, dst.generator.cells
            n, w2 = src.window.cells, dst.window.cells
            for j in range(len(g2) - len(a) + 1):
                if g2[j:j + len(a)] == a and j + len(n) <= len(w2) \
                        and w2[j:j + len(n)] == n:
                    want.append((src.name, dst.name, j))
        assert [(m.src, m.dst, m.offset) for m in shape.morphisms] == want

    @pytest.mark.parametrize("machine", ["spread", "ternary_machine"])
    def test_composition_table_matches_all_pairs(self, machine, request):
        shape = shape_category(request.getfixturevalue(machine))
        # oracle: every pair of morphisms, composable ones in table order
        by_key = {(m.src, m.dst, m.offset): m.name for m in shape.morphisms}
        by_name = {o.name: o for o in shape.objects}
        want = []
        for m1, m2 in itertools.product(shape.morphisms, repeat=2):
            if m1.dst == m2.src:
                off = 0 if by_name[m1.src].generator.is_empty() else m1.offset + m2.offset
                want.append(((m2.name, m1.name), by_key[(m1.src, m2.dst, off)]))
        assert list(shape.presentation.table.items()) == want

    def test_without_an_unknown_object_is_refused(self, spread_shape):
        # a misspelt name would leave all 25 objects and inject no fault
        with pytest.raises(ValueError, match=r"\(#\|#\.x\) is not an object"):
            spread_shape.without_object("(#|#.x)")

    @pytest.mark.parametrize("machine, every", [
        ("spread", 1), ("parity_machine", 1), ("ternary_machine", 1), ("max3_r2", 9)])
    def test_without_an_object_filters_its_morphisms(self, machine, every, request):
        # the copy derives its morphisms from the remaining objects: those
        # of the whole category that do not touch the dropped object, in order
        spec = max_machine(2) if machine == "max3_r2" else request.getfixturevalue(machine)
        shape = shape_category(spec)
        for o in shape.objects[::every]:
            assert shape.without_object(o.name).morphisms == \
                tuple(m for m in shape.morphisms if o.name not in (m.src, m.dst)), o.name

    def test_specific_morphism_exists(self, spread_shape):
        got = {(m.src, m.dst, m.offset) for m in spread_shape.morphisms}
        assert ("(#|..#)", "(##|..#.)", 0) in got

    def test_identity_machine_shape(self, identity_machine):
        shape = shape_category(identity_machine)
        assert len(shape.objects) == 7  # one window per generator
        assert validate_category(shape.presentation).ok

    def test_ternary_machine_shape_is_lawful(self, ternary_machine):
        shape = shape_category(ternary_machine)
        assert validate_category(shape.presentation).ok
        assert len(shape.objects) == sum(
            len(shape_table(ternary_machine, a))
            for a in canonical_generators(ternary_machine.alphabet)
        )


class TestConfigFormat:
    def test_round_trip(self, spread):
        text = format_machine(spread)
        again = parse_machine(text)
        assert again == spread

    def test_parse_reference_table(self):
        text = (
            "alphabet: . #\n"
            "radius: 1\n"
            "rule:\n"
            "  ### -> #\n"
            "  ##. -> #\n"
            "  #.# -> #\n"
            "  #.. -> #\n"
            "  .## -> #\n"
            "  .#. -> #\n"
            "  ..# -> #\n"
            "  ... -> .\n"
        )
        spec = parse_machine(text)
        assert apply(spec, ts("#...#.")) == ts("#.##")

    def test_duplicate_window_rejected(self):
        with pytest.raises(MachineConfigError, match="^line 5: duplicate window '.'$"):
            parse_machine("alphabet: . #\nradius: 0\nrule:\n  . -> .\n  . -> #\n  # -> #\n")

    @pytest.mark.parametrize("repeated", ["alphabet: . #", "radius: 1"])
    def test_repeated_header_rejected(self, repeated):
        # the last header used to win silently: radius 0 then 1 parsed as radius 1
        text = f"alphabet: . #\nradius: 0\n{repeated}\nrule:\n  . -> .\n  # -> #\n"
        header = repeated.split(":")[0]
        with pytest.raises(MachineConfigError, match=f"^line 3: duplicate '{header}:' line$"):
            parse_machine(text)

    def test_missing_window_rejected(self):
        with pytest.raises(MachineConfigError, match="missing-window"):
            parse_machine("alphabet: . #\nradius: 0\nrule:\n  . -> .\n")

    def test_garbage_rejected(self):
        with pytest.raises(MachineConfigError):
            parse_machine("alphabet: . #\nwat: 3\n")
