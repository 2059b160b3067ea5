"""Tests for colimit evaluation, the oracle-equivalence sweep, and tracing."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest

import tapecat.kan
import tapecat.machine
from tapecat.colimit import CellGluing, Disconnected, GlueError, MalformedDiagram, glue_cells
from tapecat.fincat import canonical_generators, occurrence_category
from tapecat.kan import ShapeCategory, ShapeObject, density_sweep, evaluate, evaluate_traced
from tapecat.machine import (
    MachineError,
    MachineSpec,
    SweepOutcome,
    apply,
    equivalence_sweep,
    explain,
    functoriality_sweep,
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
    windows,
)

from .conftest import max_machine
from .support import check_explanation, comma_over, gluing_signature, occ, random_machine, ts


class TestEvaluate:
    def test_worked_example(self, spread, spread_shape):
        assert evaluate(spread_shape, ts("#...#.")) == ts("#.##")

    @pytest.mark.parametrize("engine", [evaluate, evaluate_traced], ids=["plain", "traced"])
    def test_an_input_over_another_alphabet_is_refused(self, spread_shape, engine):
        with pytest.raises(AlphabetMismatch,
                           match=r"^ab is not over the shape category's alphabet$"):
            engine(spread_shape, TapeString(Alphabet(("a", "b")), "ab"))

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
        # fault on; the first close that meets it raises and ends the pass.
        # With room in the memo for the start state only, the walk closes
        # the start state and its first step, then the pass closes once per
        # stretch of _CLOSE_AT right ends before its first fault and never
        # after it
        monkeypatch.setattr(tapecat.kan, "_MEMO_CAP", 1)
        shape = spread_shape.without_object(dropped)
        x = TapeString(spread.alphabet, "".join(random.Random(3).choices(".#", k=3 * 10**4)))
        want = _batch(shape, x)
        assert isinstance(want, tuple)
        calls, raised = _counted_closes(monkeypatch)
        assert _streamed(shape, x) == want
        assert raised in ([], calls[-1:])
        assert 0 < len(calls) <= 2 + math.log2(len(x) / tapecat.kan._CLOSE_AT)

    @pytest.mark.parametrize("dropped, closes", [("(.|...)", 20), ("(##|..#.)", 10)])
    def test_a_stalled_memo_stops_at_its_first_fault(self, spread, spread_shape, dropped, closes,
                                                     monkeypatch):
        # evaluate closes once per memo miss, and a close that raises ends
        # the memoised walk: the closes come before the tape's first fault,
        # so a tape twice as long, with the same start, makes as many
        cells = "".join(random.Random(3).choices(".#", k=6 * 10**4))
        calls, raised = _counted_closes(monkeypatch)
        counts = []
        for n in (3 * 10**4, 6 * 10**4):
            shape = spread_shape.without_object(dropped)  # a fresh memo
            x = TapeString(spread.alphabet, cells[:n])
            want = _batch(shape, x)
            assert isinstance(want, tuple)
            calls.clear()
            raised.clear()
            assert _streamed(shape, x) == want
            assert raised == calls[-1:]
            counts.append(len(calls))
        assert counts == [closes, closes]

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
        (0, "..#.."),  # the source window then ends two cells before the target's
    ])
    def test_a_join_outside_its_target_is_refused(self, spread_shape, offset, window):
        # (#|..#) sits in (##|..#.) at offset 0: lengthen the window, and
        # the derived morphism joins windows ending two cells apart
        objects = tuple(dataclasses.replace(o, window=ts(window)) if o.name == "(##|..#.)"
                        else o for o in spread_shape.objects)
        shape = ShapeCategory(spread_shape.alphabet, objects)
        assert ("(#|..#)", f"(##|{window})", offset) in \
            {(m.src, m.dst, m.offset) for m in shape.morphisms}
        with pytest.raises(MalformedDiagram, match=re.escape(f"(#|..#)>(##|{window})@0")):
            evaluate(shape, ts("#..#."))

    def test_two_objects_with_one_window_are_refused(self, spread_shape):
        # a nonempty window names one object; (#|#.#) moved to (.|...)'s window
        objects = tuple(dataclasses.replace(o, window=ts("...")) if o.name == "(#|#.#)"
                        else o for o in spread_shape.objects)
        with pytest.raises(MalformedDiagram,
                           match=re.escape("(.|...) and (#|...) have the same window ...")):
            ShapeCategory(spread_shape.alphabet, objects)

    def test_an_object_listed_twice_is_refused(self, spread_shape):
        # a name is an object's, and its morphisms are named after it
        objects = spread_shape.objects + tuple(o for o in spread_shape.objects
                                               if o.name == "(#|#.#)")
        with pytest.raises(MalformedDiagram, match=re.escape("(#|#.#) is listed twice")):
            ShapeCategory(spread_shape.alphabet, objects)

    def test_an_object_without_its_identity_has_no_presentation(self, spread_shape):
        generators = {o.name: o.generator for o in spread_shape.objects}
        occurrences = [(m.name, m.src, m.dst, m.offset) for m in spread_shape.morphisms
                       if m.name != "(#|#.#)>(#|#.#)@0"]
        with pytest.raises(MalformedDiagram, match=re.escape("(#|#.#) has no identity")):
            occurrence_category(generators, occurrences)

    def test_a_missing_composite_leaves_no_presentation(self, spread_shape):
        # the first pair, in morphism order, whose composite is the dropped one
        generators = {o.name: o.generator for o in spread_shape.objects}
        occurrences = [(m.name, m.src, m.dst, m.offset) for m in spread_shape.morphisms
                       if m.name != "(|)>(##|..#.)@0"]
        with pytest.raises(MalformedDiagram, match=re.escape(
                "morphisms (|)>(#|.#.)@0 then (#|.#.)>(##|..#.)@1 have no composite")):
            occurrence_category(generators, occurrences)

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
        return tapecat.kan.evaluate_traced(shape, x)[0].cells
    except GlueError as exc:
        return type(exc), str(exc), exc.nodes, exc.cells


def _streamed(shape, x):
    """The value of evaluate, or its error as _batch gives it."""
    try:
        return evaluate(shape, x).cells
    except GlueError as exc:
        return type(exc), str(exc), exc.nodes, exc.cells


def _counted_closes(monkeypatch):
    """Record the frontier of every CellGluing.close, and of those that
    raise: (calls, raised)."""
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
    return calls, raised


def _counted(monkeypatch, name, module=tapecat.kan):
    """Record the arguments of every call of the function ``name`` of
    ``module``."""
    calls = []
    function = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _random_inputs(alphabet, count, seed):
    rng = random.Random(seed)
    return [TapeString(alphabet, "".join(rng.choices(alphabet.symbols, k=rng.randint(0, 200))))
            for _ in range(count)]


def _placed_passes(monkeypatch):
    """Record the pass of every _place_and_glue call: the last one recorded
    in an evaluation is the pass it ended with."""
    passes = []
    place = tapecat.kan._place_and_glue

    def recording(compiled, state, x_cells, stop):
        passes.append(state)
        place(compiled, state, x_cells, stop)

    monkeypatch.setattr(tapecat.kan, "_place_and_glue", recording)
    return passes


class TestClosing:
    """Evaluation past a full memo, closing finished classes at every right
    end, against the pass that holds every node.  With room in the memo for
    the start state only, every input with a cell goes on from the start
    state (_stretched)."""

    @pytest.fixture(autouse=True)
    def close_at_every_end(self, monkeypatch):
        monkeypatch.setattr(tapecat.kan, "_MEMO_CAP", 1)
        monkeypatch.setattr(tapecat.kan, "_CLOSE_AT", 1)

    @pytest.mark.parametrize("machine", [
        "spread", "identity_machine", "parity_machine", "ternary_machine"])
    def test_lawful_machines_close_all_but_the_frontier(self, machine, request, monkeypatch):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        inputs = all_strings(spec.alphabet, 4) + _random_inputs(spec.alphabet, 20, seed=11)
        glued = _counted(monkeypatch, "evaluate_traced")
        passes = _placed_passes(monkeypatch)
        for x in inputs:
            passes.clear()
            glued.clear()
            cells = evaluate(shape, x).cells
            state = passes[-1] if x else shape.compiled.held[0][0]
            # certified without the fallback, holding only the last windows
            assert not glued, str(x)
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

    # the sweep evaluates every nonempty string by the pass that closes at
    # every right end; the per-string reference glues each string closing
    # nothing

    @pytest.mark.parametrize("machine, max_len", [("spread", 8), ("parity_machine", 7)])
    def test_sweep_matches_the_per_string_sweep(self, machine, max_len, request):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        report = equivalence_sweep(spec, max_len, shape)
        assert (report.cases, report.failures) == _per_string_sweep(spec, max_len, shape)
        assert len(shape.compiled.held) == 1

    def test_sweep_without_each_object_matches_the_per_string_sweep(self, spread, spread_shape):
        shapes = [spread_shape.without_object(o.name) for o in spread_shape.objects]
        got = [equivalence_sweep(spread, 6, shape) for shape in shapes]
        assert [(r.cases, r.failures) for r in got] == \
            [_per_string_sweep(spread, 6, shape) for shape in shapes]
        assert any(not r.ok for r in got)
        assert all(len(shape.compiled.held) == 1 for shape in shapes)


MACHINES = ["spread", "identity_machine", "parity_machine", "ternary_machine"]


class TestStepMemo:
    """evaluate's memoised steps against the pass that closes nothing."""

    @pytest.mark.parametrize("machine", MACHINES)
    def test_every_short_string_as_the_batch_pass(self, machine, request):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        for x in all_strings(spec.alphabet, 8):
            assert _streamed(shape, x) == _batch(shape, x) == apply(spec, x).cells, str(x)

    @pytest.mark.parametrize("machine", MACHINES)
    def test_random_tapes_as_the_batch_pass(self, machine, request):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        rng = random.Random(13)
        for _ in range(12):
            x = TapeString(spec.alphabet,
                           "".join(rng.choices(spec.alphabet.symbols, k=rng.randint(0, 2000))))
            assert _streamed(shape, x) == _batch(shape, x) == apply(spec, x).cells, str(x)
        # within TestClosing's bound on a pass that closes at every right end
        held = shape.compiled.held
        assert held and all(len(state.gluing.parent) <= 12 * (2 * spec.radius + 2)
                            for state, _ in held)

    @pytest.mark.parametrize("machine", ["spread", "parity_machine"])
    def test_every_dropped_object_as_the_batch_pass(self, machine, request):
        spec = request.getfixturevalue(machine)
        shape = shape_category(spec)
        outcomes = Counter()
        for k, o in enumerate(shape.objects):
            damaged = shape.without_object(o.name)
            for x in all_strings(spec.alphabet, 4) + _random_inputs(spec.alphabet, 3, seed=k):
                want = _batch(damaged, x)
                assert _streamed(damaged, x) == want, f"{x} without {o.name}"
                outcomes[want[0].__name__ if isinstance(want, tuple) else "glued"] += 1
        assert outcomes["glued"] and outcomes["Disconnected"]

    def test_a_warm_memo_leaves_damaged_copies_failing(self, spread, spread_shape):
        # each copy compiles its own memo, so the honest shape's states,
        # interned first, lend none of them a step
        inputs = _random_inputs(spread.alphabet, 4, seed=17)
        for x in inputs:
            assert _streamed(spread_shape, x) == apply(spread, x).cells
        assert spread_shape.compiled.held
        failing = 0
        for o in spread_shape.objects:
            damaged = spread_shape.without_object(o.name)
            for x in inputs:
                want = _batch(damaged, x)
                assert _streamed(damaged, x) == want, f"{x} without {o.name}"
                failing += isinstance(want, tuple)
        assert failing

    def test_a_full_memo_goes_to_the_closing_pass(self, spread, spread_shape, monkeypatch):
        # with room for the start state only, every input with a cell
        # would intern a second state, and the pass goes on from the start
        # state, closing between stretches; only an error glues again
        monkeypatch.setattr(tapecat.kan, "_MEMO_CAP", 1)
        inputs = _random_inputs(spread.alphabet, 6, seed=19)
        assert all(inputs)
        stretched = _counted(monkeypatch, "_stretched")
        glued = _counted(monkeypatch, "evaluate_traced")
        for shape in (shape_category(spread), spread_shape.without_object("(.|...)")):
            for x in inputs:
                want = _batch(shape, x)
                stretched.clear()
                glued.clear()
                assert _streamed(shape, x) == want, str(x)
                assert (len(stretched), len(glued)) == (1, isinstance(want, tuple)), str(x)
            assert len(shape.compiled.held) == 1

    def test_interns_a_state_once(self, spread):
        # a second evaluation of the same tape hits every step
        shape = shape_category(spread)
        x = _random_inputs(spread.alphabet, 1, seed=23)[0]
        evaluate(shape, x)
        compiled = shape.compiled
        interned = (len(compiled.held), sum(map(len, compiled.steps)), len(compiled.finals))
        assert evaluate(shape, x) == apply(spread, x)
        assert (len(compiled.held), sum(map(len, compiled.steps)), len(compiled.finals)) \
            == interned

    def test_a_lawful_read_never_locates(self, spread, parity_machine, monkeypatch):
        # the reader names a fault's nodes only once it found one, so on
        # lawful shapes, each with a cold memo, no close or read builds the
        # first-cell map that names them
        def refuse(roots):
            raise AssertionError("a lawful state was read as a fault")

        monkeypatch.setattr(CellGluing, "_first_cells", staticmethod(refuse))
        for spec in (spread, parity_machine):
            assert equivalence_sweep(spec, 10, shape_category(spec)).ok
            assert functoriality_sweep(spec, 6, shape_category(spec)).ok
            rng = random.Random(17)
            x = TapeString(spec.alphabet, "".join(rng.choices(spec.alphabet.symbols, k=2000)))
            assert evaluate(shape_category(spec), x) == apply(spec, x)


def _interned(monkeypatch):
    """Record every state that _intern numbers, as (compiled shape, number,
    pass): a new state is its number's representative, a hit is not."""
    seen = []
    intern = tapecat.kan._CompiledShape._intern

    def recording(compiled, state, tail):
        number = intern(compiled, state, tail)
        if number is not None:
            seen.append((compiled, number, state))
        return number

    monkeypatch.setattr(tapecat.kan._CompiledShape, "_intern", recording)
    return seen


def _behaviour(state):
    """What the held nodes must fix for a step to glue alike from a pass."""
    return gluing_signature(state.gluing), tuple(state.current), state.gluing.after is None


class TestStateKey:
    """The step memo's key against what the deleted gluing signature kept.

    Every shape here has one generator length per window length, of at most
    two cells, so the key's classes follow from the rest of it (see
    _CompiledShape._intern): these tests pass with them taken out."""

    @pytest.fixture(scope="class")
    def interned(self, request):
        """Evaluate every short string and a few random tapes on the
        fixtures, max3_r2, every one-object deletion of spread and
        parity_r2, and seeded random rules: the shapes, and every state
        their keys numbered (_interned)."""
        runs = []
        for machine in MACHINES:
            spec = request.getfixturevalue(machine)
            runs.append((shape_category(spec), spec.alphabet, 6, 8))
        spec = max_machine(2)
        runs.append((shape_category(spec), spec.alphabet, 5, 3))
        for machine in ("spread", "parity_machine"):
            spec = request.getfixturevalue(machine)
            shape = shape_category(spec)
            runs += [(shape.without_object(o.name), spec.alphabet, 4, 2) for o in shape.objects]
        for symbols, radius, seed in itertools.product((2, 3), (0, 1, 2), range(2)):
            spec = random_machine(symbols, radius, seed)
            runs.append((shape_category(spec), spec.alphabet, 5, 3))
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = _interned(monkeypatch)
            for k, (shape, alphabet, max_len, tapes) in enumerate(runs):
                for x in all_strings(alphabet, max_len) + _random_inputs(alphabet, tapes, seed=k):
                    try:
                        evaluate(shape, x)
                    except GlueError:
                        pass
        return [shape for shape, *_ in runs], seen

    def test_equal_keys_hold_equal_states(self, interned):
        # every state a key numbers must glue and close as its number's
        # representative
        seen = interned[1]
        hits = [(compiled.held[number][0], state) for compiled, number, state in seen
                if compiled.held[number][0] is not state]
        assert hits
        assert sum(_behaviour(rep) != _behaviour(state) for rep, state in hits) == 0

    def test_the_key_splits_no_behaviour(self, interned):
        # and no two states of one shape glue alike from equal tails: the
        # key keeps nothing that the behaviour does not
        shapes = interned[0]
        states = [{(_behaviour(rep), tail) for rep, tail in shape.compiled.held}
                  for shape in shapes]
        assert [len(held) for held in states] == [len(shape.compiled.held) for shape in shapes]
        assert sum(map(len, states)) > 1000

    @pytest.mark.parametrize("machine, states", [
        ("spread", 15), ("identity_machine", 7), ("parity_machine", 71),
        ("ternary_machine", 47), ("max3_r2", 301), ("max3_r3", 2325)])
    def test_interned_state_counts(self, machine, states, request):
        # a key that merges states lowers a count; one that splits them raises it
        spec = (max_machine(int(machine[-1])) if machine.startswith("max3")
                else request.getfixturevalue(machine))
        shape = shape_category(spec)
        x = TapeString(spec.alphabet, "".join(random.Random(1).choices(spec.alphabet.symbols,
                                                                       k=10**4)))
        assert evaluate(shape, x) == apply(spec, x)
        assert len(shape.compiled.held) == states

    def test_a_wide_rule_fills_the_memo(self, monkeypatch):
        # a random radius-3 rule over three symbols interns more states than
        # the memo holds within 15,000 cells (the radius-3 maximum rule
        # holds 2,325), so the pass goes on from its last state, once
        spec = random_machine(3, 3, 0)
        shape = shape_category(spec)
        x = TapeString(spec.alphabet, "".join(random.Random(1).choices(spec.alphabet.symbols,
                                                                       k=15000)))
        stretched = _counted(monkeypatch, "_stretched")
        glued = _counted(monkeypatch, "evaluate_traced")
        assert evaluate(shape, x) == apply(spec, x)
        assert (len(stretched), len(glued)) == (1, 0)
        assert len(shape.compiled.held) == tapecat.kan._MEMO_CAP == 4096


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
        ("spread", 10), ("parity_machine", 8), ("ternary_machine", 6), ("identity_machine", 8),
        *(pytest.param((symbols, radius, seed), 8 if symbols == 2 else 5,
                       id=f"random-{symbols}-{radius}-{seed}")
          for seed, (symbols, radius) in enumerate(itertools.product((2, 3), (0, 1, 2))))])
    def test_matches_the_per_string_sweep(self, machine, max_len, request):
        spec = (random_machine(*machine) if isinstance(machine, tuple)
                else request.getfixturevalue(machine))
        shape = shape_category(spec)
        report = equivalence_sweep(spec, max_len, shape)
        assert (report.cases, report.failures) == _per_string_sweep(spec, max_len, shape)

    def test_matches_the_per_string_sweep_without_each_object(self, spread, spread_shape):
        failing = 0
        for o in spread_shape.objects:
            shape = spread_shape.without_object(o.name)
            report = equivalence_sweep(spread, 8, shape)
            assert (report.cases, report.failures) == _per_string_sweep(spread, 8, shape), o.name
            assert all(isinstance(shape.compiled.final(n), str)
                       for n in range(len(shape.compiled.held)))
            failing += not report.ok
        assert len(spread_shape.objects) == 25 and failing

    @pytest.mark.parametrize("machine, max_len, memo_cap", [
        ("parity_machine", 6, None), ("ternary_machine", 4, None), ("spread", 6, None),
        ("spread", 7, 3)])
    def test_deletions_match_the_per_string_sweep(self, machine, max_len, memo_cap, request,
                                                  monkeypatch):
        # every one-object deletion, where the walk shares subtrees beside
        # strings that fail, which only the pass that closes nothing glues
        # unless a memo step found the memo full; with a memo of three
        # states, beside strings that leave the memo for evaluate
        if memo_cap is not None:
            monkeypatch.setattr(tapecat.kan, "_MEMO_CAP", memo_cap)
        evaluated = _counted(monkeypatch, "evaluate")
        spec = request.getfixturevalue(machine)
        whole = shape_category(spec)
        failing = 0
        for o in whole.objects:
            shape = whole.without_object(o.name)
            report = equivalence_sweep(spec, max_len, shape)
            assert (report.cases, report.failures) == _per_string_sweep(spec, max_len, shape), \
                o.name
            failing += not report.ok
        assert failing and bool(evaluated) == (memo_cap is not None)

    def test_a_failing_string_is_walked_where_its_key_passed(self, spread):
        # a memo step made to emit one cell too many fails every string
        # through it, though such strings reach the states and last cells
        # of strings that passed before them: a key is looked up only at a
        # string that passes, so each is still a line
        shape = shape_category(spread)
        compiled = shape.compiled
        emitted, following = compiled.step(compiled.start(), "#")
        compiled.steps[0]["#"] = emitted + "#", following
        outcome = equivalence_sweep(spread, 6, shape)
        assert len(outcome.failures) == 2**6 - 1
        assert all(line.startswith("#") for line in outcome.failures)

    def test_shared_subtrees_reach_forty_cells(self, spread):
        # 2**41 - 1 strings, each decided: a subtree is walked once per memo
        # state, last two cells and depth, and shared after that
        assert equivalence_sweep(spread, 40) == SweepOutcome(2**41 - 1, [])
        rows = density_sweep(DEFAULT_ALPHABET, canonical_generators(DEFAULT_ALPHABET), 40)
        assert rows == [(2**n, None) for n in range(41)]

    def test_a_machine_over_another_alphabet_is_refused(self, spread_shape):
        spec = MachineSpec(Alphabet(("a", "b")), 0, {"a": "a", "b": "b"})
        with pytest.raises(AlphabetMismatch,
                           match=r"\(a b\) is not the shape category's \(\. #\)"):
            equivalence_sweep(spec, 3, spread_shape)

    def test_deep_trie_without_recursion(self):
        # a one-symbol alphabet gives one string per length, the longest
        # deeper than Python's default recursion limit, so neither engine
        # may recurse per cell
        spec = MachineSpec(Alphabet(("a",)), 0, {"a": "a"})
        report = equivalence_sweep(spec, 1200)
        assert report.ok and report.cases == 1201

    def test_sweep_evaluates_only_where_the_walk_fails(self, spread, spread_shape, monkeypatch):
        # the walk extends each string's rule update and memo state from its
        # prefix's, so on a lawful shape it calls no per-string engine, and
        # it hands the pass that closes nothing each string below a step
        # that raises.  Without (#|###), nothing joins the nodes of the
        # windows c### and ###d, so the state of a string holding ### with a
        # cell on each side splits into two components and its step raises:
        # 4 + 12 + 32 + 80 strings of 5 to 8 cells, each glued once and each
        # a 'glue failed' line.  The 129th line is ###, which glues to the
        # empty string.
        evaluated = _counted(monkeypatch, "evaluate")
        traced = _counted(monkeypatch, "evaluate_traced")
        applied = _counted(monkeypatch, "apply", tapecat.machine)
        for shape, walk_failures, lines in ((spread_shape, 0, 0),
                                            (spread_shape.without_object("(#|###)"), 128, 129)):
            evaluated.clear()
            traced.clear()
            outcome = equivalence_sweep(spread, 8, shape)
            assert (outcome.cases, len(outcome.failures)) == (511, lines)
            assert (len(evaluated), len(traced), len(applied)) == (0, walk_failures, 0)
            assert sum("glue failed" in line for line in outcome.failures) == walk_failures

    def test_matches_the_per_string_sweep_past_a_full_memo(self, spread, spread_shape,
                                                            monkeypatch):
        # a memo of one state, the start: every other string leaves the walk
        # and goes through evaluate, which goes on by _stretched
        monkeypatch.setattr(tapecat.kan, "_MEMO_CAP", 1)
        evaluated = _counted(monkeypatch, "evaluate")
        for shape in [spread_shape, *(spread_shape.without_object(o.name)
                                      for o in spread_shape.objects)]:
            shape = ShapeCategory(shape.alphabet, shape.objects)  # a fresh memo
            evaluated.clear()
            report = equivalence_sweep(spread, 6, shape)
            assert (report.cases, report.failures) == _per_string_sweep(spread, 6, shape)
            assert len(evaluated) == report.cases - 1 and len(shape.compiled.held) == 1

    def test_matches_the_per_string_sweep_where_the_start_does_not_glue(self, spread,
                                                                          spread_shape):
        # two windowless one-cell generators split the start state, so the
        # walk never begins and evaluate takes every string
        extra = tuple(ShapeObject(ts(c), ts("")) for c in ".#")
        shape = ShapeCategory(spread.alphabet, spread_shape.objects + extra)
        report = equivalence_sweep(spread, 4, shape)
        assert (report.cases, report.failures) == _per_string_sweep(spread, 4, shape)
        assert len(report.failures) == 31

    def test_a_missing_rule_window_is_refused(self):
        # as apply does, the sweep names the first window without an entry,
        # once a string holds a whole window
        rule = {w: "#" for w in windows(DEFAULT_ALPHABET, 3) if w not in (".#.", "#.#")}
        spec = MachineSpec(DEFAULT_ALPHABET, 1, rule)
        assert equivalence_sweep(spec, 2, shape_category(spec)).cases == 7
        with pytest.raises(MachineError, match=r"^rule has no entry for window '\.#\.'$"):
            equivalence_sweep(spec, 3, shape_category(spec))

    def test_holds_no_list_of_strings(self, spread):
        # the sweep makes its strings length by length: its heap peak stays
        # under half of what the list of tape.all_strings takes alone
        shape = shape_category(spread)
        shape.compiled  # compile the shape outside the trace
        tracemalloc.start()
        try:
            all_strings(spread.alphabet, 12)
            listed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            outcome = equivalence_sweep(spread, 12, shape)
            swept = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.ok and outcome.cases == 8191
        assert swept < listed / 2


def _per_string_sweep(spec, max_len, shape):
    """Reference sweep: glue each string of all_strings on its own, in
    order, by the pass that closes nothing, and compare it with the rule;
    (inputs, mismatch lines)."""
    mismatches = []
    inputs = all_strings(spec.alphabet, max_len)
    for x in inputs:
        want = apply(spec, x)
        try:
            got = tapecat.kan.evaluate_traced(shape, x)[0]
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

    def test_edges_are_built_once_on_first_read(self, spread_shape):
        _, trace = evaluate_traced(spread_shape, ts("#...#."))
        assert "edges" not in vars(trace)
        rendered = trace.render()
        assert trace.edges is trace.edges
        assert trace.render() == rendered

    def test_nodes_and_legs_are_ordered_once_on_first_read(self, spread_shape):
        _, trace = evaluate_traced(spread_shape, ts("#...#."))
        assert not {"nodes", "legs"} & set(vars(trace))
        assert trace.nodes is trace.nodes and trace.legs is trace.legs
        assert [k for k, _ in trace.nodes] == sorted(trace.placed)

    def test_the_fallback_orders_nothing(self, spread, spread_shape, monkeypatch):
        # evaluate's fallback reads only the value off the pass that closes
        # nothing: with every memo walk failing and the trace's order
        # refused, it still gives the rule's update
        def stalled(compiled, cells):
            raise GlueError("stalled")

        def refuse(trace):
            raise AssertionError("a trace was ordered")

        monkeypatch.setattr(tapecat.kan, "_transduced", stalled)
        monkeypatch.setattr(tapecat.kan.EvalTrace, "_order", property(refuse))
        for x in all_strings(spread.alphabet, 5):
            assert evaluate(spread_shape, x) == apply(spread, x)
        with pytest.raises(AssertionError, match="a trace was ordered"):
            evaluate_traced(spread_shape, ts("#...#."))[1].nodes

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
