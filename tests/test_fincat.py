"""Tests for finite category presentations, functors and comma enumeration."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from tapecat.fincat import (
    FinCatPresentation,
    FunctorData,
    TapeCategory,
    canonical_dense_subcategory,
    validate_category,
    validate_functor,
)
from tapecat.tape import DEFAULT_ALPHABET, all_strings

from .support import (
    IdentityFunctor,
    brute_offsets,
    comma_enumerate,
    comma_over,
    hom_sets,
    terminal_category,
    ts,
)


@pytest.fixture(scope="module")
def dense():
    return canonical_dense_subcategory(DEFAULT_ALPHABET)


def one_object_category():
    return terminal_category()


class TestValidateCategory:
    def test_one_object_category_is_lawful(self):
        assert validate_category(one_object_category()).ok

    def test_canonical_generators_are_lawful(self, dense):
        # objects: empty, ".", "#", "..", ".#", "#.", "##"
        assert len(dense.presentation.objects) == 7
        report = validate_category(dense.presentation)
        assert report.ok, str(report)

    def test_generator_homs_match_brute_force(self, dense):
        pres = dense.presentation
        homs = Counter((pres.dom(m), pres.cod(m)) for m in pres.morphisms())
        for a in dense.strings:
            for b in dense.strings:
                want = len(brute_offsets(a.cells, b.cells))
                assert homs[(str(a), str(b))] == want

    def test_seeded_closure_fault_is_reported(self):
        cat = FinCatPresentation()
        for o in ("A", "B"):
            cat.add_object(o)
        cat.add_morphism("idA", "A", "A")
        cat.add_morphism("idB", "B", "B")
        cat.add_morphism("f", "A", "B")
        cat.set_identity("A", "idA")
        cat.set_identity("B", "idB")
        cat.set_composite("idA", "idA", "idA")
        cat.set_composite("idB", "idB", "idB")
        cat.set_composite("f", "idA", "f")
        # wrong: binds f;idB to a morphism with the wrong domain
        cat.set_composite("idB", "f", "idB")
        report = validate_category(cat)
        assert not report.ok
        assert any(v.kind == "closure" for v in report.violations)

    @staticmethod
    def two_objects_and_f():
        """A, B and f: A -> B with identities; a lawful category."""
        cat = FinCatPresentation()
        for o in ("A", "B"):
            cat.add_object(o)
            cat.add_morphism(f"id{o}", o, o)
            cat.set_identity(o, f"id{o}")
            cat.set_composite(f"id{o}", f"id{o}", f"id{o}")
        cat.add_morphism("f", "A", "B")
        cat.set_composite("f", "idA", "f")
        cat.set_composite("idB", "f", "f")
        return cat

    def test_seeded_junk_fault_is_reported(self):
        cat = self.two_objects_and_f()
        assert validate_category(cat).ok
        # f then idA does not compose: cod f = B, dom idA = A
        cat.set_composite("idA", "f", "f")
        report = validate_category(cat)
        assert [str(v) for v in report.violations] == [
            "table-junk: table binds non-composable pair (idA, f)"]

    def test_junk_key_naming_unknown_morphism_is_reported(self):
        cat = self.two_objects_and_f()
        cat.table[("g", "f")] = "f"
        report = validate_category(cat)
        assert [str(v) for v in report.violations] == [
            "table-junk: table binds non-composable pair (g, f)"]

    def test_seeded_missing_fault_is_reported(self):
        cat = self.two_objects_and_f()
        del cat.table[("idB", "f")]
        report = validate_category(cat)
        assert [str(v) for v in report.violations] == [
            "table-missing: no composite for f then idB"]

    def test_violations_in_pair_order(self):
        cat = self.two_objects_and_f()
        del cat.table[("f", "idA")]
        cat.set_composite("idA", "idB", "idB")
        cat.set_composite("idA", "f", "f")
        report = validate_category(cat)
        # pairs (f, g) in morphism order, g varying fastest
        assert [str(v) for v in report.violations] == [
            "table-missing: no composite for idA then f",
            "table-junk: table binds non-composable pair (idA, idB)",
            "table-junk: table binds non-composable pair (idA, f)",
        ]

    def test_missing_identity_is_reported(self):
        cat = FinCatPresentation()
        cat.add_object("A")
        report = validate_category(cat)
        assert any(v.kind == "identity-missing" for v in report.violations)

    def test_identity_that_is_no_endomorphism_is_reported(self):
        cat = self.two_objects_and_f()
        cat.identities["A"] = "f"
        report = validate_category(cat)
        assert [str(v) for v in report.violations] == [
            "identity-endpoints: identity f of A is not an endomorphism"]

    @staticmethod
    def monoid(composites: dict[tuple[str, str], str]) -> FinCatPresentation:
        """One object and the given morphisms; composites[(g, f)] is f then g."""
        cat = FinCatPresentation()
        cat.add_object("*")
        for m in sorted({m for pair in composites for m in pair}):
            cat.add_morphism(m, "*", "*")
        cat.set_identity("*", "id")
        for (g, f), h in composites.items():
            cat.set_composite(g, f, h)
        return cat

    @pytest.mark.parametrize("pair, line", [
        (("e", "id"), "unit: id;e != e"), (("id", "e"), "unit: e;id != e"),
    ], ids=["id-then-e", "e-then-id"])
    def test_broken_unit_law_is_reported(self, pair, line):
        # id and an idempotent e, then one composite with id sent to id
        cat = self.monoid({("id", "id"): "id", ("e", "id"): "e", ("id", "e"): "e",
                           ("e", "e"): "e"})
        assert validate_category(cat).ok
        cat.table[pair] = "id"
        report = validate_category(cat)
        assert [str(v) for v in report.violations] == [line]

    def test_broken_associativity_is_reported(self):
        # the cyclic group of order 3, then a then b made a instead of id
        power = {"id": 0, "a": 1, "b": 2}
        names = sorted(power, key=power.__getitem__)
        cat = self.monoid({(g, f): names[(power[f] + power[g]) % 3]
                           for g in names for f in names})
        assert validate_category(cat).ok
        cat.table[("b", "a")] = "a"
        report = validate_category(cat)
        assert [str(v) for v in report.violations] == [
            "associativity: (a;a);a != a;(a;a)",
            "associativity: (a;a);b != a;(a;b)",
            "associativity: (a;b);a != a;(b;a)",
            "associativity: (a;b);b != a;(b;b)",
            "associativity: (b;a);b != b;(a;b)",
            "associativity: (b;b);b != b;(b;b)",
        ]


class TestValidateFunctor:
    def test_identity_functor_on_generators(self, dense):
        pres = dense.presentation
        f = FunctorData(pres, pres, {o: o for o in pres.objects},
                        {m: m for m in pres.morphisms()})
        assert validate_functor(f).ok

    def test_inclusion_into_tape(self, dense):
        report = validate_functor(dense.inclusion)
        assert report.ok, str(report)

    def test_identity_sent_to_non_identity_is_reported(self, dense):
        pres = dense.presentation
        mor_map = {m: m for m in pres.morphisms()}
        # break the identity of "#": send it to some other endomorphism target
        mor_map["#>#@0"] = "#>##@0"
        f = FunctorData(pres, pres, {o: o for o in pres.objects}, mor_map)
        report = validate_functor(f)
        assert not report.ok


class TestCommaEnumeration:
    def test_identity_over_identity_on_one_object(self):
        cat = one_object_category()
        ident = IdentityFunctor(cat)
        comma = comma_enumerate(ident, ident, cat.objects, cat.objects)
        assert len(comma.objects) == 1
        assert len(comma.morphisms) == 1

    def test_generators_over_a_string(self, dense):
        # occurrences of generators in "#.": one each of (empty), "#", ".", "#."
        comma = comma_over(dense.inclusion, ts("#."))
        assert len(comma.objects) == 4
        mids = {(str(o.mid.source), o.mid.offset) for o in comma.objects}
        assert mids == {("(empty)", 0), ("#", 0), (".", 1), ("#.", 0)}

    def test_comma_morphisms_commute(self, dense):
        ident = IdentityFunctor(TapeCategory(DEFAULT_ALPHABET))
        strings = all_strings(DEFAULT_ALPHABET, 2)
        over_x = comma_over(dense.inclusion, ts("#."))
        for comma in (over_x, comma_enumerate(ident, ident, strings, strings)):
            F, G = comma.F, comma.G
            f_hom, g_hom = hom_sets(F.source), hom_sets(G.source)
            # brute force: one morphism per pair of maps whose square
            # commutes, compared by offsets (an empty source commutes
            # canonically); every enumerated morphism must satisfy it, and
            # every satisfying pair must be enumerated
            want = set()
            for o1, o2 in itertools.product(comma.objects, repeat=2):
                for f in f_hom(o1.left, o2.left):
                    for g in g_hom(o1.right, o2.right):
                        f_occ, g_occ = F.on_morphism(f), G.on_morphism(g)
                        if not f_occ.source.cells or \
                                f_occ.offset + o2.mid.offset == o1.mid.offset + g_occ.offset:
                            want.add((o1, o2, f, g))
            assert {(m.src, m.dst, m.f_comp, m.g_comp) for m in comma.morphisms} == want
        # the instance from the worked example: "#" at 0 into "#." at 0
        assert any(str(m.src.mid.source) == "#" and str(m.dst.mid.source) == "#."
                   and m.f_comp == "#>#.@0" for m in over_x.morphisms)

    def test_enumeration_is_deterministic(self, dense):
        x = ts("#.#")
        first = comma_over(dense.inclusion, x)
        second = comma_over(dense.inclusion, x)
        assert first.objects == second.objects
        assert first.morphisms == second.morphisms

    def test_tape_over_tape_bounded_fragment(self):
        ident = IdentityFunctor(TapeCategory(DEFAULT_ALPHABET))
        bounded = all_strings(DEFAULT_ALPHABET, 2)
        comma = comma_enumerate(ident, ident, bounded, bounded)
        # oracle: one object per occurrence between strings of length <= 2
        strings = [s.cells for s in bounded]
        want = sum(len(brute_offsets(a, b)) for a in strings for b in strings)
        assert len(comma.objects) == want

    def test_mid_targets_respect_bound(self, dense):
        ident = IdentityFunctor(TapeCategory(DEFAULT_ALPHABET))
        comma = comma_enumerate(dense.inclusion, ident, dense.presentation.objects,
                                all_strings(DEFAULT_ALPHABET, 3))
        assert comma.objects
        assert all(len(o.mid.target) <= 3 for o in comma.objects)


class TestSerialization:
    def test_round_trip(self, dense):
        text = dense.presentation.dumps()
        again = FinCatPresentation.loads(text)
        assert again.dumps() == text
        assert validate_category(again).ok

    def test_loads_rejects_garbage(self):
        with pytest.raises(ValueError):
            FinCatPresentation.loads("object A\nfrobnicate B\n")

    def test_loads_rejects_duplicate_object(self):
        with pytest.raises(ValueError):
            FinCatPresentation.loads("object A\nobject A\n")

    def test_loads_rejects_duplicate_morphism(self):
        with pytest.raises(ValueError, match="^line 3: duplicate morphism 'f'$"):
            FinCatPresentation.loads("object A\nmorphism f : A -> A\nmorphism f : A -> A\n")

    def test_format_shape(self):
        cat = one_object_category()
        text = cat.dumps()
        assert "object *" in text
        assert "morphism id* : * -> *" in text
        assert "identity * = id*" in text
        assert "compose id* id* = id*" in text
