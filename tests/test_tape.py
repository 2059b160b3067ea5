"""Tests for the tape category: occurrences, composition, category laws."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from tapecat.tape import (
    DEFAULT_ALPHABET,
    Alphabet,
    AlphabetMismatch,
    InvalidOccurrence,
    NonComposable,
    Occurrence,
    TapeString,
    all_strings,
    compose,
    hom,
    identity,
)

from .support import brute_offsets, occ, ts, unchecked_occurrence

words = st.text(alphabet=".#", max_size=6)


def offsets(occurrences):
    return {o.offset for o in occurrences}


class TestAlphabet:
    def test_default_symbols(self):
        assert DEFAULT_ALPHABET.symbols == (".", "#")
        assert "." in DEFAULT_ALPHABET and "x" not in DEFAULT_ALPHABET

    @pytest.mark.parametrize("bad", [(), (",",), ("-",), (">",), (" ",), ("ab",), (".", ".")])
    def test_rejects_bad_symbols(self, bad):
        with pytest.raises(ValueError):
            Alphabet(bad)

    def test_three_symbol_alphabet(self):
        tri = Alphabet(("a", "b", "c"))
        assert len(tri) == 3 and list(tri) == ["a", "b", "c"]


class TestTapeString:
    def test_rejects_foreign_cells(self):
        with pytest.raises(AlphabetMismatch, match=r"^cell 'x' is not a symbol of alphabet \{\. #\}$"):
            ts("#x.y")

    def test_length_and_render(self):
        assert ts("#.#").length == 3
        assert str(ts("#.#")) == "#.#"
        assert str(ts("")) == "(empty)"

    def test_segment(self):
        assert ts("#..#").segment(1, 3) == ts("..")
        with pytest.raises(ValueError):
            ts("#").segment(0, 2)


class TestHom:
    def test_repeated_pattern(self):
        # "#.##" sits in "#.##.##" at offsets 0 and 3
        assert offsets(hom(ts("#.##"), ts("#.##.##"))) == {0, 3}

    def test_empty_source_is_initial(self):
        result = hom(ts(""), ts("#."))
        assert len(result) == 1 and result[0].offset == 0

    def test_symbol_mismatch(self):
        assert hom(ts("#"), ts(".")) == []

    def test_overlapping_occurrences(self):
        # derived by brute force: ".." in "..." at 0 and 1
        assert offsets(hom(ts(".."), ts("..."))) == set(brute_offsets("..", "..."))
        assert offsets(hom(ts(".."), ts("..."))) == {0, 1}
        assert [o.offset for o in hom(ts("##"), ts("####"))] == [0, 1, 2]

    def test_alphabet_mismatch_raises(self):
        other = TapeString(Alphabet(("0", "1")), "01")
        with pytest.raises(AlphabetMismatch):
            hom(ts("#"), other)

    def test_longer_source_has_no_occurrences(self):
        assert hom(ts("##"), ts("#")) == []

    def test_matches_brute_force_up_to_len_8(self):
        strings = [s.cells for s in all_strings(DEFAULT_ALPHABET, 8)]
        for a in strings:
            for b in strings:
                got = [o.offset for o in hom(ts(a), ts(b))]
                assert got == brute_offsets(a, b), (a, b)

    @given(words, words)
    def test_count_bound(self, a, b):
        n = len(hom(ts(a), ts(b)))
        if a:
            assert n <= max(0, len(b) - len(a) + 1)
        else:
            assert n == 1


class TestCompose:
    def test_offset_addition(self):
        f = occ("#", ".#", 1)
        g = occ(".#", "#..#", 2)
        assert compose(f, g) == occ("#", "#..#", 3)

    def test_identity_laws(self):
        f = occ("#", ".#", 1)
        assert compose(identity(ts("#")), f) == f
        assert compose(f, identity(ts(".#"))) == f
        a = ts("#.")
        assert compose(identity(a), identity(a)) == identity(a)

    def test_empty_source_canonicalizes(self):
        f = occ("", ".#", 0)
        g = occ(".#", "#..#", 2)
        assert compose(f, g) == occ("", "#..#", 0)

    def test_non_composable(self):
        with pytest.raises(NonComposable):
            compose(occ("#", "#.", 0), occ(".#", "#..#", 2))

    def test_identity_of_empty(self):
        assert identity(ts("")) == occ("", "", 0)

    def test_associativity_and_units_exhaustive(self):
        # every composable pair and triple among strings of length <= 5
        strings = all_strings(DEFAULT_ALPHABET, 5)
        homs: dict[tuple[str, str], list[Occurrence]] = {}
        for a in strings:
            for b in strings:
                if a.length <= b.length:
                    fs = hom(a, b)
                    if fs:
                        homs[(a.cells, b.cells)] = fs
        outgoing: dict[str, list[Occurrence]] = {}
        for (a, b), fs in homs.items():
            outgoing.setdefault(a, []).extend(fs)
        pairs = 0
        triples = 0
        for fs in homs.values():
            for f in fs:
                for g in outgoing.get(f.target.cells, ()):
                    fg = compose(f, g)
                    assert compose(f, identity(f.target)) == f
                    assert compose(identity(f.source), f) == f
                    pairs += 1
                    for h in outgoing.get(g.target.cells, ()):
                        assert compose(fg, h) == compose(f, compose(g, h))
                        triples += 1
        assert pairs > 1000 and triples > 1000  # the sweep actually ran

    @given(words, words, words, words, words)
    def test_associativity_on_generated_chains(self, a, l1, l2, l3, r1):
        # build a composable chain by wrapping with explicit contexts
        b = l1 + a + r1
        c = l2 + b
        d = l3 + c
        f = Occurrence(ts(a), ts(b), 0 if not a else len(l1))
        g = Occurrence(ts(b), ts(c), 0 if not b else len(l2))
        h = Occurrence(ts(c), ts(d), 0 if not c else len(l3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestOccurrenceValidation:
    def test_rejects_content_mismatch(self):
        with pytest.raises(InvalidOccurrence):
            Occurrence(ts("#"), ts("."), 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidOccurrence):
            Occurrence(ts("#"), ts("#"), 1)

    def test_rejects_noncanonical_empty(self):
        with pytest.raises(InvalidOccurrence):
            Occurrence(ts(""), ts("##"), 1)

    def test_rejects_mixed_alphabets(self):
        with pytest.raises(AlphabetMismatch,
                           match=r"^occurrence mixes alphabets \{\. #\} and \{a b\}$"):
            Occurrence(ts("#"), TapeString(Alphabet(("a", "b")), "ab"), 0)

    def test_unchecked_skips_validation(self):
        raw = unchecked_occurrence(ts("#"), ts("."), 0)
        assert raw.offset == 0 and raw.source == ts("#")

    def test_render(self):
        assert str(occ("#", "#.", 0)) == "# @ 0 in #."
        assert str(occ("", "#.", 0)) == "(empty) @ 0 in #."
