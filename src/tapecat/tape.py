"""The category of tape strings and substring occurrences.

Objects are finite words over a fixed finite alphabet.  A morphism from A
to B is an offset at which A occurs as a contiguous substring of B;
composing occurrences adds offsets.  The empty word is initial: it is
taken to occur exactly once in every word, at the canonical offset 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class TapeError(Exception):
    """Base class for errors raised by tape operations."""


class AlphabetMismatch(TapeError):
    """Operands were built over different alphabets."""


class NonComposable(TapeError):
    """Composition attempted across mismatched middle objects."""


class InvalidOccurrence(TapeError):
    """Offset or content data does not describe a real substring occurrence."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of printable single-character cell symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        seen: set[str] = set()
        for sym in self.symbols:
            if len(sym) != 1 or sym.isspace() or sym in ",->":
                raise ValueError(f"invalid alphabet symbol {sym!r}")
            if sym in seen:
                raise ValueError(f"duplicate alphabet symbol {sym!r}")
            seen.add(sym)

    @cached_property
    def _symbol_set(self) -> frozenset[str]:
        return frozenset(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._symbol_set

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return " ".join(self.symbols)


#: Two-symbol default: '.' renders a white cell, '#' a black cell.
DEFAULT_ALPHABET = Alphabet((".", "#"))


@dataclass(frozen=True)
class TapeString:
    """A finite word over an alphabet; an object of the tape category."""

    alphabet: Alphabet
    cells: str

    def __post_init__(self) -> None:
        symbols = self.alphabet._symbol_set
        if not symbols.issuperset(self.cells):
            c = next(c for c in self.cells if c not in symbols)
            raise AlphabetMismatch(f"cell {c!r} is not a symbol of alphabet {{{self.alphabet}}}")

    @property
    def length(self) -> int:
        return len(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def is_empty(self) -> bool:
        return not self.cells

    def segment(self, start: int, stop: int) -> TapeString:
        """The substring [start, stop) as a tape string."""
        if not (0 <= start <= stop <= len(self.cells)):
            raise ValueError(f"segment [{start}, {stop}) out of range for {self}")
        return TapeString(self.alphabet, self.cells[start:stop])

    @staticmethod
    def empty(alphabet: Alphabet) -> TapeString:
        return TapeString(alphabet, "")

    def __str__(self) -> str:
        return self.cells if self.cells else "(empty)"


@dataclass(frozen=True)
class Occurrence:
    """An occurrence of `source` as a substring of `target` at `offset`.

    An occurrence with an empty source must sit at offset 0 (any other
    offset raises InvalidOccurrence), so the empty string has exactly one
    occurrence in every string.
    """

    source: TapeString
    target: TapeString
    offset: int

    def __post_init__(self) -> None:
        if self.source.alphabet != self.target.alphabet:
            raise AlphabetMismatch(
                f"occurrence mixes alphabets {{{self.source.alphabet}}} and "
                f"{{{self.target.alphabet}}}"
            )
        n = len(self.source)
        if n == 0:
            if self.offset != 0:
                raise InvalidOccurrence("empty-source occurrence must sit at offset 0")
            return
        if not 0 <= self.offset <= len(self.target) - n:
            raise InvalidOccurrence(f"offset {self.offset} of {self.source} falls outside {self.target}")
        if self.target.cells[self.offset : self.offset + n] != self.source.cells:
            raise InvalidOccurrence(
                f"{self.source} does not occur at offset {self.offset} in {self.target}"
            )

    def __str__(self) -> str:
        return f"{self.source} @ {self.offset} in {self.target}"


def identity(a: TapeString) -> Occurrence:
    return Occurrence(a, a, 0)


def find_all(needle: str, haystack: str) -> list[int]:
    """Ascending offsets of every occurrence of a nonempty raw word,
    overlapping occurrences included."""
    out = []
    i = haystack.find(needle)
    while i >= 0:
        out.append(i)
        i = haystack.find(needle, i + 1)
    return out


def hom(a: TapeString, b: TapeString) -> list[Occurrence]:
    """All occurrences of `a` in `b`, ordered by offset.

    The result is finite: at most len(b) - len(a) + 1 occurrences, and for
    an empty `a` exactly the one canonical occurrence.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"hom across alphabets {{{a.alphabet}}} and {{{b.alphabet}}}")
    if a.is_empty():
        return [Occurrence(a, b, 0)]
    return [Occurrence(a, b, i) for i in find_all(a.cells, b.cells)]


def compose(f: Occurrence, g: Occurrence) -> Occurrence:
    """The composite occurrence "f then g" of f.source inside g.target.

    Offsets add, except that an empty source re-canonicalizes to offset 0.
    """
    if f.target != g.source:
        raise NonComposable(f"cannot compose ({f}) with ({g}): middle objects differ")
    if f.source.is_empty():
        return Occurrence(f.source, g.target, 0)
    return Occurrence(f.source, g.target, f.offset + g.offset)


def windows(alphabet: Alphabet, length: int) -> Iterator[str]:
    """All raw words of exactly `length` cells, in alphabet order."""
    for tup in itertools.product(alphabet.symbols, repeat=length):
        yield "".join(tup)


def all_strings(alphabet: Alphabet, max_len: int) -> list[TapeString]:
    """Every tape string of length <= max_len, shortest first."""
    out: list[TapeString] = []
    for n in range(max_len + 1):
        out.extend(TapeString(alphabet, w) for w in windows(alphabet, n))
    return out
