"""Fuzzed parsers: any text either parses or raises the parser's typed error.

The examples are derandomized, so every run draws the same inputs.  Each
parser gets free text and lines shaped like its own, built from its
keywords and short free snippets, which reach far more of its branches
than free text alone.
"""

from __future__ import annotations

from datetime import timedelta

from hypothesis import example, given, settings, strategies as st

from tapecat.fincat import FinCatPresentation
from tapecat.machine import MachineConfigError, format_machine, parse_machine

FUZZ = settings(derandomize=True, database=None, max_examples=200,
                deadline=timedelta(milliseconds=500))


def _lines(*line_kinds: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """Text of up to a dozen lines, each of one of the given kinds or free."""
    line = st.one_of(*line_kinds, st.text(max_size=8))
    return st.lists(line, max_size=12).map("\n".join)


def _words(*tokens: str) -> st.SearchStrategy[str]:
    """One of the tokens, or a short free snippet."""
    return st.one_of(st.sampled_from(tokens), st.text(max_size=3))


def _line(*parts: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.tuples(*parts).map(" ".join)


_cells = _words(".", "#", "a", "..", ".#", "#.", "...", "#.#")
_symbols = _words(".", "#", "a")
MACHINE_TEXT = st.one_of(st.text(), _lines(
    _line(st.just("alphabet:"), st.lists(_symbols, max_size=4).map(" ".join)),
    _line(st.just("radius:"), _words("0", "1", "2", "-1", "70", "x")),
    st.just("rule:"),
    _line(_cells, _words("->"), _symbols),
))

_names = _words("a", "b", "f", "g", "h")
PRESENTATION_TEXT = st.one_of(st.text(), _lines(
    _line(st.just("object"), _names),
    _line(st.just("morphism"), _names, _words(":"), _names, _words("->"), _names),
    _line(st.just("identity"), _names, _words("="), _names),
    _line(st.just("compose"), _names, _names, _words("="), _names),
))


@FUZZ
@given(MACHINE_TEXT)
@example("alphabet: . #\nradius: 0\nrule:\n  . -> #\n  # -> .\n")
@example("alphabet: a\nradius: 70\nrule:\n  a -> a\n")
def test_parse_machine_parses_or_raises_config_error(text):
    try:
        spec = parse_machine(text)
    except MachineConfigError:
        return
    assert parse_machine(format_machine(spec)) == spec


@FUZZ
@given(PRESENTATION_TEXT)
@example("object a\nobject b\nmorphism f : a -> b\nidentity a = f\ncompose f f = f\n")
def test_presentation_loads_or_raises_value_error(text):
    try:
        cat = FinCatPresentation.loads(text)
    except ValueError:
        return
    assert FinCatPresentation.loads(cat.dumps()).dumps() == cat.dumps()
