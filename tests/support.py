"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass

import tapecat.machine
from tapecat import tape
from tapecat.colimit import CellGluing
from tapecat.fincat import FinCatPresentation, FunctorData, TapeCategory, canonical_generators
from tapecat.machine import (Explanation, MachineSpec, SweepOutcome, apply, apply_morphism,
                             causal_neighbourhood)
from tapecat.tape import (DEFAULT_ALPHABET, Alphabet, InvalidOccurrence, Occurrence, TapeString,
                          windows)


def ts(cells: str) -> TapeString:
    return TapeString(DEFAULT_ALPHABET, cells)


def occ(src: str, tgt: str, offset: int) -> Occurrence:
    return Occurrence(ts(src), ts(tgt), offset)


def unchecked_occurrence(source: TapeString, target: TapeString, offset: int) -> Occurrence:
    """An occurrence built without validation, for deliberately broken data
    in fault-injection tests."""
    obj = object.__new__(Occurrence)
    object.__setattr__(obj, "source", source)
    object.__setattr__(obj, "target", target)
    object.__setattr__(obj, "offset", offset)
    return obj


def brute_offsets(a: str, b: str) -> list[int]:
    """Independent occurrence oracle: scan every window of b."""
    if not a:
        return [0]
    return [i for i in range(len(b) - len(a) + 1) if b[i : i + len(a)] == a]


def cocones_to(values: list[str], edges: list[tuple[int, int, int]], w: str):
    """Brute-force enumeration of commuting cocones from a diagram to w.

    A cocone assigns each node an occurrence offset in w (canonically 0 for
    empty nodes) such that every edge triangle commutes.
    """
    import itertools

    options = [brute_offsets(v, w) for v in values]
    for combo in itertools.product(*options):
        if all((not values[i]) or combo[i] == combo[j] + off for i, j, off in edges):
            yield combo


def count_mediators(values: list[str], value: str, legs: list[int],
                    cocone: tuple[int, ...], w: str) -> int:
    """How many occurrences of `value` in w factor the given cocone."""
    count = 0
    for m in brute_offsets(value, w):
        if all((not v) or cocone[i] == m + legs[i] for i, v in enumerate(values)):
            count += 1
    return count


def all_spans_universality(spec, p, x, explanation=None) -> tuple[int, list[str]]:
    """Reference for the universality check: its candidates and failure
    lines, found by scanning every span of at most len(part) + 2r + 2 cells
    of every host that extends x by at most two cells."""
    expl = explanation if explanation is not None else causal_neighbourhood(spec, p, x)
    a_cells = p.source.cells
    max_m = len(a_cells) + 2 * spec.radius + 2
    two_r = 2 * spec.radius
    n_cells, n_off = expl.window.source.cells, expl.window.offset
    unit_off, un_len = expl.unit.offset, len(expl.unit.target)
    contexts = [(left, right) for total in range(3) for left_len in range(total + 1)
                for left in windows(spec.alphabet, left_len)
                for right in windows(spec.alphabet, total - left_len)]
    candidates, failures = 0, []
    for left, right in contexts:
        if not x.cells and left:
            continue  # empty state: each host arises once, with the canonical leg
        z_cells = left + x.cells + right
        b_off = len(left)
        uz = apply(spec, TapeString(spec.alphabet, z_cells)).cells
        spans = [(0, "")] + [(i, z_cells[i : i + m])
                             for m in range(1, min(max_m, len(z_cells)) + 1)
                             for i in range(len(z_cells) - m + 1)]
        for g_off, m_cells in spans:
            um = uz[g_off : g_off + len(m_cells) - two_r] if len(m_cells) > two_r else ""
            if a_cells:
                a_off = p.offset + b_off - g_off
                if a_off < 0 or a_off + len(a_cells) > len(um) \
                        or um[a_off : a_off + len(a_cells)] != a_cells:
                    continue
            else:
                a_off = 0
            candidates += 1
            u_off = n_off + b_off - g_off if n_cells else 0
            comp_off = 0 if not a_cells else unit_off + (u_off if un_len else 0)
            mediators = int(u_off >= 0 and m_cells.startswith(n_cells, u_off)
                            and comp_off == a_off)
            if mediators != 1:
                z = TapeString(spec.alphabet, z_cells)
                g = Occurrence(TapeString(spec.alphabet, m_cells), z, g_off if m_cells else 0)
                a = Occurrence(p.source, TapeString(spec.alphabet, um), a_off)
                b = Occurrence(x, z, b_off if x.cells else 0)
                failures.append(f"candidate g=({g}) a=({a}) b=({b}) has {mediators} mediators")
    return candidates, failures


def gluing_signature(gluing: CellGluing) -> tuple:
    """Reference for the step memo's key: the held state up to the
    numbering of its classes, namely the held nodes' cells and starts, each
    held cell's class numbered in order of first cell, and the class of the
    closed word's successor.  States with equal signatures glue and close
    alike under equal further adds and identifies: they hold the same
    labelled quotient."""
    roots = gluing._roots()
    number: dict[int, int] = {}
    classes = tuple(number.setdefault(r, len(number)) for r in roots)
    after = None if gluing.after is None else number[roots[gluing.after]]
    return tuple(gluing.values), tuple(gluing.starts), classes, after


def random_machine(symbols: int, radius: int, seed: int) -> MachineSpec:
    """A total rule over the first `symbols` of '.', '#' and 'a', each
    window's output drawn by a generator seeded with `seed`."""
    alphabet = Alphabet(tuple(".#a"[:symbols]))
    draw = random.Random(seed).choice
    return MachineSpec(alphabet, radius, {w: draw(alphabet.symbols)
                                          for w in windows(alphabet, 2 * radius + 1)})


def check_explanation(spec: MachineSpec, expl: Explanation) -> list[str]:
    """All violated coherence conditions of an explanation (empty when sound)."""
    problems: list[str] = []
    a = expl.part.source
    if expl.part.target != apply(spec, expl.window.target):
        problems.append("part does not live in the update of the state")
    if apply(spec, expl.window.source) != expl.unit.target:
        problems.append("unit does not land in the update of the window")
    if a.is_empty():
        if not expl.window.source.is_empty():
            problems.append("empty part explained by a nonempty window")
    elif expl.window.source.length != a.length + 2 * spec.radius:
        problems.append("window is not part length plus twice the radius")
    try:
        recovered = tape.compose(expl.unit, apply_morphism(spec, expl.window))
    except (InvalidOccurrence, tape.NonComposable):
        problems.append("unit square does not compose")
    else:
        if recovered != expl.part:
            problems.append("updated window composed with unit differs from the part")
    return problems


def closed_form_windows(spec: MachineSpec, max_state_len: int) -> SweepOutcome:
    """Reference for the explanations that the adjunction sweep looks up:
    for every canonical generator part of every updated state up to
    max_state_len, the window that tapecat.machine._neighbourhood reads must
    have the closed form universality_check's proof needs, x's cells from
    the part's offset, len(part) + 2r long (empty for the empty part)."""
    outcome = SweepOutcome()
    two_r = 2 * spec.radius
    for x in tape.all_strings(spec.alphabet, max_state_len):
        ux = apply(spec, x)
        for a in canonical_generators(spec.alphabet):
            span = a.length + two_r if a.cells else 0
            for p in tape.hom(a, ux):
                outcome.cases += 1
                window = tapecat.machine._neighbourhood(spec, p, x).window
                if window.offset != p.offset or \
                        window.source.cells != x.cells[p.offset : p.offset + span]:
                    outcome.failures.append(
                        f"part ({p}) over {x}: window ({window}) is not cells "
                        f"[{p.offset}, {p.offset + span}) of the state")
    return outcome


def update_functoriality(spec: MachineSpec, max_len: int) -> SweepOutcome:
    """Reference for tapecat.machine.apply_morphism: updating must preserve
    identities and composition for all occurrences among strings up to
    max_len, one case per string and per composable pair."""
    outcome = SweepOutcome()
    strings = tape.all_strings(spec.alphabet, max_len)
    morphisms: list[Occurrence] = []
    for a in strings:
        outcome.cases += 1
        if tapecat.machine.apply_morphism(spec, tape.identity(a)) != tape.identity(apply(spec, a)):
            outcome.failures.append(f"U(id_{a}) != id_U({a})")
        morphisms += [f for b in strings if a.length <= b.length for f in tape.hom(a, b)]
    by_dom: dict[str, list[Occurrence]] = {}
    for m in morphisms:
        by_dom.setdefault(m.source.cells, []).append(m)
    # every composite is among the morphisms, so each image is taken once
    image = {m: tapecat.machine.apply_morphism(spec, m) for m in morphisms}
    for f in morphisms:
        for g in by_dom.get(f.target.cells, ()):
            outcome.cases += 1
            if image[tape.compose(f, g)] != tape.compose(image[f], image[g]):
                outcome.failures.append(f"U(({f});({g})) != U({f});U({g})")
    return outcome


# ---------------------------------------------------------------------------
# comma categories, the reference for both evaluation diagrams


@dataclass(frozen=True)
class IdentityFunctor:
    """The identity functor on a category; on the tape category no finite
    object and morphism maps can present it."""

    source: FinCatPresentation | TapeCategory

    @property
    def target(self) -> FinCatPresentation | TapeCategory:
        return self.source

    def on_object(self, x):
        return x

    def on_morphism(self, m):
        return m


def terminal_category() -> FinCatPresentation:
    cat = FinCatPresentation()
    cat.add_object("*")
    cat.add_morphism("id*", "*", "*")
    cat.set_identity("*", "id*")
    cat.set_composite("id*", "id*", "id*")
    return cat


def constant_functor(target: TapeCategory, x: TapeString) -> FunctorData:
    """The functor from the terminal category picking out the string x."""
    return FunctorData(terminal_category(), target, {"*": x}, {"id*": target.identity(x)})


def hom_sets(cat: FinCatPresentation | TapeCategory):
    """The hom sets of a category as a function of two objects: the tape
    category's by occurrence search, a presentation's read off its
    morphisms in their listed order."""
    if isinstance(cat, TapeCategory):
        return tape.hom
    homs: dict[tuple[str, str], list[str]] = {}
    for m in cat.morphisms():
        homs.setdefault((cat.dom(m), cat.cod(m)), []).append(m)
    return lambda a, b: homs.get((a, b), [])


@dataclass(frozen=True)
class CommaObject:
    left: object
    mid: object
    right: object


@dataclass(frozen=True)
class CommaMorphism:
    src: CommaObject
    dst: CommaObject
    f_comp: object
    g_comp: object


@dataclass
class CommaCategory:
    """An enumerated fragment of a comma category."""

    F: object
    G: object
    objects: list[CommaObject]
    morphisms: list[CommaMorphism]


def comma_enumerate(F, G, xs: list, ys: list) -> CommaCategory:
    """The comma category of F over G on the source objects xs of F and ys
    of G: every comma object (x, mid, y) and every comma morphism among
    them, in the order of xs, ys and the hom sets."""
    if F.target != G.target:
        raise ValueError("comma construction needs a common target category")
    target = F.target
    target_hom, f_hom, g_hom = hom_sets(target), hom_sets(F.source), hom_sets(G.source)
    objects = [CommaObject(x, mid, y) for x in xs for y in ys
               for mid in target_hom(F.on_object(x), G.on_object(y))]
    morphisms: list[CommaMorphism] = []
    for o1 in objects:
        for o2 in objects:
            for f in f_hom(o1.left, o2.left):
                lhs_leg = target.compose(F.on_morphism(f), o2.mid)
                for g in g_hom(o1.right, o2.right):
                    if target.compose(o1.mid, G.on_morphism(g)) == lhs_leg:
                        morphisms.append(CommaMorphism(o1, o2, f, g))
    return CommaCategory(F, G, objects, morphisms)


def comma_over(F: FunctorData, x: TapeString) -> CommaCategory:
    """The comma category of F, a functor from a presentation into the tape
    category, over the string x."""
    point = constant_functor(TapeCategory(x.alphabet), x)
    return comma_enumerate(F, point, F.source.objects, point.source.objects)
