"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count
from operator import eq

import tapecat.machine
from tapecat import tape
from tapecat.colimit import (CellGluing, Disconnected, GlueError, LabelConflict, NotLinear,
                             density_check)
from tapecat.fincat import (FinCatPresentation, FunctorData, TapeCategory, canonical_generators,
                            string_inclusion, validate_functor)
from tapecat.kan import ShapeCategory, ShapeObject, evaluate_traced
from tapecat.machine import (Explanation, MachineSpec, SweepOutcome, apply, apply_morphism,
                             causal_neighbourhood)
from tapecat.tape import (DEFAULT_ALPHABET, Alphabet, InvalidOccurrence, Occurrence, TapeError,
                          TapeString, windows)


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


def reference_read(self: CellGluing) -> tuple[list[int], str, list[int]]:
    """Reference for CellGluing._read: the reader as it was before it
    detected in one pass, kept verbatim; it lists the roots of every pair
    of consecutive cells before it checks any.  It reads the held quotient:
    every held cell's root, the held labels, and the held classes in path
    order, which continues the closed word; raises LabelConflict, NotLinear
    or Disconnected, in that order of priority, carrying the offending node
    indices."""
    values, starts = self.values, self.starts
    roots = self._roots()
    labels = "".join(values)
    if not labels:
        return roots, labels, []

    first: dict[int, int] = {}  # root -> its first cell, built on the error paths

    def first_cell(r: int) -> int:
        if not first:
            first.update(zip(reversed(roots), range(len(roots) - 1, -1, -1)))
        return first[r]

    def node_of(c: int) -> int:
        return bisect_right(starts, c) - 1

    def rep(r: int) -> int:
        return node_of(first_cell(r))

    # a root is a cell too: every cell must carry its root's label
    if "".join(map(labels.__getitem__, roots)) != labels:
        c = next(c for c, r in enumerate(roots) if labels[c] != labels[first_cell(r)])
        i, j = rep(roots[c]), node_of(c)
        raise LabelConflict(
            f"cells of nodes {i} and {j} are glued but labelled "
            f"{labels[first_cell(roots[c])]!r} vs {labels[c]!r}",
            nodes=(i, j),
        )

    # the adjacency: the roots of each pair of consecutive cells of a node
    inner = bytearray(b"\x01") * len(roots)
    inner[-1] = 0
    for s in starts:
        if s:
            inner[s - 1] = 0
    left, right = list(compress(roots, inner)), list(compress(roots[1:], inner))
    # each root's successor and predecessor in its first pair: on a linear
    # quotient its only ones; otherwise the first pair, in node order,
    # that they contradict is where the quotient folds or branches
    succ = dict(zip(reversed(left), reversed(right)))
    pred = dict(zip(reversed(right), reversed(left)))
    if (any(map(eq, left, right)) or list(map(succ.__getitem__, left)) != right
            or list(map(pred.__getitem__, right)) != left):
        c, a, b = next((c, a, b) for c, a, b in zip(compress(count(), inner), left, right)
                       if a == b or succ[a] != b or pred[b] != a)
        i = node_of(c)
        if a == b:
            raise NotLinear(f"node {i} glues onto itself (cycle)", nodes=(i,))
        if succ[a] != b:
            raise NotLinear(f"quotient branches after a cell of node {i}", nodes=(rep(a), i))
        raise NotLinear(f"quotient branches before a cell of node {i}", nodes=(rep(b), i))

    classes = set(roots)
    sources = classes.difference(pred)
    if self.after is not None and roots[self.after] not in sources:
        raise NotLinear("quotient branches before the closed word's successor",
                        nodes=(rep(roots[self.after]),))
    if len(sources) > 1:
        raise Disconnected(
            f"quotient splits into {len(sources)} components",
            nodes=tuple(sorted({rep(r) for r in sources})),
        )
    if not sources:
        raise NotLinear("quotient adjacency is a cycle", nodes=(rep(roots[0]),))
    # every root has at most one predecessor, so no walk from a source cycles
    path: list[int] = []
    cur: int | None = sources.pop()
    while cur is not None:
        path.append(cur)
        cur = succ.get(cur)
    if len(path) != len(classes):
        stray = min(map(first_cell, classes - set(path)))
        raise NotLinear("quotient contains a disconnected cycle", nodes=(node_of(stray),))
    return roots, labels, path


def per_string_density(alphabet: Alphabet, generators, max_len: int,
                       ) -> list[tuple[int, str | None]]:
    """Reference for kan.density_sweep: density_check on each string of
    each length up to max_len, in windows order; per length the count and
    the first failing string with its detail."""
    rows = []
    for n in range(max_len + 1):
        xs = [TapeString(alphabet, cells) for cells in windows(alphabet, n)]
        failures = [f"{x}: {verdict.detail}" for x in xs
                    if not (verdict := density_check(x, generators)).ok]
        rows.append((len(xs), failures[0] if failures else None))
    return rows


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
    """Reference tying the adjunction sweep's slices to the explanations:
    for every canonical generator part of every updated state up to
    max_state_len, the window that tapecat.machine._neighbourhood reads must
    have the closed form that the sweep slices and universality_check's
    proof needs, x's cells from the part's offset, len(part) + 2r long
    (empty for the empty part)."""
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


def occurrence_adjunction(spec: MachineSpec, max_state_len: int,
                          shape: ShapeCategory | None = None) -> SweepOutcome:
    """Reference for the honest tapecat.machine.adjunction_sweep: the same
    cases and failure lines, with an Occurrence per part from tape.hom and
    each window read off the state through _neighbourhood."""
    objects = {(o.generator.cells, o.window.cells)
               for o in tapecat.machine._shape_of(spec, shape).objects}
    outcome = SweepOutcome()
    for x in tape.all_strings(spec.alphabet, max_state_len):
        ux = apply(spec, x)
        for a in canonical_generators(spec.alphabet):
            for p in tape.hom(a, ux):
                outcome.cases += 1
                n = tapecat.machine._neighbourhood(spec, p, x).window.source
                if (a.cells, n.cells) not in objects:
                    outcome.failures.append(f"part ({p}) over {x}: the shape category has "
                                            f"no object {ShapeObject(a, n).name}")
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


def table_functoriality(spec: MachineSpec, max_len: int,
                        shape: ShapeCategory | None = None) -> SweepOutcome:
    """Reference for tapecat.machine.functoriality_sweep: the same cases and
    verdict, read off string_inclusion's presentation of the strings up to
    max_len, whose composition table validate_functor walks, with an
    Occurrence and an apply_morphism per morphism and a line per failed
    law instance."""
    shape = tapecat.machine._shape_of(spec, shape)
    inclusion = string_inclusion(spec.alphabet, tape.all_strings(spec.alphabet, max_len))
    cat = inclusion.source
    outcome = SweepOutcome(len(cat.objects) + len(cat.table))
    values, legs = {}, {}
    for name, b in inclusion.obj_map.items():
        try:
            values[name], trace = evaluate_traced(shape, b)
        except GlueError as exc:
            outcome.failures.append(f"{b}: glue failed: {exc}")
            continue
        legs[name] = {node: leg for node, leg in zip(trace.nodes, trace.legs)
                      if shape.objects[node[0]].generator.cells}
    if outcome.failures:
        return outcome
    images = {}
    for name, f in inclusion.mor_map.items():
        a, b = cat.dom(name), cat.cod(name)
        node = next(iter(legs[a]), None)  # a's first node with a nonempty generator
        off = legs[b][node[0], node[1] + f.offset] - legs[a][node] if node else 0
        try:
            images[name] = Occurrence(values[a], values[b], off)
        except TapeError as exc:
            outcome.failures.append(f"({f}): legs induce no occurrence: {exc}")
            continue
        want = apply_morphism(spec, f)
        if images[name] != want:
            outcome.failures.append(f"({f}): glued ({images[name]}), rule gives ({want})")
    if len(images) == len(inclusion.mor_map):
        report = validate_functor(FunctorData(cat, inclusion.target, values, images))
        outcome.failures += [str(v) for v in report.violations]
    if not outcome.failures:
        for name, b_legs in legs.items():
            node = next((node for node, leg in b_legs.items() if leg != node[1]), None)
            if node:
                outcome.failures.append(f"{name}: leg of {shape.objects[node[0]].name} placed at "
                                        f"{node[1]} is {b_legs[node]}")
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
