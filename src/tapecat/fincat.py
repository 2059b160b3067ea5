"""Explicit finitely presented categories, functors between them, and
mechanical law checking.

A presentation carries its full composition table and can be validated
instance by instance.  A functor out of a presentation may land in the
infinite tape category, whose hom sets are never enumerated here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from . import tape
from .tape import Alphabet, Occurrence, TapeString


class FinCatError(Exception):
    pass


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind, detail))

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class FinCatPresentation:
    """A finite category: named objects, named morphisms, composition table."""

    def __init__(self) -> None:
        self.objects: list[str] = []
        self._object_set: set[str] = set()
        self._morphisms: dict[str, tuple[str, str]] = {}
        self.identities: dict[str, str] = {}
        self.table: dict[tuple[str, str], str] = {}

    # -- construction ------------------------------------------------------

    def add_object(self, name: str) -> None:
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"bad object name {name!r}")
        if name in self._object_set:
            raise ValueError(f"duplicate object {name!r}")
        self.objects.append(name)
        self._object_set.add(name)

    def add_morphism(self, name: str, dom: str, cod: str) -> None:
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"bad morphism name {name!r}")
        if name in self._morphisms:
            raise ValueError(f"duplicate morphism {name!r}")
        if dom not in self._object_set or cod not in self._object_set:
            raise ValueError(f"morphism {name!r} references unknown objects")
        self._morphisms[name] = (dom, cod)

    def set_identity(self, obj: str, name: str) -> None:
        if obj not in self._object_set or name not in self._morphisms:
            raise ValueError(f"identity binding {obj!r} = {name!r} references unknown names")
        self.identities[obj] = name

    def set_composite(self, g: str, f: str, h: str) -> None:
        for name in (g, f, h):
            if name not in self._morphisms:
                raise ValueError(f"composition entry references unknown morphism {name!r}")
        self.table[(g, f)] = h

    # -- category interface -------------------------------------------------

    def morphisms(self) -> list[str]:
        return list(self._morphisms)

    def dom(self, name: str) -> str:
        return self._morphisms[name][0]

    def cod(self, name: str) -> str:
        return self._morphisms[name][1]

    def identity(self, obj: str) -> str:
        return self.identities[obj]

    def compose(self, f: str, g: str) -> str:
        """Composite "f then g" looked up in the table."""
        if self.cod(f) != self.dom(g):
            raise FinCatError(f"cannot compose {f!r} then {g!r}")
        try:
            return self.table[(g, f)]
        except KeyError:
            raise FinCatError(f"composite of {f!r} then {g!r} is not in the table") from None

    # -- serialization -------------------------------------------------------

    def dumps(self) -> str:
        """Plain-text form: object / morphism / identity / compose lines."""
        lines = [f"object {o}" for o in self.objects]
        lines += [f"morphism {m} : {d} -> {c}" for m, (d, c) in self._morphisms.items()]
        lines += [f"identity {o} = {m}" for o, m in self.identities.items()]
        lines += [f"compose {g} {f} = {h}" for (g, f), h in self.table.items()]
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> FinCatPresentation:
        cat = cls()
        for lineno, raw in enumerate(text.splitlines(), 1):
            toks = raw.split()
            if not toks:
                continue
            try:
                if toks[0] == "object" and len(toks) == 2:
                    cat.add_object(toks[1])
                elif toks[0] == "morphism" and len(toks) == 6 and toks[2] == ":" and toks[4] == "->":
                    cat.add_morphism(toks[1], toks[3], toks[5])
                elif toks[0] == "identity" and len(toks) == 4 and toks[2] == "=":
                    cat.set_identity(toks[1], toks[3])
                elif toks[0] == "compose" and len(toks) == 5 and toks[3] == "=":
                    cat.set_composite(toks[1], toks[2], toks[4])
                else:
                    raise ValueError(f"unrecognized line {raw!r}")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return cat


@dataclass(frozen=True)
class TapeCategory:
    """The tape category over an alphabet, as the target of a functor."""

    alphabet: Alphabet

    def dom(self, m: Occurrence) -> TapeString:
        return m.source

    def cod(self, m: Occurrence) -> TapeString:
        return m.target

    def identity(self, a: TapeString) -> Occurrence:
        return tape.identity(a)

    def compose(self, f: Occurrence, g: Occurrence) -> Occurrence:
        return tape.compose(f, g)


Category = Union[FinCatPresentation, TapeCategory]


@dataclass
class FunctorData:
    """A functor given by explicit object and morphism assignments."""

    source: Category
    target: Category
    obj_map: dict
    mor_map: dict

    def on_object(self, x):
        return self.obj_map[x]

    def on_morphism(self, m):
        return self.mor_map[m]


# ---------------------------------------------------------------------------
# law checking


def validate_category(cat: FinCatPresentation) -> ValidationReport:
    """Check units, totality, closure and associativity of a presentation.

    Every violated instance becomes a report entry; an empty report means
    the presentation is a lawful category.
    """
    report = ValidationReport("category")
    names = cat.morphisms()
    for obj in cat.objects:
        ident = cat.identities.get(obj)
        if ident is None:
            report.add("identity-missing", f"object {obj} has no identity")
            continue
        if cat.dom(ident) != obj or cat.cod(ident) != obj:
            report.add("identity-endpoints", f"identity {ident} of {obj} is not an endomorphism")
    by_dom: dict[str, list[str]] = {}
    for m in names:
        by_dom.setdefault(cat.dom(m), []).append(m)
    # junk: table keys that are not composable pairs of listed morphisms
    junk_after: dict[str, list[str]] = {}
    unknown: list[tuple[str, str]] = []
    for g, f in cat.table:
        if g not in cat._morphisms or f not in cat._morphisms:
            unknown.append((g, f))
        elif cat.cod(f) != cat.dom(g):
            junk_after.setdefault(f, []).append(g)
    position = {m: i for i, m in enumerate(names)}
    # totality and closure of the table, in the order of the pairs (f, g)
    for f in names:
        followers = by_dom.get(cat.cod(f), [])
        if f in junk_after:
            followers = sorted(followers + junk_after[f], key=position.__getitem__)
        for g in followers:
            if cat.cod(f) != cat.dom(g):
                report.add("table-junk", f"table binds non-composable pair ({g}, {f})")
                continue
            h = cat.table.get((g, f))
            if h is None:
                report.add("table-missing", f"no composite for {f} then {g}")
                continue
            if h not in cat._morphisms:
                report.add("closure", f"composite {h} of ({g}, {f}) is not a listed morphism")
                continue
            if cat.dom(h) != cat.dom(f) or cat.cod(h) != cat.cod(g):
                report.add("closure", f"composite {h} of ({g}, {f}) has wrong endpoints")
    for g, f in unknown:
        report.add("table-junk", f"table binds non-composable pair ({g}, {f})")
    if not report.ok:
        return report
    # unit laws
    for f in names:
        if cat.compose(cat.identity(cat.dom(f)), f) != f:
            report.add("unit", f"id;{f} != {f}")
        if cat.compose(f, cat.identity(cat.cod(f))) != f:
            report.add("unit", f"{f};id != {f}")
    # associativity over all composable triples
    for f in names:
        for g in by_dom.get(cat.cod(f), ()):
            fg = cat.compose(f, g)
            for h in by_dom.get(cat.cod(g), ()):
                if cat.compose(fg, h) != cat.compose(f, cat.compose(g, h)):
                    report.add("associativity", f"({f};{g});{h} != {f};({g};{h})")
    return report


def validate_functor(functor: FunctorData) -> ValidationReport:
    """Check that a functor preserves endpoints, identities and composition.

    The source must be a finite presentation, so that the check can be
    exhaustive.
    """
    report = ValidationReport("functor")
    src, tgt = functor.source, functor.target
    mors = src.morphisms()
    for x in src.objects:
        fx = functor.on_object(x)
        if isinstance(tgt, TapeCategory):
            if not isinstance(fx, TapeString) or fx.alphabet != tgt.alphabet:
                report.add("object-image", f"image of {x} is not a tape string over the target alphabet")
                continue
        elif fx not in tgt.objects:
            report.add("object-image", f"image of {x} is not a target object")
            continue
        if functor.on_morphism(src.identity(x)) != tgt.identity(fx):
            report.add("identity", f"identity of {x} is not sent to an identity")
    for m in mors:
        fm = functor.on_morphism(m)
        if tgt.dom(fm) != functor.on_object(src.dom(m)):
            report.add("endpoint", f"domain of image of {m} is wrong")
        if tgt.cod(fm) != functor.on_object(src.cod(m)):
            report.add("endpoint", f"codomain of image of {m} is wrong")
    if not report.ok:
        return report
    by_dom: dict[str, list[str]] = {}
    for m in mors:
        by_dom.setdefault(src.dom(m), []).append(m)
    for f in mors:
        for g in by_dom.get(src.cod(f), ()):
            lhs = functor.on_morphism(src.compose(f, g))
            rhs = tgt.compose(functor.on_morphism(f), functor.on_morphism(g))
            if lhs != rhs:
                report.add("composition", f"image of {f};{g} is not the composite of images")
    return report


# ---------------------------------------------------------------------------
# the canonical dense subcategory


@dataclass(frozen=True)
class DenseSubcategory:
    """The empty string plus all strings of length <= 2, with its inclusion."""

    alphabet: Alphabet
    strings: tuple[TapeString, ...]
    presentation: FinCatPresentation
    inclusion: FunctorData


def canonical_generators(alphabet: Alphabet) -> tuple[TapeString, ...]:
    """The canonical generators: every string of length <= 2, shortest
    first, then in alphabet order."""
    return tuple(tape.all_strings(alphabet, 2))


def canonical_dense_subcategory(alphabet: Alphabet) -> DenseSubcategory:
    """Generators dense in the tape category: any string is glued from its
    cells and consecutive pairs."""
    strings = canonical_generators(alphabet)
    cat = FinCatPresentation()
    obj_map: dict[str, TapeString] = {}
    mor_map: dict[str, Occurrence] = {}
    for s in strings:
        cat.add_object(str(s))
        obj_map[str(s)] = s
    occs: dict[str, Occurrence] = {}
    for a in strings:
        for b in strings:
            for o in tape.hom(a, b):
                name = f"{a}>{b}@{o.offset}"
                cat.add_morphism(name, str(a), str(b))
                occs[name] = o
                mor_map[name] = o
    for s in strings:
        cat.set_identity(str(s), f"{s}>{s}@0")
    for n1, o1 in occs.items():
        for n2, o2 in occs.items():
            if o1.target != o2.source:
                continue
            comp = tape.compose(o1, o2)
            cat.set_composite(n2, n1, f"{comp.source}>{comp.target}@{comp.offset}")
    inclusion = FunctorData(cat, TapeCategory(alphabet), obj_map, mor_map)
    return DenseSubcategory(alphabet, strings, cat, inclusion)
