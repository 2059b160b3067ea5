"""Locally deterministic update machines on tape strings.

A machine is a radius-r local rule applied to every window of a string; the
update drops r cells from each end, so a string shorter than a full window
updates to the empty string.  Around this sit the causal-structure
operations: the neighbourhood through which all influence on an updated
part must pass, a bounded checker for its universal property, the finite
shape category (kan.ShapeCategory) built from the rule, and the sweeps
of the laws.  The equivalence sweep compares the two engines on every
string up to a bound: kan.walk glues them and compares each with the
rule's update, which it extends from the string's prefix by the output
for the last window that the sweep hands it, so no gluing logic lives
here.  The imports hold the firewall: kan imports nothing
from here, so colimit evaluation sees the rule only through the shape
category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import tape
from .colimit import GlueError
from .fincat import ValidationReport, canonical_generators
from .kan import ShapeCategory, ShapeObject, evaluate_traced, walk
from .tape import Alphabet, AlphabetMismatch, Occurrence, TapeString


class MachineError(Exception):
    pass


class MachineConfigError(MachineError):
    """The machine config file does not parse."""


class TargetMismatch(MachineError):
    """The part to explain does not live in the update of the given state."""


@dataclass(frozen=True)
class MachineSpec:
    """A finite alphabet, a radius, and a total local rule on windows."""

    alphabet: Alphabet
    radius: int
    rule: tuple[tuple[str, str], ...]

    def __init__(self, alphabet: Alphabet, radius: int, rule: Mapping[str, str]) -> None:
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "rule", tuple(sorted(rule.items())))
        if radius < 0:
            raise ValueError("radius must be >= 0")

    @cached_property
    def rule_map(self) -> dict[str, str]:
        return dict(self.rule)

    @property
    def window_len(self) -> int:
        return 2 * self.radius + 1


#: The longest window whose count and first missing entry a report spells
#: out.  Longer windows are reported by the size of their space alone, so
#: no integer or window built here grows with the radius.
_SPELLED_WINDOW_LEN = 64


def validate_machine(spec: MachineSpec) -> ValidationReport:
    """Report missing rule windows, bad symbols, and malformed entries.

    Totality is decided by counting distinct well-formed windows, so the
    window space is never enumerated: the first missing window, in alphabet
    order, is among the first len(rule) + 1 windows.
    """
    report = ValidationReport("machine")
    well_formed: set[str] = set()
    for window, out in spec.rule:
        if len(window) != spec.window_len:
            report.add("window-length", f"window {window!r} is not {spec.window_len} cells")
        elif any(c not in spec.alphabet for c in window):
            report.add("bad-symbol", f"window {window!r} uses symbols outside the alphabet")
        else:
            well_formed.add(window)
        if len(out) != 1 or out not in spec.alphabet:
            report.add("bad-symbol", f"output {out!r} for window {window!r} is not a symbol")
    k, w = len(spec.alphabet), spec.window_len
    if w > _SPELLED_WINDOW_LEN:
        # k**w dwarfs any rule table, unless one symbol leaves a single window
        if k > 1 or not well_formed:
            report.add("missing-window", f"the rule binds {len(well_formed)} of the "
                                         f"{k}**{w} windows")
        return report
    total = k ** w
    if len(well_formed) < total:
        first = next(x for x in tape.windows(spec.alphabet, w) if x not in well_formed)
        report.add("missing-window", f"no rule entry for {total - len(well_formed)} of "
                                     f"{total} windows, the first is {first!r}")
    return report


def _window_map(spec: MachineSpec, cells: str) -> str:
    w = spec.window_len
    rule = spec.rule_map
    try:
        return "".join(rule[cells[i : i + w]] for i in range(len(cells) - w + 1))
    except KeyError as exc:
        raise MachineError(f"rule has no entry for window {exc.args[0]!r}") from None


def apply(spec: MachineSpec, x: TapeString) -> TapeString:
    """Update a string: rule applied to every window, ends dropped.

    Strings with fewer cells than a full window update to the empty string.
    """
    if x.alphabet != spec.alphabet:
        raise AlphabetMismatch(f"{x} is not over the machine alphabet")
    return TapeString(spec.alphabet, _window_map(spec, x.cells))


def apply_morphism(spec: MachineSpec, f: Occurrence) -> Occurrence:
    """The update's action on an occurrence: same offset, shrunken strings.

    When the updated source is empty the result is the canonical occurrence
    out of the empty string.
    """
    ux = apply(spec, f.source)
    return Occurrence(ux, apply(spec, f.target), f.offset if ux.cells else 0)


# ---------------------------------------------------------------------------
# causal neighbourhoods


@dataclass(frozen=True)
class Explanation:
    """A part of an updated state together with its causal neighbourhood.

    ``part`` places A in the update of a state X; ``window`` is the stretch
    of X that determines A (one radius wider on each side).  The window
    updates to exactly A, so the unit, which places A in the update of the
    window, is the identity.
    """

    part: Occurrence
    window: Occurrence

    @property
    def unit(self) -> Occurrence:
        return tape.identity(self.part.source)

    def __str__(self) -> str:
        return f"part:   {self.part}\nwindow: {self.window}\nunit:   {self.unit}"


def _neighbourhood(spec: MachineSpec, p: Occurrence, x: TapeString) -> Explanation:
    """causal_neighbourhood read off x, with nothing updated; p must live in
    the update of x."""
    a = p.source
    if a.is_empty():
        return Explanation(p, Occurrence(TapeString.empty(spec.alphabet), x, 0))
    n = x.segment(p.offset, p.offset + a.length + 2 * spec.radius)
    return Explanation(p, Occurrence(n, x, p.offset))


def causal_neighbourhood(spec: MachineSpec, p: Occurrence, x: TapeString) -> Explanation:
    """The minimal stretch of x through which all influence on p passed.

    For a nonempty part at offset k, that is the window of x spanning
    [k, k + len(part) + 2r); it updates exactly to the part.  The empty
    part is explained by the empty window.
    """
    if p.target != apply(spec, x):
        raise TargetMismatch(f"({p}) does not live in the update of {x}")
    return _neighbourhood(spec, p, x)


def explain(spec: MachineSpec, x: TapeString, start: int, stop: int) -> Explanation:
    """Causal neighbourhood of the updated cells [start, stop) of x."""
    ux = apply(spec, x)
    if not 0 <= start <= stop <= ux.length:
        raise ValueError(f"cell range [{start}, {stop}) outside the update of {x} "
                         f"({ux.length} cells)")
    part = ux.segment(start, stop)
    return _neighbourhood(spec, Occurrence(part, ux, start if not part.is_empty() else 0), x)


def shifted_explanation(spec: MachineSpec, p: Occurrence, x: TapeString) -> Explanation:
    """Fault injection: the explaining window displaced by one cell.

    Shifts right when that fits, otherwise left.  Returns the honest
    explanation unchanged when the window fills the whole state (no room
    to shift).
    """
    honest = causal_neighbourhood(spec, p, x)
    n_len = honest.window.source.length
    if honest.part.source.is_empty() or n_len == x.length:
        return honest
    offset = p.offset + 1 if p.offset + 1 + n_len <= x.length else p.offset - 1
    return Explanation(p, Occurrence(x.segment(offset, offset + n_len), x, offset))


@dataclass
class UniversalityReport:
    """The number of candidates checked and one line per candidate that has
    no mediator, in the order found."""

    candidates: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _hosts(spec: MachineSpec, x: TapeString) -> list[tuple[str, int, str]]:
    """The hosts of a state, the state itself first: for each context of at
    most two cells, the host's cells, the state's offset in them (the only
    state map a mediator may have) and the host's update.  The empty state
    takes no left context, so each of its hosts arises once."""
    zs = [(left + x.cells + right, n) for total in range(3)
          for n in range(total + 1 if x.cells else 1) for left in tape.windows(spec.alphabet, n)
          for right in tape.windows(spec.alphabet, total - n)]
    return [(z, b_off, _window_map(spec, z)) for z, b_off in zs]


def _spelled(source: str, offset: int, target: str) -> str:
    """str(Occurrence) of these cells, without building one per failure."""
    return f"{source or '(empty)'} @ {offset} in {target or '(empty)'}"


def universality_check(spec: MachineSpec, p: Occurrence, x: TapeString,
                       explanation: Explanation | None = None) -> UniversalityReport:
    """Bounded search for counterexamples to the neighbourhood's universality.

    Enumerates every candidate explanation of p: a span of at most
    len(part) + 2r + 2 cells in a host of at most len(x) + 2 cells that
    extends x.  It counts each candidate's factorizations through the given
    (default: computed) explanation, with a line for each candidate that has
    none.  The check passes when every candidate has exactly one.

    The rule is local, so each span's update is read off its host's update
    (_hosts, whose first host is x).  No host needs filtering: the windows
    of a host left + x + right from offset len(left) on begin with those of
    x, so its update holds x's at that offset, and p lies in every host's
    update at host offset lo = p.offset + len(left).  A nonempty part lies
    only in spans [g, g + m) with g <= lo and lo + len(part) <= g + m - 2r,
    so only those are visited, in the (m, g) order of the empty part's full
    scan.

    With the explanation that _neighbourhood reads off x (the default), the
    check cannot fail, whatever the rule.  A nonempty part's window is then
    the host's own cells z[lo : lo + len(part) + 2r], and every visited span
    holds them, at u_off = lo - g = a_off, so both squares commute; the
    empty part's window is empty and lies in every span at offset 0.  Only
    another explanation can fail it: shifted_explanation's, n_off = p.offset
    +- 1, gives every candidate of a nonempty part u_off - a_off = +-1.
    """
    hosts = _hosts(spec, x)
    if p.target != TapeString(spec.alphabet, hosts[0][2]):
        raise TargetMismatch(f"({p}) does not live in the update of {x}")
    expl = explanation if explanation is not None else _neighbourhood(spec, p, x)
    a_cells, la = p.source.cells, p.source.length
    report = UniversalityReport()
    n_cells, n_off = expl.window.source.cells, expl.window.offset
    two_r = 2 * spec.radius

    for z_cells, b_off, uz in hosts:
        z_len = len(z_cells)
        lo = p.offset + b_off
        if a_cells:
            lengths = range(la + two_r, min(la + two_r + 2, z_len) + 1)
        else:
            lengths = range(min(two_r + 2, z_len) + 1)
        for m in lengths:
            starts = (range(max(0, lo + la + two_r - m), min(lo, z_len - m) + 1) if a_cells
                      else range(z_len - m + 1 if m else 1))
            report.candidates += len(starts)
            for g_off in starts:
                a_off = lo - g_off if a_cells else 0
                # the state square fixes the mediator's window offset in the
                # span z_cells[g_off : g_off + m] (a negative one lies outside
                # it); the unit being the identity, the part square needs a_off
                u_off = n_off + b_off - g_off if n_cells else 0
                if not (u_off >= 0 and z_cells.startswith(n_cells, g_off + u_off, g_off + m)
                        and (u_off == a_off or not a_cells)):
                    # a span shorter than a window updates to nothing (a negative stop)
                    um = uz[g_off : g_off + m - two_r] if m > two_r else ""
                    g = _spelled(z_cells[g_off : g_off + m], g_off if m else 0, z_cells)
                    a = _spelled(a_cells, a_off, um)
                    b = _spelled(x.cells, b_off if x.cells else 0, z_cells)
                    report.failures.append(f"candidate g=({g}) a=({a}) b=({b}) has 0 mediators")
    return report


# ---------------------------------------------------------------------------
# shape tables and the precomputed shape category


def shape_table(spec: MachineSpec, a: TapeString) -> set[TapeString]:
    """All windows that update exactly to `a`.

    For a nonempty part these have length len(a) + 2r; the empty part is
    explained by the empty window alone.  The window space is never
    enumerated: the windows of one cell are the rule windows with that
    output, and those of a longer part join the windows of its prefix with
    those of its last cell wherever they agree on 2r overlapping cells (the
    de Bruijn-graph view of cellular-automaton preimages).
    """
    if a.alphabet != spec.alphabet:
        raise AlphabetMismatch(f"{a} is not over the machine alphabet")
    if a.is_empty():
        return {a}
    by_output: dict[str, list[str]] = {}
    for window, out in spec.rule:
        by_output.setdefault(out, []).append(window)
    overlap = 2 * spec.radius
    found = by_output.get(a.cells[0], [])
    for cell in a.cells[1:]:
        by_prefix: dict[str, list[str]] = {}
        for window in by_output.get(cell, ()):
            by_prefix.setdefault(window[:overlap], []).append(window[overlap:])
        found = [w + last for w in found for last in by_prefix.get(w[len(w) - overlap:], ())]
    return {TapeString(spec.alphabet, w) for w in found}


def shape_category(spec: MachineSpec) -> ShapeCategory:
    """Precompute the shape category of a machine over the canonical
    generators: one object per (generator, explaining window) pair, from
    which ShapeCategory derives one morphism per aligned double occurrence.

    The generators are fixed: the colimit evaluator glues each generator
    only to its one-cell-smaller sub-generators, which suffices when those
    are generators too.  Another dense set, such as the strings of lengths
    0, 1, 2 and 4, leaves nodes unglued, and evaluation then disagrees
    with the rule."""
    objects = tuple(ShapeObject(a, n)
                    for a in canonical_generators(spec.alphabet)
                    for n in sorted(shape_table(spec, a), key=lambda s: s.cells))
    return ShapeCategory(spec.alphabet, objects)


# ---------------------------------------------------------------------------
# whole-machine sweeps (drive the checkers over bounded fragments)


@dataclass
class SweepOutcome:
    """The number of cases a sweep checked and its failure lines: one per
    failing string (functor, equivalence), one per missing object
    (adjunction), or one alone (adjunction under a shifted window)."""

    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def functoriality_sweep(spec: MachineSpec, max_len: int,
                        shape: ShapeCategory | None = None) -> SweepOutcome:
    """Check that gluing over the shape category (default: the machine's
    own) is a functor U on the occurrences among strings up to max_len, and
    is the update, by two checks per string b: (i) b glues to apply(b), and
    (ii) each node with a nonempty generator has its leg, read off the
    trace of kan.evaluate_traced, at its placement offset; the trace's
    edges are never read, so never built.  A string that does not glue
    fails as one line; otherwise it gives one line for the first of (i) and
    (ii) it fails, (ii) naming its first displaced node.

    The two checks decide every instance of the laws that validate_functor
    checks on fincat.string_inclusion's presentation of those strings, which
    is never built.  U(f) for f: a -> b at offset k sits at
    leg_b(o, q + k) - leg_a(o, q), read at a node (o, q) of a with a nonempty
    generator (at 0 when U(a) is empty), since a nonempty window names its
    object and so is placed in b at q + k.  Given (i) and (ii), that is
    (q + k) - q = k, which is apply_morphism(f), or 0 out of an empty U(a);
    so U is the rule's update on every morphism, and a functor, as offsets
    add.  Conversely, each identity's image checks (i), and (ii) is a check
    in its own right: legs displaced alike keep every difference, so no
    law instance sees them.  So the row fails exactly when some law
    instance or some leg fails, and cases counts the instances, one per
    string and one per composable pair, in closed form."""
    shape = _shape_of(spec, shape)
    counts = [len(spec.alphabet) ** n for n in range(max_len + 1)]
    strings = sum(counts)
    # an m-cell string receives 1 + m(m + 1)/2 occurrences and sends one to
    # each string if m = 0, else one per offset into each longer string
    sent = [strings] + [sum((n - m + 1) * counts[n - m] for n in range(m, max_len + 1))
                        for m in range(1, max_len + 1)]
    outcome = SweepOutcome(strings + sum(count * (1 + m * (m + 1) // 2) * out
                                         for m, (count, out) in enumerate(zip(counts, sent))))
    nonempty = [bool(o.generator.cells) for o in shape.objects]
    for b in tape.all_strings(spec.alphabet, max_len):
        try:
            value, trace = evaluate_traced(shape, b)
        except GlueError as exc:
            outcome.failures.append(f"{b}: glue failed: {exc}")
            continue
        want = _window_map(spec, b.cells)
        if value.cells != want:
            outcome.failures.append(f"{b}: glued {value}, rule gives "
                                    f"{TapeString(spec.alphabet, want)}")
            continue
        for (o, q), leg in zip(trace.nodes, trace.legs):
            if nonempty[o] and leg != q:
                outcome.failures.append(f"{b}: leg of {shape.objects[o].name} placed at "
                                        f"{q} is {leg}")
                break
    return outcome


def _shape_of(spec: MachineSpec, shape: ShapeCategory | None) -> ShapeCategory:
    """The given shape category (default: the machine's own), which must
    share the machine's alphabet."""
    if shape is None:
        return shape_category(spec)
    if spec.alphabet != shape.alphabet:
        raise AlphabetMismatch(f"the machine's alphabet ({spec.alphabet}) is not the shape "
                               f"category's ({shape.alphabet})")
    return shape


def adjunction_sweep(spec: MachineSpec, max_state_len: int, mutate: bool = False,
                     shape: ShapeCategory | None = None) -> SweepOutcome:
    """Check the explanation of every canonical generator part of every
    updated state up to max_state_len: one case per part, counted in closed
    form, and one failure line per missing object.

    A part's window, the state's cells [k, k + len(part) + 2r) for a part
    at offset k in the update (empty for the empty part), as _neighbourhood
    reads it, must be an object (part|window) of the shape category that
    evaluate glues (default: shape_category(spec)), whose windows
    shape_table joins from rule entries.  The rule is local, so the part is
    the window's own update, and the windows of the generators' parts are
    those of 0, 2r + 1 and 2r + 2 cells.  Each such window is a state
    within the bound and its whole update is a part, so the parts of all
    states look up exactly the pairs (update(v), v) for those windows v:
    each window is updated and looked up once, and the row's cost does not
    grow with max_state_len.  A missing object's line names the window as
    its state, the shortest state that holds it, so the lines come in the
    order in which the states first show them.

    With mutate=True each part's explanation is displaced as
    shifted_explanation does, and the sweep must fail with one line: the
    first failure of the first part, in state and generator order, that
    universality_check refutes.  A nonempty part's window moves one cell
    unless it fills its state, and then no candidate, of which x itself
    hosts one, has a mediator; so a part fails exactly when it is nonempty
    and its window, w = 2r + 1 cells for one cell and w + 1 for two, is
    shorter than its state.  No state of at most w cells holds one.  The
    first state of w + 1 cells, symbols[0] * (w + 1), updates to two equal
    cells, so after its empty part, which passes, comes its one-cell part at
    offset 0: the one part checked, whatever the bound from w + 1 on."""
    k, w = len(spec.alphabet), spec.window_len
    # an n-cell state's update holds the empty part, n - w + 1 one-cell
    # parts and n - w two-cell ones
    outcome = SweepOutcome(sum(k ** n * (1 + max(n - w + 1, 0) + max(n - w, 0))
                               for n in range(max_state_len + 1)))
    if mutate:
        if max_state_len > w:
            x = TapeString(spec.alphabet, spec.alphabet.symbols[0] * (w + 1))
            ux = apply(spec, x)
            p = Occurrence(ux.segment(0, 1), ux, 0)
            report = universality_check(spec, p, x, explanation=shifted_explanation(spec, p, x))
            outcome.failures.extend(report.failures[:1])
        return outcome
    objects = {(o.generator.cells, o.window.cells) for o in _shape_of(spec, shape).objects}
    for n in (0, w, w + 1):
        if n > max_state_len:
            break
        for window in tape.windows(spec.alphabet, n):
            part = _window_map(spec, window)
            if (part, window) not in objects:
                a, x = TapeString(spec.alphabet, part), TapeString(spec.alphabet, window)
                outcome.failures.append(f"part ({tape.identity(a)}) over {x}: the shape "
                                        f"category has no object {ShapeObject(a, x).name}")
    return outcome


def equivalence_sweep(spec: MachineSpec, max_len: int,
                      shape: ShapeCategory | None = None) -> SweepOutcome:
    """Compare colimit evaluation (kan.evaluate) against the direct rule
    (apply) on every string up to max_len: one case per string, one failure
    line per mismatch, shortest strings first and each length in
    tape.windows order; a lawful machine must show none.  A negative
    max_len visits no string.

    kan.walk glues the strings and yields those whose value is not the
    rule's update.  apply maps every window, so the rule's update of x·c is
    x's followed by the output for x·c's last window, once it holds one;
    the walk extends the update by that output, which reads x·c's last cell
    and the w - 1 before it.  A window with no entry raises apply's
    MachineError.

    The walk skips the subtree of a string that passes when a string with
    the same memo state and last w - 1 cells passed before it, with a
    subtree at least as deep that passed by memo steps alone.  The skipped
    verdicts follow by determinism alone, not from the exactness of the
    memo's states: memo entries never change, so the skipped strings would
    replay the steps of those that passed, and the rule's outputs read the
    same windows.  The count of cases is the number of strings, in closed
    form.
    """
    shape = _shape_of(spec, shape)
    alphabet, w, rule = spec.alphabet, spec.window_len, spec.rule_map.get

    def extend(cells: str) -> str:
        if len(cells) < w:
            return ""
        window = cells[-w:]  # _window_map raises apply's error on a window with no entry
        return rule(window) or _window_map(spec, window)

    failures: list[list[str]] = [[] for _ in range(max_len + 1)]
    for cells, got, want in walk(shape, max_len, extend, w - 1):
        x = TapeString(alphabet, cells)
        failures[len(cells)].append(
            f"{x}: glue failed: {got}" if isinstance(got, GlueError) else
            f"{x}: evaluated {TapeString(alphabet, got)}, rule gives {TapeString(alphabet, want)}")
    cases = sum(len(alphabet.symbols) ** n for n in range(max_len + 1))
    return SweepOutcome(cases, [line for lines in failures for line in lines])


# ---------------------------------------------------------------------------
# machine config files


def format_machine(spec: MachineSpec) -> str:
    lines = [f"alphabet: {spec.alphabet}", f"radius: {spec.radius}", "rule:"]
    lines += [f"  {window} -> {out}" for window, out in spec.rule]
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> MachineSpec:
    """Parse the plain-text machine config (alphabet, radius, rule table).

    Rejects duplicate and missing windows (a partial rule would silently
    break functoriality) and a repeated 'alphabet:' or 'radius:' line.
    """
    alphabet: Alphabet | None = None
    radius: int | None = None
    rule: dict[str, str] = {}
    in_rule = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise MachineConfigError(f"line {lineno}: duplicate 'alphabet:' line")
            symbols = tuple(line[len("alphabet:"):].split())
            try:
                alphabet = Alphabet(symbols)
            except ValueError as exc:
                raise MachineConfigError(f"line {lineno}: {exc}") from None
            in_rule = False
        elif line.startswith("radius:"):
            if radius is not None:
                raise MachineConfigError(f"line {lineno}: duplicate 'radius:' line")
            try:
                radius = int(line[len("radius:"):].strip())
            except ValueError:
                raise MachineConfigError(f"line {lineno}: radius is not an integer") from None
            if radius < 0:
                raise MachineConfigError(f"line {lineno}: radius must be >= 0")
            in_rule = False
        elif line == "rule:":
            in_rule = True
        elif in_rule:
            parts = line.split()
            if len(parts) != 3 or parts[1] != "->":
                raise MachineConfigError(f"line {lineno}: expected 'WINDOW -> SYMBOL'")
            window, out = parts[0], parts[2]
            if window in rule:
                raise MachineConfigError(f"line {lineno}: duplicate window {window!r}")
            rule[window] = out
        else:
            raise MachineConfigError(f"line {lineno}: unrecognized line {raw!r}")
    if alphabet is None:
        raise MachineConfigError("missing 'alphabet:' line")
    if radius is None:
        raise MachineConfigError("missing 'radius:' line")
    if not rule:
        raise MachineConfigError("missing 'rule:' table")
    spec = MachineSpec(alphabet, radius, rule)
    report = validate_machine(spec)
    if not report.ok:
        raise MachineConfigError(str(report))
    return spec
