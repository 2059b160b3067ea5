"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value below is either a reference constant or derived
by the independent oracles in this module and tests/support.py.
"""

from __future__ import annotations

import itertools
import time

from click.testing import CliRunner

from tapecat.cli import main
from tapecat.colimit import GlueError, density_check, glue_cells
from tapecat.kan import evaluate
from tapecat.machine import (
    adjunction_sweep,
    apply,
    equivalence_sweep,
    explain,
    functoriality_sweep,
    shape_table,
    shifted_explanation,
    universality_check,
)
from tapecat.tape import DEFAULT_ALPHABET, all_strings, hom

from .support import brute_offsets, occ, ts
from .test_cli import SPREAD


def _report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


def test_c01_worked_update_example(spread, spread_shape):
    x = ts("#...#.")
    want = ts("#.##")
    assert apply(spread, x) == want
    assert evaluate(spread_shape, x) == want
    started = time.perf_counter()
    best = min(
        _timed(lambda: (apply(spread, x), evaluate(spread_shape, x)))
        for _ in range(5)
    )
    assert best < 0.001, f"update took {best * 1e3:.3f} ms"
    _report(1, f"#...#. updates to #.## on both engines in {best * 1e6:.0f} us "
               f"(wall {time.perf_counter() - started:.3f} s)")


def _timed(thunk):
    t0 = time.perf_counter()
    thunk()
    return time.perf_counter() - t0


def test_c02_hom_offsets():
    offsets = {o.offset for o in hom(ts("#.##"), ts("#.##.##"))}
    assert offsets == {0, 3}
    _report(2, "hom(#.##, #.##.##) = {0, 3}")


def test_c03_shape_table_black(spread):
    got = {s.cells for s in shape_table(spread, ts("#"))}
    assert got == {"###", "##.", "#.#", "#..", ".##", ".#.", "..#"}
    _report(3, "shape table of '#' is exactly the 7 windows")


def test_c04_causal_neighbourhood(spread):
    expl = explain(spread, ts("#...#."), 2, 4)
    assert expl.window == occ("..#.", "#...#.", 2)
    _report(4, "cells 2..4 of the update are explained by ..#. @ 2")


def test_c05_equivalence_sweep_12(spread, spread_shape):
    started = time.perf_counter()
    outcome = equivalence_sweep(spread, 12, spread_shape)
    elapsed = time.perf_counter() - started
    assert outcome.cases == 8191
    assert outcome.ok, outcome.failures[:3]
    assert elapsed < 60.0
    _report(5, f"engines agree on all {outcome.cases} strings of length <= 12 "
               f"in {elapsed:.2f}s")


def test_c06_density_to_10(dense):
    started = time.perf_counter()
    count = 0
    for x in all_strings(DEFAULT_ALPHABET, 10):
        verdict = density_check(x, dense)
        assert verdict.ok, f"{x}: {verdict.detail}"
        count += 1
    elapsed = time.perf_counter() - started
    assert count == 2047
    assert elapsed < 30.0
    _report(6, f"density holds on all {count} strings of length <= 10 "
               f"in {elapsed:.2f}s")


def test_c07_functoriality_to_6(spread):
    outcome = functoriality_sweep(spread, 6)
    assert outcome.ok, outcome.failures[:3]
    _report(7, f"update preserves identities and composition: {outcome.cases} cases")


def test_c08_adjunction_universality_to_8(spread):
    outcome = adjunction_sweep(spread, 8)
    assert outcome.ok, outcome.failures[:3]
    _report(8, f"every generator part has a universal neighbourhood: "
               f"{outcome.cases} checks at default bounds")


def test_c09_mutation_sensitivity(spread):
    # library level: the displaced window leaves some candidate unmediated
    x = ts("#...#.")
    p = occ("#", "#.##", 0)
    mutant = shifted_explanation(spread, p, x)
    report = universality_check(spread, p, x, explanation=mutant)
    assert not report.ok and any(f.endswith(" has 0 mediators") for f in report.failures)
    # library level: a deleted shape object breaks the sweep
    runner = CliRunner()
    adj = runner.invoke(main, ["check", SPREAD, "--suite", "adjunction",
                               "--adj-len", "4", "--mutate", "shift-window"])
    assert adj.exit_code == 2
    assert adj.stdout.startswith("FAIL adjunction") and "has 0 mediators" in adj.stdout
    run = runner.invoke(main, ["run", SPREAD, "#...#.", "--engine", "both",
                               "--mutate", "drop-shape-object"])
    assert run.exit_code == 3
    assert "quotient splits into 2 components" in run.stderr
    equiv = runner.invoke(main, ["check", SPREAD, "--suite", "equivalence",
                                 "--max-len", "6", "--mutate", "drop-shape-object"])
    assert equiv.exit_code == 2
    assert equiv.stdout.startswith("FAIL equivalence") and "mismatches=17" in equiv.stdout
    _report(9, "seeded faults fail loudly: adjunction exit 2, engines exit 3, "
               "equivalence exit 2")


# ---------------------------------------------------------------------------
# criterion 10: universality of every successful small gluing


NODE_STRINGS = [s.cells for s in all_strings(DEFAULT_ALPHABET, 3)]
MAX_TOTAL = 12  # four nodes of three cells


def _occurrence_index(max_len: int) -> dict[str, dict[str, tuple[int, ...]]]:
    """needle -> {host -> offsets} over all hosts up to max_len."""
    hosts = [s.cells for s in all_strings(DEFAULT_ALPHABET, max_len)]
    index: dict[str, dict[str, tuple[int, ...]]] = {}
    for needle in NODE_STRINGS:
        if not needle:
            continue
        per_host = {}
        for host in hosts:
            offs = brute_offsets(needle, host)
            if offs:
                per_host[host] = tuple(offs)
        index[needle] = per_host
    return index


def _relative_offsets(values, edges, anchor):
    """Offsets, relative to the anchor, of the nonempty nodes edge-connected
    to it, forced by the edges alone (edge (i, j, off) puts i at j + off).

    Diagram-side only (never consults glue): propagates edge offsets outward
    from the anchor.
    """
    rel = {anchor: 0}
    frontier = [anchor]
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, j, off in edges:
        adj.setdefault(i, []).append((j, -off))
        adj.setdefault(j, []).append((i, off))
    while frontier:
        cur = frontier.pop()
        for other, delta in adj.get(cur, ()):
            if values[other] and other not in rel:
                rel[other] = rel[cur] + delta
                frontier.append(other)
    return rel


def _signature(values, edges):
    """Relative placements of the nonempty nodes, forced by the edges alone;
    a successful gluing always admits exactly one component."""
    nonempty = [i for i, v in enumerate(values) if v]
    if not nonempty:
        return ()
    rel = _relative_offsets(values, edges, nonempty[0])
    if len(rel) != len(nonempty):
        return None  # not edge-connected: cannot be a successful gluing
    base = min(rel.values())
    return tuple(sorted((values[i], rel[i] - base) for i in rel))


def _verify_universal(values, edges, value, legs, index) -> int:
    """Full cocone oracle: every string admitting a commuting cocone must
    factor through (value, legs) exactly once.  Returns cocones checked."""
    total = sum(len(v) for v in values)
    nonempty = [i for i, v in enumerate(values) if v]
    checked = 0
    if not nonempty:
        # empty diagram: the unique cocone to any host factors canonically
        for host in (s.cells for s in all_strings(DEFAULT_ALPHABET, total)):
            assert len(brute_offsets(value, host)) == 1
            checked += 1
        return checked
    anchor = max(nonempty, key=lambda i: len(values[i]))
    # the nonempty nodes are edge-connected, so the anchor's offset in a
    # host forces every other node's: one candidate cocone per anchor offset
    rel = _relative_offsets(values, edges, anchor)
    assert len(rel) == len(nonempty)
    for host, anchor_offs in index[values[anchor]].items():
        if len(host) > total:
            continue
        for base in anchor_offs:
            cocone = {i: base + d for i, d in rel.items()}
            if any(cocone[i] not in index[values[i]].get(host, ()) for i in nonempty):
                continue
            if any(values[i] and cocone[i] != cocone[j] + off for i, j, off in edges):
                continue
            mediators = sum(
                1
                for m in brute_offsets(value, host)
                if all(cocone[i] == m + legs[i] for i in nonempty)
            )
            assert mediators == 1, (values, edges, value, legs, host, cocone)
            checked += 1
    return checked


def test_c10_glue_universality_small_scale():
    """Every successful gluing of <= 4 nodes of length <= 3 is the universal
    cocone, confirmed by brute-force search over all candidate strings.

    Edge sets run over all subsets of up to four occurrence edges between
    distinct nodes; identity self-edges and empty-source edges join no cells
    and constrain no cocone, so they cannot change any outcome.  Successes
    sharing (node placements forced by edges, value, legs) have identical
    cocone sets and factorizations, so each such class is verified once.
    """
    index = _occurrence_index(MAX_TOTAL)
    seen: set = set()
    successes = 0
    cocones = 0
    groups = 0
    for n in range(5):
        for values in itertools.combinations_with_replacement(NODE_STRINGS, n):
            available = [
                (i, j, off)
                for i in range(n)
                for j in range(n)
                if i != j and values[i]
                for off in brute_offsets(values[i], values[j])
            ]
            for k in range(min(len(available), 4) + 1):
                for edges in itertools.combinations(available, k):
                    try:
                        value, legs = glue_cells(list(values), list(edges))
                    except GlueError:
                        continue
                    successes += 1
                    sig = _signature(values, edges)
                    assert sig is not None
                    key = (sig, value, tuple(sorted(
                        (values[i], legs[i]) for i in range(n) if values[i])))
                    if key in seen:
                        continue
                    seen.add(key)
                    groups += 1
                    cocones += _verify_universal(list(values), list(edges),
                                                 value, legs, index)
    assert (successes, groups, cocones) == (41515, 1657, 569729)
    _report(10, f"all {successes} successful gluings universal "
                f"({groups} distinct cocone classes, {cocones} cocones checked)")
