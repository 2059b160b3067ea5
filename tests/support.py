"""Shared helpers for the test suite."""

from __future__ import annotations

from tapecat.machine import apply, causal_neighbourhood
from tapecat.tape import DEFAULT_ALPHABET, Occurrence, TapeString, windows


def ts(cells: str) -> TapeString:
    return TapeString(DEFAULT_ALPHABET, cells)


def occ(src: str, tgt: str, offset: int) -> Occurrence:
    return Occurrence(ts(src), ts(tgt), offset)


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
