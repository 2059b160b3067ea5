"""Shared fixtures: reference machines and their precomputed structures."""

from __future__ import annotations

import pytest

from tapecat.fincat import canonical_dense_subcategory
from tapecat.machine import MachineSpec, shape_category
from tapecat.tape import DEFAULT_ALPHABET, Alphabet, windows


def spread_rule() -> dict[str, str]:
    """Radius-1 rule over {., #}: a cell goes black unless its whole window
    is white."""
    return {w: ("." if w == "..." else "#") for w in windows(DEFAULT_ALPHABET, 3)}


@pytest.fixture(scope="session")
def spread() -> MachineSpec:
    return MachineSpec(DEFAULT_ALPHABET, 1, spread_rule())


@pytest.fixture(scope="session")
def identity_machine() -> MachineSpec:
    return MachineSpec(DEFAULT_ALPHABET, 0, {".": ".", "#": "#"})


@pytest.fixture(scope="session")
def parity_machine() -> MachineSpec:
    """Radius-2 rule: output black iff the window holds an odd number of
    black cells."""
    rule = {w: ("#" if w.count("#") % 2 else ".") for w in windows(DEFAULT_ALPHABET, 5)}
    return MachineSpec(DEFAULT_ALPHABET, 2, rule)


def max_machine(radius: int) -> MachineSpec:
    """A rule over three symbols: each cell becomes the maximum of its
    window in alphabet order."""
    alpha = Alphabet(("a", "b", "c"))
    order = {s: i for i, s in enumerate(alpha.symbols)}
    rule = {w: max(w, key=order.__getitem__) for w in windows(alpha, 2 * radius + 1)}
    return MachineSpec(alpha, radius, rule)


@pytest.fixture(scope="session")
def ternary_machine() -> MachineSpec:
    """The radius-1 maximum rule over three symbols."""
    return max_machine(1)


@pytest.fixture(scope="session")
def dense():
    return canonical_dense_subcategory(DEFAULT_ALPHABET)


@pytest.fixture(scope="session")
def spread_shape(spread):
    return shape_category(spread)
