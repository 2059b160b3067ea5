"""Write the machine files the benchmark adds to the ones in machines/.

Both rules are the ones defined in tests/conftest.py, restated here so the
benchmark does not import the test suite:

- parity_r2.machine: radius-2 rule over {., #}; a cell goes black iff its
  window holds an odd number of black cells (the ``parity_machine`` fixture).
- max3_r2.machine: the ``ternary_machine`` fixture's rule (each cell becomes
  the maximum of its window in alphabet order) over {a, b, c}, at radius 2
  instead of 1.
- max3_r1.machine: the same rule at the fixture's own radius 1; only the
  speed control of shape-compile (``control.py``) uses it.

The files use the layout of ``tapecat.machine.format_machine``: windows in
sorted order.  Run ``python3 perfbench/make_machines.py`` to regenerate them.
"""

from __future__ import annotations

import itertools
from pathlib import Path

HERE = Path(__file__).resolve().parent


def machine_text(symbols: str, radius: int, rule) -> str:
    windows = sorted("".join(w) for w in itertools.product(symbols, repeat=2 * radius + 1))
    lines = [f"alphabet: {' '.join(symbols)}", f"radius: {radius}", "rule:"]
    lines += [f"  {w} -> {rule(w)}" for w in windows]
    return "\n".join(lines) + "\n"


def main() -> None:
    parity = machine_text(".#", 2, lambda w: "#" if w.count("#") % 2 else ".")
    max3 = machine_text("abc", 2, lambda w: max(w, key="abc".index))
    (HERE / "machines" / "parity_r2.machine").write_text(parity)
    (HERE / "machines" / "max3_r2.machine").write_text(max3)
    (HERE / "machines" / "max3_r1.machine").write_text(
        machine_text("abc", 1, lambda w: max(w, key="abc".index)))


if __name__ == "__main__":
    main()
