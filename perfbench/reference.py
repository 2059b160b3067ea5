"""Correctness references that do not rely on the code under test.

Nothing here imports tapecat.  ``run`` output is checked against a direct
rule-table lookup over every window of the input, computed from the machine
file by this module's own parser.  The verdict commands are checked against
golden stdout recorded with ``record_golden.py`` at the commit that added the
benchmark; the large ``table --all`` dump is kept as a sha256 and a line count.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


@lru_cache(maxsize=None)
def read_rule(path: Path) -> tuple[int, dict[str, str]]:
    """(radius, window -> symbol) from a machine file."""
    radius = None
    rule: dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("radius:"):
            radius = int(line.split(":", 1)[1])
        elif "->" in line:
            window, _, out = line.split()
            rule[window] = out
    if radius is None or not rule:
        raise ValueError(f"{path}: no radius or no rule table")
    return radius, rule


def update(path: Path, cells: str) -> str:
    """One update step: the rule applied to every window, ends dropped."""
    radius, rule = read_rule(path)
    w = 2 * radius + 1
    return "".join(rule[cells[i : i + w]] for i in range(len(cells) - w + 1))


def run_stdout(path: Path, cells: str) -> str:
    """Expected stdout of ``tapecat run PATH CELLS --steps 1``."""
    return f"{cells or '(empty)'}\n{update(path, cells) or '(empty)'}\n"


def digest(text: str) -> dict[str, object]:
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "lines": text.count("\n")}


def golden_matches(name: str, stdout: str) -> bool:
    """Compare stdout with golden/NAME.stdout, or with the digest in
    golden/NAME.json when only a digest was recorded."""
    text_file = GOLDEN / f"{name}.stdout"
    if text_file.exists():
        return stdout == text_file.read_text()
    return digest(stdout) == json.loads((GOLDEN / f"{name}.json").read_text())
