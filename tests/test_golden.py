"""`check --suite all` against recorded stdout and exit codes.

Each case runs in process on a machine file, honest, with a dropped shape
object, and with a shifted window at --adj-len 2r + 2, the shortest bound
that reaches the shift.  The recorded files are the net under any rewrite
of a law row: a row may change how it decides, not what `check` prints.
Regenerate them, from the code whose output they are to pin, with

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from tapecat.cli import main
from tapecat.machine import parse_machine

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MACHINE_FILES = [ROOT / "machines" / f"{name}.machine" for name in ("spread", "identity")] + [
    ROOT / "perfbench" / "machines" / f"{name}.machine"
    for name in ("parity_r2", "max3_r1", "max3_r2")]
FAULTS = ("none", "drop-shape-object", "shift-window")


def _cases() -> list[tuple[str, list[str]]]:
    """(name, check arguments) per machine file and fault."""
    cases = []
    for path in MACHINE_FILES:
        reach = str(2 * parse_machine(path.read_text()).radius + 2)
        for fault in FAULTS:
            bound = ["--adj-len", reach] if fault == "shift-window" else []
            cases.append((f"{path.stem}-{fault}",
                          ["check", str(path), "--suite", "all", *bound, "--mutate", fault]))
    return cases


CASES = _cases()


def _run(args: list[str]) -> tuple[int, str]:
    result = CliRunner().invoke(main, args)
    return result.exit_code, result.stdout


@pytest.mark.parametrize("name, args", CASES, ids=[name for name, _ in CASES])
def test_check_matches_the_recorded_stdout(name, args):
    exit_codes = json.loads((GOLDEN / "exit-codes.json").read_text())
    assert _run(args) == (exit_codes[name], (GOLDEN / f"{name}.stdout").read_text())


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    exit_codes = {}
    for name, args in CASES:
        exit_codes[name], stdout = _run(args)
        (GOLDEN / f"{name}.stdout").write_text(stdout)
    (GOLDEN / "exit-codes.json").write_text(json.dumps(exit_codes, indent=1) + "\n")


if __name__ == "__main__":
    record()
