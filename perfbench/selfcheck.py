"""Checks on the benchmark itself.

    python3 perfbench/selfcheck.py

1. Failure accounting: a short run-long with the CLI's hidden
   ``--mutate drop-shape-object`` fault (every ``run`` then exits 3) must
   report ``failed == attempted`` and exit nonzero; the same run without the
   fault must report ``failed == 0`` and exit 0.
2. Without the program: in a directory holding only BENCHMARK.json and the
   benchmark's own files, the benchmark must exit nonzero and print no result.

Prints one line per check and exits nonzero if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, *extra: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-long", "--seed", "7",
         "--seconds", "2", "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result if isinstance(result, dict) and "metrics" in result else None


def main() -> int:
    checks = []
    code, result = bench(ROOT, "--mutate", "drop-shape-object")
    checks.append(("mutated run-long fails every op",
                   code != 0 and result is not None and result["attempted"] >= 1
                   and result["failed"] == result["attempted"] and not result["correct"],
                   f"exit={code} result={result and {k: result[k] for k in ('attempted', 'failed')}}"))
    code, result = bench(ROOT)
    checks.append(("clean run-long fails no op",
                   code == 0 and result is not None and result["attempted"] >= 1
                   and result["failed"] == 0 and result["correct"],
                   f"exit={code} result={result and {k: result[k] for k in ('attempted', 'failed')}}"))
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, result = bench(bare)
    finally:
        shutil.rmtree(bare)
    checks.append(("without the program the benchmark fails without a result",
                   code != 0 and result is None, f"exit={code}"))
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
