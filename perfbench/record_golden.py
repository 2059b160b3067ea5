"""Record the golden outputs that reference.py checks the verdict workloads
against, by running their commands through the CLI at the current commit.

    python3 perfbench/record_golden.py

The committed goldens were recorded at the commit that added this benchmark.
Re-record only when a change alters the CLI's stdout on purpose; a change
that claims to keep outputs the same must pass against the old goldens.
"""

from __future__ import annotations

import json
import sys

import reference
import run


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    from tapecat.cli import main as cli_main

    for workload in run.WORKLOADS.values():
        if workload.name == "run-long":
            continue  # checked against reference.update, not a golden
        for command in workload.make_op(0, None, []):
            run.clear_memos("tapecat")
            code, out = run.invoke(cli_main, command.argv)
            if code != 0:
                raise SystemExit(f"{' '.join(command.argv)} exited {code}")
            if len(out) > 64 * 1024:
                (reference.GOLDEN / f"{command.golden}.json").write_text(
                    json.dumps(reference.digest(out), indent=1) + "\n")
            else:
                (reference.GOLDEN / f"{command.golden}.stdout").write_text(out)


if __name__ == "__main__":
    main()
