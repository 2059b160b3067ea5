"""Time one cold set-up: import PACKAGE's CLI, then parse_machine and
shape_category for each machine file given.  Prints the seconds taken.

    python3 perfbench/setup_probe.py PACKAGE MACHINE_FILE...

PACKAGE is ``tapecat``, the code under test in ``src/``, or
``tapecat_frozen``, the frozen copy that the speed control runs
(``control.py``).
"""

import time

started = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
PACKAGE = sys.argv[1]
HOME = {"tapecat": HERE.parent / "src", "tapecat_frozen": HERE}[PACKAGE]
sys.path.insert(0, str(HOME))

cli = importlib.import_module(f"{PACKAGE}.cli")
machine = importlib.import_module(f"{PACKAGE}.machine")

if not Path(cli.__file__).resolve().is_relative_to(HOME / PACKAGE):
    sys.exit(f"{PACKAGE} was imported from {cli.__file__}, not from {HOME}")

for path in sys.argv[2:]:
    machine.shape_category(machine.parse_machine(Path(path).read_text()))
print(time.perf_counter() - started)
