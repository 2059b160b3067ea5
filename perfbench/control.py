"""Speed control for the timed runs: a frozen tapecat, sampled during the ops.

The benchmark runs on shared virtual machines whose CPU throughput drifts by
20-40% over seconds to minutes with the load of other tenants; process CPU
time drifts with it.  So every timed run also measures the machine's speed
with a *control*: a small CLI command of the workload's own kind, run by
``tapecat_frozen``, a copy of ``src/tapecat`` frozen at the commit that added
the benchmark (its imports are relative, so it loads under its own name next
to the code under test).  A generic calibration loop tracks tapecat's
slowdowns less closely than tapecat's own code does.

While a workload runs, ``SpeedProbe`` runs the control from a SIGALRM handler
once a period (0.25 to 1 second), with the frozen copy's memos cleared
first, so the control is the same work every time.  The control's own time
is taken out of the op's wall time, and the op is scaled by the median
control time sampled during it and one period either side:

    reported = op wall time * REFERENCE_S / control time nearby

so a number reads as "seconds on this machine at its reference speed".
Set-up is scaled the same way, with fresh interpreters that set up the
frozen copy alternating with those that set up ``src/``.  The unscaled wall
times go into each run's context line.

Never edit ``tapecat_frozen/``, ``CONTROLS`` or ``REFERENCE_S``: every scaled
number ever recorded depends on them.
"""

from __future__ import annotations

import contextlib
import io
import random
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FROZEN = HERE / "tapecat_frozen"
# The control's own machine files, so that it stays the same work even if
# machines/ changes: spread_frozen.machine is a copy of machines/spread.machine.
SPREAD = HERE / "machines" / "spread_frozen.machine"
MAX3_R1 = HERE / "machines" / "max3_r1.machine"

_TAPE = "".join(random.Random(0).choices(".#", k=2_000))

# Per workload: the control's period in seconds and its commands (20-120 ms
# alone, more within an op), exercising the layers that the workload's ops
# spend their time in.
CONTROLS = {
    "run-long": (0.25, [["run", str(SPREAD), _TAPE, "--steps", "1", "--engine", "both"]]),
    "check-laws": (0.5, [["check", str(SPREAD), "--suite", "all", "--max-len", "5",
                          "--functor-len", "3", "--adj-len", "3"]]),
    "equiv-sweep": (0.5, [["check", str(SPREAD), "--suite", "equivalence", "--max-len", "8"]]),
    "shape-compile": (1.0, [["table", str(MAX3_R1), "--all"],
                            ["check", str(MAX3_R1), "--suite", "category"]]),
}

# (set-up, control) seconds at reference speed: the medians measured on a
# 2-vCPU Xeon virtual machine under Python 3.11 when the benchmark was added,
# rounded.  They fix the scale of the reported numbers and nothing else.
REFERENCE_S = {
    "run-long": (0.1, 0.028),
    "check-laws": (0.085, 0.06),
    "equiv-sweep": (0.09, 0.046),
    "shape-compile": (1.55, 0.12),
}


def clear_memos(package: str) -> None:
    """Empty every functools cache held at module level in package."""
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class SpeedProbe:
    """Times the workload's control once a period while started."""

    def __init__(self, workload: str) -> None:
        import tapecat_frozen.cli
        if not Path(tapecat_frozen.cli.__file__).resolve().is_relative_to(FROZEN):
            raise SystemExit(f"tapecat_frozen was imported from {tapecat_frozen.cli.__file__}")
        self.main = tapecat_frozen.cli.main
        self.period, self.commands = CONTROLS[workload]
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0  # total seconds spent in the control

    def sample(self, *_signal_args) -> None:
        clear_memos("tapecat_frozen")
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in self.commands:
                try:
                    self.main(argv, standalone_mode=False)
                except SystemExit as exc:
                    if exc.code:
                        raise RuntimeError(f"control {argv[:2]} exited {exc.code}") from exc
        seconds = time.perf_counter() - started
        self.samples.append((started, seconds))
        self.spent += seconds

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def control_time(self, start: float, end: float) -> float:
        """The control's median time near [start, end], or the nearest sample
        if the signal was held up past that."""
        near = [s for t, s in self.samples
                if start - self.period <= t <= end + self.period]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.median(near)
