"""End-to-end benchmark of the tapecat CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each run is one fresh, single-threaded Python process.  It first measures
set-up (``setup_s``): import, ``parse_machine`` and ``shape_category`` for the
workload's machines, each sample in a fresh interpreter (``setup_probe.py``),
median of several.  It then drives the real CLI entry point in-process
(``tapecat.cli.main`` with ``standalone_mode=False``), one op after another
(a closed loop with one client), until the next op would end after
``--seconds``; at least one op always runs.  Every op's exit code and stdout
are checked against a reference that does not use tapecat (see
``reference.py``); an op with a wrong exit code or output counts as failed,
and the process then exits nonzero after printing its result.

With ``--trace 0`` no wrappers are installed and the result holds the
end-to-end metrics.  Their times are scaled to a reference machine speed
by a control sampled during the ops (``control.py``), because the shared
hosts this runs on drift by 20-40% in speed; the unscaled wall times are in
the context line.  With ``--trace 1`` the ops alternate: one op without
wrappers, then one op with timing wrappers at every module boundary
(``tracer.py``); the result holds the per-layer metrics, averaged per traced
op, and ``trace.overhead_ratio`` (median traced op time over median untraced
op time).  The last line of stdout is the result as one JSON object; the
line before it records the run's context (Python version, CPUs, load
average at start and end, seed, tape length, sample counts).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference
from control import REFERENCE_S, SpeedProbe, clear_memos

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPREAD = ROOT / "machines" / "spread.machine"
PARITY = HERE / "machines" / "parity_r2.machine"
MAX3 = HERE / "machines" / "max3_r2.machine"
OUT = HERE / "out"

TAPE_LEN = 20_000
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 7
SETUP_BUDGET_S = 3.0


@dataclass
class Command:
    """One CLI invocation and the check its exit code and stdout must pass."""

    argv: list[str]
    ok: Callable[[object, str], bool]
    golden: str | None = None  # name of the golden output it is checked against


@dataclass
class Workload:
    name: str
    why: str
    machines: tuple[Path, ...]
    make_op: Callable[[int, random.Random, list[str]], list[Command]]
    # Clear tapecat's memos before each op, so that every op starts cold like
    # a CLI invocation.  run-long keeps them: its memo growth is measured.
    cold_memos: bool = True
    # peak_rss_mb is read after this many ops (or after the last, if fewer),
    # so that it does not grow with the number of ops a run fits in: one op
    # is one CLI invocation; run-long measures its memo's growth over 32.
    rss_after_ops: int = 1


def _golden(name: str) -> Callable[[object, str], bool]:
    return lambda code, out: code == 0 and reference.golden_matches(name, out)


def _run_long_op(index: int, rng: random.Random, extra: list[str]) -> list[Command]:
    machine = (SPREAD, PARITY)[index % 2]
    cells = "".join(rng.choices(".#", k=TAPE_LEN))
    want = reference.run_stdout(machine, cells)
    argv = ["run", str(machine), cells, "--steps", "1", "--engine", "both", *extra]
    return [Command(argv, lambda code, out: code == 0 and out == want)]


def _fixed_op(*commands: tuple[list[str], str]):
    def make(index: int, rng: random.Random, extra: list[str]) -> list[Command]:
        return [Command(argv, _golden(golden), golden) for argv, golden in commands]
    return make


# Shares below are medians of three traced runs (perfbench/baseline.json) on a
# 2-vCPU Xeon virtual machine under Python 3.11, at the commit that added
# this benchmark.
WORKLOADS = {w.name: w for w in (
    # About 91% of an op is kan.evaluate on one large diagram (about 40k
    # nodes): glue_cells about 60% of that, diagram building the rest; apply
    # is about 3%.  No input repeats, so apply's memo lookups all miss and
    # the memo keeps growing: the streaming-engine and memory workload.
    Workload(
        "run-long",
        "one run --engine both per op on a fresh 2e4-cell random tape; kan "
        "and glue_cells on one ~40k-node diagram; apply's memo lookups miss",
        (SPREAD, PARITY), _run_long_op, cold_memos=False, rss_after_ops=32),
    # machine.universality_check takes about 53% (3.35M update-memo hits
    # against 2,047 misses) and density (canonical_diagram, tape.hom) about
    # 38%; kan about 2%.  Bounding or removing the memo would cost here.
    Workload(
        "check-laws",
        "check spread --suite all at default bounds; universality sweep and "
        "density dominate, memo hit-heavy",
        (SPREAD,),
        _fixed_op((["check", str(SPREAD), "--suite", "all"], "check-laws"))),
    # 32,767 inputs: evaluate takes about 87% (glue_cells about 55% of
    # that) and apply about 8%, over tens of thousands of tiny diagrams, so
    # per-call overhead dominates; a trie-ordered sweep would show here.
    Workload(
        "equiv-sweep",
        "check spread --suite equivalence --max-len 14; 32,767 tiny "
        "diagrams, per-call overhead of evaluate and glue_cells",
        (SPREAD,),
        _fixed_op((["check", str(SPREAD), "--suite", "equivalence", "--max-len", "14"],
                   "equiv-sweep"))),
    # 973 objects, 3,403 morphisms, 7,291 composites: shape_category (about
    # 44%), validate_category (46%) and ShapeCategory.presentation (10%) take
    # nearly all the time; for spread they take milliseconds, so the other
    # workloads leave them unmeasured.
    Workload(
        "shape-compile",
        "table --all then check --suite category on a 3-symbol radius-2 max "
        "rule; shape category, presentation and validation dominate",
        (MAX3,),
        _fixed_op((["table", str(MAX3), "--all"], "shape-compile-table"),
                  (["check", str(MAX3), "--suite", "category"], "shape-compile-check"))),
)}


def invoke(cli_main, argv: list[str]) -> tuple[object, str]:
    """Run the CLI in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_main(argv, standalone_mode=False)
            code: object = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def time_setup(package: str, workload: Workload) -> float:
    """Seconds of one set-up of package (tapecat or tapecat_frozen) in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), package, *map(str, workload.machines)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def measure_setup(workload: Workload) -> list[tuple[float, float]]:
    """(set-up seconds, control set-up seconds) pairs, each set-up in a fresh
    interpreter: at least SETUP_MIN_SAMPLES, more while the budget lasts."""
    samples: list[tuple[float, float]] = []
    started = time.perf_counter()
    while len(samples) < SETUP_MIN_SAMPLES or (
            len(samples) < SETUP_MAX_SAMPLES
            and time.perf_counter() - started < SETUP_BUDGET_S):
        samples.append((time_setup("tapecat", workload), time_setup("tapecat_frozen", workload)))
    return samples


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Runner:
    def __init__(self, workload: Workload, seed: int, extra_args: list[str]) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.extra_args = extra_args
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.controls: list[float] = []  # the control's time near each op
        import tapecat.cli
        if not Path(tapecat.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"tapecat was imported from {tapecat.cli.__file__}, not {SRC}")
        self.main = tapecat.cli.main

    def op(self, index: int, tracer=None, probe: SpeedProbe | None = None) -> float:
        """Run one op; return its wall time, less the time the probe's
        control took during it.  Failures are counted."""
        commands = self.workload.make_op(index, self.rng, self.extra_args)
        if self.workload.cold_memos:
            clear_memos("tapecat")
        gc.collect()
        spent = probe.spent if probe else 0.0
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            results = []
            started = time.perf_counter()
            for command in commands:
                with tracer.command_span() if tracer else contextlib.nullcontext():
                    results.append(invoke(self.main, command.argv))
            ended = time.perf_counter()
        elapsed = ended - started - ((probe.spent - spent) if probe else 0.0)
        if probe is not None:
            self.controls.append(probe.control_time(started, ended))
        self.attempted += 1
        bad = [f"{c.argv[0]} exit={code}"
               for c, (code, out) in zip(commands, results) if not c.ok(code, out)]
        if bad:
            self.failed += 1
            self.failures.append(f"op {index}: {', '.join(bad)}")
        return elapsed


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 extra_args: list[str]) -> tuple[dict, dict]:
    load_start = os.getloadavg()
    setup = measure_setup(workload)
    sys.path.insert(0, str(SRC))
    runner = Runner(workload, seed, extra_args)
    tracer = probe = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    else:
        probe = SpeedProbe(workload.name)
    plain: list[float] = []
    traced: list[float] = []
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    index = 0
    if probe is not None:
        probe.start()
    try:
        while True:
            step_start = time.perf_counter()
            if tracer is not None and index % 2:
                traced.append(runner.op(index, tracer))  # alternate which goes first
            plain.append(runner.op(index, probe=probe))
            if len(plain) == workload.rss_after_ops:
                peak_rss_mb = max_rss_mb()
            if tracer is not None and not index % 2:
                traced.append(runner.op(index, tracer))
            index += 1
            now = time.perf_counter()
            if now + (now - step_start) > deadline:
                break
    finally:
        if probe is not None:
            probe.stop()
    load_end = os.getloadavg()

    raw = {}
    if tracer is None:
        setup_ref, control_ref = REFERENCE_S[workload.name]
        setup_scaled = [s * setup_ref / c for s, c in setup]
        scaled = [t * control_ref / c for t, c in zip(plain, runner.controls)]
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "work_s": (statistics.fmean(scaled), "s"),
            "run_ms_p50": (percentile(scaled, 50) * 1000, "ms"),
            "run_ms_p90": (percentile(scaled, 90) * 1000, "ms"),
            "peak_rss_mb": (max_rss_mb() if peak_rss_mb is None else peak_rss_mb, "MB"),
        }
        raw = {
            "raw_setup_s": statistics.median(s for s, _ in setup),
            "raw_work_s": statistics.fmean(plain),
            "raw_run_ms_p50": percentile(plain, 50) * 1000,
            "raw_run_ms_p90": percentile(plain, 90) * 1000,
            "control_setup_s": statistics.median(c for _, c in setup),
            "control_s_median": statistics.median(s for _, s in probe.samples),
            "control_s_min_max": [f(s for _, s in probe.samples) for f in (min, max)],
            "control_samples": len(probe.samples),
            "control_share": probe.spent / (time.perf_counter() - probe.samples[0][0]),
        }
        correct = True
    else:
        metrics, problems = tracer.summary(
            len(traced), statistics.median(traced) / statistics.median(plain))
        runner.failures += problems
        correct = not problems
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}.tsv.gz")

    context = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": load_end,
        "tape_len": TAPE_LEN if workload.name == "run-long" else None,
        "setup_samples": len(setup), "op_samples": len(plain),
        "rss_after_ops": min(workload.rss_after_ops, len(plain)),
        "traced_op_samples": len(traced), **raw, "failures": runner.failures[:5],
    }
    result = {
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return context, result


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
              f"ops={context['op_samples']} setup_samples={context['setup_samples']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<34} {m['value']:14.6g} {m['unit']}")
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mutate", choices=("drop-shape-object",), default=None,
                        help="pass the CLI's hidden fault flag to run-long ops; "
                             "every op must then fail (see selfcheck.py)")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    extra = []
    if args.mutate:
        if args.workload != "run-long":
            parser.error("--mutate applies to run-long only")
        extra = ["--mutate", args.mutate]
    context, result = run_workload(WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), extra)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
