"""Command-line front end: run machines, dump shape tables, trace causal
explanations, and drive the law-checking suites.

Exit codes: 0 success, 1 config parse error, 2 validation or check failure,
3 disagreement between the rule engine and the colimit engine.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import click

from .colimit import GlueError
from .fincat import (FinCatPresentation, FunctorData, canonical_generators, string_inclusion,
                     validate_category, validate_functor)
from .kan import ShapeCategory, density_sweep, evaluate, evaluate_traced
from .machine import (
    MachineConfigError,
    MachineSpec,
    SweepOutcome,
    adjunction_sweep,
    apply,
    equivalence_sweep,
    explain,
    functoriality_sweep,
    parse_machine,
    shape_category,
    shape_table,
)
from .tape import Alphabet, AlphabetMismatch, TapeString

EXIT_PARSE = 1
EXIT_CHECK = 2
EXIT_MISMATCH = 3

SUITES = ("category", "functor", "density", "adjunction", "equivalence", "all")
ENGINES = ("oracle", "categorical", "both")
MUTATIONS = ("none", "shift-window", "drop-shape-object")
#: The suites of `check` and the engines of `run` on which each fault acts.
FAULT_SUITES = {"shift-window": ("adjunction", "all"),
                "drop-shape-object": ("functor", "adjunction", "equivalence", "all")}
FAULT_ENGINES = {"shift-window": (), "drop-shape-object": ("categorical", "both")}


def _load_machine(path: Path) -> MachineSpec:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        click.echo(f"error: cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    try:
        return parse_machine(text)
    except MachineConfigError as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _parse_input(spec: MachineSpec, text: str) -> TapeString:
    cells = "" if text in ("", "(empty)") else text
    try:
        return TapeString(spec.alphabet, cells)
    except AlphabetMismatch as exc:
        click.echo(f"error: input: {exc}", err=True)
        sys.exit(EXIT_CHECK)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            start_s, stop_s = text.split("..", 1)
            return int(start_s), int(stop_s)
        cell = int(text)
        return cell, cell + 1
    except ValueError:
        click.echo(f"error: bad cell range {text!r}; use START..STOP or CELL", err=True)
        sys.exit(EXIT_CHECK)


def _refuse_inert(inert: bool, option: str, other: str) -> None:
    """Refuse an option that cannot act, since the command would ignore it:
    with a seeded fault, it would pass without testing anything."""
    if inert:
        click.echo(f"error: {option} has no effect with {other}", err=True)
        sys.exit(EXIT_CHECK)


def _mutated_shape(shape: ShapeCategory, mutate: str) -> ShapeCategory:
    if mutate == "drop-shape-object":
        victim = next(o for o in shape.objects if o.generator.length == 1)
        shape = shape.without_object(victim.name)
    return shape


@click.group()
def main() -> None:
    """Tape machines evaluated by rule and by categorical gluing."""


@main.command()
@click.argument("machine_file", type=click.Path(exists=True, path_type=Path))
@click.argument("input_string")
@click.option("--steps", default=1, show_default=True, type=click.IntRange(min=0))
@click.option("--engine", default="both", show_default=True,
              type=click.Choice(ENGINES))
@click.option("--trace", is_flag=True, help="Print the evaluation diagram per step.")
@click.option("--mutate", default="none", type=click.Choice(MUTATIONS), hidden=True,
              help="Seed a fault for negative testing.")
def run(machine_file: Path, input_string: str, steps: int, engine: str,
        trace: bool, mutate: str) -> None:
    """Print the trajectory of INPUT_STRING under the machine."""
    _refuse_inert(mutate != "none" and engine not in FAULT_ENGINES[mutate],
                  f"--mutate {mutate}", f"--engine {engine}")
    _refuse_inert(trace and engine == "oracle", "--trace", "--engine oracle")
    spec = _load_machine(machine_file)
    x = _parse_input(spec, input_string)
    shape = None
    if engine in ("categorical", "both"):
        shape = _mutated_shape(shape_category(spec), mutate)
    click.echo(str(x))
    for _ in range(steps):
        oracle_value = apply(spec, x) if engine in ("oracle", "both") else None
        cat_value = None
        if shape is not None:
            try:
                if trace:
                    cat_value, step_trace = evaluate_traced(shape, x)
                else:
                    cat_value = evaluate(shape, x)
            except GlueError as exc:
                click.echo(f"engine mismatch at {x}: categorical engine failed: {exc}",
                           err=True)
                ranges = ", ".join(f"[{start}, {stop})" for start, stop in exc.cells)
                click.echo(f"  its nodes place windows on input cells {ranges}", err=True)
                sys.exit(EXIT_MISMATCH)
        if oracle_value is not None and cat_value is not None and oracle_value != cat_value:
            click.echo(f"engine mismatch at {x}: rule gives {oracle_value}, "
                       f"gluing gives {cat_value}", err=True)
            sys.exit(EXIT_MISMATCH)
        x = oracle_value if oracle_value is not None else cat_value
        click.echo(str(x))
        if trace:
            for line in step_trace.render().splitlines():
                click.echo(f"  {line}")


@main.command()
@click.argument("machine_file", type=click.Path(exists=True, path_type=Path))
@click.option("--generator", "generator_text", default=None,
              help="Dump the explaining windows of one generator.")
@click.option("--all", "dump_all", is_flag=True,
              help="Dump the whole precomputed shape category.")
def table(machine_file: Path, generator_text: str | None, dump_all: bool) -> None:
    """Print shape tables or the full precomputed shape category."""
    _refuse_inert(dump_all and generator_text is not None, "--generator", "--all")
    spec = _load_machine(machine_file)
    if dump_all:
        shape = shape_category(spec)
        click.echo(shape.presentation.dumps(), nl=False)
        return
    if generator_text is None:
        click.echo("error: give --generator or --all", err=True)
        sys.exit(EXIT_CHECK)
    generator = _parse_input(spec, generator_text)
    for window in sorted(shape_table(spec, generator), key=lambda s: s.cells):
        click.echo(str(window))


@main.command("explain")
@click.argument("machine_file", type=click.Path(exists=True, path_type=Path))
@click.argument("input_string")
@click.argument("cell_range")
def explain_cmd(machine_file: Path, input_string: str, cell_range: str) -> None:
    """Print the causal neighbourhood of updated cells START..STOP."""
    spec = _load_machine(machine_file)
    x = _parse_input(spec, input_string)
    start, stop = _parse_range(cell_range)
    try:
        expl = explain(spec, x, start, stop)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CHECK)
    click.echo(str(expl))


def _sweep_row(name: str, sweep: SweepOutcome, detail: str) -> tuple[str, bool, str]:
    """A sweep's row: its detail, then its first failure if it failed."""
    return name, sweep.ok, detail + ("" if sweep.ok else f" first: {sweep.failures[0]}")


def _check_category(shape: ShapeCategory, generators: FinCatPresentation,
                    ) -> list[tuple[str, bool, str]]:
    results = []
    report = validate_category(generators)
    results.append(("category generators", report.ok,
                    f"objects={len(generators.objects)} "
                    f"violations={len(report.violations)}"))
    p_report = validate_category(shape.presentation)
    results.append(("category shapes", p_report.ok,
                    f"objects={len(shape.objects)} violations={len(p_report.violations)}"))
    text = shape.presentation.dumps()
    results.append(("category shape-round-trip",
                    FinCatPresentation.loads(text).dumps() == text, "lossless"))
    return results


def _check_functor(spec: MachineSpec, shape: ShapeCategory, faulty: ShapeCategory,
                   inclusion: FunctorData, max_len: int) -> list[tuple[str, bool, str]]:
    results = []
    inc = validate_functor(inclusion)
    results.append(("functor inclusion", inc.ok, f"violations={len(inc.violations)}"))
    gen = validate_functor(shape.generator_functor(inclusion.source))
    win = validate_functor(shape.window_functor())
    results.append(("functor shape-projections", gen.ok and win.ok,
                    f"violations={len(gen.violations) + len(win.violations)}"))
    sweep = functoriality_sweep(spec, max_len, faulty)
    results.append(_sweep_row(f"functor update max_len={max_len}", sweep, f"cases={sweep.cases}"))
    return results


def _check_density(alphabet: Alphabet, max_len: int) -> list[tuple[str, bool, str]]:
    rows = density_sweep(alphabet, canonical_generators(alphabet), max_len)
    return [(f"density len={n}", failure is None,
             f"inputs={count}" if failure is None else failure)
            for n, (count, failure) in enumerate(rows)]


@main.command()
@click.argument("machine_file", type=click.Path(exists=True, path_type=Path))
@click.option("--suite", default="all", show_default=True, type=click.Choice(SUITES))
@click.option("--max-len", default=10, show_default=True, type=click.IntRange(min=0),
              help="State bound for density and equivalence sweeps.")
@click.option("--functor-len", default=6, show_default=True, type=click.IntRange(min=0),
              help="String bound for the functor update row.")
@click.option("--adj-len", default=8, show_default=True, type=click.IntRange(min=0),
              help="State bound for the adjunction row.")
@click.option("--mutate", default="none", type=click.Choice(MUTATIONS), hidden=True,
              help="Seed a fault; the named suite must then fail.")
def check(machine_file: Path, suite: str, max_len: int, functor_len: int,
          adj_len: int, mutate: str) -> None:
    """Run the law-checking suites; nonzero exit on any violation.  The density
    suite reads no rule: its verdict depends only on the alphabet's generators."""
    _refuse_inert(mutate != "none" and suite not in FAULT_SUITES[mutate],
                  f"--mutate {mutate}", f"--suite {suite}")
    spec = _load_machine(machine_file)
    if mutate != "none":
        # a fault needs 2r + 1 cells (a dropped object's window), or 2r + 2 to shift a window
        reach = spec.window_len + (mutate == "shift-window")
        bounds = {"functor": ("--functor-len", functor_len), "adjunction": ("--adj-len", adj_len),
                  "equivalence": ("--max-len", max_len)}
        acted = [bounds[s] for s in bounds if s in FAULT_SUITES[mutate] and suite in (s, "all")]
        _refuse_inert(all(n < reach for _, n in acted), f"--mutate {mutate}",
                      " ".join(f"{option} {n}" for option, n in acted))
    if suite in ("category", "functor", "all"):
        inclusion = string_inclusion(spec.alphabet, canonical_generators(spec.alphabet))
    started = time.perf_counter()
    results: list[tuple[str, bool, str]] = []
    if suite != "density":
        shape = shape_category(spec)
        faulty = _mutated_shape(shape, mutate)  # for the rows that evaluate or explain
    if suite in ("category", "all"):
        results += _check_category(shape, inclusion.source)
    if suite in ("functor", "all"):
        results += _check_functor(spec, shape, faulty, inclusion, functor_len)
    if suite in ("density", "all"):
        results += _check_density(spec.alphabet, max_len)
    if suite in ("adjunction", "all"):
        sweep = adjunction_sweep(spec, adj_len, mutate=(mutate == "shift-window"), shape=faulty)
        results.append(_sweep_row(f"adjunction max_state_len={adj_len}", sweep,
                                  f"cases={sweep.cases}"))
    if suite in ("equivalence", "all"):
        sweep = equivalence_sweep(spec, max_len, faulty)
        results.append(_sweep_row(f"equivalence max_len={max_len}", sweep, f"inputs={sweep.cases} "
                                  f"mismatches={len(sweep.failures)} max_len={max_len}"))
    failed = False
    for name, ok, detail in results:
        click.echo(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    click.echo(f"elapsed={time.perf_counter() - started:.2f}s", err=True)
    sys.exit(EXIT_CHECK if failed else 0)


if __name__ == "__main__":
    main()
