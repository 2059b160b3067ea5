"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import tapecat
from tapecat.cli import main
from tapecat.fincat import FinCatPresentation, canonical_generators, validate_category
from tapecat.machine import MachineSpec, apply, format_machine, parse_machine
from tapecat.tape import Alphabet, TapeString, windows

from .support import per_string_density

MACHINES = Path(__file__).resolve().parent.parent / "machines"
SPREAD = str(MACHINES / "spread.machine")
IDENTITY = str(MACHINES / "identity.machine")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# Two traced steps of spread from "#...#.": the diagram evaluate glued at
# each step, node by node and edge by edge, then the value and its legs.
TRACE_SPREAD = """\
#...#.
#.##
  input: #...#.
  nodes: 8
    n0: (|) placed (empty) @ 0 in #...#.
    n1: (.|...) placed ... @ 1 in #...#.
    n2: (#|#..) placed #.. @ 0 in #...#.
    n3: (#|.#.) placed .#. @ 3 in #...#.
    n4: (#|..#) placed ..# @ 2 in #...#.
    n5: (.#|...#) placed ...# @ 1 in #...#.
    n6: (#.|#...) placed #... @ 0 in #...#.
    n7: (##|..#.) placed ..#. @ 2 in #...#.
  edges: 10
    n0 -> n1 via (|)>(.|...)@0 carrying ((empty) @ 0 in .)
    n0 -> n2 via (|)>(#|#..)@0 carrying ((empty) @ 0 in #)
    n0 -> n3 via (|)>(#|.#.)@0 carrying ((empty) @ 0 in #)
    n0 -> n4 via (|)>(#|..#)@0 carrying ((empty) @ 0 in #)
    n1 -> n5 via (.|...)>(.#|...#)@0 carrying (. @ 0 in .#)
    n1 -> n6 via (.|...)>(#.|#...)@1 carrying (. @ 1 in #.)
    n2 -> n6 via (#|#..)>(#.|#...)@0 carrying (# @ 0 in #.)
    n3 -> n7 via (#|.#.)>(##|..#.)@1 carrying (# @ 1 in ##)
    n4 -> n5 via (#|..#)>(.#|...#)@1 carrying (# @ 1 in .#)
    n4 -> n7 via (#|..#)>(##|..#.)@0 carrying (# @ 0 in ##)
  value: #.##
    leg n0: (empty) @ 0 in #.##
    leg n1: . @ 1 in #.##
    leg n2: # @ 0 in #.##
    leg n3: # @ 3 in #.##
    leg n4: # @ 2 in #.##
    leg n5: .# @ 1 in #.##
    leg n6: #. @ 0 in #.##
    leg n7: ## @ 2 in #.##
##
  input: #.##
  nodes: 4
    n0: (|) placed (empty) @ 0 in #.##
    n1: (#|#.#) placed #.# @ 0 in #.##
    n2: (#|.##) placed .## @ 1 in #.##
    n3: (##|#.##) placed #.## @ 0 in #.##
  edges: 4
    n0 -> n1 via (|)>(#|#.#)@0 carrying ((empty) @ 0 in #)
    n0 -> n2 via (|)>(#|.##)@0 carrying ((empty) @ 0 in #)
    n1 -> n3 via (#|#.#)>(##|#.##)@0 carrying (# @ 0 in ##)
    n2 -> n3 via (#|.##)>(##|#.##)@1 carrying (# @ 1 in ##)
  value: ##
    leg n0: (empty) @ 0 in ##
    leg n1: # @ 0 in ##
    leg n2: # @ 1 in ##
    leg n3: ## @ 0 in ##
"""


@pytest.fixture
def runner():
    return CliRunner()


def _src_env() -> dict[str, str]:
    """The environment for a subprocess that imports this tapecat."""
    src = str(Path(tapecat.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestRun:
    def test_single_step_both_engines(self, runner):
        result = runner.invoke(main, ["run", SPREAD, "#...#.", "--steps", "1"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["#...#.", "#.##"]

    def test_both_engines_agree_past_a_full_memo(self, tmp_path):
        # the radius-3 maximum rule fills kan's step memo within 5,000 cells
        # of this tape, so the categorical engine goes on from its last state
        alpha = Alphabet(("a", "b", "c"))
        spec = MachineSpec(alpha, 3, {w: max(w) for w in windows(alpha, 7)})
        machine = tmp_path / "max3_r3.machine"
        machine.write_text(format_machine(spec))
        x = "".join(random.Random(1).choices(alpha.symbols, k=6000))
        result = subprocess.run([sys.executable, "-m", "tapecat.cli", "run", str(machine), x,
                                 "--engine", "both"],
                                capture_output=True, text=True, timeout=30, env=_src_env())
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines() == [x, apply(spec, TapeString(alpha, x)).cells]

    def test_zero_steps_prints_input_only(self, runner):
        result = runner.invoke(main, ["run", SPREAD, "#...#.", "--steps", "0"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["#...#."]

    def test_runs_to_empty(self, runner):
        result = runner.invoke(main, ["run", SPREAD, "#.#", "--steps", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["#.#", "#", "(empty)"]

    def test_corrupted_shape_exits_3(self, runner):
        result = runner.invoke(main, ["run", SPREAD, "#...#.", "--steps", "1",
                                      "--mutate", "drop-shape-object"])
        assert result.exit_code == 3

    def test_wrong_value_exits_3(self, runner):
        # dropping (.|...) leaves the window ... without its one cell, and
        # the rest glues to the empty string
        result = runner.invoke(main, ["run", SPREAD, "...", "--mutate", "drop-shape-object"])
        assert result.exit_code == 3
        assert result.stdout == "...\n"
        assert result.stderr == "engine mismatch at ...: rule gives ., gluing gives (empty)\n"

    @pytest.mark.parametrize("mutate,engine", [
        ("drop-shape-object", "oracle"), ("shift-window", "oracle"),
        ("shift-window", "categorical"), ("shift-window", "both"),
    ])
    def test_fault_that_cannot_act_is_refused(self, runner, mutate, engine):
        result = runner.invoke(main, ["run", SPREAD, "#...#.", "--engine", engine,
                                      "--mutate", mutate])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: --mutate {mutate} has no effect with --engine {engine}\n"

    def test_glue_failure_names_input_cells(self, runner):
        # dropping (.|...) leaves cell 1 of the update without a generator:
        # the components start in the windows on [0, 3) and on [1, 5)
        result = runner.invoke(main, ["run", SPREAD, "#...#.##",
                                      "--mutate", "drop-shape-object"])
        assert result.exit_code == 3
        assert result.stdout == "#...#.##\n"
        assert result.stderr.splitlines() == [
            "engine mismatch at #...#.##: categorical engine failed: "
            "quotient splits into 2 components",
            "  its nodes place windows on input cells [0, 3), [1, 5)",
        ]

    def test_parse_error_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.machine"
        bad.write_text("alphabet: . #\nradius: 1\nrule:\n  ### -> #\n")
        result = runner.invoke(main, ["run", str(bad), "#"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("config, message", [
        ("alphabet: . #\nradius: -1\nrule:\n  . -> .\n", "line 2: radius must be >= 0"),
        ("alphabet: . #\nradius: 0\n", "missing 'rule:' table"),
        ("alphabet: . #\nradius: 0\nrule:\n  . -> .\n  # -> #\n  x -> #\n",
         "machine: 1 violation(s)\n  bad-symbol: window 'x' uses symbols outside the alphabet"),
    ], ids=["negative-radius", "no-rule-table", "foreign-window"])
    def test_config_error_is_named_and_exits_1(self, runner, tmp_path, config, message):
        bad = tmp_path / "bad.machine"
        bad.write_text(config)
        result = runner.invoke(main, ["run", str(bad), "#"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("args", [["table", "--all"], ["run", "#"], ["check"]])
    def test_file_not_utf8_exits_1(self, tmp_path, args):
        bad = tmp_path / "latin1.machine"
        bad.write_bytes(b"alphabet: . #\nradius: 0\nrule:\n  . -> .\n  # -> \xff\n")
        command, *rest = args
        result = subprocess.run([sys.executable, "-m", "tapecat.cli", command, str(bad), *rest],
                                capture_output=True, text=True, timeout=30, env=_src_env())
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: cannot read {bad}: ")
        assert "Traceback" not in result.stderr

    def test_huge_window_space_fails_fast(self, tmp_path):
        # 2**61 and 2**20001 windows: totality must be decided without
        # enumerating them, and reported without spelling out their count
        bad = tmp_path / "huge.machine"
        for radius in (30, 10000):
            bad.write_text(f"alphabet: . #\nradius: {radius}\nrule:\n  . -> #\n")
            result = subprocess.run([sys.executable, "-m", "tapecat.cli", "run", str(bad), "#"],
                                    capture_output=True, text=True, timeout=10, env=_src_env())
            assert result.returncode == 1
            assert "missing-window" in result.stderr
            assert "Traceback" not in result.stderr

    def test_bad_input_symbols_exit_2(self, runner):
        result = runner.invoke(main, ["run", SPREAD, "abc"])
        assert result.exit_code == 2

    def test_trace_output(self, runner):
        result = runner.invoke(main, ["run", SPREAD, "#.#", "--steps", "1", "--trace"])
        assert result.exit_code == 0
        assert "value: #" in result.output

    def test_trace_output_is_pinned(self, runner):
        result = runner.invoke(main, ["run", SPREAD, "#...#.", "--steps", "2", "--trace"])
        assert result.exit_code == 0
        assert result.output == TRACE_SPREAD

    def test_trace_without_the_categorical_engine_is_refused(self, runner):
        result = runner.invoke(main, ["run", SPREAD, "#...#.", "--engine", "oracle", "--trace"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: --trace has no effect with --engine oracle\n"

    def test_byte_identical_across_runs(self, runner):
        args = ["run", SPREAD, "#...#.", "--steps", "3", "--trace"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


class TestTable:
    def test_single_generator(self, runner):
        result = runner.invoke(main, ["table", SPREAD, "--generator", "#"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["###", "##.", "#.#", "#..", ".##", ".#.", "..#"]

    def test_empty_generator(self, runner):
        result = runner.invoke(main, ["table", SPREAD, "--generator", "(empty)"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["(empty)"]

    def test_dump_all_round_trips(self, runner):
        result = runner.invoke(main, ["table", SPREAD, "--all"])
        assert result.exit_code == 0
        reloaded = FinCatPresentation.loads(result.output)
        assert validate_category(reloaded).ok
        assert reloaded.dumps() == result.output

    def test_shape_compile_matches_the_benchmark_goldens(self, runner):
        # the benchmark's shape-compile workload checks these two outputs of
        # a 3-symbol radius-2 machine against its goldens, read only here
        machine = str(PERFBENCH / "machines" / "max3_r2.machine")
        golden = PERFBENCH / "golden"
        dump = runner.invoke(main, ["table", machine, "--all"])
        assert dump.exit_code == 0
        assert {"sha256": hashlib.sha256(dump.stdout.encode()).hexdigest(),
                "lines": dump.stdout.count("\n")} == \
            json.loads((golden / "shape-compile-table.json").read_text())
        check = runner.invoke(main, ["check", machine, "--suite", "category"])
        assert check.exit_code == 0
        assert check.stdout == (golden / "shape-compile-check.stdout").read_text()

    def test_requires_an_option(self, runner):
        result = runner.invoke(main, ["table", SPREAD])
        assert result.exit_code == 2

    def test_generator_with_all_is_refused(self, runner):
        result = runner.invoke(main, ["table", SPREAD, "--generator", "#", "--all"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: --generator has no effect with --all\n"

    def test_radius_3_ternary_compiles_fast(self, tmp_path):
        # 30,619 morphisms: no all-pairs search over objects or morphisms
        alpha = Alphabet(("a", "b", "c"))
        rule = {w: max(w) for w in windows(alpha, 7)}
        machine = tmp_path / "max3_r3.machine"
        machine.write_text(format_machine(MachineSpec(alpha, 3, rule)))
        result = subprocess.run([sys.executable, "-m", "tapecat.cli", "table", str(machine), "--all"],
                                capture_output=True, text=True, timeout=30, env=_src_env())
        assert result.returncode == 0
        kinds = Counter(line.split(" ", 1)[0] for line in result.stdout.splitlines())
        assert kinds["object"] == 1 + 3 ** 7 + 3 ** 8
        assert kinds["morphism"] == 30619


class TestExplain:
    def test_range(self, runner):
        result = runner.invoke(main, ["explain", SPREAD, "#...#.", "2..4"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "part:   ## @ 2 in #.##",
            "window: ..#. @ 2 in #...#.",
            "unit:   ## @ 0 in ##",
        ]

    def test_single_cell(self, runner):
        result = runner.invoke(main, ["explain", SPREAD, "#...#.", "0"])
        assert "window: #.. @ 0 in #...#." in result.output

    def test_identity_machine(self, runner):
        result = runner.invoke(main, ["explain", IDENTITY, "#.#", "1"])
        assert "window: . @ 1 in #.#" in result.output

    def test_out_of_range_exits_2(self, runner):
        result = runner.invoke(main, ["explain", SPREAD, "#...#.", "3..9"])
        assert result.exit_code == 2

    def test_bad_range_syntax_exits_2(self, runner):
        result = runner.invoke(main, ["explain", SPREAD, "#...#.", "x"])
        assert result.exit_code == 2


class TestCheck:
    def test_full_suite_small_bounds(self, runner):
        result = runner.invoke(main, ["check", SPREAD, "--max-len", "6",
                                      "--functor-len", "4", "--adj-len", "4"])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert all(line.startswith("PASS") for line in lines)
        # 3 category + 3 functor + 7 density rows (len 0..6) + adjunction + equivalence
        assert len(lines) == 15
        assert result.stderr.startswith("elapsed=")  # timing stays off stdout

    def test_equivalence_detail(self, runner):
        result = runner.invoke(main, ["check", SPREAD, "--suite", "equivalence",
                                      "--max-len", "10"])
        assert result.exit_code == 0
        assert result.stdout == \
            "PASS equivalence max_len=10: inputs=2047 mismatches=0 max_len=10\n"

    def test_single_suite_density_zero(self, runner):
        result = runner.invoke(main, ["check", SPREAD, "--suite", "density",
                                      "--max-len", "0"])
        assert result.exit_code == 0
        assert "inputs=1" in result.output

    def test_density_failure_row_exits_2(self, runner, monkeypatch):
        # without the 2-cell generators, two cells glue from nothing between them
        def cells_only(alphabet):
            return canonical_generators(alphabet)[:3]

        monkeypatch.setattr(tapecat.cli, "canonical_generators", cells_only)
        result = runner.invoke(main, ["check", SPREAD, "--suite", "density", "--max-len", "3"])
        assert result.exit_code == 2
        assert [line for line in result.stdout.splitlines() if line.startswith("FAIL")][0] == (
            "FAIL density len=2: ..: glue failed: quotient splits into 2 components "
            "[nodes: .@0, .@1]")

    def test_three_symbol_density_rows(self, runner):
        # the only three-symbol machine file; the rows against density_check
        # run string by string
        machine = PERFBENCH / "machines" / "max3_r1.machine"
        result = runner.invoke(main, ["check", str(machine), "--suite", "density",
                                      "--max-len", "6"])
        alphabet = parse_machine(machine.read_text()).alphabet
        rows = per_string_density(alphabet, canonical_generators(alphabet), 6)
        assert result.exit_code == 0
        assert result.stdout == "".join(
            f"PASS density len={n}: inputs={count}\n" if failure is None
            else f"FAIL density len={n}: {failure}\n"
            for n, (count, failure) in enumerate(rows))

    def test_identity_machine_all(self, runner):
        result = runner.invoke(main, ["check", IDENTITY, "--max-len", "5",
                                      "--functor-len", "4", "--adj-len", "4"])
        assert result.exit_code == 0, result.output

    def test_mutated_adjunction_exits_2(self, runner):
        result = runner.invoke(main, ["check", SPREAD, "--suite", "adjunction",
                                      "--adj-len", "4", "--mutate", "shift-window"])
        assert result.exit_code == 2
        # the first counterexample is printed in full
        assert result.stdout == (
            "FAIL adjunction max_state_len=4: cases=87 first: candidate "
            "g=(... @ 0 in ....) a=(. @ 0 in .) b=(.... @ 0 in ....) has 0 mediators\n")

    def test_dropped_shape_object_fails_adjunction(self, runner):
        # (.|...) is the first one-cell object; the sweep finds it missing
        result = runner.invoke(main, ["check", SPREAD, "--suite", "adjunction",
                                      "--adj-len", "4", "--mutate", "drop-shape-object"])
        assert result.exit_code == 2
        assert result.stdout == (
            "FAIL adjunction max_state_len=4: cases=87 first: part (. @ 0 in .) over ...: "
            "the shape category has no object (.|...)\n")

    def test_dropped_shape_object_fails_functor(self, runner):
        # without (.|...), ... glues to the empty string, not to the rule's
        # update; the shape projections keep the honest shape
        result = runner.invoke(main, ["check", SPREAD, "--suite", "functor",
                                      "--functor-len", "4", "--mutate", "drop-shape-object"])
        assert result.exit_code == 2
        assert result.stdout.splitlines() == [
            "PASS functor inclusion: violations=0",
            "PASS functor shape-projections: violations=0",
            "FAIL functor update max_len=4: cases=986 first: ...: glued (empty), rule gives .",
        ]

    def test_dropped_shape_object_fails_both_rows_of_all(self, runner):
        # the functor update, adjunction and equivalence rows read the faulty shape
        result = runner.invoke(main, ["check", SPREAD, "--max-len", "6", "--functor-len", "4",
                                      "--adj-len", "4", "--mutate", "drop-shape-object"])
        assert result.exit_code == 2
        assert [line for line in result.stdout.splitlines() if line.startswith("FAIL")] == [
            "FAIL functor update max_len=4: cases=986 first: ...: glued (empty), rule gives .",
            "FAIL adjunction max_state_len=4: cases=87 first: part (. @ 0 in .) over ...: "
            "the shape category has no object (.|...)",
            "FAIL equivalence max_len=6: inputs=127 mismatches=17 max_len=6 first: ...: "
            "evaluated (empty), rule gives .",
        ]

    @pytest.mark.parametrize("machine, max_len, row", [
        ("parity_r2", 7, "FAIL equivalence max_len=7: inputs=255 mismatches=5 max_len=7 "
                         "first: ####.: evaluated (empty), rule gives ."),
        ("max3_r1", 5, "FAIL equivalence max_len=5: inputs=364 mismatches=10 max_len=5 "
                       "first: aaa: evaluated (empty), rule gives a")])
    def test_dropped_shape_object_fails_equivalence_on_wider_rules(self, runner, machine,
                                                                   max_len, row):
        result = runner.invoke(main, ["check", str(PERFBENCH / "machines" / f"{machine}.machine"),
                                      "--suite", "equivalence", "--max-len", str(max_len),
                                      "--mutate", "drop-shape-object"])
        assert result.exit_code == 2
        assert result.stdout == row + "\n"

    def test_mutated_equivalence_exits_2(self, runner):
        result = runner.invoke(main, ["check", SPREAD, "--suite", "equivalence",
                                      "--max-len", "6", "--mutate", "drop-shape-object"])
        assert result.exit_code == 2
        assert "FAIL" in result.output

    @pytest.mark.parametrize("mutate,suite", [
        ("shift-window", "category"), ("shift-window", "functor"),
        ("shift-window", "density"), ("shift-window", "equivalence"),
        ("drop-shape-object", "category"), ("drop-shape-object", "density"),
    ])
    def test_fault_that_cannot_act_is_refused(self, runner, mutate, suite):
        result = runner.invoke(main, ["check", SPREAD, "--suite", suite, "--mutate", mutate])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: --mutate {mutate} has no effect with --suite {suite}\n"

    @pytest.mark.parametrize("machine, args, bounds", [
        # spread (r = 1) places the dropped object's window of 3 cells only
        # in strings of 3 cells, and shifts a window only in a state of 4
        ("spread", ["--suite", "equivalence", "--max-len", "2", "--mutate", "drop-shape-object"],
         "--max-len 2"),
        ("spread", ["--suite", "functor", "--functor-len", "2", "--mutate", "drop-shape-object"],
         "--functor-len 2"),
        ("spread", ["--suite", "adjunction", "--adj-len", "2", "--mutate", "drop-shape-object"],
         "--adj-len 2"),
        ("spread", ["--max-len", "2", "--functor-len", "2", "--adj-len", "2",
                    "--mutate", "drop-shape-object"], "--functor-len 2 --adj-len 2 --max-len 2"),
        ("spread", ["--suite", "adjunction", "--adj-len", "3", "--mutate", "shift-window"],
         "--adj-len 3"),
        ("spread", ["--adj-len", "3", "--mutate", "shift-window"], "--adj-len 3"),
        # max3_r2 (r = 2) shifts a window only in a state of 6 cells
        ("max3_r2", ["--suite", "adjunction", "--adj-len", "5", "--mutate", "shift-window"],
         "--adj-len 5"),
    ], ids=["drop-equivalence", "drop-functor", "drop-adjunction", "drop-all",
            "shift-adjunction", "shift-all", "shift-radius-2"])
    def test_fault_out_of_reach_of_the_bounds_is_refused(self, runner, machine, args, bounds):
        # at these bounds the fault never acts, and the suite would pass
        path = SPREAD if machine == "spread" else str(PERFBENCH / "machines" / f"{machine}.machine")
        result = runner.invoke(main, ["check", path, *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        mutate = args[args.index("--mutate") + 1]
        assert result.stderr == f"error: --mutate {mutate} has no effect with {bounds}\n"

    def test_fault_within_reach_of_one_bound_runs(self, runner):
        # one bound that reaches the fault is enough: the adjunction row fails
        result = runner.invoke(main, ["check", SPREAD, "--max-len", "2", "--functor-len", "2",
                                      "--adj-len", "3", "--mutate", "drop-shape-object"])
        assert result.exit_code == 2
        assert [line.split(":")[0] for line in result.stdout.splitlines()
                if line.startswith("FAIL")] == ["FAIL adjunction max_state_len=3"]

    def test_check_laws_matches_the_benchmark_golden(self, runner):
        # the benchmark's check-laws workload checks this output against its
        # golden, read only here
        result = runner.invoke(main, ["check", SPREAD, "--suite", "all"])
        assert result.exit_code == 0
        assert result.stdout == (PERFBENCH / "golden" / "check-laws.stdout").read_text()

    def test_equiv_sweep_matches_the_benchmark_golden(self, runner):
        # the benchmark's equiv-sweep workload checks this output against its
        # golden, read only here
        result = runner.invoke(main, ["check", SPREAD, "--suite", "equivalence",
                                      "--max-len", "14"])
        assert result.exit_code == 0
        assert result.stdout == (PERFBENCH / "golden" / "equiv-sweep.stdout").read_text()

    def test_every_bound_names_its_rows(self, runner):
        result = runner.invoke(main, ["check", "--help"])
        assert result.exit_code == 0
        text = " ".join(result.stdout.split())
        for help_line in ["--max-len INTEGER RANGE State bound for density and equivalence",
                          "--functor-len INTEGER RANGE String bound for the functor update row.",
                          "--adj-len INTEGER RANGE State bound for the adjunction row."]:
            assert help_line in text

    def test_check_output_deterministic(self, runner):
        args = ["check", SPREAD, "--suite", "equivalence", "--max-len", "5"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout
