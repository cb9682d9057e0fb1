import gc
import os
import subprocess
import sys

import pytest

from speedup_learning.cli import build_parser, main


def test_bound_prints_pinned_values(capsys):
    assert main(["bound", "--epsilon", "0.1", "--delta", "0.1", "--dim", "81"]) == 0
    assert capsys.readouterr().out.strip() == "585"
    assert main(["bound", "--epsilon", "0.1", "--delta", "0.1", "--dim", "35"]) == 0
    assert capsys.readouterr().out.strip() == "266"


def test_curve_writes_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["curve", "--domain", "eightpuzzle", "--trials", "2",
                 "--train-max", "4", "--eval-every", "2",
                 "--test-set-size", "5", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "num_examples,mean_accuracy,stddev"
    assert len(lines) == 3


def test_curve_stdout(capsys):
    code = main(["curve", "--domain", "eightpuzzle", "--trials", "1",
                 "--train-max", "2", "--eval-every", "2", "--test-set-size", "3"])
    assert code == 0
    assert capsys.readouterr().out.startswith("num_examples,mean_accuracy,stddev\n")


def test_table_build(tmp_path, capsys):
    out = tmp_path / "table.txt"
    code = main(["table", "--build-exhaustive", "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "filled cells: 44" in printed
    assert "nonempty macros: 35" in printed
    dump = out.read_text()
    assert len(dump.splitlines()) == 9
    assert "rdlu" in dump


def test_table_without_flag_errors(capsys):
    assert main(["table"]) == 2



@pytest.mark.parametrize("argv", [
    ["bound", "--epsilon", "2", "--delta", "0.1", "--dim", "81"],
    ["curve", "--domain", "integration", "--trials", "0"],
    ["verify", "--all", "--teacher-draws", "-1"],
    ["verify", "--all", "--numeric-checks", "-1"],
    ["verify", "--all", "--search-instances", "-1"],
])
def test_rejected_argument_is_a_usage_error(argv, capsys, monkeypatch):
    from speedup_learning import eight_puzzle

    def unreachable():
        raise AssertionError("a bad argument must be rejected before the boards are built")

    monkeypatch.setattr(eight_puzzle, "all_solvable_boards", unreachable)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("speedup-learn: error: "), err


@pytest.mark.parametrize("check, args", [
    ("teacher_soundness", (-5, -3)),
    ("teacher_soundness", (5, -1)),
    ("subgoal_optimality", (-1, 7)),
    ("subgoal_optimality", (2, 0)),
    ("subgoal_optimality", (2, 10)),
])
def test_oracles_reject_bad_counts(check, args):
    import random

    from speedup_learning import oracles
    from speedup_learning.errors import ParameterError

    with pytest.raises(ParameterError):
        getattr(oracles, check)(random.Random(0), *args)


def test_parser_rejects_unknown_domain():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["curve", "--domain", "chess"])


def test_verify_subcommand_wiring():
    args = build_parser().parse_args(["verify", "--all", "--teacher-draws", "10"])
    assert args.teacher_draws == 10 and args.command == "verify"


def _stub_oracles(monkeypatch, failing=None):
    from speedup_learning import eight_puzzle, oracles

    monkeypatch.setattr(eight_puzzle, "all_solvable_boards", lambda: {eight_puzzle.GOAL})
    names = ("sample_bounds", "msg_worked_example", "state_count", "decomposability",
             "exhaustive_table", "subgoal_optimality", "teacher_soundness")
    for name in names:
        ok = name != failing
        monkeypatch.setattr(oracles, name, lambda *a, ok=ok, name=name: (ok, f"stub {name}"))


def test_verify_all_passes_when_every_oracle_passes(monkeypatch, capsys):
    _stub_oracles(monkeypatch)
    assert main(["verify", "--all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all(line.startswith("PASS ") for line in lines)


def test_verify_all_fails_when_one_oracle_fails(monkeypatch, capsys):
    _stub_oracles(monkeypatch, failing="decomposability")
    assert main(["verify", "--all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert failed == ["FAIL serial decomposability: stub decomposability"]
    assert len(lines) == 7


def test_in_process_main_leaves_the_collector_as_it_was(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["curve", "--domain", "eightpuzzle", "--trials", "1", "--train-max", "2",
                 "--eval-every", "2", "--test-set-size", "3",
                 "--output", str(tmp_path / "c.csv")]) == 0
    assert main(["table"]) == 2
    assert gc.get_freeze_count() == frozen


def test_process_entry_point_freezes_the_heap_once_output_is_written():
    # main() without argv is the console script: the exit collection skips
    # the heap it froze
    code = ("import gc, sys\n"
            "from speedup_learning.cli import main\n"
            "sys.argv = ['speedup-learn', 'bound', '--epsilon', '0.1', '--delta', '0.1', '--dim', '81']\n"
            "assert gc.get_freeze_count() == 0\n"
            "assert main() == 0\n"
            "print(gc.get_freeze_count() > 0)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert out.stdout.split() == ["585", "True"]
