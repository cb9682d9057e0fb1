"""Command-line front end.

Subcommands::

    speedup-learn bound --epsilon 0.1 --delta 0.1 --dim 81
    speedup-learn curve --domain eightpuzzle --output curve.csv
    speedup-learn table --build-exhaustive [--verify] [--output FILE]
    speedup-learn verify --all

Exit code is 0 on success, 1 on any verification failure and 2 on a usage
error: a bad argument, or one the library rejects with one of its own
errors, reported as a single ``speedup-learn: error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys

from . import eight_puzzle, oracles
from .core import sample_size
from .errors import SpeedupLearningError
from .harness import DOMAINS, ExperimentConfig, csv_text, run_curve


def _write(text: str, path) -> None:
    """``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bound(args) -> int:
    print(sample_size(args.epsilon, args.delta, args.dim))
    return 0


def _cmd_curve(args) -> int:
    config = ExperimentConfig(
        domain=args.domain,
        trials=args.trials,
        train_max=args.train_max,
        eval_every=args.eval_every,
        test_set_size=args.test_set_size,
        seed=args.seed,
    )
    _write(csv_text(run_curve(config, full_simulation=args.full_simulation)), args.output)
    return 0


def _cmd_table(args) -> int:
    if not args.build_exhaustive:
        print("nothing to do; pass --build-exhaustive", file=sys.stderr)
        return 2
    table = eight_puzzle.build_exhaustive_table()
    _write(table.dump(op_letters=eight_puzzle.MOVE_LETTERS), args.output)
    print(f"filled cells: {table.filled_count()}")
    print(f"nonempty macros: {table.nonempty_count()}")
    if args.verify:
        boards = eight_puzzle.all_solvable_boards()
        ok, detail = oracles.exhaustive_table(table, boards)
        print(f"verify_table over {len(boards)} boards: {'PASS' if ok else 'FAIL'}")
        if not ok:
            print(detail)
            return 1
    return 0


def _cmd_verify(args) -> int:
    # Reject a bad count before the boards and the table are built.
    oracles.check_count("--search-instances", args.search_instances)
    oracles.check_count("--teacher-draws", args.teacher_draws)
    oracles.check_count("--numeric-checks", args.numeric_checks)
    boards = eight_puzzle.all_solvable_boards()
    table = eight_puzzle.build_exhaustive_table()
    # One stream, drawn in order: the subgoal instances, then the teacher's.
    rng = random.Random(20260824)
    checks = (
        ("sample bounds 585/266", oracles.sample_bounds),
        ("msg worked example", oracles.msg_worked_example),
        ("state count 181440", lambda: oracles.state_count(boards)),
        ("serial decomposability", lambda: oracles.decomposability(boards)),
        ("exhaustive table", lambda: oracles.exhaustive_table(table, boards)),
        (f"IDA* optimal on {args.search_instances} subgoals",
         lambda: oracles.subgoal_optimality(rng, args.search_instances, 7, table)),
        (f"teacher sound on {args.teacher_draws} draws",
         lambda: oracles.teacher_soundness(rng, args.teacher_draws, args.numeric_checks)),
    )
    failed = False
    for name, check in checks:
        ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="speedup-learn",
                                     description="Speedup-learning workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="print the PAC sample-size bound")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--dim", type=float, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("curve", help="run a learning-curve experiment")
    p.add_argument("--domain", choices=DOMAINS, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--train-max", type=int, default=0)
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--test-set-size", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.add_argument("--full-simulation", action="store_true")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("table", help="build the exhaustive Eight Puzzle table")
    p.add_argument("--build-exhaustive", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run the property oracles")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--teacher-draws", type=int, default=100_000)
    p.add_argument("--numeric-checks", type=int, default=1_000)
    p.add_argument("--search-instances", type=int, default=100)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; ``argv`` defaults to the process's arguments.

    Without ``argv``, as the console script and ``python -m`` call it, this
    is the process's last work: once the output is written the heap is
    frozen, so the collection at interpreter exit skips everything the run
    built.  A caller that passes ``argv`` keeps its collector as it was.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpeedupLearningError as exc:
        print(f"speedup-learn: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
