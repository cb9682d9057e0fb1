"""Experiment driver: training loops, periodic evaluation, CSV output.

One experiment runs ``trials`` independent seeded trials.  Each trial
trains a fresh learner one example at a time and, at every eval point,
scores the current learned solver on a freshly drawn test set: a test
problem counts as correct only when the learner's solution exactly matches
the teacher's (operators, order, and locations).  Points aggregate the mean
and population standard deviation across trials.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, replace
from typing import Optional

from . import eight_puzzle, integration
from .control_rules import IncrementalRuleLearner, rule_solve
from .core import BOTTOM, Example, frozen_between_units
from .errors import ParameterError
from .macro_tables import MacroTable, macro_solve, serial_parse_into, walk_columns

DOMAINS = ("integration", "eightpuzzle")

_DOMAIN_DEFAULTS = {
    "integration": {"train_max": 30, "eval_every": 1},
    "eightpuzzle": {"train_max": 40, "eval_every": 2},
}


@dataclass(frozen=True)
class ExperimentConfig:
    domain: str
    trials: int = 50
    train_max: int = 0  # 0 means the domain default
    eval_every: int = 0
    test_set_size: int = 100
    seed: int = 0
    output: Optional[str] = None

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ParameterError(f"unknown domain {self.domain!r}")

    def resolved(self) -> "ExperimentConfig":
        d = _DOMAIN_DEFAULTS[self.domain]
        cfg = self
        if cfg.train_max <= 0:
            cfg = replace(cfg, train_max=d["train_max"])
        if cfg.eval_every <= 0:
            cfg = replace(cfg, eval_every=d["eval_every"])
        if cfg.trials <= 0 or cfg.test_set_size <= 0:
            raise ParameterError("trials and test_set_size must be positive")
        if cfg.eval_every > cfg.train_max:
            raise ParameterError("eval_every must not exceed train_max")
        return cfg


@dataclass(frozen=True)
class CurvePoint:
    num_examples: int
    mean_accuracy: float
    stddev: float


def _aggregate(per_trial: dict) -> list:
    points = []
    for t in sorted(per_trial):
        accs = per_trial[t]
        points.append(
            CurvePoint(t, statistics.fmean(accs), statistics.pstdev(accs))
        )
    return points


def _trial_rng(cfg, trial, *tags) -> random.Random:
    # String seeding hashes with SHA-512, stable across runs and platforms.
    return random.Random(":".join([str(cfg.seed), cfg.domain, str(trial), *map(str, tags)]))


# ---------------------------------------------------------------------------
# Integration curve
# ---------------------------------------------------------------------------


def _score_integration_fast(learner, rdomain, problem, matches) -> bool:
    trace = integration.teacher_trace(problem)
    if trace is None:
        return False
    for op_index, _path, unit in trace[0]:
        cap = learner.caps.get(op_index)
        if cap is None:
            return False
        hit = matches.get((cap, unit))
        if hit is None:
            hit = matches[cap, unit] = rdomain.unit_matches(cap, unit)
        if not hit:
            return False
    return True


def _score_integration_full(learner, rdomain, problem, _matches) -> bool:
    produced = rule_solve(learner.ruleset(), rdomain, problem)
    expected = integration.teacher_solve(problem)
    if produced is BOTTOM or expected is BOTTOM:
        return False
    return tuple(produced) == tuple(expected)


def _run_integration(cfg: ExperimentConfig, full_simulation: bool, freeze) -> list:
    rdomain = integration.IntegrationRuleDomain()
    per_trial: dict = {}
    score = _score_integration_full if full_simulation else _score_integration_fast
    for trial in range(cfg.trials):
        freeze()
        train_rng = _trial_rng(cfg, trial, "train")
        learner = IncrementalRuleLearner(rdomain)
        # (cap, unit) -> match: eval points meet the same units and mostly
        # unchanged caps again; nodes hash by identity, so lookups are cheap
        matches: dict = {}
        for t in range(1, cfg.train_max + 1):
            problem = integration.generate_problem(train_rng)
            solution = integration.teacher_solve(problem)
            learner.add_example(Example(problem, solution))
            if t % cfg.eval_every == 0:
                test_rng = _trial_rng(cfg, trial, "eval", t)
                hits = sum(
                    score(learner, rdomain, integration.generate_problem(test_rng), matches)
                    for _ in range(cfg.test_set_size)
                )
                per_trial.setdefault(t, []).append(hits / cfg.test_set_size)
    return _aggregate(per_trial)


# ---------------------------------------------------------------------------
# Eight Puzzle curve
# ---------------------------------------------------------------------------

_target_table: Optional[MacroTable] = None


def target_puzzle_table() -> MacroTable:
    """The fully built macro table the teacher's solutions are drawn from."""
    global _target_table
    if _target_table is None:
        _target_table = eight_puzzle.build_exhaustive_table()
    return _target_table


def _run_eightpuzzle(cfg: ExperimentConfig, full_simulation: bool, freeze) -> list:
    domain = eight_puzzle.domain_spec()
    target = target_puzzle_table() if full_simulation else None
    ordering = eight_puzzle.blank_first_ordering()
    per_trial: dict = {}
    for trial in range(cfg.trials):
        freeze()
        train_rng = _trial_rng(cfg, trial, "train")
        teacher_table = MacroTable(
            eight_puzzle.N_TILES, eight_puzzle.N_POSITIONS, eight_puzzle.GOAL, ordering
        )
        learner_table = MacroTable(
            eight_puzzle.N_TILES, eight_puzzle.N_POSITIONS, eight_puzzle.GOAL, ordering
        )
        for t in range(1, cfg.train_max + 1):
            board = eight_puzzle.random_solvable(train_rng)
            solution = eight_puzzle.integrated_teacher(board, teacher_table)
            serial_parse_into(learner_table, domain, Example(board, solution))
            if t % cfg.eval_every == 0:
                test_rng = _trial_rng(cfg, trial, "eval", t)
                hits = 0
                for _ in range(cfg.test_set_size):
                    q = eight_puzzle.random_solvable(test_rng)
                    if full_simulation:
                        produced = macro_solve(learner_table, domain, q)
                        expected = macro_solve(target, domain, q)
                        hits += produced is not BOTTOM and produced == expected
                    else:
                        # An IDA* macro is a function of its cell, and serial
                        # parsing cuts an optimal macro at its last move, so
                        # the learner's macros are the target's, cell for
                        # cell: a walk that meets no unfilled cell is the
                        # target's trajectory.
                        hits += walk_columns(learner_table, q, eight_puzzle.apply_macro)[2] is None
                per_trial.setdefault(t, []).append(hits / cfg.test_set_size)
    return _aggregate(per_trial)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_curve(config: ExperimentConfig, full_simulation: bool = False) -> list:
    """Run the learning-curve experiment for the configured domain.

    ``full_simulation`` scores each test problem by actually running the
    learned solver against the teacher's solution; only this path builds
    the Eight Puzzle's target table.  The default is provably equivalent
    for these learners and much faster: integration checks the learner's
    select-sets along the teacher's trace, and the Eight Puzzle walks the
    learner's own macro table, a hit when it meets no unfilled cell (the
    test suite asserts the equivalence on a reduced configuration).

    Each trial starts by freezing the heap, so the collector skips what
    earlier trials left alive (``core.frozen_between_units``); the
    collector's state is restored when this returns or raises.
    """
    cfg = config.resolved()
    run = _run_integration if cfg.domain == "integration" else _run_eightpuzzle
    with frozen_between_units() as freeze:
        points = run(cfg, full_simulation, freeze)
    if cfg.output:
        emit_csv(points, cfg.output)
    return points


def emit_csv(points, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(points))


def csv_text(points) -> str:
    lines = ["num_examples,mean_accuracy,stddev"]
    for p in points:
        lines.append(f"{p.num_examples},{p.mean_accuracy:.6g},{p.stddev:.6g}")
    return "\n".join(lines) + "\n"
