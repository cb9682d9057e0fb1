"""Experiment driver: one training loop, periodic evaluation, CSV output.

One experiment runs ``trials`` independent seeded trials.  Each trial
trains a fresh learner one example at a time and, at every eval point,
scores the current learned solver on a freshly drawn test set: a test
problem counts as correct only when the learner's solution exactly matches
the teacher's (operators, order, and locations).  Points aggregate the mean
and population standard deviation across trials.

``run_curve`` runs that loop for every domain; a small trial class per
domain holds what differs: its defaults, a fresh learner, ``draw``,
``learn`` and the two scorers.
"""

from __future__ import annotations

import functools
import random
import statistics
from dataclasses import dataclass, replace
from typing import Optional

from . import eight_puzzle, integration
from .control_rules import IncrementalRuleLearner, rule_solve
from .core import BOTTOM, Example, frozen_between_units
from .errors import ParameterError
from .macro_tables import MacroTable, macro_solve, serial_parse_into, walk_columns


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
        trial = _TRIALS[self.domain]
        cfg = self
        if cfg.train_max <= 0:
            cfg = replace(cfg, train_max=trial.train_max)
        if cfg.eval_every <= 0:
            cfg = replace(cfg, eval_every=trial.eval_every)
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


def _trial_rng(cfg, trial, *tags) -> random.Random:
    # String seeding hashes with SHA-512, stable across runs and platforms.
    return random.Random(":".join([str(cfg.seed), cfg.domain, str(trial), *map(str, tags)]))


# ---------------------------------------------------------------------------
# One trial per domain: a fresh learner, its draw, learning step and scorers
# ---------------------------------------------------------------------------


class _IntegrationTrial:
    """A fresh control-rule learner, scored along the teacher's trace."""

    train_max, eval_every = 30, 1

    def __init__(self):
        self.rdomain = integration.IntegrationRuleDomain()
        self.learner = IncrementalRuleLearner(self.rdomain)
        # (cap, unit) -> match: eval points meet the same units and mostly
        # unchanged caps again; nodes hash by identity, so lookups are cheap
        self.matches: dict = {}

    @staticmethod
    def draw(rng):
        return integration.generate_problem(rng)

    def learn(self, problem):
        self.learner.add_example(Example(problem, integration.teacher_solve(problem)))

    def score_fast(self, problem) -> bool:
        trace = integration.teacher_trace(problem)
        if trace is None:
            return False
        caps, matches = self.learner.caps, self.matches
        for op_index, _path, unit in trace[0]:
            cap = caps[op_index - 1]
            if cap is None:
                return False
            hit = matches.get((cap, unit))
            if hit is None:
                hit = matches[cap, unit] = self.rdomain.unit_matches(cap, unit)
            if not hit:
                return False
        return True

    def score_full(self, problem) -> bool:
        produced = rule_solve(self.learner.ruleset(), self.rdomain, problem)
        expected = integration.teacher_solve(problem)
        if produced is BOTTOM or expected is BOTTOM:
            return False
        return tuple(produced) == tuple(expected)


@functools.cache
def target_puzzle_table() -> MacroTable:
    """The fully built macro table the teacher's solutions are drawn from."""
    return eight_puzzle.build_exhaustive_table()


class _PuzzleTrial:
    """A fresh macro table learned by serial parsing, scored by walking it."""

    train_max, eval_every = 40, 2

    def __init__(self):
        self.domain = eight_puzzle.domain_spec()
        ordering = eight_puzzle.blank_first_ordering()
        shape = (eight_puzzle.N_TILES, eight_puzzle.N_POSITIONS, eight_puzzle.GOAL, ordering)
        self.teacher_table = MacroTable(*shape)
        self.learner_table = MacroTable(*shape)

    @staticmethod
    def draw(rng):
        return eight_puzzle.random_solvable(rng)

    def learn(self, board):
        solution = eight_puzzle.integrated_teacher(board, self.teacher_table)
        serial_parse_into(self.learner_table, self.domain, Example(board, solution))

    def score_fast(self, board) -> bool:
        # An IDA* macro is a function of its cell, and serial parsing cuts an
        # optimal macro at its last move, so the learner's macros are the
        # target's, cell for cell: a walk that meets no unfilled cell is the
        # target's trajectory.
        return walk_columns(self.learner_table, board, eight_puzzle.apply_macro)[2] is None

    def score_full(self, board) -> bool:
        produced = macro_solve(self.learner_table, self.domain, board)
        expected = macro_solve(target_puzzle_table(), self.domain, board)
        return produced is not BOTTOM and produced == expected


_TRIALS = {"integration": _IntegrationTrial, "eightpuzzle": _PuzzleTrial}
DOMAINS = tuple(_TRIALS)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_curve(config: ExperimentConfig, full_simulation: bool = False) -> list:
    """Run the learning-curve experiment for the configured domain.

    Each trial builds the domain's trial object, trains it on
    ``learn(draw(train_rng))`` and at each eval point sums one scorer over
    ``draw(test_rng)``.  ``full_simulation`` picks ``score_full``, which
    runs the learned solver literally against the teacher's solution; only
    it builds the Eight Puzzle's target table.  The default ``score_fast``
    is provably equivalent for these learners and much faster: integration
    checks the learner's select-sets along the teacher's trace, and the
    Eight Puzzle walks the learner's own macro table, a hit when it meets
    no unfilled cell (the test suite asserts the equivalence on a reduced
    configuration).

    Each trial starts by freezing the heap, so the collector skips what
    earlier trials left alive (``core.frozen_between_units``); the
    collector's state is restored when this returns or raises.
    """
    cfg = config.resolved()
    new_trial = _TRIALS[cfg.domain]
    per_trial: dict = {}
    with frozen_between_units() as freeze:
        for i in range(cfg.trials):
            freeze()
            trial = new_trial()
            score = trial.score_full if full_simulation else trial.score_fast
            train_rng = _trial_rng(cfg, i, "train")
            for t in range(1, cfg.train_max + 1):
                trial.learn(trial.draw(train_rng))
                if t % cfg.eval_every == 0:
                    test_rng = _trial_rng(cfg, i, "eval", t)
                    hits = sum(score(trial.draw(test_rng)) for _ in range(cfg.test_set_size))
                    per_trial.setdefault(t, []).append(hits / cfg.test_set_size)
    points = [CurvePoint(t, statistics.fmean(accs), statistics.pstdev(accs))
              for t, accs in sorted(per_trial.items())]
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
