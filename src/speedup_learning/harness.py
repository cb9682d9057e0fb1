"""Experiment driver: one training loop, periodic evaluation, CSV text.

One experiment runs ``trials`` independent seeded trials.  Each trial
trains a fresh learner one example at a time and, at every eval point,
scores the current learned solver on a freshly drawn test set: a test
problem counts as correct only when the learner's solution exactly matches
the teacher's (operators, order, and locations).  Points aggregate the mean
and population standard deviation across trials.

``run_curve`` runs that loop for every domain; a small trial class per
domain holds what differs: its defaults, a fresh learner, ``draw``,
``learn``, the two scorers and ``complete``, true once the learner can
no longer change or miss.
"""

from __future__ import annotations

import functools
import random
import statistics
from dataclasses import dataclass, replace

from . import eight_puzzle, integration
from .control_rules import IncrementalRuleLearner, rule_solve
from .core import BOTTOM, Example, frozen_between_units
from .errors import ParameterError
from .integration import TeacherRecord
from .macro_tables import MacroTable, macro_solve, serial_parse_into, walk_columns


@dataclass(frozen=True)
class ExperimentConfig:
    domain: str
    trials: int = 50
    train_max: int = 0  # 0 means the domain default
    eval_every: int = 0
    test_set_size: int = 100
    seed: int = 0

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
    # caps can always widen, so a trial never ends early
    complete = False

    def __init__(self):
        self.rdomain = integration.IntegrationRuleDomain()
        self.learner = IncrementalRuleLearner(self.rdomain)
        # the teacher records whose every step passed the caps.  Caps only
        # widen (a None cap becomes a tree, and msc(old, tree) caps old), so
        # a covered record stays covered for the rest of the trial.
        self.covered: set = set()

    @staticmethod
    def draw(rng):
        return integration.generate_problem(rng)

    def learn(self, problem):
        self.learner.add_example(Example(problem, integration.teacher_solve(problem)))

    def score_fast(self, problem) -> bool:
        record = integration.teacher_record(problem)
        if record is None:
            return False
        covered = self.covered
        if record in covered:
            return True
        caps = self.learner.caps
        # Walk the segments in firing order on an explicit stack, skipping
        # covered children; a record is covered once its last segment passes.
        stack = [(record, iter(record.segments))]
        while stack:
            top, segs = stack[-1]
            for seg in segs:
                child = seg[1]
                if type(child) is TeacherRecord:
                    if child not in covered:
                        stack.append((child, iter(child.segments)))
                        break
                    continue
                op_index, unit = seg
                cap = caps[op_index - 1]
                if cap is None or not self.rdomain.unit_matches(cap, unit):
                    return False
            else:
                covered.add(top)
                stack.pop()
        return True

    def score_full(self, problem) -> bool:
        produced = rule_solve(self.learner.ruleset(), self.rdomain, problem)
        expected = integration.teacher_solve(problem)
        if produced is BOTTOM or expected is BOTTOM:
            return False
        return tuple(produced) == tuple(expected)


@functools.cache
def target_puzzle_table() -> MacroTable:
    """The fully built macro table the teacher's solutions are drawn from,
    built once per process and only read after that."""
    return eight_puzzle.build_exhaustive_table()


class _PuzzleTrial:
    """A fresh macro table learned by serial parsing, scored by walking it.

    Once the learner holds every cell of the target table (``last`` is 0)
    the trial is ``complete``: the learner's cells are a subset of the
    target's, so it never gains another, and ``score_fast`` only checks
    the board, which every drawn board passes.  Every later eval point
    scores 1.0, so ``run_curve`` stops drawing and learning.
    """

    train_max, eval_every = 40, 2

    def __init__(self):
        self.domain = eight_puzzle.domain_spec()
        self.learner_table = MacroTable(eight_puzzle.N_TILES, eight_puzzle.N_POSITIONS,
                                        eight_puzzle.GOAL, eight_puzzle.blank_first_ordering())
        # the highest column in which the learner still lacks a cell of the
        # target table, or 0 once it holds them all; see score_fast
        self.last = eight_puzzle.N_TILES

    @staticmethod
    def draw(rng):
        return eight_puzzle.random_solvable(rng)

    @property
    def complete(self) -> bool:
        return self.last == 0

    def learn(self, board):
        """Fold the teacher's solution of ``board`` into the learner's
        table, then update ``last``.  integrated_teacher growing a fresh
        table gives the same solution: an IDA* macro is a function of its
        cell."""
        target = target_puzzle_table()
        solution = macro_solve(target, self.domain, board)
        serial_parse_into(self.learner_table, self.domain, Example(board, solution))
        if self.last:
            missing = target.cells.keys() - self.learner_table.cells.keys()
            self.last = max((i for _, i in missing), default=0)

    def score_fast(self, board) -> bool:
        """Walk the learner's own table through columns 1..``last`` only;
        a hit when the walk meets no unfilled cell.

        An IDA* macro is a function of its cell, and serial parsing cuts an
        optimal macro at its last move, so the learner's macros are the
        target's, cell for cell: a walk that meets no unfilled cell is the
        target's trajectory.  The target fills every cell that a walk of a
        solvable board meets (``table --verify`` checks all 181 440
        boards), and each column past ``last`` holds every target cell.  So
        once the walk has passed column ``last``, the rest of it meets only
        filled cells, and the verdict is already known: the cut walk hits
        exactly when the whole walk would.  ``last`` only falls, since
        cells are never removed, and at 0 the walk only checks the board.
        """
        return walk_columns(self.learner_table, board, eight_puzzle.apply_macro,
                            last=self.last)[2] is None

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
    """Run the learning-curve experiment for the configured domain and
    return its points; ``csv_text`` gives their CSV, which callers write.

    Each trial builds the domain's trial object, trains it on
    ``learn(draw(train_rng))`` and at each eval point sums one scorer over
    ``draw(test_rng)``.  ``full_simulation`` picks ``score_full``, which
    runs the learned solver literally against the teacher's solution.  The
    Eight Puzzle's teacher walks the target table (``target_puzzle_table``),
    built once per process.  The default ``score_fast``
    is provably equivalent for these learners and much faster: integration
    checks the learner's select-sets along the teacher's trace, and the
    Eight Puzzle walks the learner's own macro table up to the last column
    it can still miss, a hit when it meets no unfilled cell (the test
    suite asserts the equivalence on reduced configurations).  The
    integration trace scorer keeps one table per trial, the teacher
    records it has covered, and skips them: the learner only widens its
    caps, so a record whose every step passed once passes at every later
    eval point.

    The fast path also ends a trial as soon as it is ``complete`` (an
    Eight Puzzle learner that holds the whole target table): from that
    training step on, each eval point scores 1.0 without drawing a test
    board, and no more examples are drawn or learned.  The result is the
    same, since a complete learner hits on every board and the trial's
    generators are its own, so the skipped draws feed nothing else.
    ``full_simulation`` runs every step literally and checks this.

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
                if trial.complete and not full_simulation:
                    # this and every later eval point score 1.0
                    for u in range(t + -t % cfg.eval_every, cfg.train_max + 1, cfg.eval_every):
                        per_trial.setdefault(u, []).append(1.0)
                    break
                if t % cfg.eval_every == 0:
                    test_rng = _trial_rng(cfg, i, "eval", t)
                    hits = sum(score(trial.draw(test_rng)) for _ in range(cfg.test_set_size))
                    per_trial.setdefault(t, []).append(hits / cfg.test_set_size)
    return [CurvePoint(t, statistics.fmean(accs), statistics.pstdev(accs))
            for t, accs in sorted(per_trial.items())]


def csv_text(points) -> str:
    lines = ["num_examples,mean_accuracy,stddev"]
    for p in points:
        lines.append(f"{p.num_examples},{p.mean_accuracy:.6g},{p.stddev:.6g}")
    return "\n".join(lines) + "\n"
