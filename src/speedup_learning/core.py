"""Domain abstractions, examples, oracles and sample-size arithmetic.

A domain is a goal test plus a totally ordered list of opaque partial
operators over fixed-size states.  Solutions are sequences of
``(operator_index, location)`` steps; ``location`` is ``None`` for domains
whose operators take no site parameter.  The distinguished value ``BOTTOM``
marks "no solution" and is never the same thing as an empty sequence (an
empty sequence solves a state that already satisfies the goal).
"""

from __future__ import annotations

import gc
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .errors import (
    INAPPLICABLE,
    OracleIntegrityError,
    ParameterError,
    ReplayError,
    TableCorruptionError,
)


class _Bottom:
    """Singleton 'no solution' marker."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTTOM"

    def __bool__(self):
        return False


BOTTOM = _Bottom()

# A solution step is (operator_index, location); Solution is a tuple of steps
# or BOTTOM.
Solution = Any


@dataclass(frozen=True)
class DomainSpec:
    """A problem domain: states, a goal predicate and ordered partial operators.

    ``operators[i]`` is called as ``op(state, location)`` and must either
    return a new state or raise one of the package's "inapplicable" errors
    (``errors.INAPPLICABLE``).
    Indices are 1-based in solutions, matching the fixed total ordering used
    for conflict resolution.

    ``macro_runner(state, macro)``, when given, is the domain's own way to
    apply a whole macro (a tuple of operator indices) without a location.
    It returns the state the step-by-step run would reach, or raises one of
    the "inapplicable" errors when some step does not apply.
    ``apply_macro`` applies a stored macro through it.
    """

    goal_test: Callable[[Any], bool]
    operators: Sequence[Callable[..., Any]]
    macro_runner: Optional[Callable[[Any, tuple], Any]] = None

    def __post_init__(self):
        if not self.operators:
            raise ParameterError("operator list must be nonempty")

    @property
    def num_operators(self) -> int:
        return len(self.operators)

    def apply(self, state, op_index: int, loc=None):
        try:
            if not 1 <= op_index <= len(self.operators):
                raise ParameterError(f"operator index {op_index} out of range")
            op = self.operators[op_index - 1]  # a float index raises TypeError here
        except TypeError as exc:
            raise ParameterError(f"operator index {op_index!r} is not an integer") from exc
        return op(state, loc)

    def apply_macro(self, state, macro):
        """Apply a stored macro, through ``macro_runner`` when there is one.

        A step that does not apply raises ``TableCorruptionError`` naming it.
        When the runner reports one, the macro is run again step by step
        through ``apply``, so the error is the same either way: at the same
        step, and ``ParameterError`` for an index out of range.
        """
        if self.macro_runner is not None:
            try:
                return self.macro_runner(state, macro)
            except INAPPLICABLE:
                pass
        for op_index in macro:
            try:
                state = self.apply(state, op_index, None)
            except INAPPLICABLE as exc:
                raise TableCorruptionError(
                    f"stored macro step {op_index} inapplicable: {exc}"
                ) from exc
        return state


@dataclass(frozen=True)
class Example:
    """A ``(problem, solution)`` pair as produced by the solved-problem oracle."""

    problem: Any
    solution: Solution

    @property
    def solved(self) -> bool:
        return self.solution is not BOTTOM


class OracleConfig:
    """Seeded source of random problems plus an opaque teacher.

    The RNG is the only mutable state; identical seeds produce identical
    example streams.
    """

    def __init__(
        self,
        problem_generator: Callable[[random.Random], Any],
        teacher: Callable[[Any], Solution],
        seed,
        max_solution_length: Optional[int] = None,
    ):
        self.problem_generator = problem_generator
        self.teacher = teacher
        self.seed = seed
        self.max_solution_length = max_solution_length
        self.rng = random.Random(seed)


def sample_size(epsilon: float, delta: float, dim: float) -> int:
    """Number of training examples sufficient for a consistent learner over a
    finite hypothesis space of log-size ``dim``.

    Computed as ``ceil((1/epsilon) * (dim * ln 2 + ln(1/delta)))``.
    """
    for name, v in (("epsilon", epsilon), ("delta", delta)):
        if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 < v <= 1.0):
            raise ParameterError(f"{name} must be a finite real in (0, 1], got {v!r}")
    if not (isinstance(dim, (int, float)) and math.isfinite(dim) and dim >= 0):
        raise ParameterError(f"dim must be a finite nonnegative real, got {dim!r}")
    return math.ceil((dim * math.log(2.0) + math.log(1.0 / delta)) / epsilon)


def replay(domain: DomainSpec, problem, solution) -> list:
    """Apply a solution step by step, returning the full trajectory x_0..x_r.

    ``domain`` is anything with ``apply(state, op_index, loc)``, such as a
    ``DomainSpec`` or a rule domain.  A step that is not an ``(operator,
    location)`` pair or does not apply raises ``ReplayError`` naming it.
    Both learners replay a whole solution before they change anything.
    """
    states = [problem]
    x = problem
    for step_idx, step in enumerate(solution):
        try:
            op_index, loc = step
        except (TypeError, ValueError) as exc:
            raise ReplayError(f"step {step!r} is not an (operator, location) pair", step_idx) from exc
        try:
            x = domain.apply(x, op_index, loc)
        except INAPPLICABLE as exc:
            raise ReplayError(
                f"operator {op_index} inapplicable: {exc}", step_idx
            ) from exc
        states.append(x)
    return states


def solved_problem(oracle: OracleConfig, domain: DomainSpec) -> Example:
    """Draw a problem, ask the teacher, validate and return the example.

    A teacher solution that does not replay to a goal state indicates a broken
    teacher and raises ``OracleIntegrityError``.
    """
    problem = oracle.problem_generator(oracle.rng)
    solution = oracle.teacher(problem)
    if solution is BOTTOM:
        return Example(problem, BOTTOM)
    solution = tuple(solution)
    if oracle.max_solution_length is not None and len(solution) > oracle.max_solution_length:
        raise OracleIntegrityError(
            f"teacher solution length {len(solution)} exceeds limit "
            f"{oracle.max_solution_length}"
        )
    try:
        trajectory = replay(domain, problem, solution)
    except ReplayError as exc:
        raise OracleIntegrityError(f"teacher solution does not replay: {exc}") from exc
    if not domain.goal_test(trajectory[-1]):
        raise OracleIntegrityError("teacher solution does not reach a goal state")
    return Example(problem, solution)


def is_consistent(solver: Callable[[Any], Solution], sample: Sequence[Example]) -> bool:
    """True iff the solver reproduces the teacher's solution on every solved
    example, exactly (same operators, same order, same locations)."""
    for example in sample:
        if example.solution is BOTTOM:
            continue
        try:
            produced = solver(example.problem)
        except Exception:
            return False
        if produced is BOTTOM or tuple(produced) != tuple(example.solution):
            return False
    return True


def _no_freeze():
    pass


@contextmanager
def frozen_between_units():
    """Keep the cyclic garbage collector off what earlier units of work
    left alive.

    Yields ``freeze``, to call at the start of each unit of work (a curve
    trial, an oracle draw).  It moves every object tracked so far into the
    collector's permanent generation (``gc.freeze()``), so collections
    during the unit walk only what the unit allocates.  The memos outlive
    every unit and are never garbage, and objects that die by reference
    count are freed, frozen or not.

    On exit, by exception or not, the frozen objects are thawed into the
    oldest generation.  A caller that had frozen objects itself gets a
    ``freeze`` that does nothing, since ``gc.unfreeze()`` would thaw its
    objects too.
    """
    # get_freeze_count walks the frozen list: read it once, here.
    if gc.get_freeze_count():
        yield _no_freeze
        return
    try:
        yield gc.freeze
    finally:
        gc.unfreeze()
