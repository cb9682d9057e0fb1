"""Macro-operator tables over feature-vector states.

A macro table holds, for ordered feature position i and feature value j, an
operator sequence that brings ordered feature i to its goal value while
restoring ordered features 1..i-1.  The macro problem solver walks the
columns in order; the serial parser recovers a table from whole solutions
by cutting them at the earliest states where successive goal-value prefixes
hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .core import BOTTOM, DomainSpec, Example, replay
from .errors import INAPPLICABLE, MalformedSolutionError, ParameterError

# A macro is a tuple of 1-based operator indices; () is the null macro.
Macro = tuple
# The longest macro a table stores.
MAX_MACRO_LEN = 32


def _check_macro_len(n: int) -> None:
    if n > MAX_MACRO_LEN:
        raise ParameterError(f"macro length {n} exceeds limit {MAX_MACRO_LEN}")


@dataclass(frozen=True)
class FeatureOrdering:
    """Permutation of feature indices; position i (1-based) maps to
    perm[i-1]."""

    perm: tuple

    def __post_init__(self):
        perm = self.perm
        if not all(isinstance(p, int) for p in perm) or sorted(perm) != list(range(len(perm))):
            raise ParameterError("ordering must be a permutation of 0..n-1")

    def feature(self, position: int) -> int:
        return self.perm[position - 1]


def check_feature_state(values: Sequence[int], n: int, v: int) -> tuple:
    try:
        values = tuple(values)
    except TypeError:  # not a sequence
        raise ParameterError(f"state must be a sequence of {n} features, got {values!r}") from None
    if len(values) != n:
        raise ParameterError(f"state must have {n} features, got {len(values)}")
    for x in values:  # a plain loop: a generator costs several times more per call
        if not (isinstance(x, int) and 0 <= x < v):
            raise ParameterError(f"feature values must be integers in 0..{v - 1}")
    return values


class MacroTable:
    """Grid of macros keyed (value j, ordered position i); missing keys are
    UNFILLED, which is distinct from a stored null macro."""

    def __init__(self, n: int, v: int, goal: Sequence[int], ordering: FeatureOrdering):
        if len(ordering.perm) != n:
            raise ParameterError("ordering length must equal n")
        self.n = n
        self.v = v
        self.goal = check_feature_state(goal, n, v)
        self.ordering = ordering
        self.cells: dict = {}
        # _prefix_at_goal's tests, one per prefix length 0..n: a getter of
        # ordered features 1..upto and its value on the goal.  The goal and
        # the ordering never change after construction.  A one-feature
        # getter returns a value, not a tuple, on the goal as on a state.
        getters = [_no_features] + [itemgetter(*ordering.perm[:i]) for i in range(1, n + 1)]
        self._prefix_keys = tuple((key, key(self.goal)) for key in getters)

    def get(self, j: int, i: int) -> Optional[Macro]:
        """The macro at (value j, position i), or None when UNFILLED."""
        return self.cells.get((j, i))

    def is_filled(self, j: int, i: int) -> bool:
        return (j, i) in self.cells

    def insert(self, j: int, i: int, macro: Sequence[int]) -> bool:
        """Store a macro unless the cell is already filled (first write
        wins); returns whether the cell changed."""
        if not (isinstance(j, int) and isinstance(i, int)
                and 0 <= j < self.v and 1 <= i <= self.n):
            raise ParameterError(f"no cell (value {j}, position {i}) in a {self.v} x {self.n} table")
        macro = tuple(macro)
        _check_macro_len(len(macro))
        if (j, i) in self.cells:
            return False
        self.cells[(j, i)] = macro
        return True

    def filled_count(self) -> int:
        return len(self.cells)

    def nonempty_count(self) -> int:
        return sum(1 for m in self.cells.values() if m)

    def dump(self, op_letters: Optional[Sequence[str]] = None) -> str:
        """Text grid: one row per value j, one cell per position i,
        ``-`` for the null macro and ``?`` for UNFILLED."""

        def fmt(j, i):
            m = self.cells.get((j, i))
            if m is None:
                return "?"
            if not m:
                return "-"
            if op_letters:
                return "".join(op_letters[op - 1] for op in m)
            return ".".join(str(op) for op in m)

        rows = []
        for j in range(self.v):
            rows.append(" ".join(fmt(j, i) for i in range(1, self.n + 1)))
        return "\n".join(rows) + "\n"


def _no_features(state) -> tuple:
    return ()


def _prefix_at_goal(state, table: MacroTable, upto: int) -> bool:
    """Do ordered features 1..upto of ``state`` hold their goal values?
    One key compare: the table's getter for ``upto`` features reads them
    all in one call."""
    key, goal_key = table._prefix_keys[upto]
    return key(state) == goal_key


def walk_columns(table: MacroTable, state, run, last: Optional[int] = None):
    """Walk the table's columns 1..last (default all) in order from state.

    ``run(state, macro)`` applies one column's whole macro and returns the
    state reached; it may raise whatever the domain raises for an
    inapplicable step.  ``DomainSpec`` callers pass ``domain.apply_macro``,
    which goes through the domain's macro runner and raises
    ``TableCorruptionError`` at an inapplicable step; the Eight Puzzle's
    runner, ``eight_puzzle.apply_macro``, moves the tiles in one
    permutation, and its harness and oracles pass it directly.  The walk
    only reads the table and stops at an UNFILLED cell.  ``last`` must lie
    in 0..n.  The walk checks ``state`` once, before its first column, with
    ``check_feature_state``: a state of other than n features, or with a
    value that is not an int in 0..v-1 (-1 would index a macro's effect
    from its end), raises ParameterError.  Domain constraints beyond that,
    such as an Eight Puzzle board holding no tile twice, are not checked.
    Returns (cells, state, missing): the (j, i) cells used, the state reached
    and the UNFILLED cell the walk stopped at (None when it ran to the end).
    ``solution_steps`` reads the solution off the cells.
    """
    state = check_feature_state(state, table.n, table.v)
    if last is None:
        last = table.n
    elif not (isinstance(last, int) and 0 <= last <= table.n):
        raise ParameterError(f"last column {last!r} is not in 0..{table.n}")
    perm, cells = table.ordering.perm, []
    for i in range(1, last + 1):
        j = state[perm[i - 1]]
        macro = table.cells.get((j, i))
        if macro is None:
            return cells, state, (j, i)
        cells.append((j, i))
        state = run(state, macro)
    return cells, state, None


def solution_steps(table: MacroTable, cells) -> tuple:
    """The solution a column walk spells: the cells' macros in order, as
    ``(op_index, None)`` steps."""
    return tuple([(op, None) for cell in cells for op in table.cells[cell]])


def macro_solve(table: MacroTable, domain: DomainSpec, state):
    """Solve by walking the columns; ⊥ on any UNFILLED cell or (defensively)
    if the walk fails to reach the goal."""
    cells, state, missing = walk_columns(table, state, domain.apply_macro)
    if missing is not None or tuple(state) != table.goal:
        return BOTTOM
    return solution_steps(table, cells)


def serial_parse_into(table: MacroTable, domain: DomainSpec, example: Example):
    """Fold one example into the table (Serial-parser body).

    Replays the solution, then for each ordered position i finds the
    earliest trajectory state from the current cut whose ordered features
    1..i all hold goal values.  Once every cut is found, it stores the
    operator slice between successive cuts in each cell that is still
    unfilled, so a solution that cannot be cut leaves the table as it was.
    A problem that is not a state of the table's shape raises
    ParameterError.
    """
    if example.solution is BOTTOM:
        return
    check_feature_state(example.problem, table.n, table.v)
    states = replay(domain, example.problem, example.solution)
    ops = [op for op, _ in example.solution]
    cuts, p = [], 0
    for i in range(1, table.n + 1):
        j = states[p][table.ordering.feature(i)]
        k = p
        while k < len(states) and not _prefix_at_goal(states[k], table, i):
            k += 1
        if k == len(states):
            raise MalformedSolutionError(
                f"no trajectory point achieves ordered features 1..{i}"
            )
        _check_macro_len(k - p)
        cuts.append((j, i, ops[p:k]))
        p = k
    for j, i, macro in cuts:
        table.insert(j, i, macro)


def serial_parse(domain: DomainSpec, sample: Sequence[Example], n: int, v: int,
                 goal: Sequence[int], ordering: FeatureOrdering) -> MacroTable:
    """Learn a macro table from whole-solution examples (⊥ examples are
    skipped; earlier examples win contested cells)."""
    table = MacroTable(n, v, goal, ordering)
    for example in sample:
        serial_parse_into(table, domain, example)
    return table


def check_serial_decomposability(domain: DomainSpec, ordering: FeatureOrdering,
                                 states: Iterable):
    """Is each operator's effect on ordered feature i a function of ordered
    features 1..i only?  Returns (True, None) or (False, witness) where the
    witness is (op_index, position, state_a, state_b).

    ``states`` is read once, so any iterable will do; a state of the wrong
    length raises ParameterError.  Each operator is
    applied once to every state; an inapplicable operator counts as one
    more effect.  Then, for each ordered position i, the key of a state is
    its ordered features 1..i, and the effect is ordered feature i after
    the operator.  The effect is a function of the key exactly when there
    are as many distinct (key, effect) pairs as distinct keys, so each
    position costs two set sizes.  Keys are built for one position at a
    time, which bounds the memory to one position's keys.

    Only an operator that fails is scanned state by state, to name the
    first witness: operators in index order, then states in the order
    given, then positions from 1.  state_b is the first state whose effect
    at some position differs from an earlier state's with the same key,
    position is the smallest such one, and state_a is the first state with
    that key.
    """
    states = list(states)
    perm = ordering.perm
    for s in states:
        if len(s) != len(perm):
            raise ParameterError(f"state must have {len(perm)} features, got {s!r}")
    keys_of = [itemgetter(*perm[:i]) for i in range(1, len(perm) + 1)]
    effect_of = [itemgetter(f) for f in perm]
    inapplicable = (None,) * len(perm)  # every effect of an inapplicable operator is None
    apply = domain.apply
    for op_index in range(1, domain.num_operators + 1):
        after = []
        for s in states:
            try:
                after.append(apply(s, op_index, None))
            except INAPPLICABLE:
                after.append(inapplicable)
        for column in range(len(perm)):  # ordered position column + 1
            keys = list(map(keys_of[column], states))
            if len(set(zip(keys, map(effect_of[column], after)))) != len(set(keys)):
                return False, _first_witness(op_index, column, states, after, keys_of, effect_of)
    return True, None


def _first_witness(op_index, column, states, after, keys_of, effect_of):
    """The first (state, position) at which ``op_index``'s effect differs
    from an earlier state's with the same key.  Positions before
    ``column + 1`` passed the set test, so they hold no disagreement."""
    first_seen = {i: {} for i in range(column, len(keys_of))}
    for s, t in zip(states, after):
        for i, seen in first_seen.items():
            effect = effect_of[i](t)
            prior_effect, prior = seen.setdefault(keys_of[i](s), (effect, s))
            if prior_effect != effect:
                return op_index, i + 1, prior, s
    raise AssertionError("a column failed the set test but no two states disagree")


def verify_table(table: MacroTable, domain: DomainSpec, states: Sequence):
    """Check the macro-table property and nonredundancy of every filled cell
    against the supplied states.  Returns (True, None) or (False, witness);
    the witness is (kind, (j, i), state) with kind "property" or
    "redundant".  Each state is checked once, as ``walk_columns`` checks
    its own: ``check_feature_state`` raises ParameterError, and a board
    holding a tile twice is not checked."""
    run = domain.apply_macro
    by_cell: dict = {}
    for s in states:
        check_feature_state(s, table.n, table.v)
        for i in range(1, table.n + 1):
            if not _prefix_at_goal(s, table, i - 1):
                break
            j = s[table.ordering.feature(i)]
            if table.is_filled(j, i):
                by_cell.setdefault((j, i), []).append(s)
    for (j, i), macro in table.cells.items():
        matching = by_cell.get((j, i), [])
        prefix_ok_somewhere = not macro  # null macros are trivially minimal
        for s in matching:
            if not _prefix_at_goal(run(s, macro), table, i):
                return False, ("property", (j, i), s)
            if not prefix_ok_somewhere:
                if all(
                    not _prefix_at_goal(run(s, macro[:cut]), table, i)
                    for cut in range(len(macro))
                ):
                    prefix_ok_somewhere = True
        if matching and not prefix_ok_somewhere:
            return False, ("redundant", (j, i), matching[0])
    return True, None
