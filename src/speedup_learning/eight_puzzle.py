"""The Eight Puzzle: boards, moves, solvability, subgoal search, teacher.

A board is a tuple of 9 feature values, one per tile (tile 0 is the blank),
each value a position 0..8.  Position 0 is the center; positions 1..8 ring
the border clockwise from the top-left:

        1 2 3
        8 0 4
        7 6 5

The goal places tile i at position i (blank in the center).  Moves are
named for the direction the *tile* slides: "r" moves the tile left of the
blank rightward into it, and so on.  Operator indices are r=1, l=2, u=3,
d=4, which is also the search tie-break order.

The move rule is written once.  ``_MOVE_SRC[blank]`` maps each operator
index legal with the blank at ``blank`` to the position its tile comes
from, in operator order; ``_slide`` is the only code that moves a tile.
``apply_move``, ``apply_moves``, the ``domain_spec()`` operators, the
subgoal searches and ``all_solvable_boards`` all go through the two; the
first two are the move entry points that also take a letter.
"""

from __future__ import annotations

import functools
import math
import random
from collections import deque
from operator import itemgetter
from typing import Optional, Sequence

from .core import DomainSpec
from .errors import MoveError, ParameterError
from .macro_tables import (
    FeatureOrdering,
    MacroTable,
    check_feature_state,
    solution_steps,
    walk_columns,
)

N_TILES = 9
N_POSITIONS = 9
GOAL = tuple(range(9))

# position -> (row, col)
COORD = {
    0: (1, 1),
    1: (0, 0), 2: (0, 1), 3: (0, 2),
    4: (1, 2), 8: (1, 0),
    7: (2, 0), 6: (2, 1), 5: (2, 2),
}
_POS_AT = {rc: p for p, rc in COORD.items()}

MOVE_LETTERS = "rlud"
_LETTER_OF = dict(enumerate(MOVE_LETTERS, start=1))
_OP_OF = {m: op for op, m in _LETTER_OF.items()}
# Where operator op's tile comes from, relative to the blank's (row, col).
_SOURCE_DELTA = ((0, -1), (0, 1), (1, 0), (-1, 0))
# blank position -> {operator index: source position}, legal moves only.
_MOVE_SRC = {
    p: {op: _POS_AT[r + dr, c + dc]
        for op, (dr, dc) in enumerate(_SOURCE_DELTA, start=1) if (r + dr, c + dc) in _POS_AT}
    for p, (r, c) in COORD.items()
}
# operator index -> the operator that undoes it
_BACK = (None, 2, 1, 4, 3)


def _slide(board: tuple, src: int) -> tuple:
    """Slide the tile at position ``src`` into the blank; ParameterError
    when no tile sits there."""
    out = list(board)
    try:
        out[board.index(src)] = board[0]
    except ValueError:
        raise ParameterError(f"no tile at position {src} on board {board!r}") from None
    out[0] = src
    return tuple(out)


def _move_source(board: tuple, move) -> int:
    """The position ``move`` slides a tile from; the typed errors of
    ``apply_move``, without its board check."""
    op = _OP_OF.get(move) if isinstance(move, str) else move
    if not isinstance(op, int):
        raise ParameterError(f"a move is one of {MOVE_LETTERS!r} or an int, got {move!r}")
    try:
        src = _MOVE_SRC[board[0]].get(op)
    except KeyError:
        raise MoveError(f"blank position {board[0]!r} is not on the board") from None
    if src is None:
        raise MoveError(f"move {move!r} not applicable with blank at {board[0]}")
    return src


def apply_move(board: tuple, move) -> tuple:
    """Slide one tile; ``move`` is a letter or its 1-based operator index.
    An off-board blank or a move it forbids raises MoveError; a move that
    is neither one of ``MOVE_LETTERS`` nor an int, and a board that is not
    a permutation of 0..8, raise ParameterError."""
    src = _move_source(board, move)
    return _slide(_check_board(board), src)


def apply_moves(board: tuple, moves) -> tuple:
    """Slide tiles by each move in turn (letters or operator indices).

    The board is checked once, before any move: one that is not a
    permutation of 0..8 raises ParameterError, an off-board blank
    included.  Each move then raises what ``apply_move`` raises for it, at
    the same step."""
    board = _check_board(board)
    for m in moves:
        board = _slide(board, _move_source(board, m))
    return board


@functools.lru_cache(maxsize=256)
def _macro_permutation(blank: int, macro: tuple) -> Optional[tuple]:
    """Where each position's tile ends up when ``macro`` runs with the blank
    at ``blank``: ``perm[p]`` is the final position of the tile that started
    at p.  None when some move of the macro is illegal; KeyError (nothing
    memoized) when ``blank`` is not a position."""
    at = list(range(N_POSITIONS))  # at[q]: start position of the tile now at q
    src_of = _MOVE_SRC[blank]
    for op in macro:
        src = src_of.get(op)
        if src is None:
            return None
        at[blank], at[src] = at[src], at[blank]
        blank = src
        src_of = _MOVE_SRC[blank]
    perm = [0] * N_POSITIONS
    for q, p in enumerate(at):
        perm[p] = q
    return tuple(perm)


def apply_macro(board: tuple, macro: tuple) -> tuple:
    """Apply a whole macro (a tuple of operator indices) at once.

    Which moves are legal, and which position each move slides a tile from,
    depend only on where the blank is.  So from a fixed blank start a macro
    always moves tiles by the same permutation of the nine positions,
    whatever tiles sit where; the permutation is memoized per (blank,
    macro), and applying it is one C-level gather,
    ``itemgetter(*board)(perm)``.  A macro with an illegal move is folded
    through ``apply_move`` instead, so the same ``MoveError`` is raised at
    the same step.  A board of other than nine entries (from one entry
    the gather returns a position, not a board), a tile position that is
    not an int below 9, and a list macro, which the memo cannot key, raise
    ``ParameterError``.  A negative position or a tile placed twice is not
    caught here; ``walk_columns`` checks its board before the walk.
    """
    try:
        if len(board) != N_TILES:
            raise ParameterError(f"a board has {N_TILES} entries, got {board!r}")
        perm = _macro_permutation(board[0], macro)
    except KeyError:
        perm = None
    except TypeError:  # no board, or a memo key that does not hash: a list, say
        raise ParameterError(f"expected a tuple macro on a board: {macro!r} on {board!r}") from None
    if perm is None:
        for op in macro:
            board = apply_move(board, op)
        return board
    try:
        return itemgetter(*board)(perm)
    except (IndexError, TypeError):
        raise ParameterError(f"tile positions must be integers in 0..8: {board!r}") from None


def macro_to_letters(macro: Sequence[int]) -> str:
    try:
        return "".join([_LETTER_OF[op] for op in macro])
    except (KeyError, TypeError):
        raise ParameterError(
            f"operator indices must lie in 1..{len(MOVE_LETTERS)}: {macro!r}"
        ) from None


def letters_to_macro(letters: str) -> tuple:
    try:
        return tuple(_OP_OF[m] for m in letters)
    except (KeyError, TypeError):
        raise ParameterError(f"bad move letter in {letters!r}") from None


def board_to_text(board: tuple) -> str:
    """9 digits in position order: character p is the tile at position p.
    ParameterError unless ``board`` puts tiles 0..8 on nine distinct
    positions."""
    at = [None] * 9
    for tile, pos in enumerate(_check_board(board)):
        at[pos] = tile
    return "".join(str(t) for t in at)


def text_to_board(text: str) -> tuple:
    if len(text) != 9 or sorted(text) != list("012345678"):
        raise ParameterError(f"board text must be a permutation of 0-8: {text!r}")
    board = [0] * 9
    for pos, ch in enumerate(text):
        board[int(ch)] = pos
    return tuple(board)


def manhattan(pos_a: int, pos_b: int) -> int:
    (ra, ca), (rb, cb) = COORD[pos_a], COORD[pos_b]
    return abs(ra - rb) + abs(ca - cb)


# blank position -> parity of its Manhattan distance from the center
_BLANK_PARITY = tuple(manhattan(p, GOAL[0]) & 1 for p in range(N_POSITIONS))


def _inversion_parity(board: tuple) -> int:
    """Parity of the board's inversions (pairs of tiles out of order), which
    is the parity of the permutation: 0 when even, 1 when odd."""
    seen = inversions = 0
    for p in board:
        inversions += (seen >> p).bit_count()  # earlier tiles at higher positions
        seen |= 1 << p
    return inversions & 1


def is_solvable(board: tuple) -> bool:
    """Parity test: each move flips the permutation's parity and changes the
    blank's Manhattan distance from the center by one, so a board is
    reachable iff its inversion parity equals the parity of that distance.
    Checked against breadth-first search over all 9! boards in the tests.
    ParameterError unless ``board`` puts tiles 0..8 on nine distinct
    positions."""
    board = _check_board(board)
    return _inversion_parity(board) == _BLANK_PARITY[board[0]]


# (n, bits) for each draw of random.sample(range(9), 9): a draw below n
# takes getrandbits(n.bit_length()) until the value is below n.
_DRAWS = tuple((n, n.bit_length()) for n in range(N_POSITIONS, 0, -1))


def random_solvable(rng: random.Random) -> tuple:
    """The first solvable board among ``tuple(rng.sample(range(9), 9))``
    draws, with ``rng`` left in the same state.

    The draw calls ``rng.getrandbits`` exactly as CPython's ``sample`` does
    for this call (a test pins it): the pool method, each index drawn by
    rejection, the last pool entry moved into the taken one.  That move is
    a transposition whenever the index is not the last, and the output is
    the final pool reversed, an even permutation of nine.  So the count of
    such moves gives the board's parity, and solvability needs no
    inversion count.
    """
    getrandbits = rng.getrandbits
    while True:
        pool = list(range(N_POSITIONS))
        board = []
        parity = 0
        for n, bits in _DRAWS:
            j = getrandbits(bits)
            while j >= n:
                j = getrandbits(bits)
            board.append(pool[j])
            if j != n - 1:
                pool[j] = pool[n - 1]
                parity ^= 1
        if parity == _BLANK_PARITY[board[0]]:
            return tuple(board)


def all_solvable_boards():
    """The 181 440 boards reachable from the goal, by breadth-first search."""
    seen = {GOAL}
    frontier = deque([GOAL])
    while frontier:
        b = frontier.popleft()
        for src in _MOVE_SRC[b[0]].values():
            nb = _slide(b, src)
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen


def _operator(op: int):
    """``apply_move`` for one fixed operator, as a domain operator
    ``op(board, loc)``: the slide runs directly under ``DomainSpec.apply``."""
    move = _LETTER_OF[op]
    src_of = {p: srcs.get(op) for p, srcs in _MOVE_SRC.items()}

    def run(board, loc):
        src = src_of.get(board[0])
        if src is None:
            raise MoveError(f"move {move!r} not applicable with blank at {board[0]}")
        return _slide(board, src)

    return run


def domain_spec() -> DomainSpec:
    return DomainSpec(
        goal_test=lambda b: b == GOAL,
        operators=tuple(_operator(op) for op in _LETTER_OF),
        macro_runner=apply_macro,
    )


def blank_first_ordering() -> FeatureOrdering:
    return FeatureOrdering(tuple(range(9)))


def blank_last_ordering() -> FeatureOrdering:
    return FeatureOrdering(tuple(range(1, 9)) + (0,))


# ---------------------------------------------------------------------------
# IDA* subgoal search
# ---------------------------------------------------------------------------

# The search outcome depends only on the subgoal tiles' positions: move
# applicability depends on the blank (always in the subgoal under a
# blank-first ordering) and effects on subgoal tiles depend on nothing
# else.  Results are therefore cached globally across teachers and trials.
_subgoal_cache: dict = {}


def _at_goal(board, tiles) -> bool:
    return all(board[t] == GOAL[t] for t in tiles)


def _heuristic(board, tiles):
    return sum(manhattan(board[t], GOAL[t]) for t in tiles if t != 0)


def _check_board(board) -> tuple:
    """The board as a tuple; ParameterError unless it puts tiles 0..8 on
    nine distinct positions."""
    board = check_feature_state(board, N_TILES, N_POSITIONS)
    if len(set(board)) != N_TILES:
        raise ParameterError(f"board must be a permutation of 0..8: {board!r}")
    return board


def ida_star_subgoal(board: tuple, i: int, ordering: FeatureOrdering) -> tuple:
    """Shortest move sequence bringing ordered features 1..i to their goal
    values, as operator indices.  Deterministic: IDA* with the Manhattan
    heuristic over the non-blank subgoal tiles, move order r<l<u<d, and
    parent-reversal pruning.
    """
    board = _check_board(board)
    tiles = ordering.perm[:i]
    key = (ordering.perm, i, tuple(board[t] for t in tiles))
    hit = _subgoal_cache.get(key)
    if hit is not None:
        return hit
    # Fixing 8 or 9 features pins the whole board, so the subgoal is the
    # goal itself; IDA* is a tree search and would deepen forever.  With two
    # or more tiles free, a swap of them absorbs the parity.
    if i >= N_TILES - 1 and not is_solvable(board):
        raise ParameterError("subgoal unreachable; board is not solvable")

    bound = _heuristic(board, tiles)
    while True:
        bound, found = _ida_search(tiles, board, 0, bound, None, [])
        if found is not None:
            _subgoal_cache[key] = found
            return found
        if bound == math.inf:
            raise ParameterError("subgoal unreachable; board is not solvable")


def _ida_search(tiles, b, g, bound, back, path):
    """One bounded depth-first pass of ``ida_star_subgoal`` from board ``b``
    at cost ``g``: ``(f, moves)`` on reaching the subgoal, else ``(least f
    over the bound, None)``.  Module-level, not a closure: a closure that
    calls itself is a reference cycle, which only the cyclic collector
    frees."""
    f = g + _heuristic(b, tiles)
    if f > bound:
        return f, None
    if _at_goal(b, tiles):
        return f, tuple(path)
    nxt = math.inf
    for op, src in _MOVE_SRC[b[0]].items():
        if op == back:
            continue
        path.append(op)
        t, found = _ida_search(tiles, _slide(b, src), g + 1, bound, _BACK[op], path)
        path.pop()
        if found is not None:
            return t, found
        if t < nxt:
            nxt = t
    return nxt, None


def bfs_subgoal(board: tuple, i: int, ordering: FeatureOrdering) -> tuple:
    """Breadth-first subgoal solver; optimality oracle for ida_star_subgoal."""
    board = _check_board(board)
    tiles = ordering.perm[:i]
    if _at_goal(board, tiles):
        return ()
    seen = {board}
    frontier = deque([(board, ())])
    while frontier:
        b, path = frontier.popleft()
        for op, src in _MOVE_SRC[b[0]].items():
            nb = _slide(b, src)
            if nb in seen:
                continue
            npath = path + (op,)
            if _at_goal(nb, tiles):
                return npath
            seen.add(nb)
            frontier.append((nb, npath))
    raise ParameterError("subgoal unreachable; board is not solvable")


# ---------------------------------------------------------------------------
# Teachers and tables
# ---------------------------------------------------------------------------


def integrated_teacher(board: tuple, table: MacroTable) -> tuple:
    """Solve by columns, reusing the table's macros; where the walk stops
    at an unfilled cell, search from the board it reached, insert the
    macro and walk again.  Every solution it emits is generable from the
    single table it is growing."""
    while True:
        cells, state, missing = walk_columns(table, board, apply_macro)
        if missing is None:
            return solution_steps(table, cells)
        table.insert(*missing, ida_star_subgoal(state, missing[1], table.ordering))


def _canonical_state(i: int, j: int, ordering: FeatureOrdering) -> Optional[tuple]:
    """A solvable board with ordered features 1..i-1 at goal and feature i
    at value j, or None when no such board exists."""
    board = [None] * 9
    used = set()
    for t in ordering.perm[:i - 1]:
        board[t] = GOAL[t]
        used.add(GOAL[t])
    t_i = ordering.feature(i)
    if j in used:
        return None
    board[t_i] = j
    used.add(j)
    rest_tiles = [t for t in range(9) if board[t] is None]
    rest_positions = [p for p in range(9) if p not in used]
    for t, p in zip(rest_tiles, rest_positions):
        board[t] = p
    if is_solvable(tuple(board)):
        return tuple(board)
    if len(rest_tiles) >= 2:
        a, b = rest_tiles[-2], rest_tiles[-1]
        board[a], board[b] = board[b], board[a]
        return tuple(board)
    return None  # parity forces the remaining tiles; value j is unreachable


def build_exhaustive_table() -> MacroTable:
    """Fill every reachable cell of the blank-first table by per-cell
    subgoal search.

    Serial decomposability makes one canonical state per cell sufficient:
    the macro's effect on the constrained features is the same for every
    state matching the cell's precondition.
    """
    ordering = blank_first_ordering()
    table = MacroTable(N_TILES, N_POSITIONS, GOAL, ordering)
    for i in range(1, N_TILES + 1):
        for j in range(N_POSITIONS):
            state = _canonical_state(i, j, ordering)
            if state is None:
                continue
            table.insert(j, i, ida_star_subgoal(state, i, ordering))
    return table


def table_trajectory(table: MacroTable, board: tuple):
    """The cells macro_solve would use on this board, with the solution.

    Returns (cells, solution) where cells is a list of (j, i); raises
    ParameterError when the table lacks a needed cell.
    """
    cells, _, missing = walk_columns(table, board, apply_macro)
    if missing is not None:
        raise ParameterError(f"table is missing cell {missing}")
    return cells, solution_steps(table, cells)
