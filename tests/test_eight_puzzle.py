import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedup_learning import eight_puzzle as ep
from speedup_learning.core import replay
from speedup_learning.errors import MoveError, ParameterError
from speedup_learning.macro_tables import MacroTable


def test_geometry():
    # center plus a clockwise border ring from the top-left
    assert ep.COORD[0] == (1, 1)
    assert ep.COORD[1] == (0, 0)
    assert ep.COORD[5] == (2, 2)
    assert sorted(ep.COORD) == list(range(9))
    assert ep.manhattan(1, 5) == 4
    assert ep.manhattan(0, 0) == 0


def test_board_text_round_trip():
    assert ep.board_to_text(ep.GOAL) == "012345678"
    rng = random.Random(1)
    for _ in range(50):
        b = tuple(rng.sample(range(9), 9))
        assert ep.text_to_board(ep.board_to_text(b)) == b
    with pytest.raises(ParameterError):
        ep.text_to_board("012345677")
    with pytest.raises(ParameterError):
        ep.text_to_board("01234567")
    for bad in [(0, 1, 2, 3, 4, 5, 6, 7, 12), (0, 1, 2, 3, 4, 5, 6, 7, 7), (0, 1, 2), "012345678"]:
        with pytest.raises(ParameterError):
            ep.board_to_text(bad)


def test_moves_and_inverses():
    rng = random.Random(2)
    for _ in range(100):
        b = ep.random_solvable(rng)
        for op in ep._MOVE_SRC[b[0]]:
            nb = ep.apply_move(b, op)
            assert nb != b
            assert ep.apply_move(nb, ep._BACK[op]) == b


def test_move_errors():
    # blank at center: every move is applicable; blank at a corner: two are
    center = ep.GOAL
    for m in ep.MOVE_LETTERS:
        ep.apply_move(center, m)
    corner = ep.apply_moves(center, "dr")  # blank ends at a corner
    legal = [ep.MOVE_LETTERS[op - 1] for op in ep._MOVE_SRC[corner[0]]]
    assert len(legal) == 2
    for m in set(ep.MOVE_LETTERS) - set(legal):
        with pytest.raises(MoveError):
            ep.apply_move(corner, m)
    # a wrong length or a tile twice is a typed error, not a ValueError or
    # an answer
    for board in ((0, 1, 2), (0, 1, 1, 3, 4, 5, 6, 7, 8)):
        with pytest.raises(ParameterError):
            ep.apply_move(board, "r")
    # so is a move that is neither a letter nor an int: a float does not
    # find its operator through 1.0 == 1, as letters_to_macro rejects "x"
    for move in (1.0, [1], "x", "rl", None):
        with pytest.raises(ParameterError):
            ep.apply_move(center, move)
    # a domain move slides only a tile that is on the board: position 2,
    # above the blank, holds no tile here
    with pytest.raises(ParameterError, match="no tile at position 2"):
        ep.domain_spec().apply((0, 1, 1, 3, 4, 5, 6, 7, 8), 4)


def _moved_or_error(apply, board, move):
    try:
        return apply(board, move)
    except MoveError as exc:
        return MoveError, exc


@pytest.mark.parametrize("blank", list(range(9)) + [9])
def test_every_move_entry_point_agrees(blank):
    # blank 9 is off the board: every entry point raises MoveError
    board = (blank,) + tuple(p for p in range(9) if p != blank)[:8]
    dom = ep.domain_spec()
    legal = 0
    for op, letter in enumerate(ep.MOVE_LETTERS, start=1):
        results = [
            _moved_or_error(ep.apply_move, board, op),
            _moved_or_error(ep.apply_move, board, letter),
            _moved_or_error(dom.apply, board, op),
            _moved_or_error(ep.apply_macro, board, (op,)),
        ]
        if results[0][0] is MoveError:
            assert all(r[0] is MoveError for r in results)
            assert repr(letter) in str(results[2][1])  # the operator names its letter
            continue
        legal += 1
        assert results == [results[0]] * 4
        nb = results[0]
        # one tile next to the blank slid into it
        assert blank < 9 and ep.manhattan(nb[0], blank) == 1
        assert sorted(t for t in range(9) if nb[t] != board[t]) == [0, board.index(nb[0])]
        assert ep.apply_move(nb, ep._BACK[op]) == board
    corners, edges = {1, 3, 5, 7}, {2, 4, 6, 8}
    assert legal == (2 if blank in corners else 3 if blank in edges else 4 if blank == 0 else 0)


def test_macro_letter_round_trip():
    assert ep.macro_to_letters((1, 4, 2, 3)) == "rdlu"
    assert ep.letters_to_macro("rdlu") == (1, 4, 2, 3)
    with pytest.raises(ParameterError):
        ep.letters_to_macro("rx")


def test_macro_to_letters_rejects_unknown_operators():
    # index 0 used to wrap around to "d" and index 5 to raise IndexError
    for macro in [(0,), (5,), (1, -1), (2, 3, 9)]:
        with pytest.raises(ParameterError):
            ep.macro_to_letters(macro)


def test_off_board_blank_raises_move_error_and_memoizes_nothing():
    board = (9, 1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(MoveError):
        ep.apply_move(board, "r")
    with pytest.raises(MoveError):
        ep.domain_spec().apply(board, 1)
    ep._macro_permutation.cache_clear()
    with pytest.raises(MoveError):
        ep.apply_macro(board, (1, 2))
    assert ep.apply_macro(board, ()) == board
    assert ep._macro_permutation.cache_info().currsize == 0


def test_subgoal_searches_reject_an_off_board_blank():
    # a typed error, not a KeyError from the move table or a ValueError from
    # a slide on a board with two tiles at one position
    for board, i in (((9, 1, 2, 3, 4, 5, 6, 7, 8), 2), ((0, 1, 1, 3, 4, 5, 6, 7, 8), 3)):
        for search in (ep.ida_star_subgoal, ep.bfs_subgoal):
            with pytest.raises(ParameterError):
                search(board, i, ep.blank_first_ordering())


def test_subgoal_searches_on_an_unsolvable_board():
    # tiles 1 and 2 swapped: fixing 8 or 9 features pins the whole board, so
    # the subgoal is out of reach; with two tiles free a swap absorbs parity
    board = list(ep.GOAL)
    board[1], board[2] = board[2], board[1]
    board = tuple(board)
    assert not ep.is_solvable(board)
    ordering = ep.blank_first_ordering()
    for i in (8, 9):
        for search in (ep.ida_star_subgoal, ep.bfs_subgoal):
            with pytest.raises(ParameterError):
                search(board, i, ordering)
        with pytest.raises(ParameterError):
            ep.ida_star_subgoal(board, i, ep.blank_last_ordering())
    for i in range(1, 8):
        plan = ep.ida_star_subgoal(board, i, ordering)
        assert len(plan) == len(ep.bfs_subgoal(board, i, ordering))
        end = ep.apply_macro(board, plan)
        assert all(end[t] == ep.GOAL[t] for t in ordering.perm[:i])


def _fold_moves(board, macro):
    for op in macro:
        board = ep.apply_move(board, op)
    return board


def _outcome(apply, board, macro):
    try:
        return apply(board, macro)
    except MoveError as exc:
        return "MoveError", str(exc)


@settings(max_examples=300, deadline=None)
@given(blank=st.integers(0, 8), rest=st.permutations(range(9)),
       choices=st.lists(st.integers(0, 5), max_size=32),
       illegal_at=st.none() | st.integers(0, 31))
def test_apply_macro_equals_move_fold(blank, rest, choices, illegal_at):
    # a legal random walk from the blank, with at most one illegal step
    # (a move the blank's position forbids, or an index outside 1..4)
    board = (blank,) + tuple(p for p in rest if p != blank)
    macro, b = [], blank
    for k, c in enumerate(choices):
        legal = [op for op in range(1, 5) if op in ep._MOVE_SRC[b]]
        if k == illegal_at:
            illegal = [op for op in range(6) if op not in legal]
            macro.append(illegal[c % len(illegal)])
            continue
        op = legal[c % len(legal)]
        macro.append(op)
        b = ep._MOVE_SRC[b][op]
    macro = tuple(macro)
    assert _outcome(ep.apply_macro, board, macro) == _outcome(_fold_moves, board, macro)
    # a macro is a tuple: a list of the same moves is a typed error
    with pytest.raises(ParameterError):
        ep.apply_macro(board, list(macro))
    info = ep._macro_permutation.cache_info()
    assert info.currsize <= info.maxsize


def test_apply_macro_rejects_a_board_of_the_wrong_length():
    # on one entry the gather would return a position, not a board; on
    # three, the null macro would hand back a non-board
    for board in ((0,), (0, 1, 2), ep.GOAL + (9,)):
        for macro in ((), (3,), (3, 4)):
            with pytest.raises(ParameterError):
                ep.apply_macro(board, macro)
    # so is a tile position the gather cannot read
    for bad in ((0, 1, 2, 3, 4, 5, 6, 7, 99), (0, 1, 2, 3, 4, 5, 6, 7, "8")):
        with pytest.raises(ParameterError):
            ep.apply_macro(bad, (3, 4))
    # the other paths are as they were: an illegal move raises MoveError at
    # its step, and a list macro raises ParameterError
    corner = ep.apply_moves(ep.GOAL, "dr")
    legal = min(ep._MOVE_SRC[corner[0]])
    illegal = next(op for op in range(1, 5) if op not in ep._MOVE_SRC[corner[0]])
    macro = (legal, ep._BACK[legal], illegal)  # out and back, then the illegal move
    with pytest.raises(MoveError) as err:
        ep.apply_macro(corner, macro)
    assert str(err.value) == _outcome(_fold_moves, corner, macro)[1]
    with pytest.raises(ParameterError):
        ep.apply_macro(ep.GOAL, [3, 4])
    assert ep.apply_macro(ep.GOAL, (3, 4)) == ep.GOAL


@settings(max_examples=200, deadline=None)
@given(board=st.permutations(range(9)).map(tuple),
       moves=st.lists(st.sampled_from(list(ep.MOVE_LETTERS) + [1, 2, 3, 4, 0, 5, 1.0, "x", None]),
                      max_size=12))
def test_apply_moves_equals_the_apply_move_fold(board, moves):
    # the board is checked once, then each move raises what apply_move
    # raises for it, at the same step
    def outcome(apply):
        try:
            return apply()
        except (MoveError, ParameterError) as exc:
            return type(exc), str(exc)

    assert outcome(lambda: ep.apply_moves(board, moves)) == outcome(lambda: _fold_moves(board, moves))


def test_apply_moves_checks_its_board_before_any_move():
    # even an off-board blank, which apply_move reports as a MoveError, and
    # an empty move sequence
    for bad in ((9, 1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 1, 3, 4, 5, 6, 7, 8), (0, 1, 2)):
        for moves in ("", "r", "x", (9,)):
            with pytest.raises(ParameterError):
                ep.apply_moves(bad, moves)
    assert ep.apply_moves(list(ep.GOAL), "") == ep.GOAL


def test_moves_flip_parity():
    rng = random.Random(3)
    for _ in range(50):
        b = ep.random_solvable(rng)
        for m in ep.MOVE_LETTERS:
            try:
                nb = ep.apply_move(b, m)
            except MoveError:
                continue
            assert ep._inversion_parity(nb) != ep._inversion_parity(b)


def test_is_solvable_against_reachability(all_boards):
    assert len(all_boards) == 181440
    solvable = {b for b in itertools.permutations(range(ep.N_TILES)) if ep.is_solvable(b)}
    assert solvable == all_boards


def test_is_solvable_rejects_non_boards():
    # two tiles at one position, a wrong length, an off-board position
    for board in ((0, 1, 1, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 4, 5, 6, 7),
                  (9, 1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 4, 5, 6, 7, -1)):
        with pytest.raises(ParameterError):
            ep.is_solvable(board)


def test_random_solvable_is_solvable_and_seeded():
    # five draws from one stream per side: the same seed gives the same
    # boards, and the stream moves on from board to board
    rng_a, rng_b = random.Random(5), random.Random(5)
    a = [ep.random_solvable(rng_a) for _ in range(5)]
    b = [ep.random_solvable(rng_b) for _ in range(5)]
    assert a == b
    assert len(set(a)) > 1
    assert all(ep.is_solvable(x) for x in a)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers() | st.text(), draws=st.integers(1, 40))
def test_random_solvable_draws_the_same_stream_as_random_sample(seed, draws):
    # random_solvable reimplements CPython's random.sample(range(9), 9) on
    # getrandbits; an interpreter that draws differently fails here instead
    # of changing the curves
    fast, ref = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        board = tuple(ref.sample(range(9), 9))
        while not ep.is_solvable(board):
            board = tuple(ref.sample(range(9), 9))
        assert ep.random_solvable(fast) == board
    assert fast.getstate() == ref.getstate()


def test_ida_star_matches_bfs_lengths():
    rng = random.Random(6)
    ordering = ep.blank_first_ordering()
    for _ in range(30):
        b = ep.random_solvable(rng)
        i = rng.randrange(1, 4)
        got = ep.ida_star_subgoal(b, i, ordering)
        opt = ep.bfs_subgoal(b, i, ordering)
        assert len(got) == len(opt)
        # the macro really achieves the subgoal
        end = ep.apply_moves(b, ep.macro_to_letters(got))
        for p in range(1, i + 1):
            t = ordering.feature(p)
            assert end[t] == ep.GOAL[t]


def test_ida_star_deterministic():
    rng = random.Random(7)
    b = ep.random_solvable(rng)
    first = ep.ida_star_subgoal(b, 3, ep.blank_first_ordering())
    ep._subgoal_cache.clear()
    assert ep.ida_star_subgoal(b, 3, ep.blank_first_ordering()) == first


def test_domain_spec_replay():
    dom = ep.domain_spec()
    board = ep.text_to_board("537081642")
    moves = ep.bfs_subgoal(board, 1, ep.blank_first_ordering())
    states = replay(dom, board, tuple((op, None) for op in moves))
    assert states[-1] == ep.apply_moves(board, ep.macro_to_letters(moves))
    assert states[-1][0] == 0  # blank centered


def test_integrated_teacher_solves_and_reuses():
    rng = random.Random(8)
    ordering = ep.blank_first_ordering()
    table = MacroTable(ep.N_TILES, ep.N_POSITIONS, ep.GOAL, ordering)
    b = ep.random_solvable(rng)
    solution = ep.integrated_teacher(b, table)
    end = ep.apply_moves(b, ep.macro_to_letters([op for op, _ in solution]))
    assert end == ep.GOAL
    first_fill = table.filled_count()
    assert first_fill <= 9
    # a second identical board reuses every macro
    assert ep.integrated_teacher(b, table) == solution
    assert table.filled_count() == first_fill


def test_exhaustive_table_shape(exhaustive_table):
    assert exhaustive_table.filled_count() == 44
    assert exhaustive_table.nonempty_count() == 35
    # tile 1 at the top-middle with the blank centered: the classic rdlu
    assert ep.macro_to_letters(exhaustive_table.get(2, 2)) == "rdlu"
    # tile 1 in the center is unreachable once the blank is centered
    assert exhaustive_table.get(0, 2) is None
    # goal column cells are null macros
    for i in range(1, 10):
        assert exhaustive_table.get(ep.GOAL[ep.blank_first_ordering().feature(i)], i) == ()


def test_canonical_states_match_their_cells():
    ordering = ep.blank_first_ordering()
    for i in range(1, ep.N_TILES + 1):
        for j in range(ep.N_POSITIONS):
            state = ep._canonical_state(i, j, ordering)
            if state is None:
                continue
            assert ep.is_solvable(state)
            for p in range(1, i):
                t = ordering.feature(p)
                assert state[t] == ep.GOAL[t]
            assert state[ordering.feature(i)] == j


def test_table_trajectory_agrees_with_macro_solve(exhaustive_table):
    from speedup_learning.macro_tables import macro_solve
    rng = random.Random(9)
    dom = ep.domain_spec()
    for _ in range(30):
        b = ep.random_solvable(rng)
        cells, solution = ep.table_trajectory(exhaustive_table, b)
        assert macro_solve(exhaustive_table, dom, b) == solution
        assert len(cells) == 9


def test_orderings():
    assert ep.blank_first_ordering().feature(1) == 0
    assert ep.blank_last_ordering().feature(9) == 0
