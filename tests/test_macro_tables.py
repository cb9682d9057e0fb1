import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedup_learning import eight_puzzle as ep
from speedup_learning.core import BOTTOM, DomainSpec, Example, replay
from speedup_learning.errors import (
    INAPPLICABLE,
    InapplicableOperatorError,
    MalformedSolutionError,
    ParameterError,
    SpeedupLearningError,
    TableCorruptionError,
)
from speedup_learning.macro_tables import (
    FeatureOrdering,
    MacroTable,
    _prefix_at_goal,
    check_feature_state,
    check_serial_decomposability,
    macro_solve,
    serial_parse,
    serial_parse_into,
    verify_table,
    walk_columns,
)


def _toy_domain():
    """Two binary features; op1 flips feature 1, op2 sets feature 0 to
    feature 1 (so feature 0 depends on feature 1), and op3 clears feature 0
    but is inapplicable when feature 1 is set."""

    def flip_b(s, loc):
        return (s[0], 1 - s[1])

    def copy_b_to_a(s, loc):
        return (s[1], s[1])

    def clear_a(s, loc):
        if s[1]:
            raise InapplicableOperatorError("feature 1 is set")
        return (0, s[1])

    return DomainSpec(goal_test=lambda s: s == (0, 0), operators=(flip_b, copy_b_to_a, clear_a))


TOY_STATES = [(a, b) for a in range(2) for b in range(2)]


def _reference_decomposability(domain, ordering, states):
    """The first check_serial_decomposability, kept as the oracle: per
    operator, one dict per position from each projection to the first
    (effect, state) seen, scanned state by state.  It reads ``states`` once
    per operator, so it takes a list."""
    n = len(ordering.perm)
    for op_index in range(1, domain.num_operators + 1):
        outcomes = [dict() for _ in range(n + 1)]
        for s in states:
            try:
                t = domain.apply(s, op_index, None)
            except INAPPLICABLE:
                t = None  # operator inapplicable counts as an effect too
            for i in range(1, n + 1):
                proj = tuple(s[ordering.feature(p)] for p in range(1, i + 1))
                effect = None if t is None else t[ordering.feature(i)]
                seen = outcomes[i].get(proj)
                if seen is None:
                    outcomes[i][proj] = (effect, s)
                elif seen[0] != effect:
                    return False, (op_index, i, seen[1], s)
    return True, None


def test_feature_ordering_validation():
    FeatureOrdering((1, 0))
    for perm in ((0, 2), ("a", 0), (1.0, 0)):
        with pytest.raises(ParameterError):
            FeatureOrdering(perm)
    assert FeatureOrdering((2, 0, 1)).feature(1) == 2


def test_check_feature_state():
    assert check_feature_state([1, 0], 2, 2) == (1, 0)
    with pytest.raises(ParameterError):
        check_feature_state([1], 2, 2)
    for values in ([1, 5], ["a", 0], [0.0, 1], [None, 0]):
        with pytest.raises(ParameterError):
            check_feature_state(values, 2, 2)
    # the Eight Puzzle's entry points check boards through it
    with pytest.raises(ParameterError):
        ep.ida_star_subgoal(("a",) * 9, 1, ep.blank_first_ordering())
    with pytest.raises(ParameterError):
        ep.is_solvable((0.0, 1, 2, 3, 4, 5, 6, 7, 8))


def test_table_unfilled_vs_null_macro():
    t = MacroTable(2, 2, (0, 0), FeatureOrdering((0, 1)))
    assert t.get(0, 1) is None and not t.is_filled(0, 1)
    assert t.insert(0, 1, ())
    assert t.get(0, 1) == () and t.is_filled(0, 1)
    assert t.filled_count() == 1 and t.nonempty_count() == 0


def test_table_first_write_wins_and_limits():
    t = MacroTable(2, 2, (0, 0), FeatureOrdering((0, 1)))
    assert t.insert(1, 1, (1,))
    assert not t.insert(1, 1, (2, 2))
    assert t.get(1, 1) == (1,)
    assert t.insert(0, 2, (1,) * 32)
    with pytest.raises(ParameterError):
        t.insert(1, 2, (1,) * 33)
    assert not t.is_filled(1, 2)
    with pytest.raises(ParameterError):
        MacroTable(2, 2, (0, 0), FeatureOrdering((0,)))



def test_table_rejects_cells_outside_it():
    # values 0..v-1, positions 1..n
    t = MacroTable(2, 2, (0, 0), FeatureOrdering((0, 1)))
    for j, i in ((42, 0), (-1, 10), (2, 1), (-1, 1), (0, 0), (0, 3), ("a", 1), (0, 1.0)):
        with pytest.raises(ParameterError):
            t.insert(j, i, (1,))
    assert t.filled_count() == 0 and t.dump() == "? ?\n? ?\n"
    # a walk covers columns 0..n, from a state of n features
    assert walk_columns(t, (0, 0), lambda s, m: s, last=0) == ([], (0, 0), None)
    for last in (3, -1, "1"):
        with pytest.raises(ParameterError):
            walk_columns(t, (0, 0), lambda s, m: s, last=last)
    for state in ((0,), (0, 0, 0)):
        with pytest.raises(ParameterError):
            walk_columns(t, state, lambda s, m: s)


def test_table_dump():
    t = MacroTable(2, 2, (0, 0), FeatureOrdering((0, 1)))
    t.insert(0, 1, ())
    t.insert(1, 2, (1, 2))
    assert t.dump() == "- ?\n? 1.2\n"
    assert t.dump(op_letters="ab") == "- ?\n? ab\n"


def test_apply_macro_and_corruption():
    dom = _toy_domain()
    assert dom.apply_macro((1, 1), (2, 1)) == (1, 0)

    def partial(s, loc):
        raise InapplicableOperatorError("never applicable")

    broken = DomainSpec(goal_test=lambda s: False, operators=(partial,))
    with pytest.raises(TableCorruptionError):
        broken.apply_macro((0, 0), (1,))


def test_programming_errors_propagate_past_inapplicable_catches():
    # only the "inapplicable" errors mean an operator does not apply; a bug
    # in an operator must not be turned into a replay, table or effect result
    def buggy(s, loc):
        raise TypeError("bug in operator")

    dom = DomainSpec(goal_test=lambda s: False, operators=(buggy,))
    with pytest.raises(TypeError):
        replay(dom, (0, 0), ((1, None),))
    with pytest.raises(TypeError):
        dom.apply_macro((0, 0), (1,))
    with pytest.raises(TypeError):
        check_serial_decomposability(dom, FeatureOrdering((0, 1)), [(0, 0)])


def _step_by_step(dom):
    """The same domain without its macro runner."""
    return DomainSpec(goal_test=dom.goal_test, operators=dom.operators)


def _macro_outcome(dom, board, macro):
    try:
        return dom.apply_macro(board, macro)
    except (TableCorruptionError, ParameterError) as exc:
        return type(exc), str(exc), repr(exc.__cause__)


@settings(max_examples=300, deadline=None)
@given(blank=st.integers(0, 8), rest=st.permutations(range(9)),
       choices=st.lists(st.integers(0, 7), max_size=20),
       bad_at=st.none() | st.integers(0, 19))
def test_eight_puzzle_macro_runner_keeps_the_step_by_step_errors(blank, rest, choices, bad_at):
    # a legal walk from the blank with at most one bad step: a move the
    # blank's position forbids, or an index outside 1..4
    board = (blank,) + tuple(p for p in rest if p != blank)
    macro, b, bad = [], blank, None
    for k, c in enumerate(choices):
        legal = list(ep._MOVE_SRC[b])
        if k == bad_at:
            illegal = [op for op in range(-1, 7) if op not in legal]
            bad = illegal[c % len(illegal)]
            macro.append(bad)
            continue
        op = legal[c % len(legal)]
        macro.append(op)
        b = ep._MOVE_SRC[b][op]
    macro = tuple(macro)
    dom = ep.domain_spec()
    got = _macro_outcome(dom, board, macro)
    assert got == _macro_outcome(_step_by_step(dom), board, macro)
    if bad is None:
        assert got == ep.apply_macro(board, macro)
    elif 1 <= bad <= 4:
        assert got[0] is TableCorruptionError and f"step {bad} inapplicable" in got[1]
    else:
        assert got[0] is ParameterError


def test_table_walks_agree_with_and_without_the_macro_runner(exhaustive_table, all_boards):
    dom = ep.domain_spec()
    ref = _step_by_step(dom)
    sample = random.Random(4).sample(sorted(all_boards), 600)
    for b in sample:
        assert macro_solve(exhaustive_table, dom, b) == macro_solve(exhaustive_table, ref, b)
    corrupt = ep.build_exhaustive_table()
    j = 1  # blank at corner position 1, where "r" is illegal
    corrupt.cells[(j, 1)] = ep.letters_to_macro("r") + corrupt.cells[(j, 1)]
    padded = ep.build_exhaustive_table()
    padded.cells[(j, 1)] += ep.letters_to_macro("rl")
    for table in (exhaustive_table, padded):
        assert verify_table(table, dom, sample) == verify_table(table, ref, sample)
    board = next(b for b in sample if b[0] == j)
    outcomes = []
    for d in (dom, ref):
        with pytest.raises(TableCorruptionError) as err:
            macro_solve(corrupt, d, board)
        outcomes.append((str(err.value), repr(err.value.__cause__)))
    assert outcomes[0] == outcomes[1] and "step 1 inapplicable" in outcomes[0][0]


def test_macro_solve_toy_domain():
    dom = _toy_domain()
    ordering = FeatureOrdering((1, 0))  # feature 1 first: decomposable
    t = MacroTable(2, 2, (0, 0), ordering)
    t.insert(0, 1, ())
    t.insert(1, 1, (1,))
    t.insert(0, 2, ())
    t.insert(1, 2, (2,))
    for state in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        sol = macro_solve(t, dom, state)
        assert sol is not BOTTOM
        assert dom.apply_macro(state, tuple(op for op, _ in sol)) == (0, 0)
    t2 = MacroTable(2, 2, (0, 0), ordering)
    assert macro_solve(t2, dom, (1, 1)) is BOTTOM
    run = dom.apply_macro
    assert walk_columns(t2, (1, 1), run)[2] == (1, 1)
    assert walk_columns(t, (1, 1), run)[2] is None


def test_a_walk_checks_its_board_before_the_first_column(exhaustive_table):
    # -1 would index the permutation from its end and give an empty
    # solution for a non-board; 99 would index past it
    dom = ep.domain_spec()
    for bad in ((0, 1, 2, 3, 4, 5, 6, 7, -1), (0, 1, 2, 3, 4, 5, 6, 7, 99), ep.GOAL[:8] + (8.0,)):
        with pytest.raises(ParameterError):
            macro_solve(exhaustive_table, dom, bad)
        with pytest.raises(ParameterError):
            walk_columns(exhaustive_table, bad, ep.apply_macro)
        with pytest.raises(ParameterError):
            walk_columns(exhaustive_table, bad, ep.apply_macro, last=0)
    # a list board is walked as its tuple
    board = ep.text_to_board("537081642")
    assert macro_solve(exhaustive_table, dom, list(board)) == macro_solve(exhaustive_table, dom, board)


def _prefix_by_features(state, table, upto):
    return all(state[table.ordering.feature(p)] == table.goal[table.ordering.feature(p)]
               for p in range(1, upto + 1))


@settings(max_examples=200, deadline=None)
@given(goal=st.permutations(range(9)), blank_last=st.booleans(), at_goal=st.integers(0, 9),
       data=st.data())
def test_prefix_at_goal_is_one_key_compare(goal, blank_last, at_goal, data):
    # a board whose first at_goal ordered features hold their goal values
    # and the rest a drawn permutation, so every prefix length is tested on
    # boards that pass it and on boards that fail it
    ordering = ep.blank_last_ordering() if blank_last else ep.blank_first_ordering()
    table = MacroTable(ep.N_TILES, ep.N_POSITIONS, tuple(goal), ordering)
    board = [None] * ep.N_TILES
    for t in ordering.perm[:at_goal]:
        board[t] = goal[t]
    rest = data.draw(st.permutations([p for p in range(9) if p not in board]))
    for t, p in zip(ordering.perm[at_goal:], rest):
        board[t] = p
    board = tuple(board)
    for upto in range(ep.N_TILES + 1):
        assert _prefix_at_goal(board, table, upto) == _prefix_by_features(board, table, upto)
        if upto <= at_goal:
            assert _prefix_at_goal(board, table, upto)


def test_prefix_at_goal_on_a_one_feature_table():
    # a one-feature getter returns a value, not a tuple: it must compare
    # with the goal's value
    table = MacroTable(1, 3, (2,), FeatureOrdering((0,)))
    assert [_prefix_at_goal((x,), table, 1) for x in range(3)] == [False, False, True]
    assert all(_prefix_at_goal((x,), table, 0) for x in range(3))


def test_serial_parse_recovers_trajectory_cells(exhaustive_table):
    dom = ep.domain_spec()
    board = ep.text_to_board("537081642")
    cells, solution = ep.table_trajectory(exhaustive_table, board)
    learned = serial_parse(dom, [Example(board, solution)],
                           ep.N_TILES, ep.N_POSITIONS, ep.GOAL,
                           ep.blank_first_ordering())
    assert set(learned.cells) == set(cells)
    for cell in cells:
        assert learned.get(*cell) == exhaustive_table.get(*cell)
    # replaying the same example changes nothing
    before = dict(learned.cells)
    serial_parse_into(learned, dom, Example(board, solution))
    assert learned.cells == before


def test_serial_parse_skips_bottom_and_rejects_malformed():
    dom = ep.domain_spec()
    ordering = ep.blank_first_ordering()
    t = serial_parse(dom, [Example(ep.GOAL, BOTTOM)],
                     ep.N_TILES, ep.N_POSITIONS, ep.GOAL, ordering)
    assert t.filled_count() == 0
    board = ep.text_to_board("537081642")
    with pytest.raises(MalformedSolutionError):
        serial_parse_into(t, dom, Example(board, ()))  # never reaches goal
    # a board of the wrong length is a typed error, not an IndexError or a
    # ValueError, when solved or parsed
    with pytest.raises(ParameterError):
        macro_solve(t, dom, (0, 1, 2))
    with pytest.raises(ParameterError):
        serial_parse_into(t, dom, Example((0, 1, 2), ((1, None),)))
    assert t.filled_count() == 0


def test_a_rejected_example_leaves_the_macro_table_as_it_was():
    dom = ep.domain_spec()
    ordering = ep.blank_first_ordering()
    teacher = MacroTable(ep.N_TILES, ep.N_POSITIONS, ep.GOAL, ordering)
    learned = MacroTable(ep.N_TILES, ep.N_POSITIONS, ep.GOAL, ordering)
    board = ep.text_to_board("537081642")
    solution = ep.integrated_teacher(board, teacher)
    # the first half reaches some columns' subgoals but not the goal
    with pytest.raises(MalformedSolutionError):
        serial_parse_into(learned, dom, Example(board, solution[:len(solution) // 2]))
    assert learned.cells == {}
    with pytest.raises(SpeedupLearningError):
        serial_parse_into(learned, dom, Example(board, ((1,),)))
    assert learned.cells == {}
    # 34 moves that undo each other, before the last move, make the last
    # column's macro longer than a table stores; earlier columns cut fine
    padded = solution[:-1] + tuple((op, None) for op in ep.letters_to_macro("ud" * 17)) \
        + solution[-1:]
    with pytest.raises(ParameterError):
        serial_parse_into(learned, dom, Example(board, padded))
    assert learned.cells == {}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trained=st.integers(0, 6), data=st.data())
def test_a_macro_table_that_rejects_a_cut_solution_is_unchanged(seed, trained, data):
    rng = random.Random(seed)
    dom = ep.domain_spec()
    ordering = ep.blank_first_ordering()
    teacher = MacroTable(ep.N_TILES, ep.N_POSITIONS, ep.GOAL, ordering)
    learned = MacroTable(ep.N_TILES, ep.N_POSITIONS, ep.GOAL, ordering)
    for _ in range(trained):
        board = ep.random_solvable(rng)
        serial_parse_into(learned, dom, Example(board, ep.integrated_teacher(board, teacher)))
    board = ep.random_solvable(rng)
    solution = ep.integrated_teacher(board, teacher)
    cut = data.draw(st.integers(0, len(solution)))
    before = dict(learned.cells)
    try:
        serial_parse_into(learned, dom, Example(board, solution[:cut]))
    except SpeedupLearningError:
        assert learned.cells == before


def test_check_serial_decomposability_toy():
    dom = _toy_domain()
    ok, witness = check_serial_decomposability(dom, FeatureOrdering((1, 0)), TOY_STATES)
    assert ok and witness is None
    bad, witness = check_serial_decomposability(dom, FeatureOrdering((0, 1)), TOY_STATES)
    assert not bad
    op_index, position, s_a, s_b = witness
    assert op_index == 2 and position == 1
    assert s_a[0] == s_b[0] and s_a[1] != s_b[1]
    # without op2, op3's inapplicability is the effect that depends on feature 1
    no_copy = DomainSpec(goal_test=dom.goal_test, operators=dom.operators[::2])
    assert check_serial_decomposability(no_copy, FeatureOrdering((0, 1)), TOY_STATES) \
        == (False, (2, 1, (0, 0), (0, 1)))
    # a state of the wrong length is a typed error, not an answer
    for wrong in ((0, 1, 2), (0,)):
        with pytest.raises(ParameterError):
            check_serial_decomposability(dom, FeatureOrdering((1, 0)), TOY_STATES + [wrong])
    # so is an Eight Puzzle board with a tile twice, where a move reaches
    # the position no tile holds
    with pytest.raises(ParameterError):
        check_serial_decomposability(ep.domain_spec(), ep.blank_first_ordering(),
                                     [(0, 1, 1, 3, 4, 5, 6, 7, 8)])


def test_check_serial_decomposability_reads_states_once():
    # a one-pass iterable is checked for every operator, not the first only
    dom = _toy_domain()
    ordering = FeatureOrdering((0, 1))
    got = check_serial_decomposability(dom, ordering, iter(TOY_STATES))
    assert got == check_serial_decomposability(dom, ordering, TOY_STATES)
    assert got == (False, (2, 1, (0, 0), (0, 1)))


_ORDERINGS = st.one_of(st.sampled_from((ep.blank_first_ordering(), ep.blank_last_ordering())),
                       st.permutations(range(ep.N_TILES)).map(lambda p: FeatureOrdering(tuple(p))))


@pytest.fixture(scope="module")
def sorted_boards(all_boards):
    return sorted(all_boards)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.one_of(st.integers(0, 40), st.integers(0, 2000)),
       ordering=_ORDERINGS, in_order=st.booleans())
def test_decomposability_matches_reference_on_board_subsets(sorted_boards, seed, size, ordering,
                                                            in_order):
    boards = random.Random(seed).sample(sorted_boards, size)  # drawn in shuffled order
    if in_order:
        boards.sort()
    dom = ep.domain_spec()
    assert check_serial_decomposability(dom, ordering, boards) \
        == _reference_decomposability(dom, ordering, boards)


def _small_domain(rng):
    """2-4 features over 2-3 values with 1-3 operators.  Each feature's
    effect, and whether the operator applies at all, is a random function
    of a random subset of the features, so which orderings are
    decomposable varies, and so do the witnesses."""
    n, v = rng.randint(2, 4), rng.randint(2, 3)
    states = list(itertools.product(range(v), repeat=n))
    tables = []
    for _ in range(rng.randint(1, 3)):
        # reads[f] for each feature f, then reads[n] for applicability
        reads = [rng.sample(range(n), rng.randint(0, min(n, 2))) for _ in range(n + 1)]
        funcs = [{key: rng.randrange(v) if f < n else rng.random() < 0.8
                  for key in itertools.product(range(v), repeat=len(reads[f]))}
                 for f in range(n + 1)]
        effects = [[funcs[f][tuple(s[d] for d in reads[f])] for f in range(n + 1)] for s in states]
        tables.append({s: tuple(e[:n]) for s, e in zip(states, effects) if e[n]})
    return _table_domain(n, tables), states, n


def _table_domain(n, tables):
    """Operators given as tables from state to next state; a state missing
    from a table is one where that operator is inapplicable."""

    def operator(table):
        def run(s, loc):
            if s not in table:
                raise InapplicableOperatorError(f"no move from {s}")
            return table[s]
        return run

    return DomainSpec(goal_test=lambda s: s == (0,) * n, operators=tuple(map(operator, tables)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), toy=st.booleans())
def test_decomposability_matches_reference_on_small_domains(seed, toy):
    rng = random.Random(seed)
    dom, universe, n = (_toy_domain(), TOY_STATES, 2) if toy else _small_domain(rng)
    ordering = FeatureOrdering(tuple(rng.sample(range(n), n)))
    # repeats and any order: the witness depends on the order states come in
    states = [rng.choice(universe) for _ in range(rng.randint(0, 40))]
    assert check_serial_decomposability(dom, ordering, iter(states)) \
        == _reference_decomposability(dom, ordering, states)


def test_verify_table_passes_on_sample(exhaustive_table, all_boards):
    import random
    rng = random.Random(2)
    sample = rng.sample(sorted(all_boards), 2000)
    ok, witness = verify_table(exhaustive_table, ep.domain_spec(), sample)
    assert ok, witness


def test_verify_table_catches_broken_and_redundant_macros(all_boards):
    import random
    rng = random.Random(3)
    sample = rng.sample(sorted(all_boards), 1500)
    dom = ep.domain_spec()

    broken = ep.build_exhaustive_table()
    # column 1 centers the blank; with the blank at corner position 1 the
    # single move "l" is applicable but leaves the blank off center
    j = 1
    broken.cells[(j, 1)] = ep.letters_to_macro("l")
    ok, witness = verify_table(broken, dom, sample)
    assert not ok and witness[0] == "property" and witness[1] == (j, 1)

    padded = ep.build_exhaustive_table()
    # after a column-1 macro the blank is at center, so appending the inverse
    # pair r,l is applicable, preserves the subgoal, and is redundant
    m = padded.cells[(j, 1)]
    padded.cells[(j, 1)] = m + ep.letters_to_macro("rl")
    ok, witness = verify_table(padded, dom, sample)
    assert not ok and witness[0] == "redundant" and witness[1] == (j, 1)

    # a board of the wrong length is a typed error, not an IndexError, and
    # so is a value out of 0..8, not a board the table passes (-1 would
    # index a macro's effect from its end); a tile placed twice is not
    # checked, as in walk_columns
    for wrong in ((0, 1, 2), ep.GOAL + (9,), ep.GOAL[:-1] + (-1,), ep.GOAL[:-1] + (99,)):
        with pytest.raises(ParameterError):
            verify_table(padded, dom, [wrong])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), examples=st.integers(0, 20),
       queries=st.integers(1, 5))
def test_walk_agrees_on_partly_learned_tables(seed, examples, queries):
    rng = random.Random(seed)
    dom = ep.domain_spec()
    ordering = ep.blank_first_ordering()
    teacher = MacroTable(ep.N_TILES, ep.N_POSITIONS, ep.GOAL, ordering)
    learned = MacroTable(ep.N_TILES, ep.N_POSITIONS, ep.GOAL, ordering)
    for _ in range(examples):
        board = ep.random_solvable(rng)
        serial_parse_into(learned, dom, Example(board, ep.integrated_teacher(board, teacher)))
    for _ in range(queries):
        board = ep.random_solvable(rng)
        solution = macro_solve(learned, dom, board)
        missing = walk_columns(learned, board, dom.apply_macro)[2]
        assert (solution is BOTTOM) == (missing is not None)
        if missing is not None:
            assert not learned.is_filled(*missing)
            with pytest.raises(ParameterError):
                ep.table_trajectory(learned, board)
            continue
        cells, steps = ep.table_trajectory(learned, board)
        assert steps == solution
        assert len(cells) == ep.N_TILES and all(learned.is_filled(*c) for c in cells)
        assert [learned.get(*c) for c in cells] == [teacher.get(*c) for c in cells]
        assert ep.apply_moves(board, ep.macro_to_letters([op for op, _ in steps])) == ep.GOAL
