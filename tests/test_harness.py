import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedup_learning import eight_puzzle as ep
from speedup_learning import integration
from speedup_learning.core import Example
from speedup_learning.errors import ParameterError
from speedup_learning.harness import (
    CurvePoint,
    ExperimentConfig,
    _IntegrationTrial,
    _PuzzleTrial,
    _trial_rng,
    csv_text,
    run_curve,
    target_puzzle_table,
)
from speedup_learning.macro_tables import (
    MacroTable,
    macro_solve,
    serial_parse_into,
    walk_columns,
)


def _tiny(domain, **kw):
    defaults = dict(trials=2, train_max=6, eval_every=3, test_set_size=10, seed=5)
    defaults.update(kw)
    return ExperimentConfig(domain=domain, **defaults)


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(domain="chess")
    with pytest.raises(ParameterError):
        ExperimentConfig(domain="integration", trials=0).resolved()
    with pytest.raises(ParameterError):
        ExperimentConfig(domain="integration", train_max=5, eval_every=10).resolved()


def test_config_defaults_resolve():
    cfg = ExperimentConfig(domain="integration").resolved()
    assert (cfg.train_max, cfg.eval_every) == (30, 1)
    cfg = ExperimentConfig(domain="eightpuzzle").resolved()
    assert (cfg.train_max, cfg.eval_every) == (40, 2)
    # explicit values survive resolution
    cfg = ExperimentConfig(domain="eightpuzzle", train_max=8, eval_every=4).resolved()
    assert (cfg.train_max, cfg.eval_every) == (8, 4)


def test_trial_rngs_are_independent_and_stable():
    cfg = _tiny("integration")
    a = _trial_rng(cfg, 0, "train").random()
    b = _trial_rng(cfg, 1, "train").random()
    c = _trial_rng(cfg, 0, "eval", 3).random()
    assert len({a, b, c}) == 3
    assert _trial_rng(cfg, 0, "train").random() == a


def test_csv_format():
    points = [CurvePoint(2, 0.5, 0.25), CurvePoint(4, 1 / 3, 0.0)]
    text = csv_text(points)
    lines = text.splitlines()
    assert lines[0] == "num_examples,mean_accuracy,stddev"
    assert lines[1] == "2,0.5,0.25"
    assert lines[2] == "4,0.333333,0"
    assert text.endswith("\n")


def test_run_curve_deterministic():
    assert csv_text(run_curve(_tiny("eightpuzzle"))) == csv_text(run_curve(_tiny("eightpuzzle")))


def test_curve_points_structure():
    points = run_curve(_tiny("eightpuzzle"))
    assert [p.num_examples for p in points] == [3, 6]
    for p in points:
        assert 0.0 <= p.mean_accuracy <= 1.0
        assert p.stddev >= 0.0


@pytest.mark.parametrize("domain", ["integration", "eightpuzzle"])
def test_fast_scoring_equals_full_simulation(domain):
    # the trace/trajectory-based scorer must agree point for point with
    # literally running the learned solver
    cfg = ExperimentConfig(domain=domain, trials=3, train_max=8, eval_every=2,
                           test_set_size=25, seed=7)
    assert run_curve(cfg) == run_curve(cfg, full_simulation=True)


def test_fast_scoring_equals_full_simulation_at_the_puzzle_defaults():
    # train_max=40 and eval_every=2, where learners complete their tables and
    # the column cut walks no column at all
    cfg = ExperimentConfig(domain="eightpuzzle", trials=3, test_set_size=25, seed=7)
    assert run_curve(cfg) == run_curve(cfg, full_simulation=True)
    lasts = []
    for i in range(cfg.trials):
        trial, rng = _PuzzleTrial(), _trial_rng(cfg.resolved(), i, "train")
        for _ in range(_PuzzleTrial.train_max):
            trial.learn(trial.draw(rng))
        lasts.append(trial.last)
    assert 0 in lasts


def test_a_complete_puzzle_trial_ends_early(monkeypatch):
    # seed 0's one trial at the defaults completes its table at example 29,
    # one column-1 cell short at eval points 20..28: the fast path draws
    # the examples up to 29 and the test sets of eval points 2..28, no
    # board after that, and still gives the literal scorer's points
    cfg = ExperimentConfig(domain="eightpuzzle", trials=1, seed=0)
    trial, rng, lasts = _PuzzleTrial(), _trial_rng(cfg.resolved(), 0, "train"), []
    while trial.last:
        trial.learn(trial.draw(rng))
        lasts.append(trial.last)
    done = len(lasts)
    assert (done, lasts[19:28]) == (29, [1] * 9)
    draws, draw = [], _PuzzleTrial.draw
    monkeypatch.setattr(_PuzzleTrial, "draw", staticmethod(lambda rng: draws.append(1) or draw(rng)))
    points = run_curve(cfg)
    assert len(draws) == done + cfg.test_set_size * ((done - 1) // 2)
    assert [p.mean_accuracy for p in points[done // 2:]] == [1.0] * (20 - done // 2)
    assert points == run_curve(cfg, full_simulation=True)


def _step_walk(trial, problem) -> bool:
    # the reference verdict: every teacher step's unit passes its
    # operator's current cap
    record = integration.teacher_record(problem)
    if record is None:
        return False
    caps = trial.learner.caps
    return all(caps[op_index - 1] is not None
               and trial.rdomain.unit_matches(caps[op_index - 1], unit)
               for op_index, _, unit in integration.record_steps(record))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), examples=st.integers(1, 8),
       tests=st.integers(1, 20))
def test_record_walk_gives_the_step_walks_verdict_as_caps_grow(seed, examples, tests):
    # one trial scores the same test problems after each example, so its
    # covered records carry over while the caps widen under them
    rng = random.Random(seed)
    problems = [integration.generate_problem(rng) for _ in range(tests)]
    trial = _IntegrationTrial()
    for _ in range(examples):
        trial.learn(integration.generate_problem(rng))
        for problem in problems:
            assert trial.score_fast(problem) == _step_walk(trial, problem)


def test_record_walk_on_a_chain_past_the_recursion_limit():
    # the chain's records nest about 1 500 deep, past the default recursion
    # limit, so only a walk on an explicit stack scores it
    chain = integration.VAR_X
    for _ in range(1500):
        chain = integration.neg(chain)
    problem = integration.integral(chain)
    trial = _IntegrationTrial()
    assert not trial.score_fast(problem)
    trial.learn(problem)
    assert trial.score_fast(problem)
    assert trial.score_fast(problem)  # now the covered top record


def _gc_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


_DRAWS = {"integration": (integration, "generate_problem"),
          "eightpuzzle": (ep, "random_solvable")}


@pytest.mark.parametrize("domain", ["integration", "eightpuzzle"])
@pytest.mark.parametrize("caller", ["plain", "collector_off", "already_frozen"])
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_run_curve_restores_the_gc_state(domain, caller, fails, monkeypatch):
    # run_curve freezes the heap at the start of each trial and leaves the
    # collector as it found it, whether it returns or raises mid-trial
    module, name = _DRAWS[domain]
    draw, draws = getattr(module, name), []

    def failing_draw(rng):
        draws.append(rng)
        if len(draws) == 10:  # in the first trial
            raise RuntimeError("mid-trial")
        return draw(rng)

    if fails:
        monkeypatch.setattr(module, name, failing_draw)
    was_enabled, freeze, freezes = gc.isenabled(), gc.freeze, []
    if caller == "collector_off":
        gc.disable()
    elif caller == "already_frozen":
        gc.freeze()
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1) or freeze())
    try:
        before = _gc_state()
        if fails:
            with pytest.raises(RuntimeError, match="mid-trial"):
                run_curve(_tiny(domain))
        else:
            run_curve(_tiny(domain))
        assert _gc_state() == before
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
    # unfreezing would thaw a caller's frozen objects too, so then nothing
    # is frozen; otherwise each trial started freezes
    assert len(freezes) == (0 if caller == "already_frozen" else 1 if fails else 2)


@pytest.mark.parametrize("domain", ["integration", "eightpuzzle"])
@pytest.mark.parametrize("full_simulation", [False, True], ids=["fast", "full"])
def test_curve_leaves_no_cyclic_garbage(domain, full_simulation, monkeypatch):
    # What a trial leaves behind must die by reference count: under the
    # GC policy cyclic garbage would stay frozen until run_curve returns.
    # The puzzle teacher walks the target table, built once per process:
    # clearing it, with a cold subgoal cache, makes the curve build it
    # again and so run IDA* in here.  Freezing first keeps whatever the
    # process holds already out of the count (and the collection short).
    monkeypatch.setattr(ep, "_subgoal_cache", {})
    target_puzzle_table.cache_clear()
    flags, kept = gc.get_debug(), len(gc.garbage)
    gc.freeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_curve(_tiny(domain, seed=11), full_simulation=full_simulation)
        gc.collect()
        garbage = gc.garbage[kept:]
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]
        gc.unfreeze()
    assert not garbage, f"{len(garbage)} objects, such as {garbage[:4]!r}"


def test_eightpuzzle_curve_learns():
    points = run_curve(ExperimentConfig(domain="eightpuzzle", trials=5,
                                        train_max=40, eval_every=10,
                                        test_set_size=40, seed=1))
    assert points[-1].mean_accuracy > points[0].mean_accuracy
    assert points[-1].mean_accuracy >= 0.9


def _empty_table():
    return MacroTable(ep.N_TILES, ep.N_POSITIONS, ep.GOAL, ep.blank_first_ordering())


def _learn(boards):
    """The table learned from integrated_teacher's solutions, which grows
    its own table from empty, and those solutions."""
    teacher, learned, solutions = _empty_table(), _empty_table(), []
    for board in boards:
        solutions.append(ep.integrated_teacher(board, teacher))
        serial_parse_into(learned, ep.domain_spec(), Example(board, solutions[-1]))
    return learned, solutions


def test_puzzle_scorer_cuts_at_the_highest_column_it_can_miss():
    # the scorer's column cut on one seeded stream: after each example,
    # last is the highest column in which the learner lacks a target cell,
    # and the walk cut there gives the whole walk's verdict
    rng = random.Random(5)
    target = target_puzzle_table()
    queries = [ep.random_solvable(rng) for _ in range(20)]
    trial = _PuzzleTrial()
    for _ in range(6):
        trial.learn(ep.random_solvable(rng))
        table = trial.learner_table
        assert trial.last == max((i for j, i in target.cells if not table.is_filled(j, i)), default=0)
        for q in queries:
            assert trial.score_fast(q) == (walk_columns(table, q, ep.apply_macro)[2] is None)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), examples=st.integers(0, 40),
       queries=st.integers(1, 5), data=st.data())
def test_learned_table_is_the_target_cut_to_its_cells(exhaustive_table, seed, examples,
                                                      queries, data):
    # what the puzzle curve's scorer rests on: every macro the learner
    # holds is the target's, so walking the learner's own table hits iff
    # the learner has every cell of the target's trajectory
    rng = random.Random(seed)
    boards = [ep.random_solvable(rng) for _ in range(examples)]
    learned, solutions = _learn(boards)
    assert learned.cells.items() <= exhaustive_table.cells.items()
    # the puzzle curve's teacher walks the target table instead: the same
    # solutions, since an IDA* macro is a function of its cell
    assert solutions == [macro_solve(exhaustive_table, ep.domain_spec(), b) for b in boards]
    # serial parsing gives the same table under any example order
    assert _learn(data.draw(st.permutations(boards)))[0].cells == learned.cells
    queries = [ep.random_solvable(rng) for _ in range(queries)]
    for q in queries:
        cells, _ = ep.table_trajectory(exhaustive_table, q)
        expected = all(learned.is_filled(*c) for c in cells)
        assert (walk_columns(learned, q, ep.apply_macro)[2] is None) == expected
    # the scorer's column cut: at every prefix of the stream, the walk
    # through columns 1..last gives the whole walk's verdict, and last is 0
    # exactly when the learner holds every target cell
    trial = _PuzzleTrial()
    for board in boards:
        trial.learn(board)
        table = trial.learner_table
        assert (trial.last == 0) == (table.cells.keys() == exhaustive_table.cells.keys())
        for q in queries:
            assert trial.score_fast(q) == (walk_columns(table, q, ep.apply_macro)[2] is None)
    assert trial.learner_table.cells == learned.cells


def test_puzzle_scorer_checks_its_board_at_every_cut():
    # a learner that holds no cell walks every column, a complete one none:
    # both raise ParameterError on a non-board, not an answer or IndexError
    fresh, complete = _PuzzleTrial(), _PuzzleTrial()
    complete.learner_table.cells.update(target_puzzle_table().cells)
    complete.last = 0
    assert (fresh.score_fast(ep.GOAL), complete.score_fast(ep.GOAL)) == (False, True)
    for trial in (fresh, complete):
        for bad in ((0, 1, 2, 3, 4, 5, 6, 7, -1), (0, 1, 2, 3, 4, 5, 6, 7, 99), (0, 1, 2)):
            with pytest.raises(ParameterError):
                trial.score_fast(bad)
