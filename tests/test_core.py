import math

import pytest

from speedup_learning.core import (
    BOTTOM,
    DomainSpec,
    Example,
    OracleConfig,
    is_consistent,
    replay,
    sample_size,
    solved_problem,
)
from speedup_learning.errors import (
    InapplicableOperatorError,
    OracleIntegrityError,
    ParameterError,
    ReplayError,
)


def _counter_domain(limit=5):
    """Toy domain: states are ints, op1 increments, op2 decrements (partial
    at 0), goal is `limit`."""

    def inc(state, loc):
        return state + 1

    def dec(state, loc):
        if state == 0:
            raise InapplicableOperatorError("cannot decrement zero")
        return state - 1

    return DomainSpec(goal_test=lambda s: s == limit, operators=(inc, dec))


def test_sample_size_pinned_values():
    assert sample_size(0.1, 0.1, 81) == 585
    assert sample_size(0.1, 0.1, 35) == 266


def test_sample_size_formula():
    # independent recomputation of the ceiling
    for eps, delta, dim in ((0.05, 0.2, 10), (0.5, 0.5, 1), (0.01, 0.1, 100)):
        expected = math.ceil((dim * math.log(2) + math.log(1 / delta)) / eps)
        assert sample_size(eps, delta, dim) == expected


def test_sample_size_monotone():
    assert sample_size(0.05, 0.1, 81) > sample_size(0.1, 0.1, 81)
    assert sample_size(0.1, 0.05, 81) > sample_size(0.1, 0.1, 81)
    assert sample_size(0.1, 0.1, 82) > sample_size(0.1, 0.1, 81)


@pytest.mark.parametrize("bad", [
    (0.0, 0.1, 10), (1.5, 0.1, 10), (float("nan"), 0.1, 10),
    (0.1, 0.0, 10), (0.1, 2.0, 10), (0.1, 0.1, -1),
    (0.1, 0.1, float("inf")),
])
def test_sample_size_rejects_bad_parameters(bad):
    with pytest.raises(ParameterError):
        sample_size(*bad)


def test_bottom_is_falsy_singleton():
    assert not BOTTOM
    assert repr(BOTTOM) == "BOTTOM"
    assert type(BOTTOM)() is BOTTOM
    assert BOTTOM != ()


def test_domain_spec_validation():
    with pytest.raises(ParameterError):
        DomainSpec(goal_test=bool, operators=())
    dom = _counter_domain()
    assert dom.num_operators == 2
    with pytest.raises(ParameterError):
        dom.apply(0, 0)
    with pytest.raises(ParameterError):
        dom.apply(0, 3)
    for not_an_index in ("r", None, (1,), 1.0, 1.5):
        with pytest.raises(ParameterError):
            dom.apply(0, not_an_index)
    assert dom.apply(0, 1) == 1


def test_replay_trajectory_and_failure_step():
    dom = _counter_domain()
    states = replay(dom, 2, ((1, None), (1, None), (2, None)))
    assert states == [2, 3, 4, 3]
    with pytest.raises(ReplayError) as info:
        replay(dom, 1, ((2, None), (2, None), (1, None)))
    assert info.value.step == 1
    # a step that is not an (operator, location) pair
    for bad in (((1,),), ((1, None), 5), ((1, None), (1, None, None))):
        with pytest.raises(ReplayError) as info:
            replay(dom, 0, bad)
        assert info.value.step == len(bad) - 1


def test_example_solved_flag():
    assert Example(1, ((1, None),)).solved
    assert not Example(1, BOTTOM).solved


def test_solved_problem_validates_teacher():
    dom = _counter_domain(limit=2)
    good = OracleConfig(lambda rng: rng.randrange(2), lambda p: ((1, None),) * (2 - p), seed=0)
    ex = solved_problem(good, dom)
    assert ex.solved
    assert replay(dom, ex.problem, ex.solution)[-1] == 2

    stops_short = OracleConfig(lambda rng: 0, lambda p: ((1, None),), seed=0)
    with pytest.raises(OracleIntegrityError):
        solved_problem(stops_short, dom)

    too_long = OracleConfig(lambda rng: 0, lambda p: ((1, None), (2, None)) * 3 + ((1, None),) * 2,
                            seed=0, max_solution_length=3)
    with pytest.raises(OracleIntegrityError):
        solved_problem(too_long, dom)

    gives_up = OracleConfig(lambda rng: 0, lambda p: BOTTOM, seed=0)
    assert solved_problem(gives_up, dom).solution is BOTTOM


def test_oracle_streams_are_seed_deterministic():
    dom = _counter_domain(limit=3)
    def teacher(p):
        return ((1, None),) * (3 - p)
    draws = []
    for _ in range(2):
        oracle = OracleConfig(lambda rng: rng.randrange(3), teacher, seed=42)
        draws.append([solved_problem(oracle, dom).problem for _ in range(20)])
    assert draws[0] == draws[1]


def test_is_consistent_exact_match_only():
    sample = [Example(0, ((1, None), (1, None))), Example(2, BOTTOM)]
    assert is_consistent(lambda p: ((1, None), (1, None)), sample)
    # different operator choice, same effect: still inconsistent
    assert not is_consistent(lambda p: ((1, None), (2, None)), sample)
    assert not is_consistent(lambda p: BOTTOM, sample)

    def explodes(p):
        raise RuntimeError("solver crash")

    assert not is_consistent(explodes, sample)
    # BOTTOM examples impose no constraint
    assert is_consistent(lambda p: ((1, None), (1, None)), [Example(5, BOTTOM)])
