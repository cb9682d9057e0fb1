import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import collect_select_examples
from speedup_learning import integration as I
from speedup_learning.control_rules import (
    IncrementalRuleLearner,
    RuleSet,
    learn_rules,
    rule_solve,
    rule_solve_ex,
)
from speedup_learning.core import BOTTOM, Example, OracleConfig, is_consistent
from speedup_learning.errors import INAPPLICABLE, ParameterError, ReplayError, SpeedupLearningError
from speedup_learning.grammar import Node, cap_matches_tree, msg, tree_yield


def _rdomain():
    return I.IntegrationRuleDomain()


class StepLimitedDomain(I.IntegrationRuleDomain):
    """The integration rule domain with a fixed step limit."""

    def __init__(self, limit):
        self.limit = limit

    def default_step_limit(self, e):
        return self.limit


def _example(text):
    p = I.parse_expr(text.split())
    return Example(p, I.teacher_solve(p))


def test_ruleset_validation_and_dump():
    rs = RuleSet([None] * 3)
    assert rs.caps == (None, None, None)
    assert rs.dump() == "op1: EMPTY\nop2: EMPTY\nop3: EMPTY\n"


def test_dump_shows_sentential_forms():
    rd = _rdomain()
    learner = IncrementalRuleLearner(rd)
    learner.add_example(_example("∫ ( sin x ) + ( x ^ 2 ) d x"))
    learner.add_example(_example("∫ ( cos x ) + ( sin x ) d x"))
    dump = learner.ruleset().dump()
    assert "op3: ∫ Trig + P-term d x" in dump
    assert dump.count("EMPTY") == learner.caps.count(None)


def test_collect_select_examples_worked_case():
    rd = _rdomain()
    sample = [_example("∫ ( sin x ) + ( x ^ 2 ) d x"), Example(I.VAR_X, BOTTOM)]
    collected = collect_select_examples(rd, sample)
    assert set(collected) == {3, 6, 5, 18}
    assert [I.to_text(u) for u in collected[6]] == ["∫ ( sin x ) d x"]
    # both folds hit the interned `2 + 1` (exponent, then denominator), so
    # identity dedup keeps one unit
    assert [I.to_text(u) for u in collected[18]] == ["2 + 1"]


def test_incremental_learner_generalizes_monotonically():
    rd = _rdomain()
    learner = IncrementalRuleLearner(rd)
    rng = random.Random(17)
    previous = [None] * rd.num_operators
    for _ in range(12):
        p = I.generate_problem(rng)
        learner.add_example(Example(p, I.teacher_solve(p)))
        for cap, old in zip(learner.caps, previous):
            if old is not None:
                # each update can only climb the cap lattice
                assert cap_matches_tree(cap, old)
        previous = list(learner.caps)
    assert any(cap is not None for cap in previous)
    # replaying an already-covered example changes nothing
    learner.add_example(Example(p, I.teacher_solve(p)))
    assert all(cap is old for cap, old in zip(learner.caps, previous))


def _unchanged(learner, before):
    return len(learner.caps) == len(before) and all(
        cap is old for cap, old in zip(learner.caps, before))


def test_a_rejected_example_leaves_the_rule_learner_as_it_was():
    rd = _rdomain()
    learner = IncrementalRuleLearner(rd)
    learner.add_example(_example("∫ ( sin x ) d x"))
    before = list(learner.caps)
    cos = I.parse_expr("∫ ( cos x ) d x".split())
    # op 6 (∫ sin x) does not apply to ∫ cos x; its cap must not widen first
    with pytest.raises(ReplayError):
        learner.add_example(Example(cos, ((6, ()),)))
    assert _unchanged(learner, before)
    # there is no operator 0, and caps[-1] is operator 27's cap
    with pytest.raises(ParameterError):
        learner.add_example(Example(cos, ((0, ()),)))
    assert _unchanged(learner, before)
    with pytest.raises(ReplayError):
        learner.add_example(Example(I.VAR_X, ((1, "zz"),)))
    assert _unchanged(learner, before)
    # a float index names no operator, even after steps that would merge
    two_terms = _example("∫ ( sin x ) + ( x ^ 2 ) d x")
    *head, (op, loc) = two_terms.solution
    with pytest.raises(ParameterError):
        learner.add_example(Example(two_terms.problem, (*head, (float(op), loc))))
    assert _unchanged(learner, before)
    # a location of None is the root, for the unit as for the rewrite
    learner.add_example(Example(cos, ((7, None),)))
    assert " ".join(tree_yield(learner.caps[6])) == "∫ ( cos x ) d x"


_BAD_LOCATIONS = st.one_of(
    st.lists(st.integers(-1, 3), max_size=4).map(tuple),
    st.sampled_from(["zz", 5, None, (0.5,), ("a",)]),
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trained=st.integers(0, 4), data=st.data())
def test_a_rule_learner_that_rejects_a_corrupted_solution_is_unchanged(seed, trained, data):
    # one step of a teacher solution is replaced by a drawn operator index
    # or location; when the learner rejects the example, every cap stays
    rd = _rdomain()
    rng = random.Random(seed)
    learner = IncrementalRuleLearner(rd)
    for _ in range(trained):
        p = I.generate_problem(rng)
        learner.add_example(Example(p, I.teacher_solve(p)))
    p = I.generate_problem(rng)
    solution = I.teacher_solve(p)
    if not solution:
        return
    k = data.draw(st.integers(0, len(solution) - 1))
    op, loc = solution[k]
    step = data.draw(st.one_of(
        st.integers(-1, rd.num_operators + 1).map(lambda i: (i, loc)),
        st.sampled_from((float(op), op + 0.5, str(op), None, (op,))).map(lambda i: (i, loc)),
        _BAD_LOCATIONS.map(lambda bad: (op, bad)),
    ))
    before = list(learner.caps)
    try:
        learner.add_example(Example(p, solution[:k] + (step,) + solution[k + 1:]))
    except SpeedupLearningError:
        assert _unchanged(learner, before)


def test_learner_cap_equals_msg_of_collected_units():
    rd = _rdomain()
    sample = [
        _example("∫ ( sin x ) + ( x ^ 2 ) d x"),
        _example("∫ ( cos x ) + ( sin x ) d x"),
    ]
    learner = IncrementalRuleLearner(rd)
    learner.add_example(sample[0])
    snapshot = learner.ruleset()
    before = list(snapshot.caps)
    learner.add_example(sample[1])
    # a snapshot keeps its caps: it does not alias the learner's list
    assert all(cap is old for cap, old in zip(snapshot.caps, before))
    assert any(cap is not new for cap, new in zip(snapshot.caps, learner.caps))
    collected = collect_select_examples(rd, sample)
    for op, units in collected.items():
        form = msg(I.GRAMMAR, [I.to_tokens(u) for u in units], "Exp")
        assert tree_yield(learner.caps[op - 1]) == form.symbols
    # an operator the teacher never applied keeps the EMPTY select-set
    assert len(learner.caps) == rd.num_operators
    for i in range(1, rd.num_operators + 1):
        assert (learner.caps[i - 1] is None) == (i not in collected)


def test_rule_solve_with_teacher_rules():
    rd = _rdomain()
    ruleset = I.teacher_ruleset()
    p = I.parse_expr("∫ ( sin x ) + ( x ^ 2 ) d x".split())
    solution, status = rule_solve_ex(ruleset, rd, p)
    assert status == "solved"
    assert solution == I.teacher_solve(p)
    # already-solved input needs zero steps
    final = I.teacher_trace(p)[1]
    assert rule_solve(ruleset, rd, final) == ()


def test_rule_solve_statuses():
    rd = _rdomain()
    p = I.parse_expr("∫ ( sin x ) + ( x ^ 2 ) d x".split())
    empty = RuleSet([None] * rd.num_operators)
    assert rule_solve_ex(empty, rd, p) == (BOTTOM, "no_match")
    # the teacher's rules solve p in n steps: a limit of n lets them, n - 1 not
    teacher, n = I.teacher_ruleset(), len(I.teacher_solve(p))
    assert rule_solve_ex(teacher, StepLimitedDomain(n), p) == (I.teacher_solve(p), "solved")
    assert rule_solve_ex(teacher, StepLimitedDomain(n - 1), p) == (BOTTOM, "step_limit")
    # a select-set wider than its operator's pattern: op 1 is picked at the
    # first unit, rejects it, and the solve stops there
    greedy = RuleSet((Node("Exp"),) + I.teacher_ruleset().caps[1:])
    assert rule_solve_ex(greedy, rd, p) == (BOTTOM, "no_match")


def _solve_scanning_from_the_root(ruleset, rd, x):
    """rule_solve_ex with every scan started at the root, the oracle of the
    resumed scan."""
    limit = rd.default_step_limit(x)
    size_limit = rd.default_size_limit(x)
    steps = []
    while not rd.is_goal(x):
        found = next(((i, path) for path, unit in I.iter_postorder(x)
                      for i, cap in enumerate(ruleset.caps, 1)
                      if cap is not None and rd.unit_matches(cap, unit)), None)
        if found is None:
            return BOTTOM, "no_match"
        try:
            x = rd.apply(x, *found)
        except INAPPLICABLE:
            return BOTTOM, "no_match"
        steps.append(found)
        if len(steps) > limit:
            return BOTTOM, "step_limit"
        if rd.state_size(x) > size_limit:
            return BOTTOM, "diverged"
    return tuple(steps), "solved"


def test_resumed_scan_solves_as_a_scan_from_the_root():
    # partly trained learners stop, loop and diverge, so every status shows
    # up; a solve of n steps is rerun with step limits n and n - 1
    rd = _rdomain()
    statuses = set()
    for r in range(3):
        train_rng, test_rng = random.Random(f"train:{r}"), random.Random(f"test:{r}")
        learner = IncrementalRuleLearner(rd)
        for count in range(1, 13):
            p = I.generate_problem(train_rng)
            learner.add_example(Example(p, I.teacher_solve(p)))
            if count not in (1, 2, 4, 8, 12):
                continue
            rules = learner.ruleset()
            for _ in range(10):
                q = I.generate_problem(test_rng)
                got = rule_solve_ex(rules, rd, q)
                assert got == _solve_scanning_from_the_root(rules, rd, q)
                statuses.add(got[1])
                if got[1] == "solved" and got[0]:
                    for limit in (len(got[0]), len(got[0]) - 1):
                        capped = StepLimitedDomain(limit)
                        assert rule_solve_ex(rules, capped, q) == \
                            _solve_scanning_from_the_root(rules, capped, q)
                        statuses.add(rule_solve_ex(rules, capped, q)[1])
    assert statuses == {"solved", "no_match", "step_limit", "diverged"}


def test_rule_solve_propagates_programming_errors():
    class BrokenDomain(I.IntegrationRuleDomain):
        def apply(self, e, op_index, loc):
            raise TypeError("bug in apply")

    p = I.parse_expr("∫ ( sin x ) + ( x ^ 2 ) d x".split())
    with pytest.raises(TypeError):
        rule_solve_ex(I.teacher_ruleset(), BrokenDomain(), p)


def test_learn_rules_end_to_end_consistency():
    rd = _rdomain()
    oracle = OracleConfig(I.generate_problem, I.teacher_solve, seed=123)
    sample_probs = []
    probe = OracleConfig(I.generate_problem, I.teacher_solve, seed=123)
    for _ in range(10):
        sample_probs.append(probe.problem_generator(probe.rng))
    ruleset = learn_rules(rd, oracle, I.domain_spec(), 10)
    sample = [Example(p, I.teacher_solve(p)) for p in sample_probs]
    assert is_consistent(lambda p: rule_solve(ruleset, rd, p), sample)


def test_learn_rules_rejects_negative_m():
    rd = _rdomain()
    oracle = OracleConfig(I.generate_problem, I.teacher_solve, seed=0)
    with pytest.raises(ParameterError):
        learn_rules(rd, oracle, I.domain_spec(), -1)
