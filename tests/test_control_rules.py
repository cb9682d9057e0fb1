import random

import pytest

from brute_force import collect_select_examples
from speedup_learning import integration as I
from speedup_learning.control_rules import (
    ControlRule,
    IncrementalRuleLearner,
    RuleSet,
    learn_rules,
    rule_solve,
    rule_solve_ex,
)
from speedup_learning.core import BOTTOM, Example, OracleConfig, is_consistent
from speedup_learning.errors import INAPPLICABLE, ParameterError
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
    rules = [ControlRule(i) for i in (3, 1, 2)]
    rs = RuleSet(rules)
    assert [r.operator_index for r in rs.rules] == [1, 2, 3]
    assert rs.dump() == "op1: EMPTY\nop2: EMPTY\nop3: EMPTY\n"
    with pytest.raises(ParameterError):
        RuleSet([ControlRule(1), ControlRule(3)])
    with pytest.raises(ParameterError):
        RuleSet([ControlRule(1), ControlRule(1)])


def test_dump_shows_sentential_forms():
    rd = _rdomain()
    learner = IncrementalRuleLearner(rd)
    learner.add_example(_example("∫ ( sin x ) + ( x ^ 2 ) d x"))
    learner.add_example(_example("∫ ( cos x ) + ( sin x ) d x"))
    dump = learner.ruleset().dump()
    assert "op3: ∫ Trig + P-term d x" in dump
    assert dump.count("EMPTY") == rd.num_operators - len(learner.caps)


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
    previous = {}
    for _ in range(12):
        p = I.generate_problem(rng)
        learner.add_example(Example(p, I.teacher_solve(p)))
        for op, cap in learner.caps.items():
            if op in previous:
                # each update can only climb the cap lattice
                assert cap_matches_tree(cap, previous[op])
        previous = dict(learner.caps)
    assert previous
    # replaying an already-covered example changes nothing
    learner.add_example(Example(p, I.teacher_solve(p)))
    assert learner.caps.keys() == previous.keys()
    assert all(learner.caps[op] is cap for op, cap in previous.items())


def test_learner_cap_equals_msg_of_collected_units():
    rd = _rdomain()
    sample = [
        _example("∫ ( sin x ) + ( x ^ 2 ) d x"),
        _example("∫ ( cos x ) + ( sin x ) d x"),
    ]
    learner = IncrementalRuleLearner(rd)
    for ex in sample:
        learner.add_example(ex)
    collected = collect_select_examples(rd, sample)
    for op, units in collected.items():
        form = msg(I.GRAMMAR, [I.to_tokens(u) for u in units], "Exp")
        assert tree_yield(learner.caps[op]) == form.symbols


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
    empty = RuleSet([ControlRule(i) for i in range(1, rd.num_operators + 1)])
    assert rule_solve_ex(empty, rd, p) == (BOTTOM, "no_match")
    # the teacher's rules solve p in n steps: a limit of n lets them, n - 1 not
    teacher, n = I.teacher_ruleset(), len(I.teacher_solve(p))
    assert rule_solve_ex(teacher, StepLimitedDomain(n), p) == (I.teacher_solve(p), "solved")
    assert rule_solve_ex(teacher, StepLimitedDomain(n - 1), p) == (BOTTOM, "step_limit")
    # a select-set wider than its operator's pattern: op 1 is picked at the
    # first unit, rejects it, and the solve stops there
    greedy = RuleSet([ControlRule(1, Node("Exp"))] + list(I.teacher_ruleset().rules[1:]))
    assert rule_solve_ex(greedy, rd, p) == (BOTTOM, "no_match")


def _solve_scanning_from_the_root(ruleset, rd, x):
    """rule_solve_ex with every scan started at the root, the oracle of the
    resumed scan."""
    limit = rd.default_step_limit(x)
    size_limit = rd.default_size_limit(x)
    steps = []
    while not rd.is_goal(x):
        found = next(((rule.operator_index, path) for path, unit in I.iter_postorder(x)
                      for rule in ruleset.rules
                      if rule.cap is not None and rd.unit_matches(rule.cap, unit)), None)
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
