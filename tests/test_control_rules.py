import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import collect_select_examples, iter_postorder
from speedup_learning import integration as I
from speedup_learning.control_rules import (
    IncrementalRuleLearner,
    RuleSet,
    learn_rules,
    rule_solve,
    rule_solve_ex,
)
from speedup_learning.core import BOTTOM, Example, OracleConfig, is_consistent, replay
from speedup_learning.errors import INAPPLICABLE, ParameterError, ReplayError, SpeedupLearningError
from speedup_learning.grammar import Node, cap_matches_tree, msg, tree_yield


def _rdomain():
    return I.IntegrationRuleDomain()


class LimitedDomain(I.IntegrationRuleDomain):
    """The integration rule domain with a fixed step limit, size limit or
    both; a limit left as None is the domain's own.  A test may change the
    limits between solves, so one instance's memo sees several limits."""

    def __init__(self, steps=None, size=None):
        self.steps, self.size = steps, size

    def default_step_limit(self, e):
        return super().default_step_limit(e) if self.steps is None else self.steps

    def default_size_limit(self, e):
        return super().default_size_limit(e) if self.size is None else self.size


def _largest_state(rd, x, solution):
    """The most tokens a state reaches after a step of ``solution``."""
    return max(rd.state_size(y) for y in replay(rd, x, solution)[1:])


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
    seen = []
    for _ in range(12):
        p = I.generate_problem(rng)
        seen.append(Example(p, I.teacher_solve(p)))
        learner.add_example(seen[-1])
        for cap, old in zip(learner.caps, previous):
            if old is not None:
                # each update can only climb the cap lattice
                assert cap_matches_tree(cap, old)
        previous = list(learner.caps)
    assert any(cap is not None for cap in previous)
    # every unit seen lies in its operator's select-set
    for op, units in collect_select_examples(rd, seen).items():
        assert all(cap_matches_tree(learner.caps[op - 1], rd.unit_tree(u)) for u in units)
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


def test_the_learner_hands_out_one_snapshot_until_a_cap_changes():
    learner = IncrementalRuleLearner(_rdomain())
    empty = learner.ruleset()
    assert learner.ruleset() is empty
    learner.add_example(_example("∫ ( sin x ) + ( cos x ) d x"))  # first caps
    first = learner.ruleset()
    assert first is not empty and learner.ruleset() is first
    assert all(cap is new for cap, new in zip(first.caps, learner.caps))
    # every unit covered: msc would keep each cap, so the snapshot stays
    learner.add_example(_example("∫ ( sin x ) + ( cos x ) d x"))
    learner.add_example(_example("∫ ( sin x ) d x"))
    assert learner.ruleset() is first
    # op 3's cap does not cover ∫ cos + sin, so msc widens it: a new snapshot
    learner.add_example(_example("∫ ( cos x ) + ( sin x ) d x"))
    second = learner.ruleset()
    assert second is not first and second.caps[2] is not first.caps[2]
    assert [cap is old for cap, old in zip(second.caps, first.caps)].count(False) == 1


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
    # the teacher's rules solve p in n steps: a limit of n lets them, n - 1
    # not; likewise a size limit of the largest state's tokens
    teacher, solution = I.teacher_ruleset(), I.teacher_solve(p)
    n, size = len(solution), _largest_state(rd, p, solution)
    assert rule_solve_ex(teacher, LimitedDomain(steps=n), p) == (solution, "solved")
    assert rule_solve_ex(teacher, LimitedDomain(steps=n - 1), p) == (BOTTOM, "step_limit")
    assert rule_solve_ex(teacher, LimitedDomain(size=size), p) == (solution, "solved")
    assert rule_solve_ex(teacher, LimitedDomain(size=size - 1), p) == (BOTTOM, "diverged")
    # a select-set wider than its operator's pattern: op 1 is picked at the
    # first unit, rejects it, and the solve stops there
    greedy = RuleSet((Node("Exp"),) + I.teacher_ruleset().caps[1:])
    assert rule_solve_ex(greedy, rd, p) == (BOTTOM, "no_match")


def test_a_cap_wider_than_its_operator():
    # op 19's select-set Int - Int holds 3 - 5, where fold_sub (a >= b) does
    # not apply.  On a goal state that is no decision; elsewhere the solve
    # stops with no_match.
    rd, teacher = _rdomain(), I.teacher_ruleset()
    caps = [None] * rd.num_operators
    for op in (8, 19):  # ∫ x d x, and Int - Int
        caps[op - 1] = teacher.caps[op - 1]
    rules = RuleSet(caps)
    assert tree_yield(caps[18]) == ("Int", "-", "Int")
    three_less_five, int_x = I.sub(I.num(3), I.num(5)), I.integral(I.VAR_X)
    # one snapshot and domain for all three, so the first two solves' memo
    # is read by the third: 3 - 5 took no step there, but only because the
    # whole state was a goal
    assert rule_solve_ex(rules, rd, three_less_five) == ((), "solved")
    assert rule_solve_ex(rules, rd, I.add(int_x, three_less_five)) == (((8, (0,)),), "solved")
    assert rule_solve_ex(rules, rd, I.add(three_less_five, int_x)) == (BOTTOM, "no_match")


def test_a_record_with_steps_does_not_hide_a_divergence():
    # the snapshot's record memo keeps only subterms that took no step:
    # p's record, made under a loose size limit, would skip the states that
    # outgrow a tighter one
    rd, teacher = LimitedDomain(), I.teacher_ruleset()
    p = I.parse_expr("∫ ( sin x ) + ( x ^ 2 ) d x".split())
    q = I.add(p, I.ONE)
    solution, status = rule_solve_ex(teacher, rd, q)
    assert status == "solved" and solution == I.teacher_solve(q)
    rd.size = _largest_state(rd, q, solution) - 1
    assert rule_solve_ex(teacher, rd, q) == (BOTTOM, "diverged")
    rd.size = None
    assert rule_solve_ex(teacher, rd, q) == (solution, "solved")


def _solve_scanning_from_the_root(ruleset, rd, x):
    """rule_solve_ex by a scan of the whole state from the root before each
    step, the oracle of the post-order engine."""
    limit = rd.default_step_limit(x)
    size_limit = rd.default_size_limit(x)
    steps = []
    while not rd.is_goal(x):
        found = next(((i, path) for path, unit in iter_postorder(x)
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


def _as_the_root_scan(rules, q) -> set:
    """Check rule_solve_ex against the root-scan oracle on ``q``, and a
    solve of n steps again at step limits n and n - 1 and at size limits
    of its largest state's tokens and one less; the statuses seen."""
    rd = _rdomain()
    got = rule_solve_ex(rules, rd, q)
    assert got == _solve_scanning_from_the_root(rules, rd, q)
    statuses = {got[1]}
    if got[1] == "solved" and got[0]:
        n, size = len(got[0]), _largest_state(rd, q, got[0])
        for capped in (LimitedDomain(steps=n), LimitedDomain(steps=n - 1),
                       LimitedDomain(size=size), LimitedDomain(size=size - 1)):
            got = rule_solve_ex(rules, capped, q)
            assert got == _solve_scanning_from_the_root(rules, capped, q)
            statuses.add(got[1])
    return statuses


def test_rule_solve_solves_as_a_scan_from_the_root():
    # partly trained learners stop, loop and diverge, so every status shows up
    statuses = set()
    for r in range(3):
        test_rng = random.Random(f"test:{r}")
        for count in (1, 2, 4, 8, 12):
            rules = _learned_rules(r, count)
            for _ in range(10):
                statuses |= _as_the_root_scan(rules, I.generate_problem(test_rng))
    assert statuses == {"solved", "no_match", "step_limit", "diverged"}


@functools.lru_cache(maxsize=None)
def _learned_rules(r, count):
    """The rules learned from the first ``count`` teacher examples of the
    stream ``train:r``."""
    rng, learner = random.Random(f"train:{r}"), IncrementalRuleLearner(_rdomain())
    for _ in range(count):
        p = I.generate_problem(rng)
        learner.add_example(Example(p, I.teacher_solve(p)))
    return learner.ruleset()


@settings(max_examples=40, deadline=None)
@given(r=st.integers(0, 7), count=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_rule_solve_agrees_with_the_root_scan_at_both_limits(r, count, seed):
    _as_the_root_scan(_learned_rules(r, count), I.generate_problem(random.Random(seed)))


@settings(max_examples=40, deadline=None)
@given(r=st.integers(0, 7), count=st.integers(1, 16),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
def test_a_shared_snapshot_solves_as_a_cold_one(r, count, seeds):
    # one snapshot (shared with the other tests, too) solves a stream of
    # problems on one domain, and each solve of n steps again on one
    # LimitedDomain at step limits n and n - 1 and size limits of its
    # largest state's tokens and one less; every result equals a cold
    # snapshot's, whose memo is empty
    rules = _learned_rules(r, count)
    rd, capped = _rdomain(), LimitedDomain()
    for seed in seeds:
        q = I.generate_problem(random.Random(seed))
        got = rule_solve_ex(rules, rd, q)
        assert got == rule_solve_ex(RuleSet(rules.caps), rd, q)
        if got[1] == "solved" and got[0]:
            n, size = len(got[0]), _largest_state(rd, q, got[0])
            for limits in ((n, None), (n - 1, None), (None, size), (None, size - 1)):
                capped.steps, capped.size = limits
                assert rule_solve_ex(rules, capped, q) == rule_solve_ex(RuleSet(rules.caps), capped, q)


def test_rule_solve_propagates_programming_errors():
    class BrokenDomain(I.IntegrationRuleDomain):
        def decider(self, ruleset):
            def decide(unit):
                raise TypeError("bug in the pick")
            return decide

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
