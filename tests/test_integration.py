import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedup_learning import integration as I
from speedup_learning.control_rules import RuleSet, rule_solve, rule_solve_ex
from speedup_learning.core import BOTTOM
from speedup_learning.errors import (
    InapplicableOperatorError,
    LocationError,
    ParameterError,
)
from speedup_learning.grammar import (
    cap_matches_tree,
    form_to_cap,
    membership,
    parse,
    same_tree,
    tree_yield,
)


def _expr(text):
    return I.parse_expr(text.split())


def _reference_step(e):
    """One step of the restart-from-root interpreter, kept apart from the
    memoized engine: (new_expr, op_index, path, unit) at the first
    post-order node some operator's pattern admits, with the least-indexed
    such operator; None in normal form."""
    for path, unit in I.iter_postorder(e):
        for op in I.OPERATORS:
            if unit.kind == op.kind and op.matches(unit):
                return I.replace_at(e, path, op.rewrite(unit)), op.index, path, unit
    return None


def _reference_trace(e, limit):
    """teacher_trace by repeated _reference_step: None past ``limit`` steps."""
    steps = []
    while True:
        step = _reference_step(e)
        if step is None:
            return tuple(steps), e
        e, op_index, path, unit = step
        steps.append((op_index, path, unit))
        if len(steps) > limit:
            return None


def test_expressions_are_hash_consed():
    assert I.add(I.num(1), I.VAR_X) is I.add(I.num(1), I.VAR_X)
    assert I.num(7) is I.num(7)
    assert I.num(7) is not I.num(8)
    with pytest.raises(ParameterError):
        I.num(-1)
    for not_an_int in ("3", 1.5, None):
        with pytest.raises(ParameterError):
            I.num(not_an_int)
    with pytest.raises(ParameterError):
        I.named("b")


def test_cache_reset_keeps_constant_identities():
    # operators 22-26 test the constants by identity, so a reset must not
    # leave num(1) a different object from ONE; every memo table empties
    e, rd = _expr("∫ 1 * x d x"), I.IntegrationRuleDomain()
    I.teacher_trace(e)
    I.token_count(e)
    I.is_goal(e)
    rd.unit_matches(rd.unit_tree(e), e)
    assert all(I._MEMOS)
    tables = (I.Expr._interned,) + I._MEMOS
    saved = [dict(t) for t in tables]
    try:
        I.clear_expr_caches()
        assert not any(I._MEMOS)
        assert len(I.Expr._interned) == 4
        assert I.num(1) is I.ONE and I.num(0) is I.ZERO and I.num(2) is I.TWO
        assert _expr("x") is I.VAR_X
        final = I.teacher_trace(_expr("∫ 1 * x d x"))[1]
        assert I.to_text(final) == "( x ^ 2 ) / 2"
        assert I.is_goal(final)
    finally:
        for t, contents in zip(tables, saved):
            t.clear()
            t.update(contents)


def test_serialization_round_trip():
    rng = random.Random(5)
    for _ in range(150):
        p = I.generate_problem(rng)
        assert I.parse_expr(I.to_tokens(p)) is p
        trace = I.teacher_trace(p)
        final = trace[1]
        assert I.parse_expr(I.to_tokens(final)) is final


def test_parenthesization_golden():
    e = I.mul(I.add(I.num(1), I.VAR_X), I.num(3))
    assert I.to_text(e) == "( 1 + x ) * 3"
    assert I.to_text(I.neg(I.neg(I.VAR_X))) == "( - ( - x ) )"
    assert I.to_text(I.integral(I.powx(I.num(10)))) == "∫ ( x ^ 1 0 ) d x"


def test_as_exp_matches_reparse():
    # the direct parse-tree builder must agree with the Earley parser
    rng = random.Random(6)
    for _ in range(30):
        p = I.generate_problem(rng)
        for e in (p.args[0], I.teacher_trace(p)[1]):
            assert same_tree(I.as_exp(e), parse(I.GRAMMAR, I.to_tokens(e), "Exp"))


def test_worked_derivation_sin_plus_square():
    p = _expr("∫ ( sin x ) + ( x ^ 2 ) d x")
    solution = I.teacher_solve(p)
    assert solution == ((3, ()), (6, (0,)), (5, (1,)), (18, (1, 0, 1)), (18, (1, 1)))
    final = I.teacher_trace(p)[1]
    assert I.to_text(final) == "( - ( cos x ) ) + ( x ^ 3 ) / 3"
    assert I.is_goal(final)


def test_worked_derivation_cos_plus_sin():
    p = _expr("∫ ( cos x ) + ( sin x ) d x")
    ops = [op for op, _ in I.teacher_solve(p)]
    assert ops == [3, 7, 6]
    assert I.to_text(I.teacher_trace(p)[1]) == "( sin x ) + ( - ( cos x ) )"


def test_operator_inventory_shape():
    assert len(I.OPERATORS) == 27
    assert [op.index for op in I.OPERATORS] == list(range(1, 28))
    assert I.get_operator(4).name == "by_parts"
    for not_an_index in (99, 4.0, "4", [4]):
        with pytest.raises(ParameterError):
            I.get_operator(not_an_index)
    # every teacher form is a valid sentential form over the grammar
    for op in I.OPERATORS:
        cap = form_to_cap(I.GRAMMAR, op.teacher_form.split(), "Exp")
        assert tree_yield(cap) == tuple(op.teacher_form.split())


def test_operator_guards_raise():
    x = I.VAR_X
    cases = [
        (1, I.integral(x)),          # const_factor needs Const * Term
        (4, I.integral(x)),          # by_parts needs a product
        (19, I.sub(I.num(1), I.num(2))),  # fold_sub guard a >= b
        (21, I.div(I.num(3), I.num(2))),  # fold_div guard divisibility
        (21, I.div(I.num(3), I.num(0))),  # fold_div guard nonzero
        (24, I.mul(I.num(0), x)),    # right-zero only
    ]
    for index, e in cases:
        with pytest.raises(InapplicableOperatorError):
            I.get_operator(index).apply(e)
    # one unit of every kind, its arguments shaped like other kinds'
    # patterns: each operator rejects every unit whose root is not its kind
    one = I.ONE
    units = [I.integral(I.mul(one, x)), I.deriv(I.mul(one, x)), I.deriv(I.neg(I.neg(x))),
             I.add(one, one), I.sub(I.TWO, one), I.mul(one, one), I.div(I.TWO, one),
             I.neg(I.neg(x)), I.powx(one), I.sinx(), I.cosx(), one, I.named("a"), x]
    assert {u.kind for u in units} == {op.kind for op in I.OPERATORS} | {
        I.SIN, I.COS, I.NUM, I.NAMED, I.VAR}
    for op in I.OPERATORS:
        for unit in units:
            if unit.kind != op.kind:
                with pytest.raises(InapplicableOperatorError):
                    op.apply(unit)


def test_operator_rewrites_spot_checks():
    x = I.VAR_X
    by_parts = I.get_operator(4)
    e = I.integral(I.mul(I.sinx(), x))
    out = by_parts.apply(e)
    assert I.to_text(out) == "x * ∫ ( sin x ) d x - ∫ ∫ ( sin x ) d x * D x x d x"
    assert I.get_operator(5).apply(I.integral(I.powx(I.num(3)))) is \
        I.div(I.powx(I.add(I.num(3), I.ONE)), I.add(I.num(3), I.ONE))
    assert I.get_operator(18).apply(I.add(I.num(9), I.num(1))) is I.num(10)
    assert I.get_operator(27).apply(I.neg(I.neg(x))) is x


def test_locations():
    e = _expr("∫ ( sin x ) + ( x ^ 2 ) d x")
    assert I.subexpr_at(e, ()) is e
    assert I.to_text(I.subexpr_at(e, (0, 0))) == "( sin x )"
    with pytest.raises(LocationError):
        I.subexpr_at(e, (5,))
    swapped = I.replace_at(e, (0, 0), I.cosx())
    assert I.to_text(swapped) == "∫ ( cos x ) + ( x ^ 2 ) d x"
    with pytest.raises(LocationError):
        I.replace_at(I.VAR_X, (0,), I.ONE)
    # a location that is not a sequence of integers
    op = I.get_operator(6)
    for bad in ("zz", 5, None, (0.5,), ("a",)):
        with pytest.raises(LocationError):
            I.subexpr_at(e, bad)
        with pytest.raises(LocationError):
            I.replace_at(e, bad, I.ONE)
        with pytest.raises(LocationError):
            I.apply_at(op, e, bad)


def test_post_order_from_a_path_skips_what_lies_left_of_it():
    def left_of(q, start):
        return any(q[:j] == start[:j] and q[j] < start[j] for j in range(min(len(q), len(start))))

    rng = random.Random(8)
    for _ in range(40):
        e = I.generate_problem(rng)
        units = list(I.iter_postorder(e))
        for start, _ in units:
            assert list(I.iter_postorder(e, start)) == [
                (q, u) for q, u in units if not left_of(q, start)]


def test_post_order_least_index_discipline():
    # the first rewrite happens at the first post-order node admitting one,
    # with the least-indexed matching operator
    e = I.add(I.add(I.num(1), I.num(2)), I.integral(I.VAR_X))
    new, op_index, path, unit = _reference_step(e)
    assert (op_index, path) == (18, (0,))
    assert I.to_text(new) == "3 + ∫ x d x"
    assert I.teacher_trace(e)[0][0] == (18, (0,), unit)


_LEAVES = st.one_of(
    st.integers(0, 12).map(I.num),
    st.sampled_from([I.VAR_X, I.named("a"), I.named("k"), I.sinx(), I.cosx()]),
)


def _grow(inner):
    unary = st.tuples(st.sampled_from([I.integral, I.deriv, I.neg, I.powx]), inner)
    binary = st.tuples(st.sampled_from([I.add, I.sub, I.mul, I.div]), inner, inner)
    return unary.map(lambda t: t[0](t[1])) | binary.map(lambda t: t[0](t[1], t[2]))


_EXPRS = st.recursive(_LEAVES, _grow, max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _EXPRS.map(I.integral),
    _EXPRS.map(I.deriv),
    _EXPRS,
    st.integers(0, 2**32).map(lambda seed: I.generate_problem(random.Random(seed))),
), st.integers(0, 60))
def test_trace_equals_restart_from_root_reference(e, limit):
    # all 13 kinds, nested integrals and derivatives, foldable constants and
    # problems from the distribution; under a small drawn step limit, draws
    # that take longer (runaways among them) give None on both sides
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(I, "_MAX_TEACHER_STEPS", limit)
        assert I.teacher_trace(e) == _reference_trace(e, limit)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_EXPRS, _EXPRS.map(I.integral), _EXPRS.map(I.deriv)))
def test_tokens_round_trip_and_count(e):
    # all 13 kinds in every parenthesis context: the trees the layout table
    # gives are the ones the Earley parser gives
    tokens = I.to_tokens(e)
    assert I.parse_expr(tokens, "Exp") is e
    assert I.token_count(e) == len(tokens)
    assert same_tree(I.as_exp(e), parse(I.GRAMMAR, tokens, "Exp"))


def test_round_trip_of_deep_inputs():
    # a 400-digit integer (Int -> Digit Int, 400 levels) and a 3000-deep
    # negation chain: serializing, parsing, reading back, the parse tree,
    # the goal test, the unit walk, the rule solver and the oracles recurse
    # nowhere
    big = I.num(int("9876543210" * 40))
    assert I.parse_expr(I.to_tokens(big)) is big
    chain = I.VAR_X
    for _ in range(3000):
        chain = I.neg(chain)
    tokens = I.to_tokens(chain)
    assert len(tokens) == 9001 == I.token_count(chain)
    assert I.parse_expr(tokens) is chain
    assert I.parse_expr(I.to_tokens(I.integral(chain))) is I.integral(chain)
    # the chain as a sentential form, and with its innermost x as a Var leaf
    cap = form_to_cap(I.GRAMMAR, tokens, "Exp")
    assert tree_yield(cap) == tokens
    assert cap_matches_tree(cap, parse(I.GRAMMAR, tokens, "Exp"))
    k = tokens.index("x")
    form = tokens[:k] + ("Var",) + tokens[k + 1:]
    assert tree_yield(form_to_cap(I.GRAMMAR, form, "Exp")) == form
    assert membership(I.GRAMMAR, tokens, tokens, "Exp")
    assert membership(I.GRAMMAR, form, tokens, "Exp")
    assert not membership(I.GRAMMAR, form, I.to_tokens(chain.args[0]), "Exp")
    tree = I.as_exp(chain)
    assert tree_yield(tree) == tokens
    assert same_tree(tree, parse(I.GRAMMAR, tokens, "Exp"))
    assert same_tree(cap, tree)
    other = I.ONE  # the same chain over 1: the trees differ only at the bottom
    for _ in range(3000):
        other = I.neg(other)
    assert not same_tree(tree, I.as_exp(other))
    assert not I.is_goal(chain) and I.is_goal(I.neg(I.sinx()))
    assert I.token_count(I.integral(chain)) == 9004
    units = 0
    for path, unit in I.iter_postorder(chain):
        units += 1
    assert units == 3001 and path == () and unit is chain
    deep = (0,) * 2999
    assert I.subexpr_at(I.replace_at(chain, deep, I.cosx()), deep) is I.cosx()
    empty = RuleSet([None] * len(I.OPERATORS))
    assert rule_solve_ex(empty, I.IntegrationRuleDomain(), chain) == (BOTTOM, "no_match")
    # the numeric and symbolic oracles: d/dx of -(-(...x)) is -(-(...1))
    d = I.differentiate(chain)
    for _ in range(3000):
        assert d.kind == I.NEG
        d = d.args[0]
    assert d is I.ONE
    assert I.numeric_value(chain, 0.5) == 0.5


def test_step_limit_returns_none_on_runaway_by_parts(monkeypatch):
    # by parts never bottoms out here: each round nests the integral deeper,
    # which used to exhaust the Python stack before the step limit
    e = _expr("∫ ( sin x ) * ∫ x * x d x d x")
    assert I.teacher_trace(e) is None
    monkeypatch.setattr(I, "_MAX_TEACHER_STEPS", 200)
    assert I.teacher_trace(e) is None


def test_is_goal():
    assert I.is_goal(_expr("( - ( cos x ) ) + ( x ^ 3 ) / 3"))
    assert not I.is_goal(_expr("9 + 1"))          # foldable
    assert not I.is_goal(_expr("∫ x d x"))        # integral remains
    assert I.is_goal(_expr("0 * ( x ^ 4 ) + x"))  # inert zero term is normal


def test_teacher_matches_select_form_ruleset():
    # the structural fast path and the sentential-form teacher must produce
    # identical solutions step for step
    ruleset = I.teacher_ruleset()
    rdomain = I.IntegrationRuleDomain()
    rng = random.Random(13)
    for _ in range(25):
        p = I.generate_problem(rng)
        fast = I.teacher_solve(p)
        slow = rule_solve(ruleset, rdomain, p)
        assert slow is not BOTTOM
        assert tuple(slow) == tuple(fast)


def test_generator_distribution_shape():
    rng = random.Random(99)
    c1s, ps, kinds = set(), set(), set()
    for _ in range(3000):
        p = I.generate_problem(rng)
        assert p.kind == I.INTEGRAL
        body = p.args[0]
        lead, rest = body.args
        assert lead.kind == I.PROD and lead.args[0].kind == I.NUM
        assert lead.args[1].kind == I.POWER
        c1s.add(lead.args[0].args[0])
        ps.add(lead.args[1].args[1].args[0])
        t4 = rest.args[1].args[1]
        kinds.add(t4.kind)
    assert c1s == set(range(10))
    assert ps == set(range(3, 10))
    assert kinds == {I.NUM, I.SIN, I.COS}


def test_generator_determinism():
    a = [I.to_text(I.generate_problem(random.Random(4))) for _ in range(1)]
    b = [I.to_text(I.generate_problem(random.Random(4))) for _ in range(1)]
    assert a == b


def test_teacher_numeric_soundness_sample():
    rng = random.Random(21)
    for _ in range(100):
        p = I.generate_problem(rng)
        trace = I.teacher_trace(p)
        assert trace is not None
        answer = trace[1]
        d = I.differentiate(answer)
        for x in (0.1, 0.5, 1.3):
            assert math.isclose(I.numeric_value(d, x),
                                I.numeric_value(p.args[0], x),
                                rel_tol=1e-6, abs_tol=1e-9)


def test_differentiate_oracle_against_finite_differences():
    # differentiate() is itself an oracle; pin it to numerics
    exprs = [
        _expr("( x ^ 5 ) + 3 * x"),
        _expr("( sin x ) * ( cos x )"),
        _expr("( x ^ 2 ) / ( 1 + x )"),
        _expr("( - ( sin x ) ) - 2"),
    ]
    h = 1e-6
    for e in exprs:
        d = I.differentiate(e)
        for x in (0.3, 0.9):
            numeric = (I.numeric_value(e, x + h) - I.numeric_value(e, x - h)) / (2 * h)
            assert math.isclose(I.numeric_value(d, x), numeric, rel_tol=1e-4)
    # kinds the oracles cannot handle, and values no float holds, raise
    # ParameterError
    for bad in (I.integral(I.VAR_X), I.deriv(I.VAR_X), I.named("a"),
                I.div(I.ONE, I.ZERO), I.powx(I.num(10000))):
        with pytest.raises(ParameterError):
            I.numeric_value(I.add(I.ONE, bad), 1.3)
    for bad in (I.integral(I.VAR_X), I.deriv(I.VAR_X), I.powx(I.VAR_X)):
        with pytest.raises(ParameterError):
            I.differentiate(I.add(I.ONE, bad))


def test_domain_spec_replays_teacher():
    from speedup_learning.core import replay
    dom = I.domain_spec()
    rng = random.Random(31)
    for _ in range(10):
        p = I.generate_problem(rng)
        states = replay(dom, p, I.teacher_solve(p))
        assert I.is_goal(states[-1])
