import functools
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import iter_postorder
from speedup_learning import integration as I
from speedup_learning import oracles
from speedup_learning.control_rules import IncrementalRuleLearner, RuleSet, rule_solve, rule_solve_ex
from speedup_learning.core import BOTTOM, Example, replay
from speedup_learning.errors import (
    InapplicableOperatorError,
    LocationError,
    ParameterError,
    ParseError,
)
from speedup_learning.grammar import (
    Node,
    cap_matches_tree,
    form_to_cap,
    membership,
    msc,
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
    for path, unit in iter_postorder(e):
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
    # operators 22-26 test the constants by identity, and nothing empties
    # the interning table, so a fresh num(1) is ONE for the whole process
    assert I.num(0) is I.ZERO and I.num(1) is I.ONE and I.num(2) is I.TWO
    assert _expr("x") is I.VAR_X
    with pytest.raises(ParameterError):
        I.num(-1)
    for not_an_int in ("3", 1.5, None):
        with pytest.raises(ParameterError):
            I.num(not_an_int)
    with pytest.raises(ParameterError):
        I.named("b")
    # the integration entry points take only Exprs, unhashable input too
    rd = I.IntegrationRuleDomain()
    for not_an_expr in ("x", None, 1, ["x"]):
        for call in (I.teacher_trace, I.teacher_solve, I.teacher_record, I.is_goal,
                     I.to_tokens, I.token_count, oracles.differentiate,
                     lambda e: oracles.numeric_value(e, 0.5),
                     lambda e: rule_solve_ex(I.teacher_ruleset(), rd, e)):
            with pytest.raises(ParameterError):
                call(not_an_expr)


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
    assert I.to_text(I.add(I.mul(I.TWO, I.VAR_X), I.sub(I.ONE, I.named("a")))) == "2 * x + 1 - a"
    assert I.to_text(I.integral(I.powx(I.num(10)))) == "∫ ( x ^ 1 0 ) d x"


def test_as_exp_matches_reparse():
    # the direct parse-tree builder must agree with the Earley parser
    rng = random.Random(6)
    for _ in range(30):
        p = I.generate_problem(rng)
        for e in (p.args[0], I.teacher_trace(p)[1]):
            assert same_tree(I.as_exp(e), parse(I.GRAMMAR, I.to_tokens(e), "Exp"))


def _category_chain(tree):
    """An Exp tree and the nodes down its unary Exp -> Term -> P-term chain."""
    chain = [tree]
    while len(tree.children) == 1 and tree.children[0].label in I._CATEGORY:
        tree = tree.children[0]
        chain.append(tree)
    return chain


def test_a_slot_holds_its_childs_tree_in_place():
    # the memo keeps one tree per subterm, the one as_exp returns; in a
    # parent's tree a child without parentheses is a node of that tree, the
    # same object, and with them P-term -> ( Exp ) holds that tree itself
    natural = (I.VAR_X, I.mul(I.TWO, I.VAR_X), I.add(I.ONE, I.VAR_X))  # P-term, Term, Exp
    for nat, c in enumerate(natural):
        parents = [f(c) for f in (I.integral, I.deriv, I.neg, I.powx)]
        for x in parents + [f(c, c) for f in (I.add, I.sub, I.mul, I.div)]:
            for _, sub in iter_postorder(x):
                assert I.as_exp(sub) is I._TREES[sub] and I._TREES[sub].label == "Exp"
            head, body = I._LAYOUT[x.kind]
            node = _category_chain(I.as_exp(x))[-1]
            if head is not None:
                node = node.children[0]
            slots = [(p[1], k) for p, k in zip(body, node.children) if not isinstance(p, str)]
            assert slots
            for slot, k in slots:
                assert k.label == I._CATEGORY[slot]
                if nat <= slot:
                    assert any(k is t for t in _category_chain(I.as_exp(c)))
                else:
                    paren = k if slot == I._PTERM else k.children[0]
                    assert [t.label for t in paren.children] == ["(", "Exp", ")"]
                    assert paren.children[1] is I.as_exp(c)


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
    # a location is read once, so an iterator of indices works too
    sin_plus_one = I.add(I.integral(I.sinx()), I.ONE)
    assert I.apply_at(op, sin_plus_one, iter((0,))) is I.apply_at(op, sin_plus_one, (0,))


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
@given(st.one_of(
    _EXPRS.map(I.integral),
    _EXPRS.map(I.deriv),
    st.integers(0, 2**32).map(lambda seed: I.generate_problem(random.Random(seed))),
))
def test_trace_records_walk_as_the_trace_and_keep_the_limit_exact(e):
    # the record's walk and teacher_solve read teacher_trace's steps; a
    # trace of n steps passes a limit of n and not n - 1, also when only its
    # top record is missing and every part of it is memoized, and from a
    # cold memo, which the call that fails fills with the records of the
    # subterms it finished
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(I, "_MAX_TEACHER_STEPS", 200)
        trace = I.teacher_trace(e)
        if trace is None:
            return
        steps, final = trace
        record = I.teacher_record(e)
        assert tuple(I.record_steps(record)) == steps
        assert I.teacher_solve(e) == tuple((op, path) for op, path, _ in steps)
        assert record.normal_form is final and record.steps == len(steps)
        n = len(steps)
        if n == 0:
            return
        del I._TRACE[e]
        for memo in (I._TRACE, {}):
            mp.setattr(I, "_TRACE", memo)
            mp.setattr(I, "_MAX_TEACHER_STEPS", n - 1)
            assert I.teacher_trace(e) is None and e not in I._TRACE
            mp.setattr(I, "_MAX_TEACHER_STEPS", n)
            assert I.teacher_trace(e) == trace
            assert I.teacher_record(e).steps == n


_LED_BY_A_PROBLEM = st.tuples(
    st.sampled_from([I.add, I.sub, I.mul, I.div]),
    st.one_of(_EXPRS.map(I.integral), _EXPRS.map(I.deriv)),
    _EXPRS,
).map(lambda t: t[0](t[1], t[2]))


def _teacher_states(seed):
    """The states of the teacher's solution of one drawn problem."""
    p = I.generate_problem(random.Random(seed))
    solution = I.teacher_solve(p)
    return [p] if solution is BOTTOM else replay(I.IntegrationRuleDomain(), p, solution)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_EXPRS, _EXPRS.map(I.integral), _EXPRS.map(I.deriv), _LED_BY_A_PROBLEM,
                 st.integers(0, 2**32).flatmap(lambda seed: st.sampled_from(_teacher_states(seed)))))
@example(I.add(I.integral(I.VAR_X), I.ONE))
def test_tokens_round_trip_and_count(e):
    # all 13 kinds in every parenthesis context, terms whose first token is
    # ∫ or D, and states of teacher solutions (a sum split leaves such a
    # term): parse_expr reads back every term, and the trees the layout
    # table gives are the ones the Earley parser gives
    tokens = I.to_tokens(e)
    assert I.parse_expr(tokens) is e
    assert I.token_count(e) == len(tokens)
    assert same_tree(I.as_exp(e), parse(I.GRAMMAR, tokens, "Exp"))


def test_round_trip_of_deep_inputs():
    # a 400-digit integer (Int -> Digit Int, 400 levels) and a 3000-deep
    # negation chain: serializing, parsing, reading back, the parse tree,
    # the goal test, the unit walk, the rule solver and the oracles recurse
    # nowhere
    big = I.num(int("9876543210" * 40))
    assert I.parse_expr(I.to_tokens(big)) is big
    # a literal longer than MAX_LITERAL_DIGITS is a parse error, not a
    # ValueError, whatever the interpreter's int/str limit allows
    assert I.MAX_LITERAL_DIGITS == 4300
    longest = ("∫",) + ("7",) * 4300 + ("d", "x")
    assert I.to_tokens(I.parse_expr(longest)) == longest
    with pytest.raises(ParseError):
        I.parse_expr(("∫",) + ("7",) * 4301 + ("d", "x"))
    # and one constructs, but is a typed error wherever its tokens are
    # written, the rule solver's limits included
    assert I.token_count(I.num(10 ** 4300 - 1)) == 4300
    for huge in (I.num(10 ** 4300), I.num(10 ** 5000)):
        for call in (I.to_text, I.to_tokens, I.token_count, I.as_exp,
                     lambda e: rule_solve_ex(I.teacher_ruleset(), I.IntegrationRuleDomain(), e)):
            with pytest.raises(ParameterError):
                call(huge)
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
    for path, unit in iter_postorder(chain):
        units += 1
    assert units == 3001 and path == () and unit is chain
    deep = (0,) * 2999
    assert I.subexpr_at(I.replace_at(chain, deep, I.cosx()), deep) is I.cosx()
    empty = RuleSet([None] * len(I.OPERATORS))
    assert rule_solve_ex(empty, I.IntegrationRuleDomain(), chain) == (BOTTOM, "no_match")
    # the numeric and symbolic oracles: d/dx of -(-(...x)) is -(-(...1))
    d = oracles.differentiate(chain)
    for _ in range(3000):
        assert d.kind == I.NEG
        d = d.args[0]
    assert d is I.ONE
    assert oracles.numeric_value(chain, 0.5) == 0.5
    # the teacher: 1500 neg_neg steps from the bottom up, then ∫ x d x;
    # teacher_solve replays to the trace's normal form
    problem = I.integral(chain)
    steps, final = I.teacher_trace(problem)
    assert len(steps) == 1501 and I.to_text(final) == "( x ^ 2 ) / 2"
    assert replay(I.domain_spec(), problem, I.teacher_solve(problem))[-1] is final
    # the memo holds each subterm's own steps and one reference per child
    # that took a step, so its records hold O(depth) segments, not the
    # O(depth^2) steps with their paths that copying them would
    records, todo = set(), [I.teacher_record(problem)]
    while todo:
        record = todo.pop()
        if record not in records:
            records.add(record)
            todo.extend(part for _, part in record.segments if type(part) is I.TeacherRecord)
    assert len(records) == 3000
    assert sum(len(record.segments) for record in records) == 4500


def _chains(depth, bottom=I.VAR_X):
    """Chains ``depth`` deep over ``bottom`` through each kind with an
    argument: every slot category, the ones that need parentheses among
    them."""
    makers = (I.neg, I.powx, I.integral, I.deriv,
              lambda e: I.add(I.VAR_X, e), lambda e: I.sub(e, I.ONE),
              lambda e: I.mul(I.TWO, e), lambda e: I.div(e, I.VAR_X))
    chains = []
    for make in makers:
        e = bottom
        for _ in range(depth):
            e = make(e)
        chains.append(e)
    return chains


_LONG_LITERALS = st.integers(10, 10 ** 30).map(I.num)
_EXPRS_WITH_LONG_LITERALS = st.recursive(_LEAVES | _LONG_LITERALS, _grow, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_EXPRS, _EXPRS.map(I.integral), _EXPRS.map(I.deriv), _EXPRS_WITH_LONG_LITERALS))
def test_to_tokens_is_the_yield_of_the_tree(e):
    assert I.to_tokens(e) == tree_yield(I.as_exp(e))


def test_long_literals_do_not_depend_on_the_int_str_limit():
    # at 640 digits, the least int/str conversion limit CPython allows, a
    # 4300-digit literal is still written, read, learned and solved with;
    # the second has zeros where it is cut into pieces
    literals = {n: str(n) for n in (int("9876543210" * 430), 10 ** 4299 + 7)}
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n, text in literals.items():
            q = I.integral(I.add(I.num(n), I.VAR_X))
            tokens = I.to_tokens(q)
            assert tokens == ("∫", *text, "+", "x", "d", "x")
            assert I.to_text(I.num(n)) == " ".join(text)
            assert I.parse_expr(tokens) is q
            solution = I.teacher_solve(q)
            assert rule_solve_ex(I.teacher_ruleset(), I.IntegrationRuleDomain(), q) == (solution, "solved")
            learner = IncrementalRuleLearner(I.IntegrationRuleDomain())
            learner.add_example(Example(q, solution))
            assert rule_solve_ex(learner.ruleset(), learner.rdomain, q) == (solution, "solved")
    finally:
        sys.set_int_max_str_digits(old)


def test_repr_never_raises():
    assert repr(I.add(I.num(12), I.VAR_X)) == "<1 2 + x>"
    assert repr(I.num(10 ** 4300 - 1)) == f"<{' '.join('9' * 4300)}>"
    for e in (I.num(10 ** 4300), I.integral(I.add(I.VAR_X, I.num(10 ** 5000)))):
        assert repr(e) == f"<{e.kind} holding a literal of more than 4300 digits>"


def test_to_tokens_of_deep_chains_and_long_literals():
    for e in _chains(3000) + [I.num(10 ** 4300 - 1), I.add(I.num(int("1234567890" * 30)), I.VAR_X)]:
        assert I.to_tokens(e) == tree_yield(I.as_exp(e))


def _cap(form, start="Exp"):
    return form_to_cap(I.GRAMMAR, form.split(), start)


def test_serializing_and_matching_a_term_build_no_tree():
    # to_tokens, to_text and repr walk the layout, and unit_matches the
    # compiled cap: none of them fills the parse tree memo
    fresh = I.add(I.mul(I.num(90817263544536271), I.powx(I.named("k"))), I.sub(I.VAR_X, I.named("a")))
    assert fresh not in I._TREES
    before = len(I._TREES)
    assert I.to_text(fresh) == "9 0 8 1 7 2 6 3 5 4 4 5 3 6 2 7 1 * ( x ^ k ) + x - a"
    assert repr(fresh) == f"<{I.to_text(fresh)}>"
    rd = I.IntegrationRuleDomain()
    for cap in I.teacher_ruleset().caps + (_cap("Int * Term + Exp"),):
        rd.unit_matches(cap, fresh)
    assert rd.unit_matches(_cap("Int * ( x ^ k ) + Exp"), fresh)
    assert len(I._TREES) == before


# (form, units it matches, units it does not), all as Exp-rooted token
# texts: the layout defines each answer, and cap_matches_tree on the unit's
# tree agrees
_WORKED_CAPS = [
    # an Int chain cut part-way: more digits than the cut, these before it
    ("1 2 Int", ["1 2 3", "1 2 3 4"], ["1 2", "1 3 2", "1", "x", "a"]),
    ("Digit Int", ["1 0", "9 9 9"], ["7"]),
    ("4 Digit", ["4 0", "4 5"], ["4", "4 0 0", "5 4"]),
    ("Int", ["0", "1 2 3"], ["a", "x"]),
    ("0 7", [], ["7", "0", "7 0"]),
    ("a", ["a"], ["k", "1"]),
    ("Const", ["a", "1 2"], ["x"]),
    # P-term -> ( Exp ) where the slot is tighter than the argument
    ("( Exp ) * Term", ["( 1 + x ) * 3", "( 2 * x ) * 3", "( 2 - x ) * x * x"], ["1 * 3", "x"]),
    ("( Exp ) + Exp", ["( 1 + x ) + 2", "( 1 - x ) + 2"], ["1 + x + 2", "( 1 * x ) + 2"]),
    ("( - ( - Term ) )", ["( - ( - x ) )", "( - ( - 1 * x ) )"], ["( - x )", "( - ( 1 + x ) )"]),
    ("( x ^ ( Exp ) )", ["( x ^ ( 1 + 2 ) )"], ["( x ^ 1 * 2 )", "( x ^ 3 )"]),
    # each argument in its slot's category
    ("x * x", ["x * x"], ["x * ( sin x )", "x * x * x", "x"]),
    ("P-term * Term + Exp", ["2 * x + 1", "a * ( sin x ) + x - 1"], ["2 + 1", "x"]),
    ("Term", ["x * x", "x", "∫ x d x"], ["1 + x"]),
    ("x", ["x"], ["x * x", "( sin x )"]),
    ("∫ Const * Term d x", ["∫ 3 * x d x", "∫ a * ( sin x ) d x"], ["∫ x * 3 d x", "D 3 * x x"]),
    ("D ( cos x ) x", ["D ( cos x ) x"], ["D ( sin x ) x", "( cos x )"]),
    ("( x ^ 1 0 )", ["( x ^ 1 0 )"], ["( x ^ 1 )", "( x ^ 1 0 0 )"]),
    ("Exp", ["x", "1 + 2", "∫ ( sin x ) d x"], []),
]


def test_unit_matches_worked_caps():
    rd = I.IntegrationRuleDomain()
    for form, yes, no in _WORKED_CAPS:
        cap = _cap(form)
        for texts, want in ((yes, True), (no, False)):
            for text in texts:
                unit = I.parse_expr(text.split())
                assert cap_matches_tree(cap, I.as_exp(unit)) is want, (form, text)
                assert rd.unit_matches(cap, unit) is want, (form, text)
    # a cap not rooted at Exp matches no unit's tree
    assert not rd.unit_matches(_cap("x", "Term"), I.VAR_X)
    with pytest.raises(ParameterError):
        rd.unit_matches(_cap("Exp"), "x")


def test_unit_matches_on_a_3000_deep_chain():
    # caps built from 3000-deep chain units compile and match on explicit
    # stacks: the whole tree (a first cap), and its meet with the same chain
    # over 1, which cuts it at the bottom
    rd = I.IntegrationRuleDomain()
    for chain, over_one, other in zip(_chains(3000), _chains(3000, I.ONE), _chains(2999)):
        whole = I.as_exp(chain)
        cut = msc(whole, I.as_exp(over_one))
        for cap in (whole, cut):
            for unit in (chain, over_one, other):
                assert rd.unit_matches(cap, unit) is cap_matches_tree(cap, I.as_exp(unit))
        assert rd.unit_matches(cut, chain) and rd.unit_matches(cut, over_one)
        assert not rd.unit_matches(whole, over_one) and not rd.unit_matches(cut, other)


def test_cap_meets_live_on_the_domain():
    # a cap's meets live in the memo of the domain that matched it, which a
    # curve's trial owns, and in no module-level table
    rd = I.IntegrationRuleDomain()
    cap = _cap("P-term * Term + Exp")
    assert rd.unit_matches(cap, I.parse_expr("2 * x + 1".split()))
    assert cap in rd._meets and cap not in I.IntegrationRuleDomain()._meets
    tables = [v for v in list(vars(I).values()) + list(vars(I.Expr).values()) if isinstance(v, dict)]
    assert tables and not any(cap in t for t in tables)


def test_a_meet_is_made_when_a_match_first_reaches_its_kind():
    # a cap node meets an Expr kind only when a match reaches that pair,
    # and each pair keeps its own meet
    rd = I.IntegrationRuleDomain()
    cap = _cap("P-term * Term + Exp")
    assert rd.unit_matches(cap, _expr("2 * x + 1"))
    assert set(rd._meets[cap]) == {I.SUM}
    assert not rd.unit_matches(cap, _expr("x"))
    assert not rd.unit_matches(cap, _expr("2 - x"))
    assert not rd.unit_matches(cap, _expr("2 + x"))
    assert set(rd._meets[cap]) == {I.SUM, I.VAR, I.DIFF}
    assert rd._meets[cap][I.VAR] is False and rd._meets[cap][I.DIFF] is False
    assert rd.decider(RuleSet([cap]))(_expr("3 * x + x")) == 1
    assert len(rd._meets[cap]) == len(I._LAYOUT)  # the pick meets its root caps with every kind


def _cut(tree, rnd, p, labels=None):
    """A random cap of ``tree``: each nonterminal node below the root (with
    a label in ``labels``, if given) is cut to a leaf with probability
    ``p``.  Explicit stack."""
    done: list = []
    stack = [(tree, False)]
    while stack:
        node, built = stack.pop()
        if built:
            k = len(done) - len(node.children)
            kids = done[k:]
            del done[k:]
            done.append(Node(node.label, kids))
        elif not node.children:
            done.append(node)
        elif node is not tree and (labels is None or node.label in labels) and rnd.random() < p:
            done.append(Node(node.label))
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(node.children))
    return done[0]


@functools.cache
def _known_caps():
    """The teacher's caps, and every cap two seeded learners hold as they
    take twelve examples each."""
    from speedup_learning.control_rules import IncrementalRuleLearner
    from speedup_learning.core import Example

    caps = {id(c): c for c in I.teacher_ruleset().caps}
    for seed in (1, 2):
        rng = random.Random(seed)
        learner = IncrementalRuleLearner(I.IntegrationRuleDomain())
        for _ in range(12):
            p = I.generate_problem(rng)
            learner.add_example(Example(p, I.teacher_solve(p)))
            caps.update((id(c), c) for c in learner.caps if c is not None)
    return tuple(caps.values())


@settings(max_examples=150, deadline=None)
@given(exprs=st.lists(_EXPRS_WITH_LONG_LITERALS, min_size=2, max_size=4),
       chain=st.deferred(lambda: st.sampled_from([None] * 24 + _chains(3000))),
       problem=st.integers(0, 2**32).map(lambda seed: I.generate_problem(random.Random(seed))),
       rnd=st.randoms(use_true_random=False),
       p=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
       labels=st.sampled_from([None, {"Int", "Digit"}]),
       known=st.lists(st.deferred(lambda: st.sampled_from(_known_caps())), max_size=4))
def test_unit_matches_equals_cap_matches_tree(exprs, chain, problem, rnd, p, labels, known):
    # caps: random cuts of unit trees (some only inside Int chains), their
    # meets, teacher forms and learners' caps; units: the drawn terms with
    # every kind, slot and multi-digit literals, their subterms, a 3000-deep
    # chain and the teacher's units on a drawn problem
    if chain is not None:
        exprs = exprs + [chain]
    trees = [I.as_exp(e) for e in exprs]
    cuts = [_cut(t, rnd, p, labels) for t in trees]
    caps = cuts + [msc(cuts[0], cuts[1]), msc(trees[0], trees[-1]), msc(cuts[-1], trees[0])] + known
    units = [u for e in exprs[:2] for _, u in iter_postorder(e)] + exprs[2:]
    units += [u for _, _, u in I.teacher_trace(problem)[0]]
    want = {(cap, unit): cap_matches_tree(cap, I.as_exp(unit)) for cap in caps for unit in units}
    # one domain makes each meet when a match first reaches it, so it must
    # answer alike in any order, and as a fresh domain does
    pairs = list(want)
    rnd.shuffle(pairs)
    rd = I.IntegrationRuleDomain()
    for cap, unit in pairs:
        assert rd.unit_matches(cap, unit) is want[cap, unit]
        assert I.IntegrationRuleDomain().unit_matches(cap, unit) is want[cap, unit]
    # the learned solver's pick reads the same memo, already warmed
    decide = rd.decider(RuleSet(caps))
    for unit in units:
        assert decide(unit) == next((i for i, cap in enumerate(caps, 1) if want[cap, unit]), None)


def _sevens(digits):
    return I.num((10 ** digits - 1) // 9 * 7)


@settings(max_examples=100, deadline=None)
@given(e=st.recursive(_LEAVES | _LONG_LITERALS | st.just(_sevens(39)), _grow, max_leaves=8),
       rnd=st.randoms(use_true_random=False),
       p=st.sampled_from([0.0, 0.2, 0.5]),
       labels=st.sampled_from([None, {"Int", "Digit"}]),
       known=st.lists(st.deferred(lambda: st.sampled_from(_known_caps())), max_size=3))
def test_unit_matches_on_literals_too_long_to_write(e, rnd, p, labels, known):
    # a unit holding a literal longer than MAX_LITERAL_DIGITS has no tree
    # (as_exp raises ParameterError); unit_matches raises that error where
    # the cap spells part of the literal's digits, and elsewhere answers as
    # the layout defines.  The caps reach at most 39 digits down an Int
    # chain, so the layout answers for 4301 sevens as for 40.
    ref, huge = e, e
    for path, unit in iter_postorder(e):
        if unit is _sevens(39):
            ref = I.replace_at(ref, path, _sevens(40))
            huge = I.replace_at(huge, path, _sevens(I.MAX_LITERAL_DIGITS + 1))
    if huge is not e:
        with pytest.raises(ParameterError):
            I.as_exp(huge)
    rd = I.IntegrationRuleDomain()
    for cap in [_cut(I.as_exp(e), rnd, p, labels)] + known:
        try:
            got = rd.unit_matches(cap, huge)
        except ParameterError:
            continue
        assert got is cap_matches_tree(cap, I.as_exp(ref))


def test_unit_matches_reads_a_too_long_literal_only_where_the_cap_spells_it():
    rd = I.IntegrationRuleDomain()
    huge = _sevens(I.MAX_LITERAL_DIGITS + 1)
    for form, want in (("Exp", True), ("Int", True), ("Const", True), ("a", False),
                       ("7 7", False), ("x", False), ("P-term * Term", False)):
        assert rd.unit_matches(_cap(form), huge) is want
    for form in ("7 Int", "Digit Int", "7 Digit"):
        with pytest.raises(ParameterError):
            rd.unit_matches(_cap(form), huge)


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


def test_generate_problem_draws_the_same_stream():
    # the pinned integration curves depend on these draws: the texts pin
    # which value each randrange result picks, and the value drawn after
    # them pins how many calls a problem makes; an interpreter that draws
    # differently fails here instead of changing the curves
    rng = random.Random(4)
    assert [I.to_text(I.generate_problem(rng)) for _ in range(5)] == [
        "∫ 3 * ( x ^ 5 ) + ( cos x ) * ( x ^ 2 ) + 9 * x + 4 d x",
        "∫ 7 * ( x ^ 4 ) + ( cos x ) * ( x ^ 2 ) + ( cos x ) * x + ( sin x ) d x",
        "∫ 6 * ( x ^ 7 ) + 2 * ( x ^ 2 ) + ( sin x ) * x + 1 d x",
        "∫ 8 * ( x ^ 7 ) + 3 * ( x ^ 2 ) + 2 * x + 0 d x",
        "∫ 1 * ( x ^ 5 ) + 1 * ( x ^ 2 ) + ( sin x ) * x + 8 d x",
    ]
    assert rng.random() == 0.8066523467023234


def test_teacher_numeric_soundness_sample():
    rng = random.Random(21)
    for _ in range(100):
        p = I.generate_problem(rng)
        trace = I.teacher_trace(p)
        assert trace is not None
        answer = trace[1]
        d = oracles.differentiate(answer)
        for x in (0.1, 0.5, 1.3):
            assert math.isclose(oracles.numeric_value(d, x),
                                oracles.numeric_value(p.args[0], x),
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
        d = oracles.differentiate(e)
        for x in (0.3, 0.9):
            numeric = (oracles.numeric_value(e, x + h) - oracles.numeric_value(e, x - h)) / (2 * h)
            assert math.isclose(oracles.numeric_value(d, x), numeric, rel_tol=1e-4)
    # kinds the oracles cannot handle, and values no float holds, raise
    # ParameterError
    for bad in (I.integral(I.VAR_X), I.deriv(I.VAR_X), I.named("a"),
                I.div(I.ONE, I.ZERO), I.powx(I.num(10000))):
        with pytest.raises(ParameterError):
            oracles.numeric_value(I.add(I.ONE, bad), 1.3)
    for bad in (I.integral(I.VAR_X), I.deriv(I.VAR_X), I.powx(I.VAR_X)):
        with pytest.raises(ParameterError):
            oracles.differentiate(I.add(I.ONE, bad))


def test_domain_spec_replays_teacher():
    from speedup_learning.core import replay
    dom = I.domain_spec()
    rng = random.Random(31)
    for _ in range(10):
        p = I.generate_problem(rng)
        states = replay(dom, p, I.teacher_solve(p))
        assert I.is_goal(states[-1])
