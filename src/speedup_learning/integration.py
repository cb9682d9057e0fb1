"""The symbolic-integration domain.

Expressions are immutable hash-consed ASTs mirroring the grammar below.
Their concrete syntax is written down once, in ``_LAYOUT``: one memoized
bottom-up walk (``_bottom_up``) reads it to give each subterm's parse
trees (``as_exp``; ``to_tokens`` is their yield) and token count, and the
same walk gives the goal test.  ``tree_to_expr`` reads a parse tree back.
Rewrite operators 1-7 are the classic integral table (constant factoring,
sum/difference splitting, integration by parts, the power/sin/cos rules);
8-10 round out the integrals the problem distribution needs; 11-17 are
differentiation rules; 18-27 are simplification rules (constant folding and
identity elimination).  A solver repeatedly visits the expression in
post-order and applies the least-indexed applicable operator at the first
node that admits one, until no operator applies anywhere.

The teacher is the same interpreter driven by hand-authored select-sets,
one sentential form per operator (``teacher_ruleset``).  Its structural
fast path (``teacher_trace``) decides by operator pattern instead of
select-set membership; the two agree on the problem distribution and the
test suite cross-checks them.

``teacher_trace`` never restarts from the root.  Under post-order first
match a subterm is fully normalized before anything to its right or above
it fires, so the steps taken inside a subterm, and its normal form, depend
on that subterm alone.  The teacher therefore solves each interned subterm
once, composes the result into its parents, and keeps it in ``_TRACE``;
the test suite checks it step for step against the restart-from-root
interpreter.  ``_TRACE`` is one of the memo tables listed in ``_MEMOS``:
one table per value derived from a subterm alone, keyed by the interned
``Expr``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from .control_rules import RuleSet
from .core import BOTTOM, DomainSpec
from .errors import (
    InapplicableOperatorError,
    LocationError,
    ParameterError,
)
from .grammar import Grammar, Node, cap_matches_tree, form_to_cap, parse, tree_yield

GRAMMAR_TEXT = """\
# Integration problems: integrals and derivatives over polynomials in x,
# trig terms, and integer/named constants.  Int extends the single-digit
# original to digit strings so folded constants (e.g. 9+1) stay writable.
Prob -> ∫ Exp d Var | D Exp Var
Exp -> Term | Term + Exp | Term - Exp
Term -> P-term | P-term * Term | P-term / Term
P-term -> Const | Var | ( - Term ) | Trig | Power | Prob | ( Exp )
Power -> ( Var ^ Term )
Trig -> ( sin Var ) | ( cos Var )
Const -> Int | a | k
Var -> x
Int -> Digit | Digit Int
Digit -> 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9
"""

GRAMMAR = Grammar.from_text(GRAMMAR_TEXT)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# Node kinds.  Sum/Diff/Prod/Quot are the binary arithmetic forms; "diff"
# here is binary subtraction, "deriv" is the D operator.
INTEGRAL = "integral"
DERIV = "deriv"
SUM = "sum"
DIFF = "diff"
PROD = "prod"
QUOT = "quot"
NEG = "neg"
POWER = "power"
SIN = "sin"
COS = "cos"
NUM = "num"
NAMED = "named"
VAR = "var"


class Expr:
    """Hash-consed expression node; equal structures are the same object.

    ``children`` are the Expr arguments: none for the leaves (whose one
    argument is an int or a name), all of ``args`` for every other kind.
    What is derived from a subterm is kept in the memo tables (``_MEMOS``),
    not on the node.
    """

    __slots__ = ("kind", "args", "children")

    _interned: dict = {}

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args
        self.children = () if kind in (NUM, NAMED, VAR) else args

    def __repr__(self):
        return f"<{to_text(self)}>"


def _mk(kind: str, *args) -> Expr:
    key = (kind, args)
    e = Expr._interned.get(key)
    if e is None:
        e = Expr._interned[key] = Expr(kind, args)
    return e


# Memo tables, one per value derived from a subterm alone, keyed by the
# interned Expr.
_TREES: dict = {}  # its (P-term, Term, Exp) parse trees (``_trees``)
_NTOK: dict = {}  # its token count (``_token_count``)
_GOAL: dict = {}  # ``is_goal`` (``_normal``)
_TRACE: dict = {}  # ``teacher_trace``'s (steps, normal form)
_MEMOS = (_TREES, _NTOK, _GOAL, _TRACE)


def clear_expr_caches():
    """Empty the interning table and every memo table (``_MEMOS``).

    The module constants are interned again at once: operators test them
    by identity (``is ONE``), so a fresh ``num(1)`` must be ``ONE``.  Their
    memos are recomputed on demand, like any other subterm's.
    """
    for table in (Expr._interned,) + _MEMOS:
        table.clear()
    for e in (VAR_X, ZERO, ONE, TWO):
        Expr._interned[(e.kind, e.args)] = e


VAR_X = _mk(VAR, "x")


def num(n: int) -> Expr:
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"integer literals are nonnegative ints, got {n!r}; use neg()")
    return _mk(NUM, n)


def named(name: str) -> Expr:
    if name not in ("a", "k"):
        raise ParameterError(f"unknown named constant {name!r}")
    return _mk(NAMED, name)


def integral(body: Expr) -> Expr:
    return _mk(INTEGRAL, body, VAR_X)


def deriv(body: Expr) -> Expr:
    return _mk(DERIV, body, VAR_X)


def add(l: Expr, r: Expr) -> Expr:
    return _mk(SUM, l, r)


def sub(l: Expr, r: Expr) -> Expr:
    return _mk(DIFF, l, r)


def mul(l: Expr, r: Expr) -> Expr:
    return _mk(PROD, l, r)


def div(l: Expr, r: Expr) -> Expr:
    return _mk(QUOT, l, r)


def neg(e: Expr) -> Expr:
    return _mk(NEG, e)


def powx(exponent: Expr) -> Expr:
    return _mk(POWER, VAR_X, exponent)


def sinx() -> Expr:
    return _mk(SIN, VAR_X)


def cosx() -> Expr:
    return _mk(COS, VAR_X)


ZERO = num(0)
ONE = num(1)
TWO = num(2)


def _is_const(e: Expr) -> bool:
    return e.kind in (NUM, NAMED)


# ---------------------------------------------------------------------------
# Concrete syntax: parse trees, tokens and the walk that derives them
# ---------------------------------------------------------------------------

# Grammatical categories, tightest to loosest.  A node whose natural
# category is looser than the one required by its context gets wrapped in
# parentheses (the P-term -> ( Exp ) production).
_PTERM, _TERM, _EXP = 0, 1, 2
_CATEGORY = ("P-term", "Term", "Exp")
_NATURAL = {SUM: _EXP, DIFF: _EXP, PROD: _TERM, QUOT: _TERM}

# The concrete syntax, written once.  A kind's parse tree in its natural
# category is that category's node over the body, with the body first put
# under the nonterminal given here, if any.  A body is literal tokens and
# (argument index, category) slots; the token x is always the node Var(x).
# A named constant's body is its name, an integer's its digits as an Int
# chain (Int -> Digit | Digit Int).
_LAYOUT = {
    INTEGRAL: ("Prob", ("∫", (0, _EXP), "d", "x")),
    DERIV: ("Prob", ("D", (0, _EXP), "x")),
    SUM: (None, ((0, _TERM), "+", (1, _EXP))),
    DIFF: (None, ((0, _TERM), "-", (1, _EXP))),
    PROD: (None, ((0, _PTERM), "*", (1, _TERM))),
    QUOT: (None, ((0, _PTERM), "/", (1, _TERM))),
    NEG: (None, ("(", "-", (0, _TERM), ")")),
    POWER: ("Power", ("(", "x", "^", (1, _TERM), ")")),
    SIN: ("Trig", ("(", "sin", "x", ")")),
    COS: ("Trig", ("(", "cos", "x", ")")),
    VAR: (None, ("x",)),
    NAMED: ("Const", None),
    NUM: ("Const", None),
}

# One shared tree per literal token: the token itself, Var(x) or Digit(d).
_LEAF = {t: Node(t) for t in GRAMMAR.terminals}
_LEAF["x"] = Node("Var", (_LEAF["x"],))
_LEAF.update((d, Node("Digit", (_LEAF[d],))) for d in "0123456789")


def _bottom_up(e: Expr, memo: dict, make: Callable[[Expr], object]):
    """``make(x)`` for ``e``, memoized as ``memo[x]`` for every subterm
    ``x``; ``make`` runs only once every child of ``x`` has its value, in
    post-order (left to right).  Explicit stack, no recursion."""
    if e not in memo:
        stack = [e]
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
                continue
            todo = [c for c in reversed(x.children) if c not in memo]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            memo[x] = make(x)
    return memo[e]


def _trees(x: Expr) -> tuple:
    """x's (P-term, Term, Exp) parse trees, from its children's."""
    kind = x.kind
    head, body = _LAYOUT[kind]
    if kind == NUM:
        kids = ()
        for d in reversed(str(x.args[0])):
            kids = (Node("Int", (_LEAF[d],) + kids),)
    elif kind == NAMED:
        kids = (_LEAF[x.args[0]],)
    else:
        kids = tuple(
            _LEAF[p] if isinstance(p, str) else _TREES[x.args[p[0]]][p[1]] for p in body
        )
    if head is not None:
        kids = (Node(head, kids),)
    nat = _NATURAL.get(kind, _PTERM)
    trees = [None, None, None]
    trees[nat] = Node(_CATEGORY[nat], kids)
    for cat in range(nat + 1, 3):
        trees[cat] = Node(_CATEGORY[cat], (trees[cat - 1],))
    if nat > _PTERM:
        trees[_PTERM] = Node("P-term", (_LEAF["("], trees[_EXP], _LEAF[")"]))
    for cat in range(_TERM, nat):
        trees[cat] = Node(_CATEGORY[cat], (trees[cat - 1],))
    return tuple(trees)


def _token_count(x: Expr) -> int:
    """x's token count, from its children's."""
    kind = x.kind
    if kind == NUM:
        return len(str(x.args[0]))
    if kind == NAMED:
        return 1
    n = 0
    for p in _LAYOUT[kind][1]:
        if isinstance(p, str):
            n += 1
        else:
            arg = x.args[p[0]]
            n += _NTOK[arg] + 2 * (_NATURAL.get(arg.kind, _PTERM) > p[1])
    return n


def as_exp(e: Expr) -> Node:
    """The Exp-rooted parse tree of ``e``, as ``parse`` would give it."""
    return _bottom_up(e, _TREES, _trees)[_EXP]


def to_tokens(e: Expr) -> tuple:
    return tree_yield(as_exp(e))


def token_count(e: Expr) -> int:
    """``len(to_tokens(e))``, memoized on every subterm: the rule solver's
    step and size limits read it on every step."""
    return _bottom_up(e, _NTOK, _token_count)


def to_text(e: Expr) -> str:
    return " ".join(to_tokens(e))


def parse_expr(tokens: Sequence[str], start: Optional[str] = None) -> Expr:
    """Parse a token sequence back into an AST (inverse of to_tokens)."""
    tree = parse(GRAMMAR, tokens, start or ("Prob" if tokens and tokens[0] in ("∫", "D") else "Exp"))
    return tree_to_expr(tree)


# How ``tree_to_expr`` reads a node back, from ``_LAYOUT``: (node label,
# child labels) -> the maker of its kind, which takes the Exprs of the
# node's nonterminal children.  A slot's label is its category, the token x
# is Var(x).
_READ = {
    (head or _CATEGORY[_NATURAL.get(kind, _PTERM)],
     tuple(_LEAF[p].label if isinstance(p, str) else _CATEGORY[p[1]] for p in body)):
    partial(_mk, kind)
    for kind, (head, body) in _LAYOUT.items() if kind not in (NUM, NAMED, VAR)
}


def _reading(node: Node) -> tuple:
    """How ``tree_to_expr`` reads one parse node: the children whose Exprs
    it needs, and the function making the node's Expr from them."""
    label = node.label
    kids = node.children
    if label == "Var":
        return (), lambda: VAR_X
    if label == "Int":
        return (), lambda: num(int("".join(tree_yield(node))))
    inner = tuple(k for k in kids if k.label in GRAMMAR.nonterminals)
    make = _READ.get((label, tuple(k.label for k in kids)))
    if make is not None:
        return inner, make
    if len(inner) == 1:
        return inner, _same
    if label == "Const":
        return (), lambda: named(kids[0].label)
    raise ParameterError(f"cannot interpret parse node {label!r}")


def _same(e: Expr) -> Expr:
    return e


def tree_to_expr(node: Node) -> Expr:
    """The Expr a parse tree denotes.  Explicit stack, no recursion."""
    values: list = []
    # (node, None) reads a node; (k, make) makes an Expr of the last k values
    stack: list = [(node, None)]
    while stack:
        item, make = stack.pop()
        if make is None:
            kids, make = _reading(item)
            stack.append((len(kids), make))
            stack.extend((k, None) for k in reversed(kids))
        else:
            args = values[len(values) - item:]
            del values[len(values) - item:]
            values.append(make(*args))
    return values[0]


# ---------------------------------------------------------------------------
# Rewrite operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewriteOp:
    """A structural rewrite rule plus the teacher's select-set for it.

    ``matches`` is the pattern below a root of kind ``kind``; it is only
    called on such a root.
    """

    index: int
    name: str
    kind: str
    teacher_form: str  # sentential form over the grammar, rooted at Exp
    matches: Callable[[Expr], bool]
    rewrite: Callable[[Expr], Expr]

    def apply(self, e: Expr) -> Expr:
        if e.kind != self.kind or not self.matches(e):
            raise InapplicableOperatorError(
                f"operator {self.index} ({self.name}) does not match {to_text(e)!r}"
            )
        return self.rewrite(e)


def _body(e):
    return e.args[0]


def _ops() -> list:
    o = []

    def op(index, name, kind, form, matches, rewrite):
        o.append(RewriteOp(index, name, kind, form, matches, rewrite))

    # 1-7: the integral table
    op(1, "const_factor", INTEGRAL, "∫ Const * Term d x",
       lambda e: _body(e).kind == PROD and _is_const(_body(e).args[0]),
       lambda e: mul(_body(e).args[0], integral(_body(e).args[1])))
    op(2, "diff_split", INTEGRAL, "∫ Term - Exp d x",
       lambda e: _body(e).kind == DIFF,
       lambda e: sub(integral(_body(e).args[0]), integral(_body(e).args[1])))
    op(3, "sum_split", INTEGRAL, "∫ Term + Exp d x",
       lambda e: _body(e).kind == SUM,
       lambda e: add(integral(_body(e).args[0]), integral(_body(e).args[1])))
    # By parts: ∫f·g dx = g·∫f dx − ∫(∫f dx)·(Dg) dx.  The inner product
    # keeps ∫f dx first so repeated applications keep differentiating g;
    # binding the first factor as f then terminates on trig·polynomial
    # products.
    op(4, "by_parts", INTEGRAL, "∫ P-term * Term d x",
       lambda e: _body(e).kind == PROD,
       lambda e: sub(
           mul(_body(e).args[1], integral(_body(e).args[0])),
           integral(mul(integral(_body(e).args[0]), deriv(_body(e).args[1])))))
    op(5, "power_int", INTEGRAL, "∫ ( x ^ Term ) d x",
       lambda e: _body(e).kind == POWER,
       lambda e: div(powx(add(_body(e).args[1], ONE)), add(_body(e).args[1], ONE)))
    op(6, "sin_int", INTEGRAL, "∫ ( sin x ) d x",
       lambda e: _body(e).kind == SIN,
       lambda e: neg(cosx()))
    op(7, "cos_int", INTEGRAL, "∫ ( cos x ) d x",
       lambda e: _body(e).kind == COS,
       lambda e: sinx())

    # 8-10: remaining integral forms the distribution produces
    op(8, "var_int", INTEGRAL, "∫ x d x",
       lambda e: _body(e).kind == VAR,
       lambda e: div(powx(TWO), TWO))
    op(9, "const_int", INTEGRAL, "∫ Const d x",
       lambda e: _is_const(_body(e)),
       lambda e: mul(_body(e), VAR_X))
    op(10, "neg_int", INTEGRAL, "∫ ( - Term ) d x",
       lambda e: _body(e).kind == NEG,
       lambda e: neg(integral(_body(e).args[0])))

    # 11-17: differentiation
    op(11, "deriv_const", DERIV, "D Const x",
       lambda e: _is_const(_body(e)),
       lambda e: ZERO)
    op(12, "deriv_var", DERIV, "D x x",
       lambda e: _body(e).kind == VAR,
       lambda e: ONE)
    op(13, "deriv_sin", DERIV, "D ( sin x ) x",
       lambda e: _body(e).kind == SIN,
       lambda e: cosx())
    op(14, "deriv_cos", DERIV, "D ( cos x ) x",
       lambda e: _body(e).kind == COS,
       lambda e: neg(sinx()))
    op(15, "deriv_power", DERIV, "D ( x ^ Term ) x",
       lambda e: _body(e).kind == POWER,
       lambda e: mul(_body(e).args[1], powx(sub(_body(e).args[1], ONE))))
    op(16, "deriv_scale", DERIV, "D Const * Term x",
       lambda e: _body(e).kind == PROD and _is_const(_body(e).args[0]),
       lambda e: mul(_body(e).args[0], deriv(_body(e).args[1])))
    op(17, "deriv_neg", DERIV, "D ( - Term ) x",
       lambda e: _body(e).kind == NEG,
       lambda e: neg(deriv(_body(e).args[0])))

    # 18-21: integer constant folding
    op(18, "fold_add", SUM, "Int + Int",
       lambda e: e.args[0].kind == NUM and e.args[1].kind == NUM,
       lambda e: num(e.args[0].args[0] + e.args[1].args[0]))
    op(19, "fold_sub", DIFF, "Int - Int",
       lambda e: e.args[0].kind == NUM and e.args[1].kind == NUM
       and e.args[0].args[0] >= e.args[1].args[0],
       lambda e: num(e.args[0].args[0] - e.args[1].args[0]))
    op(20, "fold_mul", PROD, "Int * Int",
       lambda e: e.args[0].kind == NUM and e.args[1].kind == NUM,
       lambda e: num(e.args[0].args[0] * e.args[1].args[0]))
    op(21, "fold_div", QUOT, "Int / Int",
       lambda e: e.args[0].kind == NUM and e.args[1].kind == NUM
       and e.args[1].args[0] != 0 and e.args[0].args[0] % e.args[1].args[0] == 0,
       lambda e: num(e.args[0].args[0] // e.args[1].args[0]))

    # 22-27: identity elimination.  There is deliberately no rule for zero
    # summands or left-zero products: their matching unit would drag in the
    # whole sibling expression, whose most specific generalization does not
    # converge on small samples, and leaving 0-coefficient terms inert in
    # the normal form is sound.  A right-zero product must be absorbed,
    # though, or by-parts chains would never bottom out (their innermost
    # integrand ends as (∫f)·0 once the derivative of a constant appears).
    op(22, "mul_one_left", PROD, "1 * Term",
       lambda e: e.args[0] is ONE,
       lambda e: e.args[1])
    op(23, "mul_one_right", PROD, "P-term * 1",
       lambda e: e.args[1] is ONE,
       lambda e: e.args[0])
    op(24, "mul_zero_right", PROD, "P-term * 0",
       lambda e: e.args[1] is ZERO,
       lambda e: ZERO)
    op(25, "pow_one", POWER, "( x ^ 1 )",
       lambda e: e.args[1] is ONE,
       lambda e: VAR_X)
    op(26, "pow_zero", POWER, "( x ^ 0 )",
       lambda e: e.args[1] is ZERO,
       lambda e: ONE)
    op(27, "neg_neg", NEG, "( - ( - Term ) )",
       lambda e: e.args[0].kind == NEG,
       lambda e: e.args[0].args[0])
    return o


OPERATORS: tuple = tuple(_ops())
_OP_BY_INDEX = {op.index: op for op in OPERATORS}

# Candidate operators by root node kind, in index order, for fast dispatch.
_OPS_BY_KIND = {
    kind: tuple(op for op in OPERATORS if op.kind == kind)
    for kind in dict.fromkeys(op.kind for op in OPERATORS)
}


def get_operator(index: int) -> RewriteOp:
    op = _OP_BY_INDEX.get(index) if isinstance(index, int) else None
    if op is None:
        raise ParameterError(f"no operator with index {index}")
    return op


# ---------------------------------------------------------------------------
# Locations and the post-order interpreter
# ---------------------------------------------------------------------------


def _walk(e: Expr, loc: Sequence[int]) -> tuple:
    """The (node, child index) pairs on the path to ``loc``, and the
    subexpression there."""
    spine = []
    try:
        for i in loc:
            kids = e.children
            if not 0 <= i < len(kids):
                raise LocationError(f"index {i} invalid at {to_text(e)!r}")
            spine.append((e, i))
            e = kids[i]
    except TypeError as exc:
        raise LocationError(f"location {loc!r} is not a sequence of integers") from exc
    return spine, e


def subexpr_at(e: Expr, loc: Sequence[int]) -> Expr:
    return _walk(e, loc)[1]


def replace_at(e: Expr, loc: Sequence[int], new: Expr) -> Expr:
    for parent, i in reversed(_walk(e, loc)[0]):
        kids = list(parent.children)
        kids[i] = new
        new = _mk(parent.kind, *kids)
    return new


def apply_at(op: RewriteOp, e: Expr, loc: Sequence[int]) -> Expr:
    return replace_at(e, loc, op.apply(subexpr_at(e, loc)))


def iter_postorder(e: Expr, start: Sequence[int] = ()) -> Iterator[tuple]:
    """Yield (path, subexpression) pairs in post-order, from the subterm at
    ``start`` on: the subtrees left of its path are skipped.  Explicit
    stack."""
    path: list = []
    stack = []
    for i in start:
        stack.append((e, enumerate(e.children[i + 1:], i + 1)))
        path.append(i)
        e = e.children[i]
    stack.append((e, enumerate(e.children)))
    while stack:
        x, kids = stack[-1]
        step = next(kids, None)
        if step is None:
            stack.pop()
            yield tuple(path), x
            del path[-1:]
        else:
            path.append(step[0])
            stack.append((step[1], enumerate(step[1].children)))


def _decide_ops(e: Expr) -> Optional[RewriteOp]:
    for op in _OPS_BY_KIND.get(e.kind, ()):
        if op.matches(e):
            return op
    return None


def _normal(x: Expr) -> bool:
    return (
        x.kind not in (INTEGRAL, DERIV)
        and _decide_ops(x) is None
        and all(_GOAL[c] for c in x.children)
    )


def is_goal(e: Expr) -> bool:
    """No integral or derivative remains and no operator applies anywhere."""
    return _bottom_up(e, _GOAL, _normal)


# ---------------------------------------------------------------------------
# Teacher
# ---------------------------------------------------------------------------

_MAX_TEACHER_STEPS = 10_000


def teacher_trace(e: Expr):
    """Solve by post-order first match, one subterm at a time, giving the
    steps the restart-from-root interpreter takes.

    Returns (steps, final) where each step is (op_index, path, unit) and
    unit is the subexpression the operator was applied to; None if the
    solution takes more than ``_MAX_TEACHER_STEPS`` steps (never observed
    on the problem distribution).

    A subterm is normalized before anything to its right or above it
    fires, so its trace depends on it alone: normalize the children left to
    right (prefixing their steps with the child's index), rebuild the node,
    and if an operator applies there, record it at () and go on with the
    rewritten term.  Each subterm's (steps, normal form) is kept in
    ``_TRACE``.  The frames live on an explicit stack; one step count covers
    the call, a memo hit adds its length, and a call that passes the limit
    memoizes nothing.
    """
    found = _TRACE.get(e)
    if found is not None:
        return found if len(found[0]) <= _MAX_TEACHER_STEPS else None
    count = 0
    fresh = {}  # subterm -> result, finished in this call
    handed = None  # result of the frame just popped, for its parent
    # A frame normalizes one subterm: [that subterm, the term it has reached
    # (the subterm or a rewrite of it), steps so far, normal forms of that
    # term's first children].
    stack = [[e, e, [], []]]
    while stack:
        frame = stack[-1]
        top, term, steps, kids = frame
        children = term.children
        i = len(kids)
        if i < len(children):
            sub, handed = handed, None
            if sub is None:
                child = children[i]
                sub = _TRACE.get(child) or fresh.get(child)
                if sub is None:
                    stack.append([child, child, [], []])
                    continue
                count += len(sub[0])
                if count > _MAX_TEACHER_STEPS:
                    return None
            steps += [(op, (i,) + path, unit) for op, path, unit in sub[0]]
            kids.append(sub[1])
            continue
        kids = tuple(kids)
        x = term if kids == children else _mk(term.kind, *kids)
        op = _decide_ops(x)
        if op is None:
            handed = fresh[top] = (tuple(steps), x)
            stack.pop()
            continue
        count += 1
        if count > _MAX_TEACHER_STEPS:
            return None
        steps.append((op.index, (), x))
        frame[1] = op.rewrite(x)
        frame[3] = []
    _TRACE.update(fresh)
    return handed


def teacher_solve(e: Expr):
    """The oracle teacher: a parameterized operator list, or BOTTOM."""
    trace = teacher_trace(e)
    if trace is None:
        return BOTTOM
    return tuple((op, path) for op, path, _ in trace[0])


def teacher_ruleset():
    """The teacher's own select-sets as grammar caps, in operator order."""
    return RuleSet(form_to_cap(GRAMMAR, op.teacher_form.split(), "Exp") for op in OPERATORS)


# ---------------------------------------------------------------------------
# Problem distribution
# ---------------------------------------------------------------------------

# A term coefficient is sin x, cos x, or a digit, in that draw order.
_TERM_CHOICES = 12


def _draw_term(rng: random.Random) -> Expr:
    i = rng.randrange(_TERM_CHOICES)
    if i == 0:
        return sinx()
    if i == 1:
        return cosx()
    return num(i - 2)


def generate_problem(rng: random.Random) -> Expr:
    """∫ c1·x^p + t2·x² + t3·x + t4 dx with c1 ∈ {0..9}, p ∈ {3..9}, and
    each t uniform over {sin x, cos x, 0..9}, all independent."""
    c1 = num(rng.randrange(10))
    p = num(rng.randrange(3, 10))
    t2, t3, t4 = _draw_term(rng), _draw_term(rng), _draw_term(rng)
    body = add(
        mul(c1, powx(p)),
        add(mul(t2, powx(TWO)), add(mul(t3, VAR_X), t4)),
    )
    return integral(body)


# ---------------------------------------------------------------------------
# Independent numeric/symbolic oracles
# ---------------------------------------------------------------------------


_ARITH = {SUM: operator.add, DIFF: operator.sub, PROD: operator.mul,
          QUOT: operator.truediv, POWER: operator.pow}


def numeric_value(e: Expr, x: float) -> float:
    """The value of ``e`` at ``x``, subterm by subterm on ``_bottom_up``."""
    value: dict = {}

    def make(n: Expr) -> float:
        k, l, r = n.kind, n.args[0], n.args[-1]
        if k == NUM:
            return float(l)
        if k == VAR:
            return x
        if k == SIN:
            return math.sin(x)
        if k == COS:
            return math.cos(x)
        if k == NEG:
            return -value[l]
        if k in _ARITH:
            return _ARITH[k](value[l], value[r])
        raise ParameterError(f"cannot evaluate {k} node numerically")

    try:
        return _bottom_up(e, value, make)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ParameterError(f"cannot evaluate numerically: {exc}") from exc


def differentiate(e: Expr) -> Expr:
    """Symbolic d/dx, independent of the rewrite operators (test oracle),
    subterm by subterm on ``_bottom_up``."""
    d: dict = {}

    def make(n: Expr) -> Expr:
        k, l, r = n.kind, n.args[0], n.args[-1]
        if k in (NUM, NAMED):
            return ZERO
        if k == VAR:
            return ONE
        if k == SIN:
            return cosx()
        if k == COS:
            return neg(sinx())
        if k == NEG:
            return neg(d[l])
        if k == SUM:
            return add(d[l], d[r])
        if k == DIFF:
            return sub(d[l], d[r])
        if k == PROD:
            return add(mul(d[l], r), mul(l, d[r]))
        if k == QUOT:
            return div(sub(mul(d[l], r), mul(l, d[r])), mul(r, r))
        if k != POWER:
            raise ParameterError(f"cannot differentiate {k} node")
        if r.kind != NUM:
            raise ParameterError("can only differentiate integer powers")
        m = r.args[0]
        if m == 0:
            return ZERO
        return mul(r, powx(num(m - 1)) if m != 1 else ONE)

    return _bottom_up(e, d, make)


# ---------------------------------------------------------------------------
# Domain adapters and file format
# ---------------------------------------------------------------------------


def domain_spec():
    """DomainSpec over expressions; operator i applies at a location path."""
    def make_applier(op):
        return lambda state, loc: apply_at(op, state, loc or ())

    return DomainSpec(
        goal_test=is_goal,
        operators=tuple(make_applier(op) for op in OPERATORS),
    )


class IntegrationRuleDomain:
    """Adapter giving the control-rule machinery post-order matching units.

    The matching unit at a location is the subexpression there; select-set
    membership is tested against its Exp-rooted parse tree.
    """

    num_operators = len(OPERATORS)

    def is_goal(self, e: Expr) -> bool:
        return is_goal(e)

    def iter_units(self, e: Expr, start):
        return iter_postorder(e, start)

    def unit_tree(self, unit: Expr) -> Node:
        return as_exp(unit)

    def unit_matches(self, cap: Node, unit: Expr) -> bool:
        return cap_matches_tree(cap, as_exp(unit))

    def subexpr(self, e: Expr, loc) -> Expr:
        return subexpr_at(e, loc or ())

    def apply(self, e: Expr, op_index: int, loc) -> Expr:
        return apply_at(get_operator(op_index), e, loc or ())

    def default_step_limit(self, e: Expr) -> int:
        return 50 * token_count(e)

    def state_size(self, e: Expr) -> int:
        return token_count(e)

    def default_size_limit(self, e: Expr) -> int:
        # teacher derivations never exceed 3x the problem's token length on
        # the distribution; 8x + 64 leaves slack while cutting runaways
        return 8 * token_count(e) + 64
