"""The symbolic-integration domain.

Expressions are immutable hash-consed ASTs mirroring the grammar below.
Their concrete syntax is written down once, in ``_LAYOUT``.  Three walks
read it: ``to_tokens`` yields a term's tokens on an explicit stack; one
memoized bottom-up walk (``_bottom_up``) gives each subterm's one parse
tree, rooted at Exp (``as_exp``), and token count, and the same walk gives
the goal test; and the cap compiler (``_pattern``) turns a grammar cap into
a pattern over ``Expr`` kinds, so that testing a unit against a select-set
(``IntegrationRuleDomain.unit_matches``) builds no parse tree.  A parent's
tree holds each child's tree in place, or that tree in parentheses where the
slot needs them.  ``tree_to_expr`` reads a parse tree back.  An integer
literal has at most ``MAX_LITERAL_DIGITS`` digits wherever it is written or
read.
Rewrite operators 1-7 are the classic integral table (constant factoring,
sum/difference splitting, integration by parts, the power/sin/cos rules);
8-10 round out the integrals the problem distribution needs; 11-17 are
differentiation rules; 18-27 are simplification rules (constant folding and
identity elimination).  A solver visits the expression in post-order and
applies the least-indexed operator it picks at the first node that admits
one, until no operator applies anywhere.

The teacher and the learned rule solver run on one engine, ``_normalize``,
which takes the pick as ``decide(unit)``.  Under post-order first match a
subterm is fully normalized before anything to its right or above it
fires, so the steps taken inside a subterm, and its normal form, depend on
that subterm alone.  The engine solves each subterm once, on an explicit
stack, into a ``TeacherRecord``: its segments in firing order (a step at
its own root, or a child's record under the child's index), its normal
form and its step count.  A parent shares its children's records instead
of copying their steps; ``record_steps`` walks a record's steps in order
with their paths, and paths are built only in that walk.

The teacher (``teacher_record``, read by ``teacher_trace`` and
``teacher_solve``) decides by operator pattern, a fast path of the
hand-authored select-sets (``teacher_ruleset``) that agrees with them on
the problem distribution, and writes each subterm's record into ``_TRACE``
as soon as the subterm is normalized, so the memo grows linearly in the
nesting depth.  The learned solver (``IntegrationRuleDomain.solve``)
decides by its select-sets and passes the rule set's record memo, where
it keeps only the records of subterms that took no step, so its step and
size limits stay exact.  The test suite checks both against interpreters
that scan the state from the root.
``_TRACE`` is one of the memo tables: one table per value derived from a
subterm alone, keyed by the interned ``Expr``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, Optional, Sequence

from .control_rules import RuleSet
from .core import BOTTOM, DomainSpec
from .errors import (
    InapplicableOperatorError,
    LocationError,
    ParameterError,
    ParseError,
)
from .grammar import Grammar, Node, form_to_cap, parse, tree_yield

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
    What is derived from a subterm is kept in the memo tables below, not on
    the node.  The interning table is never emptied: the memos, the teacher
    records and the operators' ``is ONE`` tests rely on equal structures
    being one object for the life of the process.
    """

    __slots__ = ("kind", "args", "children")

    _interned: dict = {}

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args
        self.children = () if kind in (NUM, NAMED, VAR) else args

    def __repr__(self):
        try:
            return f"<{to_text(self)}>"
        except ParameterError:  # it holds a literal too long to write
            return f"<{self.kind} holding a literal of more than {MAX_LITERAL_DIGITS} digits>"


def _mk(kind: str, *args) -> Expr:
    key = (kind, args)
    e = Expr._interned.get(key)
    if e is None:
        e = Expr._interned[key] = Expr(kind, args)
    return e


# Memo tables, one per value derived from a subterm alone, keyed by the
# interned Expr.
_TREES: dict = {}  # its Exp-rooted parse tree, ``as_exp`` (``_tree``), for merges
_NTOK: dict = {}  # its token count (``_token_count``)
_GOAL: dict = {}  # ``is_goal`` (``_normal``)
_TRACE: dict = {}  # its ``TeacherRecord`` (``teacher_record``)


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
    post-order (left to right).  Explicit stack, no recursion.  Anything
    but an ``Expr`` raises ParameterError."""
    try:
        if e in memo:
            return memo[e]
    except TypeError:  # unhashable, so not an Expr
        pass
    if not isinstance(e, Expr):
        raise ParameterError(f"expected an Expr, got {e!r}")
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


# The longest integer literal, in digits.  A longer one raises
# ParameterError where a literal is written (``_digits``) and ParseError
# where one is read (``tree_to_expr``), whatever the interpreter's own limit
# on int/str conversion (``sys.set_int_max_str_digits``, 4300 by default)
# allows; ``num`` takes any nonnegative int.
MAX_LITERAL_DIGITS = 4300
_TOO_LONG = 10 ** MAX_LITERAL_DIGITS  # the least literal too long to write
# A literal of fewer digits than the least limit CPython allows (640)
# converts with plain str and int; a longer one in pieces of _PIECE digits,
# so no setting of that limit rejects a literal the package allows.
_SHORT = 640
_SHORT_END = 10 ** (_SHORT - 1)  # the least literal of _SHORT digits
_PIECE = 600
_PIECE_BASE = 10 ** _PIECE


def _digits(x: Expr) -> str:
    """An integer literal's decimal digits."""
    n = x.args[0]
    if n < _SHORT_END:
        return str(n)
    if n >= _TOO_LONG:
        raise ParameterError(f"integer literal too long to write: more than {MAX_LITERAL_DIGITS} digits")
    pieces = []  # _PIECE digits each, lowest first
    while n >= _PIECE_BASE:
        n, low = divmod(n, _PIECE_BASE)
        pieces.append(f"{low:0{_PIECE}d}")
    pieces.append(str(n))
    return "".join(reversed(pieces))


def _int_of(digits: str) -> int:
    """The value of a string of decimal digits, as ``_digits`` writes it."""
    if len(digits) < _SHORT:
        return int(digits)
    n = 0
    for k in range(0, len(digits), _PIECE):
        piece = digits[k:k + _PIECE]
        n = n * 10 ** len(piece) + int(piece)
    return n


def _tree(x: Expr) -> Node:
    """x's Exp-rooted parse tree, from its children's."""
    kind = x.kind
    head, body = _LAYOUT[kind]
    if kind == NUM:
        kids = ()
        for d in reversed(_digits(x)):
            kids = (Node("Int", (_LEAF[d],) + kids),)
    elif kind == NAMED:
        kids = (_LEAF[x.args[0]],)
    else:
        kids = tuple(_LEAF[p] if isinstance(p, str) else _in_slot(x.args[p[0]], p[1]) for p in body)
    if head is not None:
        kids = (Node(head, kids),)
    nat = _NATURAL.get(kind, _PTERM)
    tree = Node(_CATEGORY[nat], kids)
    for cat in range(nat + 1, 3):
        tree = Node(_CATEGORY[cat], (tree,))
    return tree


def _in_slot(e: Expr, slot: int) -> Node:
    """e's tree in a slot of category ``slot``: the subtree of its Exp tree
    rooted there, or, if e's natural category is looser, its Exp tree under
    P-term -> ( Exp ) (and a Term node, in a Term slot)."""
    tree = _TREES[e]
    if _NATURAL.get(e.kind, _PTERM) <= slot:
        for _ in range(_EXP - slot):
            tree = tree.children[0]
        return tree
    tree = Node("P-term", (_LEAF["("], tree, _LEAF[")"]))
    return tree if slot == _PTERM else Node("Term", (tree,))


def _token_count(x: Expr) -> int:
    """x's token count, from its children's."""
    kind = x.kind
    if kind == NUM:
        return len(_digits(x))
    if kind == NAMED:
        return 1
    return sum(1 if isinstance(p, str) else _width(x.args[p[0]], p[1]) for p in _LAYOUT[kind][1])


def _width(e: Expr, slot: int) -> int:
    """e's tokens in a slot of category ``slot``, parentheses included."""
    return token_count(e) + 2 * (_NATURAL.get(e.kind, _PTERM) > slot)


def as_exp(e: Expr) -> Node:
    """The Exp-rooted parse tree of ``e``, as ``parse`` would give it."""
    return _bottom_up(e, _TREES, _tree)


def to_tokens(e: Expr) -> tuple:
    """``e``'s tokens, the yield of ``as_exp(e)``, read off ``_LAYOUT`` on an
    explicit stack without building a tree."""
    if not isinstance(e, Expr):
        raise ParameterError(f"expected an Expr, got {e!r}")
    out: list = []
    stack: list = [(e, _EXP)]  # (subterm, its slot's category) or a token
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        x, slot = item
        kind = x.kind
        if kind == NUM:
            out.extend(_digits(x))
        elif kind == NAMED:
            out.append(x.args[0])
        else:
            paren = _NATURAL.get(kind, _PTERM) > slot
            if paren:
                stack.append(")")
            stack.extend(p if isinstance(p, str) else (x.args[p[0]], p[1])
                         for p in reversed(_LAYOUT[kind][1]))
            if paren:
                stack.append("(")
    return tuple(out)


def token_count(e: Expr) -> int:
    """``len(to_tokens(e))``, memoized on every subterm: the rule solver's
    step and size limits read it on every step."""
    return _bottom_up(e, _NTOK, _token_count)


def to_text(e: Expr) -> str:
    return " ".join(to_tokens(e))


def parse_expr(tokens: Sequence[str]) -> Expr:
    """Parse a token sequence back into an AST (inverse of to_tokens): from
    Exp, which derives every term, a problem through P-term -> Prob."""
    return tree_to_expr(parse(GRAMMAR, tokens, "Exp"))


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
        digits = "".join(tree_yield(node))
        if len(digits) > MAX_LITERAL_DIGITS:
            raise ParseError(f"integer literal too long to read: {len(digits)} digits, "
                             f"more than {MAX_LITERAL_DIGITS}", 0)
        return (), lambda: num(_int_of(digits))
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
    """The Expr a parse tree denotes; ParseError for a literal of more than
    ``MAX_LITERAL_DIGITS`` digits.  Explicit stack, no recursion."""
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
# Cap matching on Exprs
# ---------------------------------------------------------------------------

# A unit's parse tree is a fixed function of its Expr, so whether a cap is a
# cap of that tree can be decided on the Expr itself: each cap is compiled
# once, against ``_LAYOUT``, into a pattern over Expr kinds (tree pattern
# matching; Hoffmann & O'Donnell 1982, JACM 29), and a match then takes one
# step per Expr node, not one per parse node.


# A literal token's shape, as in ``_LEAF``: the token itself, or Var(x).
_TOKEN_SHAPE = {t: (t, ()) for t in GRAMMAR.terminals}
_TOKEN_SHAPE["x"] = ("Var", (("x", ()),))


def _shape(kind: str, slot: int) -> tuple:
    """The parse tree ``_in_slot`` gives a node of ``kind`` in a slot of
    category ``slot``, down to its arguments: a node is (label, children),
    an argument's tree is its slot (argument index, category), and a
    literal's Int chain or name is (None, kind)."""
    head, body = _LAYOUT[kind]
    kids = tuple(_TOKEN_SHAPE[p] if isinstance(p, str) else p for p in body or ((None, kind),))
    if head is not None:
        kids = ((head, kids),)
    nat = _NATURAL.get(kind, _PTERM)
    if nat > slot:  # P-term -> ( Exp ), under Term in a Term slot
        tree = ("P-term", (("(", ()), _shape(kind, _EXP), (")", ())))
        return tree if slot == _PTERM else ("Term", (tree,))
    tree = (_CATEGORY[nat], kids)
    for cat in range(nat + 1, slot + 1):
        tree = (_CATEGORY[cat], (tree,))
    return tree


_SHAPE = {(kind, slot): _shape(kind, slot) for kind in _LAYOUT for slot in (_PTERM, _TERM, _EXP)}
_SLOT_OF = {label: cat for cat, label in enumerate(_CATEGORY)}  # category label -> category
_DIGIT = frozenset("0123456789")


def _literal_is(value, x: Expr) -> bool:
    return x.args[0] == value


def _literal_like(digits: tuple, exact: bool, x: Expr) -> bool:
    """x's digits begin with ``digits`` (None stands for any digit) and are
    exactly that many if ``exact``, more if not."""
    text = _digits(x)
    if len(text) != len(digits) if exact else len(text) <= len(digits):
        return False
    return all(d is None or d == t for d, t in zip(digits, text))


def _literal_test(cap: Node, kind: str):
    """What a literal of ``kind`` (NUM or NAMED) must be to match ``cap``,
    the cap's node where the tree has the literal's Int chain or name: None
    if anything, False if nothing, else a test of the literal's Expr.  A cap
    that cuts the Int chain part-way matches a literal of more digits than
    the cut, with the cap's digits before it."""
    if kind == NAMED:
        return False if cap.children or cap.label not in ("a", "k") else partial(_literal_is, cap.label)
    if cap.label != "Int":
        return False
    digits: list = []  # the cap's digit at each place, None where it stops at Digit
    exact = False
    while cap.children and not exact:
        kids = cap.children
        if len(kids) > 2 or kids[0].label != "Digit" or kids[1:] and kids[1].label != "Int":
            return False
        digit = kids[0].children
        if digit and (len(digit) > 1 or digit[0].label not in _DIGIT or digit[0].children):
            return False
        digits.append(digit[0].label if digit else None)
        exact = len(kids) == 1
        cap = kids[-1]
    if not digits:
        return None
    if exact and None not in digits:
        text = "".join(digits)
        return partial(_literal_is, _int_of(text)) if text[0] != "0" or len(text) == 1 else False
    return partial(_literal_like, tuple(digits), exact)


def _meet(cap: Node, shape: tuple):
    """How ``cap`` meets the shape of one kind: False if it matches no node
    of that kind, else (the literal test or None, the sub-caps), a sub-cap
    being (argument index, the cap's node in that argument's slot) for each
    such node that is not a leaf."""
    test, subs = None, []
    todo = [(cap, shape)]
    while todo:
        c, (label, kids) = todo.pop()
        if label is None:  # the literal; ``kids`` is its kind
            test = _literal_test(c, kids)
            if test is False:
                return False
        elif type(label) is int:  # argument ``label`` in a slot of category ``kids``
            if c.label != _CATEGORY[kids]:
                return False
            if c.children:
                subs.append((label, c))
        elif c.label != label:
            return False
        elif c.children:
            if len(c.children) != len(kids):
                return False
            todo.extend(zip(c.children, kids))
    return test, tuple(subs)


def _pattern(cap: Node, memo: dict):
    """The pattern of ``cap``, whose label names a category, in a slot of
    that category: None if it is a leaf (any Expr), else {kind: (literal test or None,
    ((argument index, sub-pattern), ...))}, where a kind not in it matches
    nothing.  It fills ``memo`` (cap node -> pattern) for ``cap`` and each
    sub-cap, sub-caps first, on an explicit stack."""
    meets: dict = {}  # cap node -> {kind: its meet}, while its sub-caps compile
    stack = [cap]
    while stack:
        c = stack[-1]
        if c in memo:
            stack.pop()
            continue
        kinds = meets.get(c)
        if kinds is None:
            if not c.children:
                memo[c] = None
                continue
            kinds = meets[c] = {}
            slot = _SLOT_OF[c.label]
            for kind in _LAYOUT:
                meet = _meet(c, _SHAPE[kind, slot])
                if meet is not False:
                    kinds[kind] = meet
            todo = [sub for _, subs in kinds.values() for _, sub in subs if sub not in memo]
            if todo:
                stack.extend(todo)
                continue
        stack.pop()
        del meets[c]
        memo[c] = {kind: (test, tuple((i, memo[sub]) for i, sub in subs))
                   for kind, (test, subs) in kinds.items()}
    return memo[cap]


def _matches(pattern, e: Expr) -> bool:
    """Does ``e`` match ``pattern``?  One kind test, and a literal test where
    the pattern has one, per Expr node visited; explicit stack."""
    if pattern is None:
        return True
    stack = [(pattern, e)]
    while stack:
        pattern, x = stack.pop()
        entry = pattern.get(x.kind)
        if entry is None:
            return False
        test, subs = entry
        if test is not None and not test(x):
            return False
        args = x.args
        for i, sub in subs:
            stack.append((sub, args[i]))
    return True


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


def _decide_ops(e: Expr) -> Optional[int]:
    for op in _OPS_BY_KIND.get(e.kind, ()):
        if op.matches(e):
            return op.index
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


class TeacherRecord:
    """How post-order first match solves one subterm.  ``segments`` are, in
    firing order, ``(op_index, unit)`` for a step at the subterm's own root
    and ``(child index, child's TeacherRecord)`` for a child that took a
    step; ``steps`` counts every step, the children's included.  Records
    compare and hash by identity, like ``Expr``."""

    __slots__ = ("segments", "normal_form", "steps")

    def __init__(self, segments: tuple, normal_form: Expr, steps: int):
        self.segments = segments
        self.normal_form = normal_form
        self.steps = steps


# (kind, argument index) -> its slot's category, where parentheses go
_SLOT = {(kind, p[0]): p[1] for kind, (_, body) in _LAYOUT.items()
         for p in body or () if not isinstance(p, str)}


def _normalize(e: Expr, decide, memo: Optional[dict], step_limit: int,
               size_limit: Optional[int] = None) -> tuple:
    """Solve ``e`` by post-order first match: ``(its TeacherRecord, None)``,
    or ``(None, why)``: "step_limit" past ``step_limit`` steps, "diverged"
    once the whole term is longer than ``size_limit`` tokens, "no_match"
    when the operator index ``decide(unit)`` picks does not apply and the
    whole term is not a goal.  Normalize the children left to right,
    rebuild the node, and if ``decide`` picks an operator there, record the
    step and go on with the rewritten term.  With a ``memo`` (subterm ->
    record), a hit adds its record's count, and each finished subterm's
    record goes into it at once, also in a call that then passes the step
    limit: a subterm's record depends on that subterm alone.  Under a
    ``size_limit`` only records of no step go into it: such a record grew
    nothing, so a hit cannot hide the step at which the state outgrew the
    limit, while a record with steps would skip the sizes its steps passed
    through.  Once a pick on a goal switches ``decide`` off, the records
    made after that are not ``decide``'s, so the memo is left alone."""
    count = 0
    size = token_count(e) if size_limit is not None else 0
    handed = None  # record of the frame just popped, for its parent
    # A frame normalizes one subterm: [that subterm, the term it has reached
    # (the subterm or a rewrite of it), segments so far, normal forms of
    # that term's first children, the step count when the frame began].
    stack = [[e, e, [], [], 0]]
    while stack:
        frame = stack[-1]
        top, term, segs, kids, began = frame
        children = term.children
        i = len(kids)
        if i < len(children):
            sub, handed = handed, None
            if sub is None:
                child = children[i]
                if memo is not None:
                    sub = memo.get(child)
                if sub is None:
                    stack.append([child, child, [], [], count])
                    continue
                count += sub.steps
                if count > step_limit:
                    return None, "step_limit"
            if sub.steps:
                segs.append((i, sub))
            kids.append(sub.normal_form)
            continue
        kids = tuple(kids)
        x = term if kids == children else _mk(term.kind, *kids)
        op_index = decide(x)
        if op_index is not None:
            op = get_operator(op_index)
            if op.kind != x.kind or not op.matches(x):  # a select-set wider than its operator
                whole = x  # each frame below holds its first children's normal forms
                for _, t, _, k, _ in reversed(stack[:-1]):
                    whole = _mk(t.kind, *k, whole, *t.children[len(k) + 1:])
                if not is_goal(whole):
                    return None, "no_match"
                decide, op_index = (lambda unit: None), None  # on a goal, no pick applies
                memo = None  # and the records from here on are not decide's
        if op_index is None:
            handed = TeacherRecord(tuple(segs), x, count - began)
            if memo is not None and (size_limit is None or not handed.steps):
                memo[top] = handed
            stack.pop()
            continue
        count += 1
        if count > step_limit:
            return None, "step_limit"
        new = op.rewrite(x)
        if size_limit is not None:
            slot = _SLOT[stack[-2][1].kind, len(stack[-2][3])] if len(stack) > 1 else _EXP
            size += _width(new, slot) - _width(x, slot)
            if size > size_limit:
                return None, "diverged"
        segs.append((op_index, x))
        frame[1] = new
        frame[3] = []
    return handed, None


# ---------------------------------------------------------------------------
# Teacher
# ---------------------------------------------------------------------------

_MAX_TEACHER_STEPS = 10_000


def teacher_record(e: Expr) -> Optional[TeacherRecord]:
    """The memoized ``TeacherRecord`` of ``e`` (``_normalize`` picking by
    operator pattern, every finished subterm's record kept in ``_TRACE``),
    or None past ``_MAX_TEACHER_STEPS`` steps, never seen on the
    distribution.  A memoized record is checked against the limit too."""
    if not isinstance(e, Expr):
        raise ParameterError(f"expected an Expr, got {e!r}")
    found = _TRACE.get(e)
    if found is not None:
        return found if found.steps <= _MAX_TEACHER_STEPS else None
    return _normalize(e, _decide_ops, _TRACE, _MAX_TEACHER_STEPS)[0]


def record_steps(record: TeacherRecord) -> Iterator[tuple]:
    """Yield a record's steps in firing order as (op_index, path, unit),
    each path relative to the record's subterm.  Explicit stack."""
    stack = [((), iter(record.segments))]
    while stack:
        path, segs = stack[-1]
        for i, part in segs:
            if type(part) is TeacherRecord:
                stack.append((path + (i,), iter(part.segments)))
                break
            yield i, path, part
        else:
            stack.pop()


def teacher_trace(e: Expr):
    """(steps, final), where each step is (op_index, path, unit) and unit is
    the subexpression the operator was applied to: the steps the
    restart-from-root interpreter takes, read off ``teacher_record``.  None
    if the solution takes more than ``_MAX_TEACHER_STEPS`` steps."""
    record = teacher_record(e)
    if record is None:
        return None
    return tuple(record_steps(record)), record.normal_form


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

# The draw's values, built once: interning is never reset, so these are the
# very objects num, sinx, cosx and powx return.
_DIGITS = tuple(num(d) for d in range(10))
# A term coefficient is sin x, cos x, or a digit, in that draw order.
_TERMS = (sinx(), cosx()) + _DIGITS
_POWERS = tuple(map(powx, _DIGITS))  # x^0..x^9


def generate_problem(rng: random.Random) -> Expr:
    """∫ c1·x^p + t2·x² + t3·x + t4 dx with c1 ∈ {0..9}, p ∈ {3..9}, and
    each t uniform over {sin x, cos x, 0..9}, all independent."""
    randrange = rng.randrange
    c1, xp = _DIGITS[randrange(10)], _POWERS[randrange(3, 10)]
    t2, t3, t4 = _TERMS[randrange(12)], _TERMS[randrange(12)], _TERMS[randrange(12)]
    body = add(
        mul(c1, xp),
        add(mul(t2, _POWERS[2]), add(mul(t3, VAR_X), t4)),
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

    The matching unit at a location is the subexpression there, and its
    tree (``unit_tree``) is its Exp-rooted parse tree.  Select-set
    membership (``unit_matches``) is tested on the unit itself, with each
    cap compiled once into a pattern over Expr kinds; the learned solver's
    pick (``decider``) tests a unit only against the patterns that admit
    its root kind.
    """

    num_operators = len(OPERATORS)

    @cached_property
    def _patterns(self) -> dict:
        """cap node -> its compiled pattern, for every cap this domain has
        matched and their sub-caps.  The memo, and the caps it holds, live
        as long as the domain (a curve's trial owns one); no module-level
        table is keyed by caps."""
        return {}

    def is_goal(self, e: Expr) -> bool:
        return is_goal(e)

    def unit_tree(self, unit: Expr) -> Node:
        return as_exp(unit)

    def unit_matches(self, cap: Node, unit: Expr) -> bool:
        """``cap_matches_tree(cap, self.unit_tree(unit))``, without building
        the tree.  It reads a literal's digits only where the cap spells
        part of them; there a literal longer than ``MAX_LITERAL_DIGITS``
        raises ParameterError, as ``unit_tree`` does for any such literal.
        Elsewhere it answers as the layout defines."""
        if not isinstance(unit, Expr):
            raise ParameterError(f"expected an Expr, got {unit!r}")
        if cap.label != "Exp":
            return False
        memo = self._patterns
        try:
            pattern = memo[cap]
        except KeyError:
            pattern = _pattern(cap, memo)
        return _matches(pattern, unit)

    def subexpr(self, e: Expr, loc) -> Expr:
        return subexpr_at(e, loc or ())

    def apply(self, e: Expr, op_index: int, loc) -> Expr:
        return apply_at(get_operator(op_index), e, loc or ())

    def decider(self, ruleset: RuleSet) -> Callable[[Expr], Optional[int]]:
        """``decide(unit)``: the least-indexed operator whose select-set in
        ``ruleset`` holds ``unit``, or None, memoized per unit.  It tests
        only the caps that can hold a unit of its root kind: a leaf cap any
        kind, a cap not labelled Exp none, any other cap the kinds its
        compiled pattern admits.  Built once per rule set and domain
        (``control_rules.rule_solve_ex``)."""
        memo = self._patterns
        by_kind: dict = {kind: [] for kind in _LAYOUT}
        for i, cap in enumerate(ruleset.caps, 1):
            if cap is not None and cap.label == "Exp":
                pattern = memo[cap] if cap in memo else _pattern(cap, memo)
                for kind in (_LAYOUT if pattern is None else pattern):
                    by_kind[kind].append((i, pattern))
        picks: dict = {}  # unit -> operator index or None

        def decide(unit: Expr) -> Optional[int]:
            if unit not in picks:
                picks[unit] = next((i for i, p in by_kind[unit.kind] if _matches(p, unit)), None)
            return picks[unit]

        return decide

    def solve(self, e: Expr, decide, records: dict) -> tuple:
        """``control_rules.rule_solve_ex`` on ``_normalize``, under this
        domain's two default limits, with the record memo ``records`` that
        the rule set keeps for this domain, as long as the rule set lives.
        Under the size limit it holds only the records of subterms that
        took no step, and a hit skips such a subterm without a frame or a
        pick: a record with steps would hide the step at which the size
        limit is passed."""
        record, why = _normalize(e, decide, records, self.default_step_limit(e),
                                 self.default_size_limit(e))
        if record is None or not self.is_goal(record.normal_form):
            return BOTTOM, why or "no_match"
        return tuple((op, path) for op, path, _ in record_steps(record)), "solved"

    def default_step_limit(self, e: Expr) -> int:
        return 50 * token_count(e)

    def state_size(self, e: Expr) -> int:  # what solve's running size counts
        return token_count(e)

    def default_size_limit(self, e: Expr) -> int:
        # teacher derivations never exceed 3x the problem's token length on
        # the distribution; 8x + 64 leaves slack while cutting runaways
        return 8 * token_count(e) + 64
