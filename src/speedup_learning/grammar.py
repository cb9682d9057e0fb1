"""Unambiguous context-free grammar machinery.

Parsing is chart-based (Earley) over grammars without empty productions.
The completer visits only the items awaiting the completed symbol, and a
deterministic right recursion (``Exp -> Term + Exp``, ``Int -> Digit Int``)
is completed through Leo's items in one step per token instead of one per
nesting level (Leo 1991, TCS 82; Aycock & Horspool 2002).  So for an
LR-regular grammar, such as the integration grammar, ``parse`` takes time
and memory linear in the input, and the tree is read off the one
derivation the recogniser recorded.  The recogniser raises
``AmbiguityError`` at the first Earley item it derives twice, whether or
not that item lies in a parse of the whole input: a prefix of a
production then derives the same tokens in two ways, which an unambiguous
grammar whose symbols all derive sentences never allows.  Parsing,
``msc``, ``cap_matches_tree``, ``same_tree``, ``tree_yield``,
``form_to_cap`` and ``membership`` use explicit stacks, so however deep a
tree is they do not reach the recursion limit.

Generalization works on *caps*: prefix-closed, sibling-closed subtrees of a
parse tree rooted at its root.  The yield of a cap is a sentential form.
The most specific common cap (``msc``) of two trees is their meet, and the
meet of a set of parse trees, the fold of ``msc`` over it, yields the
unique most specific generalization (``msg``) of the underlying
sentences.  Sentential forms go through ``parse`` too, over the form
grammar: the grammar plus ``A -> ⟨A⟩`` for each nonterminal ``A``, whose
parse trees are exactly the grammar's caps.  So there is one parser, and
one cap matcher over parse trees (``cap_matches_tree``).  The integration
domain matches caps against its expressions with a second matcher, which
walks the cap against the expression and meets each cap node with the parse
tree its concrete syntax gives the expression's kind, the first time a
match reaches that pair (``integration.IntegrationRuleDomain.unit_matches``),
so that its scorer, learner and rule solver build no parse tree.

Grammar text format: one production per line, ``Head -> sym sym | sym ...``,
``#`` starts a comment, and the head of the first production is the start
symbol.  Symbols are whitespace-separated; anything that never appears as a
head is a terminal.  An empty alternative raises ``ParameterError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Optional, Sequence

from .errors import AmbiguityError, IncompatibleTreesError, ParameterError, ParseError


class Node:
    """An ordered tree node labeled with a grammar symbol.

    Used both for full parse trees (all leaves terminal) and for caps
    (leaves may be nonterminals).  Nodes are immutable and compare and hash
    by identity; ``same_tree`` compares two trees by structure.
    """

    __slots__ = ("label", "children")

    def __init__(self, label: str, children: Sequence["Node"] = ()):
        self.label = label
        self.children = tuple(children)

    def __repr__(self):
        return f"Node({self.label!r}, {len(self.children)} children)"


def same_tree(a: Node, b: Node) -> bool:
    """True iff the two trees have the same labels in the same shape.
    Explicit stack, no recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.label != y.label or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def tree_yield(tree: Node) -> tuple[str, ...]:
    """Leaf labels, left to right."""
    out: list[str] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(reversed(node.children))
        else:
            out.append(node.label)
    return tuple(out)


@dataclass(frozen=True)
class SententialForm:
    """A string of terminals and nonterminals derivable from the start symbol.

    ``cap`` records its derivation as a cap tree; ``membership`` matches it.
    """

    symbols: tuple[str, ...]
    cap: Node

    def __str__(self):
        return " ".join(self.symbols)


class Grammar:
    def __init__(self, productions: Sequence[tuple[str, tuple[str, ...]]], start: str):
        # a production listed twice adds no parse
        self.productions = list(dict.fromkeys((head, tuple(body)) for head, body in productions))
        self.start = start
        self.nonterminals = {head for head, _ in self.productions}
        self.terminals = {
            sym
            for _, body in self.productions
            for sym in body
            if sym not in self.nonterminals
        }
        if start not in self.nonterminals:
            raise ParseError(f"start symbol {start!r} has no productions", 0)
        for head, body in self.productions:
            if not body:
                raise ParameterError(f"empty production for {head!r}: bodies must be non-empty")
        self._rules: Optional[_Rules] = None
        self._form: Optional[tuple[Grammar, dict[str, str]]] = None

    @classmethod
    def from_text(cls, text: str) -> "Grammar":
        productions: list[tuple[str, tuple[str, ...]]] = []
        start = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rhs = line.partition("->")
            head = head.strip()
            if not head or not _:
                raise ParseError(f"bad production line: {raw!r}", 0)
            if start is None:
                start = head
            for alt in rhs.split("|"):
                body = tuple(alt.split())
                productions.append((head, body))
        if start is None:
            raise ParseError("empty grammar", 0)
        return cls(productions, start)

    def _dotted_rules(self) -> "_Rules":
        """The productions numbered for the Earley parser (built once)."""
        if self._rules is None:
            self._rules = _Rules(self)
        return self._rules

    def _form_grammar(self) -> tuple["Grammar", dict[str, str]]:
        """The grammar ``form_to_cap`` parses sentential forms with (built
        once): these productions plus ``A -> ⟨A⟩`` for every nonterminal
        ``A``, and the map from each ``A`` to its token ``⟨A⟩``.  Its parse
        trees are this grammar's caps, with ``A(⟨A⟩)`` for a leaf ``A``."""
        if self._form is None:
            mark = {a: f"⟨{a}⟩" for a in sorted(self.nonterminals)}
            clash = set(mark.values()) & (self.terminals | self.nonterminals)
            if clash:
                raise ParameterError(
                    f"grammar symbols {sorted(clash)} are reserved for parsing sentential forms"
                )
            leaves = [(a, (token,)) for a, token in mark.items()]
            self._form = Grammar(self.productions + leaves, self.start), mark
        return self._form


# ---------------------------------------------------------------------------
# Earley recognition and unique-tree extraction
# ---------------------------------------------------------------------------


class _Rules:
    """A grammar's productions as numbered dotted rules, for ``parse``.

    Rule ``r`` is a production with the dot before one body position, and
    ``r + 1`` is the same production with the dot one symbol further on.
    Besides the grammar's productions there is a start rule ``None -> A``
    for every nonterminal, so that a parse of the whole input is an ordinary
    Earley item.
    """

    def __init__(self, grammar: Grammar):
        self.after: list = []  # the symbol after the dot, None when complete
        self.before: list = []  # the symbol before the dot, None at the start
        self.head: list = []
        self.penult: list[bool] = []  # the symbol after the dot ends the body
        self.first: dict[str, list[int]] = {}  # head -> its rules, dot at 0
        self.start: dict[str, int] = {}  # nonterminal -> its start rule
        self.nonterminals = grammar.nonterminals
        extra = [(None, (a,)) for a in sorted(grammar.nonterminals)]
        for head, body in grammar.productions + extra:
            if head is None:
                self.start[body[0]] = len(self.after)
            else:
                self.first.setdefault(head, []).append(len(self.after))
            for d in range(len(body) + 1):
                self.after.append(body[d] if d < len(body) else None)
                self.before.append(body[d - 1] if d else None)
                self.head.append(head)
                self.penult.append(d == len(body) - 1)
        self._predictions: dict = {}

    def predict(self, awaited: frozenset) -> tuple[dict, dict]:
        """The rules predicted at a position where ``awaited`` nonterminals
        are awaited, as (nonterminal -> rules at dot 0 awaiting it, terminal
        -> rules at dot 0 scanning it).  No symbol derives the empty string,
        so prediction depends on ``awaited`` alone and the items it makes
        need not be stored per position.  Memoized."""
        tables = self._predictions.get(awaited)
        if tables is None:
            closure, todo = set(awaited), list(awaited)
            while todo:
                for r0 in self.first[todo.pop()]:
                    sym = self.after[r0]
                    if sym in self.nonterminals and sym not in closure:
                        closure.add(sym)
                        todo.append(sym)
            tables = self._predictions[awaited] = ({}, {})
            for head in sorted(closure):
                for r0 in self.first[head]:
                    sym = self.after[r0]
                    tables[sym not in self.nonterminals].setdefault(sym, []).append(r0)
        return tables


class _Column:
    """One Earley set, kept after it is finished.  An item is a pair
    (dotted rule, origin)."""

    __slots__ = ("wait", "predicted", "links", "leo")

    def __init__(self):
        self.wait: dict = {}  # nonterminal -> the items here awaiting it
        self.predicted: dict = {}  # the first table of Rules.predict, once finished
        self.links: dict = {}  # item -> the complete item that advanced it here
        self.leo: dict = {}  # nonterminal -> top of its Leo chain, or None

    def sole_awaiting(self, sym: str, pos: int):
        """The one item at this column (position ``pos``) awaiting ``sym``,
        or None when there are none or several."""
        waiting, predicted = self.wait.get(sym, ()), self.predicted.get(sym, ())
        if len(waiting) + len(predicted) != 1:
            return None
        return waiting[0] if waiting else (predicted[0], pos)


def _leo_top(columns: list, rules: _Rules, origin: int, sym: str):
    """The topmost item a completion of ``sym`` from ``origin`` completes.

    When exactly one item awaits ``sym`` at ``origin`` and ``sym`` is the
    last symbol of its rule, every completion of ``sym`` from there
    completes that item too, and so on upwards while the same holds for its
    head (Leo 1991).  Returns the last item of that chain, or None when
    there is no chain.  Memoized per column; no recursion.
    """
    path = []
    while True:
        memo = columns[origin].leo
        if sym in memo:
            top = memo[sym]
            break
        sole = columns[origin].sole_awaiting(sym, origin)
        if sole is None or not rules.penult[sole[0]]:
            top = memo[sym] = None
            break
        r, o = sole
        path.append((memo, sym, (r + 1, o)))
        sym, origin = rules.head[r], o
    for memo, sym, item in reversed(path):
        if top is None:
            top = item
        memo[sym] = top
    return top


def _recognise(rules: _Rules, tokens: tuple, start: str):
    """The Earley recogniser: one column per input position, each item's
    awaited nonterminal indexed, so a completion visits only the items that
    wait for it.

    A completion with a Leo chain above it adds only the chain's top item,
    so a right recursion costs constant work per token instead of a
    completion per nesting level.  Every item added over a nonterminal
    records the complete item that advanced it (``_Column.links``).  Raises
    ``AmbiguityError`` at the first item derived twice.  Returns the
    columns up to the last one reached and the (item, position) pairs added
    through a Leo chain.
    """
    after, head, nonterminals = rules.after, rules.head, rules.nonterminals
    n = len(tokens)
    columns: list[_Column] = []
    via_leo: set = set()
    scanned = {(rules.start[start], 0)}
    for pos in range(n + 1):
        if not scanned:
            break
        col = _Column()
        columns.append(col)
        wait, links = col.wait, col.links
        tok = tokens[pos] if pos < n else None
        seen = set(scanned)  # items here at dot > 0
        agenda = list(scanned)
        scanned = set()
        while agenda:
            item = agenda.pop()
            r, origin = item
            sym = after[r]
            if sym is None:
                done = head[r]
                memo = columns[origin].leo
                top = memo[done] if done in memo else _leo_top(columns, rules, origin, done)
                if top is not None:
                    advanced = [top]
                    via_leo.add((top, pos))
                else:
                    above = columns[origin]
                    advanced = [(r2 + 1, o2) for r2, o2 in above.wait.get(done, ())]
                    advanced += [(r0 + 1, origin) for r0 in above.predicted.get(done, ())]
                for new in advanced:
                    if new in seen:
                        label = head[new[0]] or start
                        raise AmbiguityError(
                            f"an item of {label!r} over tokens {new[1]}:{pos} is derived twice"
                        )
                    seen.add(new)
                    links[new] = item
                    agenda.append(new)
            elif sym == tok:
                scanned.add((r + 1, origin))
            elif sym in nonterminals:
                wait.setdefault(sym, []).append(item)
        col.predicted, scans = rules.predict(frozenset(wait))
        scanned.update((r0 + 1, pos) for r0 in scans.get(tok, ()))
    return columns, via_leo


def _tree_from_links(rules: _Rules, columns: list, via_leo: set, top) -> Node:
    """The tree of the one derivation the recogniser recorded for ``top``, a
    complete item in the last column.

    Walks each rule from its last symbol back to its first on an explicit
    stack.  A terminal steps back one position; a nonterminal steps back to
    the origin of the complete item that advanced the rule over it, which
    becomes a child.  Leo chains are expanded along this one derivation.
    """
    before, head, nonterminals = rules.before, rules.head, rules.nonterminals
    leaves: dict = {}
    chained: dict = {}  # (item, pos) -> last child, for items inside Leo chains
    stack = [[top, len(columns) - 1, []]]
    while True:
        frame = stack[-1]
        item, pos, kids = frame
        r, origin = item
        sym = before[r]
        if sym is None:
            node = Node(head[r], kids[::-1])
            stack.pop()
            if not stack:
                return node
            stack[-1][2].append(node)
        elif sym not in nonterminals:
            leaf = leaves.get(sym)
            if leaf is None:
                leaf = leaves[sym] = Node(sym)
            kids.append(leaf)
            frame[0], frame[1] = (r - 1, origin), pos - 1
        else:
            child = chained.pop((item, pos), None)
            if child is None:
                child = columns[pos].links[item]
                if (item, pos) in via_leo:
                    # climb the chain from the completion that started it
                    done, mid = head[child[0]], child[1]
                    while True:
                        r2, o2 = columns[mid].sole_awaiting(done, mid)
                        up = (r2 + 1, o2)
                        if up == item:
                            break
                        chained[(up, pos)] = child
                        child, done, mid = up, head[r2], o2
            frame[0], frame[1] = (r - 1, origin), child[1]
            stack.append([child, pos, []])


def parse(grammar: Grammar, tokens: Sequence[str], start: Optional[str] = None) -> Node:
    """Parse a token sequence into its unique tree.

    Raises ``ParseError`` (with the failing position) if the tokens are not
    in the language, and ``AmbiguityError`` at the first Earley item the
    recogniser derives twice, even one that lies in no parse of the whole
    input, and ``ParameterError`` if ``tokens`` is not a sequence.  One
    pass with Leo chains; the tree is read off the derivation it recorded.
    """
    try:
        tokens = tuple(tokens)
    except TypeError:  # not a sequence
        raise ParameterError(f"expected a sequence of tokens, got {tokens!r}") from None
    start = start or grammar.start
    try:
        for pos, tok in enumerate(tokens):
            if tok not in grammar.terminals:
                raise ParseError(f"unknown token {tok!r}", pos)
    except TypeError:  # an unhashable token is no terminal
        raise ParseError(f"unknown token {tok!r}", pos) from None
    rules = grammar._dotted_rules()
    if start not in rules.first:
        raise ParseError(f"unknown start symbol {start!r}", 0)
    columns, via_leo = _recognise(rules, tokens, start)
    top = (rules.start[start] + 1, 0)
    if len(columns) > len(tokens) and top in columns[-1].links:
        return _tree_from_links(rules, columns, via_leo, top).children[0]
    raise ParseError(f"tokens are not derivable from {start!r}", len(columns) - 1)


# ---------------------------------------------------------------------------
# Caps and generalization
# ---------------------------------------------------------------------------


def msc(a: Node, b: Node) -> Node:
    """Most specific common cap of two parse trees (or caps) sharing a root
    label: their meet.  The meet of a set is the fold
    ``functools.reduce(msc, trees)``.

    Marches down both trees together, keeping a node's children exactly
    when both expand it with the same production.  Wherever the result
    equals ``a``'s subtree it is that subtree itself, so ``msc(a, b)`` is
    ``a`` exactly when ``a`` is a cap of ``b``.  Explicit stack, no
    recursion.
    """
    if a.label != b.label:
        raise IncompatibleTreesError(f"root labels differ: {a.label!r} vs {b.label!r}")
    done: list[Node] = []  # finished results, in post order
    stack: list = [(a, b)]
    while stack:
        x, y = stack.pop()
        kids = x.children
        if y is None:  # the children's results are the last len(kids) done
            k = len(done) - len(kids)
            got = done[k:]
            del done[k:]
            done.append(x if all(map(is_, got, kids)) else Node(x.label, got))
        elif x is y or not kids:
            done.append(x)
        elif [c.label for c in kids] != [c.label for c in y.children]:
            done.append(Node(x.label))  # productions differ: cut here
        else:
            stack.append((x, None))
            stack.extend(zip(reversed(kids), reversed(y.children)))
    return done[0]


def msg(
    grammar: Grammar,
    problems: Sequence[Sequence[str]],
    start: Optional[str] = None,
) -> SententialForm:
    """Most specific generalization of a set of sentences.

    Computed incrementally: fold each next problem's parse tree into the
    running most specific common cap.
    """
    if not problems:
        raise IncompatibleTreesError("msg of an empty problem set")
    cap = parse(grammar, problems[0], start)
    for tokens in problems[1:]:
        cap = msc(cap, parse(grammar, tokens, start))
    return SententialForm(tree_yield(cap), cap)


def cap_matches_tree(cap: Node, tree: Node) -> bool:
    """True iff ``cap`` is a cap of ``tree`` (nonterminal cap leaves match any
    subtree with that root label).  Explicit stack, no recursion."""
    stack = [(cap, tree)]
    while stack:
        c, t = stack.pop()
        if c is t:
            continue
        if c.label != t.label:
            return False
        if c.children:
            if len(c.children) != len(t.children):
                return False
            stack.extend(zip(c.children, t.children))
    return True


def membership(
    grammar: Grammar,
    form: SententialForm | Sequence[str],
    problem: Sequence[str],
    start: Optional[str] = None,
) -> bool:
    """Is ``problem`` derivable from the sentential form?

    Parses the problem (returning False when it does not parse) and checks
    whether the form's cap is a cap of that parse tree.  Plain symbols get
    their cap from ``form_to_cap``; symbols that do not parse from the
    tree's root derive nothing.
    """
    try:
        tree = parse(grammar, problem, start)
    except ParseError:
        return False
    if isinstance(form, SententialForm):
        return cap_matches_tree(form.cap, tree)
    try:
        cap = form_to_cap(grammar, form, tree.label)
    except ParseError:
        return False
    return cap_matches_tree(cap, tree)


def form_to_cap(
    grammar: Grammar, symbols: Sequence[str], start: Optional[str] = None
) -> Node:
    """Build the unique cap tree whose yield is the given sentential form.

    Nonterminal symbols in the form become cap leaves.  The form is parsed
    by ``parse`` over the form grammar, which reads a nonterminal ``A`` as
    the token ``⟨A⟩``; each ``A -> ⟨A⟩`` node of that tree becomes the leaf
    ``A``, on an explicit stack.  Raises ``ParseError`` if the form is not
    derivable from ``start`` and ``AmbiguityError`` as ``parse`` does, at
    the first item of the form grammar derived twice.
    """
    form, mark = grammar._form_grammar()
    symbols, tokens = tuple(symbols), []
    try:
        for pos, sym in enumerate(symbols):
            if sym not in grammar.terminals and sym not in mark:
                raise ParseError(f"unknown symbol {sym!r}", pos)
            tokens.append(mark.get(sym, sym))
    except TypeError:  # an unhashable symbol is no grammar symbol
        raise ParseError(f"unknown symbol {sym!r}", pos) from None
    tree = parse(form, tokens, start)
    done: list[Node] = []  # finished caps, in post order
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        kids = node.children
        if expanded:  # the children's caps are the last len(kids) done
            k = len(done) - len(kids)
            done[k:] = [Node(node.label, done[k:])]
        elif not kids:
            done.append(node)
        elif kids[0].label == mark.get(node.label):
            done.append(Node(node.label))
        else:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(kids))
    return done[0]
