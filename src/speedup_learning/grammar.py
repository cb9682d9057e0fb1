"""Unambiguous context-free grammar machinery.

Parsing is chart-based (Earley); every sentence of a conforming grammar has
exactly one parse tree, and discovering a second one raises
``AmbiguityError``.  Generalization works on *caps*: prefix-closed,
sibling-closed subtrees of a parse tree rooted at its root.  The yield of a
cap is a sentential form, and the most specific common cap (``msc``) of a
set of parse trees yields the unique most specific generalization (``msg``)
of the underlying sentences.

Grammar text format: one production per line, ``Head -> sym sym | sym ...``,
``#`` starts a comment, and the head of the first production is the start
symbol.  Symbols are whitespace-separated; anything that never appears as a
head is a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    AmbiguityError,
    EnumerationLimitError,
    IncompatibleTreesError,
    ParseError,
)


class Node:
    """An ordered tree node labeled with a grammar symbol.

    Used both for full parse trees (all leaves terminal) and for caps
    (leaves may be nonterminals).  Nodes are immutable.
    """

    __slots__ = ("label", "children", "_hash")

    def __init__(self, label: str, children: Sequence["Node"] = ()):
        self.label = label
        self.children = tuple(children)
        self._hash = hash((label, self.children))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Node)
            and self._hash == other._hash
            and self.label == other.label
            and self.children == other.children
        )

    def __repr__(self):
        return f"Node({self.label!r}, {len(self.children)} children)"

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


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

    ``cap`` records the derivation as a cap tree when the form came out of a
    generalization; membership tests use it when present.
    """

    symbols: tuple[str, ...]
    cap: Optional[Node] = None

    def __str__(self):
        return " ".join(self.symbols)


class Grammar:
    def __init__(self, productions: Sequence[tuple[str, tuple[str, ...]]], start: str):
        self.productions = list(productions)
        self.start = start
        self.nonterminals = {head for head, _ in productions}
        self.terminals = {
            sym
            for _, body in productions
            for sym in body
            if sym not in self.nonterminals
        }
        if start not in self.nonterminals:
            raise ParseError(f"start symbol {start!r} has no productions", 0)
        self.by_head: dict[str, list[tuple[str, ...]]] = {}
        for head, body in productions:
            self.by_head.setdefault(head, []).append(body)
        self._min_len: Optional[dict[str, int]] = None

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

    def is_nonterminal(self, sym: str) -> bool:
        return sym in self.nonterminals

    def min_yield_len(self, sym: str) -> int:
        """Minimum number of terminals derivable from a symbol."""
        if self._min_len is None:
            lens = {t: 1 for t in self.terminals}
            for nt in self.nonterminals:
                lens[nt] = 10**9
            changed = True
            while changed:
                changed = False
                for head, body in self.productions:
                    total = sum(lens[s] for s in body)
                    if total < lens[head]:
                        lens[head] = total
                        changed = True
            self._min_len = lens
        return self._min_len[sym]


# ---------------------------------------------------------------------------
# Earley recognition and unique-tree extraction
# ---------------------------------------------------------------------------


def _earley_spans(grammar: Grammar, tokens: Sequence[str], start: str):
    """Run the Earley recogniser; return completed spans.

    Result maps ``(head, i, j)`` to the set of production bodies with which
    the nonterminal ``head`` derives ``tokens[i:j]``.
    """
    n = len(tokens)
    prods = [
        (head, body) for head, body in grammar.productions
    ]
    by_head: dict[str, list[int]] = {}
    for idx, (head, _) in enumerate(prods):
        by_head.setdefault(head, []).append(idx)
    if start not in by_head:
        raise ParseError(f"unknown start symbol {start!r}", 0)

    # Item: (prod_index, dot, origin)
    chart: list[set[tuple[int, int, int]]] = [set() for _ in range(n + 1)]
    completed: dict[tuple[str, int, int], set[tuple[str, ...]]] = {}

    def predict(pos, sym, agenda):
        for pidx in by_head.get(sym, ()):
            item = (pidx, 0, pos)
            if item not in chart[pos]:
                chart[pos].add(item)
                agenda.append(item)

    for pidx in by_head[start]:
        chart[0].add((pidx, 0, 0))
    max_pos = 0
    for pos in range(n + 1):
        agenda = list(chart[pos])
        while agenda:
            pidx, dot, origin = agenda.pop()
            head, body = prods[pidx]
            if dot == len(body):
                completed.setdefault((head, origin, pos), set()).add(body)
                # completer: advance items waiting on `head` at `origin`
                for item2 in list(chart[origin]):
                    p2, d2, o2 = item2
                    h2, b2 = prods[p2]
                    if d2 < len(b2) and b2[d2] == head:
                        nitem = (p2, d2 + 1, o2)
                        if nitem not in chart[pos]:
                            chart[pos].add(nitem)
                            agenda.append(nitem)
                continue
            sym = body[dot]
            if grammar.is_nonterminal(sym):
                predict(pos, sym, agenda)
                # handle nonterminals already completed at this position
                # (relevant for nullable symbols; none in practice, but safe)
                if (sym, pos, pos) in completed:
                    nitem = (pidx, dot + 1, origin)
                    if nitem not in chart[pos]:
                        chart[pos].add(nitem)
                        agenda.append(nitem)
            else:
                if pos < n and tokens[pos] == sym:
                    nitem = (pidx, dot + 1, origin)
                    if nitem not in chart[pos + 1]:
                        chart[pos + 1].add(nitem)
                        max_pos = max(max_pos, pos + 1)
        if chart[pos]:
            max_pos = max(max_pos, pos)
    return completed, max_pos


def _build_unique_tree(grammar, tokens, start, completed):
    """Build the unique tree for the full span; raise on ambiguity."""

    memo: dict[tuple, Node] = {}

    def derive_symbol(sym: str, i: int, j: int) -> Optional[Node]:
        if not grammar.is_nonterminal(sym):
            if j == i + 1 and tokens[i] == sym:
                return Node(sym)
            return None
        bodies = completed.get((sym, i, j))
        if not bodies:
            return None
        key = (sym, i, j)
        if key in memo:
            return memo[key]
        found: Optional[Node] = None
        for body in bodies:
            for children in split_body(body, 0, i, j):
                tree = Node(sym, children)
                if found is not None and tree != found:
                    raise AmbiguityError(
                        f"two parses for {sym!r} over tokens {i}:{j}"
                    )
                found = tree
        memo[key] = found
        return found

    def split_body(body, k, i, j):
        """Yield all child-tuples deriving tokens[i:j] from body[k:]."""
        if k == len(body):
            if i == j:
                yield ()
            return
        sym = body[k]
        if not grammar.is_nonterminal(sym):
            if i < j and tokens[i] == sym:
                for rest in split_body(body, k + 1, i + 1, j):
                    yield (Node(sym),) + rest
            return
        # minimum lengths prune the split search
        lo = i + grammar.min_yield_len(sym)
        hi = j - sum(grammar.min_yield_len(s) for s in body[k + 1 :])
        for mid in range(lo, hi + 1):
            if (sym, i, mid) in completed:
                sub = derive_symbol(sym, i, mid)
                if sub is None:
                    continue
                for rest in split_body(body, k + 1, mid, j):
                    yield (sub,) + rest

    return derive_symbol(start, 0, len(tokens))


def parse(grammar: Grammar, tokens: Sequence[str], start: Optional[str] = None) -> Node:
    """Parse a token sequence into its unique tree.

    Raises ``ParseError`` (with the failing position) if the tokens are not
    in the language, and ``AmbiguityError`` if two distinct parses exist.
    """
    tokens = tuple(tokens)
    start = start or grammar.start
    for pos, tok in enumerate(tokens):
        if tok not in grammar.terminals:
            raise ParseError(f"unknown token {tok!r}", pos)
    completed, max_pos = _earley_spans(grammar, tokens, start)
    tree = _build_unique_tree(grammar, tokens, start, completed)
    if tree is None:
        raise ParseError(
            f"tokens are not derivable from {start!r}", min(max_pos, len(tokens))
        )
    return tree


# ---------------------------------------------------------------------------
# Caps and generalization
# ---------------------------------------------------------------------------


def all_caps(tree: Node) -> Iterable[Node]:
    """Every cap of a tree, by exhaustive expand-or-cut choice per node.

    Test oracle; exponential, desk scale only.
    """
    if not tree.children:
        yield Node(tree.label)
        return
    yield Node(tree.label)  # cut here
    child_options = [list(all_caps(c)) for c in tree.children]

    def combos(k):
        if k == len(child_options):
            yield ()
            return
        for choice in child_options[k]:
            for rest in combos(k + 1):
                yield (choice,) + rest

    for children in combos(0):
        yield Node(tree.label, children)


def msc(trees: Sequence[Node]) -> Node:
    """Most specific common cap of parse trees (or caps) sharing a root label.

    Marches down all trees simultaneously, keeping a node's children exactly
    when every input expands it with the same production.
    """
    if not trees:
        raise IncompatibleTreesError("msc of an empty tree list")
    root = trees[0].label
    for t in trees[1:]:
        if t.label != root:
            raise IncompatibleTreesError(
                f"root labels differ: {root!r} vs {t.label!r}"
            )

    def walk(nodes: Sequence[Node]) -> Node:
        first = nodes[0]
        labels = tuple(c.label for c in first.children)
        if labels and all(
            tuple(c.label for c in n.children) == labels for n in nodes[1:]
        ):
            children = tuple(
                walk([n.children[k] for n in nodes]) for k in range(len(labels))
            )
            return Node(first.label, children)
        return Node(first.label)

    return walk(list(trees))


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
        cap = msc([cap, parse(grammar, tokens, start)])
    return SententialForm(tree_yield(cap), cap)


def cap_matches_tree(cap: Node, tree: Node) -> bool:
    """True iff ``cap`` is a cap of ``tree`` (nonterminal cap leaves match any
    subtree with that root label)."""
    if cap.label != tree.label:
        return False
    if not cap.children:
        return True
    if len(cap.children) != len(tree.children):
        return False
    return all(cap_matches_tree(c, t) for c, t in zip(cap.children, tree.children))


def _form_matches_tree(form: Sequence[str], tree: Node) -> bool:
    """Token-driven cap descent: does some cap of ``tree`` yield ``form``?"""
    n = len(form)

    memo: dict[tuple[int, int], tuple[int, ...]] = {}

    def ends(node: Node, pos: int) -> tuple[int, ...]:
        key = (id(node), pos)
        if key in memo:
            return memo[key]
        out = []
        if pos < n and form[pos] == node.label:
            out.append(pos + 1)
        if node.children:
            frontier = [pos]
            for child in node.children:
                frontier = sorted({e for p in frontier for e in ends(child, p)})
                if not frontier:
                    break
            out.extend(e for e in frontier if e not in out)
        result = tuple(out)
        memo[key] = result
        return result

    return n in ends(tree, 0)


def membership(
    grammar: Grammar,
    form: SententialForm | Sequence[str],
    problem: Sequence[str],
    start: Optional[str] = None,
) -> bool:
    """Is ``problem`` derivable from the sentential form?

    Parses the problem (returning False when it does not parse) and checks
    whether the form is the yield of some cap of that parse tree.
    """
    try:
        tree = parse(grammar, problem, start)
    except ParseError:
        return False
    if isinstance(form, SententialForm):
        if form.cap is not None:
            return cap_matches_tree(form.cap, tree)
        symbols = form.symbols
    else:
        symbols = tuple(form)
    return _form_matches_tree(symbols, tree)


def form_to_cap(
    grammar: Grammar, symbols: Sequence[str], start: Optional[str] = None
) -> Node:
    """Build the unique cap tree whose yield is the given sentential form.

    Nonterminal symbols in the form become cap leaves.  Raises ``ParseError``
    if the form is not derivable from ``start`` and ``AmbiguityError`` if two
    distinct derivations exist.
    """
    symbols = tuple(symbols)
    start = start or grammar.start
    n = len(symbols)

    memo: dict[tuple[str, int], tuple[tuple[Node, int], ...]] = {}
    in_progress: set[tuple[str, int]] = set()

    def derive(sym: str, pos: int) -> tuple[tuple[Node, int], ...]:
        """All (cap, end) derivations of a prefix of symbols[pos:] from sym."""
        if not grammar.is_nonterminal(sym):
            if pos < n and symbols[pos] == sym:
                return ((Node(sym), pos + 1),)
            return ()
        key = (sym, pos)
        if key in memo:
            return memo[key]
        if key in in_progress:
            # left recursion guard: no progress without consuming a token
            return ()
        in_progress.add(key)
        results: list[tuple[Node, int]] = []
        if pos < n and symbols[pos] == sym:
            results.append((Node(sym), pos + 1))
        for body in grammar.by_head[sym]:
            for children, end in expand(body, 0, pos):
                results.append((Node(sym, children), end))
        in_progress.discard(key)
        memo[key] = tuple(results)
        return memo[key]

    def expand(body, k, pos):
        if k == len(body):
            yield (), pos
            return
        for child, mid in derive(body[k], pos):
            for rest, end in expand(body, k + 1, mid):
                yield (child,) + rest, end

    full = [cap for cap, end in derive(start, 0) if end == n]
    if not full:
        raise ParseError(f"form not derivable from {start!r}", 0)
    distinct = {c for c in full}
    if len(distinct) > 1:
        raise AmbiguityError("sentential form has multiple derivations")
    return full[0]


def enumerate_sentences(
    grammar: Grammar,
    root: SententialForm | Sequence[str] | str,
    max_tokens: int,
    limit: int = 2_000_000,
) -> set[tuple[str, ...]]:
    """All terminal strings of length <= max_tokens derivable from ``root``.

    Exhaustive expansion with minimum-yield pruning; raises
    ``EnumerationLimitError`` when more than ``limit`` forms are processed.
    """
    if isinstance(root, str):
        symbols = (root,)
    elif isinstance(root, SententialForm):
        symbols = root.symbols
    else:
        symbols = tuple(root)

    out: set[tuple[str, ...]] = set()
    seen: set[tuple[str, ...]] = set()
    stack = [symbols]
    processed = 0
    while stack:
        form = stack.pop()
        if form in seen:
            continue
        seen.add(form)
        processed += 1
        if processed > limit:
            raise EnumerationLimitError(
                f"enumeration exceeded {limit} intermediate forms"
            )
        if sum(grammar.min_yield_len(s) for s in form) > max_tokens:
            continue
        for idx, sym in enumerate(form):
            if grammar.is_nonterminal(sym):
                for body in grammar.by_head[sym]:
                    stack.append(form[:idx] + body + form[idx + 1 :])
                break
        else:
            if len(form) <= max_tokens:
                out.add(form)
    return out
