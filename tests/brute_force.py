"""Brute-force oracles the tests check the learners against.

Exponential or exhaustive by design, so desk scale only: every cap of a
tree, every sentence up to a length, the teacher's units per operator, and
the post-order walk of the interpreters that scan a state from its root.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from speedup_learning.core import BOTTOM, Example
from speedup_learning.grammar import Grammar, Node, SententialForm


class EnumerationLimitError(Exception):
    """Exhaustive sentence enumeration exceeded its explosion guard."""


def all_caps(tree: Node) -> Iterable[Node]:
    """Every cap of a tree, by exhaustive expand-or-cut choice per node."""
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


def bodies_by_head(grammar: Grammar) -> dict[str, list[tuple[str, ...]]]:
    """Each nonterminal's production bodies, in grammar order."""
    out: dict[str, list[tuple[str, ...]]] = {}
    for head, body in grammar.productions:
        out.setdefault(head, []).append(body)
    return out


def min_yield_lens(grammar: Grammar) -> dict[str, int]:
    """Minimum number of terminals derivable from each symbol."""
    lens = {t: 1 for t in grammar.terminals}
    lens.update((nt, 10**9) for nt in grammar.nonterminals)
    changed = True
    while changed:
        changed = False
        for head, body in grammar.productions:
            total = sum(lens[s] for s in body)
            if total < lens[head]:
                lens[head] = total
                changed = True
    return lens


def enumerate_sentences(
    grammar: Grammar,
    root: SententialForm | Sequence[str] | str,
    max_tokens: int,
    limit: int = 2_000_000,
) -> set[tuple[str, ...]]:
    """All terminal strings of length <= max_tokens derivable from ``root``.

    Exhaustive leftmost expansion with minimum-yield pruning; raises
    ``EnumerationLimitError`` when more than ``limit`` forms are processed.
    """
    if isinstance(root, str):
        symbols = (root,)
    elif isinstance(root, SententialForm):
        symbols = root.symbols
    else:
        symbols = tuple(root)
    lens = min_yield_lens(grammar)
    by_head = bodies_by_head(grammar)

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
            raise EnumerationLimitError(f"enumeration exceeded {limit} intermediate forms")
        if sum(lens[s] for s in form) > max_tokens:
            continue
        for idx, sym in enumerate(form):
            if sym in grammar.nonterminals:
                for body in by_head[sym]:
                    stack.append(form[:idx] + body + form[idx + 1:])
                break
        else:
            if len(form) <= max_tokens:
                out.add(form)
    return out


def collect_select_examples(rdomain, sample: Sequence[Example]) -> dict:
    """Map operator index -> ordered distinct matching units the teacher
    applied that operator to, across all solved examples, found by
    replaying each solution."""
    collected: dict = {}
    for example in sample:
        if example.solution is BOTTOM:
            continue
        x = example.problem
        for op_index, loc in example.solution:
            unit = rdomain.subexpr(x, loc)
            collected.setdefault(op_index, {}).setdefault(unit)
            x = rdomain.apply(x, op_index, loc)
    return {op: list(bucket) for op, bucket in collected.items()}


def iter_postorder(e) -> Iterator[tuple]:
    """Yield an integration Expr's (path, subexpression) pairs in
    post-order.  Explicit stack, so deep terms do not recurse."""
    path: list = []
    stack = [(e, enumerate(e.children))]
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
