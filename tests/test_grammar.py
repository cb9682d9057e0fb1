import random
from functools import reduce
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import (
    EnumerationLimitError,
    all_caps,
    bodies_by_head,
    enumerate_sentences,
    min_yield_lens,
)
from speedup_learning.errors import (
    AmbiguityError,
    IncompatibleTreesError,
    ParameterError,
    ParseError,
    SpeedupLearningError,
)
from speedup_learning.grammar import (
    Grammar,
    Node,
    cap_matches_tree,
    form_to_cap,
    membership,
    msc,
    msg,
    parse,
    same_tree,
    tree_yield,
)
from speedup_learning import integration as I
from speedup_learning.integration import GRAMMAR, generate_problem, to_tokens

SMALL = Grammar.from_text("""
# tiny unambiguous expression grammar
S -> A | A + S
A -> x | a | f A | ( S )
""")


def test_from_text_structure():
    assert SMALL.start == "S"
    assert SMALL.nonterminals == {"S", "A"}
    assert SMALL.terminals == {"x", "a", "f", "(", ")", "+"}
    with pytest.raises(ParseError):
        Grammar.from_text("no arrow here")
    with pytest.raises(ParseError):
        Grammar.from_text("# only a comment\n")


def test_min_yield_len():
    assert min_yield_lens(SMALL)["A"] == 1
    assert min_yield_lens(SMALL)["S"] == 1
    assert min_yield_lens(GRAMMAR)["Trig"] == 4
    assert min_yield_lens(GRAMMAR)["Prob"] == 3  # D Exp Var


def test_parse_round_trip_small():
    tokens = "f ( x + a ) + x".split()
    tree = parse(SMALL, tokens)
    assert tree.label == "S"
    assert tree_yield(tree) == tuple(tokens)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse(SMALL, "x + y".split())
    assert info.value.position == 2  # unknown token
    with pytest.raises(ParseError) as info:
        parse(SMALL, "x + + x".split())
    assert 0 <= info.value.position <= 4
    with pytest.raises(ParseError):
        parse(SMALL, [])


def test_parse_rejects_unknown_start():
    with pytest.raises(ParseError):
        parse(SMALL, ["x"], start="Nope")


def test_ambiguous_grammar_detected():
    g = Grammar.from_text("""
    S -> A | B
    A -> x
    B -> x
    """)
    with pytest.raises(AmbiguityError):
        parse(g, ["x"])


def test_integration_grammar_unambiguous_on_samples():
    # probe: every distribution draw must parse without tripping the
    # two-parse detector
    rng = random.Random(11)
    for _ in range(50):
        tokens = to_tokens(generate_problem(rng))
        tree = parse(GRAMMAR, tokens)
        assert tree_yield(tree) == tokens


def _random_small_tokens(rng):
    atom = lambda: rng.choice(["x", "a"])
    t = atom()
    for _ in range(rng.randrange(3)):
        choice = rng.randrange(3)
        if choice == 0:
            t = f"f {t}"
        elif choice == 1:
            t = f"( {t} )"
        else:
            t = f"{t} + {atom()}"
    return t.split()


def _brute_msc(trees):
    """Most specific common cap by exhaustive search (oracle)."""
    common = [c for c in all_caps(trees[0])
              if all(cap_matches_tree(c, t) for t in trees[1:])]
    best = max(common, key=_size)
    # unique maximum: the cap lattice meet is well defined
    assert sum(1 for c in common if _size(c) == _size(best)) == 1
    return best


def _size(node):
    return 1 + sum(_size(c) for c in node.children)


def test_msc_matches_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        trees = [parse(SMALL, _random_small_tokens(rng)) for _ in range(rng.choice([2, 2, 3]))]
        assert same_tree(reduce(msc, trees), _brute_msc(trees))


def test_msc_identity_and_errors():
    t = parse(SMALL, "f x".split())
    assert msc(t, t) is t
    with pytest.raises(IncompatibleTreesError):
        msc(t, Node("Other"))


def test_msc_root_only_when_productions_differ():
    t1 = parse(SMALL, ["x"])
    t2 = parse(SMALL, "x + a".split())
    assert same_tree(msc(t1, t2), Node("S"))


def _random_cap(rng, tree):
    """A cap of ``tree``: each node below the root is cut to a leaf with
    probability 1/4.  An uncut subtree is the tree's own object."""
    kids = [Node(k.label) if k.children and rng.random() < 0.25 else _random_cap(rng, k)
            for k in tree.children]
    if all(k is c for k, c in zip(kids, tree.children)):
        return tree
    return Node(tree.label, kids)


def _drawn_tree(rng, integration):
    """A SMALL parse tree, or the Exp tree of a subterm of a generated
    integration problem; sometimes a random cap of it instead."""
    if integration:
        units = [u for _, u in I.iter_postorder(generate_problem(rng).args[0])]
        tree = I.as_exp(rng.choice(units))
    else:
        tree = parse(SMALL, _random_small_tokens(rng))
    return _random_cap(rng, tree) if rng.random() < 0.3 else tree


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_msc_returns_its_first_input_exactly_where_it_equals_it(rng, integration):
    # the learner keeps an unchanged cap, and the scorer's (cap, unit) memo
    # hits, because of this
    a, b, c = (_drawn_tree(rng, integration) for _ in range(3))
    m = msc(a, b)
    assert (m is a) == same_tree(m, a)
    # the meet leaves its first input alone exactly where that covers the second
    assert (m is a) == cap_matches_tree(a, b)
    assert cap_matches_tree(m, a) and cap_matches_tree(m, b)
    assert same_tree(msc(b, a), m)
    assert msc(a, a) is a
    cap = _random_cap(rng, a)
    assert msc(cap, a) is cap
    # associative, and monotone: generalizing a cap loses no tree it matches
    abc = msc(m, c)
    assert same_tree(msc(a, msc(b, c)), abc)
    wider = msc(cap, b)
    for t in (a, b, c):
        assert not cap_matches_tree(cap, t) or cap_matches_tree(wider, t)


def test_all_caps_are_caps():
    tree = parse(SMALL, "f x + a".split())
    caps = list(all_caps(tree))
    assert not any(same_tree(a, b) for i, a in enumerate(caps) for b in caps[:i])
    for c in caps:
        assert cap_matches_tree(c, tree)


def test_msg_worked_example():
    form = msg(GRAMMAR, [
        "∫ ( sin x ) + ( x ^ 2 ) d x".split(),
        "∫ ( cos x ) + ( sin x ) d x".split(),
    ])
    assert form.symbols == ("∫", "Trig", "+", "P-term", "d", "x")
    assert form.cap is not None
    assert tree_yield(form.cap) == form.symbols


def test_msg_generalizes_its_inputs():
    inputs = [
        "∫ ( sin x ) + ( x ^ 2 ) d x".split(),
        "∫ ( cos x ) + ( sin x ) d x".split(),
    ]
    form = msg(GRAMMAR, inputs)
    for tokens in inputs:
        assert membership(GRAMMAR, form, tokens)
    assert membership(GRAMMAR, form, "∫ ( sin x ) + 7 d x".split())
    assert not membership(GRAMMAR, form, "∫ 3 + 7 d x".split())
    assert not membership(GRAMMAR, form, "not even tokens".split())


def test_membership_without_cap():
    # plain symbol sequences exercise the token-driven descent
    assert membership(GRAMMAR, "∫ Trig + P-term d x".split(),
                      "∫ ( cos x ) + x d x".split())
    assert not membership(GRAMMAR, "∫ Trig + P-term d x".split(),
                          "∫ x + x d x".split())


def test_form_to_cap_round_trip():
    for text, start in [
        ("∫ Trig + P-term d x", "Prob"),
        ("∫ Const * Term d x", "Exp"),
        ("Int + Int", "Exp"),
        ("( x ^ Term )", "Exp"),
    ]:
        cap = form_to_cap(GRAMMAR, text.split(), start)
        assert tree_yield(cap) == tuple(text.split())
        assert cap.label == start
    # left recursion: every derivable form parses, and the cap is the one
    # its derivation spells
    left = Grammar.from_text("S -> S a | b")
    s_a = form_to_cap(left, ["S", "a"])
    assert same_tree(s_a, Node("S", [Node("S"), Node("a")]))
    b_a_a = form_to_cap(left, "b a a".split())
    assert same_tree(b_a_a, parse(left, "b a a".split()))
    assert cap_matches_tree(s_a, b_a_a)
    assert same_tree(form_to_cap(left, ["S"]), Node("S"))
    with pytest.raises(ParseError):
        form_to_cap(left, "a S".split())
    # every cap of a tree is the one cap its own yield parses to
    rng = random.Random(5)
    for _ in range(6):
        for c in all_caps(parse(SMALL, _random_small_tokens(rng))):
            assert same_tree(form_to_cap(SMALL, tree_yield(c)), c)


def test_form_to_cap_errors():
    with pytest.raises(ParseError):
        form_to_cap(GRAMMAR, "Trig Trig".split(), "Exp")
    g = Grammar.from_text("""
    S -> A B | C
    A -> a
    B -> b
    C -> a b
    """)
    with pytest.raises(AmbiguityError):
        form_to_cap(g, "a b".split())
    # the form grammar's leaf tokens are reserved: a form cannot spell one,
    # and a grammar that uses one cannot parse forms
    with pytest.raises(ParseError):
        form_to_cap(SMALL, ["⟨S⟩"])
    with pytest.raises(ParameterError):
        form_to_cap(Grammar.from_text("S -> ⟨S⟩ | a"), ["a"])


def test_enumerate_sentences_exact_small():
    g = Grammar.from_text("""
    S -> a | a S
    """)
    got = enumerate_sentences(g, "S", 3)
    assert got == {("a",), ("a", "a"), ("a", "a", "a")}
    assert enumerate_sentences(g, ("a", "S"), 3) == {("a", "a"), ("a", "a", "a")}


def test_enumerate_sentences_limit_guard():
    with pytest.raises(EnumerationLimitError):
        enumerate_sentences(GRAMMAR, "Prob", 14, limit=1_000)


def test_membership_agrees_with_enumeration_exhaustively():
    # two-sided oracle on a desk-scale grammar: for random sentential
    # forms, membership must carve out exactly the form's sub-language
    language = enumerate_sentences(SMALL, "S", 9)
    rng = random.Random(3)
    checked = 0
    while checked < 8:
        tree = parse(SMALL, _random_small_tokens(rng))
        caps = list(all_caps(tree))
        form = tree_yield(caps[rng.randrange(len(caps))])
        derivable = enumerate_sentences(SMALL, form, 9)
        if not 0 < len(derivable) < 3000:
            continue
        sample = rng.sample(sorted(language), 150)
        for sentence in set(sample) | derivable:
            assert membership(SMALL, form, sentence) == (sentence in derivable), (
                form, sentence)
        checked += 1


# ---------------------------------------------------------------------------
# The cubic, recursive parser the linear one replaced, kept as its oracle
# ---------------------------------------------------------------------------


def _earley_spans(grammar: Grammar, tokens: Sequence[str], start: str, chart_out=None):
    """Run the Earley recogniser; return completed spans.

    Result maps ``(head, i, j)`` to the set of production bodies with which
    the nonterminal ``head`` derives ``tokens[i:j]``.  ``chart_out``, a
    list, receives the chart: per position, its (production, dot, origin)
    items.
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
            if sym in grammar.nonterminals:
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
    if chart_out is not None:
        chart_out.extend(chart)
    return completed, max_pos


def _build_unique_tree(grammar, tokens, start, completed):
    """Build the unique tree for the full span; raise on ambiguity."""

    memo: dict[tuple, Node] = {}
    lens = min_yield_lens(grammar)

    def derive_symbol(sym: str, i: int, j: int) -> Optional[Node]:
        if sym not in grammar.nonterminals:
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
                if found is not None and not same_tree(tree, found):
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
        if sym not in grammar.nonterminals:
            if i < j and tokens[i] == sym:
                for rest in split_body(body, k + 1, i + 1, j):
                    yield (Node(sym),) + rest
            return
        # minimum lengths prune the split search
        lo = i + lens[sym]
        hi = j - sum(lens[s] for s in body[k + 1 :])
        for mid in range(lo, hi + 1):
            if (sym, i, mid) in completed:
                sub = derive_symbol(sym, i, mid)
                if sub is None:
                    continue
                for rest in split_body(body, k + 1, mid, j):
                    yield (sub,) + rest

    return derive_symbol(start, 0, len(tokens))


def _reference_parse(grammar, tokens, start=None):
    """``parse`` as it was, over the two functions above."""
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


def _cyclic(grammar):
    """Does some nonterminal derive itself (A =>+ A)?  Without empty
    productions only unit productions ``A -> B`` close a cycle."""
    edges = {a: set() for a in grammar.nonterminals}
    for head, body in grammar.productions:
        if len(body) == 1 and body[0] in edges:
            edges[head].add(body[0])
    for a in edges:
        seen, todo = set(), list(edges[a])
        while todo:
            b = todo.pop()
            if b == a:
                return True
            if b not in seen:
                seen.add(b)
                todo.extend(edges[b])
    return False


def _derived_twice(grammar, tokens, start):
    """Whether some item of the reference chart has a prefix that derives
    its span in two ways, or ``start`` derives some prefix of the tokens in
    two ways: the witness for an ``AmbiguityError`` the reference does not
    raise, because that item lies in no parse it searches."""
    chart: list = []
    completed, _ = _earley_spans(grammar, tokens, start, chart)
    counts: dict = {}

    def span(sym, i, j):
        """Derivations of tokens[i:j] from ``sym``, counted up to 2."""
        if sym not in grammar.nonterminals:
            return int(j == i + 1 and tokens[i] == sym)
        if (sym, i, j) not in counts:
            # met again while being counted, the span derives itself
            counts[(sym, i, j)] = 2
            counts[(sym, i, j)] = min(2, sum(ways(b, i, j) for b in completed.get((sym, i, j), ())))
        return counts[(sym, i, j)]

    def ways(symbols, i, j):
        """Derivations of tokens[i:j] from ``symbols``, each symbol yielding
        at least one token, counted up to 2."""
        if not symbols:
            return int(i == j)
        rest = symbols[1:]
        return min(2, sum(span(symbols[0], i, mid) * ways(rest, mid, j)
                          for mid in range(i + 1, j - len(rest) + 1)))

    return any(span(start, 0, j) > 1 for j in range(len(chart))) or any(
        ways(grammar.productions[p][1][:dot], origin, pos) > 1
        for pos, items in enumerate(chart) for p, dot, origin in items)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ParseError, AmbiguityError, RecursionError) as exc:
        return exc


def _assert_parses_as_reference(grammar, tokens, start=None):
    want = _outcome(_reference_parse, grammar, tokens, start)
    got = _outcome(parse, grammar, tokens, start)
    if isinstance(want, RecursionError):
        # a cyclic grammar derives the input in endless ways; the reference
        # recursed into them, the parser reports them
        assert _cyclic(grammar), (tokens, want)
        assert isinstance(got, AmbiguityError), (tokens, got)
    elif isinstance(got, AmbiguityError) and not isinstance(want, AmbiguityError):
        # the parser reports an item derived twice even where it lies in no
        # parse of the whole input
        assert _derived_twice(grammar, tokens, start or grammar.start), (tokens, want)
    elif isinstance(want, Exception):
        assert type(got) is type(want), (tokens, want, got)
        if isinstance(want, ParseError):
            assert got.position == want.position, (tokens, want, got)
    else:
        assert isinstance(got, Node), (tokens, got)
        assert tree_yield(got) == tree_yield(want)
        assert same_tree(got, want)


def _sum_sentence(rng, terms):
    """``∫ t1 ± t2 ± ... d x``, right-nested sums of varied terms."""
    def term():
        base = rng.choice((I.sinx, I.cosx, lambda: I.VAR_X, lambda: I.named(rng.choice("ak")),
                           lambda: I.num(rng.randrange(100)), lambda: I.neg(I.VAR_X)))()
        if rng.random() < 0.6:
            return I.mul(base, I.powx(I.num(rng.randrange(2, 10))))
        return base

    e = term()
    for _ in range(terms - 1):
        e = (I.add if rng.random() < 0.7 else I.sub)(term(), e)
    return to_tokens(I.integral(e))


def _mutate(rng, tokens, alphabet):
    """The tokens with one token dropped, doubled or replaced."""
    tokens = list(tokens)
    if tokens:
        k = rng.randrange(len(tokens))
        edit = rng.randrange(3)
        if edit == 0:
            del tokens[k]
        elif edit == 1:
            tokens.insert(k, tokens[k])
        else:
            tokens[k] = rng.choice(alphabet)
    return tokens


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["problem", "sum", "broken"]))
def test_parse_matches_reference_on_integration_inputs(seed, kind):
    rng = random.Random(seed)
    if kind == "problem":
        tokens = to_tokens(generate_problem(rng))
    else:
        tokens = _sum_sentence(rng, rng.randrange(1, 13))
        if kind == "broken":
            tokens = _mutate(rng, tokens, sorted(GRAMMAR.terminals))
    _assert_parses_as_reference(GRAMMAR, tokens)
    if tokens and tokens[0] == "∫":
        _assert_parses_as_reference(GRAMMAR, tokens[1:-2], "Exp")


_NONTERMINALS = ("S", "A", "B")
_BODY = st.lists(st.sampled_from(_NONTERMINALS + ("a", "b")), min_size=1, max_size=3).map(tuple)
_GRAMMARS = st.lists(
    st.lists(_BODY, min_size=1, max_size=3), min_size=3, max_size=3
).map(lambda alts: Grammar(
    [(head, body) for head, bodies in zip(_NONTERMINALS, alts) for body in bodies], "S"))


def _derive(grammar, rng, budget=30):
    """A sentence derived from S by random leftmost expansion, or None."""
    form = ["S"]
    by_head = bodies_by_head(grammar)
    for _ in range(budget):
        k = next((k for k, sym in enumerate(form) if sym in grammar.nonterminals), None)
        if k is None:
            return form if len(form) <= 8 else None
        form[k:k + 1] = rng.choice(by_head[form[k]])
    return None


@settings(max_examples=400, deadline=None)
@given(_GRAMMARS, st.integers(0, 2**32))
def test_parse_matches_reference_on_random_grammars(grammar, seed):
    rng = random.Random(seed)
    for _ in range(4):
        tokens = _derive(grammar, rng) if rng.random() < 0.6 else None
        if tokens is None:
            tokens = [rng.choice("ab") for _ in range(rng.randrange(7))]
        elif rng.random() < 0.3:
            tokens = _mutate(rng, tokens, ["a", "b"])
        _assert_parses_as_reference(grammar, tokens, rng.choice(_NONTERMINALS))


@pytest.mark.parametrize("text, sentences", [
    ("E -> E + T | T\nT -> a | b", ["a", "a + b + a", "a + + b", "+ a", ""]),  # left recursion
    ("E -> T + E | T\nT -> a | b", ["a + b + a", "a + b +", "b b"]),  # right recursion
    ("E -> E + E | a", ["a", "a + a", "a + a + a"]),  # ambiguous
    ("S -> A | a\nA -> S", ["a"]),  # cyclic
    # "a b b" has one tree, S -> a (T -> b b), but T derives the first "b"
    # alone in two ways: the reference's search for a second parse visits
    # that span, and the parser derives S -> a T. over it twice, so both
    # raise AmbiguityError
    ("S -> a T\nT -> b | W | b b\nW -> b", ["a b", "a b b"]),
    # the same dead end where the reference's search does not reach it:
    # only the parser raises AmbiguityError
    ("S -> A c d | a b e\nA -> a T\nT -> b | W\nW -> b", ["a b e"]),
])
def test_parse_matches_reference_on_fixed_grammars(text, sentences):
    grammar = Grammar.from_text(text)
    for sentence in sentences:
        _assert_parses_as_reference(grammar, sentence.split())


_ALPHABET = sorted(GRAMMAR.terminals | GRAMMAR.nonterminals) + ["¿"]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32),
       st.lists(st.sampled_from(_ALPHABET) | st.sampled_from([["x"], {}, set()]), max_size=10))
def test_parser_entry_points_raise_only_typed_errors(seed, noise):
    # the integration grammar is unambiguous, so no item is ever derived
    # twice; an unhashable token names no symbol, so it raises ParseError
    rng = random.Random(seed)
    problem = to_tokens(generate_problem(rng))
    form = list(tree_yield(_random_cap(rng, parse(GRAMMAR, problem))))
    start = rng.choice(sorted(GRAMMAR.nonterminals))
    for tokens in (noise, form, _mutate(rng, form, _ALPHABET), _mutate(rng, problem, _ALPHABET)):
        for call in (lambda: parse(GRAMMAR, tokens), lambda: parse(GRAMMAR, tokens, start),
                     lambda: form_to_cap(GRAMMAR, tokens), lambda: form_to_cap(GRAMMAR, tokens, start),
                     lambda: membership(GRAMMAR, tokens, problem),
                     lambda: membership(GRAMMAR, form, tokens, start)):
            try:
                call()
            except SpeedupLearningError as exc:
                assert not isinstance(exc, AmbiguityError), (tokens, exc)


def test_empty_productions_are_rejected():
    # no empty body, so no nullable symbol
    for text in ("S -> A S | \nA -> a | ", "S -> a |", "S -> a\nT ->"):
        with pytest.raises(ParameterError):
            Grammar.from_text(text)
    with pytest.raises(ParameterError):
        Grammar([("S", ("a",)), ("S", ())], "S")


def test_parse_msg_membership_on_a_4096_term_sum():
    rng = random.Random(4096)
    s1, s2 = _sum_sentence(rng, 4096), _sum_sentence(rng, 4096)
    assert len(s1) > 25_000
    assert tree_yield(parse(GRAMMAR, s1)) == s1
    form = msg(GRAMMAR, [s1, s2])
    assert tree_yield(form.cap) == form.symbols
    assert membership(GRAMMAR, form, s1) and membership(GRAMMAR, form, s2)
    assert not membership(GRAMMAR, form, "∫ x + x d x".split())
    # raw forms: the short generalization, and a whole sentence as a form
    assert same_tree(form_to_cap(GRAMMAR, form.symbols), form.cap)
    assert membership(GRAMMAR, form.symbols, s1)
    assert membership(GRAMMAR, s1, s1) and not membership(GRAMMAR, s1, s2)
