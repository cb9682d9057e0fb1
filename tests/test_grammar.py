import random

import pytest

from speedup_learning.errors import (
    AmbiguityError,
    EnumerationLimitError,
    IncompatibleTreesError,
    ParseError,
)
from speedup_learning.grammar import (
    Grammar,
    Node,
    all_caps,
    cap_matches_tree,
    enumerate_sentences,
    form_to_cap,
    membership,
    msc,
    msg,
    parse,
    tree_yield,
)
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
    assert SMALL.min_yield_len("A") == 1
    assert SMALL.min_yield_len("S") == 1
    assert GRAMMAR.min_yield_len("Trig") == 4
    assert GRAMMAR.min_yield_len("Prob") == 3  # D Exp Var


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
        assert msc(trees) == _brute_msc(trees)


def test_msc_identity_and_errors():
    t = parse(SMALL, "f x".split())
    assert msc([t]) == t
    assert msc([t, t]) == t
    with pytest.raises(IncompatibleTreesError):
        msc([])
    with pytest.raises(IncompatibleTreesError):
        msc([t, Node("Other")])


def test_msc_root_only_when_productions_differ():
    t1 = parse(SMALL, ["x"])
    t2 = parse(SMALL, "x + a".split())
    assert msc([t1, t2]) == Node("S")


def test_all_caps_are_caps():
    tree = parse(SMALL, "f x + a".split())
    caps = list(all_caps(tree))
    assert len(caps) == len(set(caps))
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
