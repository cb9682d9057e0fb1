"""End-to-end acceptance checks.

Each test prints a single PASS line for its criterion on success (pytest is
run with -s so the verdicts land in the log).
"""

import random
from pathlib import Path

from brute_force import all_caps, enumerate_sentences
from speedup_learning import eight_puzzle as ep
from speedup_learning import integration as I
from speedup_learning import oracles
from speedup_learning.control_rules import IncrementalRuleLearner, rule_solve
from speedup_learning.core import Example, is_consistent
from speedup_learning.grammar import (
    cap_matches_tree,
    membership,
    msc,
    parse,
    same_tree,
    tree_yield,
)
from speedup_learning.harness import ExperimentConfig, csv_text, run_curve
from speedup_learning.macro_tables import MacroTable, macro_solve, serial_parse_into


def _ok(n, detail):
    print(f"criterion {n} PASS: {detail}")


def _assert_pinned(points, name):
    # the default seed-0 curve, byte for byte as the CLI writes it
    pinned = Path(__file__).parent / "pinned" / name
    assert csv_text(points) == pinned.read_text(encoding="utf-8"), f"differs from {name}"


def test_criterion_01_sample_bound_exactness():
    ok, detail = oracles.sample_bounds()
    assert ok, detail
    _ok(1, "bound(0.1, 0.1, 81) = 585 and bound(0.1, 0.1, 35) = 266")


def test_criterion_02_eight_puzzle_learning_curve():
    points = run_curve(ExperimentConfig(domain="eightpuzzle", seed=0))
    _assert_pinned(points, "eightpuzzle-seed0.csv")
    by_m = {p.num_examples: p.mean_accuracy for p in points}
    final = by_m[40]
    assert 0.95 <= final <= 1.0, final
    assert by_m[10] < by_m[24] < by_m[40]  # sigmoid shape (25 falls off-grid)
    assert by_m[10] < by_m[26] < by_m[40]
    _ok(2, f"50-trial curve: mean@10={by_m[10]:.3f} < mean@24={by_m[24]:.3f}"
           f" < final@40={final:.4f} in [0.95, 1.0]")


def test_criterion_03_exhaustive_table(exhaustive_table, all_boards):
    ok, detail = oracles.exhaustive_table(exhaustive_table, all_boards)
    assert ok, detail
    _ok(3, "44 cells filled, exactly 35 nonempty macros, table property and "
           f"nonredundancy verified over {len(all_boards)} boards")


def test_criterion_04_state_space_count(all_boards):
    ok, detail = oracles.state_count(all_boards)
    assert ok, detail
    _ok(4, "breadth-first enumeration from the goal reaches 181440 = 9!/2 boards")


def test_criterion_05_serial_decomposability(all_boards):
    ok, detail = oracles.decomposability(all_boards)
    assert ok, detail
    print(f"  {detail}")
    _ok(5, "blank-first ordering decomposable over all boards; blank-last "
           "fails with the printed witness")


def test_criterion_06_walkthrough_replays():
    # walkthrough board: blank at position 5, tile 1 at position 2, rest solvable
    board = [None] * 9
    board[0], board[1] = 5, 2
    rest_tiles = [2, 3, 4, 5, 6, 7, 8]
    rest_positions = [0, 1, 3, 4, 6, 7, 8]
    for t, p in zip(rest_tiles, rest_positions):
        board[t] = p
    if not ep.is_solvable(tuple(board)):
        board[7], board[8] = board[8], board[7]
    board = tuple(board)
    assert ep.is_solvable(board)

    centered = ep.apply_moves(board, "dr")
    assert centered[0] == 0  # blank at center
    macro = ep.ida_star_subgoal(centered, 2, ep.blank_first_ordering())
    assert ep.macro_to_letters(macro) == "rdlu"
    _ok(6, '"dr" centers the blank from the walkthrough board; tile-1 '
           'subgoal search returns "rdlu"')


def test_criterion_07_msg_worked_example():
    ok, detail = oracles.msg_worked_example()
    assert ok, detail
    _ok(7, "msg of the two worked problems is `∫ Trig + P-term d x`")


def test_criterion_08_consistency_suites():
    rd = I.IntegrationRuleDomain()
    consistent = 0
    for run in range(100):
        rng = random.Random(f"consistency:integration:{run}")
        learner = IncrementalRuleLearner(rd)
        sample = []
        for _ in range(12):
            p = I.generate_problem(rng)
            example = Example(p, I.teacher_solve(p))
            sample.append(example)
            learner.add_example(example)
        ruleset = learner.ruleset()
        consistent += is_consistent(lambda p: rule_solve(ruleset, rd, p), sample)
    assert consistent == 100

    dom = ep.domain_spec()
    ordering = ep.blank_first_ordering()
    consistent_ep = 0
    for run in range(100):
        rng = random.Random(f"consistency:eightpuzzle:{run}")
        teacher_table = MacroTable(9, 9, ep.GOAL, ordering)
        learner_table = MacroTable(9, 9, ep.GOAL, ordering)
        sample = []
        for _ in range(15):
            b = ep.random_solvable(rng)
            example = Example(b, ep.integrated_teacher(b, teacher_table))
            sample.append(example)
            serial_parse_into(learner_table, dom, example)
        consistent_ep += is_consistent(
            lambda b: macro_solve(learner_table, dom, b), sample)
    assert consistent_ep == 100
    _ok(8, "100/100 seeded runs consistent for the rule learner and "
           "100/100 for the macro-table learner")


def test_criterion_09_integration_curve_and_teacher():
    points = run_curve(ExperimentConfig(domain="integration", seed=0))
    _assert_pinned(points, "integration-seed0.csv")
    final = points[-1]
    assert final.num_examples == 30
    assert final.mean_accuracy >= 0.95, final

    ok, detail = oracles.teacher_soundness(random.Random(20260824), 100_000, 1000)
    assert ok, detail
    _ok(9, f"50-trial curve final mean {final.mean_accuracy:.4f} >= 0.95 at 30 "
           "examples; teacher normalized 100000 draws with 0 failures; "
           "numeric soundness held on 1000 solved problems")


def _random_small_tokens(rng, grammar_atoms=("x", "a")):
    t = rng.choice(grammar_atoms)
    for _ in range(rng.randrange(3)):
        choice = rng.randrange(3)
        if choice == 0:
            t = f"f {t}"
        elif choice == 1:
            t = f"( {t} )"
        else:
            t = f"{t} + {rng.choice(grammar_atoms)}"
    return t.split()


def test_criterion_10_oracle_equivalence():
    from speedup_learning.grammar import Grammar

    small = Grammar.from_text("""
    S -> A | A + S
    A -> x | a | f A | ( S )
    """)

    def size(node):
        return 1 + sum(size(c) for c in node.children)

    rng = random.Random(42)
    for _ in range(500):
        trees = [parse(small, _random_small_tokens(rng))
                 for _ in range(rng.choice([2, 2, 3]))]
        common = [c for c in all_caps(trees[0])
                  if all(cap_matches_tree(c, t) for t in trees[1:])]
        brute = max(common, key=size)
        assert sum(1 for c in common if size(c) == size(brute)) == 1
        assert same_tree(msc(trees), brute)

    language = enumerate_sentences(small, "S", 9)
    checked = 0
    while checked < 20:
        tree = parse(small, _random_small_tokens(rng))
        caps = list(all_caps(tree))
        form = tree_yield(caps[rng.randrange(len(caps))])
        derivable = enumerate_sentences(small, form, 9)
        if not 0 < len(derivable) < 3000:
            continue
        sample = set(rng.sample(sorted(language), 120)) | derivable
        for sentence in sample:
            assert membership(small, form, sentence) == (sentence in derivable)
        checked += 1

    ok, detail = oracles.subgoal_optimality(rng, 100, 5)
    assert ok, detail
    _ok(10, "msc = brute-force cap meet on 500 instances; membership matched "
            "exhaustive enumeration for 20 forms; IDA* subgoal lengths "
            "BFS-optimal on 100 instances")
