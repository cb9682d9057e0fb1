"""Mutation check: every listed mutant of ``src/`` must fail its named tests.

    python tests/mutants.py

Each mutant is one exact text edit to one file under ``src/``, plus the ids
of the tests that must catch it.  For each mutant the script copies
``src/`` to a temporary directory, applies the edit there and runs only the
named tests, with the copy first on ``PYTHONPATH``.  It fails when a named
test passes (the mutant survives), when a named test is not run, or when
the old text is not found exactly once in its file (the code has moved on,
so the list must follow it).  It runs as many mutants at once as this
process may use CPUs (``nproc``).  All 62 take 62-68 s with two jobs
on a 2-vCPU x86-64 machine with CPython 3.11, 1.1-8.7 s each (the
slowest, ``macro-permutation-inverted``, names two property tests).  A
mutant caught only by a property test pays for shrinking a fresh failing
example on every run, since each run starts with an empty example
database: ``merge-before-replay-ends`` took up to 85 s and
``puzzle-cut-one-column-short`` 16-32 s that way.  Each now names an
example test that fails on the mutant's first case instead, and takes
1.2-2.3 s.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a mutant whose tests neither pass nor fail by then is reported, not caught
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/speedup_learning
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


CR = "tests/test_control_rules.py::"
INT = "tests/test_integration.py::"
CORE = "tests/test_core.py::"
MT = "tests/test_macro_tables.py::"
GR = "tests/test_grammar.py::"
EP = "tests/test_eight_puzzle.py::"
HA = "tests/test_harness.py::"
_NOT_A_LOCATION = ('        raise LocationError(f"location {loc!r} is not a sequence of integers")'
                   " from exc\n")

MUTANTS = (
    # a rule set is one cap per operator, read by index everywhere
    Mutant("first-match-off-by-one", "integration.py",
           "for i, cap in enumerate(ruleset.caps, 1):",
           "for i, cap in enumerate(ruleset.caps):",
           (CR + "test_rule_solve_with_teacher_rules", CR + "test_rule_solve_statuses")),
    # the solver's memo on the rule set snapshot, and its kind dispatch
    Mutant("memo-hit-ignores-its-peak", "integration.py",
           " or size + hit[1] > size_limit:",
           ":",
           (CR + "test_a_record_with_steps_does_not_hide_a_divergence",)),
    Mutant("memo-hit-ignores-step-budget", "integration.py",
           "hit is None or count + hit[0].steps > step_limit or",
           "hit is None or",
           (CR + "test_a_record_with_steps_does_not_hide_the_step_limit",)),
    Mutant("solver-memo-kept-after-decide-is-off", "integration.py",
           "                memo = {}  # and the records from here on are not decide's\n",
           "",
           (CR + "test_a_cap_wider_than_its_operator",)),
    Mutant("kind-dispatch-drops-leaf-caps", "integration.py",
           "if not cap.children or _kind_meet(memo, cap, kind) is not False:",
           "if cap.children and _kind_meet(memo, cap, kind) is not False:",
           (CR + "test_rule_solve_statuses",)),
    Mutant("snapshot-kept-after-a-cap-changes", "control_rules.py",
           "            self._ruleset = None\n",
           "",
           (CR + "test_the_learner_hands_out_one_snapshot_until_a_cap_changes",
            "tests/test_harness.py::test_fast_scoring_equals_full_simulation[integration]")),
    # the learned solver's limits and goal test, on the post-order engine
    Mutant("size-limit-off-by-one", "integration.py",
           "if size > size_limit:",
           "if size >= size_limit:",
           (CR + "test_rule_solve_statuses",)),
    Mutant("inapplicable-fire-skips-goal-check", "integration.py",
           "                if not is_goal(whole):\n                    return None, \"no_match\"\n",
           "                return None, \"no_match\"\n",
           (CR + "test_a_cap_wider_than_its_operator",)),
    Mutant("size-slot-ignored", "integration.py",
           "size += _width(new, mark[2]) - _width(x, mark[2])",
           "size += _width(new, _EXP) - _width(x, _EXP)",
           (CR + "test_rule_solve_solves_as_a_scan_from_the_root",)),
    Mutant("dump-off-by-one", "control_rules.py",
           "for i, cap in enumerate(self.caps, 1):",
           "for i, cap in enumerate(self.caps):",
           (CR + "test_ruleset_validation_and_dump", CR + "test_dump_shows_sentential_forms")),
    Mutant("score-fast-off-by-one", "harness.py",
           "cap = caps[op_index - 1]",
           "cap = caps[op_index - 2]",
           ("tests/test_harness.py::test_fast_scoring_equals_full_simulation[integration]",)),
    # a teacher record counts as covered only once its last segment passed
    Mutant("covered-before-last-segment", "harness.py",
           "                        stack.append((child, iter(child.segments)))\n",
           "                        covered.add(child)\n"
           "                        stack.append((child, iter(child.segments)))\n",
           ("tests/test_harness.py::test_record_walk_gives_the_step_walks_verdict_as_caps_grow",)),
    Mutant("ruleset-aliases-learner", "control_rules.py",
           "self.caps = tuple(caps)",
           "self.caps = caps",
           (CR + "test_learner_cap_equals_msg_of_collected_units",)),
    # a learner that rejects an example is left as it was
    Mutant("merge-before-replay-ends", "control_rules.py",
           "rdomain.units(example.problem, example.solution):",
           "(rdomain.units(example.problem, example.solution[:k + 1])[-1]"
           " for k in range(len(example.solution))):",
           (CR + "test_a_rejected_example_leaves_the_rule_learner_as_it_was",)),
    Mutant("unit-location-none-not-root", "integration.py",
           "where = loc or ()",
           "where = loc",
           (CR + "test_a_rejected_example_leaves_the_rule_learner_as_it_was",)),
    # the learner's walk makes anew each ancestor it climbs past
    Mutant("zipper-climbs-without-rebuilding", "integration.py",
           "focus = _climb(spine[depth:], focus)",
           "focus = spine[depth][0] if depth < len(spine) else focus",
           (CR + "test_units_are_what_replay_gives",)),
    Mutant("insert-inside-cut-loop", "macro_tables.py",
           "cuts.append((j, i, ops[p:k]))",
           "table.insert(j, i, ops[p:k])",
           (MT + "test_a_rejected_example_leaves_the_macro_table_as_it_was",
            MT + "test_a_macro_table_that_rejects_a_cut_solution_is_unchanged")),
    Mutant("long-macro-found-at-insert", "macro_tables.py",
           "        _check_macro_len(k - p)\n",
           "",
           (MT + "test_a_rejected_example_leaves_the_macro_table_as_it_was",)),
    # typed errors for malformed input on the replay path
    Mutant("location-walk-unguarded", "integration.py",
           "    except TypeError as exc:\n" + _NOT_A_LOCATION,
           "    except ZeroDivisionError as exc:\n" + _NOT_A_LOCATION,
           (INT + "test_locations",)),
    Mutant("apply-at-tuple-of-location", "integration.py",
           "unit = _walk(e, loc, spine)",
           "unit = _walk(e, tuple(loc), spine)",
           (INT + "test_locations",)),
    Mutant("replay-step-unguarded", "core.py",
           "except (TypeError, ValueError) as exc:",
           "except ZeroDivisionError as exc:",
           (CORE + "test_replay_trajectory_and_failure_step",
            MT + "test_a_rejected_example_leaves_the_macro_table_as_it_was")),
    Mutant("domain-apply-index-unguarded", "core.py",
           "        except TypeError as exc:\n            raise ParameterError(",
           "        except ZeroDivisionError as exc:\n            raise ParameterError(",
           (CORE + "test_domain_spec_validation",)),
    Mutant("domain-apply-truncates-float-index", "core.py",
           "op = self.operators[op_index - 1]",
           "op = self.operators[int(op_index) - 1]",
           (CORE + "test_domain_spec_validation",)),
    Mutant("get-operator-accepts-float", "integration.py",
           "_OP_BY_INDEX.get(index) if isinstance(index, int) else None",
           "_OP_BY_INDEX.get(index)",
           (INT + "test_operator_inventory_shape",
            CR + "test_a_rejected_example_leaves_the_rule_learner_as_it_was")),
    Mutant("num-accepts-non-int", "integration.py",
           "if not isinstance(n, int) or n < 0:",
           "if n < 0:",
           (INT + "test_expressions_are_hash_consed",)),
    # the teacher's trace records: shared segments, walked left to right
    Mutant("trace-path-drops-child-index", "integration.py",
           "stack.append((path + (i,), iter(part.segments)))",
           "stack.append((path, iter(part.segments)))",
           (INT + "test_worked_derivation_sin_plus_square",
            INT + "test_trace_equals_restart_from_root_reference")),
    Mutant("trace-path-child-index-first", "integration.py",
           "stack.append((path + (i,), iter(part.segments)))",
           "stack.append(((i,) + path, iter(part.segments)))",
           (INT + "test_trace_equals_restart_from_root_reference",)),
    Mutant("trace-segments-right-to-left", "integration.py",
           "stack.append((path + (i,), iter(part.segments)))",
           "stack.append((path + (i,), reversed(part.segments)))",
           (INT + "test_worked_derivation_sin_plus_square",
            INT + "test_trace_equals_restart_from_root_reference")),
    Mutant("trace-child-count-not-added", "integration.py",
           "                    count += sub.steps\n                    if count > step_limit:\n",
           "                    if count > step_limit:\n",
           (INT + "test_trace_records_walk_as_the_trace_and_keep_the_limit_exact",)),
    # a cap grows only on a unit it does not cover
    Mutant("merge-skipped-on-a-miss", "control_rules.py",
           "                caps[op_index - 1] = msc(old, rdomain.unit_tree(unit))\n",
           "                pass\n",
           (CR + "test_incremental_learner_generalizes_monotonically",
            CR + "test_learner_cap_equals_msg_of_collected_units")),
    # one parse tree per subterm: a slot reads its child's tree in place
    Mutant("slot-parenthesis-test-off-by-one", "integration.py",
           "if _NATURAL.get(e.kind, _PTERM) <= slot:",
           "if _NATURAL.get(e.kind, _PTERM) < slot:",
           (INT + "test_tokens_round_trip_and_count",
            INT + "test_a_slot_holds_its_childs_tree_in_place")),
    Mutant("slot-descent-one-level-short", "integration.py",
           "for _ in range(_EXP - slot):",
           "for _ in range(_EXP - slot - 1):",
           (INT + "test_as_exp_matches_reparse",
            INT + "test_tokens_round_trip_and_count",
            INT + "test_a_slot_holds_its_childs_tree_in_place")),
    # the two-tree meet
    Mutant("msc-no-production-cut", "grammar.py",
           "elif [c.label for c in kids] != [c.label for c in y.children]:",
           "elif len(kids) != len(y.children):",
           (GR + "test_msc_matches_brute_force",)),
    Mutant("msc-children-in-wrong-order", "grammar.py",
           "stack.extend(zip(reversed(kids), reversed(y.children)))",
           "stack.extend(zip(kids, y.children))",
           (GR + "test_msc_matches_brute_force",)),
    Mutant("msc-no-root-check", "grammar.py",
           "    if a.label != b.label:\n        raise IncompatibleTreesError",
           "    if False:\n        raise IncompatibleTreesError",
           (GR + "test_msc_identity_and_errors",)),
    # the integration draw reads fixed tables in the order the stream picks
    Mutant("draw-terms-out-of-order", "integration.py",
           "(sinx(), cosx())",
           "(cosx(), sinx())",
           (INT + "test_generate_problem_draws_the_same_stream",)),
    # the puzzle curve: its teacher walks the target table, its scorer the
    # learner's
    Mutant("puzzle-teacher-reads-the-learners-table", "harness.py",
           "solution = macro_solve(target, self.domain, board)",
           "solution = macro_solve(self.learner_table, self.domain, board)",
           (HA + "test_eightpuzzle_curve_learns",)),
    Mutant("puzzle-walk-verdict-flipped", "harness.py",
           "last=self.last)[2] is None",
           "last=self.last)[2] is not None",
           (HA + "test_fast_scoring_equals_full_simulation[eightpuzzle]",)),
    # the scorer's column cut: the highest column the learner can still miss
    Mutant("puzzle-cut-one-column-short", "harness.py",
           "self.last = max((i for _, i in missing), default=0)",
           "self.last = max((i - 1 for _, i in missing), default=0)",
           (HA + "test_puzzle_scorer_cuts_at_the_highest_column_it_can_miss",
            HA + "test_fast_scoring_equals_full_simulation_at_the_puzzle_defaults")),
    # a trial ends once its learner holds the whole target table
    Mutant("puzzle-trial-ends-one-column-early", "harness.py",
           "return self.last == 0",
           "return self.last <= 1",
           (HA + "test_a_complete_puzzle_trial_ends_early",)),
    Mutant("puzzle-cut-at-first-incomplete-column", "harness.py",
           "self.last = max((i for _, i in missing), default=0)",
           "self.last = min((i for _, i in missing), default=0)",
           (HA + "test_learned_table_is_the_target_cut_to_its_cells",
            HA + "test_fast_scoring_equals_full_simulation_at_the_puzzle_defaults")),
    # each column walk checks its board once, before the first column
    Mutant("walk-skips-board-check", "macro_tables.py",
           "    state = check_feature_state(state, table.n, table.v)\n",
           "    state = tuple(state)\n",
           (MT + "test_a_walk_checks_its_board_before_the_first_column",
            HA + "test_puzzle_scorer_checks_its_board_at_every_cut")),
    Mutant("verify-table-skips-state-check", "macro_tables.py",
           "        check_feature_state(s, table.n, table.v)\n",
           "",
           (MT + "test_verify_table_catches_broken_and_redundant_macros",)),
    # the integrated teacher fills the cell its read-only walk stopped at,
    # searching from the board the walk reached, then walks again
    Mutant("integrated-teacher-searches-the-column-before", "eight_puzzle.py",
           "ida_star_subgoal(state, missing[1], table.ordering)",
           "ida_star_subgoal(state, missing[1] - 1, table.ordering)",
           (EP + "test_integrated_teacher_solves_and_reuses",)),
    Mutant("integrated-teacher-stops-after-its-first-insert", "eight_puzzle.py",
           "        table.insert(*missing, ida_star_subgoal(state, missing[1], table.ordering))\n",
           "        table.insert(*missing, ida_star_subgoal(state, missing[1], table.ordering))\n"
           "        return solution_steps(table, cells + [missing])\n",
           (EP + "test_integrated_teacher_solves_and_reuses",)),
    # a prefix test is one key compare, with one getter per prefix length
    Mutant("prefix-key-one-feature-short", "macro_tables.py",
           "getters = [_no_features] + [itemgetter(*ordering.perm[:i]) for i in range(1, n + 1)]",
           "getters = [_no_features] * 2 + [itemgetter(*ordering.perm[:i]) for i in range(1, n)]",
           (MT + "test_prefix_at_goal_is_one_key_compare",
            MT + "test_serial_parse_recovers_trajectory_cells")),
    # the Eight Puzzle's move layer: typed errors, the macro runner and the
    # same-stream board draw
    Mutant("slide-unguarded", "eight_puzzle.py",
           "    except ValueError:\n        raise ParameterError(f\"no tile at position",
           "    except ZeroDivisionError:\n        raise ParameterError(f\"no tile at position",
           (EP + "test_move_errors", MT + "test_check_serial_decomposability_toy")),
    Mutant("apply-moves-skips-board-check", "eight_puzzle.py",
           "    board = _check_board(board)\n    for m in moves:\n",
           "    for m in moves:\n",
           (EP + "test_apply_moves_checks_its_board_before_any_move",)),
    Mutant("apply-macro-gathers-any-length", "eight_puzzle.py",
           "if len(board) != N_TILES:",
           "if not board:",
           (EP + "test_apply_macro_rejects_a_board_of_the_wrong_length",)),
    Mutant("apply-move-accepts-float", "eight_puzzle.py",
           "if not isinstance(op, int):",
           "if not isinstance(op, (int, float)):",
           (EP + "test_move_errors",)),
    Mutant("macro-permutation-inverted", "eight_puzzle.py",
           "perm[p] = q",
           "perm[q] = p",
           (EP + "test_apply_macro_equals_move_fold",
            MT + "test_eight_puzzle_macro_runner_keeps_the_step_by_step_errors")),
    Mutant("board-draw-parity-off-by-one", "eight_puzzle.py",
           "odd ^= j != 1",
           "odd ^= j != 2",
           (EP + "test_random_solvable_draws_the_same_stream_as_random_sample",
            EP + "test_random_solvable_is_solvable_and_seeded")),
    Mutant("board-draw-takes-an-index-past-the-pool", "eight_puzzle.py",
           "while (j := getrandbits(4)) >= 9:",
           "while (j := getrandbits(4)) > 9:",
           (EP + "test_random_solvable_draws_the_same_stream_as_random_sample",
            EP + "test_random_solvable_is_solvable_and_seeded")),
    # cap matching on Exprs: each (cap node, kind) pair met against the
    # layout when a match first reaches it
    Mutant("cap-int-cut-takes-as-many-digits", "integration.py",
           "if len(text) != len(digits) if exact else len(text) <= len(digits):",
           "if len(text) != len(digits) if exact else len(text) < len(digits):",
           (INT + "test_unit_matches_worked_caps",)),
    Mutant("cap-parentheses-one-category-late", "integration.py",
           "    if nat > slot:  # P-term -> ( Exp ), under Term in a Term slot\n",
           "    if nat > slot + 1:  # P-term -> ( Exp ), under Term in a Term slot\n",
           (INT + "test_unit_matches_worked_caps",)),
    Mutant("cap-argument-met-as-exp", "integration.py",
           "_meet(cap, _SHAPE[kind, _SLOT_OF[cap.label]])",
           "_meet(cap, _SHAPE[kind, _EXP])",
           (INT + "test_unit_matches_worked_caps",)),
    Mutant("cap-meet-reused-across-kinds", "integration.py",
           "    meet = meets.get(kind)\n",
           "    meet = next(iter(meets.values()), None)\n",
           (INT + "test_a_meet_is_made_when_a_match_first_reaches_its_kind",)),
    Mutant("cap-meet-not-kept", "integration.py",
           "meet = meets[kind] = _meet(",
           "meet = _meet(",
           (INT + "test_a_meet_is_made_when_a_match_first_reaches_its_kind",)),
    Mutant("cap-leading-zero-read-as-its-value", "integration.py",
           'partial(_literal_is, _int_of(text)) if text[0] != "0" or len(text) == 1 else False',
           "partial(_literal_is, _int_of(text))",
           (INT + "test_unit_matches_worked_caps",)),
    # parse_expr reads every term to_tokens writes, a sum led by ∫ among them
    Mutant("parse-expr-from-prob", "integration.py",
           'tree_to_expr(parse(GRAMMAR, tokens, "Exp"))',
           'tree_to_expr(parse(GRAMMAR, tokens, "Prob"))',
           (INT + "test_tokens_round_trip_and_count",)),
    # long literals are cut into pieces the int/str limit never rejects
    Mutant("literal-pieces-unpadded", "integration.py",
           'pieces.append(f"{low:0{_PIECE}d}")',
           "pieces.append(str(low))",
           (INT + "test_long_literals_do_not_depend_on_the_int_str_limit",)),
    Mutant("to-tokens-parentheses-off-by-one", "integration.py",
           "paren = _NATURAL.get(kind, _PTERM) > slot",
           "paren = _NATURAL.get(kind, _PTERM) >= slot",
           (INT + "test_parenthesization_golden", INT + "test_generate_problem_draws_the_same_stream")),
)


def _junit_outcomes(path: str) -> dict:
    """{node id: "passed" | "failed" | "skipped"} from a pytest JUnit file."""
    outcomes = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        module = case.get("classname", "").replace(".", "/") + ".py"
        verdict = "passed"
        for child in case:
            if child.tag in ("failure", "error"):
                verdict = "failed"
            elif child.tag == "skipped":
                verdict = "skipped"
        outcomes[f"{module}::{case.get('name')}"] = verdict
    return outcomes


def run_mutant(m: Mutant) -> tuple:
    """(mutant, list of problems, seconds); no problems means caught."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = os.path.join(src, "speedup_learning", m.file)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        found = text.count(m.old)
        if found != 1:
            return m, [f"old text found {found} times in {m.file}, not once"], 0.0
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(m.old, m.new))
        report = os.path.join(tmp, "report.xml")
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        # run from the temporary directory, so hypothesis keeps the mutant's
        # failing examples there and not in the checkout
        try:
            subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 f"--rootdir={ROOT}", f"--junitxml={report}",
                 *[os.path.join(ROOT, t) for t in m.tests]],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return m, [f"tests still running after {TIMEOUT_S} s"], time.perf_counter() - start
        outcomes = _junit_outcomes(report) if os.path.exists(report) else {}
    problems = []
    for t in m.tests:
        verdict = outcomes.get(t)
        if verdict is None:
            problems.append(f"{t} did not run")
        elif verdict != "failed":
            problems.append(f"{t} {verdict}: the mutant survives")
    return m, problems, time.perf_counter() - start


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main() -> int:
    jobs = min(_cpus(), len(MUTANTS))
    start = time.perf_counter()
    survivors = 0
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for m, problems, seconds in pool.map(run_mutant, MUTANTS):
            print(f"{'caught' if not problems else 'FAILED'}  {m.name}  ({seconds:.1f} s)")
            for p in problems:
                print(f"    {p}")
            survivors += bool(problems)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f} s with {jobs} job(s)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
