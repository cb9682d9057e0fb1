"""Mutation check: every listed mutant of ``src/`` must fail its named tests.

    python tests/mutants.py

Each mutant is one exact text edit to one file under ``src/``, plus the ids
of the tests that must catch it.  For each mutant the script copies
``src/`` to a temporary directory, applies the edit there and runs only the
named tests, with the copy first on ``PYTHONPATH``.  It fails when a named
test passes (the mutant survives), when a named test is not run, or when
the old text is not found exactly once in its file (the code has moved on,
so the list must follow it).  It runs as many mutants at once as this
process may use CPUs (``nproc``).  Standard library only.
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
_NOT_A_LOCATION = ('        raise LocationError(f"location {loc!r} is not a sequence of integers")'
                   " from exc\n")

MUTANTS = (
    # a rule set is one cap per operator, read by index everywhere
    Mutant("first-match-off-by-one", "control_rules.py",
           "for i, cap in enumerate(ruleset.caps, 1):",
           "for i, cap in enumerate(ruleset.caps):",
           (CR + "test_rule_solve_with_teacher_rules", CR + "test_rule_solve_statuses")),
    Mutant("dump-off-by-one", "control_rules.py",
           "for i, cap in enumerate(self.caps, 1):",
           "for i, cap in enumerate(self.caps):",
           (CR + "test_ruleset_validation_and_dump", CR + "test_dump_shows_sentential_forms")),
    Mutant("score-fast-off-by-one", "harness.py",
           "cap = caps[op_index - 1]",
           "cap = caps[op_index - 2]",
           ("tests/test_harness.py::test_fast_scoring_equals_full_simulation[integration]",)),
    Mutant("ruleset-aliases-learner", "control_rules.py",
           "self.caps = tuple(caps)",
           "self.caps = caps",
           (CR + "test_learner_cap_equals_msg_of_collected_units",)),
    # a learner that rejects an example is left as it was
    Mutant("merge-before-replay-ends", "control_rules.py",
           "states = replay(self.rdomain, example.problem, example.solution)",
           "states = (replay(self.rdomain, example.problem, example.solution[:k])[-1]"
           " for k in range(len(example.solution)))",
           (CR + "test_a_rejected_example_leaves_the_rule_learner_as_it_was",
            CR + "test_a_rule_learner_that_rejects_a_corrupted_solution_is_unchanged")),
    Mutant("unit-location-none-not-root", "integration.py",
           "return subexpr_at(e, loc or ())",
           "return subexpr_at(e, loc)",
           (CR + "test_a_rejected_example_leaves_the_rule_learner_as_it_was",)),
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
           "op.apply(subexpr_at(e, loc))",
           "op.apply(subexpr_at(e, tuple(loc)))",
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
