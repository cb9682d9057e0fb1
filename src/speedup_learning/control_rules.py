"""Select-set control rules: the rule-driven solver and its learner.

A control rule pairs an operator with a select-set, stored as a grammar cap
whose yield is a sentential form.  The solver repeatedly scans the current
state's matching units in post-order and applies the least-indexed operator
whose select-set contains the unit.  The learner collects, for each
operator, the units the teacher applied it to, and generalizes each
collection to its most specific generalization: the meet of the units'
trees, folded one unit at a time with the two-tree ``msc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import BOTTOM, Example, is_consistent, solved_problem
from .errors import INAPPLICABLE, ConsistencyError, ParameterError
from .grammar import Node, msc, tree_yield


@dataclass(frozen=True)
class ControlRule:
    """⟨select-set, operator⟩; cap None means EMPTY (never matches)."""

    operator_index: int
    cap: Optional[Node] = None


class RuleSet:
    """One rule per operator, ordered by operator index."""

    def __init__(self, rules: Sequence[ControlRule]):
        rules = tuple(rules)
        indices = [r.operator_index for r in rules]
        if sorted(indices) != list(range(1, len(rules) + 1)):
            raise ParameterError("rules must cover operator indices 1..k exactly once")
        self.rules = tuple(sorted(rules, key=lambda r: r.operator_index))

    def dump(self) -> str:
        lines = []
        for r in self.rules:
            body = "EMPTY" if r.cap is None else " ".join(tree_yield(r.cap))
            lines.append(f"op{r.operator_index}: {body}")
        return "\n".join(lines) + "\n"


def _first_match(ruleset: RuleSet, rdomain, x, start):
    for path, unit in rdomain.iter_units(x, start):
        for rule in ruleset.rules:
            if rule.cap is not None and rdomain.unit_matches(rule.cap, unit):
                return rule.operator_index, path
    return None


def rule_solve_ex(ruleset: RuleSet, rdomain, x):
    """Like rule_solve but returns (solution-or-⊥, status) where status is
    one of "solved", "no_match", "step_limit", "diverged".  Both limits
    come from the domain: ``default_step_limit`` and ``default_size_limit``.

    "diverged" means the state outgrew the domain's size limit; partially
    learned rule sets can loop on growth rules (e.g. by-parts), and runaway
    states get ever more expensive to scan, so growth is cut early rather
    than waiting out the step limit.

    After a rewrite at ``path`` the next scan starts there: the subtrees
    left of it are unchanged, came before the match in post-order so
    matched no rule, and a unit's match depends on the unit alone.
    """
    limit = rdomain.default_step_limit(x)
    size_limit = rdomain.default_size_limit(x)
    steps = []
    path = ()
    while not rdomain.is_goal(x):
        found = _first_match(ruleset, rdomain, x, path)
        if found is None:
            return BOTTOM, "no_match"
        op_index, path = found
        try:
            x = rdomain.apply(x, op_index, path)
        except INAPPLICABLE:
            return BOTTOM, "no_match"
        steps.append((op_index, path))
        if len(steps) > limit:
            return BOTTOM, "step_limit"
        if rdomain.state_size(x) > size_limit:
            return BOTTOM, "diverged"
    return tuple(steps), "solved"


def rule_solve(ruleset: RuleSet, rdomain, x):
    return rule_solve_ex(ruleset, rdomain, x)[0]


def _teacher_units(rdomain, example: Example):
    """(operator index, unit) for each step of the teacher's solution, in
    order; nothing for an unsolved example."""
    if example.solution is BOTTOM:
        return
    x = example.problem
    for op_index, loc in example.solution:
        yield op_index, rdomain.subexpr(x, loc)
        x = rdomain.apply(x, op_index, loc)


class IncrementalRuleLearner:
    """Folds examples into per-operator most specific generalizations."""

    def __init__(self, rdomain):
        self.rdomain = rdomain
        self.caps: dict = {}  # operator index -> cap

    def add_example(self, example: Example):
        for op_index, unit in _teacher_units(self.rdomain, example):
            tree = self.rdomain.unit_tree(unit)
            old = self.caps.get(op_index)
            self.caps[op_index] = tree if old is None else msc(old, tree)

    def ruleset(self) -> RuleSet:
        rules = [
            ControlRule(i, self.caps.get(i))
            for i in range(1, self.rdomain.num_operators + 1)
        ]
        return RuleSet(rules)


def learn_rules(rdomain, oracle, domain, m: int) -> RuleSet:
    """Draw m examples, generalize select-sets, and verify consistency.

    The returned RuleSet reproduces the teacher's exact solution on every
    solved training example; a violation raises ConsistencyError (it would
    mean the generalizer overshot, which the theory rules out).
    """
    if m < 0:
        raise ParameterError("example count must be nonnegative")
    sample = [solved_problem(oracle, domain) for _ in range(m)]
    learner = IncrementalRuleLearner(rdomain)
    for example in sample:
        learner.add_example(example)
    ruleset = learner.ruleset()
    if not is_consistent(lambda x: rule_solve(ruleset, rdomain, x), sample):
        raise ConsistencyError("learned rules fail to reproduce a training solution")
    return ruleset
