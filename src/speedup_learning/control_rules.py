"""Select-set control rules: the rule-driven solver and its learner.

A control rule pairs an operator with a select-set, stored as a grammar cap
whose yield is a sentential form; the operators' fixed order resolves
conflicts, so a rule set is one cap per operator (``RuleSet.caps``).  The
solver scans the current state's units in post-order and applies the
least-indexed operator whose select-set holds the unit.  The learner
replays each solution with ``core.replay``, then folds each operator's
units into their most specific generalization with the two-tree ``msc``;
a solution that does not replay leaves it as it was.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import BOTTOM, Example, is_consistent, replay, solved_problem
from .errors import INAPPLICABLE, ConsistencyError, ParameterError
from .grammar import Node, msc, tree_yield


class RuleSet:
    """One select-set per operator: ``caps[i - 1]`` is operator i's cap, or
    None for EMPTY (never matches)."""

    def __init__(self, caps: Sequence[Optional[Node]]):
        self.caps = tuple(caps)

    def dump(self) -> str:
        lines = []
        for i, cap in enumerate(self.caps, 1):
            body = "EMPTY" if cap is None else " ".join(tree_yield(cap))
            lines.append(f"op{i}: {body}")
        return "\n".join(lines) + "\n"


def _first_match(ruleset: RuleSet, rdomain, x, start):
    for path, unit in rdomain.iter_units(x, start):
        for i, cap in enumerate(ruleset.caps, 1):
            if cap is not None and rdomain.unit_matches(cap, unit):
                return i, path
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


class IncrementalRuleLearner:
    """Folds examples into per-operator most specific generalizations."""

    def __init__(self, rdomain):
        self.rdomain = rdomain
        self.caps: list = [None] * rdomain.num_operators  # caps[i - 1]: operator i

    def add_example(self, example: Example):
        """Replay the whole solution, then merge its units into the caps."""
        if example.solution is BOTTOM:
            return
        states = replay(self.rdomain, example.problem, example.solution)
        caps, rdomain = self.caps, self.rdomain
        for x, (op_index, loc) in zip(states, example.solution):
            tree = rdomain.unit_tree(rdomain.subexpr(x, loc))
            old = caps[op_index - 1]
            caps[op_index - 1] = tree if old is None else msc(old, tree)

    def ruleset(self) -> RuleSet:
        return RuleSet(self.caps)


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
