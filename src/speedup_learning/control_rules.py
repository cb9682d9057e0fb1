"""Select-set control rules: the rule-driven solver and its learner.

A control rule pairs an operator with a select-set, stored as a grammar cap
whose yield is a sentential form; the operators' fixed order resolves
conflicts, so a rule set is one cap per operator (``RuleSet.caps``).  The
solver runs the domain's post-order engine, the teacher's, picking at each
unit the least-indexed operator whose select-set holds it; the domain
builds that pick (``decider``) and reads its own step and size limits.
The learner reads each solution's units in one walk (the domain's
``units``), then folds each operator's units into their most specific
generalization with the two-tree ``msc``.  It tests coverage on the unit
itself (the domain's ``unit_matches``) and builds the unit's tree
(``unit_tree``) only for a first cap or for ``msc`` on a unit its cap
does not cover: for a covered unit ``msc(cap, tree) is cap``, so the cap
stays the same object either way.  The walk finds every unit before any
cap changes, so a solution that does not replay leaves the learner as it
was.  The learner hands out one ``RuleSet`` snapshot until a cap
changes, so every solve between two changes reads the snapshot's memo of
picks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import BOTTOM, Example, is_consistent, solved_problem
from .errors import ConsistencyError, ParameterError
from .grammar import Node, msc, tree_yield


class RuleSet:
    """One select-set per operator: ``caps[i - 1]`` is operator i's cap, or
    None for EMPTY (never matches).  ``rule_solve_ex`` keeps what it derives
    from the caps here, one memo per rule domain instance, so the memo lives
    and dies with this snapshot."""

    def __init__(self, caps: Sequence[Optional[Node]]):
        self.caps = tuple(caps)
        self._memos: dict = {}  # rule domain -> (decide, its record memo)

    def dump(self) -> str:
        lines = []
        for i, cap in enumerate(self.caps, 1):
            body = "EMPTY" if cap is None else " ".join(tree_yield(cap))
            lines.append(f"op{i}: {body}")
        return "\n".join(lines) + "\n"


def rule_solve_ex(ruleset: RuleSet, rdomain, x):
    """Like rule_solve but returns (solution-or-⊥, status) where status is
    one of "solved", "no_match", "step_limit", "diverged".

    "diverged" means the state outgrew the domain's size limit; partially
    learned rule sets can loop on growth rules (e.g. by-parts), and runaway
    states get ever more expensive to walk, so growth is cut early rather
    than waiting out the step limit.  The pick and both limits are the
    domain's: ``rdomain.solve`` runs the solve under its own limits.  A
    unit's pick depends on the rule set and the unit alone, so it is made
    once per unit for the life of the snapshot: at its first solve with a
    domain instance, ``ruleset`` gets that domain's ``decider(ruleset)``,
    which memoizes every pick, and an empty record memo, which the engine
    fills with the subterms it may skip later (see
    ``IntegrationRuleDomain.solve``).  Both die with the snapshot.
    """
    memo = ruleset._memos.get(rdomain)
    if memo is None:
        memo = ruleset._memos[rdomain] = (rdomain.decider(ruleset), {})
    decide, records = memo
    return rdomain.solve(x, decide, records)


def rule_solve(ruleset: RuleSet, rdomain, x):
    return rule_solve_ex(ruleset, rdomain, x)[0]


class IncrementalRuleLearner:
    """Folds examples into per-operator most specific generalizations."""

    def __init__(self, rdomain):
        self.rdomain = rdomain
        self.caps: list = [None] * rdomain.num_operators  # caps[i - 1]: operator i
        self._ruleset: Optional[RuleSet] = None  # the snapshot of these caps, once asked for

    def add_example(self, example: Example):
        """Find every unit of the solution (``rdomain.units``), then merge
        them into the caps."""
        if example.solution is BOTTOM:
            return
        caps, rdomain = self.caps, self.rdomain
        for op_index, unit in rdomain.units(example.problem, example.solution):
            old = caps[op_index - 1]
            if old is None:
                caps[op_index - 1] = rdomain.unit_tree(unit)
            elif rdomain.unit_matches(old, unit):
                continue
            else:
                caps[op_index - 1] = msc(old, rdomain.unit_tree(unit))
            self._ruleset = None

    def ruleset(self) -> RuleSet:
        """The snapshot of the caps: the same ``RuleSet`` until a cap
        changes, so its memo of picks carries over."""
        if self._ruleset is None:
            self._ruleset = RuleSet(self.caps)
        return self._ruleset


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
