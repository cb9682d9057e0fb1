"""Speedup-learning workbench.

Two learners over one protocol: control rules generalized in an unambiguous
context-free grammar (symbolic integration), and macro-operator tables
learned by serial parsing (the Eight Puzzle), with a shared experiment
harness for reproducing their learning curves.
"""

from . import control_rules, core, eight_puzzle, grammar, harness, integration, macro_tables
from .control_rules import (
    IncrementalRuleLearner,
    RuleSet,
    learn_rules,
    rule_solve,
)
from .core import (
    BOTTOM,
    DomainSpec,
    Example,
    OracleConfig,
    is_consistent,
    replay,
    sample_size,
    solved_problem,
)
from .errors import SpeedupLearningError
from .grammar import Grammar, Node, SententialForm, membership, msc, msg, parse, tree_yield
from .harness import CurvePoint, ExperimentConfig, run_curve
from .macro_tables import (
    FeatureOrdering,
    MacroTable,
    check_serial_decomposability,
    macro_solve,
    serial_parse,
    verify_table,
)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "CurvePoint",
    "DomainSpec",
    "Example",
    "ExperimentConfig",
    "FeatureOrdering",
    "Grammar",
    "IncrementalRuleLearner",
    "MacroTable",
    "Node",
    "OracleConfig",
    "RuleSet",
    "SententialForm",
    "SpeedupLearningError",
    "check_serial_decomposability",
    "control_rules",
    "core",
    "eight_puzzle",
    "grammar",
    "harness",
    "integration",
    "is_consistent",
    "learn_rules",
    "macro_solve",
    "macro_tables",
    "membership",
    "msc",
    "msg",
    "parse",
    "replay",
    "rule_solve",
    "run_curve",
    "sample_size",
    "serial_parse",
    "solved_problem",
    "tree_yield",
    "verify_table",
]
