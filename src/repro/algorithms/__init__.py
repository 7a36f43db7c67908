"""Pluggable stage-3 update rules (see :mod:`repro.algorithms.rules`)."""

from .rules import (
    RULE_KINDS,
    IncompatibleRuleError,
    MomentumQLearningRule,
    QLearningRule,
    RuleCoefficients,
    RuleCost,
    SarsaRule,
    TargetQLearningRule,
    UnknownUpdateRuleError,
    UnsupportedRuleError,
    UpdateRule,
    UpdateRuleError,
    canonical_rule_name,
    get_rule,
    register_rule,
    rule_names,
)

__all__ = [
    "RULE_KINDS",
    "IncompatibleRuleError",
    "MomentumQLearningRule",
    "QLearningRule",
    "RuleCoefficients",
    "RuleCost",
    "SarsaRule",
    "TargetQLearningRule",
    "UnknownUpdateRuleError",
    "UnsupportedRuleError",
    "UpdateRule",
    "UpdateRuleError",
    "canonical_rule_name",
    "get_rule",
    "register_rule",
    "rule_names",
]
