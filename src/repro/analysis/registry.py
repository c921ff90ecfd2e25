"""The simlint rule registry: every shipped rule, by id.

AST rules (one file at a time) come from :mod:`repro.analysis.rules`;
project rules (whole-run semantic checks) from
:mod:`repro.analysis.project`.  Rules are keyed by stable ``SIM0xx``
ids — the currency of suppressions and ``--select``/``--ignore`` flags.
An id is never reused, so the sequence has gaps where rules were
removed.
"""

from __future__ import annotations

from typing import Dict, List

from .core import Rule
from .project import PROJECT_RULES
from .rules import AST_RULES

_REGISTRY: Dict[str, Rule] = {}
for _rule in (*AST_RULES, *PROJECT_RULES):
    if _rule.id in _REGISTRY:
        raise RuntimeError(f"duplicate simlint rule id {_rule.id}")
    _REGISTRY[_rule.id] = _rule


def all_rules() -> List[Rule]:
    """Every registered rule, in id order."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by its ``SIM0xx`` id."""
    try:
        return _REGISTRY[rule_id.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown simlint rule {rule_id!r}; known rules: {known}"
        ) from None
