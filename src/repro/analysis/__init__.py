"""simlint — determinism & simulation-safety static analysis.

The execution engine promises two things the rest of the package must
uphold by convention: parallel runs are bit-identical to serial runs,
and the content-addressed disk cache never aliases two distinct
configurations.  This package turns those conventions into machine-
checked rules over the repository's own source:

======  ===========================  =======================================
id      name                         hazard
======  ===========================  =======================================
SIM001  unseeded-random              process-global RNG state in results
SIM002  wall-clock                   timestamps outside engine stats
SIM003  builtin-hash                 PYTHONHASHSEED-salted hash() values
SIM004  set-order                    hash-order iteration / accumulation
SIM006  cache-key-completeness       config fields missing from cache keys
SIM008  unsafe-serialization         pickle/eval outside serialization.py
SIM010  float-sum                    order-dependent float accumulation
SIM011  iteration-order              implicit first/last-element reads
SIM012  worker-purity                module globals mutated in worker code
======  ===========================  =======================================

SIM001-SIM004, SIM008, SIM010 and SIM011 are per-file AST rules.  SIM006
and SIM012 are *project* rules: SIM006 perturbs the live config
dataclasses against the engine cache fingerprint, and SIM012 builds a
project-wide call graph (:mod:`repro.analysis.graph`) to find every
function reachable from the ``ProcessPoolExecutor`` worker entry point
and flag mutations of module-global mutable state there.

The verdict is binary: any finding not silenced by an inline
``# simlint: disable=`` comment fails the run.  The settings are the
:class:`LintConfig` constants in :mod:`repro.analysis.config`.

Entry points: ``python -m repro lint`` (CLI), :func:`run_lint`
(programmatic), :func:`lint_source` (one snippet, for tests and editor
hooks).  See ``docs/analysis.md`` for the rule catalog.
"""

from .config import LintConfig
from .core import (ASTRule, FileContext, Finding, LintResult, ProjectRule,
                   Rule, lint_source, run_lint)
from .graph import ModuleInfo, MutableGlobal, ProjectGraph, build_graph
from .registry import all_rules, get_rule
from .reporters import render_human

__all__ = [
    "ASTRule",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleInfo",
    "MutableGlobal",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "all_rules",
    "build_graph",
    "get_rule",
    "lint_source",
    "render_human",
    "run_lint",
]
