"""simlint settings: the constants one lint run applies.

The :class:`LintConfig` defaults *are* the configuration; nothing is
read from ``pyproject.toml`` beyond its location, so the verdict is the
same on every supported Python.  Path-valued settings are posix-style
and relative to the directory holding the nearest ``pyproject.toml``
(the *project root*).  Callers that lint some other tree, such as a
test's throwaway project, pass a :class:`LintConfig` of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple


@dataclass
class LintConfig:
    """Resolved simlint settings for one lint invocation."""

    #: Directory-name parts skipped entirely while walking.
    exclude: Tuple[str, ...] = ("__pycache__", ".git", "build", "dist",
                                ".venv", ".eggs")
    #: Paths allowed to read wall clocks (SIM002) — engine stats and
    #: the host-side observability layer (ledger/telemetry) only.
    wallclock_allow: Tuple[str, ...] = ("src/repro/engine/runner.py",
                                        "src/repro/engine/tasks.py",
                                        "src/repro/observe/ledger.py",
                                        "src/repro/observe/telemetry.py")
    #: Paths allowed to use pickle/eval-class serialization (SIM008).
    serialization_allow: Tuple[str, ...] = ("src/repro/serialization.py",)
    #: Aggregation-layer paths where ``sum()`` over float series is
    #: flagged (SIM010) — ``math.fsum`` is exact and order-independent.
    fsum_paths: Tuple[str, ...] = ("src/repro/harness",
                                   "src/repro/engine")
    #: Worker-process entry point for SIM012 reachability (the function
    #: ``ProcessPoolExecutor`` workers execute); dotted qualname.
    worker_entry: str = "repro.engine.tasks.execute_task"
    #: Fully-qualified module globals SIM012 sanctions — deliberately
    #: fork-local per-process memos and counters whose contents never
    #: reach results.
    worker_state_allow: Tuple[str, ...] = (
        "repro.engine.tasks._TRACE_MEMO",
        "repro.engine.tasks._CTRACE_MEMO",
        "repro.engine.tasks._TRACE_STATS",
    )
    #: Directory containing pyproject.toml (None when none was found).
    project_root: Optional[Path] = None


def path_matches(relpath: str, patterns: Sequence[str]) -> bool:
    """True when ``relpath`` equals or lives under one of ``patterns``."""
    for pattern in patterns:
        pattern = pattern.rstrip("/")
        if relpath == pattern or relpath.startswith(pattern + "/"):
            return True
    return False


def find_project_root(start: Path) -> Optional[Path]:
    """Nearest ancestor of ``start`` containing a ``pyproject.toml``."""
    cur = start.resolve()
    if cur.is_file():
        cur = cur.parent
    for candidate in (cur, *cur.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None
