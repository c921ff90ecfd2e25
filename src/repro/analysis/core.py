"""simlint framework: findings, rules, file contexts, and the runner.

The engine (:mod:`repro.engine`) promises bit-identical parallel-vs-serial
results and content-addressed disk caching.  Those guarantees rest on
conventions — seeded RNGs only, no wall-clock in timing code, no
process-salted ``hash()``, no iteration-order-dependent accumulation,
cache fingerprints covering every config field — that nothing used to
enforce.  simlint enforces them mechanically:

* :class:`ASTRule` subclasses inspect one parsed file at a time
  (:class:`FileContext` carries the tree, source lines and an import
  alias map);
* :class:`ProjectRule` subclasses run once per lint invocation over the
  whole file set (SIM006 introspects the live config dataclasses against
  the engine fingerprint);
* inline ``# simlint: disable=SIM0xx`` comments suppress findings on
  their line; ``# simlint: disable-file=SIM0xx`` suppresses for a file.
  They are the one escape hatch: every other finding fails the run.

:func:`run_lint` is the programmatic entry point; ``python -m repro
lint`` is the CLI face (:mod:`repro.cli.lint`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .config import LintConfig, find_project_root

SEVERITIES = ("warning", "error")

#: Matches ``# simlint: disable`` / ``# simlint: disable=SIM001,SIM004``.
_LINE_DISABLE = re.compile(
    r"#\s*simlint:\s*disable(?!-file)(?:\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+))?")
#: Matches ``# simlint: disable-file`` / ``...=SIM002``.
_FILE_DISABLE = re.compile(
    r"#\s*simlint:\s*disable-file(?:\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+))?")

#: Sentinel meaning "every rule" in a suppression set.
_EVERY_RULE = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str  # posix-style, relative to the project root where possible
    line: int
    col: int
    message: str
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class Rule:
    """Base class: identity, severity and finding construction."""

    id: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""

    def finding(self, ctx: "FileContext", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.relpath,
            line=line,
            col=col,
            message=message,
            snippet=ctx.line_text(line).strip(),
        )


class ASTRule(Rule):
    """A rule evaluated independently on each parsed file."""

    def check(self, ctx: "FileContext",
              config: LintConfig) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule evaluated once per lint run over the whole file set."""

    def check_project(self, ctxs: Sequence["FileContext"],
                      config: LintConfig) -> Iterable[Finding]:
        raise NotImplementedError


class FileContext:
    """One parsed source file plus the lookup helpers rules need."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source)
        self.imports: Dict[str, str] = _collect_imports(self.tree)
        self.line_suppressions: Dict[int, Set[str]] = {}
        self.file_suppressions: Set[str] = set()
        self._scan_suppressions()

    # -- source helpers -----------------------------------------------------

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted name.

        Import aliases are folded in, so ``rnd.randint`` with ``import
        random as rnd`` resolves to ``"random.randint"`` and a bare
        ``randint`` from ``from random import randint`` resolves the same
        way.  Unresolvable expressions (calls, subscripts) yield None.
        """
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        base = self.imports.get(cur.id, cur.id)
        parts.append(base)
        return ".".join(reversed(parts))

    # -- suppressions -------------------------------------------------------

    def _scan_suppressions(self) -> None:
        for i, text in enumerate(self.lines, start=1):
            if "simlint" not in text:
                continue
            m = _FILE_DISABLE.search(text)
            if m:
                self.file_suppressions |= _parse_rule_list(m.group("rules"))
                continue
            m = _LINE_DISABLE.search(text)
            if m:
                self.line_suppressions[i] = _parse_rule_list(m.group("rules"))

    def is_suppressed(self, finding: Finding) -> bool:
        if _covers(self.file_suppressions, finding.rule):
            return True
        return _covers(self.line_suppressions.get(finding.line, set()),
                       finding.rule)


def _parse_rule_list(raw: Optional[str]) -> Set[str]:
    if raw is None:
        return {_EVERY_RULE}
    rules = {part.strip().upper() for part in raw.split(",") if part.strip()}
    return rules or {_EVERY_RULE}


def _covers(suppressed: Set[str], rule_id: str) -> bool:
    return _EVERY_RULE in suppressed or rule_id in suppressed


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Alias -> fully-qualified dotted name, for every import statement."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    out[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: keep the local name
                continue
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                out[alias.asname or alias.name] = (
                    f"{module}.{alias.name}" if module else alias.name)
    return out


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass
class LintResult:
    """Everything one lint invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors


def iter_python_files(paths: Sequence[Path],
                      exclude: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, skipping excluded parts."""
    excluded = set(exclude)
    for root in paths:
        root = Path(root)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for path in sorted(root.rglob("*.py")):
            if excluded.intersection(path.parts):
                continue
            yield path


def _relpath(path: Path, root: Optional[Path]) -> str:
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return resolved.as_posix()


def _select_rules(rules: Sequence[Rule],
                  select: Optional[Sequence[str]],
                  ignore: Optional[Sequence[str]]) -> List[Rule]:
    chosen = list(rules)
    if select:
        wanted = {r.upper() for r in select}
        chosen = [r for r in chosen if r.id in wanted]
    if ignore:
        skipped = {r.upper() for r in ignore}
        chosen = [r for r in chosen if r.id not in skipped]
    return chosen


def run_lint(paths: Sequence, *,
             config: Optional[LintConfig] = None,
             rules: Optional[Sequence[Rule]] = None,
             select: Optional[Sequence[str]] = None,
             ignore: Optional[Sequence[str]] = None) -> LintResult:
    """Lint ``paths`` (files or directories) and return a result.

    ``config`` defaults to the :class:`LintConfig` constants anchored at
    the nearest ``pyproject.toml`` above the first path; ``rules``
    defaults to the full registry.
    """
    from .registry import all_rules

    paths = [Path(p) for p in paths]
    if config is None:
        start = paths[0] if paths else Path.cwd()
        config = LintConfig(project_root=find_project_root(start))
    active = _select_rules(list(rules) if rules is not None else all_rules(),
                           select, ignore)

    result = LintResult()
    ast_rules = [r for r in active if isinstance(r, ASTRule)]
    project_rules = [r for r in active if isinstance(r, ProjectRule)]

    contexts: List[FileContext] = []
    raw: List[Finding] = []
    for path in iter_python_files(paths, config.exclude):
        rel = _relpath(path, config.project_root)
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(path, rel, source)
        except (OSError, SyntaxError, ValueError) as exc:
            result.parse_errors.append(f"{rel}: {exc}")
            continue
        contexts.append(ctx)
        result.files_scanned += 1
        for rule in ast_rules:
            for f in rule.check(ctx, config):
                if ctx.is_suppressed(f):
                    result.suppressed += 1
                else:
                    raw.append(f)

    by_rel = {ctx.relpath: ctx for ctx in contexts}
    for rule in project_rules:
        for f in rule.check_project(contexts, config):
            ctx = by_rel.get(f.path)
            if ctx is not None and ctx.is_suppressed(f):
                result.suppressed += 1
            else:
                raw.append(f)

    result.findings = sorted(raw, key=Finding.sort_key)
    return result


def lint_source(source: str, *, path: str = "<snippet>.py",
                config: Optional[LintConfig] = None,
                rules: Optional[Sequence[Rule]] = None,
                select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one in-memory source string with the AST rules (test helper
    and editor-integration hook).  Suppression comments are honoured;
    project rules do not apply."""
    from .registry import all_rules

    if config is None:
        config = LintConfig()
    active = _select_rules(list(rules) if rules is not None else all_rules(),
                           select, None)
    ctx = FileContext(Path(path), path, source)
    out: List[Finding] = []
    for rule in active:
        if not isinstance(rule, ASTRule):
            continue
        for f in rule.check(ctx, config):
            if not ctx.is_suppressed(f):
                out.append(f)
    return sorted(out, key=Finding.sort_key)
