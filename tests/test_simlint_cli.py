"""End-to-end tests for ``python -m repro lint``.

Covers the CLI surface (exit codes, --select/--ignore, --list-rules) in
a throwaway project, and the self-scan regression: the shipped ``src/``
tree must lint clean, on every supported Python.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis import run_lint
from repro.analysis.registry import all_rules, get_rule

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

RULE_IDS = ["SIM001", "SIM002", "SIM003", "SIM004", "SIM006", "SIM008",
            "SIM010", "SIM011", "SIM012"]

BAD_MODULE = (
    "import random\n"
    "\n"
    "\n"
    "def draw():\n"
    "    return random.random()\n"
)


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A minimal throwaway project with one SIM001 violation."""
    (tmp_path / "pyproject.toml").touch()  # marks the project root
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(BAD_MODULE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# Registry and --list-rules
# ---------------------------------------------------------------------------

def test_registry_ships_the_nine_rules():
    ids = [rule.id for rule in all_rules()]
    assert ids == RULE_IDS
    assert get_rule("SIM006").name == "cache-key-completeness"
    assert get_rule("SIM010").name == "float-sum"
    assert get_rule("SIM011").name == "iteration-order"
    assert get_rule("SIM012").name == "worker-purity"


def test_list_rules_prints_catalog(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == RULE_IDS


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--bogus-flag"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Exit codes and rule selection
# ---------------------------------------------------------------------------

def test_violation_exits_1_and_is_reported(project, capsys):
    assert main(["lint", "src"]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out
    assert "src/mod.py:5" in out
    assert "1 findings" in out


def test_clean_tree_exits_0(project, capsys):
    (project / "src" / "mod.py").write_text(
        "import random\n\nRNG = random.Random(7)\n")
    assert main(["lint", "src"]) == 0
    assert "— ok" in capsys.readouterr().out


def test_select_and_ignore_scope_the_run(project, capsys):
    assert main(["lint", "--select", "SIM003", "src"]) == 0
    assert main(["lint", "--ignore", "SIM001", "src"]) == 0
    assert main(["lint", "--select", "SIM001", "src"]) == 1
    capsys.readouterr()


def test_parse_error_exits_1(project, capsys):
    (project / "src" / "broken.py").write_text("def f(:\n")
    assert main(["lint", "src"]) == 1
    assert "parse error" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Self-scan regression: the shipped tree lints clean
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not SRC_ROOT.is_dir(), reason="source tree not present")
def test_shipped_src_has_zero_findings():
    result = run_lint([SRC_ROOT])
    assert result.parse_errors == []
    assert result.findings == [], \
        [f"{f.location()} {f.rule} {f.message}" for f in result.findings]
    assert result.ok


@pytest.mark.skipif(not SRC_ROOT.is_dir(), reason="source tree not present")
def test_cli_self_scan_exits_0(capsys):
    assert main(["lint", str(SRC_ROOT)]) == 0
    assert "— ok" in capsys.readouterr().out


@pytest.mark.skipif(not SRC_ROOT.is_dir(), reason="source tree not present")
def test_cli_self_scan_exits_0_without_a_toml_parser():
    """Python 3.10 has no TOML parser in its stdlib; the verdict must not
    depend on one."""
    code = ("import sys; sys.modules['tomllib'] = None; "
            "from repro.__main__ import main; "
            "sys.exit(main(['lint', 'src']))")
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC_ROOT.parent,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
