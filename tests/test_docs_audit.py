"""README documents exactly the config keys and command-line flags the program
accepts.

The first column of the config table under ``### Config format`` names every
``ExperimentConfig`` field and nothing else; the synopsis block under
``## CLI`` lists every ``--flag`` of ``cli.build_parser()`` (argparse's own
``--help`` aside) and nothing else.
"""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from becbox.cli import build_parser
from becbox.config import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(text: str, heading: str) -> str:
    assert f"\n{heading}\n" in text, f"README.md has no {heading!r} section"
    return re.split(r"\n#+ ", text.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def table_keys(text: str) -> list:
    """Backticked names in the first column of the config table."""
    rows = [line for line in _section(text, "### Config format").splitlines()
            if line.startswith("| `")]
    assert rows, "README.md config table has no rows"
    return [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]


def synopsis_flags(text: str) -> set:
    """Flags named in the first code block of the CLI section."""
    block = re.search(r"```\w*\n(.*?)```", _section(text, "## CLI"), re.S)
    assert block, "README.md CLI section has no synopsis block"
    return set(re.findall(r"--[\w-]+", block.group(1)))


def parser_flags() -> set:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for command in sub.choices.values() for action in command._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings if flag.startswith("--")}


def test_config_table_names_every_field_once():
    keys = table_keys(README.read_text(encoding="utf-8"))
    assert len(keys) == len(set(keys)), f"README config table repeats keys: {keys}"
    documented = set(keys)
    schema = {f.name for f in fields(ExperimentConfig)}
    assert not schema - documented, f"config keys missing from README: {sorted(schema - documented)}"
    assert not documented - schema, f"README documents unknown keys: {sorted(documented - schema)}"


def test_cli_synopsis_lists_every_flag():
    listed = synopsis_flags(README.read_text(encoding="utf-8"))
    accepted = parser_flags()
    assert not accepted - listed, f"flags missing from README synopsis: {sorted(accepted - listed)}"
    assert not listed - accepted, f"README synopsis lists unknown flags: {sorted(listed - accepted)}"
