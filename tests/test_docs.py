"""The README names only what the package has: the functions of its
paper-to-code table and the flags and commands of its CLI section."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

from plcd import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading):
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_paper_to_code_table_resolves():
    names = re.findall(r"`(\w+)\.(\w+)`", _section("Paper to code"))
    assert {("pipeline", "MODES"), ("pipeline", "TASKS"), ("pipeline", "rankings")} <= set(names)
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"plcd.{module}"), attr)]
    assert not missing, f"README names what plcd lacks: {missing}"


def test_cli_section_names_only_flags_plcd_takes():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _section("CLI")))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {flag for command in sub.choices.values() for action in command._actions
             for flag in action.option_strings}
    assert {"--set", "--mode", "--best-region", "--dump-embeddings"} <= named
    assert not named - flags, f"README's CLI section names flags plcd lacks: {sorted(named - flags)}"


def test_cli_section_commands_parse():
    block = _section("CLI").split("```\n")[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("plcd ")]
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [parser.parse_args(argv).command for argv in commands] == list(sub.choices)
