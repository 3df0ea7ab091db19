"""The README's paper-to-code table names only what the package has."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_paper_to_code_table_resolves():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Paper to code\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(\w+)\.(\w+)`", section)
    assert {("pipeline", "MODES"), ("pipeline", "TASKS"), ("pipeline", "rankings")} <= set(names)
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"plcd.{module}"), attr)]
    assert not missing, f"README names what plcd lacks: {missing}"
