"""Every public name of topowalk is used by the program itself, not by tests alone."""

import ast
import types
from pathlib import Path

import topowalk

ROOT = Path(__file__).resolve().parent.parent


def program_names() -> set:
    """Names read in the package's modules, its __init__ aside, and in scripts/."""
    paths = [*(ROOT / "src" / "topowalk").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    names = set()
    for path in paths:
        if path == ROOT / "src" / "topowalk" / "__init__.py":  # it only re-exports
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_use_in_the_program():
    # a helper that only tests call belongs in tests/, e.g. in tests/oracles.py
    public = [name for name in topowalk.__all__ if not isinstance(getattr(topowalk, name), types.ModuleType)]
    used = program_names()
    assert [name for name in public if name not in used] == []
