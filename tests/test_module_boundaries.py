"""No spinalign module uses another module's private (``_``-prefixed) names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinalign"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_private_name_is_imported(path):
    imported = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(_tree(path)) if isinstance(node, ast.ImportFrom)
        for alias in node.names if _private(alias.name)
    ]
    assert imported == []


def test_cli_reads_no_private_attribute():
    # Assignments (such as the parser's own number pattern) are not reads.
    read = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(_tree(PACKAGE / "cli.py"))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and _private(node.attr)
    ]
    assert read == []
