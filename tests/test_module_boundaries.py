"""Module boundaries: no module uses another's private (``_``-prefixed) names, and the CLI
makes no stream of its own."""

import ast
import inspect
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


def test_cli_reads_no_numpy_random():
    # The CLI's streams all come from oracle.target_streams.
    read = [
        f"line {node.lineno}: {node.value.id}.random"
        for node in ast.walk(_tree(PACKAGE / "cli.py"))
        if isinstance(node, ast.Attribute) and node.attr == "random"
        and isinstance(node.value, ast.Name)
    ]
    assert read == []


@pytest.mark.parametrize("name", ["shot_estimates", "noisy_replies"])
def test_reply_models_take_draws_not_a_generator(name):
    # The caller draws from its own stream; a reply model only turns draws into replies.
    from spinalign import oracle

    parameters = inspect.signature(getattr(oracle, name)).parameters.values()
    assert "draws" in [p.name for p in parameters]
    assert [p.name for p in parameters
            if p.name == "rng" or "Generator" in str(p.annotation)] == []
