"""The traced benchmark run wraps every function named in ``bench/spans.py``.

It looks each one up with ``getattr`` and crashes on a missing name, so a
deleted or renamed traced function must fail here, in the tier-1 suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from spans import TRACED  # noqa: E402


@pytest.mark.parametrize("module, qualname", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_function_resolves(module, qualname):
    owner = importlib.import_module(f"spinalign.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
