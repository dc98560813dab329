"""Export lists and the README's library example stay in step with the code."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", ["analytics", "engine", "experiments", "io", "rng", "verify", "cli"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"smpsim.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_library_example_runs():
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
