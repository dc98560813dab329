"""Export lists and the README's library example stay in step with the code."""

import ast
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


@pytest.mark.parametrize("name", ["analytics", "engine", "experiments"])
def test_package_imports_only_exported_names(name):
    # a name dropped from a module's __all__ must leave smpsim/__init__.py too
    module = importlib.import_module(f"smpsim.{name}")
    tree = ast.parse((Path(module.__file__).parent / "__init__.py").read_text())
    imported = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == name
        for alias in node.names
    ]
    assert imported and [n for n in imported if n not in module.__all__] == []
