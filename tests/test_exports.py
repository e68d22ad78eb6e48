"""The export lists: each module's ``__all__`` names what it defines, and the
package imports only names that their modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pathcalc

MODULES = [m.name for m in pkgutil.iter_modules(pathcalc.__path__)]


def package_imports():
    """(module, name) for each name that ``pathcalc/__init__.py`` imports from a submodule."""
    tree = ast.parse(Path(pathcalc.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"pathcalc.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"pathcalc.{module}.__all__ names undefined {missing}"


def test_the_package_imports_only_exported_names():
    imports = package_imports()
    assert len(imports) == 50  # the parse found the whole import list
    unexported = [f"{module}.{name}" for module, name in imports
                  if name not in importlib.import_module(f"pathcalc.{module}").__all__]
    assert not unexported, f"imported by pathcalc but not in its module's __all__: {unexported}"
