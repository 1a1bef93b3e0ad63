"""No module of the package keeps an import that its code never names.

``__init__.py`` is left out: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import palpsim

PACKAGE = Path(palpsim.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_the_check_finds_an_unused_import():
    source = ("from itertools import chain\nimport numpy as np\nimport os.path\n"
              "from .search import gp_fit, next_cell_bo\nnp.zeros(next_cell_bo)\n")
    assert unused_imports(source) == ["chain", "gp_fit", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
