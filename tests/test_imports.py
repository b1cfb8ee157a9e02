"""Every name a module of ``popcoin_sim`` imports is used in that module.

A name that is imported only so that callers can reach it as an attribute of
the module (a patchable seam) carries ``# noqa: F401`` on its line. The
package ``__init__`` re-exports its imports, so it is not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import popcoin_sim

MODULES = sorted(
    path for path in Path(popcoin_sim.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """``<line>: <name>`` for each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["1: field"]
    assert unused_imports(source.replace("field\n", "field  # noqa: F401\n")) == []
