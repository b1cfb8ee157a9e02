"""Every name a module of ``popcoin_sim`` imports is used in that module.

A name that is imported only so that the benchmark can wrap it as an
attribute of the module (a seam of ``perfbench/spans.py``) carries
``# noqa: F401`` on its line, and no other name may. The package
``__init__`` re-exports its imports, so it is not checked.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

import popcoin_sim

MODULES = sorted(
    path for path in Path(popcoin_sim.__file__).parent.glob("*.py") if path.name != "__init__.py"
)
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def imported_names(source: str) -> list[tuple[int, str, bool]]:
    """``(line, name, exempt)`` for each imported name; a ``# noqa: F401`` line is exempt."""
    lines = source.splitlines()
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                exempt = "# noqa: F401" in lines[alias.lineno - 1]
                names.append((alias.lineno, alias.asname or alias.name.split(".")[0], exempt))
    return names


def unused_imports(source: str) -> list[str]:
    """``<line>: <name>`` for each imported name that ``source`` never reads."""
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [
        f"{line}: {name}"
        for line, name, exempt in imported_names(source)
        if not exempt and name not in used
    ]


def exempt_non_seams(source: str, seams) -> list[str]:
    """``<line>: <name>`` for each ``# noqa: F401`` import that is not in ``seams``."""
    return [
        f"{line}: {name}"
        for line, name, exempt in imported_names(source)
        if exempt and name not in seams
    ]


def benchmark_seams() -> set[str]:
    """The scenario attributes that ``perfbench/spans.py`` wraps, read without changing it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return set(spans.SEAMS)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_benchmark_seams_are_exempt(path):
    assert exempt_non_seams(path.read_text(encoding="utf-8"), benchmark_seams()) == []


def test_an_unused_import_is_found():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["1: field"]
    exempt = source.replace("field\n", "field  # noqa: F401\n")
    assert unused_imports(exempt) == []
    assert exempt_non_seams(exempt, {"dataclass"}) == ["1: field"]
    assert exempt_non_seams(exempt, {"dataclass", "field"}) == []
