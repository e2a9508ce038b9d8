"""Import hygiene: every imported name in the package and tests is used.

The repository runs no linter, so this stands in for pyflakes' unused-import
check. A package ``__init__.py`` may import a name only to re-export it, in
which case the name must be listed in its ``__all__``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import; ``from __future__`` is skipped."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= _exported_names(tree)
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    ]


def test_sources_found():
    assert any(p.parts[-2:] == ("otaconsensus", "__init__.py") for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_package_exports_exactly_its_imports():
    # test_every_import_is_used catches an import left behind; this catches
    # an __all__ entry left behind, which would break ``import *``
    import otaconsensus

    init = next(p for p in SOURCES if p.parts[-2:] == ("otaconsensus", "__init__.py"))
    tree = ast.parse(init.read_text(), filename=str(init))
    assert set(otaconsensus.__all__) == set(_imported_names(tree))
    assert len(otaconsensus.__all__) == len(set(otaconsensus.__all__))
    for name in otaconsensus.__all__:
        getattr(otaconsensus, name)
