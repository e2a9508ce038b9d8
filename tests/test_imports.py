"""Import hygiene: every imported name in the package and tests is used,
and every definition in the package is used, by the package itself unless
a stated reason keeps it.

The repository runs no linter, so this stands in for pyflakes' unused-import
check. A package ``__init__.py`` may import a name only to re-export it, in
which case the name must be listed in its ``__all__``.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
PACKAGE = [p for p in SOURCES if ROOT / "src" in p.parents]

#: Package definitions that no package code names, each with why it stays.
#: A helper kept only for a test belongs in tests/, not here.
CALLED_FROM_OUTSIDE = {
    "mass_audit": "the tests' reference audit of conserved sums, in README's Python API",
    "check_epsilon_B_connectivity": "the tests' reference for EpsilonBAudit, in README's Python API",
    "constant": "FadingModel.constant, README's Python API",
    "half_normal": "FadingModel.half_normal, README's Python API",
    "explicit": "InitialSpec.explicit, README's Python API",
    "random_mean": "InitialSpec.random_mean, README's Python API",
}


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


def _references(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _unreferenced_definitions(readers=SOURCES) -> list[str]:
    """Functions, classes and methods under src/ that no file of readers
    names outside their own body, matched by name; dunders and the
    ``entry`` console script are called by Python and by the installed
    script."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    references = Counter()
    for path in readers:
        references.update(_references(trees[path]))
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path, tree in trees.items() if path in PACKAGE
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")) and node.name != "entry"
        and references[node.name] == _references(node)[node.name]
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


def test_every_definition_is_referenced():
    # a definition that nothing names is dead code; its own body (a
    # recursive call) does not count as a use
    assert _unreferenced_definitions() == []


def test_every_definition_is_used_by_the_package_or_kept_for_a_reason():
    # the tests and README's Python API may call what the package does not,
    # but each such definition is listed with its reason; one the package
    # comes to use, or one deleted, must leave the list
    unused = _unreferenced_definitions(PACKAGE)
    assert [entry for entry in unused if entry.rsplit(": ", 1)[1] not in CALLED_FROM_OUTSIDE] == []
    assert sorted(entry.rsplit(": ", 1)[1] for entry in unused) == sorted(CALLED_FROM_OUTSIDE)
