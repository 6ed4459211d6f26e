"""Every name a test or source module imports is read in that module, or
listed in its `__all__`."""

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
SOURCE_MODULES = sorted(
    (Path(__file__).parent.parent / "src" / "endoperm").glob("*.py"))


def unused_imports(source):
    """The names that import statements in `source` bind and that neither
    an expression in it reads nor a module-level `__all__` lists, sorted."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                for elt in node.value.elts}
    return sorted(bound - read - exported)


def test_unused_imports_are_found():
    source = ("import os\nimport x.y\nfrom a.b import c as d, e\n"
              "x.y.f(e)\n")
    assert unused_imports(source) == ["d", "os"]
    assert unused_imports("import os, sys\n__all__ = ['os']\n") == ["sys"]


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda path: path.stem)
def test_test_modules_import_only_what_they_use(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda path: path.stem)
def test_source_modules_import_only_what_they_use(path):
    assert unused_imports(path.read_text()) == []
