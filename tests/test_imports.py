"""Every name a test module imports is read in that module."""

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """The names that import statements in `source` bind and that no
    expression in it reads, sorted."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = ("import os\nimport x.y\nfrom a.b import c as d, e\n"
              "x.y.f(e)\n")
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda path: path.stem)
def test_test_modules_import_only_what_they_use(path):
    assert unused_imports(path.read_text()) == []
