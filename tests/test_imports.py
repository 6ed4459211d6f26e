"""Every name a test or source module imports is read in that module, or
listed in its `__all__`; every function and class of the source is named
somewhere outside its own definition."""

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


BENCH_MODULES = sorted(
    (Path(__file__).parent.parent / "bench").glob("*.py"))

# Top-level names that nothing in src/ or bench/ uses, each kept for a reason
UNREFERENCED_KEPT = {
    "corpus.instance_scenario": "writes scenario files for the tests",
    "orbenum.probe_fixed_space": "the fixed-space probe of ROADMAP item 10",
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node, strings):
    """The names one AST node refers to: a name read, an attribute, an
    imported name, and with `strings` a string constant (the target of a
    patch, or a name listed in __all__)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    if strings and isinstance(node, ast.Constant) \
            and isinstance(node.value, str):
        return [node.value]
    return []


def unreferenced_definitions(sources, string_sources):
    """"module.name" for each top-level function or class of the modules
    in `sources` ({module: source}) that no code there or in
    `string_sources` refers to outside its own body, sorted.

    A reference is a name read, an attribute, an imported name, or in
    `string_sources` also a string constant (the target of a patch)."""
    refs = {}  # name -> {(module, enclosing top-level statement index)}
    defs = []
    for module, source in [*sources.items(), *string_sources.items()]:
        tree = ast.parse(source)
        for index, stmt in enumerate(tree.body):
            if module in sources and isinstance(stmt, DEFINITIONS):
                defs.append((module, stmt.name, index))
            for node in ast.walk(stmt):
                for name in _names(node, module in string_sources):
                    refs.setdefault(name, set()).add((module, index))
    return sorted(f"{module}.{name}" for module, name, index in defs
                  if not refs.get(name, set()) - {(module, index)})


def test_unreferenced_definitions_are_found():
    sources = {"a": "def f():\n    return f()\n\n\ndef g():\n    pass\n\n\n"
                    "class C:\n    pass\n\n\nC()\n",
               "b": "from a import g\n"}
    assert unreferenced_definitions(sources, {}) == ["a.f"]
    assert unreferenced_definitions(
        sources, {"bench": "patch(a, 'f')\n"}) == []


def test_source_defines_no_unused_api():
    sources = {path.stem: path.read_text() for path in SOURCE_MODULES}
    bench = {f"bench.{path.stem}": path.read_text()
             for path in BENCH_MODULES}
    assert sorted(UNREFERENCED_KEPT) == \
        unreferenced_definitions(sources, bench)


def dead_names(sources, others):
    """"module.name" for each function or class, at any depth, of the
    modules in `sources` ({module: source}) whose name no code in
    `sources` or `others` refers to outside its own definition, sorted.
    Dunder names are exempt: the language calls them."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = {}
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for node in ast.walk(tree):
            for name in _names(node, True):
                counts[name] = counts.get(name, 0) + 1
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            own = sum(name == node.name for sub in ast.walk(node)
                      for name in _names(sub, True))
            if counts.get(node.name, 0) == own:
                dead.append(f"{module}.{node.name}")
    return sorted(dead)


def test_dead_names_are_found():
    sources = {"a": "class C:\n    def m(self):\n        return self.m()\n\n"
                    "    def n(self):\n        pass\n\n    def __len__(self):"
                    "\n        return 0\n\n\ndef f():\n    def g():\n"
                    "        pass\n    return C\n"}
    assert dead_names(sources, []) == ["a.f", "a.g", "a.m", "a.n"]
    assert dead_names(sources, ["from a import f\nx.m()\n",
                                "patch(a, 'n')\n"]) == ["a.g"]


def test_source_names_are_all_used():
    # every function and class of src/endoperm, methods included, is named
    # somewhere in src/, tests/ or bench/ outside its own definition
    sources = {path.stem: path.read_text() for path in SOURCE_MODULES}
    others = [path.read_text() for path in TEST_MODULES + BENCH_MODULES]
    assert dead_names(sources, others) == []
