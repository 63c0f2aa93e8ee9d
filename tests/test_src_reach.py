"""Every definition in ``src/`` is reached from somewhere in ``src/``.

A module-level function or class is reached through a bare name, a
``from ... import`` of its name, or ``module.name``; a method through an
attribute of its name on any object.  A definition reached in none of
these ways is reached by no CLI verb and no ``verify`` row.  Code that only
tests need belongs in ``tests/oracles.py``.  Dunders are reached through
the language, not by name, and are not checked, so a dunder constructor
whose only ``src/`` caller has gone is invisible to the scan.  A name scan
cannot tell two methods of one name apart, so a dead method that shares
its name with a live one goes unseen.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "equihom"

# Named only from outside the package, each kept for the reason given.
EXCEPTIONS = {
    "snf.SparseMat.nnz": "perfbench's nnz_in counter calls it on the input of "
                         "every traced Smith form",
    "homcomplexes.CyclePipeline.mu_colours": "perfbench wraps it, and its test "
                                             "asserts that the wrapper is installed",
    "zz2.cohomology": "perfbench's per-layer metrics zz2.cohomology.* wrap it by "
                      "name, and its test reads it off the module",
}


def _definitions(module, tree):
    """(qualified name, bare name, is a method) of each module-level def and
    class and of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def unreached(sources):
    """Qualified names, sorted, of the definitions in ``sources`` (module name
    -> source text) that no source reaches: a module-level def or class
    through no bare name, ``from ... import`` or ``module.name``, a method
    through no attribute of its name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    names, attributes, qualified = set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add(f"{node.value.id}.{node.attr}")
    return sorted(full for module, tree in trees.items()
                  for full, name, method in _definitions(module, tree)
                  if not (name.startswith("__") and name.endswith("__"))
                  and not (name in attributes if method
                           else name in names or f"{module}.{name}" in qualified))


SYNTHETIC = '''
class Box:
    def __init__(self, size):
        self.size = size

    def grow(self):
        return Box(helper(self.size))


def helper(size):
    return size + 1


def orphan():
    return 0


print(Box(1).grow())
'''


def test_scanner_names_the_one_unnamed_function():
    assert unreached({"synthetic": SYNTHETIC}) == ["synthetic.orphan"]
    # a call in the same module, an import or the module's attribute
    # elsewhere reaches it
    assert unreached({"synthetic": SYNTHETIC + "orphan()\n"}) == []
    assert unreached({"synthetic": SYNTHETIC,
                      "caller": "import synthetic\nsynthetic.orphan()\n"}) == []
    assert unreached({"synthetic": SYNTHETIC,
                      "caller": "from synthetic import orphan\n"}) == []
    # a method of the same name, or the attribute of another object, does not
    method = SYNTHETIC.replace("    def grow(self):",
                               "    def orphan(self):\n        return 0\n\n"
                               "    def grow(self):")
    assert unreached({"synthetic": method + "Box(1).orphan()\n"}) == ["synthetic.orphan"]
    assert unreached({"synthetic": SYNTHETIC,
                      "caller": "import other\nother.orphan()\n"}) == ["synthetic.orphan"]


def test_every_definition_in_src_is_named_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 1
    assert unreached(sources) == sorted(EXCEPTIONS)
