"""Every definition in ``src/`` is named somewhere in ``src/``.

A module-level function or class, or a method, that no ``Name`` or
``Attribute`` node of the package uses is reached by no CLI verb and no
``verify`` row.  Code that only tests need belongs in ``tests/oracles.py``.
Dunders are reached through the language, not by name, and are not checked.
A name scan cannot tell two definitions of one name apart, so a dead method
that shares its name with a live one goes unseen.
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
}


def _definitions(module, tree):
    """(qualified name, bare name) of each module-level def and class and of
    each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name


def unreached(sources):
    """Qualified names, sorted, of the definitions in ``sources`` (module name
    -> source text) whose name no Name or Attribute of any source uses."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(qualified for module, tree in trees.items()
                  for qualified, name in _definitions(module, tree)
                  if name not in used and not (name.startswith("__") and name.endswith("__")))


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
    # a call in the same module or an attribute in another one reaches it
    assert unreached({"synthetic": SYNTHETIC + "orphan()\n"}) == []
    assert unreached({"synthetic": SYNTHETIC,
                      "caller": "import synthetic\nsynthetic.orphan()\n"}) == []


def test_every_definition_in_src_is_named_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 1
    assert unreached(sources) == sorted(EXCEPTIONS)
