"""Every public function and class of the package is used inside it or exported."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cvnnuniv"
# unused inside the package, kept because the acceptance suite calls them as specification
SPECIFICATION = ("holomorphy_of_best_fit", "load_network")


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_public_name_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = _exported(trees["__init__.py"])
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    defined = [
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert sorted(name for name in defined if name not in named) == sorted(SPECIFICATION)
