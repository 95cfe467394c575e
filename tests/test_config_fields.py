"""Every field of a ``*Config`` dataclass is set by some caller in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cvnnuniv"


def _set_names(tree, skip):
    """Keyword-argument names and string keys (dict literals and subscripts) outside the node ``skip``."""
    inside = {id(node) for node in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            if isinstance(node.slice.value, str):
                names.add(node.slice.value)
    return names


def test_every_config_field_is_set_by_a_caller():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    configs = [node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)]
    unset = []
    for cls in configs:
        if not cls.name.endswith("Config"):
            continue
        names = set().union(*(_set_names(tree, cls) for tree in trees))
        fields = [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        unset += [f"{cls.name}.{field}" for field in fields if field not in names]
    assert unset == []
