"""Source hygiene: every import in a qlyap module is used there."""

import ast
from pathlib import Path

import qlyap

PACKAGE_DIR = Path(qlyap.__file__).parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_keeps_an_unused_import():
    # __init__.py imports names only to re-export them
    leftovers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        leftovers += [f"{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert not leftovers, "unused imports:\n" + "\n".join(leftovers)
