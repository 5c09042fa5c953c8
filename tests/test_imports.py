import ast
from pathlib import Path

import pytest

import surveymech

MODULES = sorted(Path(surveymech.__file__).parent.glob("*.py"))


def _exports(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used_or_exported(path):
    # No linter runs on the package, so an import left behind by a deletion
    # would stay unseen: every name a module imports must be read in it (an
    # attribute chain such as ``np.sort`` reads ``np``) or listed in its
    # ``__all__``.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used | _exports(tree)}
    assert not unused, f"imported but never used: {unused}"
