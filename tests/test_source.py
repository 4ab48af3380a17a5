"""Source checks on the package, with the standard library's ``ast`` only.

No top-level name is defined twice in a module (a later definition silently
replaces the earlier one), and no module imports a name it never uses.  The
package ``__init__`` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sepdual"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def _bound(node):
    """Names a top-level statement binds, with whether they are imports."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [(node.name, False)]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            return []
        return [((alias.asname or alias.name).split(".")[0], True)
                for alias in node.names]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [(t.id, False) for t in targets if isinstance(t, ast.Name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_duplicate_or_unused_top_level_names(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    seen, duplicates, unused = set(), [], []
    for node in tree.body:
        for name, imported in _bound(node):
            if name in seen:
                duplicates.append(f"{name} (line {node.lineno})")
            seen.add(name)
            if imported and name not in used:
                unused.append(f"{name} (line {node.lineno})")
    assert not duplicates, f"defined twice: {duplicates}"
    assert not unused, f"imported but never used: {unused}"
