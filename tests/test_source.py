"""Source checks on the package, with the standard library's ``ast`` only.

No top-level name is defined twice in a module (a later definition silently
replaces the earlier one), and no module imports a name it never uses.  The
package ``__init__`` is exempt: its imports are re-exports.

Kept state: a graph's ``_cache`` is named only in ``tangles.py``, which owns
it; ``bigraph.py`` may declare the slot and set it to a new dict.

One path enumerates S_k: no module but ``tangles.py`` names the kernel's
scan or count, ``_kernels.scan_members`` and ``_kernels.order_counts``
(the kernel module defines them, which names neither).

Interpreter state: no module, ``__init__`` included, raises the recursion
limit or stops the garbage collector (``sys.setrecursionlimit``,
``gc.disable``, ``gc.freeze``).

No recursion limit: no function calls itself by name (or a method through
``self`` or ``cls``), so no depth grows with a member count.  The one
exception is ``homology.find_decider``'s ``rec``, whose depth is the size of
the ground set.
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


def _cache_uses(tree):
    """Every node naming ``_cache``: an attribute, a name or a string."""
    return [n for n in ast.walk(tree)
            if getattr(n, "attr", None) == "_cache"
            or getattr(n, "id", None) == "_cache"
            or (isinstance(n, ast.Constant) and n.value == "_cache")]


def _declares_or_initialises_cache(node, tree):
    """The ``__slots__`` entry or a ``self._cache = {}`` assignment."""
    if isinstance(node, ast.Constant):
        return any(isinstance(a, ast.Assign)
                   and any(getattr(t, "id", None) == "__slots__" for t in a.targets)
                   and node in ast.walk(a.value) for a in ast.walk(tree))
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and any(isinstance(a, ast.Assign) and a.targets == [node]
                    and isinstance(a.value, ast.Dict) and not a.value.keys
                    for a in ast.walk(tree)))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tangles.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_only_tangles_names_the_kept_state(path):
    tree = ast.parse(path.read_text(), str(path))
    uses = _cache_uses(tree)
    if path.name == "bigraph.py":
        uses = [n for n in uses if not _declares_or_initialises_cache(n, tree)]
    assert not uses, f"names _cache at lines {sorted(n.lineno for n in uses)}"


def test_kept_state_check_sees_a_read():
    tree = ast.parse(
        "class G:\n"
        "    __slots__ = ('_cache',)\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "        self._cache.get(1)\n")
    left = [n for n in _cache_uses(tree)
            if not _declares_or_initialises_cache(n, tree)]
    assert [n.lineno for n in left] == [5]


SCAN_NAMES = ("scan_members", "order_counts")


def _scan_uses(tree):
    """Every node naming the kernel's scan or count: an attribute, a name or
    an imported name."""
    return [n for n in ast.walk(tree)
            if getattr(n, "attr", None) in SCAN_NAMES
            or getattr(n, "id", None) in SCAN_NAMES
            or (isinstance(n, ast.alias) and n.name in SCAN_NAMES)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tangles.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_only_tangles_scans_or_counts(path):
    tree = ast.parse(path.read_text(), str(path))
    uses = _scan_uses(tree)
    assert not uses, f"names the scan or count at lines {sorted(n.lineno for n in uses)}"


def test_scan_check_sees_a_call_and_an_import():
    tree = ast.parse(
        "from ._kernels import order_counts\n"
        "def f(masks):\n"
        "    return _kernels.scan_members(masks, 3)\n")
    assert sorted(n.lineno for n in _scan_uses(tree)) == [1, 3]


STATE_CALLS = {("sys", "setrecursionlimit"), ("gc", "disable"), ("gc", "freeze")}


def _state_calls(tree):
    """Every node naming ``sys.setrecursionlimit``, ``gc.disable`` or
    ``gc.freeze``, as an attribute or an imported name."""
    return [n for n in ast.walk(tree)
            if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and (n.value.id, n.attr) in STATE_CALLS)
            or (isinstance(n, ast.ImportFrom)
                and any((n.module, a.name) in STATE_CALLS for a in n.names))]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_changes_interpreter_limits(path):
    """A search deeper than the recursion limit must not need it raised,
    and the collector stays on."""
    tree = ast.parse(path.read_text(), str(path))
    uses = _state_calls(tree)
    assert not uses, f"changes interpreter state at lines {sorted(n.lineno for n in uses)}"


def test_interpreter_limit_check_sees_a_call_and_an_import():
    tree = ast.parse(
        "import sys\n"
        "from gc import disable\n"
        "sys.setrecursionlimit(10**6)\n")
    assert sorted(n.lineno for n in _state_calls(tree)) == [2, 3]


#: (module, qualified name) of the functions allowed to call themselves
SELF_CALLS_ALLOWED = {("homology.py", "find_decider.rec")}


def _calls_itself(fn):
    return any(isinstance(n, ast.Call)
               and (getattr(n.func, "id", None) == fn.name
                    or (getattr(n.func, "attr", None) == fn.name
                        and getattr(n.func.value, "id", None) in ("self", "cls")))
               for n in ast.walk(fn))


def _self_callers(tree):
    """Qualified names of the functions that call themselves by name."""
    found, todo = [], [(tree, "")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_itself(child):
                    found.append(prefix + child.name)
                todo.append((child, prefix + child.name + "."))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, prefix + child.name + "."))
            else:
                todo.append((child, prefix))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_function_calls_itself(path):
    tree = ast.parse(path.read_text(), str(path))
    found = [name for name in _self_callers(tree)
             if (path.name, name) not in SELF_CALLS_ALLOWED]
    assert not found, f"calls itself: {found}"


def test_self_call_check_sees_a_nested_function_and_a_method():
    tree = ast.parse(
        "def outer(n):\n"
        "    def rec(i):\n"
        "        return [] if i == n else [i] + rec(i + 1)\n"
        "    return rec(0)\n"
        "class C:\n"
        "    def walk(self, node):\n"
        "        return [self.walk(c) for c in node]\n"
        "    def flat(self, node):\n"
        "        return self.walk(node)\n")
    assert _self_callers(tree) == ["C.walk", "outer.rec"]
