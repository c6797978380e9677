"""Every import in src/, tests/ and tools/ has a reader in its own module,
and every top-level name defined in src/ has a reader in src/ or perfbench/.

No linter is installed, so this parses each file with ast: a name bound by
an import must appear as a Name somewhere in the module, or as a string in
its __all__. A function, class or constant defined at the top level of a
src/ module must be loaded, as a name or an attribute, by src/ code outside
its own definition, or be named in perfbench/ (whose traced run wraps some
names by string). A name only tests read is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detects_and_spares():
    src = ("from __future__ import annotations\n"
           "import os, numpy.linalg\n"
           "from a import b, c as d, e\n"
           "__all__ = ['e']\n"
           "print(os.sep, d)\n")
    assert unused_imports(src) == [(2, "numpy"), (3, "b")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "tests", "tools")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)


def top_level_names(stmt):
    """The names a module-level statement defines, dunders left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not n.startswith("__")]


def loaded_names(tree):
    """Every name a tree loads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def dead_names(sources, spared=frozenset()):
    """(module, line, name) of each top-level name in sources (module ->
    source text) that no statement but its own definition loads and that
    spared does not hold."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    loads = [loaded_names(stmt) for _, stmt in stmts]
    return sorted((module, stmt.lineno, name)
                  for i, (module, stmt) in enumerate(stmts)
                  for name in top_level_names(stmt)
                  if name not in spared
                  and not any(name in seen for j, seen in enumerate(loads) if j != i))


def test_dead_names_detects_and_spares():
    sources = {
        "a": "X = 1\n_Y = 2\n__all__ = []\ndef f():\n    return f()\n"
             "def g():\n    return X\nclass C:\n    pass\n",
        "b": "import a\nprint(a.g(), a._Y)\n",
    }
    assert dead_names(sources) == [("a", 4, "f"), ("a", 8, "C")]
    assert dead_names(sources, spared={"C"}) == [("a", 4, "f")]


def test_no_dead_names_in_src():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    spared = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spared |= loaded_names(tree)
        spared |= {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names}
        spared |= {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    found = [f"{module}:{line}: {name}" for module, line, name in dead_names(sources, spared)]
    assert not found, "top-level names nothing in src/ or perfbench/ reads:\n" + "\n".join(found)
