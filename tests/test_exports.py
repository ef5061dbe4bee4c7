"""Every name a monolab module lists in ``__all__`` exists, so a star import
of any module works; and every module-level import is used."""

import ast
import importlib
import os
import pkgutil

import monolab


def test_every_exported_name_resolves():
    names = ["monolab"] + [info.name for info in
                           pkgutil.walk_packages(monolab.__path__, "monolab.")]
    assert "monolab.solutions.grids" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ lists missing names {missing}"


def _unused_imports(path):
    """(line, name) of each module-level import in the file at ``path`` whose
    name the module never reads and does not list in ``__all__``; a
    ``__future__`` import and a statement marked ``# noqa: F401`` (with
    other codes or not) are exempt."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("noqa:" in line and "F401" in line.split("noqa:", 1)[1]
               for line in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_every_module_level_import_is_used():
    root = os.path.dirname(monolab.__file__)
    paths = [os.path.join(folder, f) for folder, _, files in os.walk(root)
             for f in files if f.endswith(".py")]
    assert os.path.join(root, "solutions", "checks.py") in paths
    unused = {os.path.relpath(p, root): u for p in sorted(paths)
              if (u := _unused_imports(p))}
    assert not unused, f"unused module-level imports: {unused}"
