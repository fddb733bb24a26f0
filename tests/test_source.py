"""Checks on the program's own source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "driftstream"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_level_privates(tree):
    """(name, line) of each private function, class or constant a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, t.lineno) for target in assigned for t in ast.walk(target)
                       if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, line) for name, line in targets if _is_private(name))


def _references(tree):
    """Every identifier the module reads: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unused_private_names(root=SRC):
    """``path: name`` for each module-level private name no module under ``root`` reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.rglob("*.py"))}
    read = {name for tree in trees.values() for name in _references(tree)}
    return [f"{path.relative_to(root)}:{line}: {name}"
            for path, tree in trees.items()
            for name, line in _module_level_privates(tree) if name not in read]


def test_every_private_module_name_is_used():
    assert unused_private_names() == []


def test_unused_private_names_finds_an_unread_constant(tmp_path):
    (tmp_path / "a.py").write_text("_USED = 1\n_DEAD = 2\n\ndef _helper():\n    return _USED\n",
                                   encoding="utf-8")
    (tmp_path / "b.py").write_text("from a import _helper\n", encoding="utf-8")
    assert unused_private_names(tmp_path) == ["a.py:2: _DEAD"]
