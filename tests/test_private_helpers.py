"""Every private module-level function and class of qgw is used somewhere in
qgw, so a helper whose last caller goes goes with it.

A definition counts as used when its name is read, as a name or as an
attribute, anywhere in src/qgw outside its own body: a helper that only
calls itself, or is only imported, is unused.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qgw"


def _private_definitions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            yield node


def _reads(tree):
    """(name, line) for every name and attribute read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unused_private_definitions(src=SRC):
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    reads = {}
    for path, tree in trees.items():
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((path, line))
    unused, total = [], 0
    for path, tree in trees.items():
        for node in _private_definitions(tree):
            total += 1
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in inside for p, line in reads.get(node.name, ())):
                unused.append(f"{path}:{node.lineno} {node.name}")
    return unused, total


def test_every_private_definition_is_used():
    unused, total = unused_private_definitions()
    assert total > 100
    assert not unused, f"private definitions used nowhere in qgw: {unused}"


def test_an_unused_helper_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n\n"
        "class _Dead:\n    pass\n\n\n"
        "def public():\n    return _used()\n")
    (tmp_path / "b.py").write_text("from .a import _Dead\n")
    unused, total = unused_private_definitions(tmp_path)
    assert total == 3
    assert unused == ["a.py:5 _recursive", "a.py:9 _Dead"]
