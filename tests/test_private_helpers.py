"""Every private module-level function and class of qgw is used somewhere in
qgw, so a helper whose last caller goes goes with it; every public
module-level function is read by qgw or its benchmark, or is named API, so a
function that only tests call lives in the tests; and every public method of
a qgw class is read by qgw or its benchmark.

A definition counts as used when its name is read, as a name or as an
attribute, anywhere in src/qgw (or, for a public function, in qgwbench/*.py)
outside its own body: a helper that only calls itself, or is only imported,
is unused.  A method counts as used when its name is read as an attribute
in src/qgw or qgwbench/*.py outside its own body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qgw"
BENCH = SRC.parent.parent / "qgwbench"

# public functions that are API for users of the package, not for qgw itself
PUBLIC_API = frozenset((
    "ncalg.presentation_to_json", "ncalg.presentation_from_json",
    "rmatlab.rmatrix_to_json", "exterior.act",
))


def _is_private(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__"))


def _is_public_function(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_"))


def _top_level(kind):
    """The module-level definitions of ``kind`` in a module tree."""
    return lambda tree: [node for node in tree.body if kind(node)]


def _public_methods(tree):
    """The public, non-dunder methods of the classes of a module tree."""
    return [node for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if _is_public_function(node)]


def _parse(folder):
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(folder.glob("*.py"))}


def _reads(tree, names=True):
    """(name, line) for every attribute read in ``tree``, and every name
    read unless ``names`` is false."""
    for node in ast.walk(tree):
        if names and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def _unread(src, definitions, readers=(), names=True):
    """(file, definition) for each of the ``definitions`` of a module of
    ``src`` that no module of ``src`` or of the ``readers`` folders reads
    outside its own body (as an attribute only, unless ``names``), and the
    number of definitions."""
    trees = _parse(src)
    reads = {}
    for folder, parsed in [(None, trees)] + [(f, _parse(f)) for f in readers]:
        for path, tree in parsed.items():
            where = path if folder is None else f"{folder.name}/{path}"
            for name, line in _reads(tree, names):
                reads.setdefault(name, []).append((where, line))
    unread, total = [], 0
    for path, tree in trees.items():
        for node in definitions(tree):
            total += 1
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in inside for p, line in reads.get(node.name, ())):
                unread.append((path, node))
    return unread, total


def unused_private_definitions(src=SRC):
    unused, total = _unread(src, _top_level(_is_private))
    return [f"{path}:{node.lineno} {node.name}" for path, node in unused], total


def unread_public_functions(src=SRC, readers=(BENCH,), api=PUBLIC_API):
    unread, total = _unread(src, _top_level(_is_public_function), readers)
    return [f"{path}:{node.lineno} {node.name}" for path, node in unread
            if f"{Path(path).stem}.{node.name}" not in api], total


def unread_public_methods(src=SRC, readers=(BENCH,)):
    unread, total = _unread(src, _public_methods, readers, names=False)
    return [f"{path}:{node.lineno} {node.name}" for path, node in unread], total


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


def test_every_public_function_is_read_or_api():
    unread, total = unread_public_functions()
    assert total > 80
    assert not unread, f"public functions read nowhere in qgw or qgwbench: {unread}"


def test_an_unread_public_function_is_found(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def benched():\n    return used()\n\n\n"
        "def api():\n    return 2\n\n\n"
        "def only_imported():\n    return 3\n\n\n"
        "class Public:\n    pass\n")
    (src / "b.py").write_text("from .a import only_imported\n")
    (bench / "run.py").write_text("import a\n\na.benched()\n")
    unread, total = unread_public_functions(src, (bench,), frozenset(("a.api",)))
    assert total == 5
    assert unread == ["a.py:5 recursive", "a.py:17 only_imported"]


def test_every_public_method_is_read():
    unread, total = unread_public_methods()
    assert total > 30
    assert not unread, f"public methods read nowhere in qgw or qgwbench: {unread}"


def test_an_unread_public_method_is_found(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "class Thing:\n"
        "    def used(self):\n        return 1\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "    def benched(self):\n        return self.used()\n\n"
        "    def named(self):\n        return 2\n\n"
        "    def _private(self):\n        return 3\n\n"
        "    def __len__(self):\n        return 0\n\n\n"
        "def used():\n    return Thing().used()\n")
    (src / "b.py").write_text("from .a import Thing\n\nnamed = Thing\nprint(named)\n")
    (bench / "run.py").write_text("import a\n\na.Thing().benched()\n")
    unread, total = unread_public_methods(src, (bench,))
    assert total == 4
    assert unread == ["a.py:5 recursive", "a.py:11 named"]
