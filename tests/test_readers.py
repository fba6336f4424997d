"""Every public name of the package has a reader in a run, and every
dataclass field a reader somewhere.

A public module-level function or class, or a public method, that nothing in
``src/perfolayer`` or ``perfbench/`` reads is code that only the tests reach.
It belongs in the tests that use it, or nowhere.  A dataclass field that
nothing loads, not even a test, keeps its value alive for no one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "perfolayer"


def _trees():
    files = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    return {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text(encoding="utf-8"))
            for p in files}


def _public_definitions(tree):
    """(qualified name, node) of the public module-level functions and
    classes and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def _references(tree):
    """(name, node) of every Name, Attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def test_every_public_name_has_a_reader():
    trees = _trees()
    refs = [(name, node) for tree in trees.values() for name, node in _references(tree)]
    unread = []
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        for qualname, definition in _public_definitions(tree):
            own = {id(n) for n in ast.walk(definition)}
            name = qualname.rsplit(".", 1)[-1]
            if not any(ref == name and id(node) not in own for ref, node in refs):
                unread.append(f"{path}: {qualname}")
    assert not unread, "public names without a reader outside the tests:\n" + "\n".join(unread)


def _dataclass_fields(tree):
    """(class name, field name) of every annotated field of a dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_is_read():
    # fields are matched by name, like the public names above; the tests
    # count as readers, since a field may exist to be checked
    files = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    loaded = {node.attr for p in files
              for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path}: {cls}.{name}" for path, tree in _trees().items()
              if path.startswith("src/")
              for cls, name in _dataclass_fields(tree) if name not in loaded]
    assert not unread, "dataclass fields that nothing reads:\n" + "\n".join(unread)
