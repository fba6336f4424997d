"""Every public name of the package has a reader in a run, every dataclass
field a reader in a run, and every defaulted parameter a caller that passes
it.

A public module-level function or class, or a public method, that nothing in
``src/perfolayer`` or ``perfbench/`` reads is code that only the tests reach.
A method is read through an attribute (``op.diagonal()``); a bare name that
matches it, such as a local variable, does not read it.
It belongs in the tests that use it, or nowhere.  A dataclass field that
nothing there loads holds a value that no run reports or uses.  A
defaulted parameter of a function or method (public or private) that no call
in ``src/perfolayer`` or ``perfbench/`` passes has one value in every run: it
is a constant, and belongs in the code as one.  A call passes a parameter
when its callee name matches (the class name for ``__init__``) and it names
the parameter, has more positional arguments than the parameter's index, or
unpacks ``*`` or ``**`` arguments.  A parameter that every run passes with
one value is not caught; that still needs a reader's eye.  A name that a
module of ``src/perfolayer`` imports and never reads (outside ``__all__``)
is a dead import.
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
            method = "." in qualname
            if not any(ref == name and id(node) not in own
                       and (not method or isinstance(node, ast.Attribute))
                       for ref, node in refs):
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
    # fields are matched by name, like the public names above; a field that
    # only the tests read is a value that no run shows
    trees = _trees()
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path}: {cls}.{name}" for path, tree in trees.items()
              if path.startswith("src/")
              for cls, name in _dataclass_fields(tree) if name not in loaded]
    assert not unread, "dataclass fields that nothing reads:\n" + "\n".join(unread)


def _defaulted_parameters(tree):
    """(qualified name, callee name, parameter, positional index or None) of
    every defaulted parameter of the module-level functions and the methods
    of module-level classes; the index of a method does not count ``self``
    or ``cls``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node.name, node)]
        elif isinstance(node, ast.ClassDef):
            functions = [(f"{node.name}.{item.name}",
                          node.name if item.name == "__init__" else item.name, item)
                         for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for qualname, callee, fn in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            bound = int("." in qualname and bool(positional)
                        and positional[0].arg in ("self", "cls"))
            first = len(positional) - len(args.defaults)
            for index in range(first, len(positional)):
                yield qualname, callee, positional[index].arg, index - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualname, callee, arg.arg, None


def _passes(call, parameter, index):
    return (any(k.arg in (parameter, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def test_every_defaulted_parameter_is_passed():
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unpassed = [f"{path}: {qualname}({parameter})"
                for path, tree in trees.items() if path.startswith("src/")
                for qualname, callee, parameter, index in _defaulted_parameters(tree)
                if not any(_passes(c, parameter, index) for c in calls.get(callee, ()))]
    assert not unpassed, ("defaulted parameters that no call in a run passes:\n"
                          + "\n".join(unpassed))


def _imported_names(tree):
    """(bound name, line) of every name an import in ``tree`` binds, the
    ``__future__`` imports excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_read():
    # a module reads a name it loads; the names it lists in ``__all__`` are
    # read by its importers
    unread = []
    for path, tree in _trees().items():
        if not path.startswith("src/"):
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        unread += [f"{path}:{line}: {name}"
                   for name, line in _imported_names(tree) if name not in read]
    assert not unread, "imported names that their module never reads:\n" + "\n".join(unread)
