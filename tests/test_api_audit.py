"""Every public name serves a command, or README lists it as library API.

A name in a module's ``__all__`` is reached when another function or module
of ``src/becbox`` refers to it; the re-exports in ``__init__`` do not count.
A public method or property of a class in ``__all__``, named ``Class.name``,
is reached when code outside its own body reads an attribute of that name
from anything but an imported module: ``np.linalg.norm`` or a local variable
``norm`` does not reach ``GridField.norm``.
A name that nothing reaches must be listed, with its reason, in the
``## Library API`` table of README.md, and that table lists nothing else.
The sources are read with ``ast``; nothing is imported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "becbox"
README = ROOT / "README.md"


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}


def _exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defines(node) -> set:
    """Names a top-level statement binds: its own references do not reach them."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _imported_modules(tree) -> set:
    """Names a module binds to modules: ``import x [as y]`` and ``from . import x``."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in n.names)
        elif isinstance(n, ast.ImportFrom) and n.module is None:
            out.update(a.asname or a.name for a in n.names)
    return out


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _referenced(node, modules: set):
    """(name, whether it is an attribute read from something other than a module)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, False
        elif isinstance(n, ast.Attribute):
            yield n.attr, _root(n.value) not in modules


def _is_method(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def exported() -> dict:
    """__all__ name, and Class.name for each public method or property of a
    class in __all__ -> its module."""
    out = {}
    for mod, tree in _modules().items():
        names = _exported(tree)
        out.update((name, mod) for name in names)
        out.update((f"{node.name}.{item.name}", mod)
                   for node in tree.body if isinstance(node, ast.ClassDef) and node.name in names
                   for item in node.body if _is_method(item) and not item.name.startswith("_"))
    return out


def _uses():
    """(module, names defined where the reference sits, referenced name,
    whether it can reach a method); a method's own body also defines its
    Class.name."""
    for mod, tree in _modules().items():
        modules = _imported_modules(tree)
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                parts = [node]
            else:
                parts = node.body + node.decorator_list + node.bases
            for part in parts:
                owners = _defines(node)
                if part is not node and _is_method(part):
                    owners = owners | {f"{node.name}.{part.name}"}
                for name, reaches_method in _referenced(part, modules):
                    yield mod, owners, name, reaches_method


def unreached() -> set:
    uses = list(_uses())
    return {name for name, mod in exported().items()
            if not any(used == name.rsplit(".", 1)[-1] and (m != mod or name not in owners)
                       and (reaches_method or "." not in name)
                       for m, owners, used, reaches_method in uses)}


def listed() -> dict:
    """Library API table of README.md: name -> reason."""
    text = README.read_text(encoding="utf-8")
    assert "\n## Library API\n" in text, "README.md has no '## Library API' section"
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    rows = (re.match(r"\|\s*`([\w.]+)`\s*\|\s*(.*?)\s*\|\s*$", line) for line in section.splitlines())
    return {m.group(1): m.group(2) for m in rows if m}


def test_every_unreached_name_is_listed():
    missing = unreached() - set(listed())
    assert not missing, f"reached by no function or module and not in README: {sorted(missing)}"


def test_listed_names_exist_with_a_reason():
    names = exported()
    for name, reason in listed().items():
        assert name in names, f"README lists {name!r}, which no module exports"
        assert reason, f"README lists {name!r} without a reason"


def test_listed_names_are_unreached():
    reached = set(listed()) - unreached()
    assert not reached, f"README lists names a module already reaches: {sorted(reached)}"
