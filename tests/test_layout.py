"""Code layout: every public function, class and method of the package is
used by the package itself or by the benchmark harness, not only by the
tests.

A module-level function or class of ``gancomm/m.py`` counts as used only
where a referrer names it through ``m``: as ``m.name`` with ``m`` bound by
``from . import m`` or ``from gancomm import m``, by ``from .m import name``
or ``from gancomm.m import name``, or as a bare ``name`` inside ``m.py``
itself. Methods and properties are matched by name alone, since resolving
them would need types."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gancomm"
MODULES = sorted(PACKAGE.glob("*.py"))
OTHERS = sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(tree):
    """(qualified name, name, is method) of each public top-level function
    and class and of each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def referenced_names(tree):
    """Every name a module reads, as a bare name, an attribute or an
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def package_module(node):
    """The package module an import names (``m`` of ``from .m`` or
    ``from gancomm.m``), "" for the package itself, or None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module == "gancomm":
        return ""
    if node.level == 0 and (node.module or "").startswith("gancomm."):
        return node.module[len("gancomm."):]
    return None


def resolved_names(tree, own):
    """(module, name) of every package-level name a file reads through its
    module; own is the file's module name in the package, or None. Imports
    bind a module for the whole file, whatever their scope."""
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    bound = {
        alias.asname or alias.name: alias.name
        for node in imports if package_module(node) == ""
        for alias in node.names
    }
    for node in imports:
        module = package_module(node)
        if module:
            yield from ((module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            yield bound[node.value.id], node.attr
        elif isinstance(node, ast.Name) and own is not None:
            yield own, node.id


def unused_definitions(modules, others):
    """(path, qualified name) of each public definition of the package's
    modules that no referrer uses. modules maps each package file's path to
    its syntax tree, others each other referrer's path to its tree."""
    used = {pair for path, tree in modules.items()
            for pair in resolved_names(tree, path.stem)}
    used |= {pair for tree in others.values()
             for pair in resolved_names(tree, None)}
    names = {name for tree in (*modules.values(), *others.values())
             for name in referenced_names(tree)}
    return [
        (path, qualified)
        for path, tree in modules.items()
        for qualified, name, is_method in public_definitions(tree)
        if (name not in names if is_method else (path.stem, name) not in used)
    ]


def parse(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def test_no_public_name_is_used_only_by_the_tests():
    unused = unused_definitions(parse(MODULES), parse(OTHERS))
    assert not unused, "public names nothing in the package or perfbench refers to: " + (
        ", ".join(f"{path.relative_to(ROOT)}: {qualified}" for path, qualified in unused))


def test_a_name_counts_only_when_read_through_its_module():
    sources = {
        Path("a.py"): "def f():\n    pass\n\n\ndef g():\n    pass\n",
        Path("b.py"): "from . import a\n\na.f()\nobject().g\n",
    }
    modules = {path: ast.parse(text) for path, text in sources.items()}
    assert unused_definitions(modules, {}) == [(Path("a.py"), "g")]
