"""Code layout: every public function, class and method of the package is
used by the package itself or by the benchmark harness, not only by the
tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gancomm"
REFERRERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(tree):
    """(qualified name, name) of each public top-level function and class
    and of each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


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


def test_no_public_name_is_used_only_by_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in REFERRERS}
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    unused = [
        f"{path.relative_to(ROOT)}: {qualified}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for qualified, name in public_definitions(tree) if name not in used
    ]
    assert not unused, "public names nothing in the package or perfbench refers to: " + (
        ", ".join(unused))
