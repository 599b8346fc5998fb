"""Every name that ``src/isocone`` defines has a consumer beyond unit tests.

A top-level function or class of the package, and every method of such a
class that is not a dunder, must be named somewhere in the package itself,
the demos, the benchmark harness or the acceptance suite.  Code that only
the unit tests reach serves no command, demo or criterion, so it goes.

The scan is by name, not by binding: a method counts as used when any
consumer names an attribute of that spelling.  It reads identifiers from
names, attributes, import aliases and string constants, because the
benchmark harness looks its trace sites up by string.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "isocone").glob("*.py"))
CONSUMERS = [*PACKAGE, *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]


def used_names(tree):
    """Every identifier that ``tree`` names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def defined_names(tree):
    """``(qualified name, name)`` of each top-level function and class of
    ``tree``, and of each method of those classes that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def unconsumed(tree, used):
    """The names ``tree`` defines that are not among ``used``."""
    return [qual for qual, name in defined_names(tree) if name not in used]


def test_every_package_name_has_a_consumer():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in CONSUMERS}
    used = set().union(*map(used_names, trees.values()))
    dead = [f"{path.name}: {qual}" for path in PACKAGE
            for qual in unconsumed(trees[path], used)]
    assert dead == []


def test_scan_flags_a_name_only_its_definition_mentions():
    lib = ast.parse("class A:\n"
                    "    def used(self): pass\n"
                    "    def unused(self): pass\n"
                    "    def __repr__(self): return helper()\n"
                    "def helper(): pass\n"
                    "def orphan(): pass\n")
    user = ast.parse("from lib import A\nA().used()\n")
    used = used_names(lib) | used_names(user)
    assert unconsumed(lib, used) == ["A.unused", "orphan"]
