"""Every name that ``src/isocone`` defines has a consumer beyond unit tests.

A top-level function, class or constant (a module-level assignment to a
name that is not a dunder) of the package, and every method of such a
class that is not a dunder, must be named somewhere in the package itself,
the demos, the benchmark harness or the acceptance suite.  Code that only
the unit tests reach serves no command, demo or criterion, so it goes.

The scan is by name, not by binding: a method counts as used when any
consumer names an attribute of that spelling.  It reads identifiers from
names that are read (not the targets of assignments), attributes, import
aliases and string constants, because the benchmark harness looks its
trace sites up by string.

A second scan does the same for stored state: every attribute that a
method of a package class assigns on ``self`` must be read, as an
attribute load of that spelling, by some consumer.  Storing into an item
of the attribute (``self.seen[k] = v``) does not read it.
"""

import ast
import functools
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
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(tree):
    """``(qualified name, name)`` of each top-level function, class and
    constant of ``tree``, and of each method of those classes that is not a
    dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def unconsumed(tree, used):
    """The names ``tree`` defines that are not among ``used``."""
    return [qual for qual, name in defined_names(tree) if name not in used]


def stored_attributes(tree):
    """``(qualified name, attribute)`` of each attribute that a method of a
    top-level class of ``tree`` assigns on ``self``, once per class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            attrs = {sub.attr for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute)
                     and isinstance(sub.ctx, ast.Store)
                     and isinstance(sub.value, ast.Name)
                     and sub.value.id == "self"}
            for attr in sorted(attrs):
                yield f"{node.name}.{attr}", attr


def read_attributes(tree):
    """Every attribute that ``tree`` loads, other than as the container of
    an item it assigns or deletes."""
    containers = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and not isinstance(node.ctx, ast.Load)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in containers}


def unread(tree, read):
    """The attributes ``tree`` stores that are not among ``read``."""
    return [qual for qual, attr in stored_attributes(tree) if attr not in read]


@functools.cache
def _trees():
    """The parsed consumers, by path."""
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in CONSUMERS}


def test_every_package_name_has_a_consumer():
    trees = _trees()
    used = set().union(*map(used_names, trees.values()))
    dead = [f"{path.name}: {qual}" for path in PACKAGE
            for qual in unconsumed(trees[path], used)]
    assert dead == []


def test_scan_flags_a_name_only_its_definition_mentions():
    lib = ast.parse("__all__ = ['A']\n"
                    "TABLE = (1, 2)\n"
                    "ORPHAN, _PAIRS = TABLE, ()\n"
                    "LIMIT: int = len(_PAIRS)\n"
                    "class A:\n"
                    "    def used(self): pass\n"
                    "    def unused(self): pass\n"
                    "    def __repr__(self): return helper()\n"
                    "def helper(): pass\n"
                    "def orphan(): pass\n")
    user = ast.parse("from lib import A, LIMIT\nA().used()\n")
    used = used_names(lib) | used_names(user)
    assert unconsumed(lib, used) == ["ORPHAN", "A.unused", "orphan"]


def test_every_stored_attribute_is_read():
    trees = _trees()
    read = set().union(*map(read_attributes, trees.values()))
    dead = [f"{path.name}: {qual}" for path in PACKAGE
            for qual in unread(trees[path], read)]
    assert dead == []


def test_scan_flags_an_attribute_nothing_reads():
    lib = ast.parse("class A:\n"
                    "    def __init__(self, n):\n"
                    "        self.n, self.items = n, []\n"
                    "        self.cache = {}\n"
                    "        self.count = 0\n"
                    "        self.log = self.sink = None\n"
                    "    def put(self, k):\n"
                    "        self.items.append(k)\n"
                    "        self.cache[k] = self.n\n"
                    "        self.count += 1\n"
                    "        del self.cache[k]\n"
                    "def helper(a):\n"
                    "    a.other = 1\n")
    user = ast.parse("from lib import A\nprint(A(1).sink)\n")
    read = read_attributes(lib) | read_attributes(user)
    assert unread(lib, read) == ["A.cache", "A.count", "A.log"]
