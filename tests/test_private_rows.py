"""``IncrementalSystem``'s stored rows stay inside ``linalg``.

``reduced()`` is the system's one read-out, so no module of
``src/isocone`` other than ``linalg`` names the stored-row table
``pivot_rows``: not as an attribute, a variable or a string.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "isocone").glob("*.py"))


def naming_lines(tree, name):
    """The lines on which ``tree`` names ``name``."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == name
                   or isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Constant) and node.value == name})


def test_only_linalg_names_pivot_rows():
    found = [f"{path.name}:{line}" for path in PACKAGE
             if path.stem != "linalg"
             for line in naming_lines(ast.parse(path.read_text()),
                                      "pivot_rows")]
    assert found == []


def test_scan_flags_every_way_of_naming():
    tree = ast.parse("rows = sysm.pivot_rows\n"
                     "marks = sysm.pivots\n"
                     "pivot_rows = {}\n"
                     "getattr(sysm, 'pivot_rows')\n")
    assert naming_lines(tree, "pivot_rows") == [1, 3, 4]
