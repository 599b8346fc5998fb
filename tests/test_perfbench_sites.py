"""The benchmark's trace sites resolve against the package.

``perfbench/spans.py`` wraps named functions, methods and classes where the
code under test looks them up.  Renaming or deleting one of them would
otherwise only show up as a ``KeyError`` in a traced benchmark run.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_sites_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert len(spans.SITES) == 27
    originals = []
    for modname, clsname, attr, _ in spans.SITES:
        owner = importlib.import_module(modname)
        if clsname:
            owner = getattr(owner, clsname)
        originals.append((owner, attr, owner.__dict__[attr]))

    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attr, orig in originals:
            assert owner.__dict__[attr] is not orig, attr
    finally:
        tracer.uninstall()
    for owner, attr, orig in originals:
        assert owner.__dict__[attr] is orig, attr


def test_traced_flat_commands_print_the_same(tmp_path, capsys, monkeypatch):
    # a traced run replaces the site io.FlatSurface with a plain function,
    # so a reader that built surfaces through that name would fail under
    # --trace 1 while every untraced test passed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    from isocone import cli
    src = tmp_path / "pillowcase.txt"
    surface = cli._fixture_text("pillowcase")
    src.write_text("".join(line for line in surface.splitlines(True)
                           if not line.startswith("tangent ")))
    out = tmp_path / "delaunay.txt"
    commands = [["surface", "delaunay", "--input", str(src),
                 "--output", str(out)],
                ["surface", "symplectic-check", "--input", str(out),
                 "--seed", "3", "--depth", "2"]]
    printed = []
    for traced in (False, True):
        tracer = spans.Tracer()
        if traced:
            tracer.install()
            tracer.qid = 0
        try:
            for argv in commands:
                assert cli.run(argv) == 0
                captured = capsys.readouterr()
                printed.append((captured.out, captured.err, out.read_text()))
        finally:
            tracer.uninstall()
    assert printed[:2] == printed[2:]
    names = {span[0] for span in tracer.spans}
    assert {"isocone.io.parse_flatsurface", "isocone.cli.delaunay",
            "isocone.cli.kahler_pairing_numeric"} <= names
