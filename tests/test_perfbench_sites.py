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
