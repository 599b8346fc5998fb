"""Byte-for-byte CLI output on the bundled fixtures.

Each case runs ``isocone.cli.run`` on inputs built from the fixtures and
compares stdout with ``tests/golden/<case>.txt``.  The cone cases pin the
edge-class ids, the ``choice``/``witness`` lines of ``cone member`` and the
component spans; the surface cases pin validation, the Delaunay
retriangulation and the exact pairings (the floating-point quadrature block
of ``symplectic-check`` is cut off before comparing).

Regenerate the expected files, after checking that a change of output is
intended, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import importlib
import io as _io
import pathlib
import sys
from fractions import Fraction

import pytest

from isocone import fixtures, flatsurf, io
from isocone.cli import run
from util import mixed_query, off_diagonal_weight

GOLDEN = pathlib.Path(__file__).with_name("golden")
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

FIXTURES = ("square_torus", "hex_torus", "lshape_h2", "pillowcase",
            "g2_track", "two_tets", "chain4", "g2xI")
SURFACES = ("square_torus", "hex_torus", "lshape_h2", "pillowcase")
QUADRATURE = "quadrature (floating point):"


def _run(argv):
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(argv)
    assert rc == 0, f"{argv} exited {rc}"
    return out.getvalue()


def _fixture(tmp, name):
    path = tmp / f"{name}.txt"
    _run(["fixtures", name, "--output", str(path)])
    return str(path)


def _sheared_lshape(tmp):
    path = tmp / "lshape_sheared.txt"
    surf = flatsurf.lshape_h2().shear(Fraction(1, 3))
    path.write_text(io.serialize_flatsurface(surf))
    return str(path)


def _chain(tmp, n):
    # every boundary triangle's outgoing branch in slot 0, as the benchmark
    # writes its chain inputs
    m = fixtures.chain_tets(n)
    path = tmp / f"chain{n}.txt"
    path.write_text(io.serialize_manifold(
        m, outgoing={tf: 0 for tf in m.boundary_faces}))
    return str(path)


def _g2xI_weight(tmp, name, wb):
    # the g2xI fixture with its track and the boundary weight wb
    bundle = fixtures.g2_product_bundle()
    path = tmp / f"g2xI-{name}.txt"
    path.write_text(io.serialize_manifold(
        bundle["manifold"], outgoing=bundle["outgoing"], weights=wb(bundle)))
    return str(path)


def _mixed(tmp):
    # the product with two torus and two genus-2 boundary components, its
    # track on the genus-2 copies and a diagonal weight, zero on the tori
    m, _, wb, outgoing = mixed_query()
    path = tmp / "mixed.txt"
    path.write_text(io.serialize_manifold(m, outgoing=outgoing, weights=wb))
    return str(path)


def _basis_tangents(tmp, name):
    # the surface with the first two vectors of its tangent basis bundled
    surf = getattr(flatsurf, name)()
    path = tmp / f"{name}_basis.txt"
    path.write_text(io.serialize_flatsurface(
        surf, flatsurf.tangent_basis(surf)[:2]))
    return str(path)


def _exact_part(text):
    return text.split(QUADRATURE, 1)[0]


def _sheared_grid3_delaunay_symplectic(tmp):
    # the benchmark's grid torus builder; ``perfbench`` is on sys.path
    grid = importlib.import_module("surfaces").grid_torus(3)
    src = tmp / "grid3_sheared.txt"
    src.write_text(io.serialize_flatsurface(grid.shear(Fraction(5, 3))))
    out = tmp / "grid3_delaunay.txt"
    text = _run(["surface", "delaunay", "--input", str(src),
                 "--output", str(out)])
    return text + _exact_part(_run(
        ["surface", "symplectic-check", "--input", str(out),
         "--seed", "1", "--depth", "2"]))


# case name -> function of a scratch directory returning the compared text
CASES = {}
for _name in FIXTURES:
    CASES[f"fixtures-{_name}"] = (
        lambda tmp, n=_name: _run(["fixtures", n]))
for _name in SURFACES:
    CASES[f"surface-validate-{_name}"] = (
        lambda tmp, n=_name: _run(["surface", "validate",
                                   "--input", _fixture(tmp, n)]))
for _name in ("hex_torus", "pillowcase"):
    CASES[f"surface-symplectic-check-{_name}"] = (
        lambda tmp, n=_name: _exact_part(_run(
            ["surface", "symplectic-check", "--input", _fixture(tmp, n),
             "--seed", "1", "--depth", "2"])))
CASES["surface-delaunay-lshape_h2-shear-1_3"] = (
    lambda tmp: _run(["surface", "delaunay", "--input", _sheared_lshape(tmp)]))
CASES["surface-delaunay-symplectic-grid3-shear-5_3"] = (
    _sheared_grid3_delaunay_symplectic)
CASES["surface-heights-lshape_h2-rotate-2+1i"] = (
    lambda tmp: _run(["surface", "heights", "--input",
                      _fixture(tmp, "lshape_h2"), "--rotate", "2+1i"]))
CASES["surface-track-lshape_h2-rotate-1_2+1_3i"] = (
    lambda tmp: _run(["surface", "track", "--input",
                      _fixture(tmp, "lshape_h2"), "--rotate", "1/2+1/3i"]))
CASES["surface-validate-lshape_h2-rotate-1_2+1_3i"] = (
    lambda tmp: _run(["surface", "validate", "--input",
                      _fixture(tmp, "lshape_h2"), "--rotate", "1/2+1/3i"]))
# bundled tangents under a rotation, quadrature block included
for _name in ("lshape_h2", "pillowcase"):
    CASES[f"surface-symplectic-check-{_name}-basis-rotate-2+1i"] = (
        lambda tmp, n=_name: _run(
            ["surface", "symplectic-check", "--input",
             _basis_tangents(tmp, n), "--rotate", "2+1i", "--depth", "2"]))
CASES["cone-member-g2xI"] = (
    lambda tmp: _run(["cone", "member", "--input", _fixture(tmp, "g2xI")]))
# a non-member whose search finds no choice vector (11,687 pushes)
CASES["cone-member-g2xI-offdiag21"] = (
    lambda tmp: _run(["cone", "member", "--input", _g2xI_weight(
        tmp, "offdiag21", lambda b: off_diagonal_weight(b, 21))]))
# weight 1 on every boundary edge breaks the switch relations
CASES["cone-member-g2xI-switch"] = (
    lambda tmp: _run(["cone", "member", "--input", _g2xI_weight(
        tmp, "ones", lambda b: dict.fromkeys(
            b["manifold"].boundary.edge_classes, 1))]))
CASES["cone-member-mixed"] = (
    lambda tmp: _run(["cone", "member", "--input", _mixed(tmp)]))
CASES["cone-compute-mixed-sample2-seed5"] = (
    lambda tmp: _run(["cone", "compute", "--input", _mixed(tmp),
                      "--choices", "sample:2", "--seed", "5"]))
CASES["cone-compute-chain4"] = (
    lambda tmp: _run(["cone", "compute", "--input", _fixture(tmp, "chain4")]))
CASES["cone-compute-chain5"] = (
    lambda tmp: _run(["cone", "compute", "--input", _chain(tmp, 5)]))
CASES["cone-isotropy-g2xI-sample3-seed7"] = (
    lambda tmp: _run(["cone", "isotropy", "--input", _fixture(tmp, "g2xI"),
                      "--choices", "sample:3", "--seed", "7"]))
CASES["cone-compute-g2xI-sample2-seed3"] = (
    lambda tmp: _run(["cone", "compute", "--input", _fixture(tmp, "g2xI"),
                      "--choices", "sample:2", "--seed", "3"]))
CASES["cone-compute-g2xI-sample8-seed11"] = (
    lambda tmp: _run(["cone", "compute", "--input", _fixture(tmp, "g2xI"),
                      "--choices", "sample:8", "--seed", "11"]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert CASES[case](tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(PERFBENCH))
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.txt").write_text(CASES[case](pathlib.Path(d)))
            print(f"wrote {case}")
