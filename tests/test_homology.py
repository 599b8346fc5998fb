import importlib
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from isocone import homology, linalg
from isocone.flatsurf import (
    square_torus, hex_torus, lshape_h2, pillowcase, delaunay,
    orientation_double_cover,
)
from isocone.homology import RibbonGraph, SurfaceHomology
from util import code_lines

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def torus_rose():
    """One vertex, two loops a, b with ccw order a0 b0 a1 b1 (genus 1)."""
    edges = {"a": ("v", "v"), "b": ("v", "v")}
    rot = {"v": [("a", 0), ("b", 0), ("a", 1), ("b", 1)]}
    return RibbonGraph(edges, rot)


def genus2_rose():
    """One vertex, loops a,b,c,d with the standard genus-2 gluing word."""
    edges = {x: ("v", "v") for x in "abcd"}
    rot = {"v": [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                 ("c", 0), ("d", 0), ("c", 1), ("d", 1)]}
    return RibbonGraph(edges, rot)


def two_tori():
    """Two disjoint torus roses: loops a, b at v and c, d at w."""
    edges = {"a": ("v", "v"), "b": ("v", "v"),
             "c": ("w", "w"), "d": ("w", "w")}
    rot = {"v": [("a", 0), ("b", 0), ("a", 1), ("b", 1)],
           "w": [("c", 0), ("d", 0), ("c", 1), ("d", 1)]}
    return RibbonGraph(edges, rot)


def _surface_ribbons(monkeypatch):
    """Skeleton ribbons of the bundled surfaces, of the benchmark's sheared
    grid tori n = 2..6 before and after Delaunay, and of the pillowcase
    double cover."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    grid_torus = importlib.import_module("surfaces").grid_torus
    surfaces = [make() for make in
                (square_torus, hex_torus, lshape_h2, pillowcase)]
    for n in range(2, 7):
        s = grid_torus(n).shear(Fraction(3, 2))
        surfaces += [s, delaunay(s)]
    surfaces.append(orientation_double_cover(pillowcase())[0])
    return [s.comb.skeleton_ribbon() for s in surfaces]


def _reference_intersection(rg, x, y):
    """``RibbonGraph.intersection`` with the chord ends of both systems in
    one list of ``(position, system, mass)``, positions counted up by
    one per strand."""
    for flow in (x, y):
        net = {v: Fraction(0) for v in rg.rot}
        for e, val in flow.items():
            u, v = rg.edges[e]
            net[u] -= Fraction(val)
            net[v] += Fraction(val)
        assert not any(net.values()), "flows must be conservative"
    total = Fraction(0)
    for v, ds in rg.rot.items():
        pts = []
        p = 0
        for e, i in ds:
            sgn = 1 if i == 1 else -1
            xm = Fraction(x.get(e, 0)) * sgn
            ym = Fraction(y.get(e, 0)) * sgn
            order = ([("y", ym), ("x", xm)] if i == 0
                     else [("x", xm), ("y", ym)])
            for system, mass in order:
                if mass != 0:
                    pts.append((p, system, mass))
                p += 1
        xchords = homology._chords([(q, m) for q, s, m in pts if s == "x"])
        ychords = homology._chords([(q, m) for q, s, m in pts if s == "y"])
        for (p1, q1, m1) in xchords:
            for (p2, q2, m2) in ychords:
                total += homology._crossing_sign(p1, q1, p2, q2) * m1 * m2
    return total


def _reference_faces(rg):
    """Face orbits, each started at the least remaining dart by repr."""
    nxt = {}
    for ds in rg.rot.values():
        for j, d in enumerate(ds):
            nxt[d] = ds[(j + 1) % len(ds)]
    nxt = {(e, i): nxt[(e, 1 - i)] for (e, i) in nxt}
    faces = []
    todo = set(nxt)
    while todo:
        d = min(todo, key=repr)
        orbit = []
        while d in todo:
            todo.remove(d)
            orbit.append(d)
            d = nxt[d]
        faces.append(orbit)
    return faces


def _reference_basis(hom):
    """The basis and intersection matrix from dense ``Fraction`` face rows
    over the non-tree edges, ``linalg.rref`` for their pivots, and the
    intersection of every ordered pair of basis cycles."""
    rows = []
    for face in hom.ribbon.faces():
        flow = {}
        for e, i in face:
            flow[e] = flow.get(e, Fraction(0)) + (1 if i == 0 else -1)
        rows.append([Fraction(flow.get(e, 0)) for e in hom.nontree])
    pivots = set(linalg.rref(rows)[1])
    basis = [hom.flow_from_nontree({e: Fraction(1)})
             for j, e in enumerate(hom.nontree) if j not in pivots]
    return basis, [[_reference_intersection(hom.ribbon, x, y) for y in basis]
                   for x in basis]


class TestRibbon:
    def test_torus_counts(self):
        rg = torus_rose()
        assert rg.num_faces() == 1
        assert rg.euler_characteristic() == 0
        assert rg.genus() == 1

    def test_genus2_counts(self):
        rg = genus2_rose()
        assert rg.euler_characteristic() == -2
        assert rg.genus() == 2

    def test_sphere_theta(self):
        # theta graph on the sphere: two vertices, three parallel edges
        edges = {i: ("u", "v") for i in range(3)}
        rot = {"u": [(0, 0), (1, 0), (2, 0)],
               "v": [(2, 1), (1, 1), (0, 1)]}
        rg = RibbonGraph(edges, rot)
        assert rg.euler_characteristic() == 2


class TestIntersection:
    def test_torus_basis(self):
        rg = torus_rose()
        a = {"a": Fraction(1)}
        b = {"b": Fraction(1)}
        assert rg.intersection(a, b) == 1
        assert rg.intersection(b, a) == -1
        assert rg.intersection(a, a) == 0

    def test_bilinear(self):
        rg = genus2_rose()
        rng = random.Random(31)
        loops = "abcd"
        for _ in range(40):
            x = {e: Fraction(rng.randint(-3, 3)) for e in loops}
            y = {e: Fraction(rng.randint(-3, 3)) for e in loops}
            z = {e: Fraction(rng.randint(-3, 3)) for e in loops}
            ixy = rg.intersection(x, y)
            assert rg.intersection(y, x) == -ixy
            xz = {e: x[e] + z[e] for e in loops}
            assert rg.intersection(xz, y) == ixy + rg.intersection(z, y)

    def test_nonconservative_rejected(self):
        edges = {0: ("u", "v")}
        rot = {"u": [(0, 0)], "v": [(0, 1)]}
        rg = RibbonGraph(edges, rot)
        with pytest.raises(ValueError):
            rg.intersection({0: Fraction(1)}, {})


class TestHomologyBasis:
    def test_torus(self):
        hom = SurfaceHomology(torus_rose())
        assert len(hom.basis_flows) == 2
        J = hom.pairing_matrix
        assert J[0][1] == -J[1][0] != 0

    def test_genus2_rank_and_nondegeneracy(self):
        hom = SurfaceHomology(genus2_rose())
        assert len(hom.basis_flows) == 4
        from isocone import linalg
        assert linalg.rank([list(r) for r in hom.pairing_matrix]) == 4

    def test_sphere_pairs_to_zero(self):
        edges = {i: ("u", "v") for i in range(3)}
        rot = {"u": [(0, 0), (1, 0), (2, 0)],
               "v": [(2, 1), (1, 1), (0, 1)]}
        hom = SurfaceHomology(RibbonGraph(edges, rot))
        assert len(hom.basis_flows) == 0 and hom.pairing_matrix == []
        val = hom.pair_cocycles({0: Fraction(1)}, {1: Fraction(2)})
        assert val == 0 and type(val) is Fraction

    def test_cocycle_pairing_torus(self):
        # periods of dy on (a, b) = (0, 1); of dx = (1, 0); integral of
        # dy wedge dx over the square torus is -1
        hom = SurfaceHomology(torus_rose())
        alpha = {"a": Fraction(0), "b": Fraction(1)}
        beta = {"a": Fraction(1), "b": Fraction(0)}
        val = hom.pair_cocycles(alpha, beta)
        assert val in (Fraction(1), Fraction(-1))
        # skew symmetry regardless of orientation convention
        assert hom.pair_cocycles(beta, alpha) == -val


class TestReference:
    def test_basis_and_matrix_match_dense_reference(self, monkeypatch):
        ribbons = [torus_rose(), genus2_rose(), two_tori()]
        ribbons += _surface_ribbons(monkeypatch)
        ranks = []
        for rg in ribbons:
            assert rg.faces() == _reference_faces(rg)
            hom = SurfaceHomology(rg)
            basis, matrix = _reference_basis(hom)
            assert hom.basis_flows == basis
            assert hom.pairing_matrix == matrix
            assert {type(x) for row in hom.pairing_matrix for x in row} \
                <= {Fraction}
            ranks.append(len(hom.basis_flows))
        # genus 1, 2, two tori, then the surfaces: square, hex and grid
        # tori of genus 1, the L of genus 2, the pillowcase sphere and its
        # cover of genus 1
        assert ranks == [2, 4, 4, 2, 2, 4, 0] + [2] * 10 + [2]

    def test_intersection_matches_reference(self):
        rng = random.Random(5)
        for rg in (genus2_rose(), two_tori()):
            basis = SurfaceHomology(rg).basis_flows
            for _ in range(20):
                x, y = ({e: sum(Fraction(rng.randint(-3, 3)) * f.get(e, 0)
                                for f in basis) for e in rg.edges}
                        for _ in range(2))
                assert rg.intersection(x, y) == \
                    _reference_intersection(rg, x, y)


class TestDisconnected:
    def test_two_tori_block_pairing(self):
        rg = two_tori()
        hom = SurfaceHomology(rg)
        assert len(hom.basis_flows) == 4
        # two basis cycles lie on each torus, and the matrix is block
        # diagonal
        side = [{e in "ab" for e in f} for f in hom.basis_flows]
        assert sorted(map(sorted, side)) == [[False]] * 2 + [[True]] * 2
        for i, j in itertools.product(range(4), repeat=2):
            if side[i] != side[j]:
                assert hom.pairing_matrix[i][j] == 0
        x = {"a": Fraction(1), "c": Fraction(2)}
        y = {"b": Fraction(1), "d": Fraction(-1)}
        assert rg.intersection(x, y) == 1 - 2

    def test_trivial_sign_cocycle_cover(self):
        # a torus declared half-translation has a disconnected double
        # cover; the homological route must still match the others
        import random
        from isocone.flatsurf import (
            square_torus, FlatSurface, random_tangent, delaunay,
            omega_thurston, omega_hessian, omega_homological)
        s0 = square_torus()
        s = FlatSurface("half-translation", s0.triangles, s0.vectors,
                        s0.glue, s0.signs)
        s, _ = delaunay(s).adapted()
        rng = random.Random(9)
        for _ in range(8):
            t1 = random_tangent(s, rng)
            t2 = random_tangent(s, rng)
            a = omega_thurston(s, t1, t2)
            assert a == omega_hessian(s, t1, t2)
            assert a == omega_homological(s, t1, t2)


def test_code_line_count():
    # cycles pair by direct ribbon intersection: basis coordinates of a
    # cycle and a stored face reduction would not fit
    assert code_lines("homology") <= 215
