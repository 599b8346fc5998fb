import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from isocone import homology
from isocone.homology import RibbonGraph, SurfaceHomology


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
        assert hom.rank() == 2
        J = hom.pairing_matrix
        assert J[0][1] == -J[1][0] != 0

    def test_genus2_rank_and_nondegeneracy(self):
        hom = SurfaceHomology(genus2_rose())
        assert hom.rank() == 4
        from isocone import linalg
        assert linalg.rank([list(r) for r in hom.pairing_matrix]) == 4

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


class TestDisconnected:
    def test_two_tori_block_pairing(self):
        edges = {"a": ("v", "v"), "b": ("v", "v"),
                 "c": ("w", "w"), "d": ("w", "w")}
        rot = {"v": [("a", 0), ("b", 0), ("a", 1), ("b", 1)],
               "w": [("c", 0), ("d", 0), ("c", 1), ("d", 1)]}
        rg = RibbonGraph(edges, rot)
        hom = SurfaceHomology(rg)
        assert hom.rank() == 4
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
    path = pathlib.Path(homology.__file__)
    lines = [line.strip() for line in path.read_text().splitlines()]
    code = [line for line in lines if line and not line.startswith("#")]
    assert len(code) <= 239
