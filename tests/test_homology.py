import functools
import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isocone import linalg
from isocone.flatsurf import (
    square_torus, hex_torus, lshape_h2, pillowcase, delaunay,
    orientation_double_cover, random_tangent, lift_tangent,
)
from isocone.homology import RibbonGraph, SurfaceHomology, pivot_forest
from util import (code_lines, reference_faces, reference_forest_basis,
                  reference_kernel_basis, reference_union_find)

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


def traced(rg):
    """``SurfaceHomology`` of a ribbon graph on its traced faces."""
    return SurfaceHomology(rg, reference_faces(rg))


@functools.cache
def _grid_module():
    spec = importlib.util.spec_from_file_location(
        "surfaces", PERFBENCH / "surfaces.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


def _sheared_grid(n, shear, retriangulate):
    """The benchmark's n x n grid torus sheared by ``shear``, after
    Delaunay if ``retriangulate``."""
    s = _grid_module().grid_torus(n).shear(shear)
    return delaunay(s) if retriangulate else s


@functools.cache
def _bundled_surfaces():
    """The bundled surfaces and their orientation double covers."""
    surfaces = [make() for make in
                (square_torus, hex_torus, lshape_h2, pillowcase)]
    return surfaces + [orientation_double_cover(s) for s in surfaces]


@functools.cache
def _surface_ribbons():
    """Skeleton ribbons and triangle faces of the bundled surfaces, of the
    benchmark's sheared grid tori n = 2..6 before and after Delaunay, and
    of the pillowcase double cover."""
    surfaces = _bundled_surfaces()[:4]
    for n in range(2, 7):
        surfaces += [_sheared_grid(n, Fraction(3, 2), d) for d in (0, 1)]
    surfaces.append(_bundled_surfaces()[-1])
    return [s.comb.skeleton_ribbon() for s in surfaces]


@functools.cache
def _ribbons():
    """The roses on their traced faces, then the surface ribbons on their
    triangle faces, as ``(ribbon, faces)``."""
    roses = [torus_rose(), genus2_rose(), two_tori()]
    return [(rg, reference_faces(rg)) for rg in roses] + _surface_ribbons()


def _chords(points):
    """Stack matching of signed masses on a circle into directed chords.

    Points are ``(position, mass)`` with positive mass entering the disk.
    Returns chords ``(pos_in, pos_out, mass)`` with ``mass > 0``.  Any
    matching gives the same total crossing count against the other system,
    so the first-fit stack matching is as good as any.
    """
    stack = []  # (position, remaining signed mass)
    chords = []
    for pos, mass in points:
        m = mass
        while m != 0:
            if not stack or (stack[-1][1] > 0) == (m > 0):
                stack.append((pos, m))
                m = Fraction(0)
            else:
                spos, sm = stack.pop()
                take = min(abs(m), abs(sm))
                if m > 0:
                    chords.append((pos, spos, take))
                else:
                    chords.append((spos, pos, take))
                if abs(sm) > take:
                    stack.append((spos, sm + (take if m > 0 else -take)))
                m += -take if m > 0 else take
    if stack:
        raise ValueError("unbalanced masses at a vertex")
    return chords


def _crossing_sign(p, q, r, s):
    """Sign of the crossing of directed chords p->q and r->s, else 0.

    Positions are distinct integers on a ccw circle.  The chords cross iff
    exactly one of r, s lies inside the ccw arc (p, q); the sign is +1 when
    the ccw order around the circle reads p, r, q, s.
    """
    r_in = _ccw_between(p, r, q)
    s_in = _ccw_between(p, s, q)
    if r_in == s_in:
        return 0
    return 1 if r_in else -1


def _ccw_between(a, x, b):
    if a < b:
        return a < x < b
    return x > a or x < b


def _reference_intersection(rg, x, y):
    """The retired chord count of ``RibbonGraph.intersection``: both
    systems' strands in one list of ``(position, system, mass)``, positions
    counted up by one per strand, each system stack-matched into chords
    (which refuses unbalanced masses) and every chord pair classified."""
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
        xchords = _chords([(q, m) for q, s, m in pts if s == "x"])
        ychords = _chords([(q, m) for q, s, m in pts if s == "y"])
        for (p1, q1, m1) in xchords:
            for (p2, q2, m2) in ychords:
                total += _crossing_sign(p1, q1, p2, q2) * m1 * m2
    return total


def _dense(flow, edges):
    return [Fraction(flow.get(e, 0)) for e in edges]


def _boundary(face):
    """The flow around a face, a list of darts in face order."""
    flow = {}
    for e, i in face:
        flow[e] = flow.get(e, 0) + (1 if i == 0 else -1)
    return flow


def _reference_pairing(rg, faces, alpha, beta):
    """``pair_cocycles`` through the retired BFS forest basis: the periods
    of the basis cycles and ``-pa . z`` with ``J z = pb`` for the chord
    intersection matrix ``J``, solved by dense ``linalg.rref``."""
    basis = reference_forest_basis(rg, faces)
    pa, pb = ([sum(Fraction(c.get(e, 0)) * x for e, x in f.items())
               for f in basis] for c in (alpha, beta))
    J = [[_reference_intersection(rg, x, y) for y in basis] for x in basis]
    red, _ = linalg.rref([r + [b] for r, b in zip(J, pb)])
    return -sum((a * r[-1] for a, r in zip(pa, red)), Fraction(0))


def _euler_characteristic(rg):
    return len(rg.rot) - len(rg.edges) + len(reference_faces(rg))


class TestRibbon:
    def test_torus_counts(self):
        rg = torus_rose()
        assert len(reference_faces(rg)) == 1
        assert _euler_characteristic(rg) == 0

    def test_genus2_counts(self):
        rg = genus2_rose()
        assert len(reference_faces(rg)) == 1
        assert _euler_characteristic(rg) == -2

    def test_sphere_theta(self):
        # theta graph on the sphere: two vertices, three parallel edges
        edges = {i: ("u", "v") for i in range(3)}
        rot = {"u": [(0, 0), (1, 0), (2, 0)],
               "v": [(2, 1), (1, 1), (0, 1)]}
        rg = RibbonGraph(edges, rot)
        assert len(reference_faces(rg)) == 3
        assert _euler_characteristic(rg) == 2


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
        hom = traced(torus_rose())
        assert len(hom.basis_flows) == 2
        J = hom.pairing_matrix
        assert J[0][1] == -J[1][0] != 0

    def test_genus2_rank_and_nondegeneracy(self):
        hom = traced(genus2_rose())
        assert len(hom.basis_flows) == 4
        from isocone import linalg
        assert linalg.rank([list(r) for r in hom.pairing_matrix]) == 4

    def test_sphere_pairs_to_zero(self):
        edges = {i: ("u", "v") for i in range(3)}
        rot = {"u": [(0, 0), (1, 0), (2, 0)],
               "v": [(2, 1), (1, 1), (0, 1)]}
        hom = traced(RibbonGraph(edges, rot))
        assert len(hom.basis_flows) == 0 and hom.pairing_matrix == []
        val = hom.pair_cocycles({0: Fraction(1)}, {1: Fraction(2)})
        assert val == 0 and type(val) is Fraction

    def test_cocycle_pairing_torus(self):
        # periods of dy on (a, b) = (0, 1); of dx = (1, 0); integral of
        # dy wedge dx over the square torus is -1
        hom = traced(torus_rose())
        alpha = {"a": Fraction(0), "b": Fraction(1)}
        beta = {"a": Fraction(1), "b": Fraction(0)}
        val = hom.pair_cocycles(alpha, beta)
        assert val in (Fraction(1), Fraction(-1))
        # skew symmetry regardless of orientation convention
        assert hom.pair_cocycles(beta, alpha) == -val


class TestReference:
    def test_basis_and_matrix_match_dense_reference(self):
        # the basis cycles are integer flows that balance at every vertex,
        # independent modulo the faces and with them spanning the cycle
        # space, of dimension E - V + components; the matrix is the chord
        # count of every ordered pair
        ranks = []
        for rg, faces in _ribbons():
            hom = SurfaceHomology(rg, faces)
            flows = hom.basis_flows
            for flow in flows:
                assert {type(x) for x in flow.values()} == {int}
                net = dict.fromkeys(rg.rot, 0)
                for e, x in flow.items():
                    u, v = rg.edges[e]
                    net[u] -= x
                    net[v] += x
                assert not any(net.values())
            edges = sorted(rg.edges, key=repr)
            face_rows = [_dense(_boundary(f), edges) for f in faces]
            comps = set(reference_union_find(rg.rot, rg.edges.values())
                        .values())
            assert linalg.rank(face_rows + [_dense(f, edges) for f in flows]) \
                == linalg.rank(face_rows) + len(flows) \
                == len(edges) - len(rg.rot) + len(comps)
            assert hom.pairing_matrix == [
                [_reference_intersection(rg, x, y) for y in flows]
                for x in flows]
            assert {type(x) for row in hom.pairing_matrix for x in row} \
                <= {Fraction}
            ranks.append(len(flows))
        # genus 1, 2, two tori, then the surfaces: square, hex and grid
        # tori of genus 1, the L of genus 2, the pillowcase sphere and its
        # cover of genus 1
        assert ranks == [2, 4, 4, 2, 2, 4, 0] + [2] * 10 + [2]

    def test_intersection_matches_reference(self):
        rng = random.Random(5)
        for rg in (genus2_rose(), two_tori()):
            basis = traced(rg).basis_flows
            for _ in range(20):
                x, y = ({e: sum(Fraction(rng.randint(-3, 3)) * f.get(e, 0)
                                for f in basis) for e in rg.edges}
                        for _ in range(2))
                assert rg.intersection(x, y) == \
                    _reference_intersection(rg, x, y)


@functools.cache
def _spanning_flows():
    """The roses and the surface ribbons, each with flows that span its
    conservative flows: its homology basis and its face boundaries."""
    return [(rg, SurfaceHomology(rg, faces).basis_flows
             + [_boundary(f) for f in faces]) for rg, faces in _ribbons()]


def _draw_flow(data, gens, ints):
    """A random combination of ``gens``, with int masses if ``ints`` and
    ``Fraction`` masses otherwise, zero on some of the edges it lists."""
    coef = st.integers(-3, 3) if ints else st.fractions(-3, 3,
                                                          max_denominator=4)
    flow = {}
    for g in gens:
        c = data.draw(coef)
        for e, val in g.items():
            flow[e] = flow.get(e, 0) + c * val
    return {e: int(val) for e, val in flow.items()} if ints else flow


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data(), st.booleans())
def test_running_sum_matches_chord_oracle(data, ints):
    # equal value and type to the retired chord matcher, the same value
    # whatever dart each vertex's walk starts at, and the same refusal of
    # an unbalanced flow
    rg, gens = data.draw(st.sampled_from(_spanning_flows()))
    x, y = _draw_flow(data, gens, ints), _draw_flow(data, gens, ints)
    got = rg.intersection(x, y)
    want = _reference_intersection(rg, x, y)
    assert got == want and type(got) is type(want) is Fraction
    shifted = {v: ds[k:] + ds[:k] for v, ds in rg.rot.items()
               for k in [data.draw(st.integers(0, len(ds) - 1))]}
    assert RibbonGraph(rg.edges, shifted).intersection(x, y) == got
    # one more unit on an edge between two vertices unbalances both ends;
    # the roses have no such edge
    links = sorted((e for e, (u, v) in rg.edges.items() if u != v), key=repr)
    if links:
        e = data.draw(st.sampled_from(links))
        bad = {**x, e: x.get(e, 0) + 1}
        for pair in ((bad, y), (y, bad)):
            message = "^unbalanced masses at a vertex$"
            with pytest.raises(ValueError, match=message):
                rg.intersection(*pair)
            with pytest.raises(ValueError, match=message):
                _reference_intersection(rg, *pair)


class TestDisconnected:
    def test_two_tori_block_pairing(self):
        rg = two_tori()
        hom = traced(rg)
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
                        s0.glue)
        s, _ = delaunay(s).adapted()
        rng = random.Random(9)
        for _ in range(8):
            t1 = random_tangent(s, rng)
            t2 = random_tangent(s, rng)
            a = omega_thurston(s, t1, t2)
            assert a == omega_hessian(s, t1, t2)
            assert a == omega_homological(s, t1, t2)


# sheared grid tori, before and after Delaunay, and the bundled surfaces
# with their double covers
_surfaces = st.one_of(
    st.builds(_sheared_grid, st.integers(2, 6),
              st.fractions(-3, 3, max_denominator=4), st.booleans()),
    st.integers(0, 7).map(lambda k: _bundled_surfaces()[k]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_surfaces)
def test_triangle_faces_match_traced_faces(surface):
    # the traced faces are the triangles, run the other way round: their
    # rows span the same space, so the pivots, the basis and the matrix
    # are those of the traced faces
    rg, faces = surface.comb.skeleton_ribbon()
    assert {frozenset(f) for f in faces} == {
        frozenset((e, 1 - i) for e, i in f) for f in reference_faces(rg)}
    hom, want = SurfaceHomology(rg, faces), traced(rg)
    assert hom.basis_flows == want.basis_flows
    assert hom.pairing_matrix == want.pairing_matrix


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_surfaces, st.randoms(use_true_random=False))
def test_pairing_matches_forest_basis(surface, rng):
    # the pairing does not depend on the basis: the kernel basis gives the
    # value of the retired BFS forest basis on the Im parts of two
    # tangents, lifted to the double cover of a half-translation surface
    t1, t2 = random_tangent(surface, rng), random_tangent(surface, rng)
    if surface.kind != "translation":
        surface = orientation_double_cover(surface)
        t1, t2 = (lift_tangent(surface, t) for t in (t1, t2))
    rg, faces = surface.comb.skeleton_ribbon()
    alpha, beta = ({E: t.delta[E].im for E in surface.comb.edge_classes}
                   for t in (t1, t2))
    assert SurfaceHomology(rg, faces).pair_cocycles(alpha, beta) == \
        _reference_pairing(rg, faces, alpha, beta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_forests_give_the_kernel_basis(data):
    # the two greedy forests give the basis of the eliminating oracle, and
    # so its matrix, on the bundled ribbons (with the L, the hexagonal
    # torus, the pillowcase cover and the two tori), on sheared grid tori
    # n = 2..8, and with their faces given, traced, none or some dropped,
    # so that some edges have one side in no face
    grids = st.builds(_sheared_grid, st.integers(2, 8),
                      st.fractions(-3, 3, max_denominator=4), st.booleans())
    rg, faces = data.draw(st.one_of(
        st.sampled_from(_ribbons()),
        grids.map(lambda s: s.comb.skeleton_ribbon())))
    mode = data.draw(st.sampled_from(["given", "traced", "none", "dropped"]))
    if mode == "traced":
        faces = reference_faces(rg)
    elif mode == "none":
        faces = []
    elif mode == "dropped":
        keep = data.draw(st.lists(st.booleans(), min_size=len(faces),
                                  max_size=len(faces)))
        faces = [f for f, k in zip(faces, keep) if k]
    hom, want = SurfaceHomology(rg, faces), reference_kernel_basis(rg, faces)
    assert hom.basis_flows == want
    assert hom.pairing_matrix == [[rg.intersection(x, y) for y in want]
                                  for x in want]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_pivot_forest_matches_elimination(data):
    # random signed incidence columns (a, s, b, t), with half-edges (a ==
    # b, s == t), zero columns (a == b, s == -t) and several components:
    # the free columns are elimination's non-pivots and each circuit is
    # the reduced kernel's vector, as rationals
    n = data.draw(st.integers(1, 7))
    node, sign = st.integers(0, n - 1), st.sampled_from((1, -1))
    ends = data.draw(st.lists(st.tuples(node, sign, node, sign), max_size=16))
    sysm = linalg.IncrementalSystem(len(ends))
    for x in range(n):
        sysm.push(linalg.row([(j, s) for j, (a, s, _, _) in enumerate(ends)
                              if a == x] +
                             [(j, t) for j, (_, _, b, t) in enumerate(ends)
                              if b == x]), 0)
    red = sysm.reduced()
    free, circuit = pivot_forest(n, ends)
    assert free == [j for j in range(len(ends)) if j not in red]
    for j, (M, want) in zip(free, linalg.reduced_kernel(red, len(ends))):
        L, vec = circuit(j)
        assert L in (1, 2) and vec[j] == L and 0 not in vec.values()
        assert {c: Fraction(m, L) for c, m in vec.items()} == \
            {c: Fraction(m, M) for c, m in want.items()}


def test_no_elimination(monkeypatch):
    # the basis comes from union_find alone: no IncrementalSystem is built
    # or pushed, and each cycle is an edge and a forest path, at most V + 1
    # entries; with no faces every non-tree edge gives one, 2n^2 + 1 on
    # the n x n grid torus, and with its triangles 2
    ribbons = [(n, _grid_module().grid_torus(n).comb.skeleton_ribbon())
               for n in range(1, 13)]

    def refuse(*args):
        raise AssertionError("SurfaceHomology eliminated")

    monkeypatch.setattr(linalg.IncrementalSystem, "__init__", refuse)
    monkeypatch.setattr(linalg.IncrementalSystem, "push", refuse)
    for n, (rg, faces) in ribbons:
        for fs, rank in [(faces, 2)] + [([], 2 * n * n + 1)] * (n <= 6):
            flows = SurfaceHomology(rg, fs).basis_flows
            assert len(flows) == rank
            assert max(map(len, flows)) <= len(rg.rot) + 1


def test_singular_matrix_refused():
    # with no faces, the three loops of the square torus are all basis
    # cycles and pair by a singular matrix; zero periods solve J z = pb,
    # and the pairing still refuses it
    rg, _ = square_torus().comb.skeleton_ribbon()
    hom = SurfaceHomology(rg, [])
    assert len(hom.basis_flows) == 3
    assert linalg.rank(hom.pairing_matrix) == 2
    with pytest.raises(ValueError, match="^degenerate intersection matrix$"):
        hom.pair_cocycles({}, {})


def test_code_line_count():
    # cycles pair by direct ribbon intersection, on faces the caller
    # gives, and come from two forests of the package's one union-find,
    # which lives here, the vertex one by the signed pivot forest that
    # also gives the tangent kernel: basis coordinates of a cycle, a
    # stored face reduction or a face tracer would not fit
    assert code_lines("homology") <= 172
