import functools
import importlib.util
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from isocone import linalg
from isocone.track import (
    EntryError, SurfaceTriangulation, TrainTrack,
    triangle_form_sum, embed_weights,
    track_dual_to_triangulation,
    NotMaximalError, NotOrientableError, InvalidWeightError,
)
from isocone.homology import union_find
from isocone.fixtures import (
    chain_tets, g2_product_bundle, genus2_one_vertex_surface,
    genus2_four_vertex_surface, genus2_maximal_track,
)
from isocone.flatsurf import (
    square_torus, hex_torus, lshape_h2, pillowcase, delaunay,
    orientation_double_cover,
)
from test_acceptance import _random_complex
from test_linalg import reference_kernel
from util import (
    code_lines, fraction_constructions, outcome, reference_faces,
    reference_orientation, reference_triangle_form, reference_union_find,
)


def torus_track():
    return TrainTrack({"t0": ("A", "B", "C"), "t1": ("A", "B", "C")})


def random_weight(track, rng, lo=-5, hi=5):
    """Random admissible weight via the exact basis."""
    basis = track.weight_space_basis()
    w = {e: Fraction(0) for e in track.branches}
    for vec in basis:
        c = Fraction(rng.randint(lo, hi), rng.randint(1, 3))
        for e, val in vec.items():
            w[e] += c * val
    return w


class TestSurface:
    def test_genus2_one_vertex(self):
        s = genus2_one_vertex_surface()
        assert (len(s.vertex_classes), len(s.edge_classes), len(s.triangles)) \
            == (1, 9, 6)
        assert s.genus() == 2 and len(s.components()) == 1

    def test_genus2_four_vertex(self):
        s = genus2_four_vertex_surface()
        assert (len(s.vertex_classes), len(s.edge_classes), len(s.triangles)) \
            == (4, 18, 12)
        assert s.genus() == 2

    def test_gluing_validation(self):
        with pytest.raises(ValueError):
            SurfaceTriangulation({"t": ("a", "b", "c")}, {"a": "b"})

    # an entry names one pair from either end; a refusal names its entry:
    # an edge paired twice, whichever end of the entry it is, a self-gluing
    # and an unknown edge the glue entry, unglued edges the triangle of the
    # first listed
    @pytest.mark.parametrize("gluings, message, entry", [
        ({"a": "A", "c": "A"}, "directed edge 'A' glued twice", ("glue", "c")),
        ({"a": "A", "A": "b"}, "directed edge 'A' glued twice", ("glue", "A")),
        ({"a": "A", "b": "a"}, "directed edge 'a' glued twice", ("glue", "b")),
        ({"b": "B", "a": "a"}, "directed edge 'a' glued to itself",
         ("glue", "a")),
        ({"a": "A", "zz": "b"}, "gluing touches unknown edge 'zz'",
         ("glue", "zz")),
        ({"a": "A", "b": "zz"}, "gluing touches unknown edge 'zz'",
         ("glue", "b")),
        ({"a": "A", "b": "B"}, "unglued edges: ['C', 'c']", ("triangle", "t1")),
        ({"A": "a", "a": "A", "b": "B"}, "unglued edges: ['C', 'c']",
         ("triangle", "t1")),
    ])
    def test_gluing_refusal_names_its_entry(self, gluings, message, entry):
        tris = {"t0": ("a", "b", "c"), "t1": ("A", "B", "C")}
        with pytest.raises(EntryError) as got:
            SurfaceTriangulation(tris, gluings)
        assert (str(got.value), got.value.entry) == (message, entry)

    def test_unglued_edge_refused(self):
        tris = {"t0": ("a", "b", "c"), "t1": ("A", "B", "C")}
        with pytest.raises(ValueError, match=r"unglued edges: \['C', 'c'\]"):
            SurfaceTriangulation(tris, {"a": "A", "A": "a",
                                        "b": "B", "B": "b"})

    def test_components_of_two_spheres(self):
        # two triangle pairs glued edge to edge: two disjoint spheres,
        # listed in the order of their first triangle
        tris = {"y": ("a", "b", "c"), "x": ("p", "q", "r"),
                "z": ("A", "C", "B"), "w": ("P", "R", "Q")}
        glu = {}
        for d in "abcpqr":
            glu[d] = d.upper()
            glu[d.upper()] = d
        s = SurfaceTriangulation(tris, glu)
        assert s.components() == [["y", "z"], ["w", "x"]]
        assert len(s.components()) == 2
        assert genus2_four_vertex_surface().components() == [
            sorted(genus2_four_vertex_surface().triangles, key=repr)]


@pytest.mark.parametrize("make", [
    lambda: square_torus().comb, lambda: hex_torus().comb,
    lambda: lshape_h2().comb, lambda: pillowcase().comb,
    genus2_one_vertex_surface, genus2_four_vertex_surface])
def test_corner_cycles(make):
    s = make()
    cycles = s.corner_cycles
    corners = [c for cycle in cycles.values() for c in cycle]
    assert sorted(corners) == sorted((t, i) for t in s.triangles
                                     for i in range(3))
    assert sorted(cycles, key=repr) == s.vertex_classes
    for v, cycle in cycles.items():
        assert {s.corner_class[c] for c in cycle} == {v}
        # the ccw successor crosses the edge preceding the corner
        for (t, i), nxt in zip(cycle, cycle[1:] + cycle[:1]):
            assert s.locate(s.glue[s.triangles[t][(i + 2) % 3]]) == nxt


class TestUnionFind:
    def test_first_root_points_at_second(self):
        assert union_find(4, [(0, 1), (2, 3), (1, 2)]) == ([3, 3, 3, 3],
                                                           [0, 1, 2])
        assert union_find(4, [(1, 0), (3, 2), (2, 1)]) == ([0, 0, 0, 0],
                                                           [0, 1, 2])

    def test_singletons_and_repeats(self):
        assert union_find(3, [(0, 1), (1, 0), (0, 0)]) == ([1, 1, 2], [0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1))))))
    def test_matches_reference(self, case):
        # the roots are the oracle's, and a pair joins iff its items have
        # different roots once the pairs before it are merged
        n, pairs = case
        roots, joins = union_find(n, pairs)
        assert roots == list(reference_union_find(range(n), pairs).values())
        assert joins == [
            k for k, (a, b) in enumerate(pairs)
            for before in [reference_union_find(range(n), pairs[:k])]
            if before[a] != before[b]]


class TestSwitchRelations:
    def test_zero_weight(self):
        track, *_ = genus2_maximal_track()
        assert track.check_weight({e: Fraction(0) for e in track.branches})

    def test_basis_weights_admissible(self):
        track, *_ = genus2_maximal_track()
        for w in track.weight_space_basis():
            assert track.check_weight(w)

    def test_single_perturbation_fails(self):
        track, *_ = genus2_maximal_track()
        w = track.weight_space_basis()[0]
        w = dict(w)
        w[track.branches[0]] += 1
        assert not track.check_weight(w)

    def test_dimensions(self):
        track, *_ = genus2_maximal_track()
        assert len(track.weight_space_basis()) == 6      # 6g-6 at genus 2
        tt = torus_track()
        assert len(tt.weight_space_basis()) == 2
        # dimension = branches - switches whenever relations are independent
        assert len(track.branches) - len(track.switches) == 6

    def test_empty_track(self):
        empty = TrainTrack({})
        assert empty.weight_space_basis() == []

    @pytest.mark.parametrize("track", [genus2_maximal_track()[0],
                                       torus_track()])
    def test_sparse_rows_and_fraction_basis(self, track):
        # one sparse integer row per switch, by ``repr``; the basis is
        # the reference kernel of the dense rows, as Fraction weights
        idx = {e: i for i, e in enumerate(track.branches)}
        dense = []
        for s in sorted(track.switches, key=repr):
            a, b, c = track.switches[s]
            row = [0] * len(idx)
            row[idx[a]] += 1
            row[idx[b]] += 1
            row[idx[c]] -= 1
            dense.append(row)
        rows = track.switch_rows(idx)
        assert rows == [tuple((k, x) for k, x in enumerate(row) if x)
                        for row in dense]
        basis = track.weight_space_basis()
        assert {type(x) for w in basis for x in w.values()} == {Fraction}
        assert [[w[e] for e in track.branches] for w in basis] == \
            reference_kernel(dense, len(idx))


class TestThurstonForm:
    def test_antisymmetry_and_bilinearity(self):
        track, *_ = genus2_maximal_track()
        rng = random.Random(40)
        for _ in range(20):
            w1 = random_weight(track, rng)
            w2 = random_weight(track, rng)
            assert track.thurston_form(w1, w1) == 0
            v = track.thurston_form(w1, w2)
            assert track.thurston_form(w2, w1) == -v
            w1x2 = {e: 2 * x for e, x in w1.items()}
            assert track.thurston_form(w1x2, w2) == 2 * v

    def test_invalid_weight_rejected(self):
        track, *_ = genus2_maximal_track()
        bad = {e: Fraction(0) for e in track.branches}
        bad[track.branches[0]] = Fraction(1)  # indicator violates switches
        with pytest.raises(InvalidWeightError):
            track.thurston_form(bad, bad)

    def test_nondegenerate_on_maximal_fixture(self):
        track, *_ = genus2_maximal_track()
        basis = track.weight_space_basis()
        M = [[track.thurston_form(a, b) for b in basis] for a in basis]
        assert linalg.rank(M) == 6


class TestExactWeights:
    """``check_weight`` and ``thurston_form`` keep int weights as ints,
    pass ``Fraction``s unchanged, parse strings through ``rat`` and refuse
    anything inexact; the form is a ``Fraction`` either way."""

    W1 = {"A": 1, "B": 2, "C": 3}
    W2 = {"A": 4, "B": -1, "C": 3}

    def test_int_weights_make_one_fraction(self):
        track = torus_track()
        assert fraction_constructions(
            lambda: track.thurston_form(self.W1, self.W2)) == 1
        value = track.thurston_form(self.W1, self.W2)
        assert type(value) is Fraction and value == -9

    @pytest.mark.parametrize("convert", [Fraction, str, lambda x: x])
    def test_same_value_in_every_exact_type(self, convert):
        track, rng = genus2_maximal_track()[0], random.Random(44)
        for _ in range(5):
            w1, w2 = [random_weight(track, rng) for _ in range(2)]
            D = math.lcm(*[x.denominator for w in (w1, w2) for x in w.values()])
            w1, w2 = [{e: D * x for e, x in w.items()} for w in (w1, w2)]
            ints = [{e: x.numerator for e, x in w.items()} for w in (w1, w2)]
            assert all(track.check_weight(w) for w in ints)
            mixed = {e: convert(x) for e, x in ints[0].items()}
            value = track.thurston_form(mixed, ints[1])
            assert type(value) is Fraction
            assert value == track.thurston_form(w1, w2)

    @pytest.mark.parametrize("bad", [1.0, 0.5, complex(1), None])
    def test_inexact_weight_raises(self, bad):
        track = torus_track()
        w = dict(self.W1, A=bad)
        with pytest.raises(TypeError):
            track.check_weight(w)
        with pytest.raises(TypeError):
            track.thurston_form(w, self.W2)

    def test_string_weight_is_parsed(self):
        track = torus_track()
        w = {"A": "1/2", "B": Fraction(5, 2), "C": 3}
        assert track.check_weight(w)
        assert track.thurston_form(w, self.W2) == Fraction(1, 2) * -1 \
            - Fraction(5, 2) * 4


class TestDualTriangulation:
    def test_genus2_counts(self):
        track, *_ = genus2_maximal_track()
        dual, b2e = track.dual_triangulation()
        assert (len(dual.triangles), len(dual.edge_classes),
                len(dual.vertex_classes)) == (12, 18, 4)
        assert dual.genus() == 2
        assert sorted(track.region_cusp_counts()) == [3, 3, 3, 3]

    def test_involution(self):
        # dualizing the dual triangulation recovers the switch structure
        track, *_ = genus2_maximal_track()
        dual, b2e = track.dual_triangulation()
        outgoing = {s: 2 for s in track.switches}   # slot of c in each triple
        back = track_dual_to_triangulation(dual, outgoing)
        e2orig = {v: k for k, v in b2e.items()}
        for s, (a, b, c) in track.switches.items():
            a2, b2, c2 = back.switches[s]
            assert (e2orig[a2], e2orig[b2], e2orig[c2]) == (a, b, c)

    def test_non_maximal_rejected(self):
        with pytest.raises(NotMaximalError):
            torus_track().dual_triangulation()     # bigon region


class TestTriangleForms:
    def test_single_triangle_indicators(self):
        s = SurfaceTriangulation(
            {"t0": ("e", "f", "g"), "t1": ("E", "F", "G")},
            {"e": "E", "E": "e", "f": "F", "F": "f", "g": "G", "G": "g"})
        u = {s.edge_class["e"]: Fraction(1)}
        v = {s.edge_class["f"]: Fraction(1)}
        assert reference_triangle_form(s, "t0", u, v) == Fraction(-1, 2)
        assert triangle_form_sum(s, u, v) == Fraction(-1)

    def test_antisymmetry(self):
        track, *_ = genus2_maximal_track()
        dual, b2e = track.dual_triangulation()
        rng = random.Random(41)
        u = {E: Fraction(rng.randint(-4, 4)) for E in dual.edge_classes}
        assert triangle_form_sum(dual, u, u) == 0

    def test_orientation_reversal_negates(self):
        track, *_ = genus2_maximal_track()
        dual, b2e = track.dual_triangulation()
        rng = random.Random(42)
        u = {E: Fraction(rng.randint(-4, 4)) for E in dual.edge_classes}
        v = {E: Fraction(rng.randint(-4, 4)) for E in dual.edge_classes}
        rev = SurfaceTriangulation(
            {t: (ds[0], ds[2], ds[1]) for t, ds in dual.triangles.items()},
            dual.glue)
        assert triangle_form_sum(rev, u, v) == -triangle_form_sum(dual, u, v)

    def test_int_weights_make_one_fraction_per_triangle(self):
        # int weights sum as ints, so the halving makes the only Fraction
        track, *_ = genus2_maximal_track()
        dual, _ = track.dual_triangulation()
        rng = random.Random(43)
        u, v = ({E: rng.randint(-4, 4) for E in dual.edge_classes}
                for _ in range(2))
        uf, vf = ({E: Fraction(x) for E, x in w.items()} for w in (u, v))
        for t in dual.triangles:
            assert fraction_constructions(
                lambda: reference_triangle_form(dual, t, u, v)) == 1
            value = reference_triangle_form(dual, t, u, v)
            assert type(value) is Fraction
            assert value == reference_triangle_form(dual, t, uf, vf)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_sum_is_the_per_triangle_oracle(self, data):
        # the one evaluator on a surface's cached form_rows equals the
        # per-triangle form summed over the triangles, on int, Fraction and
        # partial weights
        surface = data.draw(st.sampled_from(_FORM_SURFACES), label="surface")
        if surface is None:
            seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
            surface = _random_complex(random.Random(seed)).boundary
            assume(surface is not None)
        values = data.draw(st.sampled_from([
            st.integers(-9, 9), st.fractions(-5, 5, max_denominator=6)]))
        u, v = ({E: data.draw(values) for E in surface.edge_classes
                 if data.draw(st.booleans())} for _ in range(2))
        assert triangle_form_sum(surface, u, v) == sum(
            reference_triangle_form(surface, t, u, v)
            for t in surface.triangles)

    @pytest.mark.parametrize("make", [
        lambda: genus2_maximal_track()[0].dual_triangulation()[0],
        lambda: delaunay(lshape_h2().shear(Fraction(7, 3))).comb],
        ids=["genus2_dual", "lshape_h2_delaunay"])
    def test_weight_contract(self, make):
        # the weights are read as _exact reads them: int weights stay ints,
        # so the halving makes the only Fraction; a string goes through
        # rat; a float is no exact rational
        surface = make()
        rng = random.Random(43)
        u, v = ({E: rng.randint(-4, 4) for E in surface.edge_classes}
                for _ in range(2))
        uf, vf = ({E: Fraction(x, 3) for E, x in w.items()} for w in (u, v))
        assert fraction_constructions(
            lambda: triangle_form_sum(surface, u, v)) == 1
        value = triangle_form_sum(surface, u, v)
        assert type(value) is Fraction
        assert value == triangle_form_sum(
            surface, *({E: Fraction(x) for E, x in w.items()}
                       for w in (u, v)))
        assert triangle_form_sum(surface, {E: str(x) for E, x in uf.items()},
                                 {E: str(x) for E, x in vf.items()}) == \
            triangle_form_sum(surface, uf, vf) == value / 9
        for uw, vw in ((u, {E: float(x) for E, x in v.items()}),
                       ({E: float(x) for E, x in u.items()}, v)):
            with pytest.raises(TypeError, match="not an exact rational"):
                triangle_form_sum(surface, uw, vw)


# the surfaces of test_sum_is_the_per_triangle_oracle; None stands for the
# boundary of a random complex
_FORM_SURFACES = [
    None, genus2_maximal_track()[0].dual_triangulation()[0],
    *(delaunay(make().shear(Fraction(3, 2))).comb for make in
      (square_torus, hex_torus, lshape_h2, pillowcase))]


class TestEmbedWeights:
    def test_zero_maps_to_zero(self):
        track, _, _ = genus2_maximal_track()
        dual, b2e = track.dual_triangulation()
        z = {e: Fraction(0) for e in track.branches}
        assert all(v == 0 for v in embed_weights(track, b2e, z).values())

    def test_pullback_identity_on_basis_pairs(self):
        track, *_ = genus2_maximal_track()
        dual, b2e = track.dual_triangulation()
        basis = track.weight_space_basis()
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                lhs = track.thurston_form(basis[i], basis[j])
                rhs = triangle_form_sum(
                    dual,
                    embed_weights(track, b2e, basis[i]),
                    embed_weights(track, b2e, basis[j]))
                assert lhs == rhs

    def test_pullback_identity_random(self):
        track, *_ = genus2_maximal_track()
        dual, b2e = track.dual_triangulation()
        rng = random.Random(43)
        for _ in range(25):
            w1 = random_weight(track, rng)
            w2 = random_weight(track, rng)
            assert track.thurston_form(w1, w2) == triangle_form_sum(
                dual, embed_weights(track, b2e, w1),
                embed_weights(track, b2e, w2))

    def test_indicator_rejected(self):
        track, *_ = genus2_maximal_track()
        _, b2e = track.dual_triangulation()
        bad = {e: Fraction(0) for e in track.branches}
        bad[track.branches[3]] = Fraction(1)
        with pytest.raises(InvalidWeightError):
            embed_weights(track, b2e, bad)


class TestCyclePairing:
    def test_self_pairing_zero(self):
        tt = torus_track()
        w = {"A": Fraction(2), "B": Fraction(3), "C": Fraction(5)}
        assert tt.cycle_pairing(w, w) == 0

    def test_matches_thurston_form(self):
        tt = torus_track()
        rng = random.Random(44)
        for _ in range(50):
            w1 = random_weight(tt, rng)
            w2 = random_weight(tt, rng)
            assert tt.cycle_pairing(w1, w2) == tt.thurston_form(w1, w2)

    def test_orientation_found_once(self, monkeypatch):
        tt = torus_track()
        calls = []
        found = TrainTrack.orientation
        monkeypatch.setattr(TrainTrack, "orientation",
                            lambda self: calls.append(1) or found(self))
        w = {"A": Fraction(2), "B": Fraction(3), "C": Fraction(5)}
        assert tt.cycle_pairing(w, w) == 0
        assert len(calls) == 1

    def test_unorientable_rejected(self):
        track, *_ = genus2_maximal_track()
        with pytest.raises(NotOrientableError):
            track.orientation()
        z = {e: Fraction(0) for e in track.branches}
        with pytest.raises(NotOrientableError):
            track.cycle_pairing(z, z)


@functools.cache
def _grid_tori():
    """The benchmark's n x n grid tori, n = 2..5 (``perfbench/surfaces.py``)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "surfaces", path / "surfaces.py")
    surfaces = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(surfaces)
    return [surfaces.grid_torus(n) for n in range(2, 6)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3),
       st.fractions(-3, 3, max_denominator=4))
def test_euler_characteristic_even(seed, n, shear):
    # every surface is closed and oriented, so genus() needs no parity
    # check: the boundary of a random complex, and a sheared grid torus
    # before and after Delaunay
    grid = _grid_tori()[n].shear(shear)
    surfaces = [grid.comb, delaunay(grid).comb]
    boundary = _random_complex(random.Random(seed)).boundary
    if boundary is not None:
        surfaces.append(boundary)
    for s in surfaces:
        assert s.euler_characteristic() % 2 == 0


@functools.cache
def _builder_surfaces():
    """The surfaces the library's builders make of the fixtures: manifold
    boundaries, the genus-2 surfaces and their track's dual, and the flat
    surfaces, their Delaunay forms and their double covers."""
    flats = [make() for make in (square_torus, hex_torus, lshape_h2,
                                 pillowcase)]
    flats += [delaunay(f) for f in flats]
    return [g2_product_bundle()["manifold"].boundary,
            *[chain_tets(n).boundary for n in range(1, 6)],
            genus2_one_vertex_surface(), genus2_four_vertex_surface(),
            genus2_maximal_track()[0]._dual_surface()[0],
            *[f.comb for f in flats],
            *[orientation_double_cover(f).comb for f in flats]]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3),
       st.fractions(-3, 3, max_denominator=4))
def test_pairs_named_once_or_twice_build_one_surface(seed, n, shear):
    # a table naming each glued pair once, from a random end, and one
    # naming it from both ends, each in a random order, build the surface
    # its builder built: the builders' surfaces, the boundary of a random
    # complex, and a sheared grid torus before and after Delaunay; glue
    # lists the two ends of each pair in turn, in the order first named
    rng = random.Random(seed)
    grid = _grid_tori()[n].shear(shear)
    surfaces = [*_builder_surfaces(), grid.comb, delaunay(grid).comb]
    boundary = _random_complex(rng).boundary
    if boundary is not None:
        surfaces.append(boundary)
    for s in surfaces:
        once = [(d, s.glue[d])[::rng.choice((1, -1))] for d in s.edge_classes]
        rng.shuffle(once)
        both = once + [(d2, d) for d, d2 in once]
        rng.shuffle(both)
        for table in (dict(once), dict(both)):
            got = SurfaceTriangulation(s.triangles, table)
            assert got.glue == s.glue
            assert got.edge_class == s.edge_class
            assert got.edge_classes == s.edge_classes
            assert got.corner_class == s.corner_class
            assert got.vertex_classes == s.vertex_classes
        in_turn = [p for d, d2 in once for p in [(d, d2), (d2, d)]]
        assert list(SurfaceTriangulation(s.triangles, dict(once)).glue
                    .items()) == in_turn


def _reference_region_cusp_counts(track):
    """Cusps per ribbon face of ``track.ribbon()``, by the face walk that
    ``region_cusp_counts`` replaced: the face turns at the vertex of each
    dart's other end, from that end's slot to the next ccw slot, and a
    turn from slot 0 to slot 1 is a cusp."""
    rg = track.ribbon()
    pos_of_dart = {d: i for ds in rg.rot.values() for i, d in enumerate(ds)}
    return [sum(pos_of_dart[(e, 1 - i)] == 0 for e, i in face)
            for face in reference_faces(rg)]


def _random_trivalent_track(rng):
    """``2k`` switches whose ``6k`` slots are paired into branches at
    random, so a branch may join two slots of one switch."""
    k = rng.randint(1, 6)
    slots = list(range(6 * k))
    rng.shuffle(slots)
    branch = {}
    for j in range(0, 6 * k, 2):
        branch[slots[j]] = branch[slots[j + 1]] = f"b{j // 2}"
    return TrainTrack({f"s{i}": tuple(branch[3 * i + p] for p in range(3))
                       for i in range(2 * k)})


def _random_oriented_track(rng):
    """``2k`` switches, half with flow into their incoming slots and half
    out of them, whose flow-in slots are paired with their flow-out slots
    at random: a consistently orientable track."""
    k = rng.randint(1, 6)
    states = [1] * k + [-1] * k
    rng.shuffle(states)
    slots = {True: [], False: []}
    for i, state in enumerate(states):
        for p in range(3):
            slots[(p <= 1) == (state == 1)].append(3 * i + p)
    rng.shuffle(slots[True])
    branch = {}
    for j, ends in enumerate(zip(slots[True], slots[False])):
        for slot in ends:
            branch[slot] = f"b{j}"
    return TrainTrack({f"s{i}": tuple(branch[3 * i + p] for p in range(3))
                       for i in range(2 * k)})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_orientation_matches_reference(seed, orientable):
    # the same states, or the same refusal naming the same branch
    make = _random_oriented_track if orientable else _random_trivalent_track
    track = make(random.Random(seed))
    assert outcome(track.orientation) == outcome(reference_orientation, track)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_region_cusp_counts_match_face_walk(seed):
    # a region is a vertex class of the dual surface, and its cusps are
    # the corners 1 of the switch triangles in it
    track = _random_trivalent_track(random.Random(seed))
    assert sorted(track.region_cusp_counts()) == \
        sorted(_reference_region_cusp_counts(track))


@pytest.mark.parametrize("make", [
    lambda: genus2_maximal_track()[0], torus_track,
    *[lambda f=f: f().adapted()[0].dual_track()
      for f in (square_torus, hex_torus, lshape_h2, pillowcase)],
    *[lambda n=n: _grid_tori()[n].adapted()[0].dual_track()
      for n in range(4)]])
def test_fixture_region_cusp_counts_match_face_walk(make):
    track = make()
    assert sorted(track.region_cusp_counts()) == \
        sorted(_reference_region_cusp_counts(track))


def test_code_line_count():
    # methods that only tests call do not belong in the library; the
    # orientation is one walk, found once per cycle pairing; the wedge rows
    # of every form, the surface's cached rows and their one evaluator are
    # here, for the cone layer too; one more line counts the glued ends
    # before it looks for an unglued one
    assert code_lines("track") <= 330
