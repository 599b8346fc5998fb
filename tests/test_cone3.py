import functools
import gc
import itertools
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from isocone import cone3, io, linalg
from isocone.ordgroup import LexVec
from isocone.lamtree import TreeMap
from isocone.cone3 import (
    Triangulation3, EDGE_PAIRS, OPPOSITE_PAIRS, CHOICE_PAIRS, FACE_CYCLES,
    ProductTriangulation, BoundaryTrack, compute_cone, member, walk,
    verify_witness, GluingError, OrientationError, MemberResult,
)
from isocone.fixtures import (
    single_tet, two_tets, chain_tets, glue_tets, reversing_gluing,
    genus2_one_vertex_surface, genus2_four_vertex_surface,
    genus2_maximal_track, g2_product_bundle,
    mf_weight, diagonal_boundary_weight, MF_WEIGHT_TRIES,
    split_triangle,
)
from isocone.flatsurf import (
    delaunay, hex_torus, lshape_h2, pillowcase, square_torus)
from isocone.homology import SurfaceHomology
from isocone.ordgroup import rat
from isocone.track import (
    NotOrientableError, SurfaceTriangulation, TrainTrack,
    track_dual_to_triangulation, triangle_form_sum,
)
from test_acceptance import _random_complex
from test_homology import _grid_module
from test_linalg import reference_kernel, reference_rref
from util import (
    code_lines, fraction_constructions, links_are_disks_or_spheres,
    mixed_product, mixed_query, off_diagonal_weight, outcome,
    pairwise_isotropy, random_tree,
    reference_boundary_components, reference_branch_ends,
    reference_compute_cone, reference_fold, reference_orientation,
    reference_union_find, reference_validate_gluings, reference_walk,
    solution,
)



def tet_form_values(u_edges, v_edges):
    """Per-tetrahedron oracle of the form: -1/2 of the cyclic sum of wedges
    of the three opposite-pair sums, on weights keyed by corner pair."""
    A = [(u_edges[e] + u_edges[e2], v_edges[e] + v_edges[e2])
         for e, e2 in OPPOSITE_PAIRS]
    total = Fraction(0)
    for i in range(3):
        (ui, vi), (uj, vj) = A[i], A[(i + 1) % 3]
        total += ui * vj - uj * vi
    return -total / 2


def tet_edge_values(m, t, w):
    """Pull a weight on edge classes back to the six edges of tet ``t``."""
    return {e: w[m.edge_class[(t, e)]] for e in EDGE_PAIRS}


def oracle_omega(m, u, v):
    """The total form as the sum of the per-tetrahedron oracle."""
    return sum((tet_form_values(tet_edge_values(m, t, u),
                                tet_edge_values(m, t, v)) for t in m.tets),
               Fraction(0))


def tet_omega(u_edges, v_edges):
    """``single_tet().omega`` on weights keyed by corner pair."""
    m = single_tet()
    return m.omega({m.edge_class[("T0", e)]: x for e, x in u_edges.items()},
                   {m.edge_class[("T0", e)]: x for e, x in v_edges.items()})


def fan_walk_boundary(m):
    """Reference boundary gluing by walking the fan around each edge.

    Slots ``(t, e, f)`` are an edge ``e`` of tet ``t`` in one of its two
    faces ``f``; the walk from a free slot alternates between the other
    face of the same edge and the glued neighbour until it reaches the
    other free end.  Returns the gluing of the directed boundary sides
    ``(t, f, k)`` and the map from boundary edges to edge classes, keyed in
    the order the sides are listed.
    """
    # each glued face pair in both directions
    across = {}
    for (t, f), (t2, f2, perm) in m.gluings.items():
        across[(t, f)] = (t2, f2, perm)
        across[(t2, f2)] = (t, f, {v2: v for v, v2 in perm.items()})

    def glued_neighbor(slot):
        t, e, f = slot
        got = across.get((t, f))
        if got is None:
            return None
        t2, f2, perm = got
        return (t2, frozenset(perm[v] for v in e), f2)

    def other_face(slot):
        t, e, f = slot
        (g,) = [x for x in range(4) if x != f and x not in e]
        return (t, e, g)

    slots = {(t, e, f) for t in m.tets for e in EDGE_PAIRS
             for f in range(4) if f not in e}
    ends = {}
    seen = set()
    for start in sorted(slots, key=repr):
        if start in seen or glued_neighbor(start) is not None:
            continue
        cur = start
        seen.add(cur)
        while True:
            nxt = other_face(cur)
            seen.add(nxt)
            step = glued_neighbor(nxt)
            if step is None:
                break
            seen.add(step)
            cur = step
        ends[start], ends[nxt] = nxt, start

    directed_of_slot = {}
    for t, f in m.boundary_faces:
        cyc = FACE_CYCLES[f]
        for k in range(3):
            e = frozenset((cyc[k], cyc[(k + 1) % 3]))
            directed_of_slot[(t, e, f)] = (t, f, k)
    glue = {directed_of_slot[a]: directed_of_slot[b] for a, b in ends.items()}
    edge_to_class = {}
    if m.boundary is not None:
        for (t, e, f), d in directed_of_slot.items():
            edge_to_class.setdefault(m.boundary.edge_class[d],
                                     m.edge_class[(t, e)])
    return glue, edge_to_class


def assert_boundary_matches_fan_walk(m):
    glue, edge_to_class = fan_walk_boundary(m)
    assert (m.boundary.glue if m.boundary else {}) == glue
    assert list(m.boundary_edge_to_class.items()) == \
        list(edge_to_class.items())
    classes = list(m.boundary_edge_to_class.values())
    assert len(set(classes)) == len(classes)


def _closed_two_tets():
    """Two tetrahedra glued along all four faces: no boundary remains."""
    glu = {}
    for f in range(4):
        glue_tets(glu, "T0", f, "T1", f)
    return Triangulation3(["T0", "T1"], glu)


def random_class_weight(m, rng, lo=-6, hi=6):
    return {c: Fraction(rng.randint(lo, hi)) for c in m.edge_classes}


def _dense(row, ncols):
    """Expand a sparse row, ``(column, coefficient)`` pairs, to a dense
    list of length ``ncols``."""
    out = [Fraction(0)] * ncols
    for c, x in row:
        out[c] = x
    return out


def _fraction_basis(m, basis):
    """A ``w4_subspace`` basis of ``(L, {class: n})`` as the dense rational
    weights ``n / L`` on every edge class."""
    return [{E: Fraction(vec.get(E, 0), L) for E in m.edge_classes}
            for L, vec in basis]


def _assert_integer_basis(basis):
    for L, vec in basis:
        assert type(L) is int and L > 0
        assert all(type(x) is int and x for x in vec.values())


def _reference_w4_subspace(m, choices):
    """Kernel of the dense torus and choice rows, by the dense reference
    elimination of ``test_linalg`` rather than the sparse core."""
    n = len(m.columns)
    rows = m.torus_rows + [m.choice_rows[t][choices[t]] for t in m.tets]
    basis = reference_kernel([_dense(r, n) for r in rows], n)
    return [dict(zip(m.columns, vec)) for vec in basis]


def _reference_cone(manifold, btrack, choice_iter):
    """``compute_cone`` one choice vector at a time: the subspace, its
    restriction to the boundary, and the dense intersection with the
    switch relations.  Returns ``(edge_order, components)``."""
    surf = manifold.boundary
    edge_order = sorted(surf.edge_classes, key=repr)
    eidx = {E: i for i, E in enumerate(edge_order)}
    n = len(edge_order)
    switch_rows = [_dense(r, n) for r in btrack.track.switch_rows(eidx)]
    for comp in manifold.boundary_components:
        if comp["torus"]:
            for E in comp["edge_classes"]:
                switch_rows.append(_dense([(eidx[E], Fraction(1))], n))
    seen = {}
    for combo in choice_iter:
        choices = dict(zip(manifold.tets, combo))
        proj = []
        for vec in _reference_w4_subspace(manifold, choices):
            w = manifold.restrict(vec)
            proj.append([w.get(E, Fraction(0)) for E in edge_order])
        red, _ = reference_rref(proj)
        span = []
        if red:
            coeff = [[sum(row[k] * red[i][k] for k in range(n))
                      for i in range(len(red))] for row in switch_rows]
            lam = reference_kernel(coeff, len(red))
            span = [[sum(l[i] * red[i][k] for i in range(len(red)))
                     for k in range(n)] for l in lam]
        key = tuple(map(tuple, reference_rref(span)[0]))
        if key not in seen:
            seen[key] = {"span": [list(r) for r in key],
                         "dimension": len(key), "choice": choices}
    comps = sorted(seen.values(),
                   key=lambda c: (c["dimension"], repr(c["span"])))
    return edge_order, comps


def _assert_cone_matches_reference(m, btr, combos):
    cone = compute_cone(m, btr, choice_iter=iter(combos))
    assert (cone.edge_order, cone.components) == \
        _reference_cone(m, btr, combos)
    for combo in combos:
        choices = dict(zip(m.tets, combo))
        basis = m.w4_subspace(choices)
        _assert_integer_basis(basis)
        assert _fraction_basis(m, basis) == _reference_w4_subspace(m, choices)


def _chain_track(n):
    m = chain_tets(n)
    return m, BoundaryTrack(m, {t: 0 for t in m.boundary.triangles})


@functools.cache
def _deep_chain():
    """``_chain_track(2000)``: a walk 2,000 tets deep, past the
    interpreter's default recursion limit of 1,000 frames."""
    return _chain_track(2000)


def _g2_samples(m, rng):
    """Random choice vectors, then variants of them: a repeat right after
    and far after, and copies with a changed last entry or last few."""
    combos = [tuple(rng.randrange(3) for _ in m.tets) for _ in range(4)]
    combos.append(combos[-1])
    for base in (combos[0], combos[2]):
        for keep in (len(m.tets) - 1, len(m.tets) - 3):
            combos.append(base[:keep] + tuple(
                rng.randrange(3) for _ in m.tets[keep:]))
    combos.append(combos[1])
    return combos


def _reference_member(manifold, btrack, w_boundary):
    """``member`` with chronological backtracking: every choice of every
    tet is retried, whatever refuted the subtree below it.  It pushes the
    pins and the torus rows, which ``member`` holds as constants, as unit
    rows, then the unfolded choice rows in ``member``'s order."""
    track = btrack.track
    for e in track.branches:
        if e not in w_boundary:
            return MemberResult(False, reason=f"missing weight for {e!r}")
        if rat(w_boundary[e]) < 0:
            return MemberResult(False, reason="negative")
    if not track.check_weight({e: w_boundary[e] for e in track.branches}):
        return MemberResult(False, reason="switch")
    classes = manifold.columns
    column = {cls: c for c, cls in enumerate(classes)}
    sysm = linalg.IncrementalSystem(len(classes))
    pins = sorted(manifold.boundary_edge_to_class, key=repr)
    values = [rat(w_boundary.get(E, 0)) for E in pins]
    D = math.lcm(*[val.denominator for val in values])
    for E, val in zip(pins, values):
        cls = manifold.boundary_edge_to_class[E]
        sysm.push([(column[cls], 1)], int(val * D))
    for row in manifold.torus_rows:
        if not sysm.push(row, 0):
            return MemberResult(False, reason="torus-nonzero")
    tets = manifold.tets
    chosen = {}

    def dfs(i):
        if i == len(tets):
            return True
        for k in range(3):
            mark = len(sysm.pivots)
            if sysm.push(manifold.choice_rows[tets[i]][k], 0) and dfs(i + 1):
                chosen[tets[i]] = k
                return True
            sysm.rollback(mark)
        return False

    if not dfs(0):
        return MemberResult(False, reason="no-choice-vector")
    witness = {cls: x / D for cls, x in zip(classes, solution(sysm))}
    return MemberResult(True, witness=witness, choices=dict(chosen))


def _random_outgoing(m, rng):
    """Random outgoing slots on the non-torus boundary triangles of
    ``m``, in ``repr`` order."""
    torus = {t for c in m.boundary_components if c["torus"]
             for t in c["triangles"]}
    return {t: rng.randrange(3) for t in sorted(m.boundary.triangles, key=repr)
            if t not in torus}


def _random_member_query(rng):
    """A ``_random_complex`` draw with random outgoing slots and a random
    nonnegative admissible boundary weight (zero when 200 tries on the
    weight-space basis find none), as ``(manifold, track, weight,
    outgoing)``."""
    m = _random_complex(rng)
    outgoing = _random_outgoing(m, rng)
    btr = BoundaryTrack(m, outgoing)
    basis = btr.track.weight_space_basis()
    wb = {e: Fraction(0) for e in btr.track.branches}
    for _ in range(200):
        w = {e: Fraction(0) for e in btr.track.branches}
        for vec in basis:
            c = Fraction(rng.randint(0, 6), rng.randint(1, 3))
            for e, val in vec.items():
                w[e] += c * val
        if all(v >= 0 for v in w.values()):
            wb = w
            break
    return m, btr, wb, outgoing


def _reference_track(m, outgoing):
    """The dual track on a ``SurfaceTriangulation`` of the non-torus
    boundary triangles alone: the reference for ``BoundaryTrack``, which
    reads the switches off the whole boundary surface."""
    surf = m.boundary
    tris = {t: surf.triangles[t] for t in outgoing}
    glue = {d: surf.glue[d] for ds in tris.values() for d in ds}
    return track_dual_to_triangulation(
        SurfaceTriangulation(tris, glue), outgoing)


def _assert_track_matches_reference(m, outgoing, btr):
    ref = _reference_track(m, outgoing)
    track = btr.track
    assert list(track.switches) == list(outgoing)
    assert dict(track.switches) == dict(ref.switches)
    assert track.branches == ref.branches
    assert track.weight_space_basis() == ref.weight_space_basis()


def _count_pushes(monkeypatch):
    """Wrap ``IncrementalSystem.push``; returns the list of pushed
    ``(row, b)``."""
    pushes = []
    push = linalg.IncrementalSystem.push

    def counted_push(self, row, b, tag=0):
        pushes.append((row, b))
        return push(self, row, b, tag)

    monkeypatch.setattr(linalg.IncrementalSystem, "push", counted_push)
    return pushes


def _assert_integral(pushes):
    """Some rows were pushed, each with ``int`` columns, coefficients and
    right-hand side: ``push`` takes integer rows only."""
    assert pushes
    for row, b in pushes:
        assert type(b) is int
        assert all(type(c) is int and type(x) is int for c, x in row)


# two glued face pairs, (T0, 0) with (T1, 1) and (T2, 0) with (T3, 1), one
# entry each; the faults below are built from the entry of the first pair
_TWO_PAIRS = {("T0", 0): ("T1", 1, {1: 2, 2: 3, 3: 0}),
              ("T2", 0): ("T3", 1, {1: 2, 2: 3, 3: 0})}


def _reversal(f):
    """The orientation-reversing involution of face ``f`` onto itself."""
    a, b, c = FACE_CYCLES[f]
    return {a: c, b: b, c: a}


def _mirrored(f, perm):
    """``perm`` with the cycle of face ``f`` run backwards first: an
    orientation-preserving face bijection."""
    cyc = FACE_CYCLES[f]
    return {cyc[k]: perm[cyc[-k % 3]] for k in range(3)}


# fault name -> the entries set on top of the gluings, from the entry
# ``(t, f) -> (t2, f2, perm)`` of the first pair: a new value for it, or an
# added entry that glues its target ``(t2, f2)`` a second time
_GLUING_FAULTS = {
    "unknown tet": lambda t, f, t2, f2, p: {(t, f): ("T9", f2, p)},
    "face index": lambda t, f, t2, f2, p: {(t, f): (t2, 4, p)},
    "permutation domain": lambda t, f, t2, f2, p: {
        (t, f): (t2, f2, {**p, f: f2})},
    "permutation range": lambda t, f, t2, f2, p: {
        (t, f): (t2, f2, {**p, next(iter(p)): f2})},
    "glued to itself": lambda t, f, t2, f2, p: {(t, f): (t, f, _reversal(f))},
    "orientation-preserving": lambda t, f, t2, f2, p: {
        (t, f): (t2, f2, _mirrored(f, p))},
    "glued as key and as target": lambda t, f, t2, f2, p: {
        (t2, f2): ("T2", 2, reversing_gluing(f2, 2))},
    "target of two entries": lambda t, f, t2, f2, p: {
        ("T2", 2): (t2, f2, reversing_gluing(2, f2))},
}


# the message of each fault, naming the ``key`` or ``target`` face of the
# faulty entry
_FAULT_MESSAGES = {
    "unknown tet": "gluing touches unknown tetrahedron 'T9'",
    "face index": "face index out of range at {key}",
    "permutation domain": "bad permutation domain at {key}",
    "permutation range": "bad permutation range at {key}",
    "glued to itself": "face glued to itself",
    "orientation-preserving": "gluing at {key} is not orientation-reversing",
    "glued as key and as target": "face {target} glued twice",
    "target of two entries": "face {target} glued twice",
}


def _faulty_gluings(fault, where):
    """``_TWO_PAIRS`` with the entry of its first pair written from face
    ``where`` of that pair (0: ``(T0, 0)``, 1: ``(T1, 1)`` with ``perm``
    inverted) and ``fault`` built from that entry.  Returns the gluings
    and the message of the fault."""
    gluings = _reversed(_TWO_PAIRS, [where == 1, False])
    key = next(iter(gluings))
    t2, f2, perm = gluings[key]
    message = _FAULT_MESSAGES[fault].format(key=key, target=(t2, f2))
    return {**gluings, **_GLUING_FAULTS[fault](*key, t2, f2, perm)}, message


def _two_triangle_torus():
    return SurfaceTriangulation(
        {"t0": ("a", "b", "c"), "t1": ("A", "B", "C")},
        {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"})


class TestValidation:
    def test_single_tet_sphere(self):
        m = single_tet()
        assert len(m.boundary.triangles) == 4
        assert m.boundary.euler_characteristic() == 2
        assert len(m.tets) == 1
        assert [c["torus"] for c in m.boundary_components] == [False]
        assert not m.torus_classes

    def test_product_two_genus2_components(self):
        g2 = genus2_four_vertex_surface()
        m = ProductTriangulation(g2).manifold
        comps = m.boundary_components
        assert [c["genus"] for c in comps] == [2, 2]
        assert not any(c["torus"] for c in comps)

    def test_torus_product_flagged(self):
        m = ProductTriangulation(_two_triangle_torus()).manifold
        assert [c["torus"] for c in m.boundary_components] == [True, True]
        assert m.torus_classes

    def test_bad_gluing_rejected(self):
        # corner 3 of face (T0, 0) goes nowhere on face (T1, 0)
        with pytest.raises(GluingError, match="bad permutation range"):
            Triangulation3(["T0", "T1"], {
                ("T0", 0): ("T1", 0, {1: 1, 2: 2, 3: 0}),
            })

    def test_repeated_tet_id_rejected(self):
        with pytest.raises(GluingError, match="'T0' listed twice") as err:
            Triangulation3(["T0", "T1", "T0"], {})
        # a refusal of the tet list names no gluing entry
        assert err.value.entry is None

    def test_two_pairs_accepted(self):
        m = Triangulation3(["T0", "T1", "T2", "T3"], _TWO_PAIRS)
        assert len(m.boundary_faces) == 12

    # an entry is checked alike from either face of its pair; only an
    # orientation-preserving entry gets as far as the orientation check,
    # and every other fault is a GluingError
    @pytest.mark.parametrize("where", [0, 1])
    @pytest.mark.parametrize("fault", list(_GLUING_FAULTS))
    def test_faulty_face_pair_rejected(self, fault, where):
        error = OrientationError if fault == "orientation-preserving" \
            else GluingError
        gluings, message = _faulty_gluings(fault, where)
        with pytest.raises(error) as err:
            Triangulation3(["T0", "T1", "T2", "T3"], gluings)
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("gluings, message", [
        ({("T0", 0): ("T9", 1, {1: 2, 2: 3, 3: 0})},
         "unknown tetrahedron 'T9'"),
        ({("T9", 1): ("T0", 0, {2: 1, 3: 2, 0: 3})},
         "unknown tetrahedron 'T9'"),
        ({("T0", 0): ("T1", 4, {1: 2, 2: 3, 3: 0})},
         "face index out of range at ('T0', 0)"),
        # a pair written from both of its faces glues each face twice
        ({("T0", 0): ("T1", 1, {1: 2, 2: 3, 3: 0}),
          ("T1", 1): ("T0", 0, {2: 1, 3: 2, 0: 3})},
         "face ('T1', 1) glued twice"),
        # a face index in range that is not an int has no corners
        ({("T0", 0.5): ("T1", 1, {1: 2, 2: 3, 3: 0})},
         "bad permutation domain at ('T0', 0.5)"),
        ({("T0", 0): ("T1", 0.5, {1: 2, 2: 3, 3: 0})},
         "bad permutation range at ('T0', 0)"),
    ])
    def test_rejection_names_the_entry(self, gluings, message):
        with pytest.raises(GluingError, match=re.escape(message)):
            Triangulation3(["T0", "T1"], gluings)

    def test_orientation_violating_gluing_rejected(self):
        # identity-style permutation preserves the face cycle: invalid
        glu = {("T0", 0): ("T1", 0, {1: 1, 2: 2, 3: 3})}
        with pytest.raises(OrientationError):
            Triangulation3(["T0", "T1"], glu)


class TestOppositePairs:
    def test_three_disjoint_pairs(self):
        assert len(OPPOSITE_PAIRS) == 3
        for e, e2 in OPPOSITE_PAIRS:
            assert e & e2 == frozenset()
        seen = [e for pair in OPPOSITE_PAIRS for e in pair]
        assert sorted(seen, key=sorted) == sorted(EDGE_PAIRS, key=sorted)

    def test_first_members_bound_a_face(self):
        # the derivation the literal replaces: the first members run around
        # face 3, and each is completed by the disjoint edge
        x, y, z = FACE_CYCLES[3]
        first = [frozenset((x, y)), frozenset((y, z)), frozenset((z, x))]
        assert OPPOSITE_PAIRS == [(e, frozenset(range(4)) - e) for e in first]

    def test_edge_index_literal(self):
        # the slot tables name the edges of OPPOSITE_PAIRS by EDGE_PAIRS
        # index; they are derived from it, and this is the table they give
        assert cone3._OPPOSITE_EDGES == [(1, 4), (3, 2), (0, 5)]

    def test_even_relabeling_invariance(self):
        rng = random.Random(50)
        perms = [p for p in itertools.permutations(range(4))
                 if _parity(p) == 1]
        assert len(perms) == 12
        for _ in range(10):
            u = {e: Fraction(rng.randint(-5, 5)) for e in EDGE_PAIRS}
            v = {e: Fraction(rng.randint(-5, 5)) for e in EDGE_PAIRS}
            base = tet_omega(u, v)
            for p in perms:
                up = {e: u[frozenset(p[i] for i in e)] for e in EDGE_PAIRS}
                vp = {e: v[frozenset(p[i] for i in e)] for e in EDGE_PAIRS}
                assert tet_omega(up, vp) == base

    def test_odd_relabeling_negates(self):
        u = {e: Fraction(i) for i, e in enumerate(EDGE_PAIRS)}
        v = {e: Fraction(i * i - 3) for i, e in enumerate(EDGE_PAIRS)}
        base = tet_omega(u, v)
        swap = (1, 0, 2, 3)
        up = {e: u[frozenset(swap[i] for i in e)] for e in EDGE_PAIRS}
        vp = {e: v[frozenset(swap[i] for i in e)] for e in EDGE_PAIRS}
        assert tet_omega(up, vp) == -base


class TestTetForm:
    def test_antisymmetry(self):
        rng = random.Random(51)
        u = {e: Fraction(rng.randint(-9, 9)) for e in EDGE_PAIRS}
        assert tet_omega(u, u) == 0

    def test_indicator_value(self):
        u = {e: Fraction(0) for e in EDGE_PAIRS}
        v = {e: Fraction(0) for e in EDGE_PAIRS}
        u[OPPOSITE_PAIRS[0][0]] = Fraction(1)
        v[OPPOSITE_PAIRS[1][0]] = Fraction(1)
        assert tet_omega(u, v) == Fraction(-1, 2)

    def test_equals_sum_of_boundary_triangles(self):
        m = single_tet()
        rng = random.Random(52)
        for _ in range(200):
            u = random_class_weight(m, rng, -9, 9)
            v = random_class_weight(m, rng, -9, 9)
            assert m.omega(u, v) == m.boundary_form(m.restrict(u),
                                                    m.restrict(v))


class TestCancellation:
    @pytest.mark.parametrize("make", [two_tets, lambda: chain_tets(4)])
    def test_omega_is_boundary_form(self, make):
        m = make()
        rng = random.Random(53)
        for _ in range(60):
            u = random_class_weight(m, rng)
            v = random_class_weight(m, rng)
            assert m.omega(u, v) == m.boundary_form(m.restrict(u),
                                                    m.restrict(v))
            assert m.omega(u, v) == oracle_omega(m, u, v)

    def test_interior_supported_weight_pairs_to_zero(self):
        m = two_tets()
        interior = [c for c in m.edge_classes
                    if all(c2 != c for c2 in m.boundary_edge_to_class.values())]
        # the shared face's edges are interior... if none, skip structurally
        rng = random.Random(54)
        u = {c: Fraction(0) for c in m.edge_classes}
        for c in interior:
            u[c] = Fraction(rng.randint(1, 5))
        for _ in range(20):
            v = random_class_weight(m, rng)
            assert m.omega(u, v) == m.boundary_form(m.restrict(u),
                                                    m.restrict(v))

    def test_closed_complex_omega_zero(self):
        m = _closed_two_tets()
        assert m.boundary is None
        rng = random.Random(55)
        for _ in range(40):
            u = random_class_weight(m, rng)
            v = random_class_weight(m, rng)
            assert m.omega(u, v) == 0


class TestW4:
    def test_single_tet_codimension_one(self):
        m = single_tet()
        for k in range(3):
            basis = m.w4_subspace({"T0": k})
            assert len(basis) == 5

    def test_all_equal_weight_in_all_choices(self):
        m = chain_tets(3)
        w = {c: Fraction(1) for c in m.edge_classes}
        ok, per_tet = m.w4_member(w)
        assert ok
        assert all(sorted(s) == [0, 1, 2] for s in per_tet.values())

    def test_pair_indicator_choices(self):
        m = single_tet()
        e, e2 = OPPOSITE_PAIRS[0]
        w = {c: Fraction(0) for c in m.edge_classes}
        w[m.edge_class[("T0", e)]] = Fraction(1)
        w[m.edge_class[("T0", e2)]] = Fraction(1)
        ok, per_tet = m.w4_member(w)
        # sums are (2, 0, 0): only the equality between the last two holds
        assert ok and per_tet["T0"] == [2]

    def test_distinct_sums_not_member(self):
        m = single_tet()
        # weights 1..6 placed so pair sums are 1+2, 3+4, 5+6
        w = {c: None for c in m.edge_classes}
        vals = iter([1, 2, 3, 4, 5, 6])
        for e, e2 in OPPOSITE_PAIRS:
            w[m.edge_class[("T0", e)]] = Fraction(next(vals))
            w[m.edge_class[("T0", e2)]] = Fraction(next(vals))
        ok, per_tet = m.w4_member(w)
        assert not ok and per_tet["T0"] == []

    def test_tree_map_weights_are_members(self):
        rng = random.Random(56)
        for trial in range(60):
            n = rng.randint(1, 4)
            m = chain_tets(n) if rng.random() < 0.7 else two_tets()
            rank = rng.randint(1, 3)
            tree = random_tree(rng, rng.randint(2, 7), rank)
            vclasses = sorted({m.vertex_class[(t, v)]
                               for t in m.tets for v in range(4)}, key=repr)
            f = TreeMap(tree, {vc: tree.vertices[rng.randrange(len(tree.vertices))]
                               for vc in vclasses})
            w = {}
            for c in m.edge_classes:
                # every member of the class joins the same vertex classes
                (t, e) = next(k for k, cl in m.edge_class.items() if cl == c)
                i, j = sorted(e)
                u = m.vertex_class[(t, i)]
                v = m.vertex_class[(t, j)]
                w[c] = tree.distance(f(u), f(v))
            ok, _ = m.w4_member(w)
            assert ok

    def test_left_inverse_pushforward_stays_member(self):
        # tuple-valued member weights push forward to rational members
        from isocone.ordgroup import LeftInverse
        from util import random_positive_lexvec
        rng = random.Random(57)
        for _ in range(30):
            m = chain_tets(rng.randint(1, 3))
            rank = rng.randint(2, 3)
            tree = random_tree(rng, 6, rank)
            vclasses = sorted({m.vertex_class[(t, v)]
                               for t in m.tets for v in range(4)}, key=repr)
            f = TreeMap(tree, {vc: tree.vertices[rng.randrange(6)]
                               for vc in vclasses})
            w = {}
            for c in m.edge_classes:
                (t, e) = next(k for k, cl in m.edge_class.items() if cl == c)
                i, j = sorted(e)
                w[c] = tree.distance(f(m.vertex_class[(t, i)]),
                                     f(m.vertex_class[(t, j)]))
            ok, _ = m.w4_member(w)
            assert ok
            phi = LeftInverse(random_positive_lexvec(rng, rank))
            w_r = {c: phi(val) for c, val in w.items()}
            ok2, _ = m.w4_member(w_r)
            assert ok2


class TestIsotropy:
    def test_single_tet_all_choices(self):
        m = single_tet()
        for k in range(3):
            assert m.isotropy_check({"T0": k})

    def test_chain4_all_81(self):
        m = chain_tets(4)
        for combo in itertools.product(range(3), repeat=4):
            assert m.isotropy_check(dict(zip(m.tets, combo)))

    @staticmethod
    def _corrupted_basis():
        # dropping the per-tet equality on one tet of two leaves a space on
        # which the total form does not vanish; the basis is in the format
        # of ``w4_subspace``
        m = two_tets()
        basis = linalg.kernel_basis([m.choice_rows[m.tets[0]][0]],
                                    len(m.columns))
        return m, [(L, {m.columns[c]: x for c, x in vec.items()})
                   for L, vec in basis]

    def test_corrupted_subspace_not_isotropic(self):
        m, basis = self._corrupted_basis()
        ws = _fraction_basis(m, basis)
        vals = [m.omega(ws[i], ws[j])
                for i in range(len(ws)) for j in range(i + 1, len(ws))]
        assert any(v != 0 for v in vals)

    def test_isotropy_check_refuses_corrupted_subspace(self, monkeypatch):
        m, ws = self._corrupted_basis()
        choices = {t: 0 for t in m.tets}
        assert m.isotropy_check(choices)
        monkeypatch.setattr(m, "w4_subspace", lambda choices: ws)
        assert m.isotropy_check(choices) is False

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_scaled_corrupted_subspace_matches_fraction_gram(self, data):
        # each vector's numerators times a random nonzero integer, over a
        # random denominator, so that the integer verdict runs on
        # numerators whose vectors have denominators: the whole basis is
        # not isotropic, a subset of it may be
        m, ws = self._corrupted_basis()
        factors = data.draw(st.lists(
            st.integers(-9, 9).filter(bool), min_size=len(ws),
            max_size=len(ws)))
        dens = data.draw(st.lists(st.integers(1, 9), min_size=len(ws),
                                  max_size=len(ws)))
        scaled = [(L, {c: q * x for c, x in v.items()})
                  for q, L, (_, v) in zip(factors, dens, ws)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(ws),
                                  max_size=len(ws)))
        choices = {t: 0 for t in m.tets}
        for basis in (scaled, [v for v, k in zip(scaled, keep) if k]):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(m, "w4_subspace", lambda choices: basis)
                assert m.isotropy_check(choices) is \
                    _fraction_isotropy(m, _fraction_basis(m, basis))
        assert _fraction_isotropy(m, _fraction_basis(m, scaled)) is False

    def test_g2_samples_match_fraction_gram(self):
        # g2xI choice subspaces, some of whose basis vectors carry
        # denominators
        m = g2_product_bundle()["manifold"]
        rng = random.Random(83)
        fractional = 0
        for _ in range(24):
            choices = {t: rng.randrange(3) for t in m.tets}
            basis = _fraction_basis(m, m.w4_subspace(choices))
            fractional += sum(any(x.denominator > 1 for x in v.values())
                              for v in basis)
            assert m.isotropy_check(choices) is \
                _fraction_isotropy(m, basis) is True
        assert fractional

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_complexes_match_fraction_gram(self, seed):
        rng = random.Random(seed)
        m = _random_complex(rng)
        choices = {t: rng.randrange(3) for t in m.tets}
        assert m.isotropy_check(choices) is \
            _fraction_isotropy(m, _fraction_basis(m, m.w4_subspace(choices)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.data())
    def test_random_corrupted_subspaces_match_fraction_gram(self, seed, data):
        # a choice subspace of a _random_complex draw with one tet's
        # equality dropped, as _corrupted_basis does on two_tets, in the
        # format of w4_subspace: the form need not vanish on it
        rng = random.Random(seed)
        m = _random_complex(rng)
        choices = {t: rng.randrange(3) for t in m.tets}
        drop = data.draw(st.sampled_from(m.tets))
        rows = m.torus_rows + [m.choice_rows[t][choices[t]]
                               for t in m.tets if t != drop]
        basis = [(L, {m.columns[c]: x for c, x in vec.items()})
                 for L, vec in linalg.kernel_basis(rows, len(m.columns))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(m, "w4_subspace", lambda choices: basis)
            assert m.isotropy_check(choices) is \
                _fraction_isotropy(m, _fraction_basis(m, basis))


def _fraction_isotropy(m, basis):
    """The ``Fraction`` Gram that ``isotropy_check`` ran before its basis
    came as integers: the form on every pair of basis vectors, taken on
    the rational vectors as given, by the pairwise oracle."""
    return pairwise_isotropy(m, basis)


class TestIsotropyCertificate:
    """``isotropy_certificate`` checks the proof that every choice subspace
    is isotropic: the tet lemma on the constant tables, and Stokes on
    ``form_rows`` and the boundary triangles."""

    @pytest.mark.parametrize("build, interior, triangles", [
        (lambda: g2_product_bundle()["manifold"], 22, 24),
        (lambda: chain_tets(4), 0, 10), (two_tets, 0, 6), (single_tet, 0, 4)])
    def test_sizes(self, build, interior, triangles):
        assert build().isotropy_certificate() == {
            "choices": 3, "interior_classes": interior,
            "boundary_triangles": triangles}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_complexes_verify_and_pass_the_gram(self, seed):
        # the certificate verifies, and sampled choice subspaces pass the
        # pairwise Gram, the per-vector check the command ran before
        rng = random.Random(seed)
        m = _random_complex(rng)
        cert = m.isotropy_certificate()
        assert cert["boundary_triangles"] == len(m.boundary_faces)
        for _ in range(3):
            choices = {t: rng.randrange(3) for t in m.tets}
            assert pairwise_isotropy(
                m, _fraction_basis(m, m.w4_subspace(choices))) is True

    def test_pseudo_manifolds_verify(self):
        # 131 of these 500 draws have a vertex link that is neither a disk
        # nor a sphere; the proof needs only the face pairing
        rng = random.Random(5)
        pseudo = 0
        for _ in range(500):
            m = _random_complex(rng)
            pseudo += not links_are_disks_or_spheres(m)
            m.isotropy_certificate()
        assert pseudo == 131

    def test_lemma_once_per_process_and_not_at_import(self):
        code = ("import isocone.cli, isocone.cone3 as c; "
                "print(c._tet_lemma.cache_info().misses)")
        env = dict(os.environ, PYTHONPATH=str(
            pathlib.Path(cone3.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             env=env, capture_output=True, text=True).stdout
        assert out == "0\n"
        cone3._tet_lemma.cache_clear()
        for m in (chain_tets(3), two_tets(), chain_tets(3)):
            m.isotropy_certificate()
        assert cone3._tet_lemma.cache_info().misses == 1

    @pytest.mark.parametrize("k", range(9))
    def test_flipped_wedge_names_choice_0(self, monkeypatch, k):
        # a flipped wedge adds a multiple of one edge wedge, which vanishes
        # on no choice hyperplane
        monkeypatch.setattr(cone3, "_FORM_WEDGES", [
            w[::-1] if i == k else w
            for i, w in enumerate(cone3._FORM_WEDGES)])
        cone3._tet_lemma.cache_clear()
        try:
            with pytest.raises(cone3.IsotropyError, match=re.escape(
                    "the tetrahedron form does not vanish on choice 0")):
                chain_tets(2).isotropy_certificate()
        finally:
            cone3._tet_lemma.cache_clear()

    def test_wrong_boundary_coefficient_names_class_and_triangle(self):
        m = chain_tets(2)
        E = m.columns[-1]
        (col, x), *rest = m.form_rows[E]
        m.form_rows[E] = ((col, x + 1), *rest)
        # the first triangle with a side in class E
        t = next(t for t, ds in m.boundary.triangles.items()
                 if E in [m.boundary_edge_to_class[m.boundary.edge_class[d]]
                          for d in ds])
        with pytest.raises(cone3.IsotropyError, match=re.escape(
                f"at class {E!r} of triangle {t!r}")):
            m.isotropy_certificate()

    def test_interior_entry_names_class(self):
        m = g2_product_bundle()["manifold"]
        E = m.columns[0]
        assert m.form_rows[E] == ()
        m.form_rows[E] = ((len(m.columns) - 1, 1),)
        with pytest.raises(cone3.IsotropyError, match=re.escape(
                f"at interior class {E!r}")):
            m.isotropy_certificate()


class TestRestriction:
    def test_interior_to_zero_and_linearity(self):
        m = two_tets()
        rng = random.Random(58)
        u = random_class_weight(m, rng)
        v = random_class_weight(m, rng)
        ru = m.restrict(u)
        rv = m.restrict(v)
        uv = {c: u[c] + v[c] for c in m.edge_classes}
        ruv = m.restrict(uv)
        assert all(ruv[E] == ru[E] + rv[E] for E in ruv)

    def test_boundary_indicator_preserved(self):
        m = two_tets()
        E = next(iter(m.boundary_edge_to_class))
        cls = m.boundary_edge_to_class[E]
        w = {c: Fraction(1) if c == cls else Fraction(0)
             for c in m.edge_classes}
        assert m.restrict(w)[E] == 1


class TestProduct:
    def test_tet_count(self):
        g2 = genus2_four_vertex_surface()
        m = ProductTriangulation(g2).manifold
        assert len(m.tets) == 3 * len(g2.triangles)

    def test_boundary_copies_oppositely_oriented(self):
        bundle = g2_product_bundle()
        g2, m = bundle["surface"], bundle["manifold"]
        rng = random.Random(59)
        wa = {e: Fraction(rng.randint(-4, 4)) for e in g2.edge_classes}
        wb = {e: Fraction(rng.randint(-4, 4)) for e in g2.edge_classes}

        def lift(weights, edge_of):
            out = {E: Fraction(0) for E in m.boundary.edge_classes}
            for e, val in weights.items():
                out[edge_of[e]] = val
            return out

        bottom_of, top_of = bundle["bottom_edge_of"], bundle["top_edge_of"]
        bot = triangle_form_sum(m.boundary, lift(wa, bottom_of),
                                lift(wb, bottom_of))
        top = triangle_form_sum(m.boundary, lift(wa, top_of),
                                lift(wb, top_of))
        assert bot == -top

    def test_validator_passes(self):
        g2 = genus2_four_vertex_surface()
        m = ProductTriangulation(g2).manifold
        assert len(m.tets) == 36
        assert [c["genus"] for c in m.boundary_components] == [2, 2]

    def test_triangle_ids_with_equal_names_rejected(self):
        torus = SurfaceTriangulation(
            {0: ("a", "b", "c"), "0": ("A", "B", "C")},
            {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"})
        with pytest.raises(ValueError):
            ProductTriangulation(torus)


def _reference_acyclic_edge_senses(surface):
    """The retired search of ``_acyclic_edge_senses``: one recursion level
    per edge in id order, True before False, and every triangle rechecked
    after each assignment."""
    # triangle -> [(edge, flag)]: sense_i = x_edge == flag
    edge_lits = {t: [(surface.edge_class[d], d == surface.edge_class[d])
                     for d in ds]
                 for t, ds in sorted(surface.triangles.items(),
                                     key=lambda kv: repr(kv[0]))}
    edges = sorted(surface.edge_classes, key=repr)
    assign = {}

    def triangle_ok(t):
        senses = []
        for E, flag in edge_lits[t]:
            if E not in assign:
                return True
            senses.append(assign[E] == flag)
        return not (all(senses) or not any(senses))

    def bt(i):
        if i == len(edges):
            return True
        for val in (True, False):
            assign[edges[i]] = val
            if all(triangle_ok(t) for t in edge_lits) and bt(i + 1):
                return True
        del assign[edges[i]]
        return False

    if not bt(0):
        raise ValueError("no acyclic edge orientation found")
    return assign


@functools.cache
def _split_surfaces(count):
    """The genus-2 one-vertex surface with up to 5 random triangles split,
    ``count`` of them, seeded."""
    out = []
    rng = random.Random(17)
    for k in range(count):
        surf = genus2_one_vertex_surface()
        for j in range(rng.randint(1, 5)):
            t = rng.choice(sorted(surf.triangles, key=repr))
            surf = split_triangle(surf, t, f"s{k}.{j}")
        out.append(surf)
    return out


def _assert_acyclic(surface, senses):
    assert list(senses) == surface.edge_classes
    for ds in surface.triangles.values():
        rises = {senses[surface.edge_class[d]] == (d == surface.edge_class[d])
                 for d in ds}
        assert rises == {True, False}


class TestAcyclicEdgeSenses:
    @pytest.mark.parametrize("make", [
        genus2_one_vertex_surface, genus2_four_vertex_surface,
        *[lambda f=f: delaunay(f()).adapted()[0].comb
          for f in (square_torus, hex_torus, lshape_h2, pillowcase)],
        *[lambda n=n: _grid_module().grid_torus(n).comb
          for n in range(1, 15)],
        *[lambda k=k: _split_surfaces(20)[k] for k in range(20)]])
    def test_matches_recursive_search(self, make):
        surface = make()
        senses = cone3._acyclic_edge_senses(surface)
        assert senses == _reference_acyclic_edge_senses(surface)
        _assert_acyclic(surface, senses)

    def test_more_than_a_thousand_edges(self):
        # one recursion level per edge overflowed the stack here
        surface = _grid_module().grid_torus(19).comb
        assert len(surface.edge_classes) == 1083
        _assert_acyclic(surface, cone3._acyclic_edge_senses(surface))

    def test_no_orientation_refused(self, monkeypatch):
        # with every triangle cyclic the search backs up past the first
        # edge
        surface = genus2_one_vertex_surface()
        monkeypatch.setattr(surface, "triangles", {
            t: (ds[0], ds[0], ds[0]) for t, ds in surface.triangles.items()})
        for search in (cone3._acyclic_edge_senses,
                       _reference_acyclic_edge_senses):
            with pytest.raises(ValueError,
                               match="^no acyclic edge orientation found$"):
                search(surface)


class TestMembership:
    def test_zero_weight(self):
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        wb = {E: Fraction(0) for E in m.boundary.edge_classes}
        res = member(m, btr, wb)
        assert res.member
        assert all(v == 0 for v in res.witness.values())
        assert verify_witness(m, btr, wb, res)

    def test_deep_chain(self):
        m, btr = _deep_chain()
        wb = {E: 0 for E in m.boundary.edge_classes}
        res = member(m, btr, wb)
        assert res.member and verify_witness(m, btr, wb, res)

    def test_diagonal_weights(self):
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        rng = random.Random(60)
        for _ in range(3):
            wb = diagonal_boundary_weight(
                bundle, mf_weight(bundle["track"], rng))
            res = member(m, btr, wb)
            assert res.member and verify_witness(m, btr, wb, res)

    def test_witness_is_one_fraction_per_class(self):
        # read off the affine reduced rows, each witness value is a single
        # Fraction, and the signs and switch relations are checked on the
        # integer pins: 58 per query, one per edge class.  The
        # back-substituted solution divided by D made 1,767; the Fraction
        # sums of check_weight and the Fraction-scaled pins made 1,180
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        rng = random.Random(1)
        weights = [diagonal_boundary_weight(bundle,
                                            mf_weight(bundle["track"], rng))
                   for _ in range(10)]
        results = []
        assert len(m.edge_classes) == 58
        assert fraction_constructions(lambda: results.extend(
            member(m, btr, wb) for wb in weights)) == 58 * 10
        assert all(res.member and verify_witness(m, btr, wb, res)
                   for res, wb in zip(results, weights))

    def test_switch_violation_reported(self):
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        wb = {E: Fraction(1) for E in m.boundary.edge_classes}
        res = member(m, btr, wb)
        assert not res.member and res.reason == "switch"

    def test_negative_weight_reported(self):
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        wb = {E: Fraction(-1) for E in m.boundary.edge_classes}
        res = member(m, btr, wb)
        assert not res.member and res.reason == "negative"

    def assert_push_count(self, q, count, monkeypatch):
        # the push count of an off-diagonal pair pins the search
        bundle = g2_product_bundle()
        wb = off_diagonal_weight(bundle, q)
        pushes = _count_pushes(monkeypatch)
        res = member(bundle["manifold"], bundle["boundary_track"], wb)
        assert not res.member and res.reason == "no-choice-vector"
        assert len(pushes) == count

    def test_no_choice_vector_push_count(self, monkeypatch):
        # pair 21, the q25 pair of the cone-member benchmark; the
        # chronological search pushes 18,144 rows
        self.assert_push_count(21, 11687, monkeypatch)

    def test_core_push_count(self, monkeypatch):
        # of pair 21's 11,687 pushes, only the rows of three or more terms,
        # and the shorter ones that meet a pivot row with a longer tail,
        # reach the dict core; the rest are reduced in locals
        bundle = g2_product_bundle()
        wb = off_diagonal_weight(bundle, 21)
        calls = []
        core = linalg.IncrementalSystem._push

        def counted_core(self, v, b, tag=0):
            calls.append(v)
            return core(self, v, b, tag)

        monkeypatch.setattr(linalg.IncrementalSystem, "_push", counted_core)
        res = member(bundle["manifold"], bundle["boundary_track"], wb)
        assert not res.member and res.reason == "no-choice-vector"
        assert len(calls) == 2953

    def test_long_pair_push_count(self, monkeypatch):
        # pair 12, one of the two pairs the benchmark leaves out for their
        # length; the chronological search pushes 183,777 rows
        self.assert_push_count(12, 67085, monkeypatch)

    def test_class_conflict_reported(self, monkeypatch):
        # the link of an edge class is one arc or one circle, so no
        # triangulation gives a class other than 0 or 2 free face sides;
        # merging two boundary classes by hand gives one class 4, and the
        # pairing names it
        m = g2_product_bundle()["manifold"]
        kept = _merge_boundary_classes(monkeypatch, m)
        with pytest.raises(ValueError,
                           match=f"edge class {re.escape(repr(kept))} has 4 "
                                 f"free face sides"):
            Triangulation3(m.tets, m.gluings)

    def assert_choice_rows_folded(self, m, btr, wb, pushes):
        # the pins are constants: every pushed row has them folded into
        # its integer right-hand side, so no boundary column
        del pushes[:]
        member(m, btr, wb)
        boundary = {m.columns.index(c)
                    for c in m.boundary_edge_to_class.values()}
        _assert_integral(pushes)
        assert not [row for row, _ in pushes
                    if any(c in boundary for c, _ in row)]

    def test_choice_rows_have_no_boundary_column(self, monkeypatch):
        pushes = _count_pushes(monkeypatch)
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        wb = diagonal_boundary_weight(
            bundle, mf_weight(bundle["track"], random.Random(63)))
        self.assert_choice_rows_folded(m, btr, wb, pushes)
        self.assert_choice_rows_folded(
            m, btr, off_diagonal_weight(bundle, 21), pushes)
        m, btr, wb = mixed_query()[:3]
        self.assert_choice_rows_folded(m, btr, wb, pushes)


class TestIntegerPushes:
    """The searches push integer rows only, and the homology basis pushes
    none; ``member``'s pushes are checked in ``TestMembership``."""

    def test_compute_cone(self, monkeypatch):
        pushes = _count_pushes(monkeypatch)
        compute_cone(*_chain_track(4))
        _assert_integral(pushes)
        del pushes[:]
        bundle = g2_product_bundle()
        m = bundle["manifold"]
        rng = random.Random(65)
        compute_cone(m, bundle["boundary_track"], iter(
            [tuple(rng.randrange(3) for _ in m.tets) for _ in range(2)]))
        _assert_integral(pushes)

    def test_isotropy_check(self, monkeypatch):
        pushes = _count_pushes(monkeypatch)
        m = g2_product_bundle()["manifold"]
        rng = random.Random(66)
        m.isotropy_check({t: rng.randrange(3) for t in m.tets})
        _assert_integral(pushes)

    @pytest.mark.parametrize("make", [square_torus, hex_torus, lshape_h2,
                                      pillowcase])
    def test_surface_homology(self, make, monkeypatch):
        # its two forests come from union_find, with no elimination
        pushes = _count_pushes(monkeypatch)
        SurfaceHomology(*make().comb.skeleton_ribbon())
        assert pushes == []


class _ScarceTrack:
    """A stand-in track whose basis vectors are each -1 on their own
    branch: a draw is nonnegative only if every coefficient is 0."""

    branches = [f"b{i}" for i in range(12)]
    integer_basis = [(1, {e: -1}) for e in branches]


def test_mf_weight_stops_at_the_cap():
    with pytest.raises(ValueError, match=f"12 branches in {MF_WEIGHT_TRIES} "
                                         f"tries"):
        mf_weight(_ScarceTrack(), random.Random(0))


def _reference_mf_weight(track, rng):
    """``mf_weight`` summed in ``Fraction``s on ``weight_space_basis``, as
    it was before the integer sampler: the oracle of its draws."""
    basis = track.weight_space_basis()
    for _ in range(MF_WEIGHT_TRIES):
        w = {e: Fraction(0) for e in track.branches}
        for vec in basis:
            c = Fraction(rng.randint(0, 6), rng.randint(1, 3))
            for e, val in vec.items():
                w[e] += c * val
        if all(v >= 0 for v in w.values()):
            return w
    raise ValueError("no nonnegative weight")


def _g2_track_read_back():
    """The ``g2_track`` fixture as ``io`` writes it, read back from its
    ``switch <id> in <a> <b> out <c> ccw`` lines: string ids in a new
    ``repr`` order."""
    track, *_ = genus2_maximal_track()
    text = io.serialize_track(io.rename_track(track))
    return TrainTrack({toks[1]: (toks[3], toks[4], toks[6])
                       for toks in map(str.split, text.splitlines())
                       if toks[0] == "switch"})


@functools.cache
def _sampler_track(name):
    return {
        "g2": lambda: genus2_maximal_track()[0],
        "g2_track": _g2_track_read_back,
        "hex_torus": lambda: hex_torus().adapted()[0].dual_track(),
        "lshape_h2": lambda: lshape_h2().adapted()[0].dual_track(),
        "empty": lambda: TrainTrack({}),
        # every track above has L = 1 on every basis vector; here two
        # switches take one branch in both incoming slots, and L is 1 and 2
        "mixed_L": lambda: TrainTrack({
            "s0": ("b0", "b0", "b2"), "s1": ("b1", "b5", "b3"),
            "s2": ("b2", "b3", "b1"), "s3": ("b4", "b4", "b5")}),
    }[name]()


@st.composite
def _random_tracks(draw):
    """A trivalent track on 2k switches: a random order of the 6k slots of
    3k branches, three slots per switch."""
    k = draw(st.integers(1, 4))
    slots = draw(st.permutations([f"b{b}" for b in range(3 * k)] * 2))
    return TrainTrack({f"s{j}": tuple(slots[3 * j:3 * j + 3])
                       for j in range(2 * k)})


def _draw_or_none(sampler, track, rng):
    try:
        return sampler(track, rng)
    except ValueError:      # the cap: every try was rejected
        return None


class TestIntegerSampler:
    """``mf_weight`` on the integer basis against ``_reference_mf_weight``."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.sampled_from(["g2", "g2_track", "hex_torus",
                                      "lshape_h2", "empty", "mixed_L"])
                     .map(_sampler_track), _random_tracks()),
           st.integers(0, 2 ** 32), st.integers(1, 4))
    def test_same_draws_and_rng_state(self, track, seed, draws):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            w = _draw_or_none(mf_weight, track, rng)
            ref = _draw_or_none(_reference_mf_weight, track, ref_rng)
            assert w == ref
            if w is not None:
                assert list(w) == list(ref) == track.branches
                assert all(type(x) is Fraction for x in w.values())
        assert rng.getstate() == ref_rng.getstate()

    def test_mixed_L_track(self):
        assert sorted(L for L, _ in _sampler_track("mixed_L").integer_basis) \
            == [1, 2]

    def test_one_fraction_per_branch(self):
        # cold: the integer basis is built inside the count, and makes none
        track = genus2_maximal_track()[0]
        assert fraction_constructions(
            lambda: mf_weight(track, random.Random(5))) == len(track.branches)

    def test_basis_is_computed_once(self, monkeypatch):
        kernel_basis, calls = linalg.kernel_basis, []

        def counted(*args):
            calls.append(args)
            return kernel_basis(*args)

        monkeypatch.setattr(linalg, "kernel_basis", counted)
        track, rng = genus2_maximal_track()[0], random.Random(9)
        for _ in range(10):
            mf_weight(track, rng)
        assert len(calls) == 1
        track.weight_space_basis()
        assert len(calls) == 1

    def test_fraction_basis_is_new_on_each_call(self):
        track = genus2_maximal_track()[0]
        first, second = track.weight_space_basis(), track.weight_space_basis()
        assert first == second
        assert all(a is not b for a, b in zip(first, second))
        first[0][track.branches[0]] += 1
        assert track.weight_space_basis() == second


def _assert_column_order(m):
    boundary = [m.boundary_edge_to_class[E] for E in m.boundary.edge_classes] \
        if m.boundary else []
    first = len(m.columns) - len(boundary)
    assert m.columns[first:] == boundary[::-1]
    assert m.columns[:first] == [c for c in m.edge_classes
                                 if c not in boundary]


class TestColumnOrder:
    """``Triangulation3.columns``, the one column order of every cached
    row: the interior classes in ``edge_classes`` order, then the boundary
    classes in reverse ``boundary.edge_classes`` order, which
    ``compute_cone`` and ``member`` take as they are."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_complexes(self, seed):
        _assert_column_order(_random_complex(random.Random(seed)))

    @pytest.mark.parametrize("make", [
        single_tet, two_tets, lambda: chain_tets(4),
        lambda: g2_product_bundle()["manifold"],
        lambda: mixed_product()[2]["manifold"],
        _closed_two_tets])
    def test_fixtures(self, make):
        _assert_column_order(make())

    @pytest.mark.parametrize("query, sampled", [
        (lambda: _chain_track(4), False),
        (lambda: mixed_query()[:2], True)])
    def test_compute_cone_pushes_the_cached_rows(self, monkeypatch, query,
                                                 sampled):
        # the torus rows, then the switch rows, then choice rows: every
        # torus and choice row pushed is the cached tuple itself
        pushes = _count_pushes(monkeypatch)
        m, btr = query()
        combos = [tuple(i % 3 for i in range(j, j + len(m.tets)))
                  for j in range(3)]
        compute_cone(m, btr, iter(combos) if sampled else None)
        torus, switches = len(m.torus_rows), len(btr.track.switches)
        assert all(row is cached for (row, _), cached
                   in zip(pushes[:torus], m.torus_rows, strict=True))
        cached = {id(row) for rows in m.choice_rows.values() for row in rows}
        assert len(pushes) > torus + switches
        assert all(id(row) in cached for row, _ in pushes[torus + switches:])

    def test_member_system_spans_the_interior_columns(self, monkeypatch):
        made = []
        init = linalg.IncrementalSystem.__init__

        def tracked(self, ncols):
            made.append(ncols)
            init(self, ncols)

        monkeypatch.setattr(linalg.IncrementalSystem, "__init__", tracked)
        pushes = _count_pushes(monkeypatch)
        bundle = g2_product_bundle()
        diagonal = diagonal_boundary_weight(
            bundle, mf_weight(bundle["track"], random.Random(65)))
        for m, btr, wb in [
                (bundle["manifold"], bundle["boundary_track"], diagonal),
                mixed_query()[:3]]:
            del made[:], pushes[:]
            assert member(m, btr, wb).member
            first = len(m.columns) - len(m.boundary.edge_classes)
            assert made == [first]
            assert all(c < first for row, _ in pushes for c, _ in row)


class TestBackjumping:
    """``member`` against the chronological search of ``_reference_member``:
    backjumping skips only subtrees without a solution, so the verdict,
    the choices and the witness agree, and it never pushes more choice
    rows."""

    def assert_matches_reference(self, m, btr, wb, pushes):
        """The result, and how many fewer choice rows it pushed."""
        del pushes[:]
        ref = _reference_member(m, btr, wb)
        # the reference also pushes the pins and the torus rows first,
        # which member holds as constants
        fixed = len(m.boundary_edge_to_class) + len(m.torus_rows)
        reference_pushes = max(len(pushes) - fixed, 0)
        del pushes[:]
        res = member(m, btr, wb)
        assert (res.member, res.reason, res.choices, res.witness) == \
            (ref.member, ref.reason, ref.choices, ref.witness)
        assert len(pushes) <= reference_pushes
        return res, reference_pushes - len(pushes)

    def test_random_complexes(self, monkeypatch):
        pushes = _count_pushes(monkeypatch)
        rng = random.Random(81)
        verdicts = set()
        for _ in range(40):
            m, btr, wb, _ = _random_member_query(rng)
            res, _ = self.assert_matches_reference(m, btr, wb, pushes)
            verdicts.add(res.member)
        assert verdicts == {True, False}

    def test_g2_one_vertex_products(self, monkeypatch):
        # products over the one-vertex genus-2 surface (18 tets) with random
        # outgoing slots on both boundary copies: unlike the small random
        # complexes, nearly every search here skips a subtree, and a
        # conflict set missing a row's mask reports members as non-members
        pushes = _count_pushes(monkeypatch)
        m = ProductTriangulation(genus2_one_vertex_surface()).manifold
        rng = random.Random(5)
        verdicts, skipped = [], 0
        for _ in range(20):
            btr = BoundaryTrack(m, _random_outgoing(m, rng))
            res, saved = self.assert_matches_reference(
                m, btr, mf_weight(btr.track, rng), pushes)
            verdicts.append(res.member)
            skipped += saved > 0
        assert verdicts.count(False) == 12 and skipped == 18

    def test_g2_diagonal_members(self, monkeypatch):
        pushes = _count_pushes(monkeypatch)
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        rng = random.Random(62)
        for _ in range(4):
            wb = diagonal_boundary_weight(
                bundle, mf_weight(bundle["track"], rng))
            assert self.assert_matches_reference(m, btr, wb, pushes)[0].member

    @pytest.mark.parametrize("q", [21, 8])
    def test_g2_off_diagonal_pairs(self, q, monkeypatch):
        pushes = _count_pushes(monkeypatch)
        bundle = g2_product_bundle()
        wb = off_diagonal_weight(bundle, q)
        res, _ = self.assert_matches_reference(
            bundle["manifold"], bundle["boundary_track"], wb, pushes)
        assert res.reason == "no-choice-vector"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 7))
def test_fractional_pins_match_reference(seed, k):
    # pins with a common denominator D > 1 fold into integer right-hand
    # sides D times the pin values; the chronological reference eliminates
    # the pins in every push instead
    m, btr, wb, _ = _random_member_query(random.Random(seed))
    wb = {e: x / k for e, x in wb.items()}
    assume(math.lcm(*[x.denominator for x in wb.values()]) > 1)
    res, ref = member(m, btr, wb), _reference_member(m, btr, wb)
    assert (res.member, res.reason, res.choices, res.witness) == \
        (ref.member, ref.reason, ref.choices, ref.witness)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_walk_visits_the_consistent_vectors_in_order(seed):
    # a _random_complex draw with random values pinned on its boundary
    # classes as untagged unit rows, and a random nonempty subset of each
    # tet's choices, in order; the oracle pushes the pins and each vector
    # of the product into a fresh system.  A continuing leaf must see
    # exactly the consistent vectors, in lexicographic order, once each,
    # and a stopping leaf the first of them
    rng = random.Random(seed)
    m = _random_complex(rng)
    values = rng.choice([[1, 1, 1, 2], [1, 1, 2], [1, 2]])
    pins = [([(m.columns.index(c), 1)], rng.choice(values))
            for c in m.boundary_edge_to_class.values()]
    subsets = [sorted(rng.sample(range(3), rng.randint(1, 3)))
               for _ in m.tets]
    options = [[(k, m.choice_rows[t][k], 0) for k in ks]
               for t, ks in zip(m.tets, subsets)]

    def system():
        sysm = linalg.IncrementalSystem(len(m.columns))
        for row, b in pins:
            assert sysm.push(row, b)
        return sysm

    def consistent(combo):
        sysm = system()
        return all(sysm.push(m.choice_rows[t][k], 0)
                   for t, k in zip(m.tets, combo))

    expected = [c for c in itertools.product(*subsets) if consistent(c)]
    sysm, visited = system(), []
    held = dict(sysm.pivot_rows)
    assert walk(sysm, options, lambda combo: visited.append(combo)) is None
    assert visited == expected
    assert sysm.pivot_rows == held
    sysm, stops = system(), []
    first = walk(sysm, options, lambda combo: stops.append(combo) or True)
    assert stops == expected[:1]
    assert first == (expected[0] if expected else None)
    if first is not None:
        # the stopped walk keeps the pins and the rows of its vector
        sol = solution(sysm)
        for row, b in pins + [(m.choice_rows[t][k], 0)
                              for t, k in zip(m.tets, first)]:
            assert sum(x * sol[c] for c, x in row) == b


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_walk_matches_the_recursion(seed, j):
    # the draws of the test above, walked by the loop and by the retired
    # recursion under a continuing leaf, a leaf that stops at the first
    # vector and one that stops at the j-th: the same pushes, leaf calls,
    # result and final system, and no more rollback calls
    rng = random.Random(seed)
    m = _random_complex(rng)
    values = rng.choice([[1, 1, 1, 2], [1, 1, 2], [1, 2]])
    pins = [([(m.columns.index(c), 1)], rng.choice(values))
            for c in m.boundary_edge_to_class.values()]
    subsets = [sorted(rng.sample(range(3), rng.randint(1, 3)))
               for _ in m.tets]
    options = [[(k, m.choice_rows[t][k], 0) for k in ks]
               for t, ks in zip(m.tets, subsets)]

    def run(search, stop):
        sysm = linalg.IncrementalSystem(len(m.columns))
        for row, b in pins:
            assert sysm.push(row, b)
        push, rollback = sysm.push, sysm.rollback
        pushes, leaves, rollbacks = [], [], []

        def logged_push(row, b, tag=0):
            pushes.append((row, b, tag))
            return push(row, b, tag)

        def logged_rollback(mark):
            rollbacks.append(mark)
            rollback(mark)

        def leaf(combo):
            leaves.append(combo)
            return stop(len(leaves))

        sysm.push, sysm.rollback = logged_push, logged_rollback
        result = search(sysm, options, leaf)
        return (pushes, leaves, result, sysm.pivot_rows), len(rollbacks)

    for stop in [lambda n: False, lambda n: True, lambda n: n == j]:
        ours, rollbacks = run(walk, stop)
        expected, reference_rollbacks = run(reference_walk, stop)
        assert ours == expected
        assert rollbacks <= reference_rollbacks


def test_no_system_outlives_a_query(monkeypatch):
    # with the cyclic collector off, every system a query made is freed
    # when it returns: no reference cycle through a query's leaf, walk or
    # system keeps one alive
    made = []
    init = linalg.IncrementalSystem.__init__

    def tracked(self, ncols):
        made.append(weakref.ref(self))
        init(self, ncols)

    monkeypatch.setattr(linalg.IncrementalSystem, "__init__", tracked)
    bundle = g2_product_bundle()
    m, btr = bundle["manifold"], bundle["boundary_track"]
    diagonal = diagonal_boundary_weight(
        bundle, mf_weight(bundle["track"], random.Random(64)))
    off_diagonal = off_diagonal_weight(bundle, 8)
    rng = random.Random(67)
    samples = [tuple(rng.randrange(3) for _ in m.tets) for _ in range(3)]
    queries = [lambda: member(m, btr, diagonal),
               lambda: member(m, btr, off_diagonal),
               lambda: compute_cone(*_chain_track(3)),
               lambda: compute_cone(m, btr, iter(samples))]
    gc.disable()
    try:
        for query in queries:
            del made[:]
            result = query()
            assert made and all(ref() is None for ref in made), result
    finally:
        gc.enable()


def _relabeled(m, outgoing, wb, names):
    """The query on ``m`` with slots ``outgoing`` and weight ``wb``, with
    tet ``m.tets[i]`` renamed ``names[i]``: boundary triangles ``(t, f)``
    and their sides ``(t, f, k)`` follow their tet."""
    new = dict(zip(m.tets, names))
    old = dict(zip(names, m.tets))
    m2 = Triangulation3(names, {
        (new[t], f): (new[t2], f2, perm)
        for (t, f), (t2, f2, perm) in m.gluings.items()})
    btr2 = BoundaryTrack(m2, {(new[t], f): slot
                              for (t, f), slot in outgoing.items()})
    wb2 = {(t, f, k): wb.get(m.boundary.edge_class[(old[t], f, k)], 0)
           for t, f, k in m2.boundary.edge_classes}
    return m2, btr2, wb2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_member_verdict_independent_of_tet_names(seed, data):
    # renaming reorders the tets, and with them the search; the verdict
    # may not change, and any witness must check
    m, btr, wb, outgoing = _random_member_query(random.Random(seed))
    names = data.draw(st.permutations(m.tets))
    m2, btr2, wb2 = _relabeled(m, outgoing, wb, names)
    res, res2 = member(m, btr, wb), member(m2, btr2, wb2)
    assert (res2.member, res2.reason) == (res.member, res.reason)
    if res2.member:
        assert verify_witness(m2, btr2, wb2, res2)


def _canonical_components(cone, edge_name):
    """The components of ``cone`` as a set of ``(dimension, span)``, each
    span in reduced echelon form over the boundary edges ``edge_name(E)``
    of its edges ``E``, ordered by ``repr``."""
    names = [edge_name(E) for E in cone.edge_order]
    order = sorted(names, key=repr)
    out = set()
    for comp in cone.components:
        rows = [dict(zip(names, row)) for row in comp["span"]]
        span = reference_rref([[row[E] for E in order] for row in rows])[0]
        out.add((comp["dimension"], tuple(map(tuple, span))))
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 5), st.integers(0, 2 ** 32 - 1), st.data())
def test_cone_independent_of_tet_names(n, seed, data):
    # renaming reorders the tets, and with them the choice vectors that
    # compute_cone walks; the union of their components may not change
    m = chain_tets(n)
    outgoing = _random_outgoing(m, random.Random(seed))
    btr = BoundaryTrack(m, outgoing)
    names = data.draw(st.permutations([f"U{k}" for k in range(n)]))
    m2, btr2, _ = _relabeled(m, outgoing, {}, names)
    old = dict(zip(names, m.tets))
    cone, cone2 = compute_cone(m, btr), compute_cone(m2, btr2)
    assert len(cone2) == len(cone)
    assert _canonical_components(cone2, lambda E: m.boundary.edge_class[
        (old[E[0]], *E[1:])]) == _canonical_components(cone, lambda E: E)


def _oracle_cone_query(family, rng):
    """A ``_random_complex`` draw with a boundary, or ``chain_tets(2..6)``,
    with random outgoing slots."""
    m = _random_complex(rng) if family == "random" else chain_tets(
        rng.randint(2, 6))
    assume(m.boundary is not None)
    return m, BoundaryTrack(m, _random_outgoing(m, rng))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "chain"]), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 6))
def test_compute_cone_matches_per_leaf_oracle(family, seed, samples):
    # the form folded along the walk and the kernel read backwards give the
    # components, their order and their spans of the retired leaf, which
    # reduced every vector afresh and took each span's rref; samples == 0
    # walks every vector, else as many sampled ones, repeats and all
    rng = random.Random(seed)
    m, btr = _oracle_cone_query(family, rng)
    combos = [tuple(rng.randrange(3) for _ in m.tets)
              for _ in range(samples)] if samples else None
    cone = compute_cone(m, btr, None if combos is None else iter(combos))
    assert cone.edge_order == m.boundary.edge_classes
    assert cone.components == reference_compute_cone(m, btr, combos)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "chain"]), st.integers(0, 2 ** 32 - 1))
def test_folded_form_is_reduced_at_every_leaf(family, seed):
    # at each leaf of an exhaustive walk, the form folded from the trail is
    # the system's reduced form computed afresh
    m, btr = _oracle_cone_query(family, random.Random(seed))
    reduced, leaves = linalg.IncrementalSystem.reduced, []

    def checked(self, first=0, trail=None):
        out = reduced(self, first, trail)
        leaves.append(trail is not None and out == reduced(self, first))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg.IncrementalSystem, "reduced", checked)
        compute_cone(m, btr)
    assert leaves == [True] * 3 ** len(m.tets)


class TestCone:
    def test_chain4_makes_fractions_only_for_the_spans(self):
        # one Fraction per entry of a printed span, read off the kernel;
        # with the Fraction reduced forms and kernels the same call made
        # 1,252
        m, btr = _chain_track(4)
        cones = []
        made = fraction_constructions(
            lambda: cones.append(compute_cone(m, btr)))
        spans = [c["span"] for c in cones[0].components]
        assert len(spans) == 20
        assert made == sum(len(r) for span in spans for r in span) == 660

    def test_sampled_components_isotropic_and_bounded(self):
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        rng = random.Random(61)

        def sampled(n):
            for _ in range(n):
                yield tuple(rng.randrange(3) for _ in m.tets)

        cone = compute_cone(m, btr, choice_iter=sampled(12))
        bound = Fraction(btr.weight_space_dim(), 2)
        assert cone.components
        for comp in cone.components:
            assert comp["dimension"] <= bound
            ws = [dict(zip(cone.edge_order, row)) for row in comp["span"]]
            for i in range(len(ws)):
                for j in range(i + 1, len(ws)):
                    assert triangle_form_sum(m.boundary, ws[i], ws[j]) == 0

    def test_deep_chain_sampled_vector(self):
        m, btr = _deep_chain()
        rng = random.Random(1)
        combo = tuple(rng.randrange(3) for _ in m.tets)
        assert len(compute_cone(m, btr, iter([combo]))) == 1

    @pytest.mark.parametrize("combo", [(0,), (0,) * 37])
    def test_sampled_vector_of_the_wrong_length_refused(self, combo):
        # g2xI has 36 tets: a vector cut short would walk its first tets
        # alone and record their subspace as a component
        bundle = g2_product_bundle()
        with pytest.raises(ValueError):
            compute_cone(bundle["manifold"], bundle["boundary_track"],
                         iter([combo]))

    def test_full_cone_small_fixture_dedups(self):
        m = chain_tets(2)
        out = {t: 0 for t in m.boundary.triangles}
        btr = BoundaryTrack(m, out)
        cone = compute_cone(m, btr)
        assert len(cone) <= 9
        assert all("span" in c for c in cone.components)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_all_choices_match_reference(self, n):
        m, btr = _chain_track(n)
        _assert_cone_matches_reference(
            m, btr, list(itertools.product(range(3), repeat=n)))

    @pytest.mark.parametrize("seed", [3, 17])
    def test_g2_samples_match_reference(self, seed):
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        _assert_cone_matches_reference(
            m, btr, _g2_samples(m, random.Random(seed)))

    def test_random_complexes_match_reference(self):
        # random outgoing slots on every non-torus boundary triangle; the
        # draws include torus and all-torus boundaries.  Up to 12 choice
        # vectors per draw, in product order
        rng = random.Random(71)
        done = 0
        while done < 30:
            m = _random_complex(rng)
            if len(m.tets) > 4:
                continue
            out = _random_outgoing(m, rng)
            combos = list(itertools.product(range(3), repeat=len(m.tets)))
            if len(combos) > 12:
                combos = sorted(rng.sample(combos, 12))
            _assert_cone_matches_reference(m, BoundaryTrack(m, out), combos)
            done += 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_chain_work_counts(self, n, monkeypatch):
        # consecutive choice vectors share the rows of their common prefix:
        # one push per node of the choice tree below the fixed rows, and no
        # dense elimination: the spans are read off the kernels
        m, btr = _chain_track(n)
        pushes, rrefs = _count_pushes(monkeypatch), []
        rref = linalg.rref

        def counted_rref(rows):
            rrefs.append(rows)
            return rref(rows)

        monkeypatch.setattr(linalg, "rref", counted_rref)
        cone = compute_cone(m, btr)
        fixed = len(m.torus_rows) + len(btr.track.switches)
        assert len(pushes) == fixed + (3 ** (n + 1) - 3) // 2
        assert cone.components and rrefs == []

    def test_chain5_reduces_each_stored_row_once(self, monkeypatch):
        # the exhaustive walk folds each row it stores on the boundary
        # columns into its parent's form once, the rows above the walk at
        # the first leaf: 247 row steps, and 1,345 more that eliminate
        # their pivots from the rows holding them; the retired leaf reduced
        # every boundary row again at each of the 243 leaves, 3,949 steps
        m, btr = _chain_track(5)
        first = len(m.columns) - len(m.boundary.edge_classes)
        calls, stored, steps = [], [], []
        system = linalg.IncrementalSystem
        reduced, push = system.reduced, system._push
        step = system._reduced_rows

        def counted_reduced(self, first=0, trail=None):
            out = reduced(self, first, trail)
            calls.append((self, trail is not None, len(out)))
            return out

        def counted_push(self, v, b, tag=0):
            mark = len(self.pivots)
            ok = push(self, v, b, tag)
            stored.append(len(self.pivots) > mark and self.pivots[-1] >= first)
            return ok

        def counted_step(self, out, rows):
            # a stored row's tail is a tuple
            steps.extend(type(row[1]) is tuple for row in rows.values())
            return step(self, out, rows)

        monkeypatch.setattr(system, "reduced", counted_reduced)
        monkeypatch.setattr(system, "_push", counted_push)
        monkeypatch.setattr(system, "_reduced_rows", counted_step)
        compute_cone(m, btr)
        assert [c[1] for c in calls] == [True] * 243
        assert sum(steps) == sum(stored) == 247
        assert len(steps) == 1592
        # the retired leaf: one row step per row of each leaf's form, and
        # no trail; the other calls are the rref of each new component
        del calls[:]
        reference_compute_cone(m, btr)
        leaves = [c for c in calls if c[0] is calls[0][0]]
        assert [c[1] for c in leaves] == [False] * 243
        assert sum(c[2] for c in leaves) == 3949

    def test_shared_boundary_class_rejected(self, monkeypatch):
        # the same hand merge inside a fixture: construction refuses it
        kept = _merge_boundary_classes(monkeypatch, chain_tets(2))
        with pytest.raises(ValueError) as err:
            chain_tets(2)
        assert repr(kept) in str(err.value)


def _merge_boundary_classes(monkeypatch, m):
    """Wrap ``cone3.union_find`` so that the edge classes of the first two
    boundary edges of ``m`` (in ``repr`` order) come out as one class, the
    second; returns that class.  Edge ``EDGE_PAIRS[k]`` of the ``i``-th tet
    is slot ``6i + k``, and a class is the edge of its root slot."""
    E1, E2 = sorted(m.boundary_edge_to_class, key=repr)[:2]
    slot = {(t, e): 6 * i + k for i, t in enumerate(m.tets)
            for k, e in enumerate(EDGE_PAIRS)}
    gone, kept = (m.boundary_edge_to_class[E] for E in (E1, E2))
    union_find = cone3.union_find

    def merging(n, pairs):
        roots, joins = union_find(n, pairs)
        return [slot[kept] if r == slot[gone] else r for r in roots], joins

    monkeypatch.setattr(cone3, "union_find", merging)
    return kept


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_boundary_edge_to_class_injective(seed):
    # a boundary edge class is one link arc with two free ends, so it
    # meets the boundary in exactly one edge, and the pairing by class
    # glues what the fan walk glues
    assert_boundary_matches_fan_walk(_random_complex(random.Random(seed)))


@pytest.mark.parametrize("make", [
    single_tet, two_tets, *[functools.partial(chain_tets, n)
                            for n in range(1, 7)],
    lambda: g2_product_bundle()["manifold"]])
def test_boundary_matches_fan_walk(make):
    assert_boundary_matches_fan_walk(make())


def test_boundary_matches_fan_walk_on_random_complexes():
    for seed in range(300):
        assert_boundary_matches_fan_walk(_random_complex(random.Random(seed)))


def _reversed(gluings, flips=None):
    """``gluings`` with entry ``i`` written from its other face, ``perm``
    inverted, where ``flips[i]`` holds; every entry when ``flips`` is
    None."""
    out = {}
    for i, ((t, f), (t2, f2, perm)) in enumerate(gluings.items()):
        if flips is None or flips[i]:
            out[(t2, f2)] = (t, f, {v2: v for v, v2 in perm.items()})
        else:
            out[(t, f)] = (t2, f2, perm)
    return out


def _fold_both_directions(m):
    """Vertex and edge classes by merging across every entry of
    ``m.gluings`` and then across its reverse."""
    both = [x for (t, _), (t2, _, perm) in m.gluings.items()
            for x in ((t, t2, perm),
                      (t2, t, {v2: v for v, v2 in perm.items()}))]
    vertex = reference_union_find(
        [(t, v) for t in m.tets for v in range(4)],
        (((t, v), (t2, v2)) for t, t2, perm in both
         for v, v2 in perm.items()))
    edge = reference_union_find(
        [(t, e) for t in m.tets for e in EDGE_PAIRS],
        (((t, frozenset(pair)), (t2, frozenset(perm[v] for v in pair)))
         for t, t2, perm in both
         for pair in itertools.combinations(sorted(perm), 2)))
    return vertex, edge


@pytest.mark.parametrize("make", [
    lambda: g2_product_bundle()["manifold"], lambda: chain_tets(4)])
def test_classes_merge_each_face_pair_once(make):
    # merging a face pair again in the other direction changes no class
    # and no representative, whichever face of the pair its entry is from
    m = make()
    swapped = _reversed(m.gluings)
    assert list(swapped) != list(m.gluings)
    for m2 in (m, Triangulation3(m.tets, swapped)):
        assert (m2.vertex_class, m2.edge_class) == _fold_both_directions(m2)


def _edge_partition(m):
    """The classes of ``m`` as sets of tet edges, without representatives."""
    classes = {}
    for slot, cls in m.edge_class.items():
        classes.setdefault(cls, set()).add(slot)
    return {frozenset(c) for c in classes.values()}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_entry_direction_changes_representatives_only(seed, data):
    # writing a pair's entry from its other face merges it the other way
    # round: the classes may get other representatives, but they hold the
    # same tet edges, and the file is written from the same face
    m = _random_complex(random.Random(seed))
    flips = data.draw(st.lists(st.booleans(), min_size=len(m.gluings),
                               max_size=len(m.gluings)))
    m2 = Triangulation3(m.tets, _reversed(m.gluings, flips))
    assert _edge_partition(m2) == _edge_partition(m)
    text = io.serialize_manifold(m)
    assert io.serialize_manifold(m2) == text
    assert io.serialize_manifold(io.parse_manifold(text)[0]) == text


class _OracleTriangulation3(Triangulation3):
    """``Triangulation3`` with its gluing table checked by the retired
    entry-by-entry oracle instead of the table of face maps."""

    def _validate_gluings(self):
        return reference_validate_gluings(self._index, self.gluings)


@functools.cache
def _g2xI():
    return g2_product_bundle()["manifold"]


# the manifolds whose gluing tables are renamed, reordered and corrupted,
# drawn with a seeded rng; in a random complex two edges of one face may
# share a class, where the order of the face's three merges shows
_TABLE_MANIFOLDS = {
    "two_tets": lambda rng: two_tets(),
    "chain_tets(n)": lambda rng: chain_tets(rng.randint(2, 6)),
    "g2xI": lambda rng: _g2xI(),
    "random complex": _random_complex,
}


def _shuffled_table(m, rng):
    """``m``'s tets under a random renaming, and its gluing table with the
    entries in random order, each written from a random face of its pair
    and with its ``perm`` dict built in a random key order."""
    numbers = rng.sample(range(10 * len(m.tets)), len(m.tets))
    name = {t: f"X{n}" for t, n in zip(m.tets, numbers)}
    entries = []
    for (t, f), (t2, f2, perm) in m.gluings.items():
        if rng.random() < 0.5:
            t, f, t2, f2 = t2, f2, t, f
            perm = {v2: v for v, v2 in perm.items()}
        items = list(perm.items())
        rng.shuffle(items)
        entries.append(((name[t], f), (name[t2], f2, dict(items))))
    rng.shuffle(entries)
    return list(name.values()), dict(entries)


def _corrupted(table, rng, fault):
    """``table`` with one random entry ``(t, f) -> (t2, f2, perm)`` made
    faulty, in its place, or, for a face glued twice, one entry added that
    glues the target face of a random entry again."""
    (t, f), (t2, f2, perm) = rng.choice(list(table.items()))
    side = rng.random() < 0.5       # fault the key side or the target side
    key, value = (t, f), (t2, f2, perm)
    if fault == "unknown tet":
        key, value = ((("nowhere", f), value) if side
                      else (key, ("nowhere", f2, perm)))
    elif fault in ("face out of range", "face not an int"):
        bad = rng.choice([4, -1, 7] if fault == "face out of range"
                         else [0.5, 1.5, 2.5])
        key, value = ((t, bad), value) if side else (key, (t2, bad, perm))
    elif fault == "domain":     # a fourth key, or one key moved to f
        v = rng.choice(list(perm))
        moved = {u: x for u, x in perm.items() if u != v}
        value = (t2, f2, {**perm, f: f2} if side else {**moved, f: perm[v]})
    elif fault == "range":
        value = (t2, f2, {**perm, rng.choice(list(perm)): f2})
    elif fault == "glued to itself":
        value = (t, f, _reversal(f))
    elif fault == "orientation-preserving":
        value = (t2, f2, _mirrored(f, perm))
    else:   # glued twice: a new entry onto an already glued face
        tets = sorted({tf[0] for tf in table})
        face = rng.choice([(x, k) for x in tets for k in range(4)
                           if (x, k) not in table])
        return {**table, face: (t2, f2, reversing_gluing(face[1], f2))}
    return {(key if k == (t, f) else k): (value if k == (t, f) else v)
            for k, v in table.items()}


_TABLE_FAULTS = ["unknown tet", "face out of range", "face not an int",
                 "domain", "range", "glued to itself", "glued twice",
                 "orientation-preserving"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(list(_TABLE_MANIFOLDS)), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(_TABLE_FAULTS), max_size=2))
def test_face_map_table_matches_the_entry_checks(name, seed, faults):
    # under any tet names, entry order, entry direction and key order of
    # perm, a table gives the classes, columns and boundary of the retired
    # entry-by-entry check, or is refused with its exception and message,
    # naming an entry; tables with no fault, one, or two, which may meet in
    # one entry (and may undo each other), all come out the same
    rng = random.Random(seed)
    tets, table = _shuffled_table(_TABLE_MANIFOLDS[name](rng), rng)
    for fault in faults:
        try:
            table = _corrupted(table, rng, fault)
        except (IndexError, KeyError, TypeError):
            # no entry to fault, or one that an earlier fault broke
            assume(False)
    try:
        ref = _OracleTriangulation3(tets, table)
    except ValueError as expected:
        with pytest.raises(ValueError) as got:
            Triangulation3(tets, table)
        assert type(got.value) is type(expected)
        assert str(got.value) == str(expected)
        assert got.value.entry in table
        return
    assert len(faults) != 1
    m = Triangulation3(tets, table)
    for attr in ("edge_classes", "columns", "_tet_columns",
                 "boundary_faces", "torus_classes"):
        assert getattr(m, attr) == getattr(ref, attr)


def _reference_surface(triangles, glue):
    """The classes of a ``SurfaceTriangulation`` as the tuple-keyed build
    made them: the ``repr``-least directed edge of each pair, and corner
    classes and components by a union-find over hashable ids."""
    owner = {d: (t, i) for t, ds in triangles.items()
             for i, d in enumerate(ds)}
    edge_class = {d: min(d, glue[d], key=repr) for d in owner}
    corner_class = reference_union_find(
        [(t, i) for t in triangles for i in range(3)],
        (((t, i), owner[glue[ds[(i + 2) % 3]]])
         for t, ds in triangles.items() for i in range(3)))
    root = reference_union_find(triangles, (
        (t, owner[glue[d]][0]) for t, ds in triangles.items() for d in ds))
    comps = {}
    for t, r in root.items():
        comps.setdefault(r, []).append(t)
    return (edge_class, sorted(set(edge_class.values()), key=repr),
            corner_class, sorted(set(corner_class.values()), key=repr),
            [sorted(c, key=repr) for c in comps.values()])


def _reference_build(m):
    """Every class, boundary datum and row cache of ``m``, derived from
    ``m.tets`` and ``m.gluings`` as the tuple-keyed build derived them,
    with every dict as its list of items so that order counts."""
    tets, gluings = m.tets, m.gluings
    glued = {tf for key, (t2, f2, _) in gluings.items()
             for tf in (key, (t2, f2))}
    edge_class = reference_union_find(
        [(t, e) for t in tets for e in EDGE_PAIRS],
        (((t, frozenset(pair)), (t2, frozenset(perm[v] for v in pair)))
         for (t, _), (t2, _, perm) in gluings.items()
         for pair in itertools.combinations(sorted(perm), 2)))
    edge_classes = sorted(set(edge_class.values()), key=repr)
    vertex_class = reference_union_find(
        [(t, v) for t in tets for v in range(4)],
        (((t, v), (t2, v2)) for (t, _), (t2, _, perm) in gluings.items()
         for v, v2 in perm.items()))
    faces = [(t, f) for t in tets for f in range(4) if (t, f) not in glued]
    sides = {}
    for t, f in faces:
        cyc = FACE_CYCLES[f]
        for k in range(3):
            e = frozenset((cyc[k], cyc[(k + 1) % 3]))
            sides.setdefault(edge_class[(t, e)], []).append((t, f, k))
    glue = {}
    for pair in sides.values():
        glue[pair[0]], glue[pair[1]] = pair[1], pair[0]
    triangles = {(t, f): ((t, f, 0), (t, f, 1), (t, f, 2)) for t, f in faces}
    surf = _reference_surface(triangles, glue) if triangles else None
    to_class = {surf[0][pair[0]]: cls for cls, pair in sides.items()}
    comps, torus = [], set()
    for comp in surf[4] if surf else ():
        edges = {surf[0][d] for t in comp for d in triangles[t]}
        corners = {surf[2][(t, i)] for t in comp for i in range(3)}
        chi = len(corners) - len(edges) + len(comp)
        comps.append({"triangles": comp, "edge_classes": sorted(edges, key=repr),
                      "genus": (2 - chi) // 2, "torus": chi == 0})
        if chi == 0:
            torus |= {to_class[E] for E in edges}
    # the interior classes, then the boundary classes in reverse boundary
    # edge order
    boundary = [to_class[E] for E in surf[1]] if surf else []
    columns = [E for E in edge_classes if E not in boundary] + boundary[::-1]
    column = {E: i for i, E in enumerate(columns)}

    def row(terms):
        out = {}
        for cls, coef in terms:
            out[column[cls]] = out.get(column[cls], 0) + coef
        return tuple((c, x) for c, x in sorted(out.items()) if x)

    pairs = {t: [(edge_class[(t, e)], edge_class[(t, e2)])
                 for e, e2 in OPPOSITE_PAIRS] for t in tets}
    form = {c: [] for c in columns}
    for sums in pairs.values():
        for i in range(3):
            for a in sums[i]:
                for b in sums[(i + 1) % 3]:
                    form[a].append((b, -1))
                    form[b].append((a, 1))
    return {
        "edge_class": list(edge_class.items()),
        "edge_classes": edge_classes,
        "columns": columns,
        "vertex_class": list(vertex_class.items()),
        "boundary_faces": faces,
        "boundary": surf and (list(triangles.items()), list(glue.items()),
                              list(surf[0].items()), surf[1],
                              list(surf[2].items()), surf[3], surf[4]),
        "boundary_edge_to_class": list(to_class.items()),
        "boundary_components": comps,
        "torus_classes": torus,
        "torus_rows": [row([(E, 1)]) for E in columns if E in torus],
        "choice_rows": [(t, [row([(a, 1) for a in sums[i]]
                                 + [(b, -1) for b in sums[j]])
                             for i, j in CHOICE_PAIRS])
                        for t, sums in pairs.items()],
        "form_rows": [(c, row(ts)) for c, ts in form.items()],
    }


def _built(m):
    """What ``_reference_build`` derives, read off ``m`` itself."""
    b = m.boundary
    return {
        "edge_class": list(m.edge_class.items()),
        "edge_classes": m.edge_classes,
        "columns": m.columns,
        "vertex_class": list(m.vertex_class.items()),
        "boundary_faces": m.boundary_faces,
        "boundary": b and (list(b.triangles.items()), list(b.glue.items()),
                           list(b.edge_class.items()), b.edge_classes,
                           list(b.corner_class.items()), b.vertex_classes,
                           b.components()),
        "boundary_edge_to_class": list(m.boundary_edge_to_class.items()),
        "boundary_components": m.boundary_components,
        "torus_classes": m.torus_classes,
        "torus_rows": m.torus_rows,
        "choice_rows": list(m.choice_rows.items()),
        "form_rows": list(m.form_rows.items()),
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_build_matches_tuple_keyed_reference(seed, data):
    # slot numbers follow the repr order of the tets, so unpadded names
    # (T2 after T10) and int ids reorder them; an entry written from the
    # other face of its pair merges the pair in the other direction
    m = _random_complex(random.Random(seed))
    ids = data.draw(st.lists(st.integers(0, 30), min_size=len(m.tets),
                             max_size=len(m.tets), unique=True))
    names = ids if data.draw(st.booleans()) else [f"T{i}" for i in ids]
    new = dict(zip(m.tets, names))
    gluings = {(new[t], f): (new[t2], f2, perm)
               for (t, f), (t2, f2, perm) in m.gluings.items()}
    gluings = _reversed(gluings, data.draw(st.lists(
        st.booleans(), min_size=len(gluings), max_size=len(gluings))))
    m2 = Triangulation3(names, gluings)
    assert _built(m2) == _reference_build(m2)


@pytest.mark.parametrize("make", [
    lambda: g2_product_bundle()["manifold"], lambda: chain_tets(5),
    lambda: mixed_product()[2]["manifold"]])
def test_fixture_build_matches_tuple_keyed_reference(make):
    m = make()
    assert _built(m) == _reference_build(m)


def _oracle_family(family, rng):
    """``(manifold, outgoing, boundary weight)`` of one family: a
    ``_random_complex`` draw or ``chain_tets`` with random outgoing slots,
    the product with torus boundary components, or g2xI; the weight is
    admissible, so that ``member`` reaches its fold, or zero when no draw
    on the track's basis is nonnegative."""
    if family == "mixed":
        m, _, wb, outgoing = mixed_query()
        return m, outgoing, wb
    if family == "g2xI":
        bundle = g2_product_bundle()
        return bundle["manifold"], bundle["outgoing"], diagonal_boundary_weight(
            bundle, mf_weight(bundle["track"], rng))
    m = _random_complex(rng) if family == "random" else chain_tets(
        rng.randint(1, 6))
    outgoing = _random_outgoing(m, rng) if m.boundary else {}
    wb = {}
    if outgoing:
        track = BoundaryTrack(m, outgoing).track
        try:
            wb = mf_weight(track, rng)
        except ValueError:
            wb = dict.fromkeys(track.branches, 0)
    return m, outgoing, wb


# tet names whose reprs share prefixes: ints, strings, strings whose repr
# takes double quotes, and tuples
_NAME_STYLES = (lambda i: i, lambda i: f"T{i}", lambda i: f"t'{i}",
                lambda i: ("T", i))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "chain", "mixed", "g2xI"]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(_NAME_STYLES), st.data())
def test_boundary_and_fold_match_oracle(family, seed, style, data):
    # the boundary classification, the column order, the track and the
    # options member folds, under random renamings of the tets, against
    # the retired eager builds of tests/util.py
    rng = random.Random(seed)
    m, outgoing, wb = _oracle_family(family, rng)
    ids = data.draw(st.lists(st.integers(0, 120), min_size=len(m.tets),
                             max_size=len(m.tets), unique=True))
    new = dict(zip(m.tets, map(style, ids)))
    m2 = Triangulation3(new.values(), {
        (new[t], f): (new[t2], f2, perm)
        for (t, f), (t2, f2, perm) in m.gluings.items()})
    assert (m2.boundary_components, m2.torus_classes) == \
        reference_boundary_components(m2)
    edge_classes = sorted(set(m2.edge_class.values()), key=repr)
    boundary = [m2.boundary_edge_to_class[E]
                for E in (m2.boundary.edge_classes if m2.boundary else ())]
    assert m2.edge_classes == edge_classes
    assert m2.columns == [E for E in edge_classes
                          if E not in boundary] + boundary[::-1]
    if not outgoing:
        return
    track = BoundaryTrack(
        m2, {(new[t], f): k for (t, f), k in outgoing.items()}).track
    assert track.branches == sorted(
        {e for abc in track.switches.values() for e in abc}, key=repr)
    assert "branch_ends" not in track.__dict__
    assert track.branch_ends == reference_branch_ends(track)
    column = {E: i for i, E in enumerate(track.branches)}
    assert track.switch_rows(column) == [
        linalg.row(((column[a], 1), (column[b], 1), (column[c], -1)))
        for s in sorted(track.switches, key=repr)
        for a, b, c in [track.switches[s]]]
    # the renamed weight; the repr-least side of a boundary edge may change
    edge = m2.boundary.edge_class
    wb2 = {edge[(new[E[0]], *E[1:])]: x for E, x in wb.items()}
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone3, "walk", lambda sysm, options, leaf: seen.append(
            [[(k, list(row), b) for k, row, b in opts] for opts in options]))
        res = member(m2, BoundaryTrack(
            m2, {(new[t], f): k for (t, f), k in outgoing.items()}), wb2)
    assert seen == [reference_fold(m2, wb2)]
    assert res.reason == "no-choice-vector"


_fractions = st.fractions(-9, 9, max_denominator=6)
_weights = st.lists(_fractions, min_size=6, max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_omega_is_sum_of_tet_oracle(seed, data):
    m = _random_complex(random.Random(seed))
    n = len(m.edge_classes)
    u, v = (dict(zip(m.edge_classes, data.draw(
        st.lists(_fractions, min_size=n, max_size=n)))) for _ in range(2))
    assert m.omega(u, v) == oracle_omega(m, u, v)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_weights, _weights, st.integers(0, 2))
def test_tet_form_vanishes_on_a_choice(us, vs, k):
    # setting the pair sums CHOICE_PAIRS[k] equal in both weights: the
    # per-tet form is -1/2 det [[1,1,1],[a0,a1,a2],[b0,b1,b2]] of the pair
    # sums, and two equal columns make it vanish
    i, j = CHOICE_PAIRS[k]
    weights = []
    for vals in (us, vs):
        w = dict(zip(EDGE_PAIRS, vals))
        (ei, ei2), (ej, ej2) = OPPOSITE_PAIRS[i], OPPOSITE_PAIRS[j]
        w[ej2] = w[ei] + w[ei2] - w[ej]
        weights.append(w)
    assert tet_form_values(*weights) == 0
    assert tet_omega(*weights) == 0


class TestBuildWork:
    def test_g2xI_build_makes_three_unions_and_no_fraction(self,
                                                           monkeypatch):
        # one union-find each for the edge classes of the 216 tet edges,
        # the corner classes of the 72 boundary corners and the components
        # of the 24 boundary triangles; no Fraction is made
        m, sizes = _g2xI(), []
        union_find = cone3.union_find

        def counted(n, pairs):
            sizes.append(n)
            return union_find(n, pairs)
        monkeypatch.setattr(cone3, "union_find", counted)
        monkeypatch.setattr("isocone.track.union_find", counted)
        assert fraction_constructions(
            lambda: Triangulation3(m.tets, m.gluings)) == 0
        assert sizes == [216, 72, 24]


def test_code_line_count():
    # the boundary is paired by edge class, the form has one table of
    # coefficients, the boundary track is read off the one boundary surface,
    # a product's pieces, walls and copies follow from corner ranks and one
    # walk, one loop, searches the choice vectors: a fan walk, a second
    # table, a second surface, a search for the piece that holds a wall
    # triangle, a second scan of the boundary faces or a second search over
    # choices would not fit; 16 more lines hold the table of face maps, its
    # refusal diagnosis and the entry a refusal names; 39 more hold the
    # isotropy certificate: the tet lemma and the Stokes check with the
    # class or triangle a failure names.  The wedge rows and their one
    # evaluator live in track, and the isotropy Gram is pairwise on omega
    assert code_lines("cone3") <= 606


def test_fixtures_code_line_count():
    # fixtures are built with the library's own constructors
    assert code_lines("fixtures") <= 138


@pytest.mark.parametrize("make_surface", [
    genus2_four_vertex_surface, genus2_one_vertex_surface,
    _two_triangle_torus])
def test_product_indexes_both_copies(make_surface):
    """``bottom`` and ``top`` are the two boundary components, built from
    pieces ``t.0`` and ``t.2``; their slot maps carry every surface gluing
    to a boundary gluing, and the edge maps agree with them."""
    surface = make_surface()
    product = ProductTriangulation(surface)
    boundary = product.manifold.boundary
    comps = [set(c["triangles"])
             for c in product.manifold.boundary_components]
    assert len(comps) == 2
    copies = ((product.bottom, product.bottom_edge_of, 0),
              (product.top, product.top_edge_of, 2))
    for copy, edge_of, k in copies:
        assert set(copy) == set(surface.triangles)
        assert {tf for tf, _ in copy.values()} in comps
        assert all(tf[0] == f"{t}.{k}" for t, (tf, _) in copy.items())
        assert set(edge_of) == set(surface.edge_classes)
        for d, d2 in surface.glue.items():
            (t, i), (t2, j) = surface.locate(d), surface.locate(d2)
            (tf, slots), (tf2, slots2) = copy[t], copy[t2]
            assert boundary.glue[(*tf, slots[i])] == (*tf2, slots2[j])
            assert edge_of[surface.edge_class[d]] == \
                boundary.edge_class[(*tf, slots[i])]


def _parity(p):
    inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
    return 1 if inv % 2 == 0 else -1


class TestBoundaryTrack:
    """``BoundaryTrack`` reads its switches off the whole boundary surface;
    the track on a surface of the non-torus triangles alone agrees."""

    def test_g2_product(self):
        bundle = g2_product_bundle()
        _assert_track_matches_reference(bundle["manifold"],
                                        bundle["outgoing"],
                                        bundle["boundary_track"])

    def test_branch_ends_built_on_first_read(self):
        # member and compute_cone read the switches and branches only; the
        # readers of branch_ends then see what the eager build gave: the
        # parent's values, pinned here, and the retired constructions
        bundle = g2_product_bundle()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        track = btr.track
        wb = diagonal_boundary_weight(
            bundle, mf_weight(bundle["track"], random.Random(3)))
        assert member(m, btr, wb).member
        assert len(compute_cone(m, btr, [(0,) * len(m.tets)])) == 1
        assert "branch_ends" not in track.__dict__
        assert outcome(track.orientation) == outcome(
            reference_orientation, track) == (
            NotOrientableError, "branch ('T1.0.0', 3, 0) cannot be oriented")
        ends = reference_branch_ends(track)
        rg = track.ribbon()
        assert rg.edges == {e: (s1[0], s2[0]) for e, (s1, s2) in ends.items()}
        assert rg.rot == {s: [(e, 0 if (s, pos) == ends[e][0] else 1)
                              for pos, e in enumerate(abc)]
                          for s, abc in track.switches.items()}
        assert track.region_cusp_counts() == [3] * 8
        assert track.branch_ends == ends

    def test_torus_product(self):
        bundle = mixed_product()[2]
        _assert_track_matches_reference(bundle["manifold"],
                                        bundle["outgoing"],
                                        bundle["boundary_track"])

    def test_random_complexes(self):
        # the slots are shuffled, so the switch order is not repr order
        rng = random.Random(91)
        for _ in range(60):
            m = _random_complex(rng)
            out = list(_random_outgoing(m, rng).items())
            rng.shuffle(out)
            out = dict(out)
            _assert_track_matches_reference(m, out, BoundaryTrack(m, out))


class TestMixedBoundary:
    """Torus components carry no track and are pinned to zero."""

    def test_components_and_torus_classes(self):
        g2, mixed, bundle, track = mixed_product()
        m = bundle["manifold"]
        comps = sorted((c["genus"], c["torus"]) for c in m.boundary_components)
        assert comps == [(1, True), (1, True), (2, False), (2, False)]
        assert len(m.torus_classes) == 6

    def test_diagonal_member_with_torus_zeros(self):
        m, btr, wb = mixed_query()[:3]
        res = member(m, btr, wb)
        assert res.member and verify_witness(m, btr, wb, res)
        assert all(res.witness[c] == 0 for c in m.torus_classes)

    def test_cone_matches_reference(self):
        g2, mixed, bundle, track = mixed_product()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        _assert_cone_matches_reference(m, btr, _g2_samples(m, random.Random(5)))

    def test_nonzero_torus_weight_refused(self):
        g2, mixed, bundle, track = mixed_product()
        m, btr = bundle["manifold"], bundle["boundary_track"]
        wb = {E: Fraction(0) for E in m.boundary.edge_classes}
        tor_edge = next(E for E in m.boundary.edge_classes
                        if m.boundary_edge_to_class[E] in m.torus_classes)
        wb[tor_edge] = Fraction(1)
        res = member(m, btr, wb)
        assert not res.member and res.reason == "torus-nonzero"


def _fraction_verify_witness(m, w_boundary, result):
    """``verify_witness`` substituting the ``Fraction`` witness itself, with
    the pair sums read through ``edge_class``: the oracle of the integer
    check."""
    if not result.member:
        return False
    w, per_tet = result.witness, {}
    for t in m.tets:
        sums = [w[m.edge_class[(t, e)]] + w[m.edge_class[(t, e2)]]
                for e, e2 in OPPOSITE_PAIRS]
        per_tet[t] = [k for k, (i, j) in enumerate(CHOICE_PAIRS)
                      if sums[i] == sums[j]]
    return (all(per_tet.values())
            and all(k in per_tet[t] for t, k in result.choices.items())
            and all(rat(w_boundary.get(E, 0)) == w[cls]
                    for E, cls in m.boundary_edge_to_class.items())
            and all(w[cls] == 0 for cls in m.torus_classes))


@functools.cache
def _witnessed_queries():
    """Member queries with their results: random complexes, g2xI diagonal
    weights and the product with torus boundary components."""
    out, rng = [], random.Random(91)
    while len(out) < 12:
        m, btr, wb, _ = _random_member_query(rng)
        res = member(m, btr, wb)
        if res.member and any(res.witness.values()):
            out.append((m, wb, res))
    bundle = g2_product_bundle()
    m, btr = bundle["manifold"], bundle["boundary_track"]
    for seed in (3, 4):
        wb = diagonal_boundary_weight(
            bundle, mf_weight(bundle["track"], random.Random(seed)))
        out.append((m, wb, member(m, btr, wb)))
    m, btr, wb = mixed_query()[:3]
    out.append((m, wb, member(m, btr, wb)))
    return out


class TestVerifyWitness:
    """The integer ``verify_witness`` against ``_fraction_verify_witness``,
    on witnesses and on copies with one class perturbed, one choice
    flipped or a torus class made nonzero."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_corrupted_witnesses_match_fraction_check(self, data):
        queries = _witnessed_queries()
        m, wb, res = queries[data.draw(st.integers(0, len(queries) - 1))]
        witness, choices = dict(res.witness), dict(res.choices)
        kind = data.draw(st.sampled_from(["none", "class", "choice", "torus"]))
        if kind == "class":
            cls = data.draw(st.sampled_from(m.edge_classes))
            witness[cls] += data.draw(
                st.fractions(-3, 3, max_denominator=7).filter(bool))
        elif kind == "choice":
            t = data.draw(st.sampled_from(m.tets))
            choices[t] = data.draw(
                st.sampled_from([k for k in range(3) if k != choices[t]]))
        elif kind == "torus" and m.torus_classes:
            cls = data.draw(st.sampled_from(sorted(m.torus_classes, key=repr)))
            witness[cls] = data.draw(
                st.fractions(-3, 3, max_denominator=7).filter(bool))
        bad = MemberResult(True, witness=witness, choices=choices)
        expected = _fraction_verify_witness(m, wb, bad)
        assert verify_witness(m, None, wb, bad) == expected
        if kind == "none":
            assert expected

    def test_each_corruption_refused(self):
        # on the torus product: a boundary class off its pin, a choice
        # whose equality the witness breaks, a nonzero torus class
        m, wb, res = _witnessed_queries()[-1]
        t = m.tets[0]
        k = next(k for k in range(3) if k not in m.w4_member(res.witness)[1][t])
        boundary = m.boundary_edge_to_class[m.boundary.edge_classes[0]]
        torus = sorted(m.torus_classes, key=repr)[0]
        for witness, choices in (
                ({**res.witness, boundary: res.witness[boundary] + 1},
                 res.choices),
                (res.witness, {**res.choices, t: k}),
                ({**res.witness, torus: Fraction(1, 3)}, res.choices)):
            bad = MemberResult(True, witness=witness, choices=choices)
            assert not _fraction_verify_witness(m, wb, bad)
            assert not verify_witness(m, None, wb, bad)
