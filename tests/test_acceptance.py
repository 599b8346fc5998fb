"""Acceptance suite: one test per criterion, exact values, timed budgets.

Each test prints a single summary line (run with ``pytest -s`` to see them
interleaved).  Every assertion is an exact rational equality except the
clearly labeled quadrature tolerance of criterion 9.
"""

import itertools
import random
import time
from fractions import Fraction

from isocone import linalg
from isocone.ordgroup import LexVec, LeftInverse
from isocone.lamtree import TreeMap, four_point_check, vertex_distance_matrix
from isocone.track import triangle_form_sum, embed_weights
from isocone.cone3 import (
    BoundaryTrack, compute_cone, member, verify_witness,
)
from isocone.fixtures import (
    genus2_maximal_track, single_tet, two_tets, chain_tets, glue_tets,
    g2_product_bundle, mf_weight, diagonal_boundary_weight,
)
from isocone.cone3 import Triangulation3
from isocone.flatsurf import (
    square_torus, hex_torus, lshape_h2, delaunay, is_delaunay,
    PeriodTangent, random_tangent, omega_thurston, omega_hessian,
    omega_homological, kahler_pairing_numeric,
)
from util import random_tree, random_positive_lexvec


def report(num, label, t0, budget):
    dt = time.time() - t0
    assert dt < budget, f"criterion {num} exceeded {budget}s ({dt:.1f}s)"
    print(f"criterion {num}: PASS ({dt:.2f}s < {budget}s) {label}")


def test_criterion_1_pullback_identity():
    t0 = time.time()
    track, _, _ = genus2_maximal_track()
    dual, b2e = track.dual_triangulation()
    basis = track.weight_space_basis()
    assert len(basis) == 6
    pairs = 0
    for i in range(6):
        for j in range(i, 6):
            lhs = track.thurston_form(basis[i], basis[j])
            rhs = triangle_form_sum(dual,
                                    embed_weights(track, b2e, basis[i]),
                                    embed_weights(track, b2e, basis[j]))
            assert lhs == rhs
            pairs += 1
    assert pairs == 21
    report(1, f"pullback identity exact on {pairs} basis pairs", t0, 1.0)


def test_criterion_2_cancellation():
    t0 = time.time()
    rng = random.Random(2024)
    bundle = g2_product_bundle()
    for m, label in ((two_tets(), "two tets"),
                     (bundle["manifold"], "g2 x I")):
        for _ in range(100):
            u = {c: Fraction(rng.randint(-9, 9)) for c in m.edge_classes}
            v = {c: Fraction(rng.randint(-9, 9)) for c in m.edge_classes}
            assert m.omega_fast(u, v) == m.boundary_form(m.restrict(u),
                                                         m.restrict(v))
    report(2, "interior cancellation on 100+100 random pairs", t0, 5.0)


def test_criterion_3_tet_boundary_identity():
    t0 = time.time()
    m = single_tet()
    rng = random.Random(3)
    for _ in range(1000):
        u = {c: Fraction(rng.randint(-9, 9)) for c in m.edge_classes}
        v = {c: Fraction(rng.randint(-9, 9)) for c in m.edge_classes}
        assert m.omega(u, v) == m.boundary_form(m.restrict(u), m.restrict(v))
    report(3, "tetrahedron form equals its boundary sum, 1000 pairs", t0, 1.0)


def test_criterion_4_isotropy():
    t0 = time.time()
    m4 = chain_tets(4)
    count = 0
    for combo in itertools.product(range(3), repeat=4):
        assert m4.isotropy_check(dict(zip(m4.tets, combo)))
        count += 1
    assert count == 81

    bundle = g2_product_bundle()
    m = bundle["manifold"]
    btrack = bundle["boundary_track"]
    rng = random.Random(4)
    sampled = [tuple(rng.randrange(3) for _ in m.tets) for _ in range(200)]
    for combo in sampled:
        assert m.isotropy_check(dict(zip(m.tets, combo)))

    # cone components from the same samples: isotropic spans of dimension
    # at most half the boundary weight space (which is 12 here)
    half = Fraction(btrack.weight_space_dim(), 2)
    assert half == 6
    cone = compute_cone(m, btrack, choice_iter=iter(sampled[:60]))
    assert len(cone) > 0
    for comp in cone.components:
        assert comp["dimension"] <= half
        rows = [dict(zip(cone.edge_order, r)) for r in comp["span"]]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert triangle_form_sum(m.boundary, rows[i], rows[j]) == 0
    report(4, "81/81 + 200 sampled subspaces isotropic; "
              f"{len(cone)} cone components within dimension {half}", t0, 60.0)


def _random_complex(rng):
    n = rng.randint(1, 5)
    tets = [f"T{k}" for k in range(n)]
    glu = {}
    free = [(t, f) for t in tets for f in range(4)]
    rng.shuffle(free)
    pairs = rng.randint(0, (len(free) - 1) // 2)
    for _ in range(pairs):
        if len(free) < 2:
            break
        a = free.pop()
        b = free.pop()
        if a[0] == b[0] and a[1] == b[1]:
            continue
        glue_tets(glu, a[0], a[1], b[0], b[1], rotation=rng.randrange(3))
    return Triangulation3(tets, glu)


def test_criterion_5_tree_map_weights():
    t0 = time.time()
    rng = random.Random(5)
    for _ in range(500):
        m = _random_complex(rng)
        rank = rng.randint(1, 3)
        tree = random_tree(rng, rng.randint(2, 8), rank)
        vclasses = sorted({m.vertex_class[(t, v)]
                           for t in m.tets for v in range(4)}, key=repr)
        f = TreeMap(tree, {vc: tree.vertices[rng.randrange(len(tree.vertices))]
                           for vc in vclasses})
        w = {}
        for c in m.edge_classes:
            t, e = next(k for k, cl in m.edge_class.items() if cl == c)
            i, j = sorted(e)
            w[c] = tree.distance(f(m.vertex_class[(t, i)]),
                                 f(m.vertex_class[(t, j)]))
        ok, _ = m.w4_member(w)
        assert ok

    for _ in range(10_000):
        tree = random_tree(rng, rng.randint(4, 9), rng.randint(1, 3))
        vs = tree.vertices
        picks = [vs[rng.randrange(len(vs))] for _ in range(4)]
        dm = [[tree.distance(tree.point(p), tree.point(q)) for q in picks]
              for p in picks]
        assert four_point_check(dm)
    report(5, "500 tree-map weights in the four-point locus; "
              "10^4 random 4-tuples pass", t0, 10.0)


def test_criterion_6_left_inverse():
    t0 = time.time()
    rng = random.Random(6)
    for _ in range(100):
        rank = rng.randint(1, 4)
        a = random_positive_lexvec(rng, rank)
        phi = LeftInverse(a)
        assert phi(a) == 1
        for _ in range(10):
            s = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
            t = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
            # the embedding determined by a sends t to t*a
            assert phi(a.scale(s)) == s
            if s < t:
                assert phi(a.scale(s)) < phi(a.scale(t))
    report(6, "100 embeddings split; order preserved on 1000 pairs", t0, 1.0)


def test_criterion_7_pushing():
    t0 = time.time()
    rng = random.Random(7)
    for _ in range(100):
        tree = random_tree(rng, rng.randint(2, 8), 1, with_end=True)
        anchor = tree.point(tree.end)
        for p, q in itertools.combinations(
                [tree.point(v) for v in tree.vertices], 2):
            s0 = max(tree.distance(p, anchor),
                     tree.distance(q, anchor)).coords[0]
            gap = abs(tree.busemann(p) - tree.busemann(q))
            for s in (s0, s0 + 1):
                moved = tree.distance(tree.push(p, s), tree.push(q, s))
                assert moved == LexVec([gap])
    report(7, "pushing law exact on 100 random trees with ends", t0, 5.0)


def test_criterion_8_delaunay():
    t0 = time.time()
    for maker in (square_torus, hex_torus, lshape_h2):
        s = maker()
        v0 = s.validate()
        d = delaunay(s)
        assert is_delaunay(d)
        v = d.validate()
        assert (v["area"], v["symbol"], v["genus"]) == \
            (v0["area"], v0["symbol"], v0["genus"])
    rng = random.Random(8)
    base = lshape_h2()
    v0 = base.validate()
    for _ in range(50):
        sh = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        d = delaunay(base.shear(sh))
        assert is_delaunay(d)
        v = d.validate()
        assert (v["area"], v["symbol"], v["genus"]) == \
            (v0["area"], v0["symbol"], v0["genus"])
    report(8, "Delaunay exact on fixtures and 50 sheared copies", t0, 10.0)


def test_criterion_9_symplectomorphism():
    t0 = time.time()
    for maker in (lshape_h2, hex_torus):
        s, _ = delaunay(maker()).adapted()
        rng = random.Random(9)
        for _ in range(50):
            t1 = random_tangent(s, rng)
            t2 = random_tangent(s, rng)
            a = omega_thurston(s, t1, t2)
            assert a == omega_homological(s, t1, t2)
            assert a == omega_hessian(s, t1, t2)

        # the hermitian pairing, the exact value rounded once, on the
        # convention-pinning pairs (see docs/conventions.md): the closed
        # forms <phi,phi> = area/4 and the metric positivity g(psi,psi) > 0
        # on the base-period tangents
        sc = PeriodTangent.scaling(s)
        isc = sc.times_i()
        exact = omega_thurston(s, sc, isc)
        assert exact == -s.total_area()
        assert abs(omega_hessian(s, sc, isc)) == s.total_area() > 0
        num = kahler_pairing_numeric(s, sc, isc)
        assert num == complex(0, float(exact))
        half = PeriodTangent(s, {d: v * Fraction(1, 2)
                                 for d, v in s.vectors.items()})
        assert abs(omega_hessian(s, half, half.times_i())) > 0
        norm = kahler_pairing_numeric(s, half, half)
        assert norm == complex(float(s.total_area() / 4))
    report(9, "three exact pairings agree on 2x50 random pairs; "
              "hermitian pairing equals the exact values rounded once",
           t0, 30.0)


def test_criterion_10_diagonal_membership():
    t0 = time.time()
    bundle = g2_product_bundle()
    m = bundle["manifold"]
    btrack = bundle["boundary_track"]
    rng = random.Random(10)
    for _ in range(20):
        w = mf_weight(bundle["track"], rng)
        wb = diagonal_boundary_weight(bundle, w)
        res = member(m, btrack, wb)
        assert res.member
        assert verify_witness(m, btrack, wb, res)
    report(10, "20 diagonal weights in the cone, witnesses verified",
           t0, 120.0)
