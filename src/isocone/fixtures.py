"""Deterministic combinatorial fixtures used across the package and tests.

The main export is the genus-2 pair: a triangulated closed genus-2 surface
with 4 vertices, 18 edges and 12 triangles, together with the maximal
generic train track dual to it (every complementary region a trigon, weight
space of dimension 6).  It is produced from the standard one-vertex octagon
triangulation of the genus-2 surface by splitting three alternating fan
triangles at an interior point; each split vertex collects exactly three
region cusps, and the three unsplit triangles leave three cusps at the
original vertex.
"""

from fractions import Fraction
from math import lcm

from isocone.track import SurfaceTriangulation, track_dual_to_triangulation
from isocone.cone3 import (
    FACE_CYCLES, BoundaryTrack, Triangulation3, ProductTriangulation,
)


def genus2_one_vertex_surface():
    """One-vertex triangulation of the closed genus-2 surface.

    Fan triangulation of the octagon with side word a b a~ b~ c d c~ d~:
    six triangles, nine undirected edges, a single vertex.
    """
    triangles = {
        "T0": ("s0", "s1", "G1"),
        "T1": ("g1", "s2", "G2"),
        "T2": ("g2", "s3", "G3"),
        "T3": ("g3", "s4", "G4"),
        "T4": ("g4", "s5", "G5"),
        "T5": ("g5", "s6", "s7"),
    }
    return SurfaceTriangulation(triangles, {
        "s0": "s2", "s1": "s3", "s4": "s6", "s5": "s7", "g1": "G1",
        "g2": "G2", "g3": "G3", "g4": "G4", "g5": "G5"})


def split_triangle(surface, t, tag):
    """Replace triangle ``t`` by three triangles around a new interior vertex.

    New directed edges are named ``(tag, 'in'|'out', i)``: the spoke toward
    the new vertex from corner i, and back.  The ccw orientation of the
    three sub-triangles matches the original.
    """
    ds = surface.triangles[t]
    triangles = {k: v for k, v in surface.triangles.items() if k != t}
    glu = dict(list(surface.glue.items())[::2])     # one entry per pair
    for i in range(3):
        d = ds[i]
        tri = (d, (tag, "in", (i + 1) % 3), (tag, "out", i))
        triangles[f"{t}.{i}"] = tri
        glu[(tag, "in", i)] = (tag, "out", i)
    return SurfaceTriangulation(triangles, glu)


def genus2_four_vertex_surface():
    """Genus-2 surface with 4 vertices, 18 edges, 12 triangles."""
    surf = genus2_one_vertex_surface()
    for t in ("T1", "T3", "T5"):
        surf = split_triangle(surf, t, f"p{t}")
    return surf


def genus2_maximal_track():
    """Maximal generic track on the genus-2 surface, with its dual data.

    Returns ``(track, surface, outgoing)`` where the dual triangulation of
    the track is ``surface`` (branch ids are its edge classes) and
    ``outgoing`` is the slot of each triangle's outgoing edge.  All four
    complementary regions are trigons and the admissible weight space has
    dimension 6.
    """
    surf = genus2_four_vertex_surface()
    # every triangle sends its slot-0 edge out; in a sub-triangle of a
    # split that is the original (outer) edge, with both spokes incoming
    # and the cusp at the new vertex
    outgoing = {t: 0 for t in surf.triangles}
    return track_dual_to_triangulation(surf, outgoing), surf, outgoing


# -- 3-manifold fixtures -------------------------------------------------------


def reversing_gluing(f1, f2, rotation=0):
    """An orientation-reversing corner bijection between two faces.

    Maps the induced corner cycle of ``f1`` onto the reversed induced
    cycle of ``f2``; ``rotation`` in 0..2 picks among the three such maps.
    """
    c1 = FACE_CYCLES[f1]
    c2 = tuple(reversed(FACE_CYCLES[f2]))
    return {c1[k]: c2[(k + rotation) % 3] for k in range(3)}


def glue_tets(gluings, t1, f1, t2, f2, rotation=0):
    gluings[(t1, f1)] = (t2, f2, reversing_gluing(f1, f2, rotation))


def single_tet():
    return Triangulation3(["T0"], {})


def two_tets():
    """Two tetrahedra glued along one face; boundary is a 2-sphere."""
    glu = {}
    glue_tets(glu, "T0", 0, "T1", 0)
    return Triangulation3(["T0", "T1"], glu)


def chain_tets(n):
    """A chain of n tetrahedra, consecutive ones glued along one face."""
    glu = {}
    for k in range(n - 1):
        glue_tets(glu, f"T{k}", 0, f"T{k+1}", 1)
    return Triangulation3([f"T{k}" for k in range(n)], glu)


# -- the genus-2 product bundle ---------------------------------------------------


def product_bundle(surface, outgoing):
    """Product of a surface with an interval, plus a track on both ends.

    ``outgoing`` is the slot of the outgoing dual branch of each surface
    triangle that carries the track.  Returns a dict with the product
    manifold (whose tetrahedra are named "t.k", piece k of the prism over
    triangle t), the matching ``outgoing`` map on both boundary copies and
    its ``BoundaryTrack``, and the per-copy boundary-edge correspondences.
    """
    prod = ProductTriangulation(surface)
    out = {}
    for t, slot in outgoing.items():
        for tri, smap in (prod.bottom[t], prod.top[t]):
            out[tri] = smap[slot]
    return {
        "manifold": prod.manifold,
        "outgoing": out,
        "boundary_track": BoundaryTrack(prod.manifold, out),
        "bottom_edge_of": prod.bottom_edge_of,
        "top_edge_of": prod.top_edge_of,
    }


def g2_product_bundle():
    """``product_bundle`` of the genus-2 fixture surface and its maximal
    track, with the ``surface`` and ``track`` added."""
    track, g2, outgoing = genus2_maximal_track()
    return {"surface": g2, "track": track, **product_bundle(g2, outgoing)}


# on the genus-2 track a draw succeeds within 52 tries in 4,000 (7 on
# average), so the cap only stops bases whose combinations are rarely
# nonnegative
MF_WEIGHT_TRIES = 1000


def mf_weight(track, rng):
    """A random nonnegative admissible weight, by rejection on the basis;
    ``ValueError`` if ``MF_WEIGHT_TRIES`` draws are all rejected.  A try
    takes ``rng.randint(0, 6) / rng.randint(1, 3)`` per basis vector."""
    # the coefficients n / d of the vectors (L, vec) of integer_basis, in
    # order, are summed as integers over the common denominator 6 * M, M
    # the lcm of the L: n / d is n * (6 // d) / 6; only the weight that is
    # returned becomes Fractions, one per branch in track.branches order
    basis = track.integer_basis
    M = lcm(*[L for L, _ in basis])
    for _ in range(MF_WEIGHT_TRIES):
        w = dict.fromkeys(track.branches, 0)
        for L, vec in basis:
            c = rng.randint(0, 6) * (6 // rng.randint(1, 3)) * (M // L)
            for e, n in vec.items():
                w[e] += c * n
        if all(n >= 0 for n in w.values()):
            return {e: Fraction(n, 6 * M) for e, n in w.items()}
    raise ValueError(f"no nonnegative weight on a track with "
                     f"{len(track.branches)} branches in {MF_WEIGHT_TRIES} "
                     f"tries")


def diagonal_boundary_weight(bundle, w):
    """Push one admissible surface weight to both boundary copies."""
    wb = {E: Fraction(0)
          for E in bundle["manifold"].boundary.edge_classes}
    for E, val in w.items():
        wb[bundle["bottom_edge_of"][E]] = val
        wb[bundle["top_edge_of"][E]] = val
    return wb
