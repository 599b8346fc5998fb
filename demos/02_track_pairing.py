"""The weight space of a maximal genus-2 train track and its skew pairing.

A generic train track has trivalent switches with two incoming branches
and one outgoing; admissible weights satisfy w(a) + w(b) = w(c) at every
switch.  The demo builds the bundled maximal track on the closed genus-2
surface (12 switches, 18 branches, all four complementary regions
trigons), computes an exact basis of the 6-dimensional weight space, and
evaluates the skew pairing three ways:

- directly at the switches (half the sum of 2x2 determinants),
- as a sum of per-triangle alternating forms on the dual triangulation,
- and, on an orientable track, as an intersection number of cycles.
"""

import random
from fractions import Fraction

from isocone import linalg
from isocone.fixtures import genus2_maximal_track
from isocone.track import TrainTrack, triangle_form_sum, embed_weights


def main():
    track = genus2_maximal_track()[0]
    print("switches:", len(track.switches), " branches:", len(track.branches))
    print("region cusp counts:", sorted(track.region_cusp_counts()))

    basis = track.weight_space_basis()
    print("weight space dimension:", len(basis))

    dual, b2e = track.dual_triangulation()
    print("dual triangulation: %d triangles, %d edges, %d vertices, genus %d"
          % (len(dual.triangles), len(dual.edge_classes),
             len(dual.vertex_classes), dual.genus()))

    print()
    print("pairing matrix on the basis (exact):")
    M = [[track.thurston_form(a, b) for b in basis] for a in basis]
    for row in M:
        print("  [" + " ".join(f"{str(x):>5}" for x in row) + "]")
    print("rank:", linalg.rank(M), " (nondegenerate)")

    rng = random.Random(0)
    w1 = {e: Fraction(0) for e in track.branches}
    w2 = {e: Fraction(0) for e in track.branches}
    for vec in basis:
        c1, c2 = rng.randint(-4, 4), rng.randint(-4, 4)
        for e, val in vec.items():
            w1[e] += c1 * val
            w2[e] += c2 * val
    direct = track.thurston_form(w1, w2)
    via_triangles = triangle_form_sum(dual,
                                      embed_weights(track, b2e, w1),
                                      embed_weights(track, b2e, w2))
    print()
    print("random admissible pair: switch-sum pairing =", direct)
    print("                 dual-triangle pairing =", via_triangles)

    print()
    print("an orientable track (dual to the two-triangle torus):")
    torus = TrainTrack({"t0": ("A", "B", "C"), "t1": ("A", "B", "C")})
    wa = {"A": Fraction(1), "B": Fraction(0), "C": Fraction(1)}
    wb = {"A": Fraction(0), "B": Fraction(1), "C": Fraction(1)}
    print("  thurston_form =", torus.thurston_form(wa, wb))
    print("  cycle_pairing =", torus.cycle_pairing(wa, wb))


if __name__ == "__main__":
    main()
