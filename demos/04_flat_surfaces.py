"""Flat surfaces: Delaunay flips, dual tracks, and the symplectic pairing.

The L-shaped surface glued from three unit squares is a genus-2
translation surface with a single cone point of angle 6*pi.  The demo
shears it, restores the Delaunay property by exact edge flips, rotates
away horizontal edges, reads off the dual train track weighted by edge
heights, and cross-validates the symplectic pairing of two period
deformations through three independent exact computations plus the
defining hermitian integral, summed exactly per triangle and rounded once
to floating point.
"""

import random
from fractions import Fraction

from isocone.flatsurf import (
    lshape_h2, pillowcase, delaunay, is_delaunay, PeriodTangent,
    random_tangent, omega_thurston, omega_hessian, omega_homological,
    kahler_pairing_numeric, orientation_double_cover,
)


def main():
    s = lshape_h2()
    v = s.validate()
    print("L-shaped surface: genus", v["genus"], " zero orders", v["symbol"],
          " area", v["area"])

    sheared = s.shear(Fraction(7, 3))
    print("after shearing: Delaunay?", is_delaunay(sheared))
    d = delaunay(sheared)
    print("after flips:    Delaunay?", is_delaunay(d),
          " area preserved:", d.total_area() == s.total_area(),
          " symbol preserved:", d.validate()["symbol"] == v["symbol"])

    adapted, c = delaunay(s).adapted()
    print("rotated by", c, "so no edge is horizontal")
    track = adapted.dual_track()
    heights = adapted.heights()
    print("dual track: %d switches, %d branches; heights satisfy switches: %s"
          % (len(track.switches), len(track.branches),
             track.check_weight(heights)))

    print()
    print("== pairing two random period deformations, three ways ==")
    rng = random.Random(3)
    t1 = random_tangent(adapted, rng)
    t2 = random_tangent(adapted, rng)
    print("via the dual track:      ", omega_thurston(adapted, t1, t2))
    print("via homology classes:    ", omega_homological(adapted, t1, t2))
    print("via the area Hessian:    ", omega_hessian(adapted, t1, t2))

    print()
    print("== the hermitian pairing on the base-period pair: the exact value "
          "rounded once ==")
    sc = PeriodTangent.scaling(adapted)
    num = kahler_pairing_numeric(adapted, sc, sc.times_i())
    exact = omega_thurston(adapted, sc, sc.times_i())
    print("exact:", exact, "  rounded once:", num == complex(0, float(exact)))

    print()
    print("== a half-translation surface and its double cover ==")
    p = pillowcase()
    pv = p.validate()
    print("pillowcase: genus", pv["genus"], " orders", pv["symbol"],
          " (four simple poles)")
    cover = orientation_double_cover(p)
    cv = cover.validate()
    print("orientation double cover: connected translation surface of genus",
          cv["genus"], " area", cover.total_area())
    pr, _ = delaunay(p).adapted()
    u1 = random_tangent(pr, rng)
    u2 = random_tangent(pr, rng)
    print("pairings still agree through the cover:",
          omega_thurston(pr, u1, u2) == omega_homological(pr, u1, u2)
          == omega_hessian(pr, u1, u2))


if __name__ == "__main__":
    main()
