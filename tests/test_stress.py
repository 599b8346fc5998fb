"""Randomized stress of the flip re-gluing logic and pairing consistency.

The two-triangle torus is the harshest flip case: every outer edge of a
flipped quad is glued to another outer edge of the same quad, so the sign
recomputation has to stay coherent on both sides at once.
"""

import random
from fractions import Fraction

from isocone.flatsurf import (
    square_torus, hex_torus, pillowcase, lshape_h2,
    delaunay, is_delaunay, random_tangent, omega_hessian,
)
from util import height_derivative


def test_sheared_torus_flips():
    rng = random.Random(42)
    for _ in range(30):
        sh = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        d = delaunay(square_torus().shear(sh))
        assert is_delaunay(d)
        v = d.validate()
        assert v["area"] == 1 and v["genus"] == 1 and v["symbol"] == ()


def test_sheared_hex_flips():
    rng = random.Random(43)
    for _ in range(20):
        sh = Fraction(rng.randint(-15, 15), rng.randint(1, 5))
        d = delaunay(hex_torus().shear(sh))
        assert is_delaunay(d)
        v = d.validate()
        assert v["area"] == 14 and v["genus"] == 1


def test_sheared_pillowcase_flips():
    rng = random.Random(44)
    for _ in range(20):
        sh = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        d = delaunay(pillowcase().shear(sh))
        assert is_delaunay(d)
        assert d.validate()["symbol"] == (-1, -1, -1, -1)
        assert d.kind == "half-translation"


def test_genus2_cycle_pairing_matches_switch_pairing():
    rng = random.Random(45)
    s, _ = delaunay(lshape_h2()).adapted()
    track = s.dual_track()
    for _ in range(20):
        t1 = random_tangent(s, rng)
        t2 = random_tangent(s, rng)
        w1 = height_derivative(s, t1)
        w2 = height_derivative(s, t2)
        assert track.cycle_pairing(w1, w2) == track.thurston_form(w1, w2)


def test_fresh_combinatorics_after_flips_stay_consistent():
    rng = random.Random(46)
    for _ in range(6):
        sh = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        s, _ = delaunay(lshape_h2().shear(sh)).adapted()
        track = s.dual_track()
        for _ in range(4):
            t1 = random_tangent(s, rng)
            t2 = random_tangent(s, rng)
            w1 = height_derivative(s, t1)
            w2 = height_derivative(s, t2)
            val = track.thurston_form(w1, w2)
            assert track.cycle_pairing(w1, w2) == val
            assert omega_hessian(s, t1, t2) == val
