import random
from fractions import Fraction

import pytest

from isocone.ordgroup import (
    LexVec, embed_last, LeftInverse, format_rat,
    DimensionError, NotPositiveError,
)
from util import code_lines, random_lexvec, random_positive_lexvec


def V(*coords):
    return LexVec(coords)


class TestLexCmp:
    def test_leading_coordinate(self):
        assert V(0, 1) < V(1, 0)

    def test_equal(self):
        assert V(2, -3) == V(2, -3) and not V(2, -3) < V(2, -3)

    def test_leading_beats_trailing(self):
        assert V(1, -100) > V(0, 100)

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            V(1) < V(1, 0)


class TestEmbedLast:
    def test_definition(self):
        assert embed_last(Fraction(3, 2), 3) == V(0, 0, Fraction(3, 2))

    def test_zero(self):
        assert embed_last(0, 2) == V(0, 0)

    def test_rank_one(self):
        assert embed_last(-1, 1) == V(-1)

    def test_rank_zero_rejected(self):
        with pytest.raises(DimensionError):
            embed_last(1, 0)

    def test_order_preserving(self):
        rng = random.Random(3)
        for _ in range(100):
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            assert (embed_last(s, 3) < embed_last(t, 3)) == (s < t)


class TestLeftInverse:
    def test_first_positive_slot(self):
        phi = LeftInverse(V(0, 2, 7))
        assert phi.index == 1 and phi.scale == Fraction(1, 2)
        assert phi(V(0, 2, 7)) == 1

    def test_unit_slot(self):
        phi = LeftInverse(V(0, 0, 1))
        assert phi(V(0, 0, 1)) == 1
        assert phi(V(5, -1, 4)) == 4

    def test_zero_rejected(self):
        with pytest.raises(NotPositiveError):
            LeftInverse(V(0, 0, 0))

    def test_negative_leading_coordinate(self):
        # (-1, 5) is negative even though a later slot is positive
        with pytest.raises(NotPositiveError):
            LeftInverse(V(-1, 5))

    def test_first_positive_after_zeros_only(self):
        # a = (0, 3, -8): positive, k picks slot 2
        phi = LeftInverse(V(0, 3, -8))
        assert phi.index == 1
        assert phi(V(0, 3, -8)) == 1

    def test_additive_and_fixes_multiples(self):
        rng = random.Random(11)
        for _ in range(200):
            rank = rng.randint(1, 4)
            a = random_positive_lexvec(rng, rank)
            phi = LeftInverse(a)
            x = random_lexvec(rng, rank)
            y = random_lexvec(rng, rank)
            assert phi(x + y) == phi(x) + phi(y)
            m = rng.randint(-5, 5)
            assert phi(a.scale(m)) == m


class TestOrderCompatibility:
    def test_translation_invariance(self):
        rng = random.Random(5)
        for _ in range(300):
            rank = rng.randint(1, 4)
            a, b, c = (random_lexvec(rng, rank) for _ in range(3))
            if a < b:
                assert a + c < b + c

    def test_abs(self):
        rng = random.Random(6)
        for _ in range(200):
            rank = rng.randint(1, 4)
            x = random_lexvec(rng, rank)
            ax = abs(x)
            assert ax >= LexVec.zero(rank)
            assert ax == x or ax == -x


class TestSerialization:
    def test_format_rat(self):
        assert format_rat(Fraction(3, 2)) == "3/2"
        assert format_rat(Fraction(-4, 2)) == "-2"

    def test_lexvec_repr(self):
        assert repr(V(0, Fraction(3, 2), -1)) == "(0,3/2,-1)"


def test_code_line_count():
    assert code_lines("ordgroup") <= 114
