"""Exact scalars: rationals and lexicographically ordered rational tuples.

A ``LexVec`` is an element of Q^n carrying the lexicographic order.  These
tuples serve as the value group for every metric quantity in the package:
edge lengths and distances in ``lamtree``, and tuple-valued edge weights in
``cone3``.  Rank is part of the value; mixing ranks is an error, never a
coercion.
"""

from fractions import Fraction


class DimensionError(ValueError):
    """Operands of different rank, or rank below 1."""


class NotPositiveError(ValueError):
    """A positive element was required."""


def rat(x):
    """Coerce ints, strings like '3/2', and Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def format_rat(q):
    """Serialize a Fraction as 'p/q', or 'p' when the denominator is 1."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class LexVec:
    """Element of Q^n with the lexicographic order.

    Comparison looks at the first differing coordinate; addition is
    componentwise.  Instances are immutable and hashable.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(rat(c) for c in coords)
        if len(coords) < 1:
            raise DimensionError("rank must be at least 1")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("LexVec is immutable")

    @property
    def rank(self):
        return len(self.coords)

    @classmethod
    def zero(cls, n):
        return cls((0,) * n)

    def _check_rank(self, other):
        if not isinstance(other, LexVec):
            raise TypeError(f"expected LexVec, got {other!r}")
        if other.rank != self.rank:
            raise DimensionError(
                f"rank mismatch: {self.rank} vs {other.rank}")
        return other

    def __add__(self, other):
        self._check_rank(other)
        return LexVec(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        self._check_rank(other)
        return LexVec(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return LexVec(-a for a in self.coords)

    def scale(self, q):
        q = rat(q)
        return LexVec(a * q for a in self.coords)

    def __abs__(self):
        return self if self >= LexVec.zero(self.rank) else -self

    def __eq__(self, other):
        if not isinstance(other, LexVec):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        self._check_rank(other)
        return self.coords < other.coords

    def __le__(self, other):
        self._check_rank(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        self._check_rank(other)
        return self.coords > other.coords

    def __ge__(self, other):
        self._check_rank(other)
        return self.coords >= other.coords

    def __repr__(self):
        return "(" + ",".join(format_rat(c) for c in self.coords) + ")"


def embed_last(t, n):
    """The order-preserving embedding of Q into Q^n hitting the last slot."""
    if n < 1:
        raise DimensionError("rank must be at least 1")
    return LexVec((0,) * (n - 1) + (rat(t),))


class LeftInverse:
    """Linear functional splitting an order embedding of Q into Q^n.

    For a positive tuple ``a`` (the image of 1 under the embedding), the
    functional reads off coordinate ``k`` - the first positive slot of
    ``a`` - scaled by ``1/a_k``.  It is additive, sends ``a`` to 1, and
    composed with ``t -> t*a`` is the identity on Q.
    """

    __slots__ = ("index", "scale")

    def __init__(self, a):
        if not isinstance(a, LexVec):
            raise TypeError("expected LexVec")
        if not a > LexVec.zero(a.rank):
            raise NotPositiveError(f"not lexicographically positive: {a}")
        # 0-based index of the first positive coordinate
        self.index = next(i for i, c in enumerate(a.coords) if c > 0)
        self.scale = Fraction(1) / a.coords[self.index]

    def __call__(self, x):
        if not isinstance(x, LexVec):
            raise TypeError("expected LexVec")
        if x.rank <= self.index:
            raise DimensionError("tuple too short for this functional")
        return x.coords[self.index] * self.scale

    def __repr__(self):
        return f"LeftInverse(index={self.index + 1}, scale={format_rat(self.scale)})"
