"""Exact linear algebra over the rationals, on one sparse integer core.

``IncrementalSystem`` eliminates sparse integer ``(column, coefficient)``
rows one at a time, fraction-free (integer-preserving, after Bareiss
1968); ``rref``, ``kernel_basis`` and ``solve`` scale dense rational rows
to integers and push them into one.  Pivots are the leftmost surviving
columns, so ``reduced()`` is the reduced echelon form of the span, a
canonical object."""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def _integer(row, b):
    """Rational ``row . x = b``, a ``{column: coefficient}`` dict, scaled by
    the lcm of its denominators, as ``({column: int}, int)``."""
    den = lcm(b.denominator, *[x.denominator for x in row.values()])
    return ({c: x.numerator * (den // x.denominator) for c, x in row.items()},
            b.numerator * (den // b.denominator))


def _system(rows, ncols, rhs=None):
    """An ``IncrementalSystem`` holding the dense rational ``rows`` with
    right-hand sides ``rhs`` (default 0), or None if they contradict."""
    sysm = IncrementalSystem(ncols)
    for row, b in zip(rows, rhs or [0] * len(rows)):
        if not sysm._push(*_integer(
                {c: x for c, x in enumerate(row) if x}, b)):
            return None
    return sysm


def rref(rows):
    """Reduced row echelon form ``(reduced, pivots)``: the nonzero rows,
    dense and each scaled to a leading 1, and their pivot columns."""
    ncols = len(rows[0]) if rows else 0
    red = _system(rows, ncols).reduced()
    pivots = sorted(red)
    return [[ONE if c == piv else red[piv].get(c, ZERO) for c in range(ncols)]
            for piv in pivots], pivots


def rank(rows):
    return len(rref(rows)[0])


def kernel_basis(rows, ncols):
    """Basis of the right kernel: one vector per free column, with a 1 in
    it and the pivot columns filled by back substitution."""
    return reduced_kernel(_system(rows, ncols).reduced(), ncols)


def solve(rows, rhs):
    """One exact solution of ``rows * x = rhs``, or None if inconsistent."""
    sysm = _system(rows, len(rows[0]) if rows else 0, rhs)
    return None if sysm is None else sysm.solution()


def reduced_kernel(reduced, ncols, first=0):
    """Kernel of reduced echelon rows ``{pivot: {column: coefficient}}`` on
    columns ``first..ncols-1``, dense and indexed from ``first``, as in
    ``kernel_basis``."""
    basis = []
    for free in range(first, ncols):
        if free in reduced:
            continue
        vec = [ZERO] * (ncols - first)
        vec[free - first] = ONE
        for piv, row in reduced.items():
            vec[piv - first] = -row.get(free, ZERO)
        basis.append(vec)
    return basis


class IncrementalSystem:
    """Row-reduced linear system over columns 0..ncols-1 with push and
    checkpoint/rollback, for depth-first searches that prune on ``0 = c``.

    A stored row is reduced against the pivots present when it was pushed,
    and kept as integers with no common factor: a positive pivot
    coefficient, the nonzero ``(column, coefficient)`` pairs right of the
    pivot, and the right-hand side, and with a provenance mask: its push
    ``tag`` OR-ed with the masks of the rows it was eliminated against, so
    that it names the tags of the pushed rows it is a combination of."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = []        # pivot column per stored row, in push order
        self.pivot_rows = {}    # pivot -> (coefficient, tail, rhs, mask)
        self.conflict = 0       # mask of the last push that was not stored

    def checkpoint(self):
        return len(self.pivots)

    def rollback(self, mark):
        while len(self.pivots) > mark:
            del self.pivot_rows[self.pivots.pop()]

    def push(self, row, b, tag=0):
        """Add ``row . x = b``: integer ``(column, coefficient)`` pairs, no
        zero coefficients, and an integer ``b``; False iff it contradicts
        the system.  Neither a redundant nor a contradicting row is stored;
        after a False, ``conflict`` is the mask of the contradiction."""
        return self._push(dict(row), b, tag)

    def _push(self, v, b, tag=0):
        """``push`` of an integer row ``{column: coefficient}``, which it
        consumes.  The dense wrappers call it directly, so that wrapping
        ``push`` counts only the rows callers push."""
        pivot_rows = self.pivot_rows
        # eliminate the lowest column of v while it is a pivot; a stored row
        # only has entries right of its pivot, so fill-in lands to the right
        # and every column is visited at most once, lowest first
        while v:
            c = min(v)
            if (entry := pivot_rows.get(c)) is None:
                break
            f = v.pop(c)
            p, tail, rb, mask = entry
            tag |= mask
            if p != 1:      # v := (p v - f row) / gcd(f, p), still integral
                g = gcd(f, p)
                f, s = f // g, p // g
                for j in v:
                    v[j] *= s
                b *= s
            for j, x in tail:
                y = v.get(j, 0) - f * x
                if y:
                    v[j] = y
                else:
                    del v[j]
            b -= f * rb
        else:
            self.conflict = tag
            return b == 0
        p = v.pop(c)
        if p != 1:
            g = gcd(p, b, *v.values()) * (1 if p > 0 else -1)
            p, b = p // g, b // g
            for j in v:
                v[j] //= g
        pivot_rows[c] = (p, tuple(v.items()), b, tag)
        self.pivots.append(c)
        return True

    def solution(self):
        """A particular solution with all free variables set to 0."""
        sol = [ZERO] * self.ncols
        # stored rows are in echelon form (nothing left of the pivot) but not
        # mutually reduced, so back-substitute in decreasing pivot order
        for piv in sorted(self.pivot_rows, reverse=True):
            p, tail, acc, _ = self.pivot_rows[piv]
            for j, x in tail:
                acc -= x * sol[j]
            sol[piv] = Fraction(acc, p)
        return sol

    def reduced(self, first=0):
        """The stored rows with pivot >= ``first``, fully reduced among
        themselves and without right-hand sides, as ``{pivot: {column:
        coefficient}}`` with the nonzero entries right of each pivot.  They
        span the row combinations that vanish before ``first``; this is the
        reduced echelon form of that span, a canonical object."""
        out = {}        # pivot -> (d, {column: n}): d x_pivot + sum n x_column
        # decreasing pivots: every pivot in a row's tail is reduced already;
        # scaling by the lcm m of their d keeps the substitution integral
        for piv in sorted((p for p in self.pivot_rows if p >= first),
                          reverse=True):
            p, tail, _, _ = self.pivot_rows[piv]
            m = lcm(*[out[j][0] for j, _ in tail if j in out])
            row = {}
            for j, x in tail:
                if j in out:
                    d, rest = out[j]
                    for k, y in rest.items():
                        row[k] = row.get(k, 0) - x * (m // d) * y
                else:
                    row[j] = row.get(j, 0) + x * m
            g = gcd(p * m, *row.values())
            out[piv] = (p * m // g, {k: y // g for k, y in row.items() if y})
        return {piv: {k: Fraction(y, d) for k, y in row.items()}
                for piv, (d, row) in out.items()}
