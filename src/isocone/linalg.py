"""Exact linear algebra over the rationals, on one sparse integer core.

``row`` builds every constraint row: sorted integer ``(column,
coefficient)`` pairs without zeros.  ``IncrementalSystem`` eliminates them
fraction-free (after Bareiss 1968); its one read-out, ``reduced()``, is the
canonical affine reduced echelon form (leftmost pivots), in integers over
one denominator per row like the kernels.  ``rref`` and ``rank`` take
dense rational rows; ``Fraction``s are made only there."""

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter


def row(terms):
    """Sparse integer row summing ``(column, coefficient)`` terms: sorted
    pairs with the zero sums left out; a tuple, since rows are shared."""
    # sorted, the terms of one column are neighbours, summed in one pass
    out, last = [], None
    for col, coef in sorted(terms):
        if col == last:
            out[-1] = (col, out[-1][1] + coef)
        else:
            out.append((col, coef))
            last = col
    return tuple(filter(itemgetter(1), out))


def _integer(dense):
    """A dense rational row scaled by the lcm of its denominators, as
    ``{column: int}`` without the zero entries."""
    den = lcm(*[x.denominator for x in dense])
    return {c: x.numerator * (den // x.denominator)
            for c, x in enumerate(dense) if x}


def _system(rows, ncols):
    """An ``IncrementalSystem`` holding integer rows ``{column: n}``."""
    sysm = IncrementalSystem(ncols)
    for v in rows:
        sysm._push(v, 0)
    return sysm


def rref(rows):
    """Reduced row echelon form ``(reduced, pivots)`` of dense rational
    rows: the nonzero rows, dense and each scaled to a leading 1, and
    their pivot columns."""
    ncols = len(rows[0]) if rows else 0
    red = _system(map(_integer, rows), ncols).reduced()
    pivots = sorted(red)
    return [[Fraction(d if c == piv else n.get(c, 0), d) for c in range(ncols)]
            for piv in pivots for d, n in [red[piv]]], pivots


def rank(rows):
    return len(rref(rows)[0])


def kernel_basis(rows, ncols):
    """``reduced_kernel`` of sparse integer rows as ``push`` takes them."""
    return reduced_kernel(
        _system(map(dict, rows), ncols).reduced(), ncols)


def reduced_kernel(reduced, ncols, first=0):
    """Kernel of a ``reduced()`` form on columns ``first..ncols-1``: per
    free column, ``(L, {column: n})`` indexed from ``first``; ``n / L`` is 1
    there and minus each row's entry there at that row's pivot."""
    hits = {}    # column -> the (pivot, d, entry) of the rows it is in
    for piv, (d, n) in reduced.items():
        for c, x in n.items():
            hits.setdefault(c, []).append((piv - first, d, x))
    basis = []
    for free in range(first, ncols):
        if free not in reduced:
            L = lcm(*[d for _, d, _ in hits.get(free, ())])
            vec = {c: -x * (L // d) for c, d, x in hits.get(free, ())}
            vec[free - first] = L
            basis.append((L, vec))
    return basis


class IncrementalSystem:
    """Row-reduced linear system over columns 0..ncols-1 with push and
    rollback to a mark ``len(pivots)``, for depth-first searches that
    prune on ``0 = c``.

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
        consumes.  The wrappers call it directly, so that wrapping
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

    def reduced(self, first=0):
        """The stored rows with pivot >= ``first``, fully reduced among
        themselves, as ``{pivot: (d, {column: n})}``: ``d x_pivot + sum n
        x_column = 0`` with ``d > 0``, no common factor, and minus the
        right-hand side at column ``ncols`` unless it is 0.  They span the
        row combinations that vanish before ``first``, as the reduced
        echelon form of that span, a canonical object."""
        out = {}
        # decreasing pivots: every pivot in a row's tail is reduced already;
        # scaling by the lcm m of their d keeps the substitution integral
        for piv in sorted((p for p in self.pivot_rows if p >= first),
                          reverse=True):
            p, tail, rb, _ = self.pivot_rows[piv]
            m = lcm(*[out[j][0] for j, _ in tail if j in out])
            acc = {self.ncols: -rb * m} if rb else {}
            for j, x in tail:
                if j in out:
                    d, rest = out[j]
                    for k, y in rest.items():
                        acc[k] = acc.get(k, 0) - x * (m // d) * y
                else:
                    acc[j] = acc.get(j, 0) + x * m
            g = gcd(p * m, *acc.values())
            out[piv] = (p * m // g, {k: y // g for k, y in acc.items() if y})
        return out
