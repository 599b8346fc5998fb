"""Exact linear algebra over the rationals, on one sparse integer core.

``row`` builds every constraint row; ``IncrementalSystem`` eliminates them
fraction-free (after Bareiss 1968) and reads out their canonical reduced
echelon form in integers.  Only ``rref`` and ``rank`` make Fractions."""

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


def rref(rows):
    """``(reduced, pivots)`` of dense rational rows: the nonzero rows of
    their reduced echelon form, dense with leading 1s, and the pivots."""
    ncols = len(rows[0]) if rows else 0
    sysm = IncrementalSystem(ncols)
    for dense in rows:      # scaled by the lcm of its denominators
        den = lcm(*[x.denominator for x in dense])
        sysm._push({c: x.numerator * (den // x.denominator)
                    for c, x in enumerate(dense) if x}, 0)
    red = sysm.reduced()
    return [[Fraction(d if c == piv else n.get(c, 0), d) for c in range(ncols)]
            for piv in sorted(red) for d, n in [red[piv]]], sorted(red)


def rank(rows):
    return len(rref(rows)[0])


def kernel_basis(rows, ncols):
    """``reduced_kernel`` of sparse integer rows as ``push`` takes them."""
    sysm = IncrementalSystem(ncols)
    for v in rows:
        sysm._push(dict(v), 0)
    return reduced_kernel(sysm.reduced(), ncols)


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
    rollback to a mark ``len(pivots)``, for depth-first searches that prune
    on ``0 = c``.  A stored row is reduced against the pivots present at its
    push, kept in integers with no common factor (pivot coefficient > 0,
    the nonzero pairs right of the pivot, the right-hand side) and a mask:
    its ``tag`` OR-ed with those of the rows it was eliminated against."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = []        # pivot column per stored row, in push order
        self.pivot_rows = {}    # pivot -> (coefficient, tail, rhs, mask)
        self.conflict = 0       # mask of the last push that was not stored

    def rollback(self, mark):
        while len(self.pivots) > mark:
            del self.pivot_rows[self.pivots.pop()]

    def push(self, row, b, tag=0):
        """Add ``row . x = b`` (integer pairs without zeros, an integer
        ``b``); False iff it contradicts the system.  Only a new row is
        stored; after a False, ``conflict`` is the contradiction's mask."""
        return self._push(dict(row), b, tag)

    def _push(self, v, b, tag=0):
        """``push`` of a row ``{column: coefficient}``, which it consumes;
        called directly inside, so that ``push`` counts callers' rows."""
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

    def reduced(self, first=0, trail=None):
        """The stored rows with pivot >= ``first``, fully reduced among
        themselves, as ``{pivot: (d, {column: n})}``: ``d x_pivot + sum n
        x_column = 0``, ``d > 0``, no common factor, minus the right-hand
        side at column ``ncols`` unless 0: the canonical reduced echelon
        form of the combinations vanishing before ``first``.  A ``trail``
        (one per system and ``first``) keeps it per stored row, valid while
        the row stays stored as the same object; later rows fold into it."""
        rows = self.pivot_rows
        if trail is None:
            # decreasing pivots: every pivot in a row's tail is reduced
            return self._reduced_rows({}, {p: rows[p] for p in sorted(
                (p for p in rows if p >= first), reverse=True)})
        while trail and rows.get(trail[-1][0]) is not trail[-1][1]:
            trail.pop()
        out = trail[-1][2] if trail else {}
        for piv in self.pivots[len(trail):]:
            if piv >= first:
                # the new row reduced against its parent's form, then its
                # pivot eliminated from the rows that hold it
                out = self._reduced_rows(dict(out), {piv: rows[piv], **{
                    r: (d, n.items(), 0, 0)
                    for r, (d, n) in out.items() if piv in n}})
            trail.append((piv, rows[piv], out))
        return out

    def _reduced_rows(self, out, rows):
        """``out`` with each row ``piv: (p, tail, rb, _)`` of ``rows``, ``p
        x_piv + tail = rb``, put in turn, ``out``'s pivots substituted."""
        for piv, (p, tail, rb, _) in rows.items():
            # scaling by the lcm m of their d keeps the substitution integral
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
