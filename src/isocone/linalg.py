"""Exact linear algebra over the rationals.

``rref``, ``kernel_basis`` and ``solve`` work on dense rows, lists of
``fractions.Fraction``.  ``IncrementalSystem``, which the choice searches
push one short constraint row at a time, works on sparse rows: ``(column,
coefficient)`` pairs with no zero coefficients, reduced to ``{pivot:
{column: coefficient}}`` dicts whose kernel ``reduced_kernel`` builds.
Everything is deterministic: pivots are chosen left to right, and rows are
normalized so the reduced echelon form of a subspace is a canonical object.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced, pivots)`` where ``reduced`` contains only the nonzero
    rows, each scaled to a leading 1, and ``pivots`` is the list of pivot
    column indices.  The input is not modified.
    """
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows):
    return len(rref(rows)[0])


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix, as reduced echelon rows.

    One basis vector per free column; the vector has a 1 in its free column
    and the pivot columns filled by back substitution.
    """
    red, pivots = rref(rows)
    return reduced_kernel(
        {pcol: dict(enumerate(prow)) for prow, pcol in zip(red, pivots)},
        ncols)


def solve(rows, rhs):
    """One exact solution of ``rows * x = rhs``, or None if inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    sol = [ZERO] * ncols
    for prow, pcol in zip(red, pivots):
        if pcol == ncols:
            return None
        sol[pcol] = prow[ncols]
    return sol


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
    """Row-reduced linear system supporting push/undo of constraint rows.

    Used for depth-first enumeration with pruning: rows are added one at a
    time, inconsistency ``0 = c`` with ``c != 0`` is reported immediately,
    and a checkpoint/rollback pair restores any earlier state.  Columns are
    0..ncols-1.  Rows are sparse: each stored row is reduced against the
    pivots present when it was pushed, scaled to 1 at its own pivot, and
    kept as its pivot, the ``(column, coefficient)`` pairs right of the
    pivot with nonzero coefficients, and a right-hand side.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = []        # pivot column per stored row, in push order
        self.pivot_rows = {}    # pivot column -> (entries right of it, rhs)

    def checkpoint(self):
        return len(self.pivots)

    def rollback(self, mark):
        while len(self.pivots) > mark:
            del self.pivot_rows[self.pivots.pop()]

    def push(self, row, b):
        """Add ``row . x = b``.  Returns False iff it contradicts the system.

        ``row`` is sparse: ``(column, coefficient)`` pairs with no zero
        coefficients.  Neither a redundant row (accepted) nor a
        contradicting one is stored; the caller can always rollback to a
        checkpoint regardless of the outcome.
        """
        v = dict(row)
        b = Fraction(b)
        # eliminate the lowest column of v while it is a pivot; a stored row
        # only has entries right of its pivot, so fill-in lands to the right
        # and every column is visited at most once, lowest first
        while v:
            c = min(v)
            entry = self.pivot_rows.get(c)
            if entry is None:
                break
            f = v.pop(c)
            tail, rb = entry
            for j, x in tail:
                y = v.get(j, 0) - f * x
                if y:
                    v[j] = y
                else:
                    del v[j]
            b -= f * rb
        else:
            return b == 0
        inv = ONE / v.pop(c)
        self.pivot_rows[c] = (tuple((j, x * inv) for j, x in v.items()),
                              b * inv)
        self.pivots.append(c)
        return True

    def solution(self):
        """A particular solution with all free variables set to 0."""
        sol = [ZERO] * self.ncols
        # stored rows are in echelon form (nothing left of the pivot) but not
        # mutually reduced, so back-substitute in decreasing pivot order
        for piv in sorted(self.pivot_rows, reverse=True):
            tail, acc = self.pivot_rows[piv]
            for j, x in tail:
                acc -= x * sol[j]
            sol[piv] = acc
        return sol

    def reduced(self, first=0):
        """The stored rows with pivot >= ``first``, fully reduced among
        themselves and without right-hand sides, as ``{pivot: {column:
        coefficient}}`` with the nonzero entries right of each pivot.  They
        span the row combinations that vanish before ``first``; this is the
        reduced echelon form of that span, a canonical object."""
        out = {}
        # decreasing pivots: every pivot in a row's tail is reduced already
        for piv in sorted((p for p in self.pivot_rows if p >= first),
                          reverse=True):
            row = {}
            for j, x in self.pivot_rows[piv][0]:
                # x * e_j, with e_j = -(the rest of pivot row j) if j is one
                for k, y in out[j].items() if j in out else ((j, -ONE),):
                    row[k] = row.get(k, ZERO) - x * y
            out[piv] = {k: x for k, x in row.items() if x}
        return out
