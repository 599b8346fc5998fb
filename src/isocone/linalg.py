"""Exact linear algebra over the rationals.

Everything here works on lists of lists of ``fractions.Fraction`` and is
deterministic: pivots are chosen left to right, rows are normalized so the
reduced echelon form of a subspace is a canonical object usable as a
dictionary key.
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
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for prow, pcol in zip(red, pivots):
            vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


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


def canonical_span_key(rows):
    """Hashable canonical form of a row span (tuple of reduced rows)."""
    red, _ = rref(rows)
    return tuple(tuple(r) for r in red)


class IncrementalSystem:
    """Row-reduced linear system supporting push/undo of constraint rows.

    Used for depth-first enumeration with pruning: rows are added one at a
    time, inconsistency ``0 = c`` with ``c != 0`` is reported immediately,
    and a checkpoint/rollback pair restores any earlier state.  Columns are
    0..ncols-1; each stored row is reduced against the current pivots and
    kept with an attached right-hand side.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []          # reduced rows, each of length ncols
        self.rhs = []
        self.pivot_of_row = []  # pivot column per stored row
        self.pivot_rows = {}    # column -> row index

    def checkpoint(self):
        return len(self.rows)

    def rollback(self, mark):
        while len(self.rows) > mark:
            self.rows.pop()
            self.rhs.pop()
            col = self.pivot_of_row.pop()
            del self.pivot_rows[col]

    def push(self, row, b):
        """Add ``row . x = b``.  Returns False iff it contradicts the system.

        A redundant row is accepted (and not stored); the caller can always
        rollback to a checkpoint regardless of the outcome.
        """
        v = list(map(Fraction, row))
        b = Fraction(b)
        # stored rows have zeros before their own pivot, so one left-to-right
        # pass eliminates every pivot column of v
        piv = None
        for c in range(self.ncols):
            if v[c] == 0:
                continue
            ri = self.pivot_rows.get(c)
            if ri is None:
                piv = c
                break
            f = v[c]
            prow = self.rows[ri]
            for j in range(c, self.ncols):
                if prow[j] != 0:
                    v[j] -= f * prow[j]
            b -= f * self.rhs[ri]
        if piv is None:
            return b == 0
        inv = ONE / v[piv]
        v = [x * inv for x in v]
        b *= inv
        self.rows.append(v)
        self.rhs.append(b)
        self.pivot_of_row.append(piv)
        self.pivot_rows[piv] = len(self.rows) - 1
        return True

    def solution(self):
        """A particular solution with all free variables set to 0."""
        sol = [ZERO] * self.ncols
        # rows are in echelon form (zeros before the pivot) but not mutually
        # reduced, so back-substitute in decreasing pivot order
        for piv in sorted(self.pivot_rows, reverse=True):
            ri = self.pivot_rows[piv]
            row = self.rows[ri]
            acc = self.rhs[ri]
            for c in range(piv + 1, self.ncols):
                if row[c] != 0:
                    acc -= row[c] * sol[c]
            sol[piv] = acc
        return sol
