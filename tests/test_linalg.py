import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from isocone import linalg
from util import code_lines, reference_eliminate, reference_row, solution

# small entries with many zeros, so that dependent, redundant and
# contradicting rows are all common; some are not integers
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
RHS = st.sampled_from([0, 1, -2, Fraction(1, 2), Fraction(-5, 3)])


def reference_rref(rows):
    """Dense Gauss-Jordan elimination over ``Fraction``: the leftmost
    nonzero column of the remaining rows is the next pivot, and its row
    is scaled to 1 there and subtracted from every other row."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = 1 / mat[r][c]
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


def reference_kernel(rows, ncols):
    red, pivots = reference_rref(rows)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for prow, piv in zip(red, pivots):
                vec[piv] = -prow[free]
            basis.append(vec)
    return basis


def reference_solve(rows, rhs, ncols):
    """The solution with every free column 0, or None if inconsistent."""
    red, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    sol = [Fraction(0)] * ncols
    for prow, piv in zip(red, pivots):
        if piv == ncols:
            return None
        sol[piv] = prow[ncols]
    return sol


def back_substitution(sysm):
    """The solution of ``sysm`` with every free column 0, substituted back
    through its stored rows in decreasing pivot order: they are in echelon
    form but not reduced among themselves."""
    sol = [Fraction(0)] * sysm.ncols
    for piv in sorted(sysm.pivot_rows, reverse=True):
        p, tail, acc, _ = sysm.pivot_rows[piv]
        for j, x in tail:
            acc -= x * sol[j]
        sol[piv] = Fraction(acc, p)
    return sol


def exact(value):
    """``value`` with every number replaced by ``(type, value)``, so that
    equality also checks that no ``int`` stands in for a ``Fraction``."""
    if isinstance(value, (list, tuple)):
        return [exact(x) for x in value]
    if isinstance(value, dict):
        return {k: exact(x) for k, x in value.items()}
    return (type(value), value)


@st.composite
def programs(draw):
    ncols = draw(st.integers(1, 5))
    push = st.tuples(st.just("push"),
                     st.lists(ENTRIES, min_size=ncols, max_size=ncols), RHS)
    ops = draw(st.lists(st.one_of(push, st.just(("checkpoint",)),
                                  st.just(("rollback",))), max_size=25))
    return ncols, ops


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=7))
    return ncols, rows


def scaled(row, b):
    """The dense ``row`` and ``b`` times the lcm of their denominators, as
    the sparse integer row and right-hand side ``push`` takes."""
    den = math.lcm(*[Fraction(x).denominator for x in [b, *row]])
    return [(c, int(x * den)) for c, x in enumerate(row) if x], int(b * den)


def sparse(rows):
    """Dense rational rows as the sparse integer rows ``kernel_basis``
    takes, each scaled by the lcm of its denominators."""
    return [scaled(row, 0)[0] for row in rows]


def fraction_rows(reduced):
    """A ``reduced()`` form ``{pivot: (d, {column: n})}`` as the rational
    rows ``{pivot: {column: n / d}}`` of the reference elimination."""
    return {p: {c: Fraction(x, d) for c, x in n.items()}
            for p, (d, n) in reduced.items()}


def fraction_vectors(basis, ncols):
    """Kernel vectors ``(L, {column: n})`` as dense rational ``n / L``."""
    return [[Fraction(vec.get(c, 0), L) for c in range(ncols)]
            for L, vec in basis]


def assert_integer_kernel(basis, rows, pivots, ncols, first=0):
    """``basis`` holds one vector of ints per free column (not among
    ``pivots``) of ``first..ncols-1``, in order, with ``L`` there and no
    other free column; every sparse integer row (absolute columns)
    annihilates every vector (columns from ``first``) in integers."""
    frees = [c for c in range(first, ncols) if c not in pivots]
    assert len(basis) == len(frees)
    for (L, vec), free in zip(basis, frees):
        assert type(L) is int and L > 0
        assert all(type(c) is int and type(x) is int and x
                   for c, x in vec.items())
        assert [c for c in vec if c + first not in pivots] == [free - first]
        assert vec[free - first] == L
        for row in rows:
            assert sum(x * vec.get(c - first, 0) for c, x in row) == 0


def assert_reduced_rows_primitive(reduced):
    # ints only, d > 0, entries right of the pivot, no common factor
    for piv, (d, n) in reduced.items():
        assert type(piv) is int and type(d) is int and d > 0
        assert all(type(c) is int and c > piv and type(x) is int and x
                   for c, x in n.items())
        assert math.gcd(d, *n.values()) == 1


def assert_stored_rows_primitive(sysm):
    assert sorted(sysm.pivots) == sorted(sysm.pivot_rows)
    for piv, (p, tail, rhs, _) in sysm.pivot_rows.items():
        assert type(p) is int and p > 0 and type(rhs) is int
        assert all(type(c) is int and c > piv and type(x) is int and x
                   for c, x in tail)
        assert math.gcd(p, rhs, *(x for _, x in tail)) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_dense_wrappers_match_reference(matrix):
    ncols, rows = matrix
    assert exact(linalg.rref(rows)) == exact(reference_rref(rows))
    assert linalg.rank(rows) == len(reference_rref(rows)[0])
    basis = linalg.kernel_basis(sparse(rows), ncols)
    assert exact(fraction_vectors(basis, ncols)) == \
        exact(reference_kernel(rows, ncols))
    assert_integer_kernel(basis, sparse(rows), reference_rref(rows)[1],
                          ncols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(programs())
def test_incremental_system_matches_solve(program):
    ncols, ops = program
    sysm = linalg.IncrementalSystem(ncols)
    rows, rhs = [], []     # the rows the system holds, dense
    marks = []             # (checkpoint, rows held, solution) per checkpoint
    for op in ops:
        if op[0] == "push":
            _, row, b = op
            consistent = reference_solve(rows + [row], rhs + [b],
                                         ncols) is not None
            assert sysm.push(*scaled(row, b)) == consistent
            if consistent:
                rows.append(row)
                rhs.append(b)
        elif op[0] == "checkpoint":
            marks.append((len(sysm.pivots), len(rows), solution(sysm)))
        elif marks:
            mark, held, before = marks.pop()
            sysm.rollback(mark)
            del rows[held:], rhs[held:]
            assert exact(solution(sysm)) == exact(before)
        # the same pivots as the reduced echelon form, free columns at 0
        assert exact(solution(sysm)) == \
            exact(reference_solve(rows, rhs, ncols))
        assert_stored_rows_primitive(sysm)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(programs())
def test_solution_matches_back_substitution(program):
    # after every push and rollback, reading the solution off the affine
    # reduced form agrees with substituting back through the stored rows
    ncols, ops = program
    sysm = linalg.IncrementalSystem(ncols)
    marks = []
    for op in ops:
        if op[0] == "push":
            sysm.push(*scaled(op[1], op[2]))
        elif op[0] == "checkpoint":
            marks.append(len(sysm.pivots))
        elif marks:
            sysm.rollback(marks.pop())
        assert exact(solution(sysm)) == exact(back_substitution(sysm))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(programs(), st.integers(0, 5))
def test_reduced_matches_rref(program, first):
    # after every step, the reduced form from column ``first`` on is the
    # part of the reduced echelon form of the held rows, augmented by the
    # column -b at ``ncols``, pivoting there
    ncols, ops = program
    sysm = linalg.IncrementalSystem(ncols)
    rows = []              # the rows the system holds, dense and augmented
    marks = []
    for op in ops:
        if op[0] == "push":
            if sysm.push(*scaled(op[1], op[2])):
                rows.append(op[1] + [-op[2]])
        elif op[0] == "checkpoint":
            marks.append((len(sysm.pivots), len(rows)))
        elif marks:
            mark, held = marks.pop()
            sysm.rollback(mark)
            del rows[held:]
        red, pivots = reference_rref(rows)
        reduced = sysm.reduced(first)
        assert exact(fraction_rows(reduced)) == exact({
            p: {c: x for c, x in enumerate(row) if c > p and x}
            for row, p in zip(red, pivots) if p >= first})
        kernel = linalg.reduced_kernel(reduced, ncols, first)
        assert exact(fraction_vectors(kernel, ncols - first)) == exact([
            vec[first:] for vec in reference_kernel(
                [row[:ncols] for row, p in zip(red, pivots) if p >= first],
                ncols)
            if not any(vec[:first])])
        assert_reduced_rows_primitive(reduced)
        assert_integer_kernel(kernel, [
            ((p, d), *((c, x) for c, x in n.items() if c < ncols))
            for p, (d, n) in reduced.items()], reduced, ncols, first)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(programs(), st.integers(0, 5), st.integers(0, 25), st.booleans())
def test_trail_folds_to_reduced(program, first, start, every):
    # a trail kept from step ``start`` on, read after every step or only
    # now and then, folds to the reduced form computed afresh: rows stored
    # before it, rows rolled back below its snapshots and rows pushed
    # again in their place
    ncols, ops = program
    sysm = linalg.IncrementalSystem(ncols)
    trail, marks = [], []
    for i, op in enumerate(ops):
        if op[0] == "push":
            sysm.push(*scaled(op[1], op[2]))
        elif op[0] == "checkpoint":
            marks.append(len(sysm.pivots))
        elif marks:
            sysm.rollback(marks.pop())
        if i >= start and (every or i % 3 == 0):
            assert sysm.reduced(first, trail) == sysm.reduced(first)
            assert len(trail) == len(sysm.pivots)


@st.composite
def sparse_programs(draw):
    """Pushes of sparse integer rows as ``push`` takes them, 0-4 terms on
    distinct columns in sorted or drawn order, under one tet's tag each,
    and rollbacks to random marks."""
    ncols = draw(st.integers(1, 6))
    terms = st.lists(st.tuples(st.integers(0, ncols - 1),
                               st.sampled_from([1, -1, 2, -2, 3, 5])),
                     max_size=4, unique_by=lambda t: t[0])
    push = st.tuples(st.just("push"), st.one_of(terms, terms.map(sorted)),
                     st.sampled_from([0, 0, 1, -1, 2, -3]),
                     st.integers(0, 7).map(lambda i: 1 << i))
    rollback = st.tuples(st.just("rollback"), st.integers(0, 8))
    return ncols, draw(st.lists(st.one_of(push, push, push, rollback),
                                max_size=30))


def stored_rows(sysm):
    """The stored rows of ``sysm``, each tail as a set."""
    return {piv: (p, set(tail), rb, mask)
            for piv, (p, tail, rb, mask) in sysm.pivot_rows.items()}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_programs())
def test_push_matches_the_core(program):
    # a row of at most two terms is reduced in locals until a pivot row
    # with a longer tail hands it to the core; the returns, conflicts,
    # pivots and stored rows are those of the core alone
    ncols, ops = program
    sysm, ref = linalg.IncrementalSystem(ncols), linalg.IncrementalSystem(ncols)
    for op in ops:
        if op[0] == "push":
            _, row, b, tag = op
            ok = sysm.push(row, b, tag)
            assert ok == reference_eliminate(ref, row, b, tag)
            if not ok:
                assert sysm.conflict == ref.conflict
        else:
            mark = op[1] % (len(ref.pivots) + 1)
            sysm.rollback(mark)
            ref.rollback(mark)
        assert sysm.pivots == ref.pivots
        assert stored_rows(sysm) == stored_rows(ref)


def test_wrappers_do_not_count_as_pushes(monkeypatch):
    # the dense wrappers share the core below ``push``, so that a wrapped
    # ``push`` counts only the rows the searches push
    calls = []
    push = linalg.IncrementalSystem.push

    def counted_push(self, row, b, tag=0):
        calls.append(row)
        return push(self, row, b, tag)

    monkeypatch.setattr(linalg.IncrementalSystem, "push", counted_push)
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
    linalg.rref(rows)
    linalg.kernel_basis(sparse(rows), 3)
    assert calls == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(-3, 3)),
                max_size=12), st.randoms(use_true_random=False))
def test_row_matches_dense_sum(terms, rng):
    # few columns, so they repeat; negated copies of some terms cancel
    terms = terms + [(c, -x) for c, x in terms if rng.random() < 0.3]
    rng.shuffle(terms)
    dense = [0] * 7
    for c, x in terms:
        dense[c] += x
    row = linalg.row(terms)
    assert type(row) is tuple
    assert row == tuple((c, x) for c, x in enumerate(dense) if x)
    assert linalg.row(reversed(terms)) == row


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.tuples(st.integers(0, 6), st.integers(-3, 3)), max_size=10),
    st.lists(st.tuples(st.integers(-50, 50), st.integers(-3, 3)),
             max_size=8, unique_by=lambda t: t[0])),
    st.randoms(use_true_random=False))
def test_row_matches_merge_always(terms, rng):
    # rows with repeated columns, with sums that cancel to 0, with no
    # column repeated (with or without a 0 term) and empty: the same
    # tuple as the builder that merged neighbours on every row
    terms = terms + [(c, -x) for c, x in terms if rng.random() < 0.2]
    rng.shuffle(terms)
    row = linalg.row(terms)
    assert type(row) is tuple and row == reference_row(terms)
    assert linalg.row(iter(terms)) == row
    assert all(type(x) is int for _, x in row)


def test_row_of_no_terms():
    assert linalg.row([]) == linalg.row(iter(())) == reference_row([]) == ()


def test_code_line_count():
    # one elimination core: a second, dense one would not fit; the row
    # builder moved here from cone3, a mark is ``len(pivots)``, and
    # ``reduced()`` is the one read-out, with no back-substitution;
    # ``reduced_kernel`` indexes the rows by column in one pass; 4 more
    # lines sum a row's terms in a dict, only where a column repeats; 32
    # more are the path in ``push``, and the module docstring's line on it,
    # that steps a row of at most two terms through the core's elimination
    # in locals until a pivot row with a longer tail hands it to the core:
    # on the four off-diagonal pairs of the cone-member benchmark, 47,050
    # of 62,096 pushes never reach the core
    assert code_lines("linalg") <= 179
