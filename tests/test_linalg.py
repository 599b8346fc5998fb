from fractions import Fraction

from hypothesis import given, settings, strategies as st

from isocone import linalg

# small entries with many zeros, so that dependent, redundant and
# contradicting rows are all common
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def programs(draw):
    ncols = draw(st.integers(1, 5))
    push = st.tuples(st.just("push"),
                     st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                     st.integers(-2, 2))
    ops = draw(st.lists(st.one_of(push, st.just(("checkpoint",)),
                                  st.just(("rollback",))), max_size=25))
    return ncols, ops


def sparse(row):
    return [(c, x) for c, x in enumerate(row) if x]


def expected_solution(rows, rhs, ncols):
    return linalg.solve(rows, rhs) if rows else [linalg.ZERO] * ncols


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
            consistent = linalg.solve(rows + [row], rhs + [b]) is not None
            assert sysm.push(sparse(row), b) == consistent
            if consistent:
                rows.append(row)
                rhs.append(b)
        elif op[0] == "checkpoint":
            marks.append((sysm.checkpoint(), len(rows), sysm.solution()))
        elif marks:
            mark, held, before = marks.pop()
            sysm.rollback(mark)
            del rows[held:], rhs[held:]
            assert sysm.solution() == before
        # the same pivots as the reduced echelon form, free columns at 0
        assert sysm.solution() == expected_solution(rows, rhs, ncols)



@settings(max_examples=300, deadline=None, derandomize=True)
@given(programs(), st.integers(0, 5))
def test_reduced_matches_rref(program, first):
    # after every step, the reduced form from column ``first`` on is the
    # part of the reduced echelon form of the held rows pivoting there
    ncols, ops = program
    sysm = linalg.IncrementalSystem(ncols)
    rows = []
    marks = []
    for op in ops:
        if op[0] == "push":
            if sysm.push(sparse(op[1]), op[2]):
                rows.append(op[1])
        elif op[0] == "checkpoint":
            marks.append((sysm.checkpoint(), len(rows)))
        elif marks:
            mark, held = marks.pop()
            sysm.rollback(mark)
            del rows[held:]
        red, pivots = linalg.rref(rows)
        assert sysm.reduced(first) == {
            p: {c: x for c, x in enumerate(row) if c > p and x}
            for row, p in zip(red, pivots) if p >= first}
        kernel = linalg.reduced_kernel(sysm.reduced(first), ncols, first)
        assert kernel == [vec[first:] for vec in linalg.kernel_basis(
            [row for row, p in zip(red, pivots) if p >= first], ncols)
            if not any(vec[:first])]
