"""Host-speed probe: a fixed exact computation that calls no isocone code.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 1.8x, in bursts under a second long and in phases of seconds to
minutes, with CPU time tracking wall time.  Five runs of the same code in
a row read 42, 38, 36, 30 and 31 items per second on cone-sweep while
this probe slowed from 11 to 17 ms.  Such changes move every wall-clock
figure of a run together.

``run.py`` therefore takes a probe ``point()`` before the first query and
after every query, and reports each time as ``scaled()``: the wall time
times ``REFERENCE_SECONDS`` over the median of the probe samples of the
two points around it.  That is the time the query would have taken on a
host where a sample takes ``REFERENCE_SECONDS``.  The probe does exact
rational elimination, the kind of work that dominates isocone's queries,
so both slow down alike.  It calls nothing in ``isocone``, so a change to
the program does not move it, and a slower program still reads slower.
"""

import statistics
from fractions import Fraction
from time import perf_counter

# Median seconds of one sample() on the host that defined the benchmark
# (Python 3.11.7, 2 vCPUs of an Intel Xeon under KVM), in a quiet phase.
REFERENCE_SECONDS = 0.0105

SIZE = 12
REPEATS = 3
SAMPLES_PER_POINT = 3


def _determinant(n):
    """Determinant of a fixed n x n rational matrix by elimination."""
    rows = [[Fraction(1, i + j + 1) + (i * j) % 5 for j in range(n)]
            for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        det *= pivot
        for r in range(c + 1, n):
            f = rows[r][c] / pivot
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


EXPECTED = _determinant(SIZE)


def sample():
    """Seconds for REPEATS fixed eliminations, checked against EXPECTED."""
    start = perf_counter()
    for _ in range(REPEATS):
        det = _determinant(SIZE)
    elapsed = perf_counter() - start
    if det != EXPECTED:
        raise RuntimeError("host-speed probe computed a wrong determinant")
    return elapsed


def point():
    """The samples of one probe point."""
    return [sample() for _ in range(SAMPLES_PER_POINT)]


def scaled(seconds, before, after):
    """``seconds`` at the reference host speed, from the probe points
    taken just before and just after them."""
    return seconds * REFERENCE_SECONDS / statistics.median(before + after)
