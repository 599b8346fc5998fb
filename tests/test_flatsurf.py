import contextlib
import heapq
import importlib
import io as _io
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from isocone import flatsurf, io, linalg
from isocone.homology import SurfaceHomology
from isocone.cli import _fixture_text, run
from isocone.flatsurf import (
    FlatSurface, QC, FlatSurfaceError, NeedsRotationError,
    square_torus, hex_torus, lshape_h2, pillowcase,
    delaunay, is_delaunay, PeriodTangent, tangent_basis, random_tangent,
    omega_thurston, omega_hessian, omega_homological,
    kahler_pairing_numeric, orientation_double_cover, lift_tangent,
)
from test_linalg import reference_kernel
from util import (code_lines, fraction_constructions, height_derivative,
                  reference_kahler)


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
BUNDLED = (square_torus, hex_torus, lshape_h2, pillowcase)


def _grid_torus(monkeypatch, n):
    """The benchmark's n x n grid torus (``perfbench/surfaces.py``)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("surfaces").grid_torus(n)


def _quad(s, d):
    return flatsurf._edge_quad(s.triangles, s._vec, s.glue, s.comb.locate, d)


def _as_qc(p, den):
    """An integer pair over ``den`` as a QC."""
    return QC(Fraction(p[0], den), Fraction(p[1], den))


def _int_points(points):
    """QC points as integer pairs over the lcm of their denominators."""
    L = math.lcm(*[q.denominator for P in points for q in (P.re, P.im)])
    return [(int(P.re * L), int(P.im * L)) for P in points]


def _reference_edge_quad(s, d):
    """The quad around d by development: the corners of both triangles in
    their own charts, and the partner's far corner carried into d's chart
    by psi(z) = mu * z + tau, which maps the tail of the partner edge to
    B."""
    def corners(ds):
        p1 = s.vectors[ds[0]]
        return [QC(0), p1, p1 + s.vectors[ds[1]]]

    t1, i = s.comb.locate(d)
    t2, j = s.comb.locate(s.glue[d])
    pos1 = corners(s.triangles[t1])
    A, B, C = pos1[i], pos1[(i + 1) % 3], pos1[(i + 2) % 3]
    mu = 1 if s.signs[d] == "neg" else -1
    pos2 = corners(s.triangles[t2])
    tau = B - mu * pos2[j]
    D = mu * pos2[(j + 2) % 3] + tau
    return A, B, C, D, (t1, i, t2, j, mu)


def _reference_flip(surface, d):
    """Flip the undirected edge of d by rebuilding the whole surface."""
    A, B, C, D, (t1, i, t2, j, mu) = _reference_edge_quad(surface, d)
    p = surface.glue[d]
    ds1 = surface.triangles[t1]
    ds2 = surface.triangles[t2]
    e1, e2 = ds1[(i + 1) % 3], ds1[(i + 2) % 3]
    f1, f2 = ds2[(j + 1) % 3], ds2[(j + 2) % 3]
    triangles = {t: v for t, v in surface.triangles.items()
                 if t not in (t1, t2)}
    vectors = dict(surface.vectors)
    signs = dict(surface.signs)
    vectors[f1] = mu * surface.vectors[f1]
    vectors[f2] = mu * surface.vectors[f2]
    vectors[d] = D - C
    vectors[p] = C - D
    triangles[t1] = (f1, p, e2)
    triangles[t2] = (f2, e1, d)
    signs[d] = signs[p] = "neg"
    for x in (e1, e2, f1, f2):
        y = surface.glue[x]
        if vectors[y] == -vectors[x]:
            signs[x] = signs[y] = "neg"
        elif vectors[y] == vectors[x]:
            signs[x] = signs[y] = "pos"
        else:
            raise AssertionError("flip broke a gluing")
    flipped = FlatSurface(surface.kind, triangles, vectors, surface.glue)
    assert list(flipped.signs.items()) == list(signs.items())
    return flipped


def _reference_delaunay(surface):
    """Rescan every edge in repr order, flip the first strictly illegal one
    and start over, until none is left."""
    s = surface
    while True:
        for E in sorted(s.comb.edge_classes, key=repr):
            A, B, C, D, _ = _reference_edge_quad(s, E)
            if _reference_incircle_strict(A, B, C, D):
                s = _reference_flip(s, E)
                break
        else:
            return s


def _reference_adapted(surface):
    """Build the rotated surface of every candidate until one has a dual
    track: 1, i, 1 again, then p+qi by n = p+q with gcd(p, q) = 1 and p
    ascending."""
    candidates = [QC(1, 0)]
    for n in range(1, 12):
        for p in range(n + 1):
            if math.gcd(p, n - p) == 1:
                candidates.append(QC(p, n - p))
    for c in candidates:
        s = FlatSurface(surface.kind, surface.triangles,
                        {d: c * v for d, v in surface.vectors.items()},
                        surface.glue)
        try:
            s.dual_track()
        except NeedsRotationError:
            continue
        return s, c
    raise NeedsRotationError("no adapted rotation among the candidates")


def _sheared_surfaces(monkeypatch):
    """The bundled surfaces and their shears, and sheared grid tori 2-6."""
    for maker in BUNDLED:
        for sh in (0, Fraction(5, 2), Fraction(-7, 3), Fraction(13, 4), -9):
            yield maker().shear(sh)
    for n in range(2, 7):
        grid = _grid_torus(monkeypatch, n)
        for sh in (Fraction(3, 2), Fraction(9, 7), Fraction(-5, 3)):
            yield grid.shear(sh)


def _renamed(surface, rng):
    """The same flat surface under fresh edge and triangle names: triangles
    in a random order, each triple rotated to start at a random slot."""
    edges = list(surface.vectors)
    new = {d: f"e{k}" for d, k in
           zip(edges, rng.sample(range(len(edges)), len(edges)))}
    tris = list(surface.triangles)
    rng.shuffle(tris)
    triangles = {}
    for t, k in zip(tris, rng.sample(range(len(tris)), len(tris))):
        ds = [new[d] for d in surface.triangles[t]]
        r = rng.randrange(3)
        triangles[f"t{k}"] = tuple(ds[r:] + ds[:r])
    return FlatSurface(surface.kind, triangles,
                       {new[d]: v for d, v in surface.vectors.items()},
                       {new[d]: new[p] for d, p in surface.glue.items()})


def _triangle_shapes(surface):
    """Sorted triangles as edge-vector triples up to cyclic rotation, and up
    to sign on half-translation surfaces, where each triangle's chart is
    fixed only up to sign."""
    signs = (1, -1) if surface.kind == "half-translation" else (1,)
    shapes = []
    for ds in surface.triangles.values():
        vs = [surface.vectors[d] for d in ds]
        shapes.append(min(tuple((m * v.re, m * v.im) for v in vs[r:] + vs[:r])
                          for r in range(3) for m in signs))
    return sorted(shapes)


def _assert_same_surface(got, want):
    assert io.serialize_flatsurface(got) == io.serialize_flatsurface(want)
    assert list(got.triangles.items()) == list(want.triangles.items())
    assert list(got.vectors.items()) == list(want.vectors.items())
    assert list(got.signs.items()) == list(want.signs.items())


def _reference_random_tangent(surface, rng, lo=-2, hi=2, maxden=2):
    """Sum of cr * b + ci * (i * b) over the tangent basis, draws in order,
    taken in QC arithmetic."""
    delta = {d: QC(0) for d in surface.vectors}
    for b in tangent_basis(surface):
        cr = Fraction(rng.randint(lo, hi), rng.randint(1, maxden))
        ci = Fraction(rng.randint(lo, hi), rng.randint(1, maxden))
        for d, v in b.delta.items():
            delta[d] = delta[d] + v * cr + QC(0, 1) * v * ci
    return PeriodTangent(surface, delta)


def _reference_tangent_rows(surface):
    """The closure rows of ``tangent_coefficient_rows`` as dense
    ``Fraction`` rows."""
    classes = surface.comb.edge_classes
    rows = []
    for t in sorted(surface.triangles, key=repr):
        row = [Fraction(0)] * len(classes)
        for d in surface.triangles[t]:
            E = surface.comb.edge_class[d]
            if d == E:
                row[classes.index(E)] += 1
            else:
                row[classes.index(E)] += 1 if surface.signs[d] == "pos" else -1
        rows.append(row)
    return rows


def _tangent_surfaces(monkeypatch):
    """The sheared surfaces, their Delaunay triangulations and the
    pillowcase double cover."""
    surfaces = list(_sheared_surfaces(monkeypatch))
    surfaces += [delaunay(s) for s in surfaces]
    return surfaces + [orientation_double_cover(pillowcase())]


def _reference_incircle_strict(A, B, C, D):
    """The circle test in ``Fraction`` arithmetic, row by row."""
    return _incircle_det(A, B, C, D) > 0


def _incircle_det(A, B, C, D):
    """The circle determinant of ccw ABC and D: positive inside, zero on
    the circle."""
    rows = []
    for P in (A, B, C):
        x = P.re - D.re
        y = P.im - D.im
        rows.append([x, y, x * x + y * y])
    return (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
           - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
           + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))


# -- the retired Fraction arithmetic, kept as oracles ------------------------------
#
# Before the flat-surface layer held its values as integer pairs over one
# denominator, every one of these computations ran on QC pairs of
# Fractions.  The functions below are that code, reading the public
# ``vectors`` and ``delta`` views and building every result through the
# public constructors.


def _fraction_cross(u, v):
    return u.re * v.im - u.im * v.re


def _fraction_total_area(surface):
    area = Fraction(0)
    for t in sorted(surface.triangles, key=repr):
        d0, d1, _ = surface.triangles[t]
        area += _fraction_cross(surface.vectors[d0], surface.vectors[d1]) / 2
    return area


def _fraction_cone_angles(surface):
    angles = {}
    for v, cycle in surface.comb.corner_cycles.items():
        k, sigma = 0, 1
        t, i = cycle[0]
        ref = surface.vectors[surface.triangles[t][i]]
        for (ct, ci) in cycle:
            ds = surface.triangles[ct]
            P = sigma * surface.vectors[ds[ci]]
            Q = sigma * (-surface.vectors[ds[(ci + 2) % 3]])
            assert _fraction_cross(P, Q) > 0
            for L in (ref, -ref):
                if _fraction_cross(Q, L) == 0 and Q.re * L.re + Q.im * L.im > 0:
                    k += 1
                elif _fraction_cross(P, L) > 0 and _fraction_cross(L, Q) > 0:
                    k += 1
            sigma *= 1 if surface.signs[ds[(ci + 2) % 3]] == "neg" else -1
        angles[v] = k
    return angles


def _fraction_heights(surface):
    out = {}
    for E in surface.comb.edge_classes:
        v = surface.vectors[E]
        if v.im == 0:
            raise NeedsRotationError(f"horizontal edge {E!r}")
        out[E] = abs(v.im)
    return out


def _fraction_edge_quad(triangles, vectors, glue, signs, locate, d):
    t1, i = locate(d)
    t2, j = locate(glue[d])
    mu = 1 if signs[d] == "neg" else -1
    A = -vectors[d]
    C = vectors[triangles[t1][(i + 1) % 3]]
    D = -mu * vectors[triangles[t2][(j + 2) % 3]]
    return A, QC(0), C, D, (t1, i, t2, j, mu)


def _fraction_delaunay(surface):
    """The heap-driven flip loop of ``delaunay`` in QC arithmetic."""
    glue = surface.glue
    classes = surface.comb.edge_classes
    edge_class = surface.comb.edge_class
    rank = {E: k for k, E in enumerate(classes)}
    triangles = dict(surface.triangles)
    vectors = dict(surface.vectors)
    signs = dict(surface.signs)
    owner = {d: (t, i) for t, ds in triangles.items()
             for i, d in enumerate(ds)}
    heap = list(range(len(classes)))
    queued = [True] * len(classes)
    while heap:
        k = heapq.heappop(heap)
        queued[k] = False
        d = classes[k]
        A, B, C, D, (t1, i, t2, j, mu) = _fraction_edge_quad(
            triangles, vectors, glue, signs, owner.__getitem__, d)
        if not _reference_incircle_strict(A, B, C, D):
            continue
        p = glue[d]
        ds1 = triangles.pop(t1)
        ds2 = triangles.pop(t2)
        e1, e2 = ds1[(i + 1) % 3], ds1[(i + 2) % 3]
        f1, f2 = ds2[(j + 1) % 3], ds2[(j + 2) % 3]
        vectors[f1] = mu * vectors[f1]
        vectors[f2] = mu * vectors[f2]
        vectors[d] = D - C
        vectors[p] = C - D
        triangles[t1] = (f1, p, e2)
        triangles[t2] = (f2, e1, d)
        signs[d] = signs[p] = "neg"
        for x in (e1, e2, f1, f2):
            y = glue[x]
            if vectors[y] == -vectors[x]:
                signs[x] = signs[y] = "neg"
            elif vectors[y] == vectors[x]:
                signs[x] = signs[y] = "pos"
            else:
                raise AssertionError("flip broke a gluing")
        for t in (t1, t2):
            for slot, x in enumerate(triangles[t]):
                owner[x] = (t, slot)
                r = rank[edge_class[x]]
                if not queued[r]:
                    queued[r] = True
                    heapq.heappush(heap, r)
    result = FlatSurface(surface.kind, triangles, vectors, glue)
    assert list(result.signs.items()) == list(signs.items())
    return result


def _fraction_random_tangent(surface, rng):
    """``random_tangent`` with one Fraction per class value, expanded to
    the directed edges in QC arithmetic."""
    classes = surface.comb.edge_classes
    kernel = [[Fraction(vec.get(k, 0), L) for k in range(len(classes))]
              for L, vec in surface.tangent_kernel]
    L = math.lcm(*[x.denominator for vec in kernel for x in vec])
    re, im = [0] * len(classes), [0] * len(classes)
    for vec in kernel:
        cr = rng.randint(-2, 2) * (2 // rng.randint(1, 2))
        ci = rng.randint(-2, 2) * (2 // rng.randint(1, 2))
        for k, x in enumerate(vec):
            if x:
                n = x.numerator * (L // x.denominator)
                re[k] += cr * n
                im[k] += ci * n
    values = {E: QC(Fraction(r, 2 * L), Fraction(i, 2 * L))
              for E, r, i in zip(classes, re, im)}
    delta = {}
    for d in surface.vectors:
        E = surface.comb.edge_class[d]
        flip = d != E and surface.signs[d] == "neg"
        delta[d] = -values[E] if flip else values[E]
    return PeriodTangent(surface, delta)


def _fraction_height_derivative(surface, tangent):
    out = {}
    for E in surface.comb.edge_classes:
        v = surface.vectors[E]
        if v.im == 0:
            raise NeedsRotationError(f"horizontal edge {E!r}")
        out[E] = (1 if v.im > 0 else -1) * tangent.delta[E].im
    return out


def _fraction_omega_thurston(surface, t1, t2):
    track = surface.dual_track()
    return track.thurston_form(_fraction_height_derivative(surface, t1),
                               _fraction_height_derivative(surface, t2))


def _fraction_omega_hessian(surface, t1, t2):
    total = Fraction(0)
    for t in sorted(surface.triangles, key=repr):
        d0, d1, _ = surface.triangles[t]
        u1, v1 = t1.delta[d0], t1.delta[d1]
        u2, v2 = t2.delta[d0], t2.delta[d1]
        total += Fraction(u1.im * v2.im - v1.im * u2.im, 2)
    return total


def _fraction_double_cover(surface):
    triangles, vectors, glu, signs = {}, {}, {}, {}
    for t, ds in surface.triangles.items():
        for sheet in (0, 1):
            triangles[(t, sheet)] = tuple((d, sheet) for d in ds)
    for d, v in surface.vectors.items():
        vectors[(d, 0)] = v
        vectors[(d, 1)] = -v
    for d, d2 in surface.glue.items():
        if surface.signs[d] == "neg":
            pairs = [((d, 0), (d2, 0)), ((d, 1), (d2, 1))]
        else:
            pairs = [((d, 0), (d2, 1)), ((d, 1), (d2, 0))]
        for a, b in pairs:
            glu[a] = b
            glu[b] = a
            signs[a] = signs[b] = "neg"
    cover = FlatSurface("translation", triangles, vectors, glu)
    assert list(cover.signs.items()) == list(signs.items())
    return cover


def _fraction_lift(cover, tangent):
    return PeriodTangent(cover, {(d, sheet): -tangent.delta[d] if sheet
                                 else tangent.delta[d]
                                 for (d, sheet) in cover.vectors})


def _fraction_omega_homological(surface, t1, t2):
    if surface.kind != "translation":
        cover = _fraction_double_cover(surface)
        return _fraction_omega_homological(
            cover, _fraction_lift(cover, t1), _fraction_lift(cover, t2)) / 2
    hom = SurfaceHomology(*surface.comb.skeleton_ribbon())
    alpha = {E: t1.delta[E].im for E in surface.comb.edge_classes}
    beta = {E: t2.delta[E].im for E in surface.comb.edge_classes}
    return hom.pair_cocycles(alpha, beta)


def _fraction_kahler(surface, t1, t2):
    """The exact value of ``kahler_pairing_numeric`` as a QC: per triangle
    (i/4)(p0 conj(q1) - p1 conj(q0)) on the ``delta`` views, summed on the
    orientation double cover with the factor 1/2 on a half-translation
    surface."""
    if surface.kind != "translation":
        cover = _fraction_double_cover(surface)
        return _fraction_kahler(cover, _fraction_lift(cover, t1),
                                _fraction_lift(cover, t2)) * Fraction(1, 2)
    total = QC(0)
    for d0, d1, _ in surface.triangles.values():
        (p0, p1), (q0, q1) = ((t.delta[d0], t.delta[d1]) for t in (t1, t2))
        total = total + p0 * QC(q1.re, -q1.im) - p1 * QC(q0.re, -q0.im)
    return QC(0, Fraction(1, 4)) * total


def _term_scale(surface, t1, t2):
    """The sum over triangles of (|p0| |q1| + |p1| |q0|) / 4, in floats: the
    size of the terms that ``kahler_pairing_numeric`` adds up."""
    a, b = t1.delta, t2.delta
    return sum(abs(_rounded(a[d0])) * abs(_rounded(b[d1]))
               + abs(_rounded(a[d1])) * abs(_rounded(b[d0]))
               for d0, d1, _ in surface.triangles.values()) / 4


def _rounded(z):
    """A QC rounded once, part by part, to a complex float."""
    return complex(float(z.re), float(z.im))


# rationals with unrelated denominators, so the lcm in the circle test
# is not a power of one prime
_mixed = st.builds(Fraction, st.integers(-400, 400),
                   st.sampled_from([1, 2, 3, 5, 7, 12, 25, 49, 60, 97, 1001]))
_rational_point = st.builds(QC, _mixed, _mixed)


def _unit_circle_point(m, n):
    """The rational point ((m^2 - n^2) + 2mn i) / (m^2 + n^2) of the unit
    circle, from a Pythagorean triple."""
    c = m * m + n * n
    return QC(Fraction(m * m - n * n, c), Fraction(2 * m * n, c))


class TestValidate:
    def test_square_torus(self):
        v = square_torus().validate()
        assert v["genus"] == 1 and v["symbol"] == () and v["epsilon"] == 1
        assert v["area"] == 1

    def test_lshape(self):
        v = lshape_h2().validate()
        assert v["genus"] == 2 and v["symbol"] == (4,) and v["epsilon"] == 1
        assert v["area"] == 3
        assert sorted(v["angles"].values()) == [6]   # one 6*pi cone point

    def test_hex_torus(self):
        v = hex_torus().validate()
        assert v["genus"] == 1 and v["symbol"] == ()
        assert sorted(v["angles"].values()) == [2, 2]

    def test_pillowcase(self):
        v = pillowcase().validate()
        assert v["genus"] == 0 and v["epsilon"] == -1
        assert v["symbol"] == (-1, -1, -1, -1)

    def test_closure_violation(self):
        s = square_torus()
        bad = dict(s.vectors)
        bad["a"] = QC(2, 0)    # triangle sums to (1, 0) instead of zero
        with pytest.raises(FlatSurfaceError):
            FlatSurface("translation", s.triangles, bad, s.glue)

    def test_gluing_sign_mismatch(self):
        s = square_torus()
        bad = dict(s.vectors)
        bad["A"] = QC(1, 0)   # should be the negation of a
        with pytest.raises(FlatSurfaceError):
            FlatSurface("translation", s.triangles, bad, s.glue)

    def test_pos_gluing_rejected_on_translation(self):
        p = pillowcase()
        with pytest.raises(FlatSurfaceError):
            FlatSurface("translation", p.triangles, p.vectors, p.glue)

    def test_signs_read_off_vectors(self):
        # the folds of the pillowcase carry equal vectors on both sides, so
        # a build from the views alone makes them pos gluings
        p = pillowcase()
        again = FlatSurface(p.kind, p.triangles, p.vectors, p.glue)
        assert [d for d, s in again.signs.items() if s == "pos"] == \
            ["ul", "ll", "ur", "lr"]
        assert list(again.signs) == list(again.glue)


class TestArea:
    def test_fixture_areas(self):
        assert square_torus().total_area() == 1
        assert lshape_h2().total_area() == 3
        assert pillowcase().total_area() == 2

    def test_scaling_by_two(self):
        s = lshape_h2()
        assert s.rotate(QC(2, 0)).total_area() == 4 * s.total_area()


class TestDelaunay:
    def test_cocircular_torus_unchanged(self):
        s = square_torus()
        assert is_delaunay(s)
        d = delaunay(s)
        assert all(d.vectors[k] == s.vectors[k] for k in s.vectors)

    def test_fixed_point(self):
        d = delaunay(lshape_h2())
        d2 = delaunay(d)
        assert all(d2.vectors[k] == d.vectors[k] for k in d.vectors)

    def test_bad_diagonal_gets_flipped(self):
        s = lshape_h2().shear(3)
        assert not is_delaunay(s)
        d = delaunay(s)
        assert is_delaunay(d)

    def test_invariants_preserved_on_shears(self):
        rng = random.Random(70)
        base = lshape_h2()
        v0 = base.validate()
        for _ in range(12):
            sh = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            s = base.shear(sh)
            d = delaunay(s)
            assert is_delaunay(d)
            v = d.validate()
            assert v["area"] == v0["area"]
            assert v["symbol"] == v0["symbol"]
            assert v["genus"] == v0["genus"]
            assert d.kind == base.kind

    @pytest.mark.parametrize("maker", BUNDLED)
    def test_matches_reference_on_shears(self, maker):
        for sh in (0, Fraction(5, 2), Fraction(-7, 3), Fraction(13, 4), -9):
            s = maker().shear(sh)
            _assert_same_surface(delaunay(s), _reference_delaunay(s))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_reference_on_grid_tori(self, n, monkeypatch):
        grid = _grid_torus(monkeypatch, n)
        for sh in (Fraction(3, 2), Fraction(9, 7), Fraction(-5, 3)):
            s = grid.shear(sh)
            _assert_same_surface(delaunay(s), _reference_delaunay(s))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(maker=st.sampled_from(BUNDLED),
           entries=st.lists(st.fractions(-3, 3, max_denominator=4),
                            min_size=4, max_size=4))
    def test_matches_reference_under_matrices(self, maker, entries):
        a, b, c, d = entries
        assume(a * d - b * c > 0)
        s = maker().apply_matrix(a, b, c, d)
        _assert_same_surface(delaunay(s), _reference_delaunay(s))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_circle_tests_per_flip(self, n, monkeypatch):
        # a shear in (1, 2) needs two flips per grid square; a rescan after
        # every flip would test about E edges per flip instead of five
        grid = _grid_torus(monkeypatch, n)
        results = []
        incircle = flatsurf._incircle_strict

        def counted(*args):
            results.append(incircle(*args))
            return results[-1]

        monkeypatch.setattr(flatsurf, "_incircle_strict", counted)
        for sh in (Fraction(3, 2), Fraction(9, 7)):
            results.clear()
            delaunay(grid.shear(sh))
            flips = sum(results)
            assert flips == 2 * n * n
            assert len(results) <= 3 * n * n + 5 * flips

    def test_edge_quad_matches_development(self, monkeypatch):
        for s in _sheared_surfaces(monkeypatch):
            for E in s.comb.edge_classes:
                A, B, C, D, flip = _quad(s, E)
                rA, rB, rC, rD, rflip = _reference_edge_quad(s, E)
                assert flatsurf._incircle_strict(A, B, C, D) == \
                    _reference_incircle_strict(rA, rB, rC, rD)
                assert _as_qc((D[0] - C[0], D[1] - C[1]), s._den) == rD - rC
                assert flip == rflip

    def test_independent_of_names(self, monkeypatch):
        # where no edge of the result is cocircular the Delaunay
        # triangulation is unique, so the names cannot change it
        bases = [maker() for maker in BUNDLED]
        bases += [_grid_torus(monkeypatch, n) for n in (2, 3, 4)]

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(base=st.sampled_from(bases),
               shear=st.fractions(-3, 3, max_denominator=4),
               rng=st.randoms(use_true_random=False))
        def check(base, shear, rng):
            s = base.shear(shear)
            d = delaunay(s)
            assume(all(_incircle_det(*_reference_edge_quad(d, E)[:4]) != 0
                       for E in d.comb.edge_classes))
            assert _triangle_shapes(delaunay(_renamed(s, rng))) == \
                _triangle_shapes(d)

        check()

    def test_half_translation_delaunay(self):
        s = pillowcase().shear(Fraction(5, 2))
        d = delaunay(s)
        assert is_delaunay(d)
        assert d.validate()["symbol"] == (-1, -1, -1, -1)
        assert d.kind == "half-translation"


class TestCircleTestReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(points=st.lists(_rational_point, min_size=4, max_size=4))
    def test_matches_fraction_reference(self, points):
        assert flatsurf._incircle_strict(*_int_points(points)) == \
            _reference_incircle_strict(*points)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mn=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9))
                       .filter(lambda t: t != (0, 0)),
                       min_size=4, max_size=4),
           centre=_rational_point, radius=_mixed)
    def test_cocircular_points_are_legal(self, mn, centre, radius):
        assume(radius != 0)
        points = [centre + _unit_circle_point(m, n) * radius
                  for m, n in mn]
        assume(len(set(points)) == 4)
        assert not flatsurf._incircle_strict(*_int_points(points))
        assert not _reference_incircle_strict(*points)


class TestHeightsAndTrack:
    def test_heights_of_triangle(self):
        # vectors (1,1), (-2,1), (1,-2): heights 1, 1, 2
        tris = {"t": ("x", "y", "z"), "t2": ("X", "Y", "Z")}
        vecs = {"x": QC(1, 1), "y": QC(-2, 1), "z": QC(1, -2),
                "X": QC(-1, -1), "Y": QC(2, -1), "Z": QC(-1, 2)}
        glu = {"x": "X", "X": "x", "y": "Y", "Y": "y", "z": "Z", "Z": "z"}
        s = FlatSurface("translation", tris, vecs, glu)
        hs = s.heights()
        assert sorted(hs.values()) == [1, 1, 2]

    def test_horizontal_edge_rejected(self):
        with pytest.raises(NeedsRotationError):
            square_torus().heights()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(maker=st.sampled_from(BUNDLED), shear=_mixed, re=_mixed, im=_mixed,
           flip=st.booleans())
    def test_tallest_edge_is_unique(self, maker, shear, re, im, flip):
        # a closed triangle's imaginary parts sum to 0, so with none of
        # them 0 the largest height is the sum of the other two; c is
        # scaled to the integer pair the private helpers take
        c = _int_points([QC(re, im)])[0]
        assume(c != (0, 0))
        s = maker().shear(shear)
        if flip:
            s = delaunay(s)
        try:
            h = s._heights(c)
        except NeedsRotationError:
            assume(False)
        tallest = s._tallest(c)
        for t, ds in s.triangles.items():
            hs = sorted(h[s.comb.edge_class[d]] for d in ds)
            assert 0 < hs[0] <= hs[1] < hs[2] == hs[0] + hs[1]
            assert h[s.comb.edge_class[ds[tallest[t]]]] == hs[2]

    def test_rotation_by_i_swaps_re_im(self):
        s = lshape_h2().rotate(QC(2, 1))
        r = s.rotate(QC(0, 1))
        hr = r.heights()
        for E in s.comb.edge_classes:
            assert hr[E] == abs(s.vectors[E].re)

    def test_dual_track_switch_relations(self):
        s, _ = delaunay(lshape_h2()).adapted()
        track = s.dual_track()
        assert track.check_weight(s.heights())

    def test_one_zero_genus2_counts(self):
        s, _ = delaunay(lshape_h2()).adapted()
        track = s.dual_track()
        assert len(track.switches) == 6
        assert len(track.branches) == 9
        # connected orientable track: the switch equations have exactly one
        # dependency (the orientation coloring), so dim = E - V + 1
        assert len(track.weight_space_basis()) == 4

    def test_dimension_rule(self):
        # orientable connected tracks: E - V + 1; non-orientable: E - V
        s, _ = delaunay(square_torus()).adapted()
        tr = s.dual_track()
        assert len(tr.weight_space_basis()) == 3 - 2 + 1
        from isocone.fixtures import genus2_maximal_track
        mx, *_ = genus2_maximal_track()
        assert len(mx.weight_space_basis()) == 18 - 12

    def test_translation_track_orientable(self):
        s, _ = delaunay(lshape_h2()).adapted()
        track = s.dual_track()
        track.orientation()    # no NotOrientableError

    def test_cycle_pairing_on_torus_track(self):
        s, _ = delaunay(square_torus()).adapted()
        track = s.dual_track()
        rng = random.Random(71)
        basis = track.weight_space_basis()
        for _ in range(10):
            w1 = {e: Fraction(0) for e in track.branches}
            w2 = {e: Fraction(0) for e in track.branches}
            for vec in basis:
                c1 = Fraction(rng.randint(-4, 4))
                c2 = Fraction(rng.randint(-4, 4))
                for e, val in vec.items():
                    w1[e] += c1 * val
                    w2[e] += c2 * val
            assert track.cycle_pairing(w1, w2) == track.thurston_form(w1, w2)


class TestTangents:
    def test_scaling_tangent_derivative_is_heights(self):
        s, _ = delaunay(lshape_h2()).adapted()
        t = PeriodTangent.scaling(s)
        assert height_derivative(s, t) == s.heights()

    def test_i_scaling_derivative_is_signed_re(self):
        s, _ = delaunay(lshape_h2()).adapted()
        t = PeriodTangent.scaling(s).times_i()
        hd = height_derivative(s, t)
        for E in s.comb.edge_classes:
            v = s.vectors[E]
            sign = 1 if v.im > 0 else -1
            assert hd[E] == sign * v.re

    def test_linearized_switch_relations(self):
        s, _ = delaunay(lshape_h2()).adapted()
        track = s.dual_track()
        rng = random.Random(72)
        for _ in range(15):
            t = random_tangent(s, rng)
            assert track.check_weight(height_derivative(s, t))

    def test_invalid_tangent_rejected(self):
        s = square_torus()
        delta = {d: QC(0) for d in s.vectors}
        delta["a"] = QC(1)
        with pytest.raises(FlatSurfaceError):
            PeriodTangent(s, delta)

    @pytest.mark.parametrize("maker", BUNDLED)
    def test_random_tangent_matches_basis_formula(self, maker):
        s = maker()
        for seed in range(5):
            got, want = random.Random(seed), random.Random(seed)
            for _ in range(3):
                t = random_tangent(s, got)
                assert t.delta == _reference_random_tangent(s, want).delta
                assert list(t.delta) == list(s.vectors)

    @pytest.mark.parametrize("maker", BUNDLED)
    def test_symplectic_check_builds_one_kernel(self, maker, tmp_path,
                                                monkeypatch):
        path = tmp_path / "surface.txt"
        path.write_text(io.serialize_flatsurface(maker()))
        calls = []
        kernel_basis = linalg.kernel_basis

        def counted(*args):
            calls.append(args)
            return kernel_basis(*args)

        monkeypatch.setattr(linalg, "kernel_basis", counted)
        with contextlib.redirect_stdout(_io.StringIO()):
            assert run(["surface", "symplectic-check", "--input", str(path),
                        "--seed", "1", "--depth", "1"]) == 0
        assert len(calls) == 1

    def test_kernel_matches_fraction_rows(self, monkeypatch):
        for s in _tangent_surfaces(monkeypatch):
            rows, classes = flatsurf.tangent_coefficient_rows(s)
            want = _reference_tangent_rows(s)
            assert [[dict(row).get(k, 0) for k in range(len(classes))]
                    for row in rows] == want
            assert rows == [tuple(sorted(row)) for row in rows]
            assert {type(x) for row in rows for _, x in row} == {int}
            assert all(x for row in rows for _, x in row)
            kernel = s.tangent_kernel
            assert all(type(L) is int and L > 0 and {type(x) for x in
                       vec.values()} <= {int} for L, vec in kernel)
            assert [[Fraction(vec.get(k, 0), L) for k in range(len(classes))]
                    for L, vec in kernel] == reference_kernel(want,
                                                              len(classes))

    def test_random_tangent_matches_reference(self, monkeypatch):
        # these kernels are all integral: dividing the vectors by 2, 3, 4,
        # ... keeps a kernel basis and gives the common denominator work.
        # The reference sums the basis tangents in QC arithmetic, so grids
        # 4 to 6 are left out for time
        for k, s in enumerate(_tangent_surfaces(monkeypatch)):
            if len(s.triangles) > 18:
                continue
            scaled = FlatSurface(s.kind, s.triangles, s.vectors, s.glue)
            scaled.__dict__["tangent_kernel"] = [
                (L * m, vec) for m, (L, vec) in enumerate(s.tangent_kernel, 2)]
            for surface in (s, scaled):
                got, want = random.Random(k), random.Random(k)
                t = random_tangent(surface, got)
                assert t.delta == _reference_random_tangent(
                    surface, want).delta
                assert got.getstate() == want.getstate()

    def test_dimensions(self):
        # relative period dimension: E - F + 1 for translation surfaces
        for maker, dim in [(square_torus, 2), (hex_torus, 3), (lshape_h2, 4)]:
            assert len(tangent_basis(maker())) == dim


class TestPairings:
    @pytest.mark.parametrize("maker", [square_torus, hex_torus, lshape_h2])
    def test_three_routes_agree_translation(self, maker):
        s, _ = delaunay(maker()).adapted()
        rng = random.Random(73)
        for _ in range(12):
            t1 = random_tangent(s, rng)
            t2 = random_tangent(s, rng)
            a = omega_thurston(s, t1, t2)
            assert a == omega_hessian(s, t1, t2)
            assert a == omega_homological(s, t1, t2)

    def test_three_routes_agree_half_translation(self):
        s, _ = delaunay(pillowcase()).adapted()
        rng = random.Random(74)
        for _ in range(12):
            t1 = random_tangent(s, rng)
            t2 = random_tangent(s, rng)
            a = omega_thurston(s, t1, t2)
            assert a == omega_hessian(s, t1, t2)
            assert a == omega_homological(s, t1, t2)

    def test_antisymmetry_and_bilinearity(self):
        s, _ = delaunay(lshape_h2()).adapted()
        rng = random.Random(75)
        t1 = random_tangent(s, rng)
        t2 = random_tangent(s, rng)
        assert omega_thurston(s, t1, t1) == 0
        assert omega_hessian(s, t1, t1) == 0
        v = omega_thurston(s, t1, t2)
        assert omega_thurston(s, t2, t1) == -v
        t3 = PeriodTangent(s, {d: 3 * v for d, v in t1.delta.items()})
        assert omega_thurston(s, t3, t2) == 3 * v

    def test_scaling_pair_value_is_minus_area(self):
        for maker in (square_torus, hex_torus, lshape_h2):
            s, _ = delaunay(maker()).adapted()
            t = PeriodTangent.scaling(s)
            assert omega_hessian(s, t, t.times_i()) == -s.total_area()

    def test_metric_positivity_on_scaling(self):
        s, _ = delaunay(lshape_h2()).adapted()
        t = PeriodTangent.scaling(s)
        g = abs(omega_hessian(s, t, t.times_i()))
        assert g == s.total_area() > 0


class TestQuadratureOracle:
    def test_norm_of_base_point(self):
        # half the periods paired with themselves: a quarter of the area,
        # exactly, and no imaginary part
        for maker in BUNDLED:
            s, _ = delaunay(maker()).adapted()
            half = PeriodTangent(
                s, {d: v * Fraction(1, 2) for d, v in s.vectors.items()})
            assert _fraction_kahler(s, half, half) == QC(s.total_area() / 4)
            num = kahler_pairing_numeric(s, half, half)
            assert repr(num) == repr(complex(float(s.total_area() / 4)))

    def test_hermitian_diagonal_real(self):
        s, _ = delaunay(lshape_h2()).adapted()
        rng = random.Random(76)
        t = random_tangent(s, rng)
        assert _fraction_kahler(s, t, t).im == 0
        assert kahler_pairing_numeric(s, t, t).imag == 0

    def test_matches_exact_on_period_multiples(self):
        s, _ = delaunay(hex_torus()).adapted()
        t1 = PeriodTangent.scaling(s)
        t2 = t1.times_i()
        exact = omega_thurston(s, t1, t2)
        num = kahler_pairing_numeric(s, t1, t2)
        assert repr(num) == repr(complex(0, float(exact)))

    def test_exact_parts_are_the_three_pairings(self, monkeypatch):
        # on (psi, i psi) the exact imaginary part is each exact pairing and
        # the real part is 0; the printed value is them rounded once
        bases = [maker() for maker in BUNDLED]
        bases += [_grid_torus(monkeypatch, n) for n in (2, 3)]
        for base in bases:
            s, _ = delaunay(base.shear(Fraction(3, 2))).adapted()
            rng = random.Random(81)
            for psi in (PeriodTangent.scaling(s), random_tangent(s, rng),
                        random_tangent(s, rng)):
                ipsi = psi.times_i()
                exact = _fraction_kahler(s, psi, ipsi)
                assert exact.re == 0
                assert exact.im == omega_thurston(s, psi, ipsi) == \
                    omega_hessian(s, psi, ipsi) == \
                    omega_homological(s, psi, ipsi)
                assert repr(kahler_pairing_numeric(s, psi, ipsi)) == \
                    repr(_rounded(exact))

    def test_close_to_the_centroid_rule(self, monkeypatch):
        # the retired rule sums 4**depth samples of each triangle's constant
        # in floats.  Over 300 drawn cases (sheared grids n=2..6 and the
        # bundled surfaces, depths 0-3) the two differed by at most 5.4e-16
        # of the sizes of the terms, 2.1e-15 of the value; 1e-14 leaves room
        bases = [maker() for maker in BUNDLED]
        bases += [_grid_torus(monkeypatch, n) for n in (2, 3, 4, 5)]

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(base=st.sampled_from(bases),
               shear=st.fractions(-3, 3, max_denominator=7),
               seed=st.integers(0, 10 ** 6), depth=st.integers(0, 3))
        def check(base, shear, seed, depth):
            s = delaunay(base.shear(shear))
            rng = random.Random(seed)
            t1, t2 = random_tangent(s, rng), random_tangent(s, rng)
            scale = _term_scale(s, t1, t2)
            error = abs(kahler_pairing_numeric(s, t1, t2)
                        - reference_kahler(s, t1, t2, depth))
            assert error <= 1e-14 * scale

        check()


class TestSharedShapes:
    """Surfaces whose triangles repeat a shape, and the pillowcase read on
    its double cover: the exact value rounded once, within the bound of
    ``test_close_to_the_centroid_rule`` of the retired centroid rule."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sheared_grid_matches_per_triangle_reference(self, monkeypatch,
                                                         n):
        s, _ = delaunay(_grid_torus(monkeypatch, n).shear(
            Fraction(3, 2))).adapted()
        shapes = {(s._vec[ds[0]], s._vec[ds[1]])
                  for ds in s.triangles.values()}
        assert len(shapes) < len(s.triangles)
        rng = random.Random(n)
        t1, t2 = random_tangent(s, rng), random_tangent(s, rng)
        want = _rounded(_fraction_kahler(s, t1, t2))
        scale = _term_scale(s, t1, t2)
        got = kahler_pairing_numeric(s, t1, t2)
        assert repr(got) == repr(want)
        for depth in (0, 1, 3):
            assert abs(got - reference_kahler(s, t1, t2, depth)) \
                <= 1e-14 * scale

    def test_pillowcase_matches_reference_on_the_cover(self):
        s = pillowcase()
        rng = random.Random(79)
        t1, t2 = random_tangent(s, rng), random_tangent(s, rng)
        cover = orientation_double_cover(s)
        l1, l2 = lift_tangent(cover, t1), lift_tangent(cover, t2)
        want = _rounded(_fraction_kahler(s, t1, t2))
        scale = _term_scale(cover, l1, l2) / 2
        got = kahler_pairing_numeric(s, t1, t2)
        assert repr(got) == repr(want)
        for depth in (0, 1, 3):
            assert abs(got - reference_kahler(cover, l1, l2, depth) / 2.0) \
                <= 1e-14 * scale


def _sheet_swap(surface):
    """The sheet-swapping involution of the orientation double cover of
    ``surface``, on the directed edges ``(d, sheet)`` of the cover."""
    return {(d, s): (d, 1 - s) for d in surface.vectors for s in (0, 1)}


class TestDoubleCover:
    def test_translation_cover_disjoint(self):
        s = square_torus()
        cover = orientation_double_cover(s)
        assert len(cover.comb.components()) == 2
        assert cover.total_area() == 2 * s.total_area()

    def test_pillowcase_cover_is_torus(self):
        s = pillowcase()
        cover = orientation_double_cover(s)
        assert len(cover.comb.components()) == 1
        assert cover.kind == "translation"
        v = cover.validate()
        assert v["genus"] == 1 and v["symbol"] == ()
        assert cover.total_area() == 2 * s.total_area()

    def test_involution_negates_vectors(self):
        s = pillowcase()
        cover = orientation_double_cover(s)
        for d, d2 in _sheet_swap(s).items():
            assert cover.vectors[d2] == -cover.vectors[d]

    def test_lifted_tangent_odd(self):
        s = pillowcase()
        cover = orientation_double_cover(s)
        rng = random.Random(78)
        t = random_tangent(s, rng)
        lt = lift_tangent(cover, t)
        for d, d2 in _sheet_swap(s).items():
            assert lt.delta[d2] == -lt.delta[d]


class TestAdapted:
    def test_adapted_reports_multiplier(self):
        s, c = lshape_h2().adapted()
        assert isinstance(c, QC)
        s.dual_track()   # no NeedsRotationError

    def test_rotate_by_zero_rejected(self):
        with pytest.raises(FlatSurfaceError):
            square_torus().rotate(QC(0, 0))

    def test_square_torus_needs_the_third_candidate(self):
        # 1 and i leave horizontal edges; the candidate list holds 1 once
        s, c = delaunay(square_torus()).adapted()
        assert c == QC(1, 1)
        assert flatsurf._ROTATIONS[:3] == ((1, 0), (0, 1), (1, 1))

    def test_matches_reference(self, monkeypatch):
        surfaces = [delaunay(square_torus())]
        for s in _sheared_surfaces(monkeypatch):
            surfaces += [s, delaunay(s)]
        for s in surfaces:
            got, c = s.adapted()
            want, rc = _reference_adapted(s)
            assert c == rc
            assert io.serialize_flatsurface(got) == \
                io.serialize_flatsurface(want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(maker=st.sampled_from(BUNDLED), re=_mixed, im=_mixed)
    def test_rotate_multiplies_every_vector(self, maker, re, im):
        c = QC(re, im)
        assume(not c.is_zero())
        s = maker()
        assert list(s.rotate(c).vectors.items()) == \
            [(d, c * v) for d, v in s.vectors.items()]


def _assert_public(surface):
    """The surface passes the public constructor, built from its views,
    and the rebuilt surface has the same views."""
    again = FlatSurface(surface.kind, surface.triangles, surface.vectors,
                        surface.glue)
    assert list(again.vectors.items()) == list(surface.vectors.items())
    assert again.signs == surface.signs


def _assert_public_tangent(tangent):
    again = PeriodTangent(tangent.surface, tangent.delta)
    assert list(again.delta.items()) == list(tangent.delta.items())


class TestAgainstFractionOracles:
    """The integer layer gives what the retired Fraction arithmetic gave,
    and every surface and tangent it builds passes the public
    constructors."""

    def test_matches_oracles(self, monkeypatch):
        bases = [maker() for maker in BUNDLED]
        bases += [_grid_torus(monkeypatch, n) for n in (2, 3, 4)]

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(base=st.sampled_from(bases),
               shear=st.fractions(-3, 3, max_denominator=7),
               rotation=st.sampled_from([QC(1), QC(2, 1),
                                         QC(Fraction(1, 2), Fraction(1, 3))]),
               seed=st.integers(0, 10 ** 6))
        def check(base, shear, rotation, seed):
            s = base.shear(shear).rotate(rotation)
            _assert_public(s)
            d, want = delaunay(s), _fraction_delaunay(s)
            assert list(d.triangles.items()) == list(want.triangles.items())
            assert list(d.signs.items()) == list(want.signs.items())
            assert list(d.vectors.items()) == list(want.vectors.items())
            _assert_public(d)
            assert d.total_area() == _fraction_total_area(want)
            assert d.cone_angles() == _fraction_cone_angles(want)
            a, _ = d.adapted()
            _assert_public(a)
            assert a.heights() == _fraction_heights(a)
            got, ref = random.Random(seed), random.Random(seed)
            t1, t2 = random_tangent(a, got), random_tangent(a, got)
            r1, r2 = (_fraction_random_tangent(a, ref),
                      _fraction_random_tangent(a, ref))
            assert t1.delta == r1.delta and t2.delta == r2.delta
            for t in (t1, t2, t1.times_i(), PeriodTangent.scaling(a),
                      *tangent_basis(a)):
                _assert_public_tangent(t)
            for fn, oracle in ((omega_thurston, _fraction_omega_thurston),
                               (omega_hessian, _fraction_omega_hessian),
                               (omega_homological,
                                _fraction_omega_homological)):
                value = fn(a, t1, t2)
                assert type(value) is Fraction
                assert value == oracle(a, t1, t2)
            assert repr(kahler_pairing_numeric(a, t1, t2)) == \
                repr(_rounded(_fraction_kahler(a, t1, t2)))
            cover = orientation_double_cover(a)
            _assert_public(cover)
            for t in (t1, t2):
                _assert_public_tangent(lift_tangent(cover, t))

        check()


def test_serialized_signs_roundtrip_and_name_their_line(monkeypatch):
    # a file round-trips byte for byte, and a glue line whose sign token
    # is swapped for the other is refused with that line's number: the
    # signs are read off the vectors, which the swap leaves as they are
    bases = [maker() for maker in BUNDLED]
    bases += [_grid_torus(monkeypatch, n) for n in (2, 3)]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(base=st.sampled_from(bases),
           shear=st.fractions(-3, 3, max_denominator=7),
           rotation=st.sampled_from([QC(1), QC(0, 1), QC(2, 1),
                                     QC(Fraction(1, 2), Fraction(1, 3))]),
           flip=st.booleans(), data=st.data())
    def check(base, shear, rotation, flip, data):
        s = base.shear(shear).rotate(rotation)
        if flip:
            s = delaunay(s)
        text = io.serialize_flatsurface(s)
        again, _, _ = io.parse_flatsurface(text)
        assert io.serialize_flatsurface(again) == text
        lines = text.splitlines()
        k = data.draw(st.sampled_from(
            [k for k, line in enumerate(lines) if line.startswith("glue ")]))
        head, sign = lines[k].rsplit(" ", 1)
        lines[k] = f"{head} {'pos' if sign == 'neg' else 'neg'}"
        with pytest.raises(io.ParseError, match=f"^line {k + 1}: sign "):
            io.parse_flatsurface("\n".join(lines) + "\n")

    check()


class TestFractionCount:
    def test_delaunay_and_build_make_no_fraction(self, monkeypatch):
        # the hot paths run on integer pairs: a Fraction made in them shows
        # up here.  Before the integer layer the same calls made 3,000 and
        # 650 Fractions
        s = _grid_torus(monkeypatch, 5).shear(Fraction(9, 7))
        vectors = dict(s.vectors)
        assert fraction_constructions(lambda: delaunay(s)) == 0
        assert fraction_constructions(lambda: FlatSurface(
            s.kind, s.triangles, vectors, s.glue)) == 0

    def test_tangent_kernel_and_random_tangent_make_no_fraction(
            self, monkeypatch):
        # the kernel and the tangents stay integers over one denominator;
        # before they did, the same calls made 650 Fractions
        s = _grid_torus(monkeypatch, 4).shear(Fraction(9, 7))
        rng = random.Random(5)
        assert fraction_constructions(lambda: [
            random_tangent(s, rng) for _ in range(3)]) == 0
        assert "tangent_kernel" in s.__dict__

    def test_omega_thurston_keeps_integer_heights(self, monkeypatch):
        # the height numerators reach thurston_form as ints and stay ints;
        # when it passed them through rat() the same call made 803
        s, _ = _grid_torus(monkeypatch, 5).shear(Fraction(9, 7)).adapted()
        rng = random.Random(7)
        t1, t2 = random_tangent(s, rng), random_tangent(s, rng)
        value = omega_thurston(s, t1, t2)
        assert fraction_constructions(lambda: omega_thurston(s, t1, t2)) == 2
        assert value == omega_hessian(s, t1, t2)

    def test_omega_homological_keeps_integer_flows(self, monkeypatch):
        # the basis cycles and their periods are ints; with Fraction flows
        # from a spanning-tree walk the same call made 321
        s, _ = _grid_torus(monkeypatch, 5).shear(Fraction(9, 7)).adapted()
        rng = random.Random(7)
        t1, t2 = random_tangent(s, rng), random_tangent(s, rng)
        value = omega_homological(s, t1, t2)
        assert fraction_constructions(
            lambda: omega_homological(s, t1, t2)) == 47
        assert value == omega_thurston(s, t1, t2)

    def test_flat_reader_and_writer_make_no_fraction(self):
        # tokens are read as integer pairs and values written from them;
        # with a Fraction per token and per written coordinate, each call
        # made 108 on this file of 18 vectors and two tangents
        text = _fixture_text("lshape_h2")
        surf, tangents, _ = io.parse_flatsurface(text)
        assert len(tangents) == 2
        assert fraction_constructions(lambda: io.parse_flatsurface(text)) == 0
        assert fraction_constructions(
            lambda: io.serialize_flatsurface(surf, tangents)) == 0


class TestBuiltOnce:
    """``surface symplectic-check`` builds the dual track and, on a half
    translation surface, the orientation double cover once per run."""

    @pytest.mark.parametrize("make, covers", [(lshape_h2, 0),
                                              (pillowcase, 1)])
    def test_symplectic_check(self, tmp_path, capsys, monkeypatch, make,
                              covers):
        builds = []

        def counted(fn):
            def wrapper(*args):
                builds.append(fn.__name__)
                return fn(*args)
            return wrapper

        for name in ("track_dual_to_triangulation",
                     "orientation_double_cover"):
            monkeypatch.setattr(flatsurf, name,
                                counted(getattr(flatsurf, name)))
        # no horizontal edge, so the probe before the pairings builds the
        # track that omega_thurston then reads
        path = tmp_path / "surface.txt"
        path.write_text(io.serialize_flatsurface(make().rotate(QC(2, 1))))
        assert run(["surface", "symplectic-check", "--input", str(path),
                    "--seed", "3", "--depth", "1"]) == 0
        assert "agree: true" in capsys.readouterr().out
        assert builds == ["track_dual_to_triangulation"] + \
            ["orientation_double_cover"] * covers

    def test_needs_rotation_error_on_every_call(self):
        s = lshape_h2()
        for _ in range(2):
            with pytest.raises(NeedsRotationError):
                s.dual_track()
        rotated = s.rotate(QC(2, 1))
        assert rotated.dual_track() is rotated.dual_track()


def test_code_line_count():
    # every transform builds and checks one surface per result, and the
    # Delaunay quad is read off three edge vectors: a surface built per
    # rotation candidate, a quad developed through chart maps, re-checks
    # of the triangles and gluings after every flip, or a hermitian pairing
    # that subdivides triangles in place of one integer sum would not fit
    assert code_lines("flatsurf") <= 596
