"""Exact flat surfaces glued from rational Euclidean triangles.

A ``FlatSurface`` is a collection of positively oriented triangles whose
directed edges carry exact rational plane vectors, glued in pairs.  A
``neg`` gluing identifies charts by a translation (the partner edge carries
the negated vector); a ``pos`` gluing identifies them by a point reflection
(equal vectors).  Translation surfaces use only ``neg`` gluings and have
cone angles in 2*pi*Z; half-translation surfaces also allow ``pos`` gluings
and cone angles in pi*Z.

The module provides exact Delaunay retriangulation by edge flips, edge
heights and the dual train track of a triangulation with no horizontal
edges, first-order deformations of the edge vectors (period tangents), and
three independent exact evaluations of the symplectic pairing of two
tangents, cross-checked by a floating-point quadrature of the defining
integral (the only inexact computation in the package).

Inside the module a surface's edge vectors, and a tangent's values, are
integer pairs over one positive denominator per object
(``docs/conventions.md``); ``Fraction``s are made only where values leave.
"""

import functools
import heapq
import math
import types
from array import array
from fractions import Fraction

from isocone.ordgroup import rat
from isocone.track import SurfaceTriangulation, track_dual_to_triangulation
from isocone.homology import SurfaceHomology
from isocone import linalg


class FlatSurfaceError(ValueError):
    """A refused surface or tangent; ``entry``, when the refusal names one,
    is ``("triangle", t)`` or ``("vector", d)`` for a directed edge d."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class NeedsRotationError(FlatSurfaceError):
    """A horizontal edge blocks the operation."""


class QC:
    """Exact rational complex number."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = rat(re)
        self.im = rat(im)

    def __add__(self, o):
        return QC(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return QC(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __mul__(self, o):
        if isinstance(o, QC):
            return QC(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)
        return QC(self.re * rat(o), self.im * rat(o))

    __rmul__ = __mul__

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, o):
        return isinstance(o, QC) and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QC({self.re},{self.im})"


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _to_ints(values):
    """Pairs of integer ratios ``{key: ((a, b), (c, d))}``, b and d positive,
    as ``({key: (x, y)}, D)``: integer pairs over the lcm D of b and d."""
    D = math.lcm(*[n for (_, b), (_, d) in values.values() for n in (b, d)])
    return {k: (a * (D // b), c * (D // d))
            for k, ((a, b), (c, d)) in values.items()}, D


def _ratios(values):
    """QC values as pairs of integer ratios, for ``_to_ints``."""
    return {k: (v.re.as_integer_ratio(), v.im.as_integer_ratio())
            for k, v in values.items()}


def _view(vec, D):
    """Read-only QC values of integer pairs over D."""
    return types.MappingProxyType(
        {k: QC(Fraction(x, D), Fraction(y, D)) for k, (x, y) in vec.items()})


def _new(cls, *args):
    """A ``FlatSurface`` or ``PeriodTangent`` of integer pairs, set up and
    checked by ``_setup`` as by the public constructor."""
    self = cls.__new__(cls)
    self._setup(*args)
    return self


def _check_values(surface, vec, no_value, unclosed, broken, area=False):
    """Every triangle of ``surface`` has values in ``vec`` that close up,
    with positive area if ``area``, ``vec`` has no other values, and every
    gluing carries them as ``surface.signs`` says, ``neg`` only on a
    translation surface; the three messages name a failure of each kind."""
    for t, ds in surface.triangles.items():
        at = ("triangle", t)
        for d in ds:
            if d not in vec:
                raise FlatSurfaceError(no_value.format(t=t, d=d), at)
        (ax, ay), (bx, by), (cx, cy) = [vec[d] for d in ds]
        if ax + bx + cx != 0 or ay + by + cy != 0:
            raise FlatSurfaceError(unclosed.format(t=t), at)
        if area and ax * by - ay * bx <= 0:
            raise FlatSurfaceError(f"triangle {t!r} has nonpositive area", at)
    if len(vec) != len(surface.glue):   # every triangle's edges are in vec
        d = next(d for d in vec if d not in surface.glue)
        raise FlatSurfaceError(f"no triangle uses edge {d!r}", ("vector", d))
    for d, d2 in surface.glue.items():
        s = surface.signs[d]
        (x, y), w = vec[d], vec[d2]
        if w != ((-x, -y) if s == "neg" else (x, y)):
            raise FlatSurfaceError(broken.format(d=d), ("vector", d))
        if surface.kind == "translation" and s == "pos":
            raise FlatSurfaceError(
                "translation surfaces allow only neg gluings", ("vector", d))


# The rotations ``FlatSurface.adapted`` tries, in order: 1, i, then p+qi
# by n = p+q with gcd(p, q) = 1 and p ascending, as integer pairs (p, q).
_ROTATIONS = ((1, 0),) + tuple((p, n - p) for n in range(1, 12)
                               for p in range(n) if math.gcd(p, n - p) == 1)


class FlatSurface:
    """Glued rational triangles; see the module docstring.

    ``triangles`` maps triangle ids to ccw triples of directed edge ids;
    ``vectors`` maps each directed edge to a QC; ``gluings`` maps each
    directed edge to its partner, which carries the same vector ('pos' in
    ``signs``, read off the vectors) or the opposite one ('neg').  The
    vectors are held as integer pairs ``_vec`` over the denominator ``_den``.
    """

    def __init__(self, kind, triangles, vectors, gluings):
        self._setup(kind, SurfaceTriangulation(triangles, gluings),
                    *_to_ints(_ratios(vectors)))

    def _setup(self, kind, comb, vec, den):
        if kind not in ("translation", "half-translation"):
            raise FlatSurfaceError(f"unknown kind {kind!r}")
        self.kind, self.comb, self._vec, self._den = kind, comb, vec, den
        self.triangles, self.glue = comb.triangles, comb.glue
        self.signs = {d: "pos" if vec.get(d) == vec.get(d2) else "neg"
                      for d, d2 in comb.glue.items()}
        _check_values(self, vec,
                      "triangle {t!r} uses edge {d!r}, which has no vector",
                      "triangle {t!r} does not close up",
                      "gluing at {d!r} is not vector-compatible", area=True)

    @functools.cached_property
    def vectors(self):
        return _view(self._vec, self._den)

    @functools.cached_property
    def tangent_kernel(self):
        """Kernel of ``tangent_coefficient_rows``: one class-value vector
        ``(L, {class column: n})`` per free column, in free-column order
        (see ``linalg.reduced_kernel``).
        """
        rows, classes = tangent_coefficient_rows(self)
        return linalg.kernel_basis(rows, len(classes))

    # -- basic quantities -----------------------------------------------------

    def total_area(self):
        return Fraction(sum(cross(self._vec[d0], self._vec[d1])
                            for d0, d1, _ in self.triangles.values()),
                        2 * self._den ** 2)

    def cone_angles(self):
        """Exact cone angle at each vertex class, as a multiple of pi.

        Sweeps the corner wedges around every vertex, counting crossings of
        a fixed reference line; each corner wedge is strictly inside a half
        plane, so the count equals the total angle divided by pi.
        """
        angles = {}
        for v, cycle in self.comb.corner_cycles.items():
            # sweep in the chart of the first corner
            (t, i), k, sigma = cycle[0], 0, 1
            x, y = self._vec[self.triangles[t][i]]
            for (ct, ci) in cycle:
                ds = self.triangles[ct]
                px, py = self._vec[ds[ci]]
                qx, qy = self._vec[ds[(ci + 2) % 3]]
                P, Q = (sigma * px, sigma * py), (-sigma * qx, -sigma * qy)
                if cross(P, Q) <= 0:
                    raise FlatSurfaceError("degenerate corner wedge")
                for L in ((x, y), (-x, -y)):
                    # L strictly inside the wedge, or an arrival exactly on
                    # the line: L along Q
                    if (cross(P, L) > 0 and cross(L, Q) > 0 or cross(Q, L) == 0
                            and Q[0] * L[0] + Q[1] * L[1] > 0):
                        k += 1
                # the chart changes sign across a pos gluing
                sigma *= 1 if self.signs[ds[(ci + 2) % 3]] == "neg" else -1
            angles[v] = k
        return angles

    def validate(self):
        """Full validation: symbol, genus, areas, angles.

        Returns a dict with the zero multiplicities ('symbol', weakly
        decreasing, zeros of order 0 omitted), the square flag ('epsilon',
        +1 exactly for translation surfaces), genus, vertex angles, and the
        exact total area.
        """
        angles = self.cone_angles()
        genus = self.comb.genus()
        mults = []
        for v, k in angles.items():
            if self.kind == "translation" and k % 2 != 0:
                raise FlatSurfaceError(
                    f"odd cone angle {k}*pi on a translation surface")
            if k - 2 != 0:
                mults.append(k - 2)
        mults.sort(reverse=True)
        if sum(mults) != 4 * genus - 4:
            raise FlatSurfaceError("zero orders inconsistent with genus")
        return {
            "symbol": tuple(mults),
            "epsilon": 1 if self.kind == "translation" else -1,
            "genus": genus,
            "angles": angles,
            "area": self.total_area(),
        }

    # -- similarity and shearing ------------------------------------------------

    def rotate(self, c):
        """Multiply every edge vector by a nonzero rational complex number."""
        if not isinstance(c, QC):
            c = QC(c)
        if c.is_zero():
            raise FlatSurfaceError("rotation by zero is degenerate")
        return self.apply_matrix(c.re, -c.im, c.im, c.re)

    def apply_matrix(self, a, b, c, d):
        """Apply an orientation-preserving rational linear map to all vectors."""
        m = tuple(map(rat, (a, b, c, d)))
        if m[0] * m[3] - m[1] * m[2] <= 0:
            raise FlatSurfaceError("matrix must preserve orientation")
        M = math.lcm(*[q.denominator for q in m])
        a, b, c, d = [q.numerator * (M // q.denominator) for q in m]
        vec = {k: (a * x + b * y, c * x + d * y)
               for k, (x, y) in self._vec.items()}
        return _new(FlatSurface, self.kind, self.comb, vec, self._den * M)

    def shear(self, s):
        return self.apply_matrix(1, rat(s), 0, 1)

    # -- heights and the dual track ----------------------------------------------

    def heights(self):
        """|imaginary part| per undirected edge; fails on horizontal edges."""
        return {E: Fraction(h, self._den)
                for E, h in self._heights((1, 0)).items()}

    def _heights(self, c):
        """The heights of ``self.rotate(p+qi)``, for the integer pair
        ``c = (p, q)``, times the denominator: |p * y + q * x|."""
        p, q = c
        out = {}
        for E in self.comb.edge_classes:
            x, y = self._vec[E]
            y = p * y + q * x
            if y == 0:
                raise NeedsRotationError(f"horizontal edge {E!r}")
            out[E] = abs(y)
        return out

    def _tallest(self, c):
        """Slot of the tallest edge of every triangle of ``self.rotate(c)``.

        Raises NeedsRotationError on horizontal edges.  The tallest edge is
        unique: the imaginary parts of a closed triangle sum to 0 and none
        is 0, so the largest absolute value is the sum of the other two.
        """
        h = self._heights(c)
        outgoing = {}
        for t, ds in self.triangles.items():
            hs = [h[self.comb.edge_class[d]] for d in ds]
            outgoing[t] = hs.index(max(hs))
        return outgoing

    @functools.cached_property
    def _dual(self):
        return track_dual_to_triangulation(self.comb, self._tallest((1, 0)))

    def dual_track(self):
        """Dual train track: tallest edge outgoing in every triangle.

        Built once per surface, with the undirected edge classes as branch
        ids; the heights satisfy every switch relation.  Raises
        NeedsRotationError on horizontal edges.
        """
        return self._dual

    @functools.cached_property
    def _cover(self):
        return orientation_double_cover(self)

    def adapted(self):
        """Rotate by the first of ``_ROTATIONS`` leaving no horizontal edge;
        returns ``(surface, multiplier)``.

        Each candidate is tested on the rotated heights alone, and only the
        winner's surface is built.
        """
        for c in _ROTATIONS:
            try:
                self._tallest(c)
            except NeedsRotationError:
                continue
            return self.rotate(QC(*c)), QC(*c)
        raise NeedsRotationError("no adapted rotation among the candidates")


# -- Delaunay retriangulation ----------------------------------------------------


_ORIGIN = (0, 0)


def _incircle_strict(A, B, C, D):
    """D strictly inside the circumcircle of ccw triangle ABC.

    The points are integer pairs over one positive denominator: the
    determinant is homogeneous of degree 4 in the coordinates, so it only
    gains the denominator's fourth power.  Cocircular points give exactly
    0, which is not inside.
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = A, B, C, D
    ax, bx, cx = ax - dx, bx - dx, cx - dx
    ay, by, cy = ay - dy, by - dy, cy - dy
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    det = (ax * (by * c2 - b2 * cy) - ay * (bx * c2 - b2 * cx)
           + a2 * (bx * cy - by * cx))
    return det > 0


def _edge_quad(triangles, vec, glue, locate, d):
    """The quad around edge d: (A, B, C, D, data for the flip), as integer
    pairs over the denominator of ``vec``.

    Read off three edge vectors in the chart of d's triangle translated so
    that B is 0: A->B is d, C the opposite corner on the d side (B->C is
    the next edge e1), and D the opposite corner of the partner triangle,
    reached from B backwards along the partner's edge f2 carried across
    the gluing by mu = -1 if d's partner carries d's vector (pos), else +1.
    ``locate`` maps a directed edge to its (triangle, slot).
    """
    t1, i = locate(d)
    t2, j = locate(glue[d])
    mu = -1 if vec[glue[d]] == vec[d] else 1
    ax, ay = vec[d]
    fx, fy = vec[triangles[t2][(j + 2) % 3]]
    return ((-ax, -ay), _ORIGIN, vec[triangles[t1][(i + 1) % 3]],
            (-mu * fx, -mu * fy), (t1, i, t2, j, mu))


def is_delaunay(surface):
    """Non-strict global Delaunay check over all undirected edges."""
    quads = (_edge_quad(surface.triangles, surface._vec, surface.glue,
                        surface.comb.locate, E)
             for E in surface.comb.edge_classes)
    return not any(_incircle_strict(A, B, C, D) for A, B, C, D, _ in quads)


def delaunay(surface):
    """Flip strictly illegal edges until every edge passes the circle test.

    Each step flips the strictly illegal edge whose class comes first in
    ``comb.edge_classes`` (``repr`` order).  Cocircular configurations are
    legal and never flipped, which makes the procedure deterministic and
    terminating; area, symbol, genus, and the gluing kind are preserved
    exactly.

    The flips are applied in place on copies of the triangles, integer
    vectors and slot owners, and one ``FlatSurface`` is built at the end,
    over the same denominator, reading its gluing signs off the vectors;
    its structure check is the only check of the flips.  An edge's
    legality depends only on its two triangles, and the edge classes only
    on the gluing pairs, which flips never change; so a min-heap of class
    ranks, holding every edge not known to be legal and refilled with the
    five edges of the two triangles each flip touches, finds the same edge
    at every step as rescanning all of them would.
    """
    glue = surface.glue
    classes = surface.comb.edge_classes
    edge_class = surface.comb.edge_class
    rank = {E: k for k, E in enumerate(classes)}
    triangles = dict(surface.triangles)
    vec = dict(surface._vec)
    owner = {d: (t, i) for t, ds in triangles.items()
             for i, d in enumerate(ds)}
    cap = 1000 + 100 * len(classes) ** 2
    steps = 0
    heap = list(range(len(classes)))      # sorted, so already a heap
    queued = [True] * len(classes)
    while heap:
        k = heapq.heappop(heap)
        queued[k] = False
        d = classes[k]
        A, B, C, D, (t1, i, t2, j, mu) = _edge_quad(
            triangles, vec, glue, owner.__getitem__, d)
        if not _incircle_strict(A, B, C, D):
            continue
        steps += 1
        if steps > cap:
            raise RuntimeError("flip loop exceeded its bound")
        p = glue[d]
        ds1 = triangles.pop(t1)
        ds2 = triangles.pop(t2)
        e1, e2 = ds1[(i + 1) % 3], ds1[(i + 2) % 3]
        f1, f2 = ds2[(j + 1) % 3], ds2[(j + 2) % 3]

        # new triangles in the common chart: (A, D, C) and (D, B, C), with
        # the old diagonal ids reused for the new one (C -> D and back)
        for f in (f1, f2):
            fx, fy = vec[f]
            vec[f] = (mu * fx, mu * fy)
        (cx, cy), (dx, dy) = C, D
        vec[d] = (dx - cx, dy - cy)
        vec[p] = (cx - dx, cy - dy)
        triangles[t1] = (f1, p, e2)        # A->D, D->C, C->A
        triangles[t2] = (f2, e1, d)        # D->B, B->C, C->D

        for t in (t1, t2):
            for slot, x in enumerate(triangles[t]):
                owner[x] = (t, slot)
                r = rank[edge_class[x]]
                if not queued[r]:
                    queued[r] = True
                    heapq.heappush(heap, r)
    comb = SurfaceTriangulation(triangles, glue)
    return _new(FlatSurface, surface.kind, comb, vec, surface._den)


# -- period tangents ---------------------------------------------------------------


class PeriodTangent:
    """First-order deformation of the edge vectors with fixed combinatorics.

    ``delta`` maps every directed edge to a QC; the values close up around
    every triangle and transform across gluings exactly like the vectors.
    They are held as integer pairs ``_vec`` over the denominator ``_den``.
    """

    def __init__(self, surface, delta):
        self._setup(surface, *_to_ints(_ratios(delta)))

    def _setup(self, surface, vec, den):
        self.surface, self._vec, self._den = surface, vec, den
        _check_values(surface, vec, "tangent has no value on edge {d!r}",
                      "tangent does not close on {t!r}",
                      "tangent breaks the gluing at {d!r}")

    @functools.cached_property
    def delta(self):
        return _view(self._vec, self._den)

    def times_i(self):
        return _new(PeriodTangent, self.surface,
                    {d: (-y, x) for d, (x, y) in self._vec.items()}, self._den)

    @classmethod
    def scaling(cls, surface):
        """The tangent moving every period along itself."""
        return _new(cls, surface, surface._vec, surface._den)

    @classmethod
    def _from_classes(cls, surface, values, den):
        """Expand integer pairs over ``den`` on undirected edge classes to
        all directed edges: a ``neg`` partner of a class takes the negated
        value."""
        vec = {}
        for d in surface._vec:
            E = surface.comb.edge_class[d]
            x, y = values[E]
            flip = d != E and surface.signs[d] == "neg"
            vec[d] = (-x, -y) if flip else (x, y)
        return _new(cls, surface, vec, den)


def tangent_coefficient_rows(surface):
    """Closure constraints on class values, one sparse integer row
    (``linalg.row``) per triangle."""
    classes, cls = surface.comb.edge_classes, surface.comb.edge_class
    idx = {E: k for k, E in enumerate(classes)}
    # a neg partner of a class carries minus the class value
    neg = {d for d, s in surface.signs.items() if d != cls[d] and s == "neg"}
    return [linalg.row((idx[cls[d]], -1 if d in neg else 1)
                       for d in surface.triangles[t])
            for t in sorted(surface.triangles, key=repr)], classes


def tangent_basis(surface):
    """Complex basis of the period tangent space.

    Returns a list of PeriodTangents; together with their i-multiples they
    span all valid tangents over the rationals.
    """
    classes = surface.comb.edge_classes
    return [PeriodTangent._from_classes(
        surface, {E: (vec.get(k, 0), 0) for k, E in enumerate(classes)}, L)
        for L, vec in surface.tangent_kernel]


def random_tangent(surface, rng):
    """A random period tangent with small rational coordinates.

    For each vector of ``surface.tangent_kernel``, in free-column order,
    draws a real coefficient and then an imaginary one, each
    ``Fraction(rng.randint(-2, 2), rng.randint(1, 2))``; the tangent is
    the sum of (real + i * imaginary) times the vectors.  The sums are
    taken in integer numerators over one common denominator ``2 * L``,
    with ``L`` the lcm of the kernel vectors' ``L``: a draw ``a / b`` with
    ``b`` in (1, 2) is ``a * (2 // b) / 2``, and the tangent is built
    from those integers.
    """
    classes = surface.comb.edge_classes
    kernel = surface.tangent_kernel
    L = math.lcm(*[m for m, _ in kernel])
    re, im = [0] * len(classes), [0] * len(classes)
    for m, vec in kernel:
        cr = rng.randint(-2, 2) * (2 // rng.randint(1, 2)) * (L // m)
        ci = rng.randint(-2, 2) * (2 // rng.randint(1, 2)) * (L // m)
        for k, n in vec.items():
            re[k] += cr * n
            im[k] += ci * n
    return PeriodTangent._from_classes(
        surface, dict(zip(classes, zip(re, im))), 2 * L)


# -- the three exact pairings --------------------------------------------------------


def _height_numerators(surface, tangent):
    """Derivative of the edge heights along a tangent, per branch, as
    integer numerators over the tangent's denominator.

    The height of an edge is |Im| of its vector; with no horizontal edges,
    which the caller's ``dual_track()`` has checked, the derivative is
    sign(Im v) * Im(delta), independent of the directed representative.
    The result satisfies the linearized switch relations of the dual track.
    """
    delta = tangent._vec
    return {E: delta[E][1] if surface._vec[E][1] > 0 else -delta[E][1]
            for E in surface.comb.edge_classes}


def omega_thurston(surface, t1, t2):
    """Pairing via the dual track: Thurston form of the height derivatives."""
    track = surface.dual_track()
    w1, w2 = _height_numerators(surface, t1), _height_numerators(surface, t2)
    return track.thurston_form(w1, w2) / (t1._den * t2._den)


def omega_hessian(surface, t1, t2):
    """Pairing via the exact Hessian of the area in period coordinates.

    The total area N is a constant quadratic form in the edge periods,
    per triangle N = Im(conj(u) v)/2 on consecutive directed edges.  Its
    alternating (1,1)-Hessian, contracted on the vertical components of
    the two deformations, gives per triangle

        (Im u1 * Im v2 - Im v1 * Im u2) / 2.

    On multiples of the base periods (and in general whenever the
    horizontal and vertical period classes pair equally) this agrees with
    the full hermitian contraction; the convention is pinned against the
    quadrature oracle on exactly such pairs (docs/conventions.md).  The
    result is independent of which two consecutive edges are used, by the
    per-triangle closure of tangents.
    """
    a, b = t1._vec, t2._vec
    return Fraction(sum(a[d0][1] * b[d1][1] - a[d1][1] * b[d0][1]
                        for d0, d1, _ in surface.triangles.values()),
                    2 * t1._den * t2._den)


def orientation_double_cover(surface):
    """The translation double cover: two disjoint copies of a translation
    surface; on a half-translation surface the sign-reversing gluings
    connect the sheets and every gluing of the cover is a translation.
    Sheet 1 carries the negated vectors; the area is twice the base's."""
    triangles, glu = {}, {}
    for t, ds in surface.triangles.items():
        for sheet in (0, 1):
            triangles[(t, sheet)] = tuple((d, sheet) for d in ds)
    for d, d2 in surface.glue.items():
        flip = surface.signs[d] == "pos"    # a pos gluing changes the sheet
        for s in (0, 1):
            glu[d, s], glu[d2, s ^ flip] = (d2, s ^ flip), (d, s)
    return _new(FlatSurface, "translation",
                SurfaceTriangulation(triangles, glu), _lift(surface._vec),
                surface._den)


def _lift(vec):
    """Integer pairs on both sheets: as given on sheet 0, negated on 1."""
    return {(d, s): (-x, -y) if s else (x, y)
            for d, (x, y) in vec.items() for s in (0, 1)}


def lift_tangent(cover, tangent):
    return _new(PeriodTangent, cover, _lift(tangent._vec), tangent._den)


def _lifted(surface, t1, t2):
    """The orientation double cover of ``surface``, built once per
    surface, and the lifts of two tangents to it."""
    cover = surface._cover
    return cover, lift_tangent(cover, t1), lift_tangent(cover, t2)


def omega_homological(surface, t1, t2):
    """Pairing via cup products of the vertical-part cohomology classes.

    For a translation surface the classes with periods Im(delta) on the
    base pair by the intersection form of a homology basis.  Half
    translation surfaces route through the orientation double cover with
    the pinned factor 1/2.
    """
    if surface.kind != "translation":
        return omega_homological(*_lifted(surface, t1, t2)) / 2
    hom = SurfaceHomology(*surface.comb.skeleton_ribbon())
    alpha = {E: t1._vec[E][1] for E in surface.comb.edge_classes}
    beta = {E: t2._vec[E][1] for E in surface.comb.edge_classes}
    return hom.pair_cocycles(alpha, beta) / (t1._den * t2._den)


# -- quadrature oracle (floating point, clearly inexact) ------------------------------


def kahler_pairing_numeric(surface, t1, t2, depth):
    """The integral of (i/2) theta_1 wedge conj(theta_2), theta_j the affine
    interpolant of tangent j's edge periods on each triangle, by the
    centroid rule over ``depth`` barycentric subdivisions: sampled once per
    shape (pair of integer corner vectors), summed per triangle in ``repr``
    order.  A complex number: on pairs ``(psi, i psi)`` alone its imaginary
    part approximates the exact pairings; the real part is the metric
    pairing.  Half-translation surfaces integrate on the orientation double
    cover with the factor 1/2."""
    if depth < 0:
        raise ValueError(f"quadrature depth must be at least 0, not {depth}")
    if surface.kind != "translation":
        return kahler_pairing_numeric(*_lifted(surface, t1, t2), depth) / 2.0

    shapes, sums, vec, D = {}, {}, surface._vec, surface._den
    for t, ds in surface.triangles.items():
        shapes.setdefault((vec[ds[0]], vec[ds[1]]), []).append((t, ds))
    for ((x0, y0), (x1, y1)), members in shapes.items():
        # the corners of the triangle in its own chart, ``x / D`` correctly
        # rounded, as are the periods
        shape = _shape_samples([0j, complex(x0 / D, y0 / D),
                                complex((x0 + x1) / D, (y0 + y1) / D)], depth)
        for t, ds in members:
            per1, per2 = ([complex(x / tan._den, y / tan._den) for x, y in
                           (tan._vec[d] for d in ds)] for tan in (t1, t2))
            sums[t] = _tangent_sum(shape, per1, per2)
        del shape       # one shape's samples at a time
    total = complex(0)
    for t in sorted(sums, key=repr):
        total += sums[t]
    return total


def _shape_samples(P, depth):
    """The area per sample, and at each sample of the centroid rule on the
    triangle ``P`` the x and y parts of the Whitney forms W_k = lam_k
    d(lam_{k+1}) - lam_{k+1} d(lam_k) of its edges k = 0, 1, 2, six doubles
    per sample in one array; leaves depth first (``docs/conventions.md``)."""
    # barycentric gradients: lambda_k is affine with gradient g_k
    (x0, y0), (x1, y1), (x2, y2) = ((p.real, p.imag) for p in P)
    twoA = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    g0x, g0y = (y1 - y2) / twoA, (x2 - x1) / twoA
    g1x, g1y = (y2 - y0) / twoA, (x0 - x2) / twoA
    g2x, g2y = (y0 - y1) / twoA, (x1 - x0) / twoA
    weights = array("d")
    stack = [(depth, *P)]
    while stack:
        d, a, b, c = stack.pop()
        if d:
            ab, bc, ca, d = (a + b) / 2, (b + c) / 2, (c + a) / 2, d - 1
            # the last child goes first, so that the first is popped first
            stack += [(d, ab, bc, ca), (d, ca, bc, c), (d, ab, b, bc),
                      (d, a, ab, ca)]
            continue
        z = (a + b + c) / 3
        x, y = z.real, z.imag
        # lambda_k vanishes on the opposite edge, through corner k+1
        l0 = g0x * (x - x1) + g0y * (y - y1)
        l1 = g1x * (x - x2) + g1y * (y - y2)
        l2 = g2x * (x - x0) + g2y * (y - y0)
        weights.extend((l0 * g1x - l1 * g0x, l0 * g1y - l1 * g0y,
                        l1 * g2x - l2 * g1x, l1 * g2y - l2 * g1y,
                        l2 * g0x - l0 * g2x, l2 * g0y - l0 * g2y))
    return abs(twoA) / 2 / 4 ** depth, weights


def _tangent_sum(shape, per1, per2):
    """The centroid rule on a triangle of ``shape`` for two tangents' complex
    periods, summed on float parts to the same bits as complex arithmetic
    (``docs/conventions.md``)."""
    (p0, q0), (p1, q1), (p2, q2), (r0, s0), (r1, s1), (r2, s2) = [
        (z.real, z.imag) for z in (*per1, *per2)]
    area_factor, w, re, im = shape[0], iter(shape[1]), 0.0, 0.0
    for w0x, w0y, w1x, w1y, w2x, w2y in zip(w, w, w, w, w, w):
        # theta_1 = ax dx + ay dy and theta_2 = bx dx + by dy, with
        # ax = per1[0] * w0x + per1[1] * w1x + per1[2] * w2x, in parts
        axr = p0 * w0x + p1 * w1x + p2 * w2x
        axi = q0 * w0x + q1 * w1x + q2 * w2x
        ayr = p0 * w0y + p1 * w1y + p2 * w2y
        ayi = q0 * w0y + q1 * w1y + q2 * w2y
        bxr = r0 * w0x + r1 * w1x + r2 * w2x
        bxi = s0 * w0x + s1 * w1x + s2 * w2x
        byr = r0 * w0y + r1 * w1y + r2 * w2y
        byi = s0 * w0y + s1 * w1y + s2 * w2y
        # (i/2) theta1 ^ conj(theta2) = (i/2)(ax*conj(by) - ay*conj(bx)) dx^dy
        re -= 0.5 * ((axi * byr - axr * byi) - (ayi * bxr - ayr * bxi))
        im += 0.5 * ((axr * byr + axi * byi) - (ayr * bxr + ayi * bxi))
    return complex(re, im) * area_factor


# -- fixture surfaces -------------------------------------------------------------


def square_torus():
    """Unit square torus: two triangles, one marked point, area 1."""
    tris = {"t0": ("a", "b", "c"), "t1": ("A", "B", "C")}
    vectors = {"a": QC(1, 0), "b": QC(0, 1), "c": QC(-1, -1),
               "A": QC(-1, 0), "B": QC(0, -1), "C": QC(1, 1)}
    glu = {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"}
    return FlatSurface("translation", tris, vectors, glu)


def hex_torus():
    """Hexagonal torus: opposite sides of a rational hexagon identified."""
    a, b, c = QC(2, 0), QC(1, 2), QC(-2, 2)
    # fan from the first corner; corners 0, a, a+b, a+b+c, b+c, c
    tris = {"t0": ("sa", "sb", "d1r"), "t1": ("d1", "sc", "d2r"),
            "t2": ("d2", "sar", "d3r"), "t3": ("d3", "sbr", "scr")}
    p = [QC(0), a, a + b, a + b + c, b + c, c]
    vectors = {
        "sa": a, "sb": b, "sc": c,
        "sar": -a, "sbr": -b, "scr": -c,
        "d1": p[2] - p[0], "d1r": p[0] - p[2],
        "d2": p[3] - p[0], "d2r": p[0] - p[3],
        "d3": p[4] - p[0], "d3r": p[0] - p[4],
    }
    glu = {}
    for x in ("sa", "sb", "sc", "d1", "d2", "d3"):
        glu[x], glu[x + "r"] = x + "r", x
    return FlatSurface("translation", tris, vectors, glu)


def _add_unit_square(name, tris, vectors, glu):
    """Add the unit square ``name`` cut along its (1, 1) diagonal: triangles
    ``<name>0`` = (b, r, dr) and ``<name>1`` = (d, t, l), edge ids prefixed
    by ``name``, with the diagonal d glued to its reverse dr."""
    tris[f"{name}0"] = (f"{name}b", f"{name}r", f"{name}dr")
    tris[f"{name}1"] = (f"{name}d", f"{name}t", f"{name}l")
    for e, x, y in (("b", 1, 0), ("r", 0, 1), ("dr", -1, -1), ("d", 1, 1),
                    ("t", -1, 0), ("l", 0, -1)):
        vectors[name + e] = QC(x, y)
    glu[f"{name}d"], glu[f"{name}dr"] = f"{name}dr", f"{name}d"


def lshape_h2():
    """L-shaped translation surface from three unit squares (genus 2).

    One cone point of angle 6*pi; as a squared differential the symbol is
    (4) with epsilon = +1 and the area is 3.
    """
    tris, vectors, glu = {}, {}, {}
    for name in ("P", "Q", "R"):
        _add_unit_square(name, tris, vectors, glu)
    # L shape: P = [0,1]^2, Q = [1,2]x[0,1], R = [0,1]x[1,2]
    for x, y in (("Pr", "Ql"),      # interior: x = 1, 0 <= y <= 1
                 ("Pt", "Rb"),      # interior: y = 1, 0 <= x <= 1
                 # identifications of the outer boundary by translations
                 ("Pb", "Rt"),      # (x,0) ~ (x,2)
                 ("Qb", "Qt"),      # (x,0) ~ (x,1) on 1 <= x <= 2
                 ("Pl", "Qr"),      # (0,y) ~ (2,y)
                 ("Rl", "Rr")):     # (0,y) ~ (1,y) on 1 <= y <= 2
        glu[x], glu[y] = y, x
    return FlatSurface("translation", tris, vectors, glu)


def pillowcase():
    """Half-translation sphere: the double of a unit square, four poles."""
    tris, vectors, glu = {}, {}, {}
    # upper copy [0,1]x[0,1] and lower copy [0,1]x[-1,0]
    for name in ("u", "l"):
        _add_unit_square(name, tris, vectors, glu)
    for x, y in (("ub", "lt"),      # shared edge y = 0
                 ("ut", "lb"),      # top of strip to its bottom
                 ("ul", "ll"),      # left fold: a point reflection
                 ("ur", "lr")):     # right fold: a point reflection
        glu[x], glu[y] = y, x
    return FlatSurface("half-translation", tris, vectors, glu)
