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
"""

import functools
import heapq
import math
from fractions import Fraction

from isocone.ordgroup import rat
from isocone.track import SurfaceTriangulation, track_dual_to_triangulation
from isocone.homology import SurfaceHomology
from isocone import linalg


class FlatSurfaceError(ValueError):
    pass


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
    return u.re * v.im - u.im * v.re


def dot(u, v):
    return u.re * v.re + u.im * v.im


# The rotations ``FlatSurface.adapted`` tries, in order: 1, i, then p+qi
# by n = p+q with gcd(p, q) = 1 and p ascending.
_ROTATIONS = (QC(1),) + tuple(QC(p, n - p) for n in range(1, 12)
                              for p in range(n) if math.gcd(p, n - p) == 1)


class FlatSurface:
    """Glued rational triangles; see the module docstring.

    ``triangles`` maps triangle ids to ccw triples of directed edge ids;
    ``vectors`` maps each directed edge to a QC; ``gluings`` maps each
    directed edge to its partner; ``signs`` maps each directed edge to
    'neg' or 'pos' (symmetric on a gluing pair).
    """

    def __init__(self, kind, triangles, vectors, gluings, signs=None):
        if kind not in ("translation", "half-translation"):
            raise FlatSurfaceError(f"unknown kind {kind!r}")
        self.kind = kind
        self.vectors = dict(vectors)
        if signs is None:
            signs = {d: "neg" for d in gluings}
        self.signs = dict(signs)
        self.comb = SurfaceTriangulation(triangles, gluings)
        self.triangles = self.comb.triangles
        self.glue = self.comb.glue
        self._check_structure()

    def _check_structure(self):
        vectors, signs = self.vectors, self.signs
        for t, ds in self.triangles.items():
            for d in ds:
                if d not in vectors:
                    raise FlatSurfaceError(f"triangle {t!r} uses edge {d!r}, "
                                           f"which has no vector")
            a, b, c = [vectors[d] for d in ds]
            if a.re + b.re + c.re != 0 or a.im + b.im + c.im != 0:
                raise FlatSurfaceError(f"triangle {t!r} does not close up")
            if cross(a, b) <= 0:
                raise FlatSurfaceError(f"triangle {t!r} has nonpositive area")
        for d, d2 in self.glue.items():
            s = signs.get(d)
            if s not in ("neg", "pos"):
                raise FlatSurfaceError(f"missing gluing sign at {d!r}")
            if s != signs.get(d2):
                raise FlatSurfaceError(f"gluing signs disagree at {d!r}")
            v, w = vectors[d], vectors[d2]
            want = (-v.re, -v.im) if s == "neg" else (v.re, v.im)
            if (w.re, w.im) != want:
                raise FlatSurfaceError(
                    f"gluing at {d!r} is not vector-compatible")
            if self.kind == "translation" and s == "pos":
                raise FlatSurfaceError(
                    "translation surfaces allow only neg gluings")

    @functools.cached_property
    def tangent_kernel(self):
        """Kernel of ``tangent_coefficient_rows``: one class-value vector
        per free column, in free-column order (see ``linalg.kernel_basis``).
        """
        rows, classes = tangent_coefficient_rows(self)
        return tuple(map(tuple, linalg.kernel_basis(rows, len(classes))))

    # -- basic quantities -----------------------------------------------------

    def total_area(self):
        area = Fraction(0)
        for t in sorted(self.triangles, key=repr):
            d0, d1, _ = self.triangles[t]
            area += cross(self.vectors[d0], self.vectors[d1]) / 2
        return area

    def chart_factor(self, d):
        """Chart transition multiplier when crossing the gluing at d."""
        return 1 if self.signs[d] == "neg" else -1

    def cone_angles(self):
        """Exact cone angle at each vertex class, as a multiple of pi.

        Sweeps the corner wedges around every vertex, counting crossings of
        a fixed reference line; each corner wedge is strictly inside a half
        plane, so the count equals the total angle divided by pi.
        """
        angles = {}
        for v, cycle in self.comb.corner_cycles.items():
            # sweep in the chart of the first corner
            k, sigma = 0, 1
            t, i = cycle[0]
            ref = self.vectors[self.triangles[t][i]]
            for (ct, ci) in cycle:
                ds = self.triangles[ct]
                P = sigma * self.vectors[ds[ci]]
                Q = sigma * (-self.vectors[ds[(ci + 2) % 3]])
                if cross(P, Q) <= 0:
                    raise FlatSurfaceError("degenerate corner wedge")
                for L in (ref, -ref):
                    if cross(Q, L) == 0 and dot(Q, L) > 0:
                        k += 1          # arrival exactly on the line
                    elif cross(P, L) > 0 and cross(L, Q) > 0:
                        k += 1
                sigma *= self.chart_factor(ds[(ci + 2) % 3])
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
        a, b, c, d = map(rat, (a, b, c, d))
        if a * d - b * c <= 0:
            raise FlatSurfaceError("matrix must preserve orientation")
        vectors = {k: QC(a * v.re + b * v.im, c * v.re + d * v.im)
                   for k, v in self.vectors.items()}
        return FlatSurface(self.kind, self.triangles, vectors, self.glue,
                           self.signs)

    def shear(self, s):
        return self.apply_matrix(1, rat(s), 0, 1)

    # -- heights and the dual track ----------------------------------------------

    def heights(self):
        """|imaginary part| per undirected edge; fails on horizontal edges."""
        return self._heights(QC(1))

    def _heights(self, c):
        """The heights of ``self.rotate(c)``: |c.re * v.im + c.im * v.re|."""
        out = {}
        for E in self.comb.edge_classes:
            v = self.vectors[E]
            y = c.re * v.im + c.im * v.re
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

    def dual_track(self):
        """Dual train track: tallest edge outgoing in every triangle.

        Returns ``(track, edge_to_branch)``; branch ids are the undirected
        edge classes, and the heights satisfy every switch relation.
        Raises NeedsRotationError on horizontal edges.
        """
        return track_dual_to_triangulation(self.comb, self._tallest(QC(1)))

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
            return self.rotate(c), c
        raise NeedsRotationError("no adapted rotation among the candidates")


# -- Delaunay retriangulation ----------------------------------------------------


_ORIGIN = QC(0)


def _positions(vectors, ds):
    """Developed corner positions of a triangle, with ccw directed edges
    ``ds``, in its own chart."""
    d0, d1, _ = ds
    p1 = vectors[d0]
    return [QC(0), p1, p1 + vectors[d1]]


def _incircle_strict(A, B, C, D):
    """D strictly inside the circumcircle of ccw triangle ABC.

    The sign of the determinant is taken in integers: the coordinates are
    scaled by the lcm L of their denominators, and the determinant is
    homogeneous of degree 4 in them, so it only gains the factor
    L**4 > 0.  Cocircular points give exactly 0, which is not inside.
    """
    coords = (A.re, A.im, B.re, B.im, C.re, C.im, D.re, D.im)
    L = math.lcm(*[q.denominator for q in coords])
    ax, ay, bx, by, cx, cy, dx, dy = [
        q.numerator * (L // q.denominator) for q in coords]
    ax, bx, cx = ax - dx, bx - dx, cx - dx
    ay, by, cy = ay - dy, by - dy, cy - dy
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    det = (ax * (by * c2 - b2 * cy) - ay * (bx * c2 - b2 * cx)
           + a2 * (bx * cy - by * cx))
    return det > 0


def _edge_quad(triangles, vectors, glue, signs, locate, d):
    """The quad around edge d: (A, B, C, D, data for the flip).

    Read off three edge vectors in the chart of d's triangle translated so
    that B is 0: A->B is d, C the opposite corner on the d side (B->C is
    the next edge e1), and D the opposite corner of the partner triangle,
    reached from B backwards along the partner's edge f2 carried across
    the gluing by mu = +1 (neg) or -1 (pos).  ``locate`` maps a directed
    edge to its (triangle, slot).
    """
    t1, i = locate(d)
    t2, j = locate(glue[d])
    mu = 1 if signs[d] == "neg" else -1
    A = -vectors[d]
    C = vectors[triangles[t1][(i + 1) % 3]]
    D = -mu * vectors[triangles[t2][(j + 2) % 3]]
    return A, _ORIGIN, C, D, (t1, i, t2, j, mu)


def is_delaunay(surface):
    """Non-strict global Delaunay check over all undirected edges."""
    for E in surface.comb.edge_classes:
        A, B, C, D, _ = _edge_quad(surface.triangles, surface.vectors,
                                   surface.glue, surface.signs,
                                   surface.comb.locate, E)
        if _incircle_strict(A, B, C, D):
            return False
    return True


def delaunay(surface):
    """Flip strictly illegal edges until every edge passes the circle test.

    Each step flips the strictly illegal edge whose class comes first in
    ``comb.edge_classes`` (``repr`` order).  Cocircular configurations are
    legal and never flipped, which makes the procedure deterministic and
    terminating; area, symbol, genus, and the gluing kind are preserved
    exactly.

    The flips are applied in place on copies of the triangles, vectors,
    signs and slot owners, and one ``FlatSurface`` is built at the end; its
    structure check is the only check of the flips.  An edge's legality
    depends only on its two triangles, and the edge classes only on the
    gluing pairs, which flips never change; so a min-heap of class ranks,
    holding every edge not known to be legal and refilled with the five
    edges of the two triangles each flip touches, finds the same edge at
    every step as rescanning all of them would.
    """
    glue = surface.glue
    classes = surface.comb.edge_classes
    edge_class = surface.comb.edge_class
    rank = {E: k for k, E in enumerate(classes)}
    triangles = dict(surface.triangles)
    vectors = dict(surface.vectors)
    signs = dict(surface.signs)
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
            triangles, vectors, glue, signs, owner.__getitem__, d)
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
        vectors[f1] = mu * vectors[f1]
        vectors[f2] = mu * vectors[f2]
        vectors[d] = D - C
        vectors[p] = C - D
        triangles[t1] = (f1, p, e2)        # A->D, D->C, C->A
        triangles[t2] = (f2, e1, d)        # D->B, B->C, C->D
        signs[d] = signs[p] = "neg"

        # recompute the gluing signs of the outer edges from current vectors
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
    return FlatSurface(surface.kind, triangles, vectors, glue, signs)


# -- period tangents ---------------------------------------------------------------


class PeriodTangent:
    """First-order deformation of the edge vectors with fixed combinatorics.

    ``delta`` maps every directed edge to a QC; the values close up around
    every triangle and transform across gluings exactly like the vectors.
    """

    def __init__(self, surface, delta):
        self.surface = surface
        self.delta = dict(delta)
        for t, ds in surface.triangles.items():
            for d in ds:
                if d not in self.delta:
                    raise FlatSurfaceError(f"tangent has no value on edge "
                                           f"{d!r}")
            a, b, c = [self.delta[d] for d in ds]
            if a.re + b.re + c.re != 0 or a.im + b.im + c.im != 0:
                raise FlatSurfaceError(f"tangent does not close on {t!r}")
        for d, d2 in surface.glue.items():
            v, w = self.delta[d], self.delta[d2]
            neg = surface.signs[d] == "neg"
            if (w.re, w.im) != ((-v.re, -v.im) if neg else (v.re, v.im)):
                raise FlatSurfaceError(f"tangent breaks the gluing at {d!r}")

    def times_i(self):
        return PeriodTangent(self.surface,
                             {d: QC(0, 1) * v for d, v in self.delta.items()})

    def scale(self, q):
        q = rat(q)
        return PeriodTangent(self.surface,
                             {d: v * q for d, v in self.delta.items()})

    def __add__(self, other):
        return PeriodTangent(self.surface,
                             {d: v + other.delta[d]
                              for d, v in self.delta.items()})

    @classmethod
    def scaling(cls, surface):
        """The tangent moving every period along itself."""
        return cls(surface, dict(surface.vectors))

    @classmethod
    def from_class_values(cls, surface, values):
        """Expand values on undirected edge classes to all directed edges."""
        delta = {}
        for d in surface.vectors:
            E = surface.comb.edge_class[d]
            flip = d != E and surface.signs[d] == "neg"
            delta[d] = -values[E] if flip else values[E]
        return cls(surface, delta)


def tangent_coefficient_rows(surface):
    """Closure constraints on class values, one integer row per triangle."""
    classes = surface.comb.edge_classes
    idx = {E: k for k, E in enumerate(classes)}
    rows = []
    for t in sorted(surface.triangles, key=repr):
        row = [0] * len(classes)
        for d in surface.triangles[t]:
            E = surface.comb.edge_class[d]
            row[idx[E]] += -1 if d != E and surface.signs[d] == "neg" else 1
        rows.append(row)
    return rows, classes


def tangent_basis(surface):
    """Complex basis of the period tangent space.

    Returns a list of PeriodTangents; together with their i-multiples they
    span all valid tangents over the rationals.
    """
    return [PeriodTangent.from_class_values(
                surface, dict(zip(surface.comb.edge_classes, map(QC, vec))))
            for vec in surface.tangent_kernel]


def random_tangent(surface, rng):
    """A random period tangent with small rational coordinates.

    For each vector of ``surface.tangent_kernel``, in free-column order,
    draws a real coefficient and then an imaginary one, each
    ``Fraction(rng.randint(-2, 2), rng.randint(1, 2))``; the tangent is
    the sum of (real + i * imaginary) times the vectors.  The sums are
    taken in integer numerators over one common denominator ``2 * L``,
    with ``L`` the lcm of the kernel's denominators: a draw ``a / b`` with
    ``b`` in (1, 2) is ``a * (2 // b) / 2``.
    """
    classes = surface.comb.edge_classes
    kernel = surface.tangent_kernel
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
    return PeriodTangent.from_class_values(surface, {
        E: QC(Fraction(r, 2 * L), Fraction(i, 2 * L))
        for E, r, i in zip(classes, re, im)})


# -- the three exact pairings --------------------------------------------------------


def height_derivative(surface, tangent):
    """Derivative of the edge heights along a tangent, per branch.

    The height of an edge is |Im| of its vector; with no horizontal edges
    the derivative is sign(Im v) * Im(delta), independent of the directed
    representative.  The result satisfies the linearized switch relations
    of the dual track.
    """
    out = {}
    for E in surface.comb.edge_classes:
        v = surface.vectors[E]
        if v.im == 0:
            raise NeedsRotationError(f"horizontal edge {E!r}")
        s = 1 if v.im > 0 else -1
        out[E] = s * tangent.delta[E].im
    return out


def omega_thurston(surface, t1, t2):
    """Pairing via the dual track: Thurston form of the height derivatives."""
    track, e2b = surface.dual_track()
    w1 = height_derivative(surface, t1)
    w2 = height_derivative(surface, t2)
    return track.thurston_form(w1, w2)


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
    total = Fraction(0)
    for t in sorted(surface.triangles, key=repr):
        d0, d1, _ = surface.triangles[t]
        u1, v1 = t1.delta[d0], t1.delta[d1]
        u2, v2 = t2.delta[d0], t2.delta[d1]
        total += Fraction(u1.im * v2.im - v1.im * u2.im, 2)
    return total


def orientation_double_cover(surface):
    """The translation double cover and its sheet-swapping involution.

    On a translation surface the cover is two disjoint copies; on a
    half-translation surface the sign-reversing gluings connect the sheets
    and every gluing of the cover is a translation.  The involution negates
    the lifted edge vectors; the covering area is twice the base area.
    """
    triangles = {}
    vectors = {}
    glu = {}
    signs = {}
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
    cover = FlatSurface("translation", triangles, vectors, glu, signs)
    involution = {(d, s): (d, 1 - s) for d in surface.vectors for s in (0, 1)}
    return cover, involution


def lift_tangent(cover, tangent):
    delta = {}
    for (d, sheet) in cover.vectors:
        v = tangent.delta[d]
        delta[(d, sheet)] = v if sheet == 0 else -v
    return PeriodTangent(cover, delta)


def omega_homological(surface, t1, t2):
    """Pairing via cup products of the vertical-part cohomology classes.

    For a translation surface the classes with periods Im(delta) on the
    base pair by the intersection form of a homology basis.  Half
    translation surfaces route through the orientation double cover with
    the pinned factor 1/2.
    """
    if surface.kind != "translation":
        cover, _ = orientation_double_cover(surface)
        l1 = lift_tangent(cover, t1)
        l2 = lift_tangent(cover, t2)
        return omega_homological(cover, l1, l2) / 2
    ribbon = surface.comb.skeleton_ribbon()
    hom = SurfaceHomology(ribbon)
    alpha = {E: t1.delta[E].im for E in surface.comb.edge_classes}
    beta = {E: t2.delta[E].im for E in surface.comb.edge_classes}
    return hom.pair_cocycles(alpha, beta)


# -- quadrature oracle (floating point, clearly inexact) ------------------------------


def kahler_pairing_numeric(surface, t1, t2, depth=4):
    """Numerical pairing integral with piecewise-affine representatives.

    Each tangent is realized on every triangle as the affine interpolant
    of its three edge periods; the hermitian pairing integrand
    (i/2) theta_1 wedge conj(theta_2) is integrated by the centroid rule
    over ``depth`` barycentric subdivisions.  Returns a complex number
    whose imaginary part approximates the exact pairings; the real part is
    the metric pairing.  Half-translation surfaces integrate on the
    orientation double cover with the factor 1/2.
    """
    if surface.kind != "translation":
        cover, _ = orientation_double_cover(surface)
        return kahler_pairing_numeric(
            cover, lift_tangent(cover, t1), lift_tangent(cover, t2),
            depth) / 2.0

    total = complex(0)
    for t in sorted(surface.triangles, key=repr):
        ds = surface.triangles[t]
        pos = _positions(surface.vectors, ds)
        P = [complex(p.re, p.im) for p in pos]
        per1 = [complex(t1.delta[d].re, t1.delta[d].im) for d in ds]
        per2 = [complex(t2.delta[d].re, t2.delta[d].im) for d in ds]
        total += _triangle_pairing_quadrature(P, per1, per2, depth)
    return total


def _triangle_pairing_quadrature(P, per1, per2, depth):
    """Centroid rule for (i/2) theta_1 wedge conj(theta_2) on one triangle.

    theta_j is the Whitney interpolant of the edge periods ``per_j``: edge
    k runs from corner k to corner k+1 and carries the form
    W_k = lam_k d(lam_{k+1}) - lam_{k+1} d(lam_k).  Each sample point
    takes its barycentric values and Whitney weights once and uses them
    for both tangents.  The float operations, their operands and their
    order are fixed (``docs/conventions.md``), so the printed result is
    the same bit for bit on every run.
    """
    # barycentric gradients: lambda_k is affine with gradient g_k
    (x0, y0), (x1, y1), (x2, y2) = ((p.real, p.imag) for p in P)
    twoA = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    g0x, g0y = (y1 - y2) / twoA, (x2 - x1) / twoA
    g1x, g1y = (y2 - y0) / twoA, (x0 - x2) / twoA
    g2x, g2y = (y0 - y1) / twoA, (x1 - x0) / twoA
    a0, a1, a2 = per1
    b0, b1, b2 = per2

    pieces = [P]
    for _ in range(depth):
        nxt = []
        for (a, b, c) in pieces:
            ab = (a + b) / 2
            bc = (b + c) / 2
            ca = (c + a) / 2
            nxt.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        pieces = nxt
    area_factor = abs(twoA) / 2 / len(pieces)
    total = complex(0)
    for (a, b, c) in pieces:
        z = (a + b + c) / 3
        x = z.real
        y = z.imag
        # lambda_k vanishes on the opposite edge, through corner k+1
        l0 = g0x * (x - x1) + g0y * (y - y1)
        l1 = g1x * (x - x2) + g1y * (y - y2)
        l2 = g2x * (x - x0) + g2y * (y - y0)
        w0x = l0 * g1x - l1 * g0x
        w0y = l0 * g1y - l1 * g0y
        w1x = l1 * g2x - l2 * g1x
        w1y = l1 * g2y - l2 * g1y
        w2x = l2 * g0x - l0 * g2x
        w2y = l2 * g0y - l0 * g2y
        # each component starts from 0j, as a running sum from zero would
        ax = 0j + a0 * w0x + a1 * w1x + a2 * w2x
        ay = 0j + a0 * w0y + a1 * w1y + a2 * w2y
        bx = 0j + b0 * w0x + b1 * w1x + b2 * w2x
        by = 0j + b0 * w0y + b1 * w1y + b2 * w2y
        # (i/2) theta1 ^ conj(theta2) = (i/2)(ax*conj(by) - ay*conj(bx)) dx^dy
        total += 0.5j * (ax * by.conjugate() - ay * bx.conjugate())
    return total * area_factor


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
    a = QC(2, 0)
    b = QC(1, 2)
    c = QC(-2, 2)
    # fan from the first corner; corners 0, a, a+b, a+b+c, b+c, c
    tris = {
        "t0": ("sa", "sb", "d1r"),
        "t1": ("d1", "sc", "d2r"),
        "t2": ("d2", "sar", "d3r"),
        "t3": ("d3", "sbr", "scr"),
    }
    p = [QC(0), a, a + b, a + b + c, b + c, c]
    vectors = {
        "sa": a, "sb": b, "sc": c,
        "sar": -a, "sbr": -b, "scr": -c,
        "d1": p[2] - p[0], "d1r": p[0] - p[2],
        "d2": p[3] - p[0], "d2r": p[0] - p[3],
        "d3": p[4] - p[0], "d3r": p[0] - p[4],
    }
    glu = {}
    for x, y in [("sa", "sar"), ("sb", "sbr"), ("sc", "scr"),
                 ("d1", "d1r"), ("d2", "d2r"), ("d3", "d3r")]:
        glu[x] = y
        glu[y] = x
    return FlatSurface("translation", tris, vectors, glu)


def lshape_h2():
    """L-shaped translation surface from three unit squares (genus 2).

    One cone point of angle 6*pi; as a squared differential the symbol is
    (4) with epsilon = +1 and the area is 3.
    """
    tris = {}
    vectors = {}
    glu = {}

    def add_square(name):
        d = f"{name}d"
        tris[f"{name}0"] = (f"{name}b", f"{name}r", d + "r")
        tris[f"{name}1"] = (d, f"{name}t", f"{name}l")
        vectors[f"{name}b"] = QC(1, 0)
        vectors[f"{name}r"] = QC(0, 1)
        vectors[d + "r"] = QC(-1, -1)
        vectors[d] = QC(1, 1)
        vectors[f"{name}t"] = QC(-1, 0)
        vectors[f"{name}l"] = QC(0, -1)
        glu[d] = d + "r"
        glu[d + "r"] = d

    for name in ("P", "Q", "R"):
        add_square(name)

    def pair(x, y):
        glu[x] = y
        glu[y] = x

    # L shape: P = [0,1]^2, Q = [1,2]x[0,1], R = [0,1]x[1,2]
    # interior shared edges
    pair("Pr", "Ql")      # x = 1, 0 <= y <= 1
    pair("Pt", "Rb")      # y = 1, 0 <= x <= 1
    # identifications of the outer boundary by translations
    pair("Pb", "Rt")      # (x,0) ~ (x,2)
    pair("Qb", "Qt")      # (x,0) ~ (x,1) on 1 <= x <= 2
    pair("Pl", "Qr")      # (0,y) ~ (2,y)
    pair("Rl", "Rr")      # (0,y) ~ (1,y) on 1 <= y <= 2
    return FlatSurface("translation", tris, vectors, glu)


def pillowcase():
    """Half-translation sphere: the double of a unit square, four poles."""
    tris = {}
    vectors = {}
    glu = {}
    # upper copy [0,1]x[0,1] and lower copy [0,1]x[-1,0]
    tris["u0"] = ("ub", "ur", "udr")
    tris["u1"] = ("ud", "ut", "ul")
    vectors.update({"ub": QC(1, 0), "ur": QC(0, 1), "udr": QC(-1, -1),
                    "ud": QC(1, 1), "ut": QC(-1, 0), "ul": QC(0, -1)})
    tris["l0"] = ("lb", "lr", "ldr")
    tris["l1"] = ("ld", "lt", "ll")
    vectors.update({"lb": QC(1, 0), "lr": QC(0, 1), "ldr": QC(-1, -1),
                    "ld": QC(1, 1), "lt": QC(-1, 0), "ll": QC(0, -1)})

    def pair(x, y, sign):
        glu[x] = y
        glu[y] = x
        return {x: sign, y: sign}

    signs = {}
    signs.update(pair("ud", "udr", "neg"))
    signs.update(pair("ld", "ldr", "neg"))
    signs.update(pair("ub", "lt", "neg"))     # shared edge y = 0
    signs.update(pair("ut", "lb", "neg"))     # top of strip to its bottom
    signs.update(pair("ul", "ll", "pos"))     # left fold
    signs.update(pair("ur", "lr", "pos"))     # right fold
    return FlatSurface("half-translation", tris, vectors, glu, signs)
