"""Triangulated oriented 3-manifolds with boundary and their weight cones.

A ``Triangulation3`` is a set of abstract tetrahedra with corner slots
0..3, oriented by the slot order, glued in pairs of faces by corner
bijections (face ``f`` is opposite corner ``f``).  Each gluing must be
orientation-reversing, which makes the complex an oriented
pseudo-manifold with boundary (vertex links are not checked); the unglued
faces assemble into a closed oriented ``SurfaceTriangulation``.

Weights live on the edge classes (tetrahedron edges identified by the
gluings).  Each oriented tetrahedron carries an alternating 2-form in the
sums of its three opposite-edge pairs; the sum of these forms over all
tetrahedra coincides with the per-triangle form of the boundary
restriction, because interior faces appear twice with opposite
orientations and cancel.

For every choice of one pair-sum equality per tetrahedron there is a
linear subspace of weights (with torus boundary components pinned to
zero); each such subspace is isotropic for the total form, by a proof
that needs only the face pairing (``Triangulation3.isotropy_certificate``
checks it).  Restricting the union of these subspaces to the boundary and
intersecting with the switch relations and nonnegativity of a dual train
track on the boundary yields a finite union of polyhedral cones;
membership of a boundary weight is an exact rational feasibility question
over the choices.
"""

import bisect
import functools
import itertools
import math
from fractions import Fraction

from isocone import linalg
from isocone.homology import union_find
from isocone.ordgroup import rat
from isocone.track import (
    EntryError, SurfaceTriangulation, form_value, track_dual_to_triangulation,
    triangle_form_sum, wedge_rows)

# induced oriented corner triples of the four faces of a positively
# oriented tetrahedron (face f is opposite corner f)
FACE_CYCLES = {
    0: (1, 2, 3),
    1: (0, 3, 2),
    2: (0, 1, 3),
    3: (0, 2, 1),
}
# the corners of face f in sorted order, the order in which a glue line
# lists their images
FACE_CORNERS = {f: tuple(sorted(c)) for f, c in FACE_CYCLES.items()}


class GluingError(EntryError):
    """A refused gluing table.  ``entry`` is the key of the gluing entry
    the refusal was found at, or None when it names no entry."""


class OrientationError(GluingError):
    """A gluing entry that does not reverse orientation."""


# the six corner pairs (edges) of a tetrahedron, in combination order
EDGE_PAIRS = tuple(frozenset(p) for p in itertools.combinations(range(4), 2))


# the three opposite-edge pairs of a tetrahedron, in form order: the first
# members {0,2}, {2,1}, {1,0} run around face 3, the cycle (0, 2, 1), so the
# cyclic order of the pairs is the one entering the tetrahedron form
OPPOSITE_PAIRS = [(frozenset((0, 2)), frozenset((1, 3))),
                  (frozenset((1, 2)), frozenset((0, 3))),
                  (frozenset((0, 1)), frozenset((2, 3)))]

# choice k of a tetrahedron sets the pair sums CHOICE_PAIRS[k] equal
CHOICE_PAIRS = ((0, 1), (0, 2), (1, 2))

# edge k of a tetrahedron is EDGE_PAIRS[k]; both orders of its corners map
# to k
_EDGE_INDEX = {p: k for k, e in enumerate(EDGE_PAIRS)
               for p in itertools.permutations(e)}
_EDGE_REPRS = list(map(repr, EDGE_PAIRS))
# side k of face f runs from corner FACE_CYCLES[f][k] to the next one: the
# edge of each of its three sides, in side order
_FACE_SIDES = {f: [_EDGE_INDEX[c[k], c[(k + 1) % 3]] for k in range(3)]
               for f, c in FACE_CYCLES.items()}
# the 48 orientation-reversing maps of a face f onto a face f2, each taking
# f's cycle to a rotation k of f2's reversed cycle, keyed by f, f2 and the
# images of f's corners in sorted order; each gives the pair's three edge
# merges (k, k2) in combination order
_FACE_MAPS = {
    (f, f2, *map(p.get, FACE_CORNERS[f])): tuple(
        (_EDGE_INDEX[a, b], _EDGE_INDEX[p[a], p[b]])
        for a, b in itertools.combinations(FACE_CORNERS[f], 2))
    for f, f2, k in itertools.product(range(4), range(4), range(3))
    for p in [dict(zip(FACE_CYCLES[f], (FACE_CYCLES[f2][::-1] * 2)[k:k + 3]))]}
# OPPOSITE_PAIRS as edge indices; choice k sets the sum of edges a and b
# equal to that of x and y in _CHOICE_EDGES[k] = (a, b, x, y); the wedges
# (a, b) of consecutive pair sums in the tetrahedron form
_OPPOSITE_EDGES = [tuple(map(EDGE_PAIRS.index, p)) for p in OPPOSITE_PAIRS]
_CHOICE_EDGES = [_OPPOSITE_EDGES[i] + _OPPOSITE_EDGES[j]
                 for i, j in CHOICE_PAIRS]
_FORM_WEDGES = [(a, b) for i in range(3) for a in _OPPOSITE_EDGES[i]
                for b in _OPPOSITE_EDGES[(i + 1) % 3]]


class IsotropyError(ValueError):
    """A check of ``Triangulation3.isotropy_certificate`` that failed."""


@functools.cache
def _tet_lemma():
    """Check, once per process, that the tetrahedron form ``w`` vanishes on
    each choice hyperplane, the kernel of a choice's linear form ``p``: it
    does iff the 3-form ``w ∧ p`` is 0, at each ``i < j < l``."""
    w = [[dict(r).get(j, 0) for j in range(6)]
         for r in wedge_rows(range(6), _FORM_WEDGES).values()]
    for k, (a, b, x, y) in enumerate(_CHOICE_EDGES):
        p = [(e in (a, b)) - (e in (x, y)) for e in range(6)]
        if any(w[i][j] * p[l] - w[i][l] * p[j] + w[j][l] * p[i]
               for i, j, l in itertools.combinations(range(6), 3)):
            raise IsotropyError(
                f"the tetrahedron form does not vanish on choice {k}")


def _gluing_refusal(index, glued, entry, t2, f2, perm):
    """The refusal of a gluing entry ``entry -> (t2, f2, perm)`` that
    ``_validate_gluings`` did not take, from the first check it fails,
    naming ``entry``."""
    t, f = entry
    for x in (t, t2):
        if x not in index:
            return GluingError(f"gluing touches unknown tetrahedron {x!r}",
                               entry)
    if not 0 <= f <= 3 or not 0 <= f2 <= 3:
        return GluingError(f"face index out of range at {(t, f)}", entry)
    # a face index in range that is not an int has no corners
    if f not in FACE_CORNERS or perm.keys() != set(FACE_CORNERS[f]):
        return GluingError(f"bad permutation domain at {(t, f)}", entry)
    if f2 not in FACE_CORNERS or set(perm.values()) != set(FACE_CORNERS[f2]):
        return GluingError(f"bad permutation range at {(t, f)}", entry)
    if (t2, f2) == (t, f):
        return GluingError("face glued to itself", entry)
    for tf in ((t, f), (t2, f2)):
        if tf in glued:
            return GluingError(f"face {tf} glued twice", entry)
    # every other bijection of a face's corners is in _FACE_MAPS
    return OrientationError(
        f"gluing at {(t, f)} is not orientation-reversing", entry)


class Triangulation3:
    """Oriented tetrahedra glued in pairs of faces, orientation-reversing:
    an oriented pseudo-manifold, whose vertex links are not checked.

    ``tets`` is an iterable of tetrahedron ids.  ``gluings`` maps
    ``(tet, face)`` to ``(tet2, face2, perm)``, one entry per glued face
    pair, where ``perm`` is a dict from the three corner slots of the face
    to corner slots of the other; a face is in at most one entry, as key or
    target.  ``self.gluings`` holds exactly these entries, uncopied.
    """

    def __init__(self, tets, gluings):
        self.tets = sorted(tets, key=repr)
        if not self.tets:
            raise ValueError("need at least one tetrahedron")
        self._index = dict(zip(self.tets, range(len(self.tets))))
        if len(self._index) < len(self.tets):
            dup = next(t for i, t in enumerate(self.tets)
                       if t in self.tets[:i])
            raise GluingError(f"tetrahedron {dup!r} listed twice")
        self.gluings = dict(gluings)
        merges, glued = self._validate_gluings()
        self._build_boundary(glued, self._build_classes(merges))

    # -- validation ------------------------------------------------------------

    def _validate_gluings(self):
        """Check each entry of ``gluings``, one glued face pair, by one
        lookup in ``_FACE_MAPS``; return the pairs' edge merges as slot
        pairs, three per entry in combination order, and the glued faces,
        as the keys of a dict.  A refusal names the entry it was found at
        as ``entry``."""
        index, merges, glued = self._index, [], {}
        for (t, f), (t2, f2, perm) in self.gluings.items():
            # the lookup sees f, f2 and the images of f's corners; not the
            # tets, other keys of perm, or the faces glued before
            key = (f, f2, *map(perm.get, FACE_CORNERS.get(f, ())))
            maps = t in index and t2 in index and len(perm) == 3 and \
                _FACE_MAPS.get(key)
            if not maps or (t2, f2) == (t, f) or (t, f) in glued or \
                    (t2, f2) in glued:
                raise _gluing_refusal(index, glued, (t, f), t2, f2, perm)
            glued[t, f] = glued[t2, f2] = None
            i, i2 = 6 * index[t], 6 * index[t2]
            (a, a2), (b, b2), (c, c2) = maps
            merges += ((i + a, i2 + a2), (i + b, i2 + b2), (i + c, i2 + c2))
        return merges, glued

    def _build_classes(self, merges):
        """Edge classes: edge ``EDGE_PAIRS[k]`` of tet ``i`` is slot ``6i +
        k`` of one integer ``union_find`` over the ``merges`` of the face
        pairs' entries, and a class id is the ``(tet, edge)`` of its root
        slot.  Returns root slot -> id, in ``edge_classes`` order."""
        tets = self.tets
        roots = self._edge_roots = union_find(6 * len(tets), merges)[0]
        # repr((t, e)) spelled out from one repr per tet
        rt = list(map(repr, tets))
        named = {r: (tets[r // 6], EDGE_PAIRS[r % 6]) for r in sorted(
            set(roots), key=lambda r: f"({rt[r // 6]}, {_EDGE_REPRS[r % 6]})")}
        self.edge_classes = list(named.values())
        return named

    @functools.cached_property
    def edge_class(self):
        """The class of each ``(tet, edge)`` slot, built on first read."""
        slots = [(t, e) for t in self.tets for e in EDGE_PAIRS]
        return dict(zip(slots, [slots[r] for r in self._edge_roots]))

    @functools.cached_property
    def vertex_class(self):
        """Corner classes, merged across each entry of ``gluings`` with
        corner ``v`` of tet ``i`` as slot ``4i + v``."""
        slots = [(t, v) for t in self.tets for v in range(4)]
        roots, _ = union_find(len(slots), (
            (4 * self._index[t] + v, 4 * self._index[t2] + v2)
            for (t, _), (t2, _, perm) in self.gluings.items()
            for v, v2 in perm.items()))
        return dict(zip(slots, [slots[r] for r in roots]))

    # -- boundary ---------------------------------------------------------------

    def _build_boundary(self, glued, named):
        """The boundary surface, one oriented triangle per unglued face, and
        ``columns``, the one column order of every cached row: the interior
        classes of ``named`` (root slot -> id, in class order), then the
        boundary classes in reverse ``boundary.edge_classes`` order (see
        ``compute_cone``).

        An edge class is one link arc or one link circle, so a class that
        reaches the boundary has exactly two free face sides, and those two
        are glued in the boundary surface; ``boundary_edge_to_class`` is
        then injective.  Side ``k`` of face ``(t, f)`` is the edge from
        corner ``FACE_CYCLES[f][k]`` to the next corner of the cycle.
        ``boundary_components`` flags the tori, whose classes form
        ``torus_classes``.
        """
        index, roots, sides = self._index, self._edge_roots, {}
        self.boundary_faces = [(t, f) for t in self.tets for f in range(4)
                               if (t, f) not in glued]
        # one tuple per face and per side, shared by every table built here
        triangles = {tf: ((*tf, 0), (*tf, 1), (*tf, 2))
                     for tf in self.boundary_faces}
        for (t, f), ds in triangles.items():
            for d, e in zip(ds, _FACE_SIDES[f]):
                sides.setdefault(roots[6 * index[t] + e], []).append(d)
        for r, pair in sides.items():
            if len(pair) != 2:
                raise ValueError(f"edge class {named[r]!r} has {len(pair)} "
                                 f"free face sides, not 2")
        # a closed manifold has no boundary, and its empty surface no parts
        surf = SurfaceTriangulation(triangles, dict(sides.values()))
        self.boundary = surf if triangles else None
        root_of = {surf.edge_class[pair[0]]: r for r, pair in sides.items()}
        self.boundary_edge_to_class = {E: named[r] for E, r in root_of.items()}
        # a vertex class ((t, f), i) and an edge class (t, f, k) lie on the
        # triangle (t, f); each component's part of surf.edge_classes keeps
        # its repr order.  On a closed surface E = 3T/2, so the Euler
        # characteristic V - E + T of a component is V - T/2: it needs the
        # count of its vertex classes and no set of its edges
        comps = surf.components()
        comp_of = {t: i for i, comp in enumerate(comps) for t in comp}
        verts, edges = [0] * len(comps), [[] for _ in comps]
        for t, _ in surf.vertex_classes:
            verts[comp_of[t]] += 1
        for E in surf.edge_classes:
            edges[comp_of[E[:2]]].append(E)
        self.boundary_components = [
            {"triangles": comp, "edge_classes": es, "genus": (2 - chi) // 2,
             "torus": chi == 0}
            for comp, es, v in zip(comps, edges, verts)
            for chi in [v - len(comp) // 2]]
        self.torus_classes = {self.boundary_edge_to_class[E]
                              for c in self.boundary_components if c["torus"]
                              for E in c["edge_classes"]}
        order = [r for r in named if r not in sides] + [
            root_of[E] for E in reversed(surf.edge_classes)]
        self.columns = [named[r] for r in order]
        column = dict(zip(order, range(len(order))))
        # the columns of each tet's six edges, six consecutive slots
        self._tet_columns = list(zip(*[map(column.__getitem__, roots)] * 6))

    # -- constraint rows: built on first use, shared by every caller ------------

    @functools.cached_property
    def torus_rows(self):
        """Unit rows pinning every torus class, in column order."""
        return [linalg.row([(c, 1)]) for c, E in enumerate(self.columns)
                if E in self.torus_classes]

    @functools.cached_property
    def choice_rows(self):
        """``choice_rows[t][k]`` sets the pair sums ``CHOICE_PAIRS[k]`` of
        tetrahedron ``t`` equal."""
        return {t: [linalg.row(((c[a], 1), (c[b], 1), (c[x], -1), (c[y], -1)))
                    for a, b, x, y in _CHOICE_EDGES]
                for t, c in zip(self.tets, self._tet_columns)}

    # -- forms -------------------------------------------------------------------

    @functools.cached_property
    def form_rows(self):
        """``wedge_rows`` over ``columns`` of twice the total form: a
        tetrahedron's form is -1/2 of the cyclic sum of wedges of its three
        opposite-pair sums, in ``OPPOSITE_PAIRS`` order."""
        return wedge_rows(self.columns, [(c[a], c[b]) for c in
                                         self._tet_columns
                                         for a, b in _FORM_WEDGES])

    def omega(self, u, v):
        """Sum of the tetrahedron forms over all tetrahedra."""
        return form_value(self.form_rows, self.columns, u, v)

    # read by name: perfbench/spans.py traces it, and acceptance criterion 2
    # calls it
    omega_fast = omega

    def restrict(self, w):
        """Boundary restriction: forget interior classes, keep the weight
        on the boundary surface's undirected edges (none if closed)."""
        return {E: w[cls] for E, cls in self.boundary_edge_to_class.items()}

    def boundary_form(self, ub, vb):
        """Per-triangle form of the boundary surface on boundary weights."""
        if self.boundary is None:
            return Fraction(0)
        return triangle_form_sum(self.boundary, ub, vb)

    # -- choice subspaces ---------------------------------------------------------

    def w4_subspace(self, choices):
        """Reduced-echelon basis, in column order, of one choice subspace.

        ``choices`` maps every tetrahedron to 0, 1, or 2.  The subspace is
        cut out by one pair-sum equality per tetrahedron plus zero weight
        on every edge class of each torus boundary component.  A vector is
        ``(L, {class: n})``, the weight ``n / L`` on the classes it does not
        vanish on, as ``linalg.reduced_kernel`` gives it.
        """
        cls = self.columns
        sysm = linalg.IncrementalSystem(len(cls))
        for row in self.torus_rows + [self.choice_rows[t][choices[t]]
                                      for t in self.tets]:
            sysm.push(row, 0)
        return [(L, {cls[c]: x for c, x in vec.items()})
                for L, vec in linalg.reduced_kernel(sysm.reduced(), len(cls))]

    def w4_member(self, w):
        """Whether every tetrahedron satisfies some pair-sum equality, a set
        containing the tree (four-point) locus, with the satisfied
        equalities of each tet as evidence.  Works for rational or
        tuple-valued weights (only addition and comparison are used)."""
        per_tet, x = {}, [w[E] for E in self.columns]
        for t, c in zip(self.tets, self._tet_columns):
            sums = [x[c[a]] + x[c[b]] for a, b in _OPPOSITE_EDGES]
            per_tet[t] = [k for k, (i, j) in enumerate(CHOICE_PAIRS)
                          if sums[i] == sums[j]]
        return all(per_tet.values()), per_tet

    def isotropy_check(self, choices):
        """Whether the total form vanishes on one choice subspace: ``omega``
        on every pair of its basis vectors ``(L, {class: n})``, taken on the
        numerators ``n``, positive multiples that keep each value zero or
        nonzero."""
        basis = [v for _, v in self.w4_subspace(choices)]
        return not any(self.omega(u, v) for j, v in enumerate(basis)
                       for u in basis[:j])

    def isotropy_certificate(self):
        """Check the proof that every choice subspace is isotropic, and
        return the sizes it covers: the tet lemma (``_tet_lemma``), and
        Stokes, which needs only the face pairing: ``form_rows`` has no
        entry in an interior class, and its boundary block is the
        ``wedge_rows`` of the sides of each triangle of ``boundary``.  A
        failed check raises ``IsotropyError`` naming its choice, class or
        triangle."""
        _tet_lemma()
        surf, cls = self.boundary, self.columns
        tris, edges = (surf.triangles, surf.edge_classes) if surf else ({}, [])
        # the boundary columns hold the boundary classes in reverse order
        col = {E: len(cls) - 1 - i for i, E in enumerate(edges)}
        block = wedge_rows(cls, [
            (col[surf.edge_class[d]], col[surf.edge_class[ds[(i + 1) % 3]]])
            for ds in tris.values() for i, d in enumerate(ds)])
        for c, E in enumerate(cls):
            if self.form_rows[E] != block[E]:
                at = next((f"class {E!r} of triangle {t!r}" for t, ds in
                           tris.items() if c in [col[surf.edge_class[d]]
                                                 for d in ds]),
                          f"interior class {E!r}")
                raise IsotropyError(
                    f"the total form differs from the boundary form at {at}")
        return {"choices": len(_CHOICE_EDGES), "boundary_triangles": len(tris),
                "interior_classes": len(cls) - len(edges)}


# -- boundary train tracks and the cone -----------------------------------------


class BoundaryTrack:
    """Dual train track on the non-torus boundary of a triangulation.

    ``outgoing`` assigns to each boundary triangle (on non-torus
    components) the slot 0..2 of its outgoing dual branch, and the
    switches follow its order.  Branch ids are the undirected edge classes
    of the boundary surface; torus components carry no track and their
    edges are constrained to zero elsewhere.
    """

    def __init__(self, manifold, outgoing):
        surf = manifold.boundary
        if surf is None:
            raise ValueError("manifold has no boundary")
        torus_tris = {t for comp in manifold.boundary_components
                      if comp["torus"] for t in comp["triangles"]}
        if set(outgoing) != set(surf.triangles) - torus_tris:
            raise ValueError("outgoing slots must cover exactly the "
                             "non-torus boundary triangles")
        # the non-torus triangles are whole components of the boundary,
        # so the track on them alone has the same switches and branch ids
        # as on a surface of their own
        self.track = track_dual_to_triangulation(surf, outgoing)

    def weight_space_dim(self):
        return len(self.track.integer_basis)


class PLCone:
    """Finite union of rational polyhedral cones in boundary weight space.

    Each component is the reduced-echelon basis of a linear span inside
    the admissible weight space of the boundary track, intersected with
    the nonnegativity block on all branch coordinates.  Components are
    deduplicated by their canonical span.
    """

    def __init__(self, edge_order, components):
        self.edge_order = list(edge_order)
        self.components = components  # list of dicts

    def __len__(self):
        return len(self.components)


def walk(sysm, options, leaf):
    """Depth-first walk over choice vectors, with conflict-directed
    backjumping (Prosser 1993), in one loop: ``options[i]`` lists tet
    ``i``'s ``(k, row, b)`` in the order tried, and the row is pushed under
    the tag ``1 << i``, so a contradiction names the tets it depends on and
    the walk jumps straight back to the deepest of them.  At a consistent
    vector ``combo``, the ``k`` per tet, ``leaf(combo)`` returns True to
    stop there: ``walk`` returns ``combo`` and ``sysm`` keeps its rows.
    Else the walk goes on, and returns None with ``sysm`` at its start."""
    push, pivots, rollback = sysm.push, sysm.pivots, sysm.rollback
    n = len(options)
    combo = [None] * n
    # per depth: the next option, the conflict so far and the mark its
    # pushes roll back to; depth n is the leaf, and marks[-1] the start
    nxt, conflicts = [0] * (n + 1), [0] * (n + 1)
    marks = [len(pivots)] * (n + 2)
    i = 0
    while True:
        if i == n:
            if leaf(tuple(combo)):
                return tuple(combo)
            sub = -1    # a continuing leaf names every tet: none is skipped
        elif nxt[i] == len(options[i]):
            sub = conflicts[i]      # tet i has no option left
        else:
            combo[i], row, b = options[i][nxt[i]]
            nxt[i] += 1
            if push(row, b, 1 << i):
                i += 1
                nxt[i], conflicts[i], marks[i] = 0, 0, len(pivots)
            else:
                # a failed push stored nothing, and its conflict names tet
                # i, whose tag it carries: tet i tries its next option
                conflicts[i] |= sysm.conflict
            continue
        # land at j, the deepest tet before i that sub names: each tet in
        # between played no part, so its other options fail the same way
        j = (sub & ((1 << i) - 1)).bit_length() - 1
        if len(pivots) > marks[j]:
            rollback(marks[j])
        if j < 0:
            return None
        conflicts[j] |= sub
        i = j


def compute_cone(manifold, btrack, choice_iter=None):
    """Union over choice vectors of restricted subspaces meeting the track.

    For each choice vector the subspace is restricted to boundary-edge
    coordinates and intersected with the switch-relation space of the
    boundary track; identical spans are merged.  ``choice_iter=None``
    walks the full product over tetrahedra (exact cone) and folds each
    stored row into its parent's form; a sampled iterator gives a partial
    union, one walk and one reduction per vector, and refuses a vector of
    the wrong length (``ValueError``).  The rows that pivot on the boundary
    columns, from ``first`` in reverse edge order, cut out a component.
    """
    tets = manifold.tets
    edge_order = manifold.boundary.edge_classes
    sysm = linalg.IncrementalSystem(len(manifold.columns))
    first = sysm.ncols - len(edge_order)
    # the torus pins also zero the torus edges of every component span
    for row in manifold.torus_rows + btrack.track.switch_rows(
            {E: first + i for i, E in enumerate(reversed(edge_order))}):
        sysm.push(row, 0)
    options = [[(k, row, 0) for k, row in enumerate(manifold.choice_rows[t])]
               for t in tets]
    seen, trail = {}, [] if choice_iter is None else None

    def record(combo):
        red = sysm.reduced(first, trail)
        key = frozenset((p, d, frozenset(n.items()))
                        for p, (d, n) in red.items())
        if key not in seen:
            # a kernel vector's last column is its free one, so the kernel
            # read backwards is the span's reduced echelon form
            span = [[Fraction(vec.get(k, 0), L)
                     for k in reversed(range(len(edge_order)))]
                    for L, vec in reversed(linalg.reduced_kernel(
                        red, sysm.ncols, first))]
            seen[key] = {"span": span, "dimension": len(span),
                         "choice": dict(zip(tets, combo))}
        return False

    if choice_iter is None:
        walk(sysm, options, record)
    else:
        for combo in choice_iter:
            walk(sysm, [[opts[k]] for opts, k in
                        zip(options, combo, strict=True)], record)
    components = list(seen.values())
    if len(components) > 1:
        components.sort(key=lambda c: (c["dimension"], repr(c["span"])))
    return PLCone(edge_order, components)


class MemberResult:
    def __init__(self, member, reason=None, witness=None, choices=None):
        self.member = member
        self.reason = reason
        self.witness = witness      # dict edge class -> Fraction
        self.choices = choices      # dict tet -> 0/1/2


def member(manifold, btrack, w_boundary):
    """Exact membership of a boundary weight in the cone, with a witness.

    ``w_boundary`` maps the boundary surface's undirected edges (the
    track's branches, plus any torus edges, which must be zero) to
    rationals.  The weight must satisfy nonnegativity and the switch
    relations; membership then asks for an exact extension to all edge
    classes satisfying one pair-sum equality in every tetrahedron and zero
    on torus classes: the first consistent choice vector of ``walk`` over
    the choice rows, with the boundary values folded in as constants."""
    # the boundary values are constants on the boundary columns, the suffix
    # from first in reverse edge order, all scaled by the common denominator
    # D so that every row is integral; each witness value is one Fraction
    # over D times its d.  Signs and switch relations are checked on these
    # integer pins
    track, pins = btrack.track, manifold.boundary.edge_classes[::-1]
    values = [rat(w_boundary.get(E, 0)) for E in pins]
    D = math.lcm(*[val.denominator for val in values])
    pinned = [val.numerator * (D // val.denominator) for val in values]
    at = dict(zip(pins, pinned))
    for e in track.branches:
        if e not in w_boundary:
            return MemberResult(False, reason=f"missing weight for {e!r}")
        if at[e] < 0:
            return MemberResult(False, reason="negative")
    if any(at[a] + at[b] != at[c] for a, b, c in track.switches.values()):
        return MemberResult(False, reason="switch")
    first = len(manifold.columns) - len(pins)
    # every torus class is a boundary class, so it is pinned
    if any(pinned[c - first] for row in manifold.torus_rows for c, _ in row):
        return MemberResult(False, reason="torus-nonzero")

    # fold the pins into the choice rows once: a row, sorted by column, is
    # split at first into its interior prefix and its pinned suffix, which
    # moves to the right-hand side, so the system spans the interior only
    sysm, options = linalg.IncrementalSystem(first), []
    for t in manifold.tets:
        options.append(opts := [])
        for k, row in enumerate(manifold.choice_rows[t]):
            j, b = bisect.bisect_left(row, (first,)), 0
            for c, x in row[j:]:
                b -= x * pinned[c - first]
            opts.append((k, row[:j], b))
    combo = walk(sysm, options, lambda combo: True)
    if combo is None:
        return MemberResult(False, reason="no-choice-vector")
    # with the free classes at 0, a pivot's affine reduced row d x +
    # n[first] = 0 gives D times its value as x = -n[first] / d; a pinned
    # class reads as the row x - pinned = 0
    red = sysm.reduced()
    witness = dict(zip(manifold.columns, [
        Fraction(-n.get(first, 0), d * D)
        for c in range(first) for d, n in [red.get(c, (1, {}))]]
        + [Fraction(b, D) for b in pinned]))
    return MemberResult(True, witness=witness,
                        choices=dict(zip(manifold.tets, combo)))


# -- product triangulations -------------------------------------------------


def _acyclic_edge_senses(surface):
    """Per-edge rising directions with no triangle cyclically ordered.

    Returns a dict mapping each undirected edge class to True when its
    canonical directed edge points from the lower to the higher corner.
    Found by deterministic backtracking in one loop over the edges in id
    order, trying True before False and undoing a value as soon as one of
    the two triangles of the edge just set has all three edges assigned
    and is cyclic; there is no propagation.  A solution always exists at
    the sizes used here.
    """
    edges = surface.edge_classes
    assign = {}

    def triangle_ok(t):
        # a side rises iff its class rises and it is canonical, or neither
        senses = set()
        for d in surface.triangles[t]:
            E = surface.edge_class[d]
            if E not in assign:
                return True
            senses.add(assign[E] == (d == E))
        return len(senses) == 2

    i = 0
    while 0 <= i < len(edges):
        E = edges[i]
        if assign.get(E) is False:     # both values failed: back up
            del assign[E]
            i -= 1
            continue
        assign[E] = E not in assign
        if all(triangle_ok(surface.locate(d)[0])
               for d in (E, surface.glue[E])):
            i += 1
    if i < 0:
        raise ValueError("no acyclic edge orientation found")
    return assign


class ProductTriangulation:
    """The product of a closed oriented surface with an interval.

    Every triangle ``t`` becomes a prism cut into three tetrahedra along a
    staircase fixed by its corner ranks.  The edge senses of
    ``_acyclic_edge_senses`` leave no triangle cyclic, so corner ``i`` has
    ``rank(i) = [edge i falls] + [edge i-1 rises]`` neighbors below it and
    the staircases agree across every edge.  With ``σ`` the corners in rank
    order:

    - piece ``k`` is the tetrahedron ``f"{t}.{k}"``; its slots hold the
      bottom corners ``σ[:3-k]``, then the top corners ``σ[2-k:]``, with
      the first two slots swapped where that orients it positively;
    - over the edge from corner ``lo`` up to corner ``hi``, the lower wall
      triangle (bottom ``lo`` and ``hi``, top ``hi``) is in piece
      ``2 - rank(hi)`` and the upper one (bottom ``lo``, top ``hi`` and
      ``lo``) is in piece ``2 - rank(lo)``;
    - the bottom copy of ``t`` is the face of piece 0 opposite its single
      top corner, and the top copy is the face of piece 2 opposite its
      single bottom corner.

    The boundary is these two copies of the surface, with opposite induced
    orientations.  Slot ``kk`` of a copy runs between corners ``a`` and
    ``b`` of ``t``; it is surface slot ``a`` if ``b == a+1 (mod 3)`` and
    ``b`` otherwise.

    Attributes: ``manifold``; per-copy data ``bottom`` and ``top`` mapping
    each surface triangle to ``(boundary_triangle, slot_map)`` where
    ``slot_map[surface_slot] = boundary_slot``; and ``bottom_edge_of`` /
    ``top_edge_of`` mapping each surface edge class to the corresponding
    undirected edge of the boundary surface.
    """

    def __init__(self, surface):
        self.surface = surface
        senses = _acyclic_edge_senses(surface)
        # sigma[t]: the corners of t in rank order, so rank(c) is
        # sigma[t].index(c); nodes[t, k]: the (level, corner) in each slot
        # of piece k, level 1 on top
        sigma, nodes, gluings = {}, {}, {}

        def glue(t, k, tri, t2, k2, tri2):
            """Glue the faces spanned by matching ordered node triples."""
            a = [nodes[t, k].index(n) for n in tri]
            b = [nodes[t2, k2].index(n) for n in tri2]
            perm = dict(zip(a, b))
            f, f2 = 6 - sum(a), 6 - sum(b)
            gluings[(f"{t}.{k}", f)] = (f"{t2}.{k2}", f2, perm)

        for t, ds in surface.triangles.items():
            rises = [senses[surface.edge_class[d]]
                     == (d == surface.edge_class[d]) for d in ds]
            rank = [(not rises[i]) + rises[i - 1] for i in range(3)]
            s = sigma[t] = sorted(range(3), key=rank.__getitem__)
            odd = s[1] != (s[0] + 1) % 3
            for k in range(3):
                ns = [(0, c) for c in s[:3 - k]] + [(1, c) for c in s[2 - k:]]
                if odd != (k == 1):
                    ns[:2] = ns[1::-1]
                nodes[t, k] = ns
            tri01 = [(0, s[0]), (0, s[1]), (1, s[2])]
            glue(t, 0, tri01, t, 1, tri01)
            tri12 = [(0, s[0]), (1, s[1]), (1, s[2])]
            glue(t, 1, tri12, t, 2, tri12)

        for E in surface.edge_classes:
            t, i = surface.locate(E)
            t2, j = surface.locate(surface.glue[E])
            # tail of E ~ head of its partner, head of E ~ tail of the partner
            phi = {i: (j + 1) % 3, (i + 1) % 3: j}
            lo, hi = sorted(phi, key=sigma[t].index)
            # the lower wall holds hi on both levels, the upper one lo
            for both, tri in ((hi, [(0, lo), (0, hi), (1, hi)]),
                              (lo, [(0, lo), (1, hi), (1, lo)])):
                glue(t, 2 - sigma[t].index(both), tri,
                     t2, 2 - sigma[t2].index(phi[both]),
                     [(h, phi[c]) for h, c in tri])

        self.manifold = Triangulation3([f"{t}.{k}" for t, k in nodes], gluings)
        boundary_edge = self.manifold.boundary.edge_class
        self.bottom, self.top = {}, {}
        self.bottom_edge_of, self.top_edge_of = {}, {}
        for t, ds in surface.triangles.items():
            s = sigma[t]
            for copy, edge_of, k, apex in (
                    (self.bottom, self.bottom_edge_of, 0, (1, s[2])),
                    (self.top, self.top_edge_of, 2, (0, s[0]))):
                tet, ns = f"{t}.{k}", nodes[t, k]
                f = ns.index(apex)
                cyc = FACE_CYCLES[f]
                slot_map = {}
                for kk in range(3):
                    a, b = ns[cyc[kk]][1], ns[cyc[(kk + 1) % 3]][1]
                    i = a if b == (a + 1) % 3 else b
                    slot_map[i] = kk
                    edge_of[surface.edge_class[ds[i]]] = \
                        boundary_edge[(tet, f, kk)]
                copy[t] = ((tet, f), slot_map)


def verify_witness(manifold, btrack, w_boundary, result):
    """Check a membership witness by direct substitution, in integers: the
    witness times the lcm ``d`` of its denominators keeps every equality."""
    if not result.member:
        return False
    d = math.lcm(*[x.denominator for x in result.witness.values()])
    w = {c: x.numerator * (d // x.denominator)
         for c, x in result.witness.items()}
    ok, per_tet = manifold.w4_member(w)
    return (ok and all(k in per_tet[t] for t, k in result.choices.items())
            and all(val * b.denominator == b.numerator * d
                    for E, val in manifold.restrict(w).items()
                    for b in [rat(w_boundary.get(E, 0))])
            and all(w[cls] == 0 for cls in manifold.torus_classes))
