"""Finite metric trees with lexicographic tuple lengths.

A ``MetricTree`` is a finite combinatorial tree whose edges carry strictly
positive ``LexVec`` lengths, all of one rank.  An optional *end* is a formal
semi-infinite ray attached at an anchor vertex; points on the ray are
recorded by their excess distance past the anchor.  That is enough structure
to evaluate horofunction differences and pushing maps exactly while keeping
every object finite.

Points of the tree (``TreePoint``) are vertices, interior points of edges
(by offset from the stored first endpoint), or ray points.  Distances are
exact LexVec values.
"""

import dataclasses
import itertools

from isocone.ordgroup import LexVec, rat, DimensionError


class NotAMetricError(ValueError):
    pass


@dataclasses.dataclass(frozen=True, slots=True)
class TreePoint:
    """A point of a MetricTree: vertex, edge-interior point, or ray point."""

    kind: str
    vertex: object = None
    edge: object = None
    offset: object = None
    excess: object = None

    def __repr__(self):
        if self.kind == "vertex":
            return f"TreePoint(vertex {self.vertex!r})"
        if self.kind == "edge":
            return f"TreePoint(edge {self.edge!r} at {self.offset!r})"
        return f"TreePoint(ray at excess {self.excess!r})"


class MetricTree:
    """Finite tree with positive LexVec edge lengths and an optional end.

    ``vertices`` lists each vertex once, and ``edges`` maps an edge id to
    ``(u, v, length)``.  The graph must be connected and acyclic; with
    distinct vertices, one edge fewer than vertices and connectivity prove
    it.  Trees are immutable once built.  One walk from the end anchor (or
    from the first vertex when there is no end) checks connectivity and
    yields the parent pointers toward the end, used by ``push``, and the
    distances from that root; ``vertex_distance`` keeps one distance dict
    per source it walks from.
    """

    def __init__(self, vertices, edges, end=None):
        self.vertices = tuple(sorted(vertices, key=repr))
        self.edges = dict(edges)
        self.end = end
        vset = set(self.vertices)
        if not vset:
            raise ValueError("tree needs at least one vertex")
        if len(vset) < len(self.vertices):
            dup = next(v for v in self.vertices if self.vertices.count(v) > 1)
            raise ValueError(f"vertex {dup!r} listed twice")

        ranks = set()
        self.adj = {v: [] for v in self.vertices}
        for eid, (u, v, length) in self.edges.items():
            if u not in vset or v not in vset:
                raise ValueError(f"edge {eid!r} touches unknown vertex")
            if not isinstance(length, LexVec):
                raise TypeError(f"edge {eid!r} length must be LexVec")
            if not length > LexVec.zero(length.rank):
                raise ValueError(f"edge {eid!r} has nonpositive length")
            ranks.add(length.rank)
            self.adj[u].append((eid, v))
            self.adj[v].append((eid, u))
        if len(ranks) > 1:
            raise DimensionError(f"mixed length ranks: {sorted(ranks)}")
        self.rank = ranks.pop() if ranks else 1

        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("edge count does not match a tree")
        root = end if end in vset else self.vertices[0]
        self._parent, dist = self._walk(root)
        if len(dist) != len(vset):
            raise ValueError("tree is not connected")
        if end is not None and end not in vset:
            raise ValueError(f"end anchor {end!r} is not a vertex")
        self._dist = {root: dist}

    def _walk(self, src):
        """Parent ``(vertex, edge)`` pointers toward src, and distances."""
        parent = {src: (None, None)}
        dist = {src: LexVec.zero(self.rank)}
        stack = [src]
        while stack:
            w = stack.pop()
            for eid, nb in self.adj[w]:
                if nb not in dist:
                    parent[nb] = (w, eid)
                    length = self.edges[eid][2]
                    dist[nb] = length if w == src else dist[w] + length
                    stack.append(nb)
        return parent, dist

    # -- point constructors ------------------------------------------------

    def point(self, v):
        if v not in self.adj:
            raise ValueError(f"unknown vertex {v!r}")
        return TreePoint("vertex", vertex=v)

    def point_on_edge(self, eid, offset):
        u, v, length = self.edges[eid]
        if offset.rank != self.rank:
            raise DimensionError("offset rank mismatch")
        zero = LexVec.zero(self.rank)
        if not (zero <= offset <= length):
            raise ValueError(f"offset {offset} outside edge {eid!r}")
        if offset == zero:
            return self.point(u)
        if offset == length:
            return self.point(v)
        return TreePoint("edge", edge=eid, offset=offset)

    def point_on_ray(self, excess):
        if self.end is None:
            raise ValueError("tree has no end")
        if excess.rank != self.rank:
            raise DimensionError("excess rank mismatch")
        zero = LexVec.zero(self.rank)
        if excess < zero:
            raise ValueError("ray excess must be nonnegative")
        if excess == zero:
            return self.point(self.end)
        return TreePoint("ray", excess=excess)

    # -- distances ---------------------------------------------------------

    def vertex_distance(self, a, b):
        if a == b and a in self.adj:
            return LexVec.zero(self.rank)
        # an unknown vertex shows as a missed lookup, so the cached path
        # pays nothing for the check; one asked for its distance to itself
        # is missed by the walk from it
        try:
            if b in self._dist:
                return self._dist[b][a]
            if a not in self._dist:
                self._dist[a] = self._walk(a)[1]
            return self._dist[a][b]
        except KeyError as e:
            raise ValueError(f"unknown vertex {e.args[0]!r}") from None

    def _point_anchors(self, p):
        """(vertex, cost) pairs through which paths from p leave its cell."""
        if p.kind == "vertex":
            # its own anchor, with no cost to add
            return [(p.vertex, None)]
        if p.kind == "edge":
            u, v, length = self.edges[p.edge]
            return [(u, p.offset), (v, length - p.offset)]
        # ray point: every path to the finite tree passes the end anchor
        return [(self.end, p.excess)]

    def distance(self, p, q):
        """Exact distance between two tree points."""
        if not isinstance(p, TreePoint) or not isinstance(q, TreePoint):
            raise TypeError("distance expects TreePoints")
        if p == q:
            return LexVec.zero(self.rank)
        if p.kind == "ray" and q.kind == "ray":
            return abs(p.excess - q.excess)
        if p.kind == "edge" and q.kind == "edge" and p.edge == q.edge:
            return abs(p.offset - q.offset)
        best = None
        for va, ca in self._point_anchors(p):
            for vb, cb in self._point_anchors(q):
                d = self.vertex_distance(va, vb)
                d = d if ca is None else ca + d
                d = d if cb is None else d + cb
                if best is None or d < best:
                    best = d
        return best

    # -- paths toward the end ----------------------------------------------

    def busemann(self, p):
        """Horofunction of the end, normalized to 0 at the anchor.

        Only rank-1 trees carry this; the value is an exact Fraction.
        Differences of values do not depend on the normalization.
        """
        if self.rank != 1:
            raise DimensionError("horofunction requires rank 1")
        if self.end is None:
            raise ValueError("tree has no end")
        if p.kind == "ray":
            return -p.excess.coords[0]
        anchor = self.point(self.end)
        return self.distance(p, anchor).coords[0]

    def push(self, p, s):
        """Slide p by distance s along its ray toward the end.

        Defined on rank-1 trees with an end.  For any two points p, q and
        any s past the junction of their rays toward the end, the images are
        exactly |busemann(p) - busemann(q)| apart; the map never increases
        distances.
        """
        if self.rank != 1:
            raise DimensionError("pushing requires rank 1")
        if self.end is None:
            raise ValueError("tree has no end")
        s = rat(s)
        if s < 0:
            raise ValueError("push distance must be nonnegative")
        if s == 0:
            return p
        # p lies `left` below w, the end-side vertex of its cell, on edge
        # eid (None at a vertex); a ray point lies -excess below the
        # anchor.  The tree has rank 1, so lengths are read as Fractions
        w, eid, left = p.vertex, None, 0
        if p.kind == "ray":
            w, left = self.end, -p.excess.coords[0]
        elif p.kind == "edge":
            u, v, length = self.edges[p.edge]
            eid, left = p.edge, p.offset.coords[0]
            # v is the end-side vertex when the edge is u's pointer
            w, left = ((v, length.coords[0] - left)
                       if self._parent[u] == (v, eid) else (u, left))
        while s > left:
            if w == self.end:
                return self.point_on_ray(LexVec([s - left]))
            s -= left
            w, eid = self._parent[w]
            left = self.edges[eid][2].coords[0]
        # short of w by left - s on eid, as an offset from its first end
        # u; point_on_edge makes the vertex w of an offset that reaches it
        u, _, length = self.edges[eid]
        x = left - s if w == u else length.coords[0] - left + s
        return self.point_on_edge(eid, LexVec([x]))


# -- four-point machinery ----------------------------------------------------


def four_point_check(dmat):
    """Whether a symmetric 4x4 distance matrix satisfies the tree condition.

    Of the three pairings d(x,y)+d(z,t), d(x,z)+d(y,t), d(x,t)+d(y,z), the
    two largest must be equal.
    """
    if len(dmat) != 4 or any(len(r) != 4 for r in dmat):
        raise ValueError("need a 4x4 matrix")
    s = sorted([dmat[0][1] + dmat[2][3], dmat[0][2] + dmat[1][3],
                dmat[0][3] + dmat[1][2]])
    return s[1] == s[2]


def _check_metric(dmat):
    n = len(dmat)
    # every row length before any entry is read, so that a single row is
    # checked too
    if any(len(row) != n for row in dmat):
        raise NotAMetricError("matrix not square")
    if not n:
        return
    # the rank of entry (0, 1), or of the one entry of a 1x1 matrix
    zero = LexVec.zero(dmat[0][min(n - 1, 1)].rank)
    # row by row; in row i the entries before the diagonal were checked
    # as their mirror images, so the diagonal is the first that can fail
    for i, j in itertools.product(range(n), repeat=2):
        if i == j and dmat[i][i] != zero:
            raise NotAMetricError("nonzero diagonal")
        if dmat[i][j] != dmat[j][i]:
            raise NotAMetricError("matrix not symmetric")
        if dmat[i][j] < zero:
            raise NotAMetricError("negative distance")
    for i, j, k in itertools.product(range(n), repeat=3):
        if dmat[i][j] > dmat[i][k] + dmat[k][j]:
            raise NotAMetricError(
                f"triangle inequality fails on ({i},{j},{k})")


def is_zero_hyperbolic(dmat):
    """The four-point check on every 4-tuple of a finite metric."""
    _check_metric(dmat)
    return all(four_point_check([[dmat[i][j] for j in q] for i in q])
               for q in itertools.combinations(range(len(dmat)), 4))


def vertex_distance_matrix(tree):
    vs = list(tree.vertices)
    return [[tree.vertex_distance(u, v) for v in vs] for u in vs]


# -- convex-subgroup subtree ----------------------------------------------------


def subtree_at(tree, x, k):
    """Subtree of points whose distance to x has zero leading coordinates.

    ``k`` indexes the convex subgroup: tuples vanishing before coordinate k
    (1-based).  The result keeps the vertices at such distances, truncates
    lengths to coordinates k..n, and is connected and contains x.
    """
    if not 1 <= k <= tree.rank:
        raise DimensionError(f"k={k} outside 1..{tree.rank}")
    keep = set()
    for v in tree.vertices:
        d = tree.vertex_distance(x, v)
        if all(c == 0 for c in d.coords[: k - 1]):
            keep.add(v)
    new_edges = {}
    for eid, (u, v, length) in tree.edges.items():
        if u in keep and v in keep:
            new_edges[eid] = (u, v, LexVec(length.coords[k - 1:]))
    end = tree.end if tree.end in keep else None
    return MetricTree(keep, new_edges, end=end)


# -- weights from maps into trees ------------------------------------------------


class TreeMap:
    """Total assignment of domain vertices to points of a target tree."""

    def __init__(self, tree, assignment):
        self.assignment = {}
        for v, p in assignment.items():
            if not isinstance(p, TreePoint):
                p = tree.point(p)
            self.assignment[v] = p

    def __call__(self, v):
        if v not in self.assignment:
            raise ValueError(f"vertex {v!r} not in the domain")
        return self.assignment[v]
