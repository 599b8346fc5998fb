"""Cycles on graphs embedded in oriented surfaces, and their intersections.

A ``RibbonGraph`` is a graph together with a counterclockwise cyclic order
of dart ends around every vertex; that data determines a closed oriented
surface.  Flows (rational 1-cycles supported on the edges) can be paired
exactly: the homological intersection number is computed by pushing the
first cycle slightly to the left of each edge and the second slightly to
the right, and counting signed chord crossings inside every vertex disk.
The count does not depend on how strands are routed inside a disk, so a
simple stack matching is used.

Two cycles are paired by ``RibbonGraph.intersection`` directly.  The
homology basis of ``SurfaceHomology`` (spanning-tree fundamental cycles
reduced modulo face boundaries) and its intersection matrix serve only the
induced pairing of 1-cohomology classes given by their edge periods, which
solves one linear system in that matrix.
"""

import itertools
from fractions import Fraction

from isocone import linalg


class RibbonGraph:
    """Graph with a ccw rotation system.

    ``edges`` maps an edge id to its ``(tail, head)`` vertex pair (the
    reference direction).  ``rot`` maps each vertex to the list of incident
    darts in counterclockwise order; a dart is ``(edge_id, end)`` with end 0
    at the tail and end 1 at the head.  Every dart must appear exactly once.
    """

    def __init__(self, edges, rot):
        self.edges = dict(edges)
        self.rot = {v: list(ds) for v, ds in rot.items()}
        expected = {(e, i) for e in self.edges for i in (0, 1)}
        seen = [d for ds in self.rot.values() for d in ds]
        if len(seen) != len(expected) or set(seen) != expected:
            raise ValueError("rotation system does not list each dart once")
        self.dart_vertex = {}
        for v, ds in self.rot.items():
            for d in ds:
                e, i = d
                if self.edges[e][i] != v:
                    raise ValueError(f"dart {d} listed at wrong vertex")
                self.dart_vertex[d] = v

    @property
    def vertices(self):
        return sorted(self.rot, key=repr)

    def num_faces(self):
        return len(self.faces())

    def faces(self):
        """Orbits of darts under the face-tracing permutation."""
        nxt = {}
        pos = {}
        for v, ds in self.rot.items():
            for i, d in enumerate(ds):
                pos[d] = (v, i)
        for d in pos:
            e, i = d
            opp = (e, 1 - i)
            v, j = pos[opp]
            ds = self.rot[v]
            nxt[d] = ds[(j + 1) % len(ds)]
        # each orbit starts at its first dart in repr order
        faces = []
        todo = set(nxt)
        for d in sorted(nxt, key=repr):
            orbit = []
            while d in todo:
                todo.remove(d)
                orbit.append(d)
                d = nxt[d]
            if orbit:
                faces.append(orbit)
        return faces

    def euler_characteristic(self):
        return len(self.rot) - len(self.edges) + self.num_faces()

    def genus(self):
        # the faces close every vertex disk with a dart, so the surface is
        # closed and oriented and chi is even; no caller builds a vertex
        # without darts, whose missing face would make chi odd
        return (2 - self.euler_characteristic()) // 2

    # -- flows ----------------------------------------------------------------

    def intersection(self, x, y):
        """Exact homological intersection number of two conservative flows;
        ``_chords`` refuses the unbalanced masses of any other."""
        total = Fraction(0)
        for ds in self.rot.values():
            # (position, signed mass) per system, + flowing in.  Dart k
            # owns positions 2k and 2k + 1: along each edge the x strands
            # ride on the left of the reference direction, so ccw order
            # within a tail arc is (y, x) and within a head arc (x, y)
            xs, ys = [], []
            for k, (e, i) in enumerate(ds):
                for pts, flow, p in ((xs, x, 2 * k + 1 - i),
                                     (ys, y, 2 * k + i)):
                    if m := flow.get(e):
                        pts.append((p, Fraction(m) if i else -Fraction(m)))
            xchords, ychords = _chords(xs), _chords(ys)
            for (p1, q1, m1) in xchords:
                for (p2, q2, m2) in ychords:
                    total += _crossing_sign(p1, q1, p2, q2) * m1 * m2
        return total


def _chords(points):
    """Stack matching of signed masses on a circle into directed chords.

    Points are ``(position, mass)`` with positive mass entering the disk.
    Returns chords ``(pos_in, pos_out, mass)`` with ``mass > 0``.  Any
    matching gives the same total crossing count against the other system,
    so the first-fit stack matching is as good as any.
    """
    stack = []  # (position, remaining signed mass)
    chords = []
    for pos, mass in points:
        m = mass
        while m != 0:
            if not stack or (stack[-1][1] > 0) == (m > 0):
                stack.append((pos, m))
                m = Fraction(0)
            else:
                spos, sm = stack.pop()
                take = min(abs(m), abs(sm))
                if m > 0:
                    chords.append((pos, spos, take))
                else:
                    chords.append((spos, pos, take))
                if abs(sm) > take:
                    stack.append((spos, sm + (take if m > 0 else -take)))
                m += -take if m > 0 else take
    if stack:
        raise ValueError("unbalanced masses at a vertex")
    return chords


def _crossing_sign(p, q, r, s):
    """Sign of the crossing of directed chords p->q and r->s, else 0.

    Positions are distinct integers on a ccw circle.  The chords cross iff
    exactly one of r, s lies inside the ccw arc (p, q); the sign is +1 when
    the ccw order around the circle reads p, r, q, s.
    """
    r_in = _ccw_between(p, r, q)
    s_in = _ccw_between(p, s, q)
    if r_in == s_in:
        return 0
    return 1 if r_in else -1


def _ccw_between(a, x, b):
    if a < b:
        return a < x < b
    return x > a or x < b


class SurfaceHomology:
    """Deterministic homology basis and cocycle pairing of a ribbon surface.

    The basis consists of fundamental cycles of edges outside a BFS spanning
    forest, reduced modulo face boundaries; its intersection matrix is
    computed with ``RibbonGraph.intersection``.  Disconnected surfaces are
    handled componentwise (the matrix is block diagonal).
    """

    def __init__(self, ribbon):
        self.ribbon = ribbon
        self._build()

    def _build(self):
        rg = self.ribbon
        verts = rg.vertices
        adj = {v: [] for v in verts}
        for e, (u, v) in sorted(rg.edges.items(), key=lambda kv: repr(kv[0])):
            adj[u].append((e, v))
            adj[v].append((e, u))
        # BFS spanning forest, one tree per connected component
        parent = {}
        order = []
        for root in verts:
            if root in parent:
                continue
            parent[root] = (None, None)
            order.append(root)
            qi = len(order) - 1
            while qi < len(order):
                w = order[qi]
                qi += 1
                for e, nb in adj[w]:
                    if nb not in parent:
                        parent[nb] = (w, e)
                        order.append(nb)
        tree_edges = {e for (_, e) in parent.values() if e is not None}
        self.nontree = sorted((e for e in rg.edges if e not in tree_edges),
                              key=repr)
        self._parent = parent
        self._order = order

        # face boundary flows, restricted to non-tree coordinates, as sparse
        # integer rows; their pivots are the leading columns of the span
        col = {e: j for j, e in enumerate(self.nontree)}
        face_rows = linalg.IncrementalSystem(len(col))
        for face in rg.faces():
            face_rows.push(linalg.row((col[e], 1 if i == 0 else -1)
                                      for e, i in face if e in col), 0)
        pivots = face_rows.pivot_rows
        flows = self.basis_flows = [
            self.flow_from_nontree({e: Fraction(1)})
            for j, e in enumerate(self.nontree) if j not in pivots]
        # the form is antisymmetric: pair each i < j once
        J = self.pairing_matrix = [[Fraction(0)] * len(flows) for _ in flows]
        for i, j in itertools.combinations(range(len(flows)), 2):
            J[i][j] = rg.intersection(flows[i], flows[j])
            J[j][i] = -J[i][j]

    def flow_from_nontree(self, nontree_values):
        """The unique conservative flow with the given non-tree values."""
        rg = self.ribbon
        flow = {e: Fraction(v) for e, v in nontree_values.items()}
        # net inflow at each vertex from the edges fixed so far
        net = {v: Fraction(0) for v in rg.rot}
        for e, val in flow.items():
            u, v = rg.edges[e]
            net[v] += val
            net[u] -= val
        # children-first: conservation at v pins the flow on its tree edge,
        # and pushes the surplus net[v] up to the parent either way
        for v in reversed(self._order):
            p, e = self._parent[v]
            if p is None:
                continue
            u, w = rg.edges[e]
            flow[e] = -net[v] if w == v else net[v]
            net[p] += net[v]
            net[v] = Fraction(0)
        return {e: val for e, val in flow.items() if val != 0}

    def pair_cocycles(self, alpha, beta):
        """Cup-product pairing of edge-period classes.

        ``alpha`` and ``beta`` assign a rational period to each edge
        (measured along the reference direction).  For classes represented
        by closed forms, the pairing equals the integral of their wedge.
        """
        pa = [self._period(alpha, f) for f in self.basis_flows]
        pb = [self._period(beta, f) for f in self.basis_flows]
        # solve J z = pb, answer is -pa . z
        sol = linalg.solve([list(r) for r in self.pairing_matrix], pb)
        if sol is None:
            raise ValueError("degenerate intersection matrix")
        return -sum((a * z for a, z in zip(pa, sol)), Fraction(0))

    @staticmethod
    def _period(alpha, flow):
        return sum((Fraction(alpha.get(e, 0)) * val for e, val in flow.items()),
                   Fraction(0))
