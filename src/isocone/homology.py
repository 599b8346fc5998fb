"""Cycles on graphs embedded in oriented surfaces, and their intersections.

A ``RibbonGraph`` is a graph with a counterclockwise cyclic order of dart
ends around every vertex, which determines a closed oriented surface.  Two
flows (rational 1-cycles on the edges) pair exactly: push the first one
slightly to the left of each edge and the second to the right, and count
signed crossings in every vertex disk.  Any matching of a system's strands
into chords gives the same count, the sum of ``x_p * y_q`` over strand
positions ``p < q`` with masses signed + flowing in, so one walk around the
disk with a running sum of the x masses finds it.  Where the walk starts
does not matter: moving the first position to the end changes the sum by
``y_p * sum(x) - x_p * sum(y)``, which is 0 as both systems balance.

The basis of ``SurfaceHomology`` (spanning-tree fundamental cycles reduced
modulo the boundaries of the faces it is given, on a triangulated surface
its triangles) and its intersection matrix serve only the induced pairing
of edge-period 1-cohomology classes: one ``linalg.rref`` of that matrix
augmented by the periods of one class.
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
        for v, ds in self.rot.items():
            for d in ds:
                e, i = d
                if self.edges[e][i] != v:
                    raise ValueError(f"dart {d} listed at wrong vertex")

    @property
    def vertices(self):
        return sorted(self.rot, key=repr)

    # -- flows ----------------------------------------------------------------

    def intersection(self, x, y):
        """Exact homological intersection number of two conservative flows;
        raises ``ValueError`` on the unbalanced masses of any other."""
        total = Fraction(0)
        for ds in self.rot.values():
            # signed masses, + flowing in, at ccw positions around the disk:
            # along each edge the x strand rides on the left of the reference
            # direction, so a tail dart reads (y, x) and a head dart (x, y).
            # The count is the sum of x_p * y_q over positions p < q: the
            # running x mass ahead of each y strand
            run = net = 0
            for e, i in ds:
                if i:
                    if m := x.get(e):
                        run += m
                    if m := y.get(e):
                        total += run * m
                        net += m
                else:
                    if m := y.get(e):
                        total -= run * m
                        net -= m
                    if m := x.get(e):
                        run -= m
            if run or net:
                raise ValueError("unbalanced masses at a vertex")
        return total


class SurfaceHomology:
    """Deterministic homology basis and cocycle pairing of a ribbon surface.

    The basis consists of fundamental cycles of edges outside a BFS spanning
    forest, reduced modulo the boundaries of ``faces``, each a list of
    darts in face order; its intersection matrix is computed with
    ``RibbonGraph.intersection``.  Disconnected surfaces are handled
    componentwise (the matrix is block diagonal).
    """

    def __init__(self, ribbon, faces):
        rg = self.ribbon = ribbon
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
        for face in faces:
            face_rows.push(linalg.row((col[e], 1 if i == 0 else -1)
                                      for e, i in face if e in col), 0)
        pivots = face_rows.pivots
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
        # J z = pb has one solution iff the pivots of (J | pb) are those of
        # the identity, and z is then the last column; the answer is -pa . z
        red, pivots = linalg.rref([r + [b] for r, b in
                                   zip(self.pairing_matrix, pb)])
        if pivots != list(range(len(pa))):
            raise ValueError("degenerate intersection matrix")
        return -sum((a * r[-1] for a, r in zip(pa, red)), Fraction(0))

    @staticmethod
    def _period(alpha, flow):
        return sum((Fraction(alpha.get(e, 0)) * val for e, val in flow.items()),
                   Fraction(0))
