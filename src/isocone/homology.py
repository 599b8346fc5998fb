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

The basis of ``SurfaceHomology`` (the fundamental cycles that the kernel
of the vertex rows gives, reduced modulo the boundaries of the faces it is
given, on a triangulated surface its triangles) and its intersection
matrix serve only the induced pairing of edge-period 1-cohomology classes:
one ``linalg.rref`` of that matrix augmented by the periods of one class.
The pairing does not depend on the basis.
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

    One integer row per vertex, its net inflow over the edges in ``repr``
    order, makes the conservative flows the kernel of a
    ``linalg.IncrementalSystem``: the pivot columns are a spanning forest
    and the kernel vector of each free column is that edge's fundamental
    cycle, an integer flow.  The basis is the cycles of the free columns
    that are not pivots of the boundaries of ``faces``, each a list of
    darts in face order, restricted to the free columns; its intersection
    matrix is computed with ``RibbonGraph.intersection``.  A cycle lies in
    one component, so cycles of different components pair to 0.
    """

    def __init__(self, ribbon, faces):
        edges = sorted(ribbon.edges, key=repr)
        col = {e: j for j, e in enumerate(edges)}
        inflow = {v: [] for v in ribbon.rot}
        for e, (u, v) in ribbon.edges.items():
            inflow[u].append((col[e], -1))
            inflow[v].append((col[e], 1))
        verts = linalg.IncrementalSystem(len(edges))
        for terms in inflow.values():
            verts.push(linalg.row(terms), 0)
        tree = verts.reduced()
        free = [j for j in range(len(edges)) if j not in tree]
        # the incidence matrix is totally unimodular, so every kernel
        # vector has L = 1 and integer entries
        cycles = linalg.reduced_kernel(tree, len(edges))
        face_rows = linalg.IncrementalSystem(len(edges))
        for face in faces:
            face_rows.push(linalg.row((col[e], 1 if i == 0 else -1)
                                      for e, i in face if col[e] not in tree),
                           0)
        flows = self.basis_flows = [
            {edges[c]: n for c, n in vec.items()}
            for j, (_, vec) in zip(free, cycles)
            if j not in face_rows.pivots]
        # the form is antisymmetric: pair each i < j once
        J = self.pairing_matrix = [[Fraction(0)] * len(flows) for _ in flows]
        for i, j in itertools.combinations(range(len(flows)), 2):
            J[i][j] = ribbon.intersection(flows[i], flows[j])
            J[j][i] = -J[i][j]

    def pair_cocycles(self, alpha, beta):
        """Cup-product pairing of edge-period classes.

        ``alpha`` and ``beta`` assign a rational period to each edge
        (measured along the reference direction).  For classes represented
        by closed forms, the pairing equals the integral of their wedge.
        """
        pa, pb = ([sum(c.get(e, 0) * n for e, n in f.items())
                   for f in self.basis_flows] for c in (alpha, beta))
        # J z = pb has one solution iff the pivots of (J | pb) are those of
        # the identity, and z is then the last column; the answer is -pa . z
        red, pivots = linalg.rref([r + [b] for r, b in
                                   zip(self.pairing_matrix, pb)])
        if pivots != list(range(len(pa))):
            raise ValueError("degenerate intersection matrix")
        return -sum((a * r[-1] for a, r in zip(pa, red)), Fraction(0))
