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

``SurfaceHomology`` takes a basis from two greedy spanning forests of
``union_find``, the package's one union-find, for one use: the induced
pairing of edge-period 1-cohomology classes, which does not depend on it.
"""

import itertools
from fractions import Fraction

from isocone import linalg


def union_find(n, pairs):
    """Roots of the items ``0 .. n-1`` once the given pairs are merged.

    Pairs are merged in order and a merge points the first item's root at
    the second's, so the roots depend only on ``n`` and the order of
    ``pairs``.  Returns ``(roots, joins)``: ``roots[i]`` is the root of item
    ``i``, and ``joins`` the indices of the pairs that joined two classes.
    """
    # one loop over the pairs, each root found inline by path halving,
    # which moves no root; then every item is pointed at its root
    parent, joins = list(range(n)), []
    for k, (a, b) in enumerate(pairs):
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            joins.append(k)
    for x in range(n):
        r = parent[x]
        while r != parent[r]:
            r = parent[r]
        parent[x] = r
    return parent, joins


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
            for e, i in ds:
                if self.edges[e][i] != v:
                    raise ValueError(f"dart {(e, i)} listed at wrong vertex")

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

    The edges (in ``repr`` order) that join two trees make the vertex
    forest; each other edge closes a fundamental cycle, the integer flow 1
    on it and +-1 on the forest path back.  Of those, the edges that join
    two ``faces`` (dart lists, each dart in at most one), or one and the
    outside that holds every other dart, make the face forest.  The basis
    is the cycles of the rest; cycles of two components pair to 0.
    """

    def __init__(self, ribbon, faces):
        edges = sorted(ribbon.edges, key=repr)
        node = {v: k for k, v in enumerate(ribbon.rot)}
        tree = {edges[j] for j in union_find(len(node), [
            [node[v] for v in ribbon.edges[e]] for e in edges])[1]}
        free = [e for e in edges if e not in tree]
        face, out = {d: k for k, f in enumerate(faces) for d in f}, len(faces)
        cotree = {free[j] for j in union_find(out + 1, [
            [face.get((e, i), out) for i in (0, 1)] for e in free])[1]}
        # root each tree: up[x] is the edge from x to its parent, the sign
        # of that step along it, and the parent; the stack starts with
        # every vertex, and one not reached before it is popped is a root
        up, todo = {}, list(ribbon.rot)[::-1]
        while todo:
            x = todo.pop()
            up.setdefault(x, None)
            for e, i in ribbon.rot[x]:
                if e in tree and (y := ribbon.edges[e][1 - i]) not in up:
                    up[y] = (e, 2 * i - 1, x)
                    todo.append(y)
        # the cycle of edge u -> v: the path from v up to its root, then
        # the one from u negated; the part they share cancels
        flows = self.basis_flows = []
        for e in free:
            if e not in cotree:
                flow = {e: 1}
                for x, s in zip(ribbon.edges[e], (-1, 1)):
                    while up[x]:
                        d, t, x = up[x]
                        flow[d] = flow.get(d, 0) + s * t
                flows.append({d: n for d, n in flow.items() if n})
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
