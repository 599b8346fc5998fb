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

``union_find``, the package's one union-find, grows the kernel forests of
``pivot_forest`` (for ``SurfaceHomology`` and ``FlatSurface.tangent_kernel``)
and the face forest of ``SurfaceHomology``, whose one use is the pairing
of edge-period 1-cohomology classes, which does not depend on its basis.
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
        total = 0
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
        return Fraction(total)


def pivot_forest(n, ends):
    """``(free, circuit)`` of signed incidence columns on the nodes ``0 ..
    n-1``: the non-pivots in order, and the kernel vector ``(L, {column:
    m})`` of one, ``L`` its least denominator, 1 or 2."""
    # column (a, s, b, t) is s at a plus t at b, each +-1; on the double
    # cover, node x as sheets x and x + n, it joins them straight if s ==
    # -t and crosswise if s == t (docs/conventions.md, "Tangent kernel")
    adj, up, depth = [[] for _ in range(n)], [None] * n, [0] * n + [-1]
    joins = [0] * len(ends)
    for k in union_find(2 * n, [p for a, s, b, t in ends for p in (
            (a, b + n * (s == t)), (a + n, b + n * (s != t)))])[1]:
        joins[k // 2] += 1
    # the columns that join two classes there make a forest, rooted
    # breadth first at each tree's least node: up[x] is the column to x's
    # parent p, its value and p's share per unit left at x, and p, or ()
    # at a root; depth[-1] is the depth of no node
    for j, (a, s, b, t) in enumerate(ends):
        if joins[j] == 2:
            adj[a].append((b, (j, -t, -s * t, a)))
            adj[b].append((a, (j, -s, -s * t, b)))
    for root in range(n):
        todo = [root] * (up[root] is None)
        for x in todo:
            up[x] = up[x] or ()
            for y, step in adj[x]:
                if up[y] is None:
                    up[y], depth[y] = step, depth[x] + 1
                    todo.append(y)

    def walk(j):
        # column j at 1 and the forest values that carry its two entries
        # up, the deeper end first; where the ends meet, their shares add
        # (y turns to -1) and go on up while not 0.  Returns the vector and
        # each end's share with the node it stopped at: a root, or a share 0
        (x, r, y, q), vec = ends[j], {j: 1}
        while True:
            if x == y:
                r, q, y = r + q, 0, -1
            if depth[x] < depth[y]:
                x, r, y, q = y, q, x, r
            if not (r and up[x]):
                return vec, ((x, r), (y, q))
            d, c, f, x = up[x]
            vec[d], r = c * r, f * r

    # a column that joins one class of the cover joins two unbalanced
    # trees, and is free, unless its ends are in one tree: then it closes
    # that tree's unbalanced cycle, and its walk leaves +-2 at the root
    walks, loops = {}, {}
    for j in range(len(ends)):
        if joins[j] == 1:
            vec, ((z, w), (_, q)) = walks[j] = walk(j)
            if not q:
                loops[z], joins[j] = (vec, w), 2
    free = [j for j in range(len(ends)) if joins[j] < 2]

    def circuit(j):
        # a share v left at a root takes that tree's cycle times -v/w, w
        # the cycle's own share there; ends in two trees leave +-1 at
        # each root, and the vector has halves
        vec, shares = walks.pop(j, None) or walk(j)
        if not shares[0][1]:
            return 1, vec
        L = 1 + abs(shares[1][1])
        vec = {d: L * m for d, m in vec.items()}
        for z, v in shares:
            if v:
                loop, w = loops[z]
                for d, m in loop.items():
                    vec[d] = vec.get(d, 0) - L * v // w * m
        return L, {d: m for d, m in vec.items() if m}

    return free, circuit


class SurfaceHomology:
    """Deterministic homology basis and cocycle pairing of a ribbon surface.

    The edges (in ``repr`` order), -1 at the tail and +1 at the head, are
    the columns of a ``pivot_forest`` on the vertices; each free edge
    closes a fundamental cycle, the integer flow 1 on it and +-1 on the
    forest path back.  Of those, the edges that join two ``faces`` (dart
    lists, each dart in at most one), or one and the outside that holds
    every other dart, make the face forest.  The basis is the cycles of the
    rest; cycles of two components pair to 0.
    """

    def __init__(self, ribbon, faces):
        edges = sorted(ribbon.edges, key=repr)
        node = {v: k for k, v in enumerate(ribbon.rot)}
        free, circuit = pivot_forest(len(node), [
            (node[u], -1, node[v], 1) for u, v in map(ribbon.edges.get, edges)])
        face, out = {d: k for k, f in enumerate(faces) for d in f}, len(faces)
        cotree = {free[j] for j in union_find(out + 1, [
            (face.get((e, 0), out), face.get((e, 1), out))
            for e in map(edges.__getitem__, free)])[1]}
        flows = self.basis_flows = [
            {edges[c]: m for c, m in circuit(j)[1].items()}
            for j in free if j not in cotree]
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
