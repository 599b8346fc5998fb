"""Triangulated oriented surfaces, train tracks, and weight-space forms.

A ``SurfaceTriangulation`` stores oriented triangles as counterclockwise
triples of directed edge ids together with a perfect matching of directed
edges (two triangles traverse a shared undirected edge in opposite
directions).  A ``TrainTrack`` is a trivalent switched graph: every switch
has two incoming slots and one outgoing slot, listed as a positively
oriented (counterclockwise) triple ``(a, b, c)``.

Weights live on branches; the admissible ones satisfy the switch relation
``w(a) + w(b) = w(c)`` at every switch.  The skew pairing of two admissible
weights is half the sum over switches of the 2x2 determinant of incoming
values.  The same pairing is computed independently as the form of the dual
triangulation, the sum of the wedges of its triangles' sides (``form_value``),
and, for consistently orientable tracks, as the ribbon intersection number
of the weighted cycles of the two weights, which reads neither the switch
formula nor a homology basis.
"""

import functools
import itertools
from collections import Counter
from fractions import Fraction

from isocone.ordgroup import rat
from isocone.homology import RibbonGraph, union_find
from isocone import linalg


class EntryError(ValueError):
    """A refused input; ``entry`` keys the entry at fault, if it names one."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class NotMaximalError(ValueError):
    """Some complementary region of the track is not a trigon."""


class NotOrientableError(ValueError):
    """The track admits no consistent smooth orientation."""


class InvalidWeightError(ValueError):
    """A weight violating the switch relations was supplied."""


def _exact(x):
    """A weight as an exact number: an int or ``Fraction`` as it is,
    anything else through ``rat``, so integer weights sum as integers."""
    return x if isinstance(x, (int, Fraction)) else rat(x)


class SurfaceTriangulation:
    """Closed oriented surface built from oriented triangles.

    ``triangles`` maps a triangle id to a ccw triple of directed edge ids;
    an entry ``d: d2`` of ``gluings`` pairs two oppositely traversed edges,
    named from either end or both; ``glue`` lists both ends of each pair in
    turn, pairs in the order first named.  A refusal names ``("triangle",
    t)`` or ``("glue", d)``, or the triangle of the first edge listed unglued.
    """

    def __init__(self, triangles, gluings):
        self.triangles = {t: tuple(ds) for t, ds in triangles.items()}
        # side i of the p-th triangle, the directed edge starting at its
        # corner i, is slot 3p + i, and _corners[3p + i] is that corner
        slot = self._slot = {}
        for p, (t, ds) in enumerate(self.triangles.items()):
            at = ("triangle", t)
            if len(ds) != 3 or len(set(ds)) != 3:
                raise EntryError(f"triangle {t!r} needs 3 distinct edges", at)
            for i, d in enumerate(ds):
                if d in slot:
                    raise EntryError(f"directed edge {d!r} used twice", at)
                slot[d] = 3 * p + i
        self._corners = [(t, i) for t in self.triangles for i in range(3)]
        glue = self.glue = {}
        for d, d2 in gluings.items():
            at = ("glue", d)
            if d2 == d:
                raise EntryError(f"directed edge {d!r} glued to itself", at)
            # the refusal names the end that no triangle uses
            if (x := d if d not in slot else d2) not in slot:
                raise EntryError(f"gluing touches unknown edge {x!r}", at)
            # a pair named again changes nothing; an end glued to another
            # edge before is the one the refusal names
            if glue.setdefault(d, d2) != d2 or glue.setdefault(d2, d) != d:
                x = d if glue[d] != d2 else d2
                raise EntryError(f"directed edge {x!r} glued twice", at)
        # every end in glue is a known edge, so a count finds one unglued
        if len(glue) < len(slot):
            unglued = sorted(slot.keys() - glue.keys(), key=repr)
            raise EntryError(f"unglued edges: {unglued!r}",
                             ("triangle", self._corners[slot[unglued[0]]][0]))
        self._build_classes()

    def _build_classes(self):
        # undirected edge classes: the repr-least of each glued pair, with
        # one repr per directed edge
        glue, rep = self.glue, {d: repr(d) for d in self._slot}
        canon = self.edge_class = {
            d: d if r <= rep[glue[d]] else glue[d] for d, r in rep.items()}
        self.edge_classes = sorted(set(canon.values()), key=rep.__getitem__)

        # vertex classes over corners; the corner at the tail of a side is
        # merged with the corner at the tail of the partner of the side
        # before it (whose head it is): corner 3p + i with the partner of
        # side i - 1, so sides 2, 0, 1 of each triangle in turn
        slot, corners = self._slot, self._corners
        roots, _ = union_find(len(corners), enumerate([
            slot[glue[d]] for ds in self.triangles.values()
            for d in (ds[2], ds[0], ds[1])]))
        self.corner_class = dict(zip(corners, map(corners.__getitem__, roots)))
        self.vertex_classes = sorted({corners[r] for r in {*roots}}, key=repr)

    def locate(self, d):
        """(triangle, slot) of a directed edge."""
        return self._corners[self._slot[d]]

    def euler_characteristic(self):
        return (len(self.vertex_classes) - len(self.edge_classes)
                + len(self.triangles))

    def genus(self):
        # closed and oriented: each directed edge is paired with one other
        # and the vertices are corner cycles, so chi is even
        return (2 - self.euler_characteristic()) // 2

    def components(self):
        """Triangles of each connected component, each sorted by ``repr``.

        Components are listed in the order their first triangle appears in
        ``triangles``.
        """
        # the two triangles of each undirected edge are merged, once
        tris, glue, slot = list(self.triangles), self.glue, self._slot
        roots, _ = union_find(len(tris), (
            (slot[E] // 3, slot[glue[E]] // 3) for E in self.edge_classes))
        comps = {}
        for t, r in zip(tris, roots):
            comps.setdefault(r, []).append(t)
        return [sorted(c, key=repr) for c in comps.values()]

    @functools.cached_property
    def corner_cycles(self):
        """Corners around each vertex class in ccw order.

        Maps each vertex class to its cycle of corners, starting from its
        first corner in triangle ``repr`` order.  The ccw successor of
        corner ``(t, i)`` is the corner of the neighbor across the edge
        preceding it in triangle ``t``.
        """
        cycles = {}
        for t in sorted(self.triangles, key=repr):
            for i in range(3):
                v = self.corner_class[(t, i)]
                if v in cycles:
                    continue
                c, cycle = (t, i), []
                while not cycle or c != cycle[0]:
                    cycle.append(c)
                    ct, ci = c
                    prev = self.triangles[ct][(ci + 2) % 3]
                    c = self.locate(self.glue[prev])
                cycles[v] = cycle
        return cycles

    @functools.cached_property
    def form_rows(self):
        """``wedge_rows`` over ``edge_classes`` of twice the surface's form:
        -1/2 (dE^dF + dF^dG + dG^dE) per triangle of ccw edges E, F, G."""
        col = {E: i for i, E in enumerate(self.edge_classes)}
        return wedge_rows(self.edge_classes, [
            (col[self.edge_class[ds[i - 1]]], col[self.edge_class[d]])
            for ds in self.triangles.values() for i, d in enumerate(ds)])

    def skeleton_ribbon(self):
        """Ribbon graph of the 1-skeleton, and its faces: the triangles.

        Graph edges are the undirected edge classes, directed as their
        canonical directed edges, and ``d`` leaves by the dart ``(E, 0 if d
        == E else 1)`` of its class.  Rotations (around ``corner_cycles``)
        and faces (each triangle's sides) list darts in ccw order.
        """
        cc = self.corner_class
        edges = {E: (cc[(t, i)], cc[(t, (i + 1) % 3)])
                 for E in self.edge_classes for t, i in [self.locate(E)]}
        dart = {d: (E, 0 if d == E else 1) for d, E in self.edge_class.items()}
        rot = {v: [dart[self.triangles[t][i]] for t, i in cycle]
               for v, cycle in self.corner_cycles.items()}
        faces = [[dart[d] for d in ds] for ds in self.triangles.values()]
        return RibbonGraph(edges, rot), faces


def wedge_rows(keys, wedges):
    """Twice a form, minus the sum of the wedges ``(a, b)`` of indices into
    ``keys``: the sorted nonzero ``(col, x)`` of each key's row."""
    acc = [{} for _ in keys]
    for a, b in wedges:
        acc[a][b] = acc[a].get(b, 0) - 1
        acc[b][a] = acc[b].get(a, 0) + 1
    return {E: tuple(sorted([p for p in r.items() if p[1]]))
            for E, r in zip(keys, acc)}


def form_value(rows, keys, u, v):
    """Half of ``u`` dotted with the ``wedge_rows`` ``rows`` over ``keys``
    applied to ``v``, a missing key 0 and each weight read by ``_exact``."""
    # each weight is read once: int and Fraction weights as they are, or
    # else every weight through _exact.  The rows are antisymmetric: the
    # image of v is minus the sum of its rows
    if not {*map(type, u.values()), *map(type, v.values())} <= {int, Fraction}:
        u, v = ({k: _exact(x) for k, x in w.items()} for w in (u, v))
    return Fraction(-sum(u.get(keys[col], 0) * x * y
                         for d, y in v.items() for col, x in rows[d]), 2)


def triangle_form_sum(surface, u, v):
    """Sum of the triangle forms over all triangles of the surface."""
    return form_value(surface.form_rows, surface.edge_classes, u, v)


class TrainTrack:
    """Generic trivalent train track given by its switch records.

    ``switches`` maps a switch id to a ccw-positively-oriented triple
    ``(a, b, c)`` of branch ids: ``a`` and ``b`` are the incoming slots,
    ``c`` the outgoing slot.  Each branch must occupy exactly two slots in
    total (possibly both at one switch).
    """

    def __init__(self, switches):
        self.switches = {s: tuple(abc) for s, abc in switches.items()}
        for s, abc in self.switches.items():
            if len(abc) != 3:
                raise ValueError(f"switch {s!r} is not trivalent")
        # the number of ends of each branch, in first-seen order
        ends = Counter(itertools.chain.from_iterable(self.switches.values()))
        for e, n in ends.items():
            if n != 2:
                raise ValueError(f"branch {e!r} has {n} ends, expected 2")
        self.branches = sorted(ends, key=repr)

    @functools.cached_property
    def branch_ends(self):
        """The two ``(switch, slot)`` ends of each branch, sorted by
        ``repr``; built on first read, since the cone layer reads only the
        switches and ``branches``."""
        ends = {}
        for s, abc in self.switches.items():
            for pos, e in enumerate(abc):
                ends.setdefault(e, []).append((s, pos))
        return {e: tuple(sorted(slots, key=repr)) for e, slots in ends.items()}

    def check_weight(self, w):
        """Whether the switch relation holds exactly at every switch."""
        for e in self.branches:
            if e not in w:
                raise ValueError(f"missing weight for branch {e!r}")
        return all(_exact(w[a]) + _exact(w[b]) == _exact(w[c])
                   for a, b, c in self.switches.values())

    def switch_rows(self, column_of):
        """Sparse integer rows (``linalg.row``) of ``w(a) + w(b) - w(c)``,
        one per switch by ``repr``; ``column_of`` maps every branch to its
        column."""
        return [linalg.row(((column_of[a], 1), (column_of[b], 1),
                            (column_of[c], -1)))
                for s in sorted(self.switches, key=repr)
                for a, b, c in [self.switches[s]]]

    @functools.cached_property
    def integer_basis(self):
        """Exact basis of the solution space of all switch relations, built
        once: ``linalg.kernel_basis`` of ``switch_rows``, one ``(L, {branch:
        n})`` per vector for the weight ``n / L``, 0 where a branch is left
        out."""
        idx = {e: i for i, e in enumerate(self.branches)}
        return [(L, {self.branches[c]: n for c, n in vec.items()})
                for L, vec in linalg.kernel_basis(self.switch_rows(idx),
                                                  len(idx))]

    def weight_space_basis(self):
        """``integer_basis`` as new ``Fraction`` weights on every branch."""
        return [{e: Fraction(vec.get(e, 0), L) for e in self.branches}
                for L, vec in self.integer_basis]

    def thurston_form(self, w1, w2):
        """Half the sum over switches of det of the incoming weight pairs."""
        if not (self.check_weight(w1) and self.check_weight(w2)):
            raise InvalidWeightError("weight violates a switch relation")
        return Fraction(sum(_exact(w1[a]) * _exact(w2[b])
                            - _exact(w1[b]) * _exact(w2[a])
                            for a, b, _ in self.switches.values()), 2)

    # -- embedding structure -------------------------------------------------

    def ribbon(self):
        """Underlying embedded graph: switches with ccw dart order (a, b, c)."""
        ends = self.branch_ends
        edges = {e: (s1[0], s2[0]) for e, (s1, s2) in ends.items()}
        # rotations slot by slot; dart end 0 belongs to the first slot
        rot = {s: [(e, 0 if (s, pos) == ends[e][0] else 1)
                   for pos, e in enumerate(abc)]
               for s, abc in self.switches.items()}
        return RibbonGraph(edges, rot)

    def _dual_surface(self):
        """The surface of ``dual_triangulation``, with the cusps of each of
        its vertex classes, the complementary regions of the track.

        Switch ``s`` is the triangle with directed edges ``(s, 0)``, ``(s,
        1)``, ``(s, 2)``, glued across each branch; a region's cusp, the
        passage between the incoming slots 0 and 1, is corner 1.
        """
        triangles = {s: ((s, 0), (s, 1), (s, 2)) for s in self.switches}
        surf = SurfaceTriangulation(triangles, dict(self.branch_ends.values()))
        cusps = dict.fromkeys(surf.vertex_classes, 0)
        for s in self.switches:
            cusps[surf.corner_class[(s, 1)]] += 1
        return surf, cusps

    def region_cusp_counts(self):
        """Cusps per complementary region of the track."""
        return list(self._dual_surface()[1].values())

    def dual_triangulation(self):
        """Triangulation dual to a maximal track, plus the correspondence.

        One triangle per switch with directed edges ``(switch, slot)`` in
        the ccw slot order, one undirected edge per branch, one vertex per
        complementary region.  Raises unless every region is a trigon.
        Returns ``(surface, branch_to_edge)``.
        """
        surf, cusps = self._dual_surface()
        for n in cusps.values():
            if n != 3:
                raise NotMaximalError(f"complementary region with {n} cusps")
        branch_to_edge = {e: surf.edge_class[self.branch_ends[e][0]]
                          for e in self.branches}
        return surf, branch_to_edge

    def orientation(self):
        """Per-switch flow states of a consistent orientation.

        Returns a dict switch -> +1/-1 where +1 means the incoming slots
        carry flow into the switch.  Raises NotOrientableError if no
        consistent assignment exists.  The orientation of each branch runs
        from its flow-out end to its flow-in end.
        """
        # a branch carries flow out of one end and into the other, so its
        # far switch takes the opposite state when both its ends are
        # incoming or both outgoing, and the same state otherwise
        state = {}
        for s0 in sorted(self.switches, key=repr):
            if s0 in state:
                continue
            state[s0] = 1
            stack = [s0]
            while stack:
                s = stack.pop()
                for pos, e in enumerate(self.switches[s]):
                    first, second = self.branch_ends[e]
                    s2, pos2 = second if first == (s, pos) else first
                    need = -state[s] if (pos == 2) == (pos2 == 2) else state[s]
                    if s2 not in state:
                        state[s2] = need
                        stack.append(s2)
                    elif state[s2] != need:
                        raise NotOrientableError(
                            f"branch {e!r} cannot be oriented")
        return state

    def cycle_pairing(self, w1, w2):
        """Intersection number of the weighted cycles of two weights.

        Requires a consistently orientable track; computed directly as
        ``RibbonGraph.intersection`` of the two oriented flows on the
        track's ribbon graph, independently of the switch formula.  A flow
        is measured along each branch's reference direction in ``ribbon()``
        (end 0 to end 1), and runs from the flow-out end to the flow-in end
        of the one orientation.
        """
        if not (self.check_weight(w1) and self.check_weight(w2)):
            raise InvalidWeightError("weight violates a switch relation")
        state = self.orientation()
        # the branches whose end 0 is their flow-in end
        back = {e for e, ((s1, p1), _) in self.branch_ends.items()
                if (p1 <= 1) == (state[s1] == 1)}
        return self.ribbon().intersection(
            *({e: -rat(w[e]) if e in back else rat(w[e])
               for e in self.branches} for w in (w1, w2)))


def embed_weights(track, branch_to_edge, w):
    """Push an admissible branch weight to a weight on dual-triangulation edges."""
    if not track.check_weight(w):
        raise InvalidWeightError("weight violates a switch relation")
    return {branch_to_edge[e]: rat(w[e]) for e in track.branches}


def track_dual_to_triangulation(surface, outgoing):
    """Train track dual to a triangulation, given each triangle's outgoing edge.

    ``outgoing`` maps each triangle id of a union of components of the
    surface to the slot (0, 1, or 2) whose edge is dual to the outgoing
    branch; the two other edges are dual to the incoming branches.  The
    switches follow the order of ``outgoing``.  Branch ids are the
    undirected edge classes of the surface, so the edge dual to a branch
    is the branch id itself.
    """
    cls, tris = surface.edge_class, surface.triangles
    return TrainTrack({
        t: (cls[ds[(p + 1) % 3]], cls[ds[(p + 2) % 3]], cls[ds[p]])
        for t, p in outgoing.items() for ds in [tris[t]]})
