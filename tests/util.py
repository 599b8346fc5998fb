"""Shared random generators for the test suite (seeded, deterministic)."""

import cProfile
import fractions
import importlib
import itertools
import math
import pathlib
import pstats
import random
from fractions import Fraction
from operator import itemgetter

from isocone import flatsurf, io, linalg
from isocone.cone3 import (
    EDGE_PAIRS, FACE_CORNERS, FACE_CYCLES, GluingError, OrientationError,
    Triangulation3)
from isocone.fixtures import (
    genus2_four_vertex_surface, genus2_maximal_track, mf_weight,
    product_bundle)
from isocone.flatsurf import QC, FlatSurface, PeriodTangent
from isocone.ordgroup import DimensionError, LexVec, format_rat, rat
from isocone.homology import union_find
from isocone.lamtree import MetricTree, NotAMetricError
from isocone.track import NotOrientableError, SurfaceTriangulation, _exact


def random_fraction(rng, lo=-3, hi=3, maxden=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, maxden))


def random_positive_lexvec(rng, rank):
    """Lexicographically positive tuple with a random leading support."""
    k = rng.randrange(rank)
    coords = [Fraction(0)] * rank
    coords[k] = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    for i in range(k + 1, rank):
        coords[i] = random_fraction(rng)
    return LexVec(coords)


def random_lexvec(rng, rank):
    return LexVec([random_fraction(rng) for _ in range(rank)])


def height_derivative(surface, tangent):
    """The derivative of the edge heights along a tangent, per branch, as
    Fractions: the integer numerators the pairings use over the tangent's
    denominator."""
    return {E: Fraction(n, tangent._den) for E, n in
            flatsurf._height_numerators(surface, tangent).items()}


def random_tree(rng, n_vertices, rank, with_end=False):
    """Random tree by uniform parent attachment, positive random lengths."""
    vertices = list(range(n_vertices))
    edges = {}
    for i in range(1, n_vertices):
        parent = rng.randrange(i)
        edges[f"e{i}"] = (parent, i, random_positive_lexvec(rng, rank))
    end = rng.randrange(n_vertices) if with_end else None
    return MetricTree(vertices, edges, end=end)


def fraction_constructions(fn):
    """The number of ``Fraction`` objects made while ``fn()`` runs, counted
    as calls of ``Fraction.__new__`` by cProfile."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(calls for (path, _, name), (_, calls, *_)
               in pstats.Stats(prof).stats.items()
               if path == fractions.__file__ and name == "__new__")


def code_lines(name):
    """Gated code lines of module ``isocone.<name>``: its stripped source
    lines that are neither blank nor comments, as every
    ``test_code_line_count`` counts them."""
    path = pathlib.Path(importlib.import_module(f"isocone.{name}").__file__)
    lines = [line.strip() for line in path.read_text().splitlines()]
    return len([line for line in lines if line and not line.startswith("#")])


def reference_faces(rg):
    """Face orbits of a ``RibbonGraph``, each started at the least remaining
    dart by repr: a face leaves by dart ``(e, i)``, reaches the other end
    ``(e, 1 - i)`` and leaves by the next dart ccw there.  The oracle of
    the triangle faces of ``SurfaceTriangulation.skeleton_ribbon``."""
    nxt = {}
    for ds in rg.rot.values():
        for j, d in enumerate(ds):
            nxt[d] = ds[(j + 1) % len(ds)]
    nxt = {(e, i): nxt[(e, 1 - i)] for (e, i) in nxt}
    faces = []
    todo = set(nxt)
    while todo:
        d = min(todo, key=repr)
        orbit = []
        while d in todo:
            todo.remove(d)
            orbit.append(d)
            d = nxt[d]
        faces.append(orbit)
    return faces


def reference_kernel_basis(rg, faces):
    """Homology basis flows of a ribbon graph by elimination: one integer
    net-inflow row per vertex over the edges in ``repr`` order, whose
    ``reduced_kernel`` vector of each free column is that edge's
    fundamental cycle, and the face boundaries restricted to the free
    columns in a second system; the cycles of the free columns that are
    not its pivots.  The oracle of ``SurfaceHomology.basis_flows``."""
    edges = sorted(rg.edges, key=repr)
    col = {e: j for j, e in enumerate(edges)}
    inflow = {v: [] for v in rg.rot}
    for e, (u, v) in rg.edges.items():
        inflow[u].append((col[e], -1))
        inflow[v].append((col[e], 1))
    verts = linalg.IncrementalSystem(len(edges))
    for terms in inflow.values():
        verts.push(linalg.row(terms), 0)
    tree = verts.reduced()
    free = [j for j in range(len(edges)) if j not in tree]
    cycles = linalg.reduced_kernel(tree, len(edges))
    face_rows = linalg.IncrementalSystem(len(edges))
    for face in faces:
        face_rows.push(linalg.row((col[e], 1 if i == 0 else -1)
                                  for e, i in face if col[e] not in tree), 0)
    return [{edges[c]: n for c, n in vec.items()}
            for j, (_, vec) in zip(free, cycles)
            if j not in face_rows.pivots]


def reference_forest_basis(rg, faces):
    """The retired basis of ``SurfaceHomology``: a BFS spanning forest of a
    ``RibbonGraph`` over vertices and edges in ``repr`` order, and the
    fundamental cycles of the non-tree edges that are not pivots of the
    boundaries of ``faces`` restricted to the non-tree edges, as
    ``Fraction`` flows.  The oracle of the kernel basis."""
    verts = sorted(rg.rot, key=repr)
    adj = {v: [] for v in verts}
    for e, (u, v) in sorted(rg.edges.items(), key=lambda kv: repr(kv[0])):
        adj[u].append((e, v))
        adj[v].append((e, u))
    # one BFS tree per connected component
    parent, order = {}, []
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
    tree = {e for _, e in parent.values() if e is not None}
    nontree = sorted((e for e in rg.edges if e not in tree), key=repr)

    def flow_from_nontree(e0):
        # children-first: conservation at v pins the flow on its tree edge,
        # and pushes the surplus net[v] up to the parent either way
        flow = {e0: Fraction(1)}
        net = {v: Fraction(0) for v in rg.rot}
        u, v = rg.edges[e0]
        net[v] += 1
        net[u] -= 1
        for v in reversed(order):
            p, e = parent[v]
            if p is None:
                continue
            flow[e] = -net[v] if rg.edges[e][1] == v else net[v]
            net[p] += net[v]
            net[v] = Fraction(0)
        return {e: val for e, val in flow.items() if val != 0}

    rows = [[Fraction(sum(1 if i == 0 else -1 for e, i in face if e == x))
             for x in nontree] for face in faces]
    pivots = set(linalg.rref(rows)[1])
    return [flow_from_nontree(e) for j, e in enumerate(nontree)
            if j not in pivots]


def tangent_coefficient_rows(surface):
    """Closure constraints on a flat surface's class values, one sparse
    integer row (``linalg.row``) per triangle in ``repr`` order: +1 for the
    class edge and a ``pos`` partner, -1 for a ``neg`` partner.  The
    retired rows of ``FlatSurface.tangent_kernel``."""
    classes, cls = surface.comb.edge_classes, surface.comb.edge_class
    idx = {E: k for k, E in enumerate(classes)}
    # a neg partner of a class carries minus the class value
    neg = {d for d, s in surface.signs.items() if d != cls[d] and s == "neg"}
    return [linalg.row((idx[cls[d]], -1 if d in neg else 1)
                       for d in surface.triangles[t])
            for t in sorted(surface.triangles, key=repr)], classes


def reference_tangent_kernel(surface):
    """``linalg.kernel_basis`` of ``tangent_coefficient_rows``: the kernel
    by elimination, the oracle of ``FlatSurface.tangent_kernel``."""
    rows, classes = tangent_coefficient_rows(surface)
    return linalg.kernel_basis(rows, len(classes))


def reference_row(terms):
    """The retired ``linalg.row``: the sorted terms with each column's
    coefficients merged in one pass, whether or not a column repeats, and
    the zero sums left out.  The oracle of ``linalg.row``."""
    out, last = [], None
    for col, coef in sorted(terms):
        if col == last:
            out[-1] = (col, out[-1][1] + coef)
        else:
            out.append((col, coef))
            last = col
    return tuple(filter(itemgetter(1), out))


def reference_eliminate(sysm, row, b, tag=0):
    """``sysm.push(row, b, tag)`` through the retired push, which put every
    row through the dict core: the core's loop, copied verbatim onto
    ``sysm``.  The oracle of ``IncrementalSystem.push``."""
    v = dict(row)
    pivot_rows = sysm.pivot_rows
    # eliminate the lowest column of v while it is a pivot; a stored row
    # only has entries right of its pivot, so fill-in lands to the right
    # and every column is visited at most once, lowest first
    while v:
        c = min(v)
        if (entry := pivot_rows.get(c)) is None:
            break
        f = v.pop(c)
        p, tail, rb, mask = entry
        tag |= mask
        if p != 1:      # v := (p v - f row) / gcd(f, p), still integral
            g = math.gcd(f, p)
            f, s = f // g, p // g
            for j in v:
                v[j] *= s
            b *= s
        for j, x in tail:
            y = v.get(j, 0) - f * x
            if y:
                v[j] = y
            else:
                del v[j]
        b -= f * rb
    else:
        sysm.conflict = tag
        return b == 0
    p = v.pop(c)
    if p != 1:
        g = math.gcd(p, b, *v.values()) * (1 if p > 0 else -1)
        p, b = p // g, b // g
        for j in v:
            v[j] //= g
    pivot_rows[c] = (p, tuple(v.items()), b, tag)
    sysm.pivots.append(c)
    return True


def solution(sysm):
    """The solution of an ``IncrementalSystem`` with every free column 0,
    read off its affine ``reduced()`` form: each pivot takes ``-n[ncols] /
    d``."""
    sol = [Fraction(0)] * sysm.ncols
    for piv, (d, n) in sysm.reduced().items():
        sol[piv] = Fraction(-n.get(sysm.ncols, 0), d)
    return sol


def reference_walk(sysm, options, leaf):
    """Depth-first walk over choice vectors, with conflict-directed
    backjumping (Prosser 1993): ``options[i]`` lists tet ``i``'s ``(k, row,
    b)`` in the order tried, and the row is pushed under the tag ``1 <<
    i``, so a contradiction names the tets it depends on and a subtree
    refuted without tet ``i`` is not retried under its other options.  At
    each consistent vector ``combo``, the ``k`` per tet, ``leaf(combo)``
    returns True to stop there: ``walk`` returns ``combo`` and ``sysm``
    keeps its rows.  Otherwise the walk goes on, and returns None with
    ``sysm`` back at its start.  The retired recursion of ``cone3.walk``,
    one frame per tet: the oracle of its loop."""
    push, pivots, rollback = sysm.push, sysm.pivots, sysm.rollback
    combo = [None] * len(options)

    def dfs(i):
        # None once a leaf stopped the walk, else the conflict set: a mask
        # of tets before i whose current choices leave tets i.. no leaf; a
        # continuing leaf names every tet (-1), so that no subtree holding
        # another leaf is skipped
        if i == len(options):
            return None if leaf(tuple(combo)) else -1
        bit, conflict = 1 << i, 0
        for k, row, b in options[i]:
            mark = len(pivots)
            combo[i] = k
            sub = dfs(i + 1) if push(row, b, bit) else sysm.conflict
            if sub is None:
                return None
            rollback(mark)
            if not sub & bit:
                return sub      # tet i played no part: jump back past it
            conflict |= sub
        return conflict & ~bit

    stopped = dfs(0) is None
    del dfs     # its closure refers to it: leave no cycle holding sysm
    return tuple(combo) if stopped else None


def reference_union_find(items, pairs):
    """Class representative of every item once the given pairs are merged,
    over hashable items: pairs are merged in order and a merge points the
    first item's root at the second's.  Returns a dict in the order of
    ``items``.  The oracle of the integer ``isocone.homology.union_find``."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    return {x: find(x) for x in parent}


def reference_validate_gluings(index, gluings):
    """Check each entry of a ``Triangulation3`` gluing table, one glued face
    pair, against the faces and corners it names; return the pairs' edge
    merges as slot pairs (edge ``EDGE_PAIRS[k]`` of the tet at ``index[t]``
    is slot ``6 * index[t] + k``), three per entry in combination order,
    and the set of glued faces.  The retired check of
    ``Triangulation3._validate_gluings``, entry by entry in this order:
    both tets declared, face indices in 0..3, the domain and range of
    ``perm``, no self-gluing, no face glued twice, orientation reversed.
    The oracle of its table of face maps."""
    corners = {f: frozenset(c) for f, c in FACE_CYCLES.items()}
    # a gluing onto face f reverses orientation iff it maps the cycle of its
    # own face to a rotation of f's reversed cycle
    reversed_cycles = {f: {c[::-1][k:] + c[::-1][:k] for k in range(3)}
                       for f, c in FACE_CYCLES.items()}
    edge_index = {p: k for k, e in enumerate(EDGE_PAIRS)
                  for p in itertools.permutations(e)}
    merges, glued = [], set()
    for (t, f), (t2, f2, perm) in gluings.items():
        for x in (t, t2):
            if x not in index:
                raise GluingError(
                    f"gluing touches unknown tetrahedron {x!r}")
        if not 0 <= f <= 3 or not 0 <= f2 <= 3:
            raise GluingError(f"face index out of range at {(t, f)}")
        # a face index in range that is not an int has no corners
        if perm.keys() != corners.get(f):
            raise GluingError(f"bad permutation domain at {(t, f)}")
        if set(perm.values()) != corners.get(f2):
            raise GluingError(f"bad permutation range at {(t, f)}")
        if (t2, f2) == (t, f):
            raise GluingError("face glued to itself")
        for tf in ((t, f), (t2, f2)):
            if tf in glued:
                raise GluingError(f"face {tf} glued twice")
            glued.add(tf)
        a, b, c = FACE_CYCLES[f]
        if (perm[a], perm[b], perm[c]) not in reversed_cycles[f2]:
            raise OrientationError(
                f"gluing at {(t, f)} is not orientation-reversing")
        i, i2 = 6 * index[t], 6 * index[t2]
        merges += [(i + edge_index[a, b], i2 + edge_index[perm[a], perm[b]])
                   for a, b in itertools.combinations(sorted(perm), 2)]
    return merges, glued


def outcome(fn, *args):
    """What ``fn(*args)`` does: ``("ok", value)``, or the type and message
    of the ``ValueError`` it raises, so that refusals compare as equal."""
    try:
        return "ok", fn(*args)
    except ValueError as e:
        return type(e), str(e)


def reference_push(tree, p, s):
    """``tree.push(p, s)`` by the retired walk: an edge point first moves
    along its own edge (and stays there when s does not reach the end-side
    vertex), then the walk climbs with the LexVec still to go.  The oracle
    of ``MetricTree.push``."""
    if tree.rank != 1:
        raise DimensionError("pushing requires rank 1")
    if tree.end is None:
        raise ValueError("tree has no end")
    s = rat(s)
    if s < 0:
        raise ValueError("push distance must be nonnegative")
    if s == 0:
        return p
    sv = LexVec([s])
    if p.kind == "ray":
        return tree.point_on_ray(p.excess + sv)
    if p.kind == "edge":
        u, v, length = tree.edges[p.edge]
        if tree._parent[u] == (v, p.edge):
            first_vertex, first_cost = v, length - p.offset
        else:
            first_vertex, first_cost = u, p.offset
        if sv <= first_cost:
            if first_vertex == u:
                return tree.point_on_edge(p.edge, p.offset - sv)
            return tree.point_on_edge(p.edge, p.offset + sv)
        remaining = sv - first_cost
        w = first_vertex
    else:
        remaining = sv
        w = p.vertex
    zero = LexVec.zero(1)
    while w != tree.end:
        pw, eid = tree._parent[w]
        u, v, length = tree.edges[eid]
        if remaining <= length:
            if remaining == zero:
                return tree.point(w)
            if w == u:
                return tree.point_on_edge(eid, remaining)
            return tree.point_on_edge(eid, length - remaining)
        remaining = remaining - length
        w = pw
    return tree.point_on_ray(remaining)


def reference_is_zero_hyperbolic(dmat):
    """``is_zero_hyperbolic`` by the retired checks: the metric axioms
    entry by entry, then four nested index loops, each building the 4x4
    submatrix of its quadruple for the retired ``four_point_check``: of
    its three pairings, the two largest must be equal.  The oracle on
    square matrices: it reads entries before it has checked every row's
    length.  A 1x1 matrix is checked too: its entry must be zero."""
    n = len(dmat)
    if n:
        zero = LexVec.zero(dmat[0][min(n - 1, 1)].rank)
        for i in range(n):
            if len(dmat[i]) != n:
                raise NotAMetricError("matrix not square")
            if dmat[i][i] != zero:
                raise NotAMetricError("nonzero diagonal")
            for j in range(n):
                if dmat[i][j] != dmat[j][i]:
                    raise NotAMetricError("matrix not symmetric")
                if dmat[i][j] < zero:
                    raise NotAMetricError("negative distance")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if dmat[i][j] > dmat[i][k] + dmat[k][j]:
                        raise NotAMetricError(
                            f"triangle inequality fails on ({i},{j},{k})")
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for d in range(c + 1, n):
                    sub = [[dmat[p][q] for q in (a, b, c, d)]
                           for p in (a, b, c, d)]
                    s = sorted([sub[0][1] + sub[2][3], sub[0][2] + sub[1][3],
                                sub[0][3] + sub[1][2]])
                    if s[1] != s[2]:
                        return False
    return True


def reference_orientation(track):
    """``track.orientation()`` by the retired search: a depth-first walk
    from each unvisited switch in ``repr`` order, which finds each
    branch's other end by comparing slots and derives the state it needs
    there from whether each end carries flow in.  The oracle of
    ``TrainTrack.orientation``."""
    state = {}
    for s0 in sorted(track.switches, key=repr):
        if s0 in state:
            continue
        state[s0] = 1
        stack = [s0]
        while stack:
            s = stack.pop()
            for pos in range(3):
                e = track.switches[s][pos]
                first, second = track.branch_ends[e]
                other = second if (s, pos) == first else first
                s2, pos2 = other
                here_in = (pos <= 1) == (state[s] == 1)
                # the other end must be flow-in iff this end is flow-out
                need = 1 if ((pos2 <= 1) == (not here_in)) else -1
                if s2 in state:
                    if state[s2] != need:
                        raise NotOrientableError(
                            f"branch {e!r} cannot be oriented")
                else:
                    state[s2] = need
                    stack.append(s2)
    return state


def off_diagonal_weight(bundle, q):
    """Off-diagonal pair ``q`` of the ``random.Random(1)`` stream of the
    cone-member benchmark: the bottom and top draws of pair ``q`` on the
    two boundary copies of g2xI, a non-member."""
    stream = random.Random(1)
    for _ in range(q + 1):
        bottom = mf_weight(bundle["track"], stream)
        top = mf_weight(bundle["track"], stream)
    wb = {E: Fraction(0) for E in bundle["manifold"].boundary.edge_classes}
    for E in bottom:
        wb[bundle["bottom_edge_of"][E]] = bottom[E]
        wb[bundle["top_edge_of"][E]] = top[E]
    return wb


def mixed_product():
    """The product over the genus-2 four-vertex surface plus a two-triangle
    torus, with the maximal track on the genus-2 part: its boundary has two
    torus and two genus-2 components.  Returns ``(g2, mixed, bundle,
    track)``."""
    g2 = genus2_four_vertex_surface()
    tris = {f"g2_{t}": tuple(("g2", d) for d in ds)
            for t, ds in g2.triangles.items()}
    glu = {("g2", d): ("g2", d2) for d, d2 in g2.glue.items()}
    tris["tor0"] = (("t", "a"), ("t", "b"), ("t", "c"))
    tris["tor1"] = (("t", "A"), ("t", "B"), ("t", "C"))
    for x, y in [("a", "A"), ("b", "B"), ("c", "C")]:
        glu[("t", x)] = ("t", y)
        glu[("t", y)] = ("t", x)
    mixed = SurfaceTriangulation(tris, glu)
    track, _, outgoing = genus2_maximal_track()
    bundle = product_bundle(
        mixed, {f"g2_{t}": slot for t, slot in outgoing.items()})
    return g2, mixed, bundle, track


def mixed_query():
    """``mixed_product`` with a diagonal weight on the genus-2 copies, zero
    on the tori: ``(manifold, boundary track, weight, outgoing)``."""
    g2, mixed, bundle, track = mixed_product()
    w = mf_weight(track, random.Random(11))
    wb = {E: Fraction(0) for E in bundle["manifold"].boundary.edge_classes}
    for E in mixed.edge_classes:
        if E[0] == "g2":
            orig = g2.edge_class[E[1]]
            wb[bundle["bottom_edge_of"][E]] = w[orig]
            wb[bundle["top_edge_of"][E]] = w[orig]
    return (bundle["manifold"], bundle["boundary_track"], wb,
            bundle["outgoing"])


def reference_boundary_components(m):
    """``(boundary_components, torus_classes)`` of a ``Triangulation3`` by
    the retired classification: the components of the boundary surface by
    a union-find over hashable triangle ids across every directed edge,
    then per component the sets of its edge and corner classes and ``chi =
    V - E + T``, its edge classes sorted by ``repr``.  The oracle of the
    count by vertex classes."""
    comps, torus, surf = [], set(), m.boundary
    if surf is None:
        return comps, torus
    owner = {d: t for t, ds in surf.triangles.items() for d in ds}
    root = reference_union_find(surf.triangles, (
        (t, owner[surf.glue[d]]) for t, ds in surf.triangles.items()
        for d in ds))
    groups = {}
    for t, r in root.items():
        groups.setdefault(r, []).append(t)
    for comp in (sorted(c, key=repr) for c in groups.values()):
        edges = {surf.edge_class[d] for t in comp for d in surf.triangles[t]}
        corners = {surf.corner_class[(t, i)] for t in comp for i in range(3)}
        chi = len(corners) - len(edges) + len(comp)
        comps.append({"triangles": comp,
                      "edge_classes": sorted(edges, key=repr),
                      "genus": (2 - chi) // 2, "torus": chi == 0})
        if chi == 0:
            torus |= {m.boundary_edge_to_class[E] for E in edges}
    return comps, torus


def reference_branch_ends(track):
    """The ``branch_ends`` of a ``TrainTrack`` as its constructor built
    them before they were built on first read: the two ``(switch, slot)``
    ends of each branch, sorted by ``repr``."""
    ends = {}
    for s, abc in track.switches.items():
        for pos, e in enumerate(abc):
            ends.setdefault(e, []).append((s, pos))
    return {e: tuple(sorted(slots, key=repr)) for e, slots in ends.items()}


def reference_fold(manifold, w_boundary):
    """The ``options`` that ``cone3.member`` hands to ``walk``, by the
    retired fold: per choice row a filtered list of its interior terms and
    a sum over its pinned ones, the pins scaled to integers over the lcm of
    their denominators; the pinned columns are those of the boundary
    classes, each the pin of its boundary edge."""
    edge_of = {cls: E for E, cls in manifold.boundary_edge_to_class.items()}
    first = len(manifold.columns) - len(edge_of)
    values = [rat(w_boundary.get(edge_of[cls], 0))
              for cls in manifold.columns[first:]]
    D = math.lcm(*[val.denominator for val in values])
    pinned = [val.numerator * (D // val.denominator) for val in values]
    return [[(k, [(c, x) for c, x in row if c < first],
              -sum(x * pinned[c - first] for c, x in row if c >= first))
             for k, row in enumerate(manifold.choice_rows[t])]
            for t in manifold.tets]


def reference_compute_cone(manifold, btrack, choice_iter=None):
    """The components of ``cone3.compute_cone`` by the retired leaf: every
    choice vector on ``reference_walk`` (all of them in product order, or
    one single-option walk per sampled vector) reduces its boundary rows
    afresh with ``reduced(first)``, and each new component's span is the
    ``rref`` of its kernel, read in boundary edge order through
    ``boundary_edge_to_class``, whatever the column order."""
    edge_order = manifold.boundary.edge_classes
    column = {cls: c for c, cls in enumerate(manifold.columns)}
    at = [column[manifold.boundary_edge_to_class[E]] for E in edge_order]
    sysm = linalg.IncrementalSystem(len(manifold.columns))
    first = sysm.ncols - len(edge_order)
    for row in manifold.torus_rows + btrack.track.switch_rows(
            dict(zip(edge_order, at))):
        sysm.push(row, 0)
    options = [[(k, row, 0) for k, row in enumerate(manifold.choice_rows[t])]
               for t in manifold.tets]
    seen = {}

    def record(combo):
        red = sysm.reduced(first)
        key = frozenset((p, d, frozenset(n.items()))
                        for p, (d, n) in red.items())
        if key not in seen:
            span, _ = linalg.rref([
                [vec.get(c - first, 0) for c in at]
                for _, vec in linalg.reduced_kernel(red, sysm.ncols, first)])
            seen[key] = {"span": span, "dimension": len(span),
                         "choice": dict(zip(manifold.tets, combo))}
        return False

    if choice_iter is None:
        reference_walk(sysm, options, record)
    else:
        for combo in choice_iter:
            reference_walk(sysm, [[opts[k]] for opts, k in
                                  zip(options, combo, strict=True)], record)
    return sorted(seen.values(),
                  key=lambda c: (c["dimension"], repr(c["span"])))


def pairwise_isotropy(manifold, basis):
    """Whether the total form vanishes on every pair of ``basis`` vectors,
    weights keyed by edge class, pair by pair: the ``form_rows`` image of
    each vector, keyed by class, dotted with every earlier vector, with no
    call of ``omega``.  The oracle of ``isotropy_check``."""
    cls = manifold.columns
    for j, v in enumerate(basis):
        image = {}
        for d, y in v.items():
            for col, x in manifold.form_rows[d]:
                image[cls[col]] = image.get(cls[col], 0) - x * y
        for u in basis[:j]:
            if sum(x * y for c, y in image.items() if (x := u.get(c))):
                return False
    return True


def reference_triangle_form(surface, t, u, v):
    """Alternating form of one oriented triangle on two edge weights, the
    per-triangle oracle of ``track.triangle_form_sum``: with the
    triangle's undirected edges E, F, G in ccw order, -1/2 (dE^dF + dF^dG +
    dG^dE) applied to ``(u, v)``, a missing edge weighing 0."""
    E = [surface.edge_class[d] for d in surface.triangles[t]]
    total = 0
    for i in range(3):
        a, b = E[i], E[(i + 1) % 3]
        total += _exact(u.get(a, 0)) * _exact(v.get(b, 0)) \
            - _exact(u.get(b, 0)) * _exact(v.get(a, 0))
    return Fraction(-total, 2)


def links_are_disks_or_spheres(manifold):
    """Whether every vertex link of ``manifold`` is a disk or a sphere,
    from each link's Euler characteristic ``V - (3T + B)/2 + T``: ``T``
    corners in the vertex class, ``B`` corner sides on free faces and ``V``
    classes of edge ends.  The gluings make each link a connected oriented
    surface, so it is a disk at 1 with ``B > 0`` and a sphere at 2 with
    ``B == 0``; a pseudo-manifold has some other link."""
    m, vc = manifold, manifold.vertex_class
    glued = set(m.gluings) | {(t2, f2) for t2, f2, _ in m.gluings.values()}
    corners, free = {}, {}
    for t in m.tets:
        for v in range(4):
            corners[vc[t, v]] = corners.get(vc[t, v], 0) + 1
            free[vc[t, v]] = free.get(vc[t, v], 0) + sum(
                (t, f) not in glued for f in range(4) if f != v)
    # the end at corner v of the edge from v to u of tet t
    ends = [(t, v, u) for t in m.tets for v in range(4) for u in range(4)
            if u != v]
    at = {e: i for i, e in enumerate(ends)}
    roots, _ = union_find(len(ends), [
        (at[t, v, u], at[t2, perm[v], perm[u]])
        for (t, _), (t2, _, perm) in m.gluings.items()
        for v, u in itertools.permutations(perm, 2)])
    verts = {}
    for r in set(roots):
        c = vc[ends[r][:2]]
        verts[c] = verts.get(c, 0) + 1
    return all(verts[c] - (3 * T + free[c]) // 2 + T == (1 if free[c] else 2)
               for c, T in corners.items())


def reference_rat(tok, lineno, notes):
    """The retired ``io._rat``: every token read with ``Fraction(str)``,
    which its integer fast path matched, as a ``Fraction``.  The oracle of
    the integer-pair token reader."""
    try:
        q = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise io.ParseError(lineno, f"bad rational {tok!r}")
    if format_rat(q) != tok:
        notes.append(f"normalized {tok} to {format_rat(q)}")
    return q


def reference_string_rat(tok, lineno, notes):
    """The retired ``io._rat`` that rebuilt each token's canonical spelling
    as a string to decide on its note: the oracle of the one that decides
    from the token's own characters."""
    num, slash, den = tok.partition("/")
    try:
        fast = tok.isascii() and num.removeprefix("-").isdigit() and (
            den.lstrip("0").isdigit() or not slash)
        p, q = ((int(num), int(den or 1)) if fast
                else Fraction(tok).as_integer_ratio())
    except (ValueError, ZeroDivisionError):
        raise io.ParseError(lineno, f"bad rational {tok!r}")
    p, q = p // (g := math.gcd(p, q)), q // g
    if (s := f"{p}/{q}" if q > 1 else str(p)) != tok:
        notes.append(f"normalized {tok} to {s}")
    return p, q


def reference_parse_flatsurface(text):
    """The retired ``io.parse_flatsurface``: one ``Fraction`` per token and
    one ``QC`` per value, handed to the public ``FlatSurface`` and
    ``PeriodTangent`` constructors, and every refusal of those
    constructors reported as line 0.  The oracle of the integer reader."""
    head, triangles, vectors, gluings, signs, tangents = {}, {}, {}, {}, {}, {}
    notes = []      # signs: the sign token and line number of each glue line

    def qc(re, im):     # a value pair of the current line
        return QC(reference_rat(re, lineno, notes),
                  reference_rat(im, lineno, notes))
    for lineno, toks in io._lines(text):
        if toks[0] == "kind" and len(toks) == 2:
            io._put(head, "kind", toks[1], lineno, "directive")
        elif toks[0] == "triangle" and len(toks) == 5:
            io._put(triangles, toks[1], tuple(toks[2:]), lineno, "triangle")
        elif toks[0] == "vector" and len(toks) == 4:
            io._put(vectors, toks[1], qc(*toks[2:]), lineno, "vector")
        elif toks[0] == "glue" and len(toks) in (3, 4):
            io._put(gluings, toks[1], toks[2], lineno, "gluing of edge")
            io._put(gluings, toks[2], toks[1], lineno, "gluing of edge")
            signs[toks[1]] = (toks[3] if len(toks) == 4 else "neg", lineno)
        elif toks[0] == "tangent" and len(toks) == 5:
            io._put(tangents.setdefault(toks[1], {}), toks[2], qc(*toks[3:]),
                    lineno, f"tangent {toks[1]} value on edge")
        else:
            raise io.ParseError(
                lineno, f"unknown directive {' '.join(toks)!r}")
    if "kind" not in head:
        raise io.ParseError(0, "missing kind directive")
    try:
        surf = FlatSurface(head["kind"], triangles, vectors, gluings)
    except ValueError as e:
        raise io.ParseError(0, f"invalid flat surface: {e}")
    for d, (s, n) in signs.items():
        if s != surf.signs[d]:
            raise io.ParseError(
                n, f"sign {s!r} contradicts the vectors at {d!r}")
    tlist = []
    for idx in sorted(tangents, key=str):
        try:
            tlist.append(PeriodTangent(surf, tangents[idx]))
        except ValueError as e:
            raise io.ParseError(0, f"invalid tangent {idx}: {e}")
    return surf, tlist, notes


def reference_lines(text):
    """The retired ``io._lines``: every line split at its first ``#``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if toks := raw.split("#", 1)[0].split():
            yield lineno, toks


def reference_parse_manifold(text):
    """The retired ``io.parse_manifold``: every integer of a glue line read
    with ``int`` and turned back into a ``str`` to refuse other spellings,
    and every line split at ``#``.  The oracle of the manifold reader."""
    # tets: tet id -> None, in line order; glued: the line of each glued face
    tets, gluings, glued, notes = {}, {}, {}, []
    switch_lines, weight_lines = [], []
    for lineno, toks in reference_lines(text):
        if toks[0] == "tet" and len(toks) == 2:
            io._put(tets, toks[1], None, lineno, "tetrahedron")
        elif toks[0] == "glue" and len(toks) == 4:
            try:
                t1, f1 = toks[1].rsplit(".", 1)
                t2, f2 = toks[2].rsplit(".", 1)
                nums = [f1, f2, *toks[3].split(",")]
                f1, f2, *images = map(int, nums)
                # an integer is written as str writes it: no 03, +0 or 0_0
                if [str(f1), str(f2), *map(str, images)] != nums:
                    raise ValueError(nums)
            except ValueError:
                raise io.ParseError(lineno, f"bad gluing {' '.join(toks)!r}")
            if len(images) != 3:
                raise io.ParseError(lineno, "permutation wants 3 images")
            # a new face takes this line; one an earlier line took is refused
            for face, name in (((t1, f1), toks[1]), ((t2, f2), toks[2])):
                if glued.setdefault(face, lineno) != lineno:
                    raise io.ParseError(lineno, f"face {name!r} glued twice")
            # a face index out of 0..3 is refused before its corners are read
            gluings[t1, f1] = (t2, f2, dict(zip(FACE_CORNERS.get(f1, ()),
                                                images)))
        elif toks[0] == "switch" and len(toks) == 4 and toks[2] == "out":
            switch_lines.append((lineno, toks[1], toks[3]))
        elif toks[0] == "weight" and len(toks) == 3:
            weight_lines.append((lineno, toks[1], toks[2]))
        else:
            raise io.ParseError(lineno,
                                f"unknown directive {' '.join(toks)!r}")
    try:
        manifold = Triangulation3(tets, gluings)
    except ValueError as e:
        # a refusal found at one gluing entry names the line it came from
        line = glued.get(e.entry, 0) if isinstance(e, GluingError) else 0
        raise io.ParseError(line, f"invalid triangulation: {e}")

    tri_by_name = {io.boundary_triangle_name(tf): tf
                   for tf in manifold.boundary_faces}
    outgoing = {}
    for lineno, name, slot in switch_lines:
        if name not in tri_by_name:
            raise io.ParseError(lineno, f"unknown boundary triangle {name!r}")
        if tri_by_name[name] in outgoing:
            raise io.ParseError(lineno, f"repeated switch for {name!r}")
        if slot not in ("0", "1", "2"):
            raise io.ParseError(lineno, f"bad slot {slot!r}")
        outgoing[tri_by_name[name]] = int(slot)

    weights = {}
    if manifold.boundary is not None and weight_lines:
        edge_by_name = {io.boundary_edge_name(E): E
                        for E in manifold.boundary.edge_classes}
        for lineno, name, val in weight_lines:
            if name not in edge_by_name:
                raise io.ParseError(lineno, f"unknown boundary edge {name!r}")
            if edge_by_name[name] in weights:
                raise io.ParseError(lineno, f"repeated weight for {name!r}")
            weights[edge_by_name[name]] = Fraction(
                *io._rat(val, lineno, notes))
    elif weight_lines:
        raise io.ParseError(weight_lines[0][0],
                            "weights on a closed manifold")
    return manifold, outgoing, weights, notes


def reference_quadrature(P, per1, per2, depth):
    """The retired centroid rule on one triangle with float corners ``P``:
    the integrand (i/2) theta_1 wedge conj(theta_2), theta_j the Whitney
    interpolant of the complex periods ``per_j`` on its edges, sampled at
    the centroids of ``4**depth`` sub-triangles, each evaluated through
    per-point closures."""
    (x0, y0), (x1, y1), (x2, y2) = ((p.real, p.imag) for p in P)
    twoA = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    grads = [
        ((y1 - y2) / twoA, (x2 - x1) / twoA),
        ((y2 - y0) / twoA, (x0 - x2) / twoA),
        ((y0 - y1) / twoA, (x1 - x0) / twoA),
    ]

    def lam(k, x, y):
        refs = [(x1, y1), (x2, y2), (x0, y0)]
        gx, gy = grads[k]
        rx, ry = refs[k]
        return gx * (x - rx) + gy * (y - ry)

    def theta(per, x, y):
        cx = complex(0)
        cy = complex(0)
        for k in range(3):
            a, b = k, (k + 1) % 3
            la = lam(a, x, y)
            lb = lam(b, x, y)
            ga, gb = grads[a], grads[b]
            wx = la * gb[0] - lb * ga[0]
            wy = la * gb[1] - lb * ga[1]
            cx += per[k] * wx
            cy += per[k] * wy
        return cx, cy

    def integrand(x, y):
        ax, ay = theta(per1, x, y)
        bx, by = theta(per2, x, y)
        return 0.5j * (ax * by.conjugate() - ay * bx.conjugate())

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
        total += integrand(z.real, z.imag)
    return total * area_factor


def reference_kahler(surface, t1, t2, depth):
    """The retired ``flatsurf.kahler_pairing_numeric``: the centroid rule at
    ``depth`` on every triangle, from its corners in its own chart and the
    tangents' periods as floats, summed in ``repr`` order of the triangles;
    a half-translation surface integrated on its orientation double cover
    with the factor 1/2.  The oracle of the closed form."""
    if surface.kind != "translation":
        cover = flatsurf.orientation_double_cover(surface)
        return reference_kahler(cover, flatsurf.lift_tangent(cover, t1),
                                flatsurf.lift_tangent(cover, t2), depth) / 2.0
    total = complex(0)
    for t in sorted(surface.triangles, key=repr):
        ds = surface.triangles[t]
        p1 = surface.vectors[ds[0]]
        P = [complex(p.re, p.im)
             for p in (QC(0), p1, p1 + surface.vectors[ds[1]])]
        per1, per2 = ([complex(tan.delta[d].re, tan.delta[d].im)
                       for d in ds] for tan in (t1, t2))
        total += reference_quadrature(P, per1, per2, depth)
    return total
