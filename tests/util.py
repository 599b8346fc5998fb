"""Shared random generators for the test suite (seeded, deterministic)."""

import cProfile
import fractions
import importlib
import itertools
import math
import pathlib
import pstats
import random
import tracemalloc
from fractions import Fraction

from isocone import flatsurf, io, linalg
from isocone.cone3 import (
    EDGE_PAIRS, FACE_CYCLES, GluingError, OrientationError)
from isocone.fixtures import (
    genus2_four_vertex_surface, genus2_maximal_track, mf_weight,
    product_bundle)
from isocone.flatsurf import QC, FlatSurface, PeriodTangent
from isocone.ordgroup import DimensionError, LexVec, format_rat, rat
from isocone.lamtree import MetricTree, NotAMetricError
from isocone.track import NotOrientableError, SurfaceTriangulation


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


def traced_peak(fn):
    """The peak of the memory that ``tracemalloc`` traces while ``fn()``
    runs, in bytes: what ``fn`` holds at once, beyond what was held before
    the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    ``items``.  The oracle of the integer ``isocone.track.union_find``."""
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
    their denominators."""
    pins = manifold.boundary.edge_classes
    values = [rat(w_boundary.get(E, 0)) for E in pins]
    D = math.lcm(*[val.denominator for val in values])
    pinned = [val.numerator * (D // val.denominator) for val in values]
    first = len(manifold.columns) - len(pins)
    return [[(k, [(c, x) for c, x in row if c < first],
              -sum(x * pinned[c - first] for c, x in row if c >= first))
             for k, row in enumerate(manifold.choice_rows[t])]
            for t in manifold.tets]


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
