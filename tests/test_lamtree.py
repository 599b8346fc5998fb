import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isocone.ordgroup import LexVec, DimensionError
from isocone.lamtree import (
    MetricTree, four_point_check, is_zero_hyperbolic, vertex_distance_matrix,
    subtree_at, NotAMetricError,
)
from util import (
    code_lines, outcome, random_lexvec, random_positive_lexvec, random_tree,
    reference_is_zero_hyperbolic, reference_push,
)


def V(*coords):
    return LexVec(coords)


def path_tree(lengths):
    """Path 0-1-2-... with the given LexVec lengths."""
    n = len(lengths) + 1
    edges = {f"e{i}": (i, i + 1, lengths[i]) for i in range(len(lengths))}
    return MetricTree(range(n), edges)


def metric_from_positions(positions):
    """Distance matrix of points on a rank-1 line."""
    return [[V(abs(p - q)) for q in positions] for p in positions]


class TestDistance:
    def test_path_sum(self):
        t = path_tree([V(1, 0), V(0, 2)])
        assert t.distance(t.point(0), t.point(2)) == V(1, 2)

    def test_identity(self):
        t = path_tree([V(1, 0), V(0, 2)])
        p = t.point_on_edge("e0", V(Fraction(1, 2), 0))
        assert t.distance(p, p) == V(0, 0)

    def test_star(self):
        edges = {"a": ("o", "p", V(2)), "b": ("o", "q", V(3))}
        t = MetricTree(["o", "p", "q"], edges)
        assert t.distance(t.point("p"), t.point("q")) == V(5)

    def test_edge_points_same_edge(self):
        t = path_tree([V(4)])
        p = t.point_on_edge("e0", V(1))
        q = t.point_on_edge("e0", V(3))
        assert t.distance(p, q) == V(2)

    def test_edge_point_endpoint_normalization(self):
        t = path_tree([V(4)])
        assert t.point_on_edge("e0", V(0)) == t.point(0)
        assert t.point_on_edge("e0", V(4)) == t.point(1)

    def test_metric_axioms_random(self):
        rng = random.Random(20)
        for _ in range(30):
            t = random_tree(rng, rng.randint(2, 9), rng.randint(1, 3))
            dm = vertex_distance_matrix(t)
            n = len(dm)
            zero = LexVec.zero(t.rank)
            for i in range(n):
                assert dm[i][i] == zero
                for j in range(n):
                    assert dm[i][j] == dm[j][i]
                    if i != j:
                        assert dm[i][j] > zero
                    for k in range(n):
                        assert dm[i][j] <= dm[i][k] + dm[k][j]


class TestConstruction:
    def test_disconnected_with_tree_edge_count(self):
        # a triangle and an isolated vertex: n - 1 edges, two components
        edges = {"a": (0, 1, V(1)), "b": (1, 2, V(1)), "c": (2, 0, V(1))}
        with pytest.raises(ValueError, match="not connected"):
            MetricTree([0, 1, 2, 3], edges)

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError, match="edge count"):
            MetricTree([0, 1, 2], {"a": (0, 1, V(1))})

    @pytest.mark.parametrize("edges", [
        # three vertex entries and two edges pass the edge count check, and
        # the two edges close a cycle through two vertices
        {"e1": ("a", "b", V(1)), "e2": ("a", "b", V(2))},
        {"e1": ("a", "b", V(1))},
    ])
    def test_repeated_vertex(self, edges):
        with pytest.raises(ValueError, match="vertex 'a' listed twice"):
            MetricTree(["a", "b", "a"], edges)

    def test_end_anchor_not_a_vertex(self):
        with pytest.raises(ValueError, match="end anchor 9 is not a vertex"):
            MetricTree([0, 1], {"a": (0, 1, V(1))}, end=9)


def _path_length(tree, a, b):
    """Sum of the edge lengths on the a-b path, found by a breadth-first
    walk from a over the edge list (no use of the tree's own walk)."""
    via = {a: None}
    frontier = [a]
    while frontier:
        nxt = []
        for w in frontier:
            for eid, (u, v, _) in tree.edges.items():
                for x, y in ((u, v), (v, u)):
                    if x == w and y not in via:
                        via[y] = (w, eid)
                        nxt.append(y)
        frontier = nxt
    total = LexVec.zero(tree.rank)
    while b != a:
        b, eid = via[b]
        total = total + tree.edges[eid][2]
    return total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=1, max_size=12))
def test_vertex_distance_is_path_sum(seed, with_end, queries):
    # each answer is the path sum, whichever sources were walked before
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    t = random_tree(rng, n, rng.randint(1, 3), with_end=with_end)
    for i, j in queries:
        a, b = t.vertices[i % n], t.vertices[j % n]
        assert t.vertex_distance(a, b) == _path_length(t, a, b)


class TestFourPoint:
    def test_collinear(self):
        # positions 0,1,2,3 on a line; pair sums computed directly from the
        # path metric: 1+1, 2+2, 3+1 = 2, 4, 4
        dm = metric_from_positions([0, 1, 2, 3])
        s1 = dm[0][1] + dm[2][3]
        s2 = dm[0][2] + dm[1][3]
        s3 = dm[0][3] + dm[1][2]
        assert sorted([s1, s2, s3]) == [V(2), V(4), V(4)]
        assert four_point_check(dm)

    def test_equilateral(self):
        dm = [[V(0) if i == j else V(1) for j in range(4)] for i in range(4)]
        assert four_point_check(dm)

    def test_square_metric_fails(self):
        # cyclic square: sides 1, diagonals 2; sums are 2, 4, 2
        D = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1, (0, 2): 2, (1, 3): 2}
        dm = [[V(0)] * 4 for _ in range(4)]
        for (i, j), d in D.items():
            dm[i][j] = dm[j][i] = V(d)
        assert not four_point_check(dm)
        assert not is_zero_hyperbolic(dm)

    def test_trees_pass_everywhere(self):
        rng = random.Random(21)
        for _ in range(20):
            t = random_tree(rng, rng.randint(4, 9), rng.randint(1, 3))
            assert is_zero_hyperbolic(vertex_distance_matrix(t))

    def test_three_points_vacuous(self):
        dm = metric_from_positions([0, 5, 9])
        assert is_zero_hyperbolic(dm)

    def test_not_a_metric(self):
        dm = [[V(0), V(10), V(1)], [V(10), V(0), V(1)], [V(1), V(1), V(0)]]
        with pytest.raises(NotAMetricError):
            is_zero_hyperbolic(dm)

    @pytest.mark.parametrize("dm", [[[V(0), V(1)], []],
                                    [[V(0)], [V(1), V(0)]],
                                    [[]], [[V(1), V(0)]]])
    def test_ragged_rows_refused(self, dm):
        # every row's length is checked before any entry is read, a single
        # row's too
        with pytest.raises(NotAMetricError, match="^matrix not square$"):
            is_zero_hyperbolic(dm)

    def test_one_point(self):
        # a 1x1 matrix is a metric iff its entry is zero
        assert is_zero_hyperbolic([[V(0)]]) and is_zero_hyperbolic([])
        with pytest.raises(NotAMetricError, match="^nonzero diagonal$"):
            is_zero_hyperbolic([[V(1)]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.booleans(),
       st.integers(0, 2))
def test_is_zero_hyperbolic_matches_reference(seed, rank, summed, changes):
    # tree metrics of rank 1 and 2, or sums of two (metrics, mostly not
    # tree ones), and copies with a few entries moved, mostly in mirror
    # pairs: the same verdict or the same refusal
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    trees = [random_tree(rng, n, rank) for _ in range(1 + summed)]
    dm = [[sum(ds[1:], ds[0]) for ds in zip(*rows)]
          for rows in zip(*map(vertex_distance_matrix, trees))]
    for _ in range(changes):
        i, j = rng.randrange(n), rng.randrange(n)
        step = random_lexvec(rng, trees[0].rank).scale(Fraction(1, 8))
        dm[i][j] = dm[i][j] + step
        if rng.random() < 0.8:
            dm[j][i] = dm[i][j]
    assert outcome(is_zero_hyperbolic, dm) == \
        outcome(reference_is_zero_hyperbolic, dm)


class TestUnknownVertex:
    # refused as ``point`` refuses it, whether the lookup misses a cached
    # source's distances (a, the root, and b) or the walk from it (c)
    @pytest.mark.parametrize("query", [
        lambda t: t.point("zz"),
        lambda t: t.vertex_distance("zz", "a"),
        lambda t: t.vertex_distance("a", "zz"),
        lambda t: t.vertex_distance("b", "zz"),
        lambda t: t.vertex_distance("zz", "c"),
        lambda t: t.vertex_distance("zz", "zz"),
        lambda t: subtree_at(t, "zz", 1)])
    def test_refused_by_name(self, query):
        t = MetricTree("abc", {"e": ("a", "b", V(1)), "f": ("b", "c", V(2))})
        t.vertex_distance("b", "c")     # walks from b
        with pytest.raises(ValueError, match="^unknown vertex 'zz'$"):
            query(t)


class TestSubtree:
    def test_membership(self):
        t = path_tree([V(0, 1), V(1, 0)])
        sub = subtree_at(t, 0, 2)
        assert set(sub.vertices) == {0, 1}
        assert sub.edges["e0"][2] == V(1)

    def test_whole_tree_at_k1(self):
        rng = random.Random(24)
        t = random_tree(rng, 8, 3)
        sub = subtree_at(t, t.vertices[0], 1)
        assert set(sub.vertices) == set(t.vertices)

    def test_isolated_point(self):
        t = path_tree([V(1, 0), V(2, 0)])
        sub = subtree_at(t, 1, 2)
        assert set(sub.vertices) == {1}


class TestEndAndPushing:
    def test_busemann_values(self):
        # anchor 0, path 0-1-2 with lengths 2, 3
        t = MetricTree([0, 1, 2], {"a": (0, 1, V(2)), "b": (1, 2, V(3))}, end=0)
        assert t.busemann(t.point(0)) == 0
        assert t.busemann(t.point(2)) == 5
        assert t.busemann(t.point_on_ray(LexVec([2]))) == -2

    def test_push_identity_and_ray(self):
        t = MetricTree([0, 1], {"a": (0, 1, V(5))}, end=0)
        p = t.point(1)
        assert t.push(p, 0) == p
        assert t.push(p, 7) == t.point_on_ray(LexVec([2]))

    def test_push_contracts_to_horofunction_gap(self):
        # leaves p, q at distances 2 and 5 from a junction o on the anchor path
        edges = {
            "r": ("anchor", "o", V(1)),
            "p": ("o", "p", V(2)),
            "q": ("o", "q", V(5)),
        }
        t = MetricTree(["anchor", "o", "p", "q"], edges, end="anchor")
        p, q = t.point("p"), t.point("q")
        gap = abs(t.busemann(p) - t.busemann(q))
        assert gap == 3
        s0 = 5  # max distance from p, q to the junction o
        for s in (s0, s0 + 1, s0 + 10):
            d = t.distance(t.push(p, s), t.push(q, s))
            assert d == V(gap)

    def test_push_from_edge_points(self):
        # end 0; edge "a" is stored from its end side, edge "b" toward it
        t = MetricTree([0, 1, 2], {"a": (0, 1, V(4)), "b": (2, 1, V(3))},
                       end=0)
        p = t.point_on_edge("a", V(1))
        half = Fraction(1, 2)
        assert t.push(p, half) == t.point_on_edge("a", V(half))
        assert t.push(p, 1) == t.point(0)
        assert t.push(p, 3) == t.point_on_ray(LexVec([2]))
        q = t.point_on_edge("b", V(1))
        assert t.push(q, 1) == t.point_on_edge("b", V(2))
        assert t.push(q, 2) == t.point(1)
        assert t.push(q, 3) == t.point_on_edge("a", V(3))
        assert t.push(q, 8) == t.point_on_ray(LexVec([2]))

    def test_push_edge_points_random(self):
        # pushing by s lowers the horofunction by s and moves the point by
        # exactly s, from either orientation of the stored edge
        rng = random.Random(28)
        for _ in range(40):
            t = random_tree(rng, rng.randint(2, 8), 1, with_end=True)
            for eid, (u, v, length) in t.edges.items():
                offset = length.scale(Fraction(rng.randint(1, 4), 5))
                p = t.point_on_edge(eid, offset)
                for s in (Fraction(rng.randint(1, 30), 6), length.coords[0]):
                    img = t.push(p, s)
                    assert t.busemann(img) == t.busemann(p) - s
                    assert t.distance(p, img) == V(s)

    def test_push_nonincreasing_random(self):
        rng = random.Random(25)
        for _ in range(40):
            t = random_tree(rng, rng.randint(2, 8), 1, with_end=True)
            vs = t.vertices
            p = t.point(vs[rng.randrange(len(vs))])
            q = t.point(vs[rng.randrange(len(vs))])
            s = Fraction(rng.randint(0, 12), rng.randint(1, 3))
            before = t.distance(p, q)
            after = t.distance(t.push(p, s), t.push(q, s))
            assert after <= before

    def test_pushing_law_random(self):
        rng = random.Random(26)
        for _ in range(40):
            t = random_tree(rng, rng.randint(2, 8), 1, with_end=True)
            anchor = t.point(t.end)
            for p, q in itertools.combinations([t.point(v) for v in t.vertices], 2):
                # junction of the rays from p and q toward the end
                s0 = max(t.distance(p, anchor), t.distance(q, anchor)).coords[0]
                gap = abs(t.busemann(p) - t.busemann(q))
                for s in (s0, s0 + 1):
                    d = t.distance(t.push(p, s), t.push(q, s))
                    assert d == V(gap)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_push_matches_reference(seed):
    # vertex, edge and ray points, pushed by 0, by edge lengths, by sums
    # of lengths (the distances to the end among them, which land on
    # vertices) and by random amounts
    rng = random.Random(seed)
    t = random_tree(rng, rng.randint(1, 8), 1, with_end=True)
    lengths = [length.coords[0] for _, _, length in t.edges.values()]
    points = [t.point(v) for v in t.vertices]
    points += [t.point_on_edge(eid, length.scale(Fraction(k, 5)))
               for eid, (_, _, length) in t.edges.items()
               for k in (rng.randint(1, 4),)]
    points.append(t.point_on_ray(V(Fraction(rng.randint(1, 9), 2))))
    amounts = [0, *lengths,
               *(t.vertex_distance(v, t.end).coords[0] for v in t.vertices),
               sum(rng.sample(lengths, rng.randint(0, len(lengths)))),
               *(Fraction(rng.randint(1, 40), rng.randint(1, 6))
                 for _ in range(4))]
    for p in points:
        for s in amounts:
            assert t.push(p, s) == reference_push(t, p, s)


def test_code_line_count():
    # one walk per source gives the parent pointers, the distances and the
    # connectivity check: a second walk or a pair-keyed cache would not
    # fit; push climbs in one loop and the four-point check is one all()
    assert code_lines("lamtree") <= 267
