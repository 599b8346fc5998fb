"""Metric trees over lexicographic tuples, and pushing toward an end.

Distances in these trees are tuples of rationals compared left to right;
a leading coordinate of higher rank dominates any amount in the later
ones.  The demo builds a small tree with rank-2 lengths, inspects the
four-point condition, extracts the convex-subgroup subtree, and then
slides points toward a distinguished end of a rank-1 tree to watch the
distance settle at the horofunction gap.
"""

from fractions import Fraction

from isocone.ordgroup import LexVec, LeftInverse, embed_last
from isocone.lamtree import (
    MetricTree, four_point_check, vertex_distance_matrix,
    is_zero_hyperbolic, subtree_at,
)


def main():
    print("== a rank-2 tree ==")
    tree = MetricTree(
        ["root", "a", "b", "c", "d"],
        {
            "e1": ("root", "a", LexVec((1, 0))),   # one big unit
            "e2": ("root", "b", LexVec((0, 3))),   # three small units
            "e3": ("b", "c", LexVec((0, 2))),
            "e4": ("b", "d", LexVec((1, -5))),     # big minus small
        })
    dm = vertex_distance_matrix(tree)
    print("vertices:", tree.vertices)
    print("d(a, c) =", tree.vertex_distance("a", "c"))
    print("d(c, d) =", tree.vertex_distance("c", "d"))
    print("every 4-tuple satisfies the tree condition:",
          is_zero_hyperbolic(dm))

    print()
    print("== the small-scale subtree at b ==")
    sub = subtree_at(tree, "b", 2)
    print("vertices at infinitesimal distance from b:", sub.vertices)
    print("its lengths, truncated to the small coordinate:",
          {e: v[2] for e, v in sub.edges.items()})

    print()
    print("== splitting an order embedding ==")
    a = LexVec((0, 2, 7))
    phi = LeftInverse(a)
    print(f"phi for a = {a}: reads slot {phi.index + 1}, scale {phi.scale}")
    print("phi(a) =", phi(a))
    print("phi(embed_last(5, 3)) =", phi(embed_last(5, 3)))

    print()
    print("== pushing toward an end ==")
    t = MetricTree(
        ["o", "anchor", "p", "q"],
        {
            "r": ("anchor", "o", LexVec((1,))),
            "ep": ("o", "p", LexVec((2,))),
            "eq": ("o", "q", LexVec((5,))),
        },
        end="anchor")
    p, q = t.point("p"), t.point("q")
    gap = abs(t.busemann(p) - t.busemann(q))
    print("horofunction gap |beta(p) - beta(q)| =", gap)
    for s in (0, 2, 5, 6, 9):
        d = t.distance(t.push(p, s), t.push(q, s))
        print(f"  after pushing by {s}: distance {d}")


if __name__ == "__main__":
    main()
