"""Sheared n x n grid tori for the flat-surfaces workload.

The grid torus is the square torus of side n cut into n*n unit squares,
each split along its (1, 1) diagonal.  Every lattice point is a marked
point of cone angle 2*pi, so the surface is a genus-1 translation surface
of area n*n with empty zero symbol.  Shearing it moves the triangulation
away from Delaunay, and the number of flips needed grows with n and with
the shear.
"""

from fractions import Fraction

from isocone.flatsurf import QC, FlatSurface


def grid_torus(n):
    """The unsheared n x n grid torus as a ``FlatSurface``.

    Directed edges are named ``h<i>.<j>+`` / ``h<i>.<j>-`` for the
    horizontal edge leaving lattice point (i, j), and likewise ``v`` for
    vertical and ``d`` for diagonal edges; ``+`` points along the positive
    axis.  Indices are taken mod n.
    """
    if n < 1:
        raise ValueError("grid size must be at least 1")
    triangles = {}
    vectors = {}
    glue = {}
    for i in range(n):
        for j in range(n):
            i1, j1 = (i + 1) % n, (j + 1) % n
            triangles[f"L{i}.{j}"] = (f"h{i}.{j}+", f"v{i1}.{j}+",
                                      f"d{i}.{j}-")
            triangles[f"U{i}.{j}"] = (f"d{i}.{j}+", f"h{i}.{j1}-",
                                      f"v{i}.{j}-")
            for kind, vec in (("h", QC(1, 0)), ("v", QC(0, 1)),
                              ("d", QC(1, 1))):
                plus, minus = f"{kind}{i}.{j}+", f"{kind}{i}.{j}-"
                vectors[plus] = vec
                vectors[minus] = -vec
                glue[plus] = minus
                glue[minus] = plus
    return FlatSurface("translation", triangles, vectors, glue)


def checked_grid_torus(n):
    """``grid_torus(n)`` after checking genus 1, area n*n and symbol ()."""
    surf = grid_torus(n)
    v = surf.validate()
    if (v["genus"], v["area"], v["symbol"]) != (1, Fraction(n * n), ()):
        raise ValueError(f"grid torus {n}x{n} failed validation: "
                         f"genus {v['genus']}, area {v['area']}, "
                         f"symbol {v['symbol']}")
    return surf
