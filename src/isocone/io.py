"""Line-based text formats for trees, tracks, flat surfaces, and 3-manifolds.

One directive per line, ``#`` starting a comment; rationals are ``p/q`` or
``p``, tuples ``(p,q/r,...)``.  Parsers read rationals as integer pairs in
lowest terms, note any written otherwise, and refuse unknown directives by
line.  Flat surfaces and 3-manifolds round-trip on normalized files.
"""

import math
from fractions import Fraction

from isocone import flatsurf
from isocone.ordgroup import LexVec, format_rat
from isocone.lamtree import MetricTree
from isocone.track import TrainTrack, SurfaceTriangulation
from isocone.cone3 import Triangulation3, FACE_CORNERS, GluingError
# io.FlatSurface is a trace site of the benchmark (perfbench/spans.py),
# which replaces it with a plain function, so surfaces are built through
# flatsurf.FlatSurface
from isocone.flatsurf import FlatSurface, PeriodTangent, _new, _to_ints


class ParseError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")


def clean_id(x):
    """Whitespace-free string form of an id (tuples joined with '_')."""
    if isinstance(x, tuple):
        return "_".join(clean_id(p) for p in x)
    s = str(x)
    if any(c.isspace() for c in s):
        raise ValueError(f"id {x!r} contains whitespace")
    return s


def rename_track(track):
    """Copy of a track with all ids flattened to clean strings."""
    switches = {clean_id(s): tuple(clean_id(b) for b in abc)
                for s, abc in track.switches.items()}
    return TrainTrack(switches)


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if toks := raw.split("#", 1)[0].split():
            yield lineno, toks


def _rat(tok, lineno, notes):
    """A rational token as ``(p, q)`` in lowest terms with ``q > 0``; a token
    spelled otherwise gets a note, and one that is no rational a refusal."""
    num, slash, den = tok.partition("/")
    try:
        # ASCII integers and their quotients by nonzero ASCII integers skip
        # the parser of Fraction(str), which gives the same value
        fast = tok.isascii() and num.removeprefix("-").isdigit() and (
            den.lstrip("0").isdigit() or not slash)
        p, q = ((int(num), int(den or 1)) if fast
                else Fraction(tok).as_integer_ratio())
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad rational {tok!r}")
    p, q = p // (g := math.gcd(p, q)), q // g
    if (s := f"{p}/{q}" if q > 1 else str(p)) != tok:
        notes.append(f"normalized {tok} to {s}")
    return p, q


def _fmt(x, d):
    """``x / d`` for ``d > 0`` as ``format_rat`` writes it."""
    g = math.gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _put(table, key, value, lineno, what):
    """``table[key] = value``, refusing a key that an earlier line gave."""
    if key in table:
        raise ParseError(lineno, f"{what} {key!r} given twice")
    table[key] = value


# -- metric trees -------------------------------------------------------------


def parse_tree(text):
    vertices, edges, head, notes = {}, {}, {}, []
    for lineno, toks in _lines(text):
        if toks[0] == "vertex" and len(toks) == 2:
            _put(vertices, toks[1], None, lineno, "vertex")
        elif toks[0] == "edge" and len(toks) == 5:
            eid, u, v, vec = toks[1], toks[2], toks[3], toks[4]
            if not (vec.startswith("(") and vec.endswith(")")):
                raise ParseError(lineno, f"malformed tuple: {vec!r}")
            _put(edges, eid, (u, v, LexVec(Fraction(*_rat(p, lineno, notes))
                                           for p in vec[1:-1].split(","))),
                 lineno, "edge")
        elif toks[0] == "end" and len(toks) == 2:
            _put(head, "end", toks[1], lineno, "directive")
        else:
            raise ParseError(lineno, f"unknown directive {' '.join(toks)!r}")
    try:
        tree = MetricTree(vertices, edges, end=head.get("end"))
    except ValueError as e:
        raise ParseError(0, f"invalid tree: {e}")
    return tree, notes


# -- train tracks --------------------------------------------------------------


def serialize_track(track):
    out = [f"branch {e}" for e in sorted(track.branches, key=str)]
    out += ["switch {} in {} {} out {} ccw".format(s, *track.switches[s])
            for s in sorted(track.switches, key=str)]
    return "\n".join(out) + "\n"


# -- flat surfaces ----------------------------------------------------------------


def parse_flatsurface(text):
    # signs: the sign token and line number of each glue line; where: the
    # line of each entry that a refusal of the surface or a tangent names
    head, triangles, vectors, gluings, signs, tangents = {}, {}, {}, {}, {}, {}
    notes, where = [], {}

    def pair(re, im):     # a value pair of the current line
        return _rat(re, lineno, notes), _rat(im, lineno, notes)
    for lineno, toks in _lines(text):
        if toks[0] == "kind" and len(toks) == 2:
            _put(head, "kind", toks[1], lineno, "directive")
            where["kind"] = lineno
        elif toks[0] == "triangle" and len(toks) == 5:
            _put(triangles, toks[1], tuple(toks[2:]), lineno, "triangle")
            where["triangle", toks[1]] = lineno
        elif toks[0] == "vector" and len(toks) == 4:
            _put(vectors, toks[1], pair(*toks[2:]), lineno, "vector")
            where["vector", toks[1]] = lineno
        elif toks[0] == "glue" and len(toks) in (3, 4):
            _put(gluings, toks[1], toks[2], lineno, "gluing of edge")
            _put(gluings, toks[2], toks[1], lineno, "gluing of edge")
            signs[toks[1]] = (toks[3] if len(toks) == 4 else "neg", lineno)
            where["glue", toks[1]] = where["glue", toks[2]] = lineno
        elif toks[0] == "tangent" and len(toks) == 5:
            _put(tangents.setdefault(toks[1], {}), toks[2], pair(*toks[3:]),
                 lineno, f"tangent {toks[1]} value on edge")
            where["vector", toks[2], toks[1]] = lineno
        else:
            raise ParseError(lineno, f"unknown directive {' '.join(toks)!r}")
    if "kind" not in head:
        raise ParseError(0, "missing kind directive")
    try:
        surf = _new(flatsurf.FlatSurface, head["kind"], SurfaceTriangulation(
            triangles, gluings), *_to_ints(vectors))
    except ValueError as e:
        raise ParseError(where.get(getattr(e, "entry", None), 0),
                         f"invalid flat surface: {e}")
    for d, (s, n) in signs.items():
        if s != surf.signs[d]:
            raise ParseError(n, f"sign {s!r} contradicts the vectors at {d!r}")
    tlist = []
    for idx in sorted(tangents, key=str):
        try:
            tlist.append(_new(PeriodTangent, surf, *_to_ints(tangents[idx])))
        except ValueError as e:
            # a tangent's value is at ("vector", edge, tangent)
            line = where.get((*e.entry, idx)) or where.get(e.entry, 0)
            raise ParseError(line, f"invalid tangent {idx}: {e}")
    return surf, tlist, notes


def serialize_flatsurface(surface, tangents=()):
    out = [f"kind {surface.kind}"]
    out += ["triangle {} {} {} {}".format(t, *surface.triangles[t])
            for t in sorted(surface.triangles, key=str)]
    out += _values("vector", surface)
    for d in sorted(surface.glue, key=str):
        if str(d) < str(surface.glue[d]):   # written from the first name
            out.append(f"glue {d} {surface.glue[d]} {surface.signs[d]}")
    for i, tan in enumerate(tangents, start=1):
        out += _values(f"tangent {i}", tan)
    return "\n".join(out) + "\n"


def _values(head, obj):
    """The value lines of a surface or tangent, in ``str`` order of edges."""
    D = obj._den
    return [f"{head} {d} {_fmt(x, D)} {_fmt(y, D)}"
            for d, (x, y) in sorted(obj._vec.items(), key=lambda p: str(p[0]))]


# -- 3-manifolds with boundary data ------------------------------------------------


def parse_manifold(text):
    """Parse a combined file: tetrahedra, gluings, boundary track, weights.

    Returns ``(manifold, outgoing, weights, notes)``: ``outgoing`` maps
    boundary triangles to outgoing slots (empty with no ``switch`` lines),
    ``weights`` boundary edges to rationals.
    """
    # tets: tet id -> None, in line order; glued: the line of each glued face
    tets, gluings, glued, notes = {}, {}, {}, []
    switch_lines, weight_lines = [], []
    for lineno, toks in _lines(text):
        if toks[0] == "tet" and len(toks) == 2:
            _put(tets, toks[1], None, lineno, "tetrahedron")
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
                raise ParseError(lineno, f"bad gluing {' '.join(toks)!r}")
            if len(images) != 3:
                raise ParseError(lineno, "permutation wants 3 images")
            # a new face takes this line; one an earlier line took is refused
            for face, name in (((t1, f1), toks[1]), ((t2, f2), toks[2])):
                if glued.setdefault(face, lineno) != lineno:
                    raise ParseError(lineno, f"face {name!r} glued twice")
            # a face index out of 0..3 is refused before its corners are read
            gluings[t1, f1] = (t2, f2, dict(zip(FACE_CORNERS.get(f1, ()),
                                                images)))
        elif toks[0] == "switch" and len(toks) == 4 and toks[2] == "out":
            switch_lines.append((lineno, toks[1], toks[3]))
        elif toks[0] == "weight" and len(toks) == 3:
            weight_lines.append((lineno, toks[1], toks[2]))
        else:
            raise ParseError(lineno, f"unknown directive {' '.join(toks)!r}")
    try:
        manifold = Triangulation3(tets, gluings)
    except ValueError as e:
        # a refusal found at one gluing entry names the line it came from
        line = glued.get(e.entry, 0) if isinstance(e, GluingError) else 0
        raise ParseError(line, f"invalid triangulation: {e}")

    tri_by_name = {boundary_triangle_name(tf): tf
                   for tf in manifold.boundary_faces}
    outgoing = {}
    for lineno, name, slot in switch_lines:
        if name not in tri_by_name:
            raise ParseError(lineno, f"unknown boundary triangle {name!r}")
        if tri_by_name[name] in outgoing:
            raise ParseError(lineno, f"repeated switch for {name!r}")
        if slot not in ("0", "1", "2"):
            raise ParseError(lineno, f"bad slot {slot!r}")
        outgoing[tri_by_name[name]] = int(slot)

    weights = {}
    if manifold.boundary is not None and weight_lines:
        edge_by_name = {boundary_edge_name(E): E
                        for E in manifold.boundary.edge_classes}
        for lineno, name, val in weight_lines:
            if name not in edge_by_name:
                raise ParseError(lineno, f"unknown boundary edge {name!r}")
            if edge_by_name[name] in weights:
                raise ParseError(lineno, f"repeated weight for {name!r}")
            weights[edge_by_name[name]] = Fraction(*_rat(val, lineno, notes))
    elif weight_lines:
        raise ParseError(weight_lines[0][0], "weights on a closed manifold")
    return manifold, outgoing, weights, notes


def boundary_triangle_name(tf):
    return "{}.{}".format(*tf)


def boundary_edge_name(E):
    return "{}.{}.{}".format(*E)


def edge_class_name(cls):
    return "{}:{}{}".format(cls[0], *sorted(cls[1]))


def serialize_manifold(manifold, outgoing=None, weights=None):
    out = [f"tet {t}" for t in manifold.tets]
    glue = {}       # each pair written from its face that sorts first
    for (t, f), (t2, f2, perm) in manifold.gluings.items():
        if repr((t2, f2)) < repr((t, f)):
            t, f, t2, f2, perm = t2, f2, t, f, {v: k for k, v in perm.items()}
        images = ",".join(str(perm[v]) for v in sorted(perm))
        glue[repr((t, f))] = f"glue {t}.{f} {t2}.{f2} {images}"
    out += [glue[k] for k in sorted(glue)]
    out += [f"switch {boundary_triangle_name(tf)} out {outgoing[tf]}"
            for tf in sorted(outgoing or (), key=repr)]
    out += [f"weight {boundary_edge_name(E)} {format_rat(weights[E])}"
            for E in sorted(weights or (), key=repr)]
    return "\n".join(out) + "\n"
