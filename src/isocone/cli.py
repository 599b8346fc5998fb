"""Command-line interface.

Thin wrappers over the library: every subcommand parses its input file,
calls library operations, and prints a deterministic report of exact
rationals (the quadrature section of ``symplectic-check`` is the single
floating-point block, and is labeled as such).  Exit codes: 0 success,
1 domain error (a named invariant fails), 2 parse or I/O error.
"""

import argparse
import functools
import random
import re
import sys
from fractions import Fraction

from isocone import io, fixtures, flatsurf
from isocone.ordgroup import format_rat
from isocone.lamtree import vertex_distance_matrix, is_zero_hyperbolic
from isocone.cone3 import (
    BoundaryTrack, IsotropyError, compute_cone, member, verify_witness)
from isocone.flatsurf import (
    QC, delaunay, is_delaunay, PeriodTangent, random_tangent,
    omega_thurston, omega_hessian, omega_homological,
    kahler_pairing_numeric, NeedsRotationError, _mapped, _new,
)

# --depth does not change the pairing, an exact sum rounded once; its range
# and the ``depth:`` line stay for the scripts that pass it
MAX_QUADRATURE_DEPTH = 10


class DomainError(ValueError):
    pass


def _read(path):
    with open(path) as fh:
        return fh.read()


def _emit(lines, args):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)


# a rational [-]p[/q] of ASCII digits; --rotate takes a, bi, a+bi or a-bi,
# where a sign and no digits before i mean 1: '2', '-i', '1/2-3i'
_RAT = r"[0-9]+(?:/[0-9]+)?"
_ROTATE = re.compile(rf"(-?{_RAT})|(?:(-?{_RAT})(?=[+-]))?([+-]?)({_RAT})?i")


def _parse_rotate(text):
    """The rational complex multiplier a ``--rotate`` value names, with
    spaces dropped; a value of any other form is a domain error."""
    m = _ROTATE.fullmatch(text.replace(" ", ""))
    if m is None:
        raise DomainError(f"bad --rotate value {text!r}")
    real, re_part, sign, im = m.groups()
    if real is not None:
        return QC(Fraction(real), 0)
    return QC(Fraction(re_part or 0), Fraction(sign + (im or "1")))


def _choice_iter(manifold, args):
    """The choice vectors ``--choices`` asks for, a sample drawn in full
    before the run (None for all), with the ``choices:``, ``coverage:``
    and ``certified:`` lines that report them: a sample covers its
    distinct vectors and is certified when they are all of them."""
    mode = args.choices or "all"
    total = covered = 3 ** len(manifold.tets)
    combos = None
    if mode != "all":
        size = mode[len("sample:"):]
        if not (mode.startswith("sample:") and size.isascii()
                and size.isdigit() and size[0] != "0"):
            raise DomainError(f"bad --choices value {mode!r}")
        if args.seed is None:
            raise DomainError("sampling requires --seed")
        rng = random.Random(args.seed)
        combos = [tuple(rng.randrange(3) for _ in manifold.tets)
                  for _ in range(int(size))]
        covered = len(set(combos))
    return combos, [f"choices: {mode}", f"coverage: {covered}/{total}",
                    f"certified: {'true' if covered == total else 'false'}"]


# -- cone subcommands ---------------------------------------------------------


def cmd_cone_compute(args):
    manifold, outgoing, _, notes = io.parse_manifold(_read(args.input))
    btrack = BoundaryTrack(manifold, outgoing)
    it, header = _choice_iter(manifold, args)
    cone = compute_cone(manifold, btrack, choice_iter=it)
    lines = ["status: ok", *header, f"components: {len(cone)}"]
    lines += [f"note: {n}" for n in notes]
    names = [io.boundary_edge_name(E) for E in cone.edge_order]
    lines.append("edges: " + " ".join(names))
    # the same line for every component: all branches, held sorted by repr
    active = "active: " + " ".join(
        io.boundary_edge_name(e) for e in btrack.track.branches)
    for i, comp in enumerate(cone.components):
        lines.append(f"component {i} dimension {comp['dimension']}")
        for row in comp["span"]:
            lines.append("span: " + " ".join(format_rat(x) for x in row))
        lines.append(active)
    return lines


def cmd_cone_member(args):
    manifold, outgoing, weights, notes = io.parse_manifold(_read(args.input))
    btrack = BoundaryTrack(manifold, outgoing)
    full = dict.fromkeys(manifold.boundary.edge_classes, Fraction(0)) | weights
    res = member(manifold, btrack, full)
    lines = [f"member: {'true' if res.member else 'false'}"]
    lines += [f"note: {n}" for n in notes]
    if not res.member:
        lines.append(f"reason: {res.reason}")
    else:
        if not verify_witness(manifold, btrack, full, res):
            raise DomainError("witness failed substitution check")
        lines.append("witness-verified: true")
        lines += [f"choice {t} {res.choices[t]}" for t in manifold.tets]
        lines += [f"witness {io.edge_class_name(cls)} "
                  f"{format_rat(res.witness[cls])}"
                  for cls in manifold.edge_classes]
    return lines


def cmd_cone_isotropy(args):
    manifold, outgoing, _, notes = io.parse_manifold(_read(args.input))
    it, header = _choice_iter(manifold, args)
    # one certificate answers every choice subspace; checked: counts the
    # draws, or all 3^n of them
    try:
        manifold.isotropy_certificate()
    except IsotropyError as e:
        raise DomainError(f"isotropy certificate failed: {e}") from e
    checked = 3 ** len(manifold.tets) if it is None else len(it)
    lines = ["status: ok", *header, f"checked: {checked}", "isotropic: true"]
    return lines + [f"note: {n}" for n in notes]


# -- surface subcommands ----------------------------------------------------------


def _rotate_tangents(rotated, tangents, c):
    """The tangents multiplied by c, on the surface already rotated by c."""
    return [_new(PeriodTangent, rotated, *_mapped(
        (c.re, -c.im, c.im, c.re), t._vec, t._den)) for t in tangents]


def _load_surface(args):
    surf, tangents, notes = io.parse_flatsurface(_read(args.input))
    if args.rotate:
        try:
            c = _parse_rotate(args.rotate)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in --rotate {args.rotate!r}")
        surf = surf.rotate(c)
        tangents = _rotate_tangents(surf, tangents, c)
        notes = notes + [f"rotated by {format_rat(c.re)}+{format_rat(c.im)}i"]
    return surf, tangents, notes


def cmd_surface_validate(args):
    surf, tangents, notes = _load_surface(args)
    v = surf.validate()
    lines = ["status: ok",
             f"kind: {surf.kind}",
             f"genus: {v['genus']}",
             "symbol: (" + ",".join(map(str, v["symbol"])) + ")",
             f"epsilon: {v['epsilon']}",
             f"area: {format_rat(v['area'])}",
             f"delaunay: {'true' if is_delaunay(surf) else 'false'}",
             f"tangents: {len(tangents)}"]
    for vtx in sorted(v["angles"], key=repr):
        lines.append(f"angle {v['angles'][vtx]}pi")
    lines += [f"note: {n}" for n in notes]
    return lines


def cmd_surface_delaunay(args):
    surf, tangents, notes = _load_surface(args)
    if tangents:
        raise DomainError("delaunay retriangulation drops tangents; "
                          "strip them first")
    d = delaunay(surf)
    return io.serialize_flatsurface(d).splitlines()


def cmd_surface_heights(args):
    surf, _, notes = _load_surface(args)
    hs = surf.heights()
    lines = ["status: ok"] + [f"note: {n}" for n in notes]
    for E in sorted(hs, key=str):
        lines.append(f"height {E} {format_rat(hs[E])}")
    return lines


def cmd_surface_track(args):
    surf, _, notes = _load_surface(args)
    track = surf.dual_track()
    lines = io.serialize_track(track).splitlines()
    hs = surf.heights()
    for e in sorted(track.branches, key=str):
        lines.append(f"weight {e} {format_rat(hs[e])}")
    return lines


def cmd_surface_symplectic_check(args):
    if args.depth < 0:
        raise DomainError(f"--depth must be at least 0, not {args.depth}")
    if args.depth > MAX_QUADRATURE_DEPTH:
        raise DomainError(f"--depth must be at most {MAX_QUADRATURE_DEPTH}, "
                          f"not {args.depth}")
    surf, tangents, notes = _load_surface(args)
    if not args.rotate:
        try:
            surf.dual_track()
        except NeedsRotationError:
            surf, c = surf.adapted()
            tangents = _rotate_tangents(surf, tangents, c)
            notes = notes + [
                f"auto-rotated by {format_rat(c.re)}+{format_rat(c.im)}i"]
    if len(tangents) < 2:
        if args.seed is None:
            raise DomainError("need two bundled tangents or --seed")
        rng = random.Random(args.seed)
        while len(tangents) < 2:
            tangents.append(random_tangent(surf, rng))
    t1, t2 = tangents[0], tangents[1]
    a = omega_thurston(surf, t1, t2)
    b = omega_hessian(surf, t1, t2)
    c3 = omega_homological(surf, t1, t2)
    lines = ["status: ok"] + [f"note: {n}" for n in notes]
    lines.append(f"omega_thurston: {format_rat(a)}")
    lines.append(f"omega_homological: {format_rat(c3)}")
    lines.append(f"omega_hessian: {format_rat(b)}")
    lines.append(f"agree: {'true' if a == b == c3 else 'false'}")
    num = kahler_pairing_numeric(surf, t1, t2)
    lines.append("quadrature (floating point):")
    lines.append(f"  depth: {args.depth}")
    lines.append(f"  pairing: {num.real:.12g}{num.imag:+.12g}i")
    if a != b or a != c3:
        raise DomainError("the three exact pairings disagree")
    return lines


# -- tree subcommand -----------------------------------------------------------------


def cmd_tree_fourpoint(args):
    tree, notes = io.parse_tree(_read(args.input))
    dm = vertex_distance_matrix(tree)
    n = len(dm)
    ok = is_zero_hyperbolic(dm)
    tuples = n * (n - 1) * (n - 2) * (n - 3) // 24 if n >= 4 else 0
    lines = ["status: ok",
             f"vertices: {n}",
             f"tuples-checked: {tuples}",
             f"four-point: {'pass' if ok else 'fail'}"]
    lines += [f"note: {n}" for n in notes]
    return lines


# -- fixtures ---------------------------------------------------------------------


def _fixture_text(name):
    if name in ("square_torus", "hex_torus", "lshape_h2", "pillowcase"):
        surf = getattr(flatsurf, name)()
        t1 = PeriodTangent.scaling(surf)
        t2 = t1.times_i()
        return io.serialize_flatsurface(surf, [t1, t2])
    if name == "g2_track":
        track, *_ = fixtures.genus2_maximal_track()
        return io.serialize_track(io.rename_track(track))
    if name in ("two_tets", "chain4"):
        m = (fixtures.two_tets() if name == "two_tets"
             else fixtures.chain_tets(4))
        out = {tf: 0 for tf in m.boundary_faces}
        return io.serialize_manifold(m, outgoing=out)
    if name == "g2xI":
        b = fixtures.g2_product_bundle()
        rng = random.Random(0)
        w = fixtures.mf_weight(b["track"], rng)
        wb = fixtures.diagonal_boundary_weight(b, w)
        return io.serialize_manifold(b["manifold"], outgoing=b["outgoing"],
                                     weights=wb)
    raise DomainError(f"unknown fixture {name!r}; try: square_torus, "
                      "hex_torus, lshape_h2, pillowcase, g2_track, two_tets, "
                      "chain4, g2xI")


def cmd_fixtures(args):
    return _fixture_text(args.name).splitlines()


# -- driver -----------------------------------------------------------------------


# the flags beyond --input and --output, each on the commands that read it
_FLAGS = {"--choices": {"default": "all"}, "--seed": {"type": int},
          "--depth": {"type": int, "default": 4}, "--rotate": {}}


def _add_command(sub, name, fn, *flags, need_input=True):
    p = sub.add_parser(name)
    if need_input:
        p.add_argument("--input", required=True)
    p.add_argument("--output")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.set_defaults(fn=fn)
    return p


@functools.cache
def build_parser():
    """The CLI's parser, built once per process: parsing leaves it
    unchanged, so every ``run`` can share it."""
    parser = argparse.ArgumentParser(
        prog="isocone",
        description="Exact boundary cones, train-track pairings, and flat "
                    "surface cross-checks.")
    sub = parser.add_subparsers(dest="group", required=True)

    cone = sub.add_parser("cone").add_subparsers(dest="cmd", required=True)
    _add_command(cone, "compute", cmd_cone_compute, "--choices", "--seed")
    _add_command(cone, "member", cmd_cone_member)
    _add_command(cone, "isotropy", cmd_cone_isotropy, "--choices", "--seed")

    surf = sub.add_parser("surface").add_subparsers(dest="cmd", required=True)
    for name, fn in [("validate", cmd_surface_validate),
                     ("delaunay", cmd_surface_delaunay),
                     ("heights", cmd_surface_heights),
                     ("track", cmd_surface_track)]:
        _add_command(surf, name, fn, "--rotate")
    _add_command(surf, "symplectic-check", cmd_surface_symplectic_check,
                 "--rotate", "--seed", "--depth")

    tree = sub.add_parser("tree").add_subparsers(dest="cmd", required=True)
    _add_command(tree, "fourpoint", cmd_tree_fourpoint)

    p = _add_command(sub, "fixtures", cmd_fixtures, need_input=False)
    p.add_argument("name")
    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        lines = args.fn(args)
    except io.ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"io error: {e}\n")
        return 2
    except (DomainError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    _emit(lines, args)
    return 0


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
