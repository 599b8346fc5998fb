import importlib
import pathlib
import time
from fractions import Fraction

import pytest

from isocone import cone3, io, linalg
from isocone.cli import _parse_rotate, build_parser, run
from isocone.cone3 import BoundaryTrack
from isocone.fixtures import chain_tets
from isocone.flatsurf import QC, lshape_h2
from test_cone3 import _merge_boundary_classes
from util import code_lines


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def fixture_file(tmp_path, name):
    path = tmp_path / f"{name}.txt"
    rc = run(["fixtures", name, "--output", str(path)])
    assert rc == 0
    return str(path)


@pytest.mark.parametrize("fixture, argv, flag", [
    ("chain4", ["cone", "member"], ["--choices", "sample:3"]),
    ("chain4", ["cone", "compute"], ["--depth", "3"]),
    ("chain4", ["cone", "isotropy"], ["--rotate", "2"]),
    ("lshape_h2", ["surface", "validate"], ["--seed", "3"]),
    ("lshape_h2", ["surface", "heights", "--rotate", "3+1i"],
     ["--depth", "3"]),
    (None, ["fixtures", "two_tets"], ["--choices", "all"]),
])
def test_flag_the_command_ignores_exit_2(tmp_path, capsys, fixture, argv,
                                          flag):
    # each command takes only the flags it reads
    if fixture:
        argv = argv + ["--input", fixture_file(tmp_path, fixture)]
    assert run(argv) == 0
    assert run(argv + flag) == 2


def test_cached_parser_carries_no_flags_over(tmp_path, capsys):
    # one parser serves every run in a process: flags given to one run
    # must not reach the next
    path = fixture_file(tmp_path, "lshape_h2")
    argv = ["surface", "symplectic-check", "--input", path, "--depth", "3"]
    capsys.readouterr()
    assert run(argv + ["--seed", "3", "--rotate", "2+1i"]) == 0
    flagged = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert build_parser() is build_parser()
    build_parser.cache_clear()
    assert run(argv) == 0
    assert capsys.readouterr().out == second != flagged


@pytest.mark.parametrize("flag", [[], ["--choices", "all"]])
def test_cone_compute_all_is_one_walk(tmp_path, capsys, monkeypatch, flag):
    # ``--choices all`` reaches compute_cone's one full walk: one push per
    # node of the choice tree below the torus and switch rows, the count
    # test_chain_work_counts pins for the library default
    path = fixture_file(tmp_path, "chain4")
    manifold, outgoing, _, _ = io.parse_manifold(
        pathlib.Path(path).read_text())
    fixed = len(manifold.torus_rows) + len(
        BoundaryTrack(manifold, outgoing).track.switches)
    pushes = []
    push = linalg.IncrementalSystem.push

    def counted_push(self, row, b, tag=0):
        pushes.append(row)
        return push(self, row, b, tag)

    monkeypatch.setattr(linalg.IncrementalSystem, "push", counted_push)
    assert run(["cone", "compute", "--input", path, *flag]) == 0
    assert len(pushes) == fixed + (3 ** 5 - 3) // 2


class TestFixtures:
    def test_unknown_fixture(self, capsys):
        assert run(["fixtures", "nope"]) == 1

    def test_known_fixtures(self, tmp_path, capsys):
        for name in ("square_torus", "hex_torus", "lshape_h2", "pillowcase",
                     "g2_track", "two_tets", "chain4", "g2xI"):
            fixture_file(tmp_path, name)


class TestSurfaceCommands:
    def test_validate(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "lshape_h2")
        capsys.readouterr()
        assert run(["surface", "validate", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "genus: 2" in out and "symbol: (4)" in out
        assert "area: 3" in out

    def test_heights_horizontal_is_domain_error(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "square_torus")
        assert run(["surface", "heights", "--input", path]) == 1

    def test_track_horizontal_edge_is_named(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "square_torus")
        capsys.readouterr()
        assert run(["surface", "track", "--input", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: horizontal edge 'A'\n"
        assert not captured.out

    def test_heights_with_rotation(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "square_torus")
        capsys.readouterr()
        assert run(["surface", "heights", "--input", path,
                    "--rotate", "3+1i"]) == 0
        assert "height" in capsys.readouterr().out

    def test_delaunay_roundtrip(self, tmp_path, capsys):
        s = fixture_file(tmp_path, "lshape_h2")
        # delaunay refuses bundled tangents
        assert run(["surface", "delaunay", "--input", s]) == 1

    def test_symplectic_check(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "lshape_h2")
        capsys.readouterr()
        assert run(["surface", "symplectic-check", "--input", path,
                    "--depth", "3"]) == 0
        out = capsys.readouterr().out
        assert "agree: true" in out
        vals = {line.split(": ")[1] for line in out.splitlines()
                if line.startswith("omega_")}
        assert len(vals) == 1

    def test_track_output_parses_back(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "lshape_h2")
        capsys.readouterr()
        assert run(["surface", "track", "--input", path,
                    "--rotate", "2+1i"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("weight")]
        track = lshape_h2().rotate(QC(2, 1)).dual_track()
        assert lines == io.serialize_track(track).splitlines()
        assert len(track.switches) == 6


class TestQuadratureBytes:
    """The printed quadrature line, byte for byte.

    The pairing is an exact value rounded once per part, so a part whose
    exact value is 0 prints as 0 at every depth.
    """

    def _pairing(self, capsys, path, depth, seed=None):
        argv = ["surface", "symplectic-check", "--input", path,
                "--depth", str(depth)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        capsys.readouterr()
        assert run(argv) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("  pairing:")]

    @pytest.mark.parametrize("name, line", [
        ("lshape_h2", "  pairing: 0-6i"),
        ("hex_torus", "  pairing: 0-14i"),
        ("pillowcase", "  pairing: 0-4i"),
    ])
    def test_bundled_tangents(self, tmp_path, capsys, name, line):
        path = fixture_file(tmp_path, name)
        assert self._pairing(capsys, path, 3) == [line]

    def _grid3(self, tmp_path, monkeypatch):
        # the benchmark's grid torus, sheared by 7/4 and made Delaunay
        monkeypatch.syspath_prepend(str(PERFBENCH))
        grid = importlib.import_module("surfaces").grid_torus(3)
        src = tmp_path / "grid3.txt"
        src.write_text(io.serialize_flatsurface(grid.shear(Fraction(7, 4))))
        out = tmp_path / "grid3_delaunay.txt"
        assert run(["surface", "delaunay", "--input", str(src),
                    "--output", str(out)]) == 0
        return str(out)

    @pytest.mark.parametrize("depth, line", [
        (0, "  pairing: 0-1i"),
        (3, "  pairing: 0-1i"),
        (5, "  pairing: 0-1i"),
    ])
    def test_sheared_grid3_seeded(self, tmp_path, capsys, monkeypatch,
                                  depth, line):
        path = self._grid3(tmp_path, monkeypatch)
        assert self._pairing(capsys, path, depth, seed=2) == [line]

    def test_depth_does_not_change_the_line(self, tmp_path, capsys,
                                            monkeypatch):
        path = self._grid3(tmp_path, monkeypatch)
        line = self._pairing(capsys, path, 0, seed=2)
        for depth in (3, 10):
            assert self._pairing(capsys, path, depth, seed=2) == line

    def test_depth_defaults_to_4(self, tmp_path, capsys):
        # --depth is declared with its default, and nothing else sets one
        argv = ["surface", "symplectic-check", "--input",
                fixture_file(tmp_path, "pillowcase")]
        capsys.readouterr()
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "  depth: 4" in out.splitlines()
        assert run(argv + ["--depth", "4"]) == 0
        assert capsys.readouterr().out == out


class TestConeCommands:
    def test_member_diagonal(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "g2xI")
        capsys.readouterr()
        assert run(["cone", "member", "--input", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("member: true")
        assert "witness-verified: true" in out

    def test_member_deep_chain(self, tmp_path, capsys):
        # 2,000 tets: a walk deeper than the interpreter's default
        # recursion limit of 1,000 frames
        m = chain_tets(2000)
        path = tmp_path / "chain2000.txt"
        path.write_text(io.serialize_manifold(
            m, outgoing={tf: 0 for tf in m.boundary_faces}))
        capsys.readouterr()
        assert run(["cone", "member", "--input", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("member: true")
        assert "witness-verified: true" in out.splitlines() and err == ""

    def test_member_deterministic(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "g2xI")
        capsys.readouterr()
        run(["cone", "member", "--input", path])
        first = capsys.readouterr().out
        run(["cone", "member", "--input", path])
        assert capsys.readouterr().out == first

    def test_isotropy_sampled_requires_seed(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "g2xI")
        assert run(["cone", "isotropy", "--input", path,
                    "--choices", "sample:3"]) == 1
        capsys.readouterr()
        assert run(["cone", "isotropy", "--input", path,
                    "--choices", "sample:3", "--seed", "7"]) == 0
        assert "isotropic: true" in capsys.readouterr().out

    def test_compute_small(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "chain4")
        capsys.readouterr()
        assert run(["cone", "compute", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "components:" in out and "span:" in out

    @pytest.mark.parametrize("cmd", ["isotropy", "compute"])
    @pytest.mark.parametrize("n, coverage, certified", [
        (9, "7/9", "false"), (27, "9/9", "true")])
    def test_sample_coverage_counts_distinct_vectors(
            self, tmp_path, capsys, cmd, n, coverage, certified):
        # seed 1 draws 7 distinct vectors of chain_tets(2)'s 9 in its
        # first 9 draws and all 9 by the 27th; a sample covers the
        # distinct vectors it draws and is certified when they are all
        m = chain_tets(2)
        path = tmp_path / "chain2.txt"
        path.write_text(io.serialize_manifold(
            m, outgoing={tf: 0 for tf in m.boundary_faces}))
        capsys.readouterr()
        assert run(["cone", cmd, "--input", str(path), "--choices",
                    f"sample:{n}", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == [f"choices: sample:{n}", f"coverage: {coverage}",
                              f"certified: {certified}"]
        if cmd == "isotropy":
            assert lines[4] == f"checked: {n}"

    def test_repeated_tet_id_exit_2(self, tmp_path, capsys):
        m = chain_tets(2)
        text = io.serialize_manifold(
            m, outgoing={tf: 0 for tf in m.boundary_faces})
        path = tmp_path / "dup.txt"
        path.write_text("tet T0\n" + text)
        assert run(["cone", "compute", "--input", str(path)]) == 2
        assert "line 2: tetrahedron 'T0' given twice" in \
            capsys.readouterr().err

    def test_unknown_tet_named_exit_2(self, tmp_path, capsys):
        # the error names the undeclared tet, not the declared one, and the
        # glue line that names it
        path = tmp_path / "unknown.txt"
        path.write_text("tet T0\nglue T0.0 T9.1 1,2,3\n")
        assert run(["cone", "member", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown tetrahedron 'T9'" in err and "'T0'" not in err
        assert err.startswith("parse error: line 2: ")

    # a refusal found at one glue line names that line
    @pytest.mark.parametrize("glue, message", [
        ("glue A.0 B.0 1,2,3", "gluing at ('A', 0) is not "
                               "orientation-reversing"),
        ("glue A.7 B.0 1,2,3", "face index out of range at ('A', 7)"),
        ("glue A.0 B.5 1,2,3", "face index out of range at ('A', 0)"),
        ("glue A.0 B.0 0,1,2", "bad permutation range at ('A', 0)"),
        ("glue A.0 A.0 1,3,2", "face glued to itself"),
        ("glue A.0 C.0 1,3,2", "gluing touches unknown tetrahedron 'C'"),
    ])
    @pytest.mark.parametrize("command", ["member", "compute", "isotropy"])
    def test_gluing_refusal_names_its_line(self, tmp_path, capsys, command,
                                           glue, message):
        path = tmp_path / "bad.txt"
        path.write_text("tet A\ntet B\n# a valid pair first\n"
                        f"glue A.1 B.1 0,3,2\n\n{glue}\nswitch A.2 out 0\n")
        assert run(["cone", command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            f"parse error: line 6: invalid triangulation: {message}\n"
        assert not captured.out

    def test_refusal_of_the_whole_table_is_line_0(self, tmp_path, capsys,
                                                  monkeypatch):
        # a refusal that names no glue line, of no tets or of a class
        # with four free face sides, stays at line 0
        empty = tmp_path / "empty.txt"
        empty.write_text("# no tets\n")
        assert run(["cone", "compute", "--input", str(empty)]) == 2
        assert capsys.readouterr().err == "parse error: line 0: invalid " \
            "triangulation: need at least one tetrahedron\n"
        path = fixture_file(tmp_path, "two_tets")
        kept = _merge_boundary_classes(monkeypatch,
                                       io.parse_manifold(open(path).read())[0])
        assert run(["cone", "compute", "--input", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"parse error: line 0: invalid triangulation: edge class "
            f"{kept!r} has 4 free face sides")

    def test_member_switch_violation(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "g2xI")
        text = open(path).read()
        lines = [l for l in text.splitlines() if not l.startswith("weight")]
        # nonzero on one edge only: switch relations fail
        import re
        first_weight = next(l for l in text.splitlines()
                            if l.startswith("weight"))
        name = first_weight.split()[1]
        lines.append(f"weight {name} 1")
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["cone", "member", "--input", str(bad)]) == 0
        out = capsys.readouterr().out
        assert "member: false" in out and "reason: switch" in out


class TestIsotropyByCertificate:
    """``cone isotropy`` answers every choice subspace from
    ``Triangulation3.isotropy_certificate``; a failed check is a domain
    error that names its choice, class or triangle."""

    @pytest.fixture(autouse=True)
    def fresh_lemma(self):
        # the tet lemma is checked once per process: each case starts and
        # ends with it unchecked
        cone3._tet_lemma.cache_clear()
        yield
        cone3._tet_lemma.cache_clear()

    @pytest.mark.parametrize("name, tets, total", [
        ("g2xI", 36, "150094635296999121"), ("chain4", 4, "81")])
    def test_all_choices(self, tmp_path, capsys, monkeypatch, name, tets,
                         total):
        assert 3 ** tets == int(total)
        path = fixture_file(tmp_path, name)
        capsys.readouterr()

        def refuse(*args):
            raise AssertionError("no per-vector check")
        for attr in ("isotropy_check", "w4_subspace"):
            monkeypatch.setattr(cone3.Triangulation3, attr, refuse)
        t0 = time.perf_counter()
        assert run(["cone", "isotropy", "--input", path,
                    "--choices", "all"]) == 0
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[:6] == [
            "status: ok", "choices: all", f"coverage: {total}/{total}",
            "certified: true", f"checked: {total}", "isotropic: true"]
        assert captured.err == ""

    @staticmethod
    def _refused(tmp_path, capsys):
        path = fixture_file(tmp_path, "g2xI")
        capsys.readouterr()
        assert run(["cone", "isotropy", "--input", path, "--choices",
                    "sample:2", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "error: isotropy certificate failed: "
        assert captured.err.startswith(prefix)
        assert captured.err.count("\n") == 1
        return captured.err[len(prefix):-1]

    @staticmethod
    def _corrupt_form_rows(monkeypatch, corrupt):
        # every manifold the command builds gets corrupted rows
        rows = cone3.Triangulation3.form_rows.func
        monkeypatch.setattr(cone3.Triangulation3, "form_rows", property(
            lambda m: corrupt(m, dict(rows(m)))))

    def test_flipped_wedge(self, tmp_path, capsys, monkeypatch):
        a, b = cone3._FORM_WEDGES[3]
        monkeypatch.setattr(cone3, "_FORM_WEDGES", [
            *cone3._FORM_WEDGES[:3], (b, a), *cone3._FORM_WEDGES[4:]])
        assert self._refused(tmp_path, capsys) == \
            "the tetrahedron form does not vanish on choice 0"

    def test_interior_entry(self, tmp_path, capsys, monkeypatch):
        seen = []

        def corrupt(m, rows):
            seen.append(E := m.columns[0])
            rows[E] += ((len(m.columns) - 1, 1),)
            return rows
        self._corrupt_form_rows(monkeypatch, corrupt)
        assert self._refused(tmp_path, capsys) == \
            "the total form differs from the boundary form at interior " \
            f"class {seen[0]!r}"

    def test_wrong_boundary_coefficient(self, tmp_path, capsys, monkeypatch):
        seen = []

        def corrupt(m, rows):
            E = m.columns[-1]
            (col, x), *rest = rows[E]
            rows[E] = ((col, 2 * x), *rest)
            surf = m.boundary
            seen.append((E, next(
                t for t, ds in surf.triangles.items()
                if E in [m.boundary_edge_to_class[surf.edge_class[d]]
                         for d in ds])))
            return rows
        self._corrupt_form_rows(monkeypatch, corrupt)
        message = self._refused(tmp_path, capsys)
        E, t = seen[0]
        assert message == "the total form differs from the boundary form " \
            f"at class {E!r} of triangle {t!r}"


class TestTreeCommand:

    def test_fourpoint(self, tmp_path, capsys):
        path = tmp_path / "tree.txt"
        path.write_text("vertex a\nvertex b\nvertex c\nvertex d\n"
                        "edge e1 a b (1)\nedge e2 b c (2)\nedge e3 b d (3)\n")
        assert run(["tree", "fourpoint", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "four-point: pass" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("vertex a\nfrobnicate\n")
        assert run(["tree", "fourpoint", "--input", str(path)]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert run(["tree", "fourpoint", "--input", "/nonexistent"]) == 2


class TestMalformedInput:
    """Malformed files are parse errors (exit 2) and bad flag values domain
    errors (exit 1), never tracebacks."""

    # the slot is one of the tokens 0, 1 and 2, not any spelling int()
    # reads as one of them
    @pytest.mark.parametrize("slot", ["3", "7", "-1", "+1", "01", "0_0", "-0",
                                      "\uff11"])
    def test_switch_slot_out_of_range_exit_2(self, tmp_path, capsys, slot):
        text = open(fixture_file(tmp_path, "two_tets")).read()
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace("out 0", f"out {slot}", 1))
        lineno = text.splitlines().index("switch T0.1 out 0") + 1
        capsys.readouterr()
        assert run(["cone", "compute", "--input", str(bad)]) == 2
        assert f"line {lineno}: bad slot '{slot}'" in capsys.readouterr().err

    # a face index or corner image is an integer written as str writes it,
    # not any spelling int() reads, which would glue a face silently;
    # written so, one out of range is refused by the triangulation
    @pytest.mark.parametrize("glue, message", [
        ("glue T0.0_0 T1.+0 3,2,1", None),
        ("glue T0.03 T1.0 3,2,1", None),
        ("glue T0.0 T1.-0 3,2,1", None),
        ("glue T0.０ T1.0 3,2,1", None),
        ("glue T0.0 T1.0 3,+2,1", None),
        ("glue T0.0 T1.0 3,2,01", None),
        ("glue T0.0 T1.0 3,2,１", None),
        ("glue T0.4 T1.0 3,2,1", "invalid triangulation: "
                                 "face index out of range at ('T0', 4)"),
        ("glue T0.-1 T1.0 3,2,1", "invalid triangulation: "
                                  "face index out of range at ('T0', -1)"),
    ])
    def test_gluing_integer_spelling_exit_2(self, tmp_path, capsys, glue,
                                            message):
        text = open(fixture_file(tmp_path, "two_tets")).read()
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace("glue T0.0 T1.0 3,2,1", glue))
        capsys.readouterr()
        assert run(["cone", "compute", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == "parse error: line 3: {}\n".format(
            message or f"bad gluing {glue!r}")

    @pytest.mark.parametrize("fixture, extra, message", [
        ("g2xI", "weight T0.0.3.0 12345", "repeated weight for 'T0.0.3.0'"),
        ("g2xI", "weight T0.0.3.0 7/6", "repeated weight for 'T0.0.3.0'"),
        ("two_tets", "switch T0.1 out 1", "repeated switch for 'T0.1'"),
        # a second glue line from the same face, repeated verbatim or
        # not, would replace the first in the gluing table
        ("g2xI", "glue T0.0.0 T1.1.1.3 0,1,2", "face 'T0.0.0' glued twice"),
        ("two_tets", "glue T0.0 T1.1 2,3,0", "face 'T0.0' glued twice"),
        # the inverse of a glue line: its first face is the second face of
        # an earlier line, which used to fail only as line 0
        ("two_tets", "glue T1.0 T0.0 3,2,1", "face 'T1.0' glued twice"),
    ])
    def test_repeated_line_exit_2(self, tmp_path, capsys, fixture, extra,
                                  message):
        # the last line used to win silently: appending a weight of 12345
        # to g2xI turned member: true into member: false with exit 0
        text = open(fixture_file(tmp_path, fixture)).read()
        bad = tmp_path / "bad.txt"
        bad.write_text(text + extra + "\n")
        lineno = len(text.splitlines()) + 1
        capsys.readouterr()
        assert run(["cone", "member", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"line {lineno}: {message}" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("extra, message", [
        # the last line used to win silently: a second e1 of length 5
        # printed four-point: pass with exit 0
        ("edge e1 a b (5)", "edge 'e1' given twice"),
        ("end b", "directive 'end' given twice"),
    ])
    def test_tree_repeated_line_exit_2(self, tmp_path, capsys, extra,
                                       message):
        text = "vertex a\nvertex b\nedge e1 a b (1)\nend a\n"
        path = tmp_path / "tree.txt"
        path.write_text(text + extra + "\n")
        capsys.readouterr()
        assert run(["tree", "fourpoint", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"line 5: {message}" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("dropped, message", [
        ("vector a ", "triangle 't0' uses edge 'a', which has no vector"),
        ("tangent 1 a ", "invalid tangent 1: tangent has no value on edge "
                         "'a'"),
        ("glue A ", "invalid flat surface: unglued edges: ['A', 'a']"),
    ])
    def test_flat_surface_missing_edge_exit_2(self, tmp_path, capsys,
                                               dropped, message):
        text = open(fixture_file(tmp_path, "square_torus")).read()
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(line for line in text.splitlines(True)
                               if not line.startswith(dropped)))
        capsys.readouterr()
        assert run(["surface", "validate", "--input", str(bad)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("dropped, extra, message", [
        # validate and delaunay used to pass with exit 0, delaunay writing
        # the value back out, and symplectic-check ended in a KeyError
        ("tangent ", "vector zz 1 0",
         "invalid flat surface: no triangle uses edge 'zz'"),
        # the value used to be accepted silently
        (None, "tangent 1 zz 5 5",
         "invalid tangent 1: no triangle uses edge 'zz'"),
    ], ids=["vector", "tangent"])
    @pytest.mark.parametrize("command", [["validate"], ["delaunay"],
                                         ["symplectic-check", "--seed", "1"]],
                             ids=lambda command: command[0])
    def test_flat_surface_unused_edge_exit_2(self, tmp_path, capsys, dropped,
                                             extra, message, command):
        text = open(fixture_file(tmp_path, "square_torus")).read()
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(line for line in text.splitlines(True)
                               if dropped is None
                               or not line.startswith(dropped))
                       + extra + "\n")
        capsys.readouterr()
        assert run(["surface", command[0], "--input", str(bad),
                    *command[1:]]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert not captured.out

    @pytest.mark.parametrize("extra, message", [
        # the last line used to win silently, with exit 0: a repeated kind
        # printed kind: half-translation
        ("kind half-translation", "directive 'kind' given twice"),
        ("triangle t1 A B C", "triangle 't1' given twice"),
        ("vector a 1 0", "vector 'a' given twice"),
        ("tangent 2 c 1 -1", "tangent 2 value on edge 'c' given twice"),
        ("glue a A neg", "gluing of edge 'a' given twice"),
        # these used to fail only after the parse, as line 0
        ("triangle t1 a b c", "triangle 't1' given twice"),
        ("glue x b", "gluing of edge 'b' given twice"),
    ])
    def test_flat_surface_repeated_line_exit_2(self, tmp_path, capsys,
                                               extra, message):
        text = open(fixture_file(tmp_path, "square_torus")).read()
        bad = tmp_path / "bad.txt"
        bad.write_text(text + extra + "\n")
        lineno = len(text.splitlines()) + 1
        capsys.readouterr()
        assert run(["surface", "validate", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"line {lineno}: {message}" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("fixture, line, changed, lineno, message", [
        # the first three used to be refused as line 0, "not
        # vector-compatible"; the last as "bad gluing sign 'foo'"
        ("pillowcase", "glue ll ul pos", "glue ll ul neg", 20,
         "sign 'neg' contradicts the vectors at 'll'"),
        ("pillowcase", "glue ll ul pos", "glue ll ul", 20,
         "sign 'neg' contradicts the vectors at 'll'"),
        ("square_torus", "glue A a neg", "glue A a pos", 10,
         "sign 'pos' contradicts the vectors at 'A'"),
        ("square_torus", "glue A a neg", "glue A a foo", 10,
         "sign 'foo' contradicts the vectors at 'A'"),
    ])
    def test_flat_surface_wrong_sign_names_its_line(
            self, tmp_path, capsys, fixture, line, changed, lineno, message):
        # the gluing signs are read off the vectors; a glue line's sign
        # token (neg when left out) must say the same
        text = open(fixture_file(tmp_path, fixture)).read()
        assert text.splitlines()[lineno - 1] == line
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(line + "\n", changed + "\n"))
        capsys.readouterr()
        assert run(["surface", "validate", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"line {lineno}: {message}" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("changed, extra, err", [
        # a value on an edge no triangle uses names its own line
        ({}, "vector zz 1 0",
         "line 25: invalid flat surface: no triangle uses edge 'zz'"),
        ({}, "tangent 1 zz 5 5",
         "line 25: invalid tangent 1: no triangle uses edge 'zz'"),
        # a triangle that fails names the triangle's line
        ({"vector c -1 -1": "vector c -1 -2"}, "",
         "line 2: invalid flat surface: triangle 't0' does not close up"),
        ({"vector a 1 0": "vector a 0 1", "vector b 0 1": "vector b 1 0"}, "",
         "line 2: invalid flat surface: triangle 't0' has nonpositive area"),
        ({"vector a 1 0": None}, "", "line 2: invalid flat surface: triangle "
         "'t0' uses edge 'a', which has no vector"),
        ({"tangent 2 c 1 -1": "tangent 2 c 1 0"}, "",
         "line 2: invalid tangent 2: tangent does not close on 't0'"),
        ({"tangent 1 a 1 0": None}, "",
         "line 2: invalid tangent 1: tangent has no value on edge 'a'"),
        # a gluing that fails names the value of the edge it names
        ({"tangent 1 a 1 0": "tangent 1 a 2 0",
          "tangent 1 c -1 -1": "tangent 1 c -2 -1"}, "",
         "line 13: invalid tangent 1: tangent breaks the gluing at 'A'"),
        ({"vector A -1 0": "vector A 1 0", "vector B 0 -1": "vector B 0 1",
          "vector C 1 1": "vector C -1 -1", "glue A a neg": "glue A a pos",
          "glue B b neg": "glue B b pos", "glue C c neg": "glue C c pos"}, "",
         "line 4: invalid flat surface: translation surfaces allow only neg "
         "gluings"),
        # unglued edges name the triangle line of the first edge listed,
        # an unknown kind the kind line
        ({"glue A a neg": None}, "",
         "line 3: invalid flat surface: unglued edges: ['A', 'a']"),
        ({"kind translation": "kind spiral"}, "",
         "line 1: invalid flat surface: unknown kind 'spiral'"),
        # a triangle or gluing the combinatorial surface refuses names its
        # line: a directed edge used twice, by the second triangle to use
        # it, and a gluing of an edge no triangle uses
        ({"triangle t1 A B C": "triangle t1 A B a"}, "",
         "line 3: invalid flat surface: directed edge 'a' used twice"),
        ({"glue C c neg": "glue C zz neg"}, "",
         "line 12: invalid flat surface: gluing touches unknown edge 'C'"),
    ])
    def test_flat_surface_refusal_names_its_line(self, tmp_path, capsys,
                                                 changed, extra, err):
        # these were all refused as line 0, although one line is at fault
        text = open(fixture_file(tmp_path, "square_torus")).read()
        lines = [changed.get(line, line) for line in text.splitlines()]
        assert all(line in text.splitlines() for line in changed)
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(f"{line}\n" for line in lines + [extra]
                               if line))
        capsys.readouterr()
        assert run(["surface", "validate", "--input", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"parse error: {err}\n")

    def test_tree_zero_denominator_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tree.txt"
        path.write_text("vertex a\nvertex b\nedge e1 a b (0,1/0)\n")
        assert run(["tree", "fourpoint", "--input", str(path)]) == 2
        assert "line 3: bad rational '1/0'" in capsys.readouterr().err

    def test_tree_repeated_vertex_exit_2(self, tmp_path, capsys):
        # the second 'vertex a' used to collapse into the first, so this
        # cycle passed the edge count check and printed four-point: pass
        path = tmp_path / "tree.txt"
        path.write_text("vertex a\nvertex b\nvertex a\n"
                        "edge e1 a b (1)\nedge e2 a b (2)\n")
        capsys.readouterr()
        assert run(["tree", "fourpoint", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "line 3: vertex 'a' given twice" in captured.err
        assert not captured.out

    def test_tree_unnormalized_tuple_noted(self, tmp_path, capsys):
        path = tmp_path / "tree.txt"
        path.write_text("vertex a\nvertex b\nedge e1 a b (2/4)\n")
        assert run(["tree", "fourpoint", "--input", str(path)]) == 0
        assert "note: normalized 2/4 to 1/2" in capsys.readouterr().out

    # a, bi, a+bi or a-bi with a and b [-]p[/q] in ASCII digits: the first
    # four used to fail with Python's Fraction message, the last three were
    # accepted
    @pytest.mark.parametrize("value", ["abc", "1+", "2i3", "1--1i", "1e2",
                                       "+3", "\u0663"])
    def test_bad_rotate_value_exit_1(self, tmp_path, capsys, value):
        path = fixture_file(tmp_path, "square_torus")
        capsys.readouterr()
        assert run(["surface", "validate", "--input", path,
                    "--rotate", value]) == 1
        captured = capsys.readouterr()
        assert f"bad --rotate value {value!r}" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("value, expected", [
        ("2", QC(2)), ("3+1i", QC(3, 1)), ("1/2+1/3i", QC(Fraction(1, 2),
                                                          Fraction(1, 3))),
        ("i", QC(0, 1)), ("-i", QC(0, -1)), ("+i", QC(0, 1)),
        ("1/2-3i", QC(Fraction(1, 2), -3)), ("1 + 2i", QC(1, 2)),
        ("-3/4i", QC(0, Fraction(-3, 4))), ("12i", QC(0, 12))])
    def test_rotate_values(self, value, expected):
        assert _parse_rotate(value) == expected

    def test_rotate_zero_denominator_exit_1(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "square_torus")
        assert run(["surface", "validate", "--input", path,
                    "--rotate", "1/0"]) == 1
        assert "zero denominator in --rotate '1/0'" in \
            capsys.readouterr().err

    # the sample size is a canonical positive decimal, not any spelling
    # int() reads as a number
    @pytest.mark.parametrize("mode", ["sample:007", "sample:+3", "sample:x",
                                      "sample:\uff11", "sample:0", "sample:"])
    def test_bad_sample_size_exit_1(self, tmp_path, capsys, mode):
        path = fixture_file(tmp_path, "chain4")
        capsys.readouterr()
        assert run(["cone", "isotropy", "--input", path, "--choices", mode,
                    "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert f"bad --choices value {mode!r}" in captured.err
        assert not captured.out

    def test_negative_depth_exit_1(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "lshape_h2")
        capsys.readouterr()
        assert run(["surface", "symplectic-check", "--input", path,
                    "--depth", "-1"]) == 1
        captured = capsys.readouterr()
        assert "--depth must be at least 0" in captured.err
        assert not captured.out

    def test_depth_above_bound_exit_1(self, tmp_path, capsys):
        # --depth keeps its range 0..10: refused before any work
        path = fixture_file(tmp_path, "lshape_h2")
        capsys.readouterr()
        assert run(["surface", "symplectic-check", "--input", path,
                    "--depth", "11"]) == 1
        captured = capsys.readouterr()
        assert "--depth must be at most 10" in captured.err
        assert not captured.out


def test_code_line_count():
    # commands parse, call the library and print; the computations live in
    # the library
    assert code_lines("cli") <= 303
