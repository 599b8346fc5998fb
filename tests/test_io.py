import re

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from isocone import io
from isocone.fixtures import (genus2_maximal_track, two_tets, chain_tets,
                              g2_product_bundle, mf_weight,
                              diagonal_boundary_weight)
from isocone.flatsurf import lshape_h2, pillowcase, PeriodTangent
from isocone.ordgroup import LexVec, format_rat
from util import code_lines


class TestTreeFormat:
    def test_roundtrip(self):
        """A literal tree file reads back as the tree it spells out."""
        tree, notes = io.parse_tree(
            "# two edges\nvertex a\nvertex b\nvertex c\n"
            "edge e1 a b (1,0)\nedge e2 b c (0,3/2)\nend a\n")
        assert sorted(tree.vertices) == ["a", "b", "c"]
        assert tree.edges == {"e1": ("a", "b", LexVec((1, 0))),
                              "e2": ("b", "c", LexVec((0, Fraction(3, 2))))}
        assert tree.end == "a"
        assert not notes

    def test_unknown_directive(self):
        with pytest.raises(io.ParseError) as e:
            io.parse_tree("vertex a\nfrob x\n")
        assert "line 2" in str(e.value)


class TestTrackFormat:
    def test_roundtrip(self):
        """The g2 track writes one line per branch and per switch; the
        golden ``fixtures-g2_track.txt`` pins the bytes."""
        track, *_ = genus2_maximal_track()
        lines = io.serialize_track(io.rename_track(track)).splitlines()
        assert sum(l.startswith("branch ") for l in lines) == 18
        assert sum(l.startswith("switch ") for l in lines) == 12
        assert len(lines) == 30


class TestFlatFormat:
    def test_roundtrip_with_tangents(self):
        s = lshape_h2()
        t1 = PeriodTangent.scaling(s)
        text = io.serialize_flatsurface(s, [t1, t1.times_i()])
        s2, tangents, notes = io.parse_flatsurface(text)
        assert io.serialize_flatsurface(s2, tangents) == text
        assert len(tangents) == 2
        assert s2.validate()["symbol"] == (4,)

    def test_half_translation_signs_roundtrip(self):
        s = pillowcase()
        text = io.serialize_flatsurface(s)
        s2, _, _ = io.parse_flatsurface(text)
        assert io.serialize_flatsurface(s2) == text
        assert s2.kind == "half-translation"

    def test_normalization_note(self):
        s = lshape_h2()
        text = io.serialize_flatsurface(s).replace(
            "vector Pb 1 0", "vector Pb 2/2 0", 1)
        s2, _, notes = io.parse_flatsurface(text)
        assert any("normalized 2/2 to 1" in n for n in notes)

    def test_missing_kind(self):
        with pytest.raises(io.ParseError):
            io.parse_flatsurface("triangle t a b c\n")


class TestManifoldFormat:
    def test_roundtrip_plain(self):
        m = chain_tets(3)
        text = io.serialize_manifold(m)
        m2, out, w, _ = io.parse_manifold(text)
        assert io.serialize_manifold(m2) == text
        assert len(m2.tets) == 3 and not out and not w

    def test_roundtrip_with_track_and_weights(self):
        b = g2_product_bundle()
        import random
        w = mf_weight(b["track"], random.Random(0))
        wb = diagonal_boundary_weight(b, w)
        text = io.serialize_manifold(b["manifold"], outgoing=b["outgoing"],
                                     weights=wb)
        m2, out2, w2, _ = io.parse_manifold(text)
        assert io.serialize_manifold(m2, outgoing=out2, weights=w2) == text

    def test_bad_permutation(self):
        with pytest.raises(io.ParseError):
            io.parse_manifold("tet A\ntet B\nglue A.0 B.0 1,2\n")

    @pytest.mark.parametrize("lines, message", [
        (["weight A.0.0 1", "weight A.0.0 1"],
         "line 3: repeated weight for 'A.0.0'"),
        (["weight A.0.0 1", "weight A.0.1 2", "weight A.0.0 3"],
         "line 4: repeated weight for 'A.0.0'"),
        (["switch A.0 out 0", "switch A.1 out 0", "switch A.0 out 2"],
         "line 4: repeated switch for 'A.0'"),
    ])
    def test_repeated_line_rejected(self, lines, message):
        # one tet glued to nothing: its four faces are the boundary
        text = "tet A\n" + "\n".join(lines) + "\n"
        with pytest.raises(io.ParseError, match=f"^{re.escape(message)}$"):
            io.parse_manifold(text)


def _reference_rat(tok, lineno, notes):
    """``io._rat`` reading every token with ``Fraction(str)``: the
    oracle of its integer fast path."""
    try:
        q = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise io.ParseError(lineno, f"bad rational {tok!r}")
    if format_rat(q) != tok:
        notes.append(f"normalized {tok} to {format_rat(q)}")
    return q


def _rat_outcome(rat, tok):
    notes = []
    try:
        return rat(tok, 7, notes), notes
    except io.ParseError as e:
        return str(e), notes


_canonical = st.fractions(max_denominator=10 ** 6).map(format_rat)
_noncanonical = st.one_of(
    st.sampled_from(["+3", "03", "-0", "6/4", "1/-2", "1.5", "1e2", "1_0",
                     "\u0663", "1/\u0663", "1/0", "0/0", "3/1", "-3/6", "--1",
                     "-", "/2", "2/", "1/02", "0/5", "00", "1/+2", "abc",
                     "1/2/3", "\u00b2", "1" * 5000]),
    st.tuples(_canonical, st.sampled_from(["0", "_0", "/1", "/2", "e1"]))
    .map("".join),
    st.text("0123456789-+/._e\u0663", max_size=8))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_canonical, _noncanonical))
def test_rat_matches_fraction_parser(tok):
    # same value, same notes and same error as reading every token with
    # Fraction(str), canonical or not
    out, ref = _rat_outcome(io._rat, tok), _rat_outcome(_reference_rat, tok)
    assert out == ref and type(out[0]) is type(ref[0])


def test_code_line_count():
    # the formats are read and written here only
    assert code_lines("io") <= 225
