import re

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from isocone import io
from isocone.fixtures import (genus2_maximal_track, two_tets, chain_tets,
                              g2_product_bundle, mf_weight,
                              diagonal_boundary_weight)
from isocone.flatsurf import (QC, lshape_h2, pillowcase, square_torus,
                               PeriodTangent)
from isocone.ordgroup import LexVec, format_rat
from util import (code_lines, reference_parse_flatsurface,
                  reference_rat)


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
    # same value, as an integer pair in lowest terms, same notes and same
    # error as reading every token with Fraction(str), canonical or not
    out = _rat_outcome(io._rat, tok)
    ref = _rat_outcome(lambda *a: reference_rat(*a).as_integer_ratio(), tok)
    assert out == ref
    if isinstance(out[0], tuple):
        assert [type(n) for n in out[0]] == [int, int]


def _flat_texts():
    """Normalized flat-surface files with two tangents each, whose values
    include negative, fractional and zero coordinates."""
    surfaces = [square_torus().rotate(QC(Fraction(-3, 4), Fraction(1, 2))),
                lshape_h2().shear(Fraction(2, 3)),
                pillowcase().apply_matrix(Fraction(3, 2), 0, 0,
                                          Fraction(1, 7))]
    texts = []
    for s in surfaces:
        t = PeriodTangent.scaling(s)
        texts.append(io.serialize_flatsurface(s, [t, t.times_i()]))
    return texts


_FLAT_TEXTS = _flat_texts()
_ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                        "\u0665\u0666\u0667\u0668\u0669")


def _spellings(tok):
    """Tokens for the value of canonical ``tok``: the same value spelled
    otherwise (unreduced, ``-0``, ``3/1``, ``007``, ``1.5``, ``1e2``,
    ``+3``, non-ASCII digits), other values, and tokens that are no
    rational."""
    q = Fraction(tok)
    p, d = q.numerator, q.denominator
    return [tok, f"{2 * p}/{2 * d}", f"{p}/{d}", tok.translate(_ARABIC),
            "+" + tok, f"{tok}e0" if d == 1 else f"{p}e1/{10 * d}",
            f"-00{-p}" if p < 0 else f"00{p}", "-0" if p == 0 else "-" + tok,
            repr(float(q)) if 10 ** 6 % d == 0 else f"{p}/{d}0",
            "3", "-3/4", "2/4", "1/0", "x", "1/-2", "1e2"]


def _outcome(parse, text):
    """The surface and tangents a reader builds, compared through their
    integer pairs and their text, and its notes; or its refusal."""
    try:
        surf, tangents, notes = parse(text)
    except io.ParseError as e:
        return "refused", str(e)
    return ((surf.kind, surf.triangles, surf.glue, surf.signs, surf._vec,
             surf._den, [(t._vec, t._den) for t in tangents],
             io.serialize_flatsurface(surf, tangents)), notes)


class TestFlatReaderOracle:
    @pytest.mark.parametrize("text", _FLAT_TEXTS)
    def test_roundtrip_normalized_with_tangents(self, text):
        surf, tangents, notes = io.parse_flatsurface(text)
        assert len(tangents) == 2 and not notes
        assert io.serialize_flatsurface(surf, tangents) == text
        assert _outcome(io.parse_flatsurface, text) == \
            _outcome(reference_parse_flatsurface, text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_fraction_reader(self, data):
        # the same surface, tangents, notes and refusals as the reader that
        # made one Fraction per token; a refusal that reader reported as
        # line 0 may now name the line of the entry it names
        lines = data.draw(st.sampled_from(_FLAT_TEXTS)).splitlines()
        values = [(i, k) for i, line in enumerate(lines)
                  for k in range(len(line.split()))
                  if (line.startswith("vector ") and k >= 2)
                  or (line.startswith("tangent ") and k >= 3)]
        for i, k in data.draw(st.lists(st.sampled_from(values), max_size=4,
                                       unique=True)):
            toks = lines[i].split()
            toks[k] = data.draw(st.sampled_from(_spellings(toks[k])))
            lines[i] = " ".join(toks)
        text = "\n".join(lines) + "\n"
        got = _outcome(io.parse_flatsurface, text)
        want = _outcome(reference_parse_flatsurface, text)
        if want[0] == "refused" and want[1].startswith("line 0: "):
            assert got[0] == "refused"
            assert got[1].split(": ", 1)[1] == want[1].split(": ", 1)[1]
        else:
            assert got == want


def test_code_line_count():
    # the formats are read and written here only
    assert code_lines("io") <= 225
