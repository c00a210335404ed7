import random
import re
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgate.assembly import assemble
from bsgate.charts import check_box, sample_box
from bsgate.errors import InvariantViolation, ParseError
from bsgate.gen import random_complex
from bsgate.parser import (
    _tokens,
    parse_complex,
    parse_weights,
    print_complex,
)
from bsgate.surface import (
    FREE_END,
    SIDES,
    BoundaryWord,
    BranchSegment,
    BranchedSurfaceComplex,
    DoublePoint,
    FreeItem,
    Sector,
    SegItem,
    SegmentEnd,
    validate,
)
from bsgate.simplex import phase_one
from bsgate.splitting import format_locus, good_loci, run_plan, safe_split
from bsgate.weights import ISC, NEG_TISC, build_system, criterion, feasible

from conftest import FIXTURES, fixture_text, load, traced_peak
from test_certificates import ladder

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.bsf"))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixtures_validate_clean(name):
    assert validate(load(name)).violations == ()


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_print_parse_roundtrip(name):
    cx = load(name)
    assert parse_complex(print_complex(cx)) == cx


def test_every_ladder_rung_roundtrips():
    """Rungs L0-L120 of the over-ladder from fix-clean3, up to 233
    sectors: each parses back to itself and prints to the same bytes."""
    for k, cx in enumerate(ladder()):
        text = print_complex(cx)
        back = parse_complex(text)
        assert back == cx, f"L{k}"
        assert print_complex(back) == text, f"L{k}"


def test_closed_torus_is_trivially_valid():
    cx = load("fix-torus.bsf")
    assert cx.sectors[0].genus == 1
    assert cx.sectors[0].words == ()
    assert validate(cx).ok()


def test_validate_is_deterministic():
    cx = load("fix-tdisc.bsf")
    assert validate(cx).violations == validate(cx).violations


def test_equal_complexes_give_equal_hashable_reports():
    """A report compares and hashes by value, clean or not."""
    for text in (fixture_text("fix-clean.bsf"), fixture_text("fix-fig5.bsf")
                 .replace("ends dp:P:0 free", "ends dp:P:1 free")
                 .replace("ends free dp:P:1", "ends free dp:P:0")):
        a, b = validate(parse_complex(text)), validate(parse_complex(text))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
    assert a.violations == ("role derivation failed at dp:P",)


def test_boundary_word_needs_one_vertex_per_item():
    with pytest.raises(ValueError, match="one vertex per edge item"):
        BoundaryWord((SegItem("g", "one"), SegItem("g", "up")), (None,))


def test_euler_characteristic():
    cx = load("fix-doc.bsf")
    assert cx.sector_by_id["D"].euler() == 1
    assert cx.sector_by_id["T"].euler() == -2


def test_side_multiplicity_invariant():
    # every (segment, side) pair appears exactly once across all words
    for name in ALL_FIXTURES:
        cx = load(name)
        counts = {}
        items = [it for s in cx.sectors for w in s.words for it in w.items]
        for it in items:
            if isinstance(it, SegItem):
                counts[(it.seg, it.side)] = counts.get((it.seg, it.side), 0) + 1
        expect = {(g.id, side): 1 for g in cx.segments
                  for side in ("one", "up", "lo")}
        assert counts == expect


# -- records ----------------------------------------------------------------

# every public record type: NamedTuples, and the plain classes that check
# their fields (BoundaryWord, ConstraintSystem, SlopeGrid) or cache tables
# on themselves (BranchedSurfaceComplex, ConstraintSystem)
RECORD_TYPES = (
    "AssembledSurface", "BoundaryWord", "BranchSegment",
    "BranchedSurfaceComplex", "Certificate", "ChartReport", "Component",
    "ConstraintSystem", "DoublePoint", "FreeItem", "LinForm",
    "PhaseOneResult", "PlanStep", "RoleAssignment", "ScheduleResult",
    "Sector", "SegItem", "SegmentEnd", "SlopeGrid", "SplitLocus",
    "SplitResult", "ValidationReport", "Verdict")


def test_every_record_is_frozen_and_complexes_and_systems_equal_by_value():
    cx = load("fix-clean.bsf")
    locus = good_loci(cx)[0]
    res = safe_split(cx, locus)
    plan = run_plan(cx, [format_locus(cx, locus).split()])
    step, out = plan.steps[0], res.complex
    word = out.sectors[0].words[0]
    seg = next(g for g in out.segments if g.kind == "arc")
    system = build_system(out, ISC)
    grid = sample_box(lambda x, y, z: -1.0 - y, (3, 3, 3))
    asm = assemble(load("fix-doc.bsf"), {"D": 1}, ISC)
    records = [
        out, out.sectors[0], word, word.items[0], FreeItem("f"), seg,
        seg.end0, out.dps[0], out.roles[out.dps[0].id], system,
        system.inequalities[0], feasible(system), criterion(out),
        phase_one([{0: 1}], [1], 1), step.locus, res, step, plan, asm,
        asm.components[0], grid, check_box(grid), validate(out)]
    assert sorted(type(r).__name__ for r in records) == list(RECORD_TYPES)
    for r in records:
        for f in getattr(r, "_fields", None) or tuple(vars(r)):
            with pytest.raises(AttributeError):
                setattr(r, f, getattr(r, f))
            with pytest.raises(AttributeError):
                delattr(r, f)

    text = fixture_text("fix-split.bsf")
    cx, twin = parse_complex(text), parse_complex(text)
    assert cx is not twin and cx == twin and hash(cx) == hash(twin)
    assert BranchedSurfaceComplex("other", cx.sectors, cx.segments,
                                  cx.dps) != cx
    system, again = build_system(cx, ISC), build_system(twin, ISC)
    assert system is not again and system == again
    assert hash(system) == hash(again)
    assert build_system(cx, NEG_TISC) != system

    # a cached table is stored on its complex; a copy built from the four
    # fields starts with only the id tables its reference check reads
    assert "roles" in vars(cx)
    copy = BranchedSurfaceComplex(cx.name, cx.sectors, cx.segments, cx.dps)
    assert copy == cx
    assert sorted(vars(copy)) == ["dp_by_id", "dps", "name", "sector_by_id",
                                  "sectors", "segment_by_id", "segments"]


# -- parser error reporting -------------------------------------------------

def _err(text):
    with pytest.raises(ParseError) as ei:
        parse_complex(text)
    return ei.value


def test_unknown_directive_position():
    e = _err("surface s\nbogus x y\n")
    assert e.line == 2 and e.col == 1


def test_duplicate_sector_id():
    e = _err("surface s\nsector A genus 0 bwords 0\nsector A genus 1 bwords 0\n")
    assert "duplicate sector id A" in str(e) and e.line == 3


def test_dangling_segment_reference_names_offender():
    text = ("surface s\nsector A genus 0 bwords 1\n"
            "bword A 0 : seg:nope:one\n")
    assert "unknown segment nope" in str(_err(text))


def test_dangling_sector_reference_names_offender():
    text = ("surface s\nsector A genus 0 bwords 1\n"
            "bword A 0 : seg:g:one\n"
            "segment g circle one A up B lo A\n")
    assert "unknown sector B" in str(_err(text))


def test_wrong_arity_at_double_point():
    text = ("surface s\nsector A genus 0 bwords 0\n"
            "segment g arc one A up A lo A ends dp:P:0 dp:P:1\n"
            "dp P sign +\n")
    assert "wrong end arity" in str(_err(text))


def test_doubly_filled_slot_is_wrong_arity():
    text = ("surface s\nsector A genus 0 bwords 0\n"
            "segment g arc one A up A lo A ends dp:P:0 dp:P:0\n"
            "segment h arc one A up A lo A ends dp:P:1 dp:P:2\n"
            "dp P sign +\n")
    assert "wrong end arity" in str(_err(text))


def test_slot_out_of_range():
    text = ("surface s\nsector A genus 0 bwords 0\n"
            "segment g arc one A up A lo A ends dp:P:4 dp:P:1\n"
            "dp P sign +\n")
    e = _err(text)
    assert "slot 4" in str(e) and e.line == 3


def test_word_index_out_of_range():
    text = ("surface s\nsector A genus 0 bwords 1\n"
            "bword A 1 : free:f\nbword A 0 : free:f\n")
    assert "out of range" in str(_err(text))


def test_missing_word_index():
    text = "surface s\nsector A genus 0 bwords 2\nbword A 0 : free:f\n"
    assert "missing bword index 1" in str(_err(text))


def test_a_short_sector_is_refused_without_listing_its_count():
    # the least missing index is at most the words present, so a count of
    # two million builds no set of that size
    text = "surface s\nsector A genus 0 bwords 2000000\nbword A 1 : free:e\n"
    e, peak = traced_peak(lambda: _err(text))
    assert (str(e), e.line) == ("line 2: sector A missing bword index 0", 2)
    assert peak < 1 << 20


def test_duplicate_surface_declaration():
    assert "duplicate surface declaration" in str(_err("surface s\nsurface t\n"))


def test_bad_segment_side():
    text = "surface s\nsector A genus 0 bwords 1\nbword A 0 : seg:g:mid\n"
    assert "bad segment side 'mid'" in str(_err(text))


def test_duplicate_word_index():
    text = ("surface s\nsector A genus 0 bwords 1\n"
            "bword A 0 : free:f\nbword A 0 : free:g\n")
    assert "duplicate bword" in str(_err(text))


def test_id_with_colon_rejected():
    e = _err("surface a:b\n")
    assert "invalid surface name" in str(e)


def test_missing_surface_line():
    assert "missing surface" in str(_err("sector A genus 0 bwords 0\n"))


def test_arc_needs_ends():
    text = "surface s\nsector A genus 0 bwords 0\nsegment g arc one A up A lo A\n"
    assert "must declare ends" in str(_err(text))


def test_circle_rejects_ends():
    text = ("surface s\nsector A genus 0 bwords 0\n"
            "segment g circle one A up A lo A ends free free\n")
    assert "must not declare ends" in str(_err(text))


def test_comments_and_blank_lines_ignored():
    text = ("# leading comment\n\nsurface s   # trailing\n"
            "sector A genus 0 bwords 0  # another\n")
    assert parse_complex(text).name == "s"


def test_token_columns_count_tab_and_ideographic_space_as_one():
    line = "bword\tA 0\u3000:\u3000\tseg:c1:one  # seg:c2:up"
    assert _tokens(line) == [(1, "bword"), (7, "A"), (9, "0"), (11, ":"),
                             (14, "seg:c1:one")]


def _regex_tokens(line):
    """The reference tokenizer: one regex match per token."""
    code = line.split("#", 1)[0]
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", code)]


@given(st.text(alphabet=" \t\x0b\x0c\x1c\xa0\u3000#:ab", max_size=40))
@settings(max_examples=300, deadline=None)
def test_token_columns_are_those_of_one_regex_match_per_token(line):
    assert _tokens(line) == _regex_tokens(line)


@pytest.mark.parametrize("text, where, message", [
    ("surface s\n\tsector A genus x bwords 0\n", (2, 17),
     "expected integer genus, got 'x'"),
    ("surface s\n  sector  A  genus  0\n", (2, 3), "malformed sector line"),
    ("surface s\nsector  A  genus  0  bwords  -1\n", (2, 30),
     "bwords count must be nonnegative"),
    # int() reads both as integers; only ASCII digits after a sign do
    ("surface s\nsector A genus \uff13 bwords 0\n", (2, 16),
     "expected integer genus, got '\uff13'"),
    ("surface s\nsector A genus 1_0 bwords 0\n", (2, 16),
     "expected integer genus, got '1_0'"),
], ids=["tab-indented", "double-spaced-malformed", "double-spaced-count",
        "fullwidth-digit", "underscored"])
def test_parse_errors_carry_the_token_column(text, where, message):
    e = _err(text)
    assert (e.line, e.col) == where
    assert str(e).startswith(f"line {where[0]}, col {where[1]}: {message}")


# delete, duplicate, reverse and append x, append ':', double the first
# ':', replace with x
_TOKEN_EDITS = (lambda t: [], lambda t: [t, t], lambda t: [t[::-1] + "x"],
                lambda t: [t + ":"], lambda t: [t.replace(":", "::", 1)],
                lambda t: ["x"])


def _corrupted_documents():
    """Each fixture with one token of one line edited, that line
    tab-indented and its tokens double-spaced, so that no token on it
    sits at the column it has in the fixture."""
    for name in ALL_FIXTURES:
        lines = fixture_text(name).splitlines()
        for i, line in enumerate(lines):
            toks = line.split()
            for j, tok in enumerate(toks):
                for edit in _TOKEN_EDITS:
                    new = "\t" + "  ".join(toks[:j] + edit(tok) + toks[j + 1:])
                    yield "\n".join(lines[:i] + [new] + lines[i + 1:]) + "\n"


def test_every_parse_outcome_of_the_corrupted_fixtures_is_pinned():
    """Each edit of each token of each fixture line parses to the same
    complex, or fails with the same error at the same line and column."""
    h, docs, errors = sha256(), 0, 0
    for doc in _corrupted_documents():
        try:
            out = print_complex(parse_complex(doc))
        except ParseError as e:
            out = (type(e).__name__, str(e), e.line, e.col)
            errors += 1
        h.update(f"{out!r}\n".encode())
        docs += 1
    assert (docs, errors) == (7548, 5522)
    assert h.hexdigest() == (
        "f5613b90689f954c00f4fbaf11ca7be9326fa65f668f64a6e3135ed45a4d0f27")


def test_implied_closing_vertex_is_smooth():
    text = ("surface s\nsector A genus 0 bwords 1\n"
            "bword A 0 : free:f v:smooth free:g\n")
    cx = parse_complex(text)
    assert cx.sectors[0].words[0].verts == (None, None)


# -- weight sidecar ---------------------------------------------------------

def test_weights_defaults_and_roundtrip():
    cx = load("fix-tdisc.bsf")
    w = parse_weights(fixture_text("fix-tdisc-pos.w"), cx)
    assert w["mw"] == 1 and w["sw"] == 1
    assert all(w[s.id] == 0 for s in cx.sectors if s.id not in ("mw", "sw"))
    text = "".join(f"w {sid} {n}\n" for sid, n in sorted(w.items()) if n)
    assert parse_weights(text, cx) == w


def test_weights_reject_unknown_sector():
    cx = load("fix-torus.bsf")
    with pytest.raises(ParseError, match="unknown sector Z"):
        parse_weights("w Z 1\n", cx)


def test_weights_reject_negative():
    cx = load("fix-torus.bsf")
    with pytest.raises(ParseError, match="nonnegative"):
        parse_weights("w T -1\n", cx)


def test_weights_reject_duplicate():
    cx = load("fix-torus.bsf")
    with pytest.raises(ParseError, match="duplicate weight"):
        parse_weights("w T 1\nw T 2\n", cx)


def test_weights_reject_a_malformed_line():
    with pytest.raises(ParseError, match="malformed weight line"):
        parse_weights("x A 1\n", load("fix-torus.bsf"))
    with pytest.raises(ParseError) as ei:
        parse_weights("w T \uff13\n", load("fix-torus.bsf"))
    assert str(ei.value) == ("line 1, col 5: expected integer weight, "
                             "got '\uff13'")


def test_weight_errors_carry_the_token_column():
    with pytest.raises(ParseError) as ei:
        parse_weights("\n w\tT\t-1\n", load("fix-torus.bsf"))
    assert (ei.value.line, ei.value.col) == (2, 6)


# -- validator on programmatically broken complexes -------------------------

def _word(*items, verts=None):
    items = tuple(items)
    return BoundaryWord(items, tuple(verts) if verts else (None,) * len(items))


def test_negative_genus_reported():
    with pytest.raises(InvariantViolation,
                       match="^sector A has negative genus$"):
        BranchedSurfaceComplex("s", (Sector("A", -1, ()),), (), ())


def test_empty_word_reported():
    with pytest.raises(InvariantViolation, match="^bword A 0 is empty$"):
        BranchedSurfaceComplex(
            "s", (Sector("A", 0, (BoundaryWord((), ()),)),), (), ())


def test_free_edge_next_to_double_point_vertex_reported():
    # fix-cross with a free edge after the flap's vertex at P
    cx = load("fix-cross.bsf")
    (w,) = cx.sector_by_id["Wf"].words
    word = BoundaryWord(w.items + (FreeItem("f"),), w.verts + (None,))
    cx = BranchedSurfaceComplex(cx.name, tuple(
        s._replace(words=(word,)) if s.id == "Wf" else s
        for s in cx.sectors), cx.segments, cx.dps)
    vs = validate(cx).violations
    assert "sector Wf word 0: free edge f abuts a double-point vertex" in vs


def _with_word(cx, sid, k, edit):
    """The fields of ``cx`` with word ``k`` of sector ``sid`` rebuilt from
    ``edit(items, verts)``."""
    def word(w):
        return BoundaryWord(*edit(list(w.items), list(w.verts)))
    return (tuple(s._replace(words=tuple(
        word(w) if (s.id, i) == (sid, k) else w for i, w in enumerate(s.words)))
        if s.id == sid else s for s in cx.sectors), cx.segments, cx.dps)


def _with_segment(cx, gid, **fields):
    return (cx.sectors, tuple(g._replace(**fields) if g.id == gid else g
                              for g in cx.segments), cx.dps)


def _set(seq, i, value):
    seq[i] = value
    return tuple(seq)


# one case per fact the constructor checks: (fixture, the broken fields
# built from it, the message, the part it names)
_BROKEN_REFERENCES = {
    "duplicate-sector": ("fix-cross.bsf", lambda cx: (
        cx.sectors + cx.sectors[1:2], cx.segments, cx.dps),
        "duplicate sector id Wf", ("sector", "Wf")),
    "duplicate-segment": ("fix-cross.bsf", lambda cx: (
        cx.sectors, cx.segments + cx.segments[:1], cx.dps),
        "duplicate segment id A", ("segment", "A")),
    "duplicate-dp": ("fix-cross.bsf", lambda cx: (
        cx.sectors, cx.segments, cx.dps + (cx.dps[0]._replace(sign=-1),)),
        "duplicate dp id P", ("dp", "P")),
    "negative-genus": ("fix-cross.bsf", lambda cx: (
        (cx.sectors[0]._replace(genus=-1),) + cx.sectors[1:], cx.segments,
        cx.dps), "sector Q has negative genus", ("sector", "Q")),
    "empty-word": ("fix-doc.bsf", lambda cx: (
        cx.sectors[:1] + (cx.sectors[1]._replace(
            words=cx.sectors[1].words + (BoundaryWord((), ()),)),),
        cx.segments, cx.dps), "bword T 2 is empty", ("bword", "T", 2)),
    "item-unknown-segment": ("fix-cross.bsf", lambda cx: _with_word(
        cx, "Q", 0, lambda items, verts: (
            _set(items, 2, SegItem("Z", "up")), tuple(verts))),
        "dangling reference: bword Q 0 names unknown segment Z",
        ("bword", "Q", 0)),
    "item-bad-side": ("fix-cross.bsf", lambda cx: _with_word(
        cx, "Yf", 0, lambda items, verts: (
            _set(items, 0, SegItem("B", "down")), tuple(verts))),
        "bword Yf 0 names bad side 'down'", ("bword", "Yf", 0)),
    "vertex-unknown-dp": ("fix-cross.bsf", lambda cx: _with_word(
        cx, "Q", 0, lambda items, verts: (tuple(items), _set(verts, 3, "R"))),
        "dangling reference: bword Q 0 names unknown dp R",
        ("bword", "Q", 0)),
    "unknown-kind": ("fix-doc.bsf", lambda cx: _with_segment(
        cx, "g", kind="loop"), "segment g has unknown kind 'loop'",
        ("segment", "g")),
    "side-unknown-sector": ("fix-cross.bsf", lambda cx: _with_segment(
        cx, "B", lo="Z"),
        "dangling reference: segment B side lo names unknown sector Z",
        ("segment", "B")),
    "circle-with-ends": ("fix-doc.bsf", lambda cx: _with_segment(
        cx, "g", end0=FREE_END, end1=FREE_END),
        "circle segment g must declare 0 ends", ("segment", "g")),
    "arc-without-end": ("fix-cross.bsf", lambda cx: _with_segment(
        cx, "A", end1=None), "arc segment A must declare 2 ends",
        ("segment", "A")),
    "end-unknown-dp": ("fix-cross.bsf", lambda cx: _with_segment(
        cx, "B", end0=SegmentEnd("R", 1)),
        "dangling reference: segment B names unknown dp R", ("segment", "B")),
    "bad-slot": ("fix-cross.bsf", lambda cx: _with_segment(
        cx, "B", end1=SegmentEnd("P", 4)), "segment B names slot 4 of dp P",
        ("segment", "B")),
    "bad-sign": ("fix-cross.bsf", lambda cx: (
        cx.sectors, cx.segments, (cx.dps[0]._replace(sign=0),)),
        "dp P has invalid sign 0", ("dp", "P")),
    "wrong-arity": ("fix-cross.bsf", lambda cx: _with_segment(
        cx, "B", end1=SegmentEnd("P", 1)),
        "double point P has wrong end arity (slots filled [1, 2, 1, 0])",
        ("dp", "P")),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_REFERENCES))
def test_constructor_refuses_each_broken_reference(case):
    """Every complex checks its references as it is built, and names the
    part at fault."""
    name, broken, message, part = _BROKEN_REFERENCES[case]
    cx = load(name)
    with pytest.raises(InvariantViolation) as ei:
        BranchedSurfaceComplex(cx.name, *broken(cx))
    assert str(ei.value) == message
    assert ei.value.part == part


@pytest.mark.parametrize("edit, line, message", [
    (("bword Q 0 : seg:A:one", "bword Q 0 : seg:Z:one"), 8,
     "dangling reference: bword Q 0 names unknown segment Z"),
    (("bword Yf 0 : seg:B:lo v:dp:P", "bword Yf 0 : seg:B:lo v:dp:R"), 10,
     "dangling reference: bword Yf 0 names unknown dp R"),
    (("lo Yf ends", "lo Zf ends"), 12,
     "dangling reference: segment B side lo names unknown sector Zf"),
    (("ends dp:P:1 dp:P:3", "ends dp:R:1 dp:P:3"), 12,
     "dangling reference: segment B names unknown dp R"),
    (("ends dp:P:1 dp:P:3", "ends dp:P:1 dp:P:2"), None,
     "double point P has wrong end arity (slots filled [1, 1, 2, 0])"),
], ids=["word-segment", "word-dp", "segment-sector", "segment-dp", "arity"])
def test_a_refused_reference_is_reported_on_its_declaring_line(
        edit, line, message):
    """The constructor's refusal becomes a parse error on the line of the
    bword or segment that makes the reference; arity has no line."""
    text = fixture_text("fix-cross.bsf")
    assert edit[0] in text
    e = _err(text.replace(*edit))
    assert (e.line, e.col) == (line, None)
    assert str(e) == (message if line is None else f"line {line}: {message}")


def test_circle_side_must_fill_whole_word():
    seg = BranchSegment("g", "circle", "A", "A", "A")
    cx = BranchedSurfaceComplex(
        "s",
        (Sector("A", 0, (
            _word(SegItem("g", "one"), FreeItem("f")),
            _word(SegItem("g", "up")),
            _word(SegItem("g", "lo")),
        )),),
        (seg,), ())
    assert any("must fill a whole word" in v for v in validate(cx).violations)


def test_circle_basepoint_must_be_smooth():
    text = fixture_text("fix-cross.bsf").replace(
        "sector Q genus 0 bwords 1", "sector Q genus 0 bwords 2")
    text += ("bword Q 1 : seg:c:one v:dp:P\n"
             "segment c circle one Q up Wf lo Yf\n")
    assert ("sector Q word 1: circle basepoint must be smooth"
            in validate(parse_complex(text)).violations)


def test_missing_side_occurrence_reported():
    seg = BranchSegment("g", "circle", "A", "A", "A")
    cx = BranchedSurfaceComplex(
        "s",
        (Sector("A", 0, (
            _word(SegItem("g", "one")),
            _word(SegItem("g", "up")),
        )),),
        (seg,), ())
    assert any("side lo must appear exactly once" in v
               for v in validate(cx).violations)


def test_flank_mismatch_reported():
    # arc end says dp:P but the word flanks it with smooth vertices
    segs = (
        BranchSegment("g", "arc", "A", "A", "A",
                      SegmentEnd("P", 0), SegmentEnd("P", 1)),
        BranchSegment("h", "arc", "A", "A", "A",
                      SegmentEnd("P", 2), SegmentEnd("P", 3)),
    )
    words = tuple(_word(SegItem(g, s)) for g in "gh"
                  for s in ("one", "up", "lo"))
    cx = BranchedSurfaceComplex(
        "s", (Sector("A", 0, words),), segs, (DoublePoint("P", 1),))
    vs = validate(cx).violations
    assert any("vertex is smooth but segment end is dp:P" in v for v in vs)


def test_role_failure_reported_with_dp_name():
    # scramble two slot assignments so no corner pattern can match
    text = fixture_text("fix-fig5.bsf")
    text = text.replace("segment E arc one qz up fw lo qv ends dp:P:0 free",
                        "segment E arc one qz up fw lo qv ends dp:P:1 free")
    text = text.replace("segment N arc one qz up qx lo fy ends free dp:P:1",
                        "segment N arc one qz up qx lo fy ends free dp:P:0")
    cx = parse_complex(text)
    assert validate(cx).violations == ("role derivation failed at dp:P",)


def _corruptions(cx, rng):
    """Five broken copies of ``cx``, one per kind of damage, each at a
    place drawn by ``rng``; a kind with nothing to damage is ``None``, and
    a copy the constructor refuses is its ``InvariantViolation``."""
    def pick(seq):
        return rng.choice(seq) if seq else None

    def build(sectors, segments, dps):
        try:
            return BranchedSurfaceComplex(cx.name, sectors, segments, dps)
        except InvariantViolation as e:
            return e

    def with_sector(si, sec):
        return build(cx.sectors[:si] + (sec,) + cx.sectors[si + 1:],
                     cx.segments, cx.dps)

    def with_segment(gi, seg):
        return build(cx.sectors,
                     cx.segments[:gi] + (seg,) + cx.segments[gi + 1:], cx.dps)

    out = {}
    si = pick([i for i, s in enumerate(cx.sectors) if s.words])
    if si is None:
        out["drop-word"] = None
    else:
        s = cx.sectors[si]
        wi = rng.randrange(len(s.words))
        out["drop-word"] = with_sector(
            si, s._replace(words=s.words[:wi] + s.words[wi + 1:]))
    site = pick([(si, wi, ii) for si, s in enumerate(cx.sectors)
                 for wi, w in enumerate(s.words)
                 for ii, it in enumerate(w.items) if isinstance(it, SegItem)])
    if site is None:
        out["swap-side"] = None
    else:
        si, wi, ii = site
        s = cx.sectors[si]
        w = s.words[wi]
        it = w.items[ii]
        swapped = SegItem(it.seg, SIDES[(SIDES.index(it.side) + 1) % 3])
        words = list(s.words)
        words[wi] = BoundaryWord(w.items[:ii] + (swapped,) + w.items[ii + 1:],
                                 w.verts)
        out["swap-side"] = with_sector(si, s._replace(words=tuple(words)))
    gi = pick([i for i, g in enumerate(cx.segments) if g.kind == "arc"])
    out["free-end"] = None if gi is None else with_segment(
        gi, cx.segments[gi]._replace(**{rng.choice(("end0", "end1")): FREE_END}))
    di = pick(range(len(cx.dps)))
    out["drop-dp"] = None if di is None else build(
        cx.sectors, cx.segments, cx.dps[:di] + cx.dps[di + 1:])
    gi = pick(range(len(cx.segments)))
    if gi is None:
        out["rename-sheet"] = None
    else:
        g = cx.segments[gi]
        side = rng.choice(SIDES)
        others = [s.id for s in cx.sectors if s.id != getattr(g, side)]
        out["rename-sheet"] = with_segment(
            gi, g._replace(**{side: pick(others) or "nowhere"}))
    return out


def _refusal(e):
    return f"{type(e).__name__}: {e}"


def test_every_violation_list_is_pinned():
    """Every violation, in order, of five kinds of damage done to each of
    seeds 0-199 at places drawn from the seed: dropped words, swapped
    sides, freed arc ends, dropped double points, renamed sheets; or the
    constructor's refusal of a copy, by error type and message."""
    h, counts = sha256(), {}
    for seed in range(200):
        cx = random_complex(seed)
        for kind, broken in _corruptions(cx, random.Random(seed)).items():
            if isinstance(broken, InvariantViolation):
                vs = _refusal(broken)
            else:
                vs = (None if broken is None
                      else list(validate(broken).violations))
            h.update(f"{seed} {kind} {vs!r}\n".encode())
            counts[kind] = counts.get(kind, 0) + bool(vs)
    # the kinds that found something to damage; every damaged copy fails
    assert counts == {"drop-word": 191, "swap-side": 191, "free-end": 94,
                      "drop-dp": 94, "rename-sheet": 191}
    assert h.hexdigest() == (
        "9cabe1d1d7e6617b9417675f1fd4f65ac238d9e396bd74b5843018e757f3013e")


def test_every_corner_table_is_pinned():
    """Every double point's corner table, entries in the order they were
    recorded, over the fixtures, seeds 0-199 and each seed's damaged
    copies, whose tables hold what their words still record; a copy the
    constructor refuses, by error type and message."""
    named = [(name, load(name)) for name in ALL_FIXTURES]
    for seed in range(200):
        cx = random_complex(seed)
        named.append((f"{seed}", cx))
        named += [(f"{seed} {kind}", broken) for kind, broken
                  in _corruptions(cx, random.Random(seed)).items()
                  if broken is not None]
    h, entries = sha256(), 0
    for name, cx in named:
        h.update(f"{name}\n".encode())
        if isinstance(cx, InvariantViolation):
            h.update(f"{_refusal(cx)}\n".encode())
            continue
        for did, corners in cx.dp_corners.items():
            h.update(f"{did} {list(corners.items())!r}\n".encode())
            entries += len(corners)
    assert (len(named), entries) == (970, 5752)
    assert h.hexdigest() == (
        "16110494c1fbde0004d2aacb85ee3900fbb2ddae798d588fc8c556341e91569d")


# -- generated documents ----------------------------------------------------

@st.composite
def wheel_documents(draw):
    """Valid one-sector complexes carrying n self-attached circles."""
    n = draw(st.integers(min_value=0, max_value=5))
    genus = draw(st.integers(min_value=0, max_value=3))
    lines = ["surface wheel", f"sector A genus {genus} bwords {3 * n}"]
    for i in range(n):
        for j, side in enumerate(("one", "up", "lo")):
            lines.append(f"bword A {3 * i + j} : seg:c{i}:{side}")
    for i in range(n):
        lines.append(f"segment c{i} circle one A up A lo A")
    return "\n".join(lines) + "\n"


@given(wheel_documents())
def test_generated_wheels_validate_and_roundtrip(doc):
    cx = parse_complex(doc)
    assert validate(cx).ok()
    assert parse_complex(print_complex(cx)) == cx


@given(st.data())
@settings(max_examples=60)
def test_corrupted_documents_never_crash(data):
    """Token-level corruption yields ParseError or a parse, never a crash."""
    text = fixture_text("fix-tdisc.bsf")
    lines = text.splitlines()
    i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    toks = lines[i].split()
    if toks:
        j = data.draw(st.integers(min_value=0, max_value=len(toks) - 1))
        action = data.draw(st.sampled_from(["delete", "dup", "mangle"]))
        if action == "delete":
            del toks[j]
        elif action == "dup":
            toks.insert(j, toks[j])
        else:
            toks[j] = toks[j][::-1] + "x"
        lines[i] = " ".join(toks)
    try:
        parse_complex("\n".join(lines))
    except ParseError:
        pass
