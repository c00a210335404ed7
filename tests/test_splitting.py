"""Splitting-move tests.

The good/bad locus table for the two-crossing fixture is transcribed by
hand from the boundary words; the rewrite itself is pinned by golden
before/after cell counts plus re-validation, and weight pushforward is
checked against exhaustive enumeration of closed solutions.
"""

import gc
import itertools
import random
import weakref
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgate import splitting, surface, weights
from bsgate.errors import (
    BadMove,
    BsgateError,
    InvalidLocus,
    InvariantViolation,
    MalformedSystem,
    PreconditionFailed,
)
from bsgate.splitting import (
    NEUTRAL,
    OVER,
    UNDER,
    SplitLocus,
    all_loci,
    format_locus,
    good_loci,
    is_bad_move,
    locus_from_strings,
    pushforward_weights,
    run_plan,
    safe_split,
    split,
)
from bsgate.gen import random_complex
from bsgate.parser import parse_complex, print_complex
from bsgate.surface import BoundaryWord, SegItem, Sector, validate
from bsgate.weights import KINDS, Certificate, build_system, criterion

from conftest import clean3_rows, fixture_text, load
from test_certificates import ladder

ALL_FIXTURES = ["fix-torus.bsf", "fix-doc.bsf", "fix-fig5.bsf",
                "fix-tdisc.bsf", "fix-negtd.bsf", "fix-split.bsf",
                "fix-clean.bsf", "fix-clean3.bsf", "fix-cross.bsf"]


# -- locus resolution and the bad-move predicate ------------------------------

def test_two_crossing_fixture_locus_table():
    # hand transcription: O carries both merged sides (good both ways);
    # Ao and Bo see the other curve's lateral side (bad)
    cx = load("fix-split.bsf")
    table = {(l.sector, l.entry, l.exit): is_bad_move(cx, l)
             for l in all_loci(cx)}
    assert table == {
        ("O", (0, 0), (0, 1)): False,
        ("O", (0, 1), (0, 0)): False,
        ("Ao", (0, 0), (0, 1)): True,
        ("Bo", (0, 1), (0, 0)): True,
    }


def test_bad_move_is_exit_side_outwardness():
    for name in ALL_FIXTURES:
        cx = load(name)
        for loc in all_loci(cx):
            sec = cx.sector_by_id[loc.sector]
            exit_item = sec.words[loc.exit[0]].items[loc.exit[1]]
            assert is_bad_move(cx, loc) == (exit_item.side != "one")


def test_good_loci_counts():
    assert len(good_loci(load("fix-split.bsf"))) == 2
    assert len(good_loci(load("fix-clean.bsf"))) == 2
    assert len(good_loci(load("fix-clean3.bsf"))) == 6


def test_every_locus_list_is_pinned():
    """Both locus lists, in order, over the fixtures, seeds 0-199 and every
    tenth rung of the over-ladder: ``ladder()``, the certificate snapshot
    and the bench corpus draw from ``good_loci`` with ``rng.choice``."""
    named = ([(name, load(name)) for name in ALL_FIXTURES]
             + [(f"seed-{s}", random_complex(s)) for s in range(200)]
             + [(f"L{k}", ladder()[k]) for k in range(0, 121, 10)])
    h, counts = sha256(), [0, 0]
    for name, cx in named:
        every, good = all_loci(cx), good_loci(cx)
        h.update(f"{name}\n{every!r}\n{good!r}\n".encode())
        counts[0] += len(every)
        counts[1] += len(good)
    assert (counts, h.hexdigest()) == ([36900, 11298], (
        "2cf9bb0c2cbfd40889dd2d155028b70f56cd691d8b3e4ffa6961be892a70055a"))


@pytest.mark.parametrize("locus,message", [
    (SplitLocus("nope", (0, 0), (0, 1)), "unknown sector"),
    (SplitLocus("O", (9, 0), (0, 1)), "word index"),
    (SplitLocus("O", (0, 9), (0, 1)), "item index"),
    (SplitLocus("O", (0, 0), (0, 0)), "coincide"),
    (SplitLocus("L", (0, 0), (0, 1)), "merged side"),
])
def test_invalid_loci(locus, message):
    cx = load("fix-split.bsf")
    with pytest.raises(InvalidLocus, match=message):
        is_bad_move(cx, locus)


def test_split_refuses_an_unknown_choice():
    cx = load("fix-split.bsf")
    with pytest.raises(InvalidLocus,
                       match="^unknown move choice 'sideways'$"):
        split(cx, good_loci(cx)[0], "sideways")


def test_free_exit_is_invalid():
    cx = load("fix-fig5.bsf")
    for loc in all_loci(cx):  # enumeration must already skip free items
        sec = cx.sector_by_id[loc.sector]
        assert isinstance(sec.words[loc.exit[0]].items[loc.exit[1]], SegItem)
    with pytest.raises(InvalidLocus, match="free"):
        is_bad_move(cx, SplitLocus("qz", (0, 0), (0, 2)))


def test_split_refuses_bad_moves():
    cx = load("fix-split.bsf")
    bad = SplitLocus("Ao", (0, 0), (0, 1))
    for choice in (OVER, UNDER, NEUTRAL):
        with pytest.raises(BadMove, match="a2:lo"):
            split(cx, bad, choice)


# -- golden rewrites ----------------------------------------------------------

def _new_sectors(cx, out) -> tuple[str, ...]:
    """The output's sector ids that the input lacks, in output order."""
    return tuple(s.id for s in out.sectors if s.id not in cx.sector_by_id)


def test_split_fixture_over_golden():
    cx = load("fix-split.bsf")
    res = split(cx, SplitLocus("O", (0, 0), (0, 1)), OVER)
    out = res.complex
    assert [(s.id, s.genus, len(s.words)) for s in out.sectors] == [
        ("O_l1", 0, 1), ("O_r1", 0, 1), ("L", 0, 1), ("Ao", 0, 1),
        ("Bo", 0, 1), ("Fa", 0, 1), ("Fb", 0, 1), ("slv1", 0, 1)]
    assert [g.id for g in out.segments] == [
        "a1", "b1", "fl1", "fr1", "gl1", "gr1", "gm1", "tg1"]
    assert [(d.id, d.sign) for d in out.dps] == [
        ("P", 1), ("Q", -1), ("L1", -1), ("R1", 1)]
    assert res.dp_left == "L1" and res.dp_right == "R1"
    assert dict(res.sector_images) == {
        "O": "O_l1", "L": "L", "Ao": "Ao", "Bo": "Bo", "Fa": "Fa", "Fb": "Fb"}
    assert _new_sectors(cx, out) == ("O_l1", "O_r1", "slv1")


def test_split_fixture_under_mirrors_signs():
    cx = load("fix-split.bsf")
    res = split(cx, SplitLocus("O", (0, 0), (0, 1)), UNDER)
    assert [(d.id, d.sign) for d in res.complex.dps] == [
        ("P", 1), ("Q", -1), ("L1", 1), ("R1", -1)]
    assert len(res.complex.sectors) == 8
    assert len(res.complex.segments) == 8


def test_split_fixture_neutral_golden():
    cx = load("fix-split.bsf")
    res = split(cx, SplitLocus("O", (0, 0), (0, 1)), NEUTRAL)
    out = res.complex
    assert res.dp_left is None and res.dp_right is None
    assert [(s.id, s.genus, len(s.words)) for s in out.sectors] == [
        ("O_l1", 0, 1), ("O_r1", 0, 1), ("L", 0, 1),
        ("Ao_m1", 0, 1), ("Fa_m1", 0, 1)]
    assert [(d.id, d.sign) for d in out.dps] == [("P", 1), ("Q", -1)]
    merged_up = out.sector_by_id["Fa_m1"].words[0].items
    assert merged_up == (SegItem("a1", "up"), SegItem("fr1", "up"),
                         SegItem("a1", "one"), SegItem("fl1", "up"))
    merged_lo = out.sector_by_id["Ao_m1"].words[0].items
    assert merged_lo == (SegItem("b1", "one"), SegItem("fr1", "lo"),
                         SegItem("b1", "lo"), SegItem("fl1", "lo"))
    fl = out.segment_by_id["fl1"]
    assert (fl.end0.dp, fl.end0.slot, fl.end1.dp, fl.end1.slot) == (
        "Q", 2, "Q", 3)
    assert dict(res.sector_images) == {
        "O": "O_l1", "L": "L", "Ao": "Ao_m1", "Bo": "Fa_m1",
        "Fa": "Fa_m1", "Fb": "Ao_m1"}


def test_wheel_fixture_over_golden():
    # circle entry and circle exit: the severed halves fuse back into
    # single arcs and the sector keeps one piece plus the sliver
    cx = load("fix-clean.bsf")
    res = split(cx, SplitLocus("A", (0, 0), (3, 0)), OVER)
    out = res.complex
    assert [(s.id, s.genus, len(s.words)) for s in out.sectors] == [
        ("A_l1", 0, 5), ("slv1", 0, 1)]
    assert [g.id for g in out.segments] == ["flr1", "gf1", "gm1", "tg1"]
    assert [(d.id, d.sign) for d in out.dps] == [("L1", -1), ("R1", 1)]
    assert all(g.kind == "arc" for g in out.segments)
    assert res.sector_images == (("A", "A_l1"),)
    assert criterion(out).passes


def test_wheel_fixture_neutral_fuses_to_circle():
    # circle-to-circle neutral move: the two hub circles fuse into one,
    # and the doubled lateral strips raise the genus by two
    cx = load("fix-clean.bsf")
    res = split(cx, SplitLocus("A", (0, 0), (3, 0)), NEUTRAL)
    out = res.complex
    (fn,) = out.segments
    assert fn.kind == "circle" and fn.id == "fn1"
    assert not out.dps
    assert [(s.id, s.genus, len(s.words)) for s in out.sectors] == [
        ("A_l1", 2, 3)]
    assert (fn.one, fn.up, fn.lo) == ("A_l1", "A_l1", "A_l1")


def test_every_split_revalidates():
    for name in ALL_FIXTURES:
        cx = load(name)
        for loc in good_loci(cx):
            for choice in (OVER, UNDER, NEUTRAL):
                out = split(cx, loc, choice).complex
                assert not validate(out).violations, (name, loc, choice)


def test_over_under_postconditions_everywhere():
    for name in ALL_FIXTURES:
        cx = load(name)
        for loc in good_loci(cx):
            for choice, lsign in ((OVER, -1), (UNDER, 1)):
                res = split(cx, loc, choice)
                assert len(res.complex.dps) == len(cx.dps) + 2
                assert res.complex.dp_by_id[res.dp_left].sign == lsign
                assert res.complex.dp_by_id[res.dp_right].sign == -lsign
            res = split(cx, loc, NEUTRAL)
            assert len(res.complex.dps) == len(cx.dps)


def test_name_allocation_avoids_collisions():
    cx = load("fix-clean3.bsf")
    step1 = safe_split(cx, good_loci(cx)[0])
    step2 = safe_split(step1.complex, good_loci(step1.complex)[0])
    ids = [s.id for s in step2.complex.sectors]
    assert len(ids) == len(set(ids))
    assert "slv1" in ids and "slv2" in ids


def test_a_60_step_safe_walk_is_pinned():
    """The final complex of a 60-step safe walk from fix-clean3, whose
    moves allocate names up to slv60, L60 and R60."""
    walk = list(_safe_walk(60))
    out = walk[-1][1]
    assert (len(walk), len(out.sectors), len(out.dps)) == (60, 113, 120)
    assert [s.id for s in out.sectors[-2:]] == ["slv59", "slv60"]
    assert sha256(print_complex(out).encode()).hexdigest() == (
        "07556ae82270e80ad7914f8a8b652b5125bac3160599944f6aee6ffc484aab61")


# -- every split, pinned ------------------------------------------------------

def _split_outcome(cx, locus, choice) -> str:
    """Everything a split returns, or the error it raises, as text."""
    try:
        res = split(cx, locus, choice)
    except BsgateError as exc:
        return f"{type(exc).__name__}: {exc}\n"
    return (f"{print_complex(res.complex)}{res.dp_left} {res.dp_right} "
            f"{res.choice}\n{res.sector_images}\n"
            f"{_new_sectors(cx, res.complex)}\n")


def _split_digest(cases) -> tuple[int, str, list[str]]:
    """Call count, sha256 of the outcomes, and the InvariantViolations."""
    h, n, broken = sha256(), 0, []
    for tag, cx, loci in cases:
        for loc in loci:
            for choice in (OVER, UNDER, NEUTRAL):
                out = _split_outcome(cx, loc, choice)
                h.update(out.encode())
                n += 1
                if out.startswith("InvariantViolation"):
                    broken.append(f"{tag} {choice} {format_locus(cx, loc)}")
    return n, h.hexdigest(), broken


def test_every_fixture_split_is_pinned():
    cases = [(name, cx, all_loci(cx))
             for name, cx in ((n, load(n)) for n in ALL_FIXTURES)]
    assert _split_digest(cases) == (
        240, "a603a1cfb282000f05d303a5269df02265ed2090f998fc1816491078e1747c08",
        [])


def test_every_seeded_good_split_is_pinned():
    cases = [(seed, cx, good_loci(cx))
             for seed, cx in ((s, random_complex(s)) for s in range(200))]
    assert _split_digest(cases) == (
        3372, "c7554f2ba53bedd31714541aa759d465dab2307d2991a3b4f712a51f67779cd7",
        [])


def test_a_split_keeps_each_segment_whose_sheets_stay():
    """Over the seeded good splits, an input segment that the output
    carries on the same sheets is the input's own object; one whose
    sheets moved is a new copy."""
    counts = {"kept": 0, "moved": 0, "new": 0}
    for seed in range(200):
        cx = random_complex(seed)
        for loc in good_loci(cx):
            for choice in (OVER, UNDER, NEUTRAL):
                for g in split(cx, loc, choice).complex.segments:
                    old = cx.segment_by_id.get(g.id)
                    kind = ("new" if old is None else
                            "kept" if g == old else "moved")
                    counts[kind] += 1
                    assert (g is old) == (kind == "kept")
    assert counts == {"kept": 7366, "moved": 5552, "new": 11284}


def test_a_split_keeps_each_sector_whose_words_stay():
    """Over the seeded good splits, an input sector whose words the move
    does not rewrite is the output's own object, in the same place among
    the kept sectors; a rewritten one is a new object."""
    counts = {"kept": 0, "rewritten": 0, "new": 0}
    for seed in range(200):
        cx = random_complex(seed)
        for loc in good_loci(cx):
            for choice in (OVER, UNDER, NEUTRAL):
                out = split(cx, loc, choice).complex
                kept = []
                for s in out.sectors:
                    old = cx.sector_by_id.get(s.id)
                    kind = ("new" if old is None else
                            "kept" if s == old else "rewritten")
                    counts[kind] += 1
                    assert (s is old) == (kind == "kept")
                    if kind == "kept":
                        kept.append(s)
                assert kept == [s for s in cx.sectors if s in kept]
    assert counts == {"kept": 5766, "rewritten": 1644, "new": 6359}


def _forms(cx) -> tuple[list, list]:
    """The segment forms and the corner forms of ``cx``, in its order."""
    return ([g.form for g in cx.segments],
            [r.form for r in cx.roles.values()])


def _cold_equals_carried(out) -> None:
    """Every table of ``out`` equals that of a cold copy of it."""
    cold = parse_complex(print_complex(out))
    assert out.dp_corners == cold.dp_corners
    assert out.violations == cold.violations == ()
    assert out.roles == cold.roles
    assert list(out.roles) == [d.id for d in out.dps]
    assert _forms(out) == _forms(cold)
    for kind in KINDS:
        assert build_system(out, kind) == build_system(cold, kind)


def _shared_points(cx, out) -> int:
    """At each point of ``out`` whose corner table is the object ``cx``
    holds, the role assignment and the corner form are ``cx``'s objects
    too, and at every other point ``out`` derived its own; returns the
    number of shared points.  ``cx`` built its corner forms before the
    split."""
    forms = dict(zip(cx.roles, _forms(cx)[1]))
    got = dict(zip(out.roles, _forms(out)[1]))
    shared = 0
    for v, table in out.dp_corners.items():
        if table is cx.dp_corners.get(v):
            assert out.roles[v] is cx.roles[v] and got[v] is forms[v]
            shared += 1
        else:
            assert out.roles[v] is not cx.roles.get(v)
            assert got[v] is not forms.get(v)
    return shared


def _safe_walk(steps: int, seed: int = 0):
    """The steps of a safe walk from ``fix-clean3``, each as its plan row
    and output complex: at each step, the first good locus, in a
    ``random.Random(seed)`` shuffle, whose over or under output keeps the
    criterion."""
    rng = random.Random(seed)
    cur = load("fix-clean3.bsf")
    for _ in range(steps):
        loci = good_loci(cur)
        rng.shuffle(loci)
        for loc in loci:
            try:
                out = safe_split(cur, loc).complex
            except InvariantViolation:  # neither move keeps it
                continue
            yield format_locus(cur, loc).split(), out
            cur = out
            break


def test_carried_tables_equal_cold_ones(tables_built):
    """A split output's corner table, carried from its input's, and the
    violations, roles, corner forms and systems read off it equal those of
    a cold copy: over every good split of seeds 0-199, the over-ladder and
    a 60-step safe walk.  Where the table is the input's object, so are
    the role assignment and the corner form."""
    def carried() -> int:
        # the split outputs built since the last count, from their input's
        # tables; the recorder holds every complex, so it is emptied
        count = sum(parent is not None for _, parent in tables_built)
        tables_built.clear()
        return count

    outputs = shared = built = 0
    for seed in range(200):
        cx = random_complex(seed)
        _forms(cx)
        for loc in good_loci(cx):
            for choice in (OVER, UNDER, NEUTRAL):
                out = split(cx, loc, choice).complex
                shared += _shared_points(cx, out)
                _cold_equals_carried(out)
                outputs += 1
        _cold_equals_carried(cx)  # its shared tables were never written to
        built += carried()
    prev = None  # each step's input is the step before's output
    for _, out in _safe_walk(60):
        if prev is not None:
            shared += _shared_points(prev, out)
        _cold_equals_carried(out)
        outputs += 1
        prev = out
    # the walk's split calls include the over moves that it does not
    # commit; 3,004 output points kept their input's table and roles
    assert (outputs, built + carried(), shared) == (3432, 3438, 3004)
    # the ladder was built in an earlier test, or is built here
    for out in ladder():
        _cold_equals_carried(out)


def _an_over_split_of_seed_6():
    """Seed 6, validated, and its over split at its first good locus,
    which rewrites the sectors of its ``b0`` part and keeps ``b2_Wf``,
    which names the crossing ``b2_P`` whose table the move leaves alone."""
    cx = random_complex(6)
    assert validate(cx).ok()
    return cx, split(cx, good_loci(cx)[0], OVER).complex


def test_a_carried_walk_that_finds_a_violation_raises_it():
    """A split's parts with one new sector's ``up`` edge turned to ``lo``
    are refused by the carried walk, which names every violation that a
    cold walk of those parts reports, in its order."""
    cx, out = _an_over_split_of_seed_6()
    up = [(s, wi, ii) for s in out.sectors if cx.sector_by_id.get(s.id) is not s
          for wi, w in enumerate(s.words) for ii, it in enumerate(w.items)
          if isinstance(it, SegItem) and it.side == "up"]
    new, wi, ii = up[0]
    word = new.words[wi]
    items = list(word.items)
    items[ii] = items[ii]._replace(side="lo")
    words = list(new.words)
    words[wi] = BoundaryWord(tuple(items), word.verts)
    sectors = tuple(new._replace(words=tuple(words)) if s is new else s
                    for s in out.sectors)
    cold = surface.BranchedSurfaceComplex(cx.name, sectors, out.segments,
                                          out.dps).violations
    assert any("side up must appear exactly once" in v for v in cold)
    with pytest.raises(InvariantViolation) as err:
        surface.BranchedSurfaceComplex(cx.name, sectors, out.segments,
                                       out.dps, parent=cx)
    assert str(err.value) == ("split output fails validation: "
                              + "; ".join(cold))


def test_a_kept_sector_passed_as_a_distinct_object_is_walked_as_new(
        monkeypatch):
    """A sector that the move kept, handed over as an equal but distinct
    object, is walked with the new sectors; the output's tables still
    equal a cold copy's, and the point it names, whose table comes back
    unchanged, keeps its input's roles."""
    cx, out = _an_over_split_of_seed_6()
    kept = out.sector_by_id["b2_Wf"]
    assert kept is cx.sector_by_id["b2_Wf"]
    assert out.roles["b2_P"] is cx.roles["b2_P"]
    twin = Sector(*kept)
    assert twin == kept and twin is not kept
    walked = []
    walk = surface._walk_sectors
    monkeypatch.setattr(surface, "_walk_sectors",
                        lambda new, *a: walked.extend(new) or walk(new, *a))
    again = surface.BranchedSurfaceComplex(
        cx.name, tuple(twin if s is kept else s for s in out.sectors),
        out.segments, out.dps, parent=cx)
    assert any(s is twin for s in walked)
    _cold_equals_carried(again)
    assert again.roles == out.roles
    assert again.roles["b2_P"] is cx.roles["b2_P"]


def test_a_carried_output_whose_roles_fail_is_refused():
    """Parts whose words pass the carried walk but fit no corner reading
    at ``P`` (``fix-fig5`` with two of its slots swapped) are refused as
    the output is built, naming the point."""
    text = fixture_text("fix-fig5.bsf")
    text = text.replace("segment E arc one qz up fw lo qv ends dp:P:0 free",
                        "segment E arc one qz up fw lo qv ends dp:P:1 free")
    text = text.replace("segment N arc one qz up qx lo fy ends free dp:P:1",
                        "segment N arc one qz up qx lo fy ends free dp:P:0")
    bad = parse_complex(text)
    with pytest.raises(InvariantViolation) as err:
        surface.BranchedSurfaceComplex(bad.name, bad.sectors, bad.segments,
                                       bad.dps, parent=load("fix-fig5.bsf"))
    assert str(err.value) == ("split output fails validation: "
                              "role derivation failed at dp:P")


def test_a_split_output_is_not_validated_again(tables_built):
    """Every split output is built with its input as the parent, and its
    constructor builds its tables once, from its input's, so ``split``
    and ``validate`` never build them again, and never without that
    parent."""
    cx = load("fix-clean.bsf")
    assert cx.violations == ()
    tables_built.clear()  # cx's own cold build
    outputs = []
    for loc in good_loci(cx):
        for choice in (OVER, UNDER, NEUTRAL):
            outputs.append(split(cx, loc, choice).complex)
            assert tables_built[-1] == (outputs[-1], cx)  # before any read
            assert validate(outputs[-1]).ok()
            outputs[-1].roles, outputs[-1].dp_corners
    assert [id(out) for out, _ in tables_built] == [id(out) for out in outputs]
    assert all(parent is cx for _, parent in tables_built)


def test_every_depth_two_split_of_three_seeds_validates():
    """Seeds 6, 38 and 198 over-split at every good locus, then split
    again at every good locus with each choice; at depth two their outputs
    failed role derivation while it searched the sector labels."""
    calls = 0
    for seed in (6, 38, 198):
        cx = random_complex(seed)
        for loc in good_loci(cx):
            once = split(cx, loc, OVER).complex
            for loc2 in good_loci(once):
                for choice in (OVER, UNDER, NEUTRAL):
                    out = split(once, loc2, choice).complex
                    assert validate(out).ok(), (
                        seed, format_locus(cx, loc),
                        format_locus(once, loc2), choice)
                    calls += 1
    assert calls == 1416


# -- weight pushforward -------------------------------------------------------

def _closed_vectors(cx, bound):
    ids = [s.id for s in cx.sectors]
    for vals in itertools.product(range(bound + 1), repeat=len(ids)):
        w = dict(zip(ids, vals))
        if all(g.form.dot(w) == 0 for g in cx.segments):
            yield w


@pytest.mark.parametrize("choice", [OVER, UNDER, NEUTRAL])
def test_pushforward_preserves_equalities_exhaustively(choice):
    cx = load("fix-split.bsf")
    res = split(cx, SplitLocus("O", (0, 0), (0, 1)), choice)
    seen = 0
    for w in _closed_vectors(res.complex, 2):
        back = pushforward_weights(res, w)
        assert all(g.form.dot(back) == 0
                   for g in cx.segments), (w, back)
        seen += 1
    assert seen > 1  # the zero vector is never alone here


def test_pushforward_zero_and_indicator():
    cx = load("fix-split.bsf")
    res = split(cx, SplitLocus("O", (0, 0), (0, 1)), OVER)
    zero = pushforward_weights(res, {})
    assert set(zero.values()) == {0}
    ind = pushforward_weights(res, {"L": 1})
    assert ind == {"O": 0, "L": 1, "Ao": 0, "Bo": 0, "Fa": 0, "Fb": 0}


def test_pushforward_rejects_unknown_sectors():
    cx = load("fix-split.bsf")
    res = split(cx, SplitLocus("O", (0, 0), (0, 1)), OVER)
    with pytest.raises(MalformedSystem, match="O"):
        pushforward_weights(res, {"O": 1})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_pushforward_additive(data):
    cx = load("fix-split.bsf")
    choice = data.draw(st.sampled_from([OVER, UNDER, NEUTRAL]))
    res = split(cx, SplitLocus("O", (0, 1), (0, 0)), choice)
    ids = [s.id for s in res.complex.sectors]
    w1 = {i: data.draw(st.integers(0, 5), label=f"w1[{i}]") for i in ids}
    w2 = {i: data.draw(st.integers(0, 5), label=f"w2[{i}]") for i in ids}
    w12 = {i: w1[i] + w2[i] for i in ids}
    p1 = pushforward_weights(res, w1)
    p2 = pushforward_weights(res, w2)
    p12 = pushforward_weights(res, w12)
    assert p12 == {k: p1[k] + p2[k] for k in p1}


# -- safe splits and schedules ------------------------------------------------

def test_safe_split_requires_clean_input():
    with pytest.raises(PreconditionFailed):
        safe_split(load("fix-doc.bsf"), SplitLocus("D", (0, 0), (0, 0)))


INVALID = {
    # a circle segment that no boundary word names
    "loose": (fixture_text("fix-split.bsf")
              + "segment zz circle one O up L lo L\n",
              "segment zz side one must appear exactly once on sector O's "
              "boundary (found [])"),
    # both of the torus's words run along the segment's up side
    "doc-up-up": (fixture_text("fix-doc.bsf").replace(
        "bword T 1 : seg:g:lo", "bword T 1 : seg:g:up"),
        "segment g side up must appear exactly once on sector T's "
        "boundary (found ['T', 'T'])"),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_a_complex_that_fails_validation_has_no_verdict(name):
    # the weight systems refuse it, naming the first violation, so that
    # no verdict on it reads as a failed criterion
    text, violation = INVALID[name]
    cx = parse_complex(text)
    locus = SplitLocus(cx.sectors[0].id, (0, 0), (0, 1))
    for call in (lambda: criterion(cx), lambda: safe_split(cx, locus),
                 lambda: run_plan(cx, [])):
        with pytest.raises(PreconditionFailed) as info:
            call()
        assert str(info.value) == ("input complex fails validation: "
                                   + violation)


@pytest.mark.parametrize("name", sorted(INVALID))
def test_split_refuses_an_invalid_complex_as_a_precondition(name):
    # as the weight systems do: the locus is not at fault
    text, violation = INVALID[name]
    cx = parse_complex(text)
    locus = SplitLocus(cx.sectors[0].id, (0, 0), (0, 1))
    for choice in (OVER, UNDER, NEUTRAL):
        with pytest.raises(PreconditionFailed) as info:
            split(cx, locus, choice)
        assert str(info.value) == ("input complex fails validation: "
                                   + violation)


def test_safe_split_family_never_breaks():
    for name in ("fix-clean.bsf", "fix-clean3.bsf", "fix-split.bsf",
                 "fix-torus.bsf", "fix-cross.bsf"):
        cx = load(name)
        if not criterion(cx).passes:
            continue
        for loc in good_loci(cx):
            res = safe_split(cx, loc)
            assert res.choice in (OVER, UNDER)
            assert criterion(res.complex).passes, (name, loc)


def test_safe_split_reports_committed_verdict():
    cx = load("fix-clean.bsf")
    step, = run_plan(cx, [format_locus(cx, good_loci(cx)[0]).split()]).steps
    verdicts = dict(step.verdicts)
    assert verdicts[step.choice].passes


def test_empty_schedule_is_identity():
    cx = load("fix-clean.bsf")
    out = run_plan(cx, [])
    assert out.complex is cx
    assert out.steps == ()


def test_schedule_two_steps_stay_clean():
    cx = load("fix-clean.bsf")
    first = good_loci(cx)[0]
    res1 = safe_split(cx, first)
    second = good_loci(res1.complex)[0]
    out = run_plan(cx, [format_locus(cx, first).split(),
                        format_locus(res1.complex, second).split()])
    assert [s.choice for s in out.steps] == [res1.choice,
                                             out.steps[1].choice]
    assert criterion(out.complex).passes


def test_schedule_error_carries_step_index():
    cx = load("fix-clean.bsf")
    good = good_loci(cx)[0]
    # in the evolved complex, word 1 starts on an outward lateral item
    bad_probe = SplitLocus("A_l1", (0, 0), (1, 0))
    rows = [format_locus(cx, good).split(),
            format_locus(safe_split(cx, good).complex, bad_probe).split()]
    with pytest.raises(BadMove, match="step 1"):
        run_plan(cx, rows)
    with pytest.raises(PreconditionFailed):
        run_plan(load("fix-doc.bsf"), rows[:1])


def test_step_tag_keeps_the_error_and_its_verdicts(monkeypatch):
    # both moves "break" the criterion once the complex has 4 crossings,
    # which happens first at step 1
    real = splitting.criterion

    def fussy(cx):
        v = real(cx)
        if len(cx.dps) < 4:
            return v
        return v._replace(neg_tisc=Certificate("Feasible", witness={}))

    monkeypatch.setattr(splitting, "criterion", fussy)
    cx = load("fix-clean.bsf")
    first = good_loci(cx)[0]
    once = safe_split(cx, first).complex
    second = good_loci(once)[0]
    with pytest.raises(InvariantViolation) as info:
        run_plan(cx, [format_locus(cx, first).split(),
                      format_locus(once, second).split()])
    assert str(info.value).startswith("step 1: neither the over nor")
    # the shape of a committed step's verdicts: (move, Verdict) pairs in
    # the order tried
    assert [move for move, _ in info.value.verdicts] == ["over", "under"]
    assert not dict(info.value.verdicts)["under"].passes


def test_plan_validates_and_solves_each_complex_once(monkeypatch,
                                                     tables_built):
    solved = []

    def counting(log, fn):
        def wrapper(cx):
            log.append(cx)
            return fn(cx)
        return wrapper

    monkeypatch.setattr(splitting, "criterion",
                        counting(solved, splitting.criterion))
    out = run_plan(load("fix-clean3.bsf"), clean3_rows())
    tried = sum(len(step.verdicts) for step in out.steps)
    assert len(solved) == 1 + tried
    # count validation work, not calls of ``validate``: each build of a
    # complex's tables, with its parent, if any
    assert len({id(cx) for cx, _ in tables_built}) == len(tables_built) \
        == 1 + tried
    # only the plan's input is built cold; every split output from its input
    cold = [parent is None for _, parent in tables_built]
    assert cold == [True] + [False] * tried
    assert out.steps[-1].verdicts[-1][1].passes


def test_a_complex_does_not_hold_on_to_its_parent(monkeypatch):
    """A split output shares its input's unchanged tables, not the input:
    once the input is dropped, it is collected.  After a plan, of every
    complex it built, only its final one is alive."""
    cx = load("fix-clean.bsf")
    out = split(cx, good_loci(cx)[0], OVER).complex
    input_ref = weakref.ref(cx)
    del cx
    gc.collect()
    assert input_ref() is None
    assert validate(out).ok() and out.roles

    built, tables = [], surface._tables

    def build(new, parent):
        built.append(weakref.ref(new))
        return tables(new, parent)

    monkeypatch.setattr(surface, "_tables", build)
    final = run_plan(load("fix-clean3.bsf"), clean3_rows()).complex
    gc.collect()
    alive = [ref() for ref in built if ref() is not None]
    assert len(built) > 1 and alive == [final]


def test_plan_verifies_every_certificate_it_solves(monkeypatch):
    calls = {"feasible": 0, "verify_certificate": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(weights, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(weights, name, counting)
    run_plan(load("fix-clean3.bsf"), clean3_rows())
    assert calls["verify_certificate"] == calls["feasible"] > 0


def test_frozen_three_step_plan():
    out = run_plan(load("fix-clean3.bsf"), clean3_rows())
    assert [s.choice for s in out.steps] == ["over", "over", "over"]
    assert criterion(out.complex).passes
    assert [(s.id, s.genus, len(s.words)) for s in out.complex.sectors] == [
        ("A_l1_l2_l3", 0, 8), ("A_l1_l2_r3", 0, 1), ("A_l1_r2", 0, 1),
        ("slv1", 0, 1), ("slv2", 0, 1), ("slv3", 0, 1)]


def test_plan_steps_are_the_safe_split_records():
    # each step records the locus, the move and the verdicts that the
    # plan's locus gives on the complex the plan has reached, replayed
    # here move by move
    rows = clean3_rows()
    prev = load("fix-clean3.bsf")
    out = run_plan(prev, rows)
    assert len(out.steps) == len(rows)
    for step, row in zip(out.steps, rows):
        locus = locus_from_strings(prev, *row)
        assert step.locus == locus
        assert step.choice == safe_split(prev, locus).choice
        assert [move for move, _ in step.verdicts] == \
            [OVER, UNDER][:len(step.verdicts)]
        assert step.verdicts[-1][0] == step.choice
        for move, verdict in step.verdicts:
            assert verdict == criterion(split(prev, locus, move).complex)
        prev = split(prev, locus, step.choice).complex
    assert print_complex(out.complex) == print_complex(prev)


def _held(obj) -> list:
    """Every value reachable through the fields of ``obj``, stopping at
    complexes; a value of any other kind fails the walk."""
    stack, held = [obj], []
    while stack:
        cur = stack.pop()
        held.append(cur)
        if isinstance(cur, surface.BranchedSurfaceComplex):
            continue
        if isinstance(cur, dict):
            stack.extend(cur.items())
        elif isinstance(cur, tuple):  # a NamedTuple's fields too
            stack.extend(cur)
        else:
            assert cur is None or isinstance(cur, (str, int, Fraction)), cur
    return held


def test_schedule_holds_only_its_final_complex():
    walk = list(_safe_walk(30))
    for rows in (clean3_rows(), [row for row, _ in walk]):
        out = run_plan(load("fix-clean3.bsf"), rows)
        held = _held(out)
        assert [id(x) for x in held
                if isinstance(x, surface.BranchedSurfaceComplex)] == \
            [id(out.complex)]
        assert not any(isinstance(x, splitting.SplitResult) for x in held)
    # the one complex a 30-step plan keeps is its last step's output
    assert len(walk) == 30
    assert print_complex(out.complex) == print_complex(walk[-1][1])


# -- locus text form ----------------------------------------------------------

def test_locus_strings_round_trip():
    cx = load("fix-split.bsf")
    for loc in all_loci(cx):
        text = format_locus(cx, loc)
        sector, entry, exit_ = text.split()
        assert locus_from_strings(cx, sector, entry, exit_) == loc


def test_locus_strings_check_declared_sides():
    cx = load("fix-split.bsf")
    with pytest.raises(InvalidLocus, match="side mismatch"):
        locus_from_strings(cx, "O", "0:0:up", "0:1:one")
    with pytest.raises(InvalidLocus,
                       match="^exit side mismatch: declared up, found one$"):
        locus_from_strings(cx, "O", "0:0:one", "0:1:up")
    with pytest.raises(InvalidLocus, match="expected"):
        locus_from_strings(cx, "O", "0:0", "0:1:one")
    with pytest.raises(InvalidLocus, match="integers"):
        locus_from_strings(cx, "O", "a:b:one", "0:1:one")
    for entry in ("\uff10:0:one", "0:0_0:one"):  # int() reads both as 0
        with pytest.raises(InvalidLocus) as info:
            locus_from_strings(cx, "O", entry, "0:1:one")
        assert str(info.value) == (f"bad position {entry!r}, indices must "
                                   "be integers")
