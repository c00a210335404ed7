"""Corner roles read off the boundary words, checked against two
label-consistency oracles.

Oracle 1 re-enumerates every dihedral placement of the four slot germs
(8 slot maps x 2 vertical sides) and keeps the role maps whose sector
labels fit.  Oracle 2 is a blind assignment search: try every map of the
six roles onto sector ids and keep those matching the germ incidence
signature, ignoring slot order entirely.  Labels alone can fit several
maps when one sector fills several sheets; the words fix one, so the read
map must lie in each oracle's set, and equal it when the set has one map.
"""

from hashlib import sha256
from itertools import product

import pytest

from bsgate.errors import InvariantViolation, NoConsistentRoles
from bsgate import surface
from bsgate.gen import random_complex
from bsgate.splitting import (
    NEUTRAL, OVER, UNDER, format_locus, good_loci, split)
from bsgate.surface import (
    FREE_END,
    BranchSegment,
    BranchedSurfaceComplex,
    DoublePoint,
    RoleAssignment,
    Sector,
    SegItem,
    SegmentEnd,
    derive_roles,
    validate,
)

from conftest import FIXTURES, load
from test_certificates import RUNGS, ladder

ROLE_NAMES = ("z", "x", "u", "v", "w", "y")


def _germs(cx, did):
    """Per slot 0-3, the sheets (one, up, lo) of the segment whose end sits
    there, read off the segments' declared ends."""
    at = {end.slot: g for g in cx.segments for end in (g.end0, g.end1)
          if end is not None and end.dp == did}
    return [(at[k].one, at[k].up, at[k].lo) for k in range(4)]


def _roles(r):
    """The role map of a RoleAssignment."""
    return {role: getattr(r, role) for role in ROLE_NAMES}


def _mirror(m):
    """The role map under the symmetry swapping x with v and w with y."""
    return {"z": m["z"], "u": m["u"], "x": m["v"], "v": m["x"],
            "w": m["y"], "y": m["w"]}


def _canon(m):
    return min(tuple(sorted(m.items())), tuple(sorted(_mirror(m).items())))


def dihedral_oracle(germs):
    """All canonical role maps over every dihedral slot placement."""
    found = set()
    placements = []
    for a in range(4):
        placements.append([a, (a + 1) % 4, (a + 2) % 4, (a + 3) % 4])
        placements.append([a, (a - 1) % 4, (a - 2) % 4, (a - 3) % 4])
    for e, n, w_, s in placements:
        ge, gn, gw, gs = germs[e], germs[n], germs[w_], germs[s]
        for eps in (1, 2):  # index into (one, up, lo)
            opp = 3 - eps
            if not (ge[0] == gn[0] and ge[eps] == gw[eps]
                    and gn[opp] == gs[opp] and gw[opp] == gs[eps]
                    and gw[0] == gn[eps] and gs[0] == ge[opp]):
                continue
            found.add(_canon({"z": ge[0], "w": ge[eps], "y": gn[opp],
                              "u": gw[opp], "x": gw[0], "v": gs[0]}))
    return found


def signature_oracle(germs):
    """Role maps whose four expected germ signatures match, slot-blind."""
    pool = sorted({s for g in germs for s in g})
    actual = sorted((g[0], tuple(sorted(g[1:]))) for g in germs)
    out = set()
    for z, x, u, v, w, y in product(pool, repeat=6):
        want = sorted([(z, tuple(sorted((x, y)))),
                       (z, tuple(sorted((w, v)))),
                       (v, tuple(sorted((u, y)))),
                       (x, tuple(sorted((w, u))))])
        if want == actual:
            out.add(_canon(dict(z=z, x=x, u=u, v=v, w=w, y=y)))
    return out


def _assert_read_within(oracle, r):
    got = _canon(_roles(r))
    assert got in oracle
    if len(oracle) == 1:
        assert oracle == {got}


@pytest.mark.parametrize("name,dids", [
    ("fix-fig5.bsf", ["P"]),
    ("fix-tdisc.bsf", ["P", "P2", "Q", "Q2"]),
    ("fix-split.bsf", ["P", "Q"]),
    ("fix-cross.bsf", ["P"]),
])
def test_derivation_agrees_with_dihedral_oracle(name, dids):
    cx = load(name)
    for did in dids:
        _assert_read_within(dihedral_oracle(_germs(cx, did)),
                            derive_roles(cx, did))


@pytest.mark.parametrize("did", ["P", "P2", "Q", "Q2"])
def test_tdisc_roles_unique_under_assignment_search(did):
    cx = load("fix-tdisc.bsf")
    _assert_read_within(signature_oracle(_germs(cx, did)),
                        derive_roles(cx, did))


def test_fig5_inequality_quadruple():
    """The four germ signatures spell exactly the branch inequalities
    z>=x+y, z>=w+v, v>=u+y, x>=w+u."""
    cx = load("fix-fig5.bsf")
    r = derive_roles(cx, "P")
    sigs = sorted((g[0], tuple(sorted(g[1:]))) for g in _germs(cx, "P"))
    want = sorted([(r.z, tuple(sorted((r.x, r.y)))),
                   (r.z, tuple(sorted((r.w, r.v)))),
                   (r.v, tuple(sorted((r.u, r.y)))),
                   (r.x, tuple(sorted((r.w, r.u))))])
    assert sigs == want
    assert (r.z, r.x, r.u, r.v, r.w, r.y) == ("qz", "qx", "qu", "qv", "fw", "fy")


def _dp_complex(table):
    """Minimal complex holding one double point with the given germ table
    and no boundary words."""
    sectors = tuple(Sector(s, 0, ()) for s in sorted({x for g in table for x in g}))
    segs = tuple(
        BranchSegment(f"s{i}", "arc", *table[i],
                      SegmentEnd("P", i), SegmentEnd(None, None))
        for i in range(4))
    return BranchedSurfaceComplex("t", sectors, segs, (DoublePoint("P", 1),))


def test_no_consistent_roles_raised():
    # without words there are no corners to read, whatever the labels say
    for table in ([("A", "B", "C"), ("D", "E", "F"),
                   ("G", "H", "I"), ("J", "K", "L")],
                  [("A", "A", "A")] * 4):
        with pytest.raises(NoConsistentRoles):
            derive_roles(_dp_complex(table), "P")


def test_unknown_double_point_refused():
    with pytest.raises(NoConsistentRoles) as ei:
        derive_roles(load("fix-cross.bsf"), "nope")
    assert str(ei.value) == "unknown double point nope"


def test_missing_end_leaves_no_reading():
    """A point with no end at slot 0 would have no corner there, so no
    reading would fit; such a complex is refused as it is built, for its
    end arity, and no roles are ever read on it."""
    cx = load("fix-cross.bsf")
    with pytest.raises(InvariantViolation, match=(
            r"^double point P has wrong end arity \(slots filled "
            r"\[0, 1, 1, 1\]\)$")):
        BranchedSurfaceComplex(cx.name, cx.sectors, tuple(
            g._replace(end0=FREE_END) if g.id == "A" else g
            for g in cx.segments), cx.dps)


def test_ambiguous_roles_raised():
    # labels fit two essentially different maps here (found by exhaustive
    # search over two-symbol germ tables); with no words to fix one, the
    # point is refused rather than given either
    table = [("A", "A", "B"), ("A", "B", "A"),
             ("B", "A", "A"), ("B", "A", "A")]
    assert len(dihedral_oracle(table)) == 2
    with pytest.raises(NoConsistentRoles):
        derive_roles(_dp_complex(table), "P")


def _relabel(cx, f):
    """``cx`` with sector ``s`` renamed ``f[s]``; sectors given one name
    merge into one sector holding all their words."""
    words = {}
    for s in cx.sectors:
        words.setdefault(f[s.id], []).extend(s.words)
    return BranchedSurfaceComplex(
        cx.name, tuple(Sector(sid, 0, tuple(ws)) for sid, ws in words.items()),
        tuple(g._replace(one=f[g.one], up=f[g.up], lo=f[g.lo])
              for g in cx.segments),
        cx.dps)


def test_all_same_sector_degenerate_case():
    # fig5 with all six sectors merged into one: every corner is that
    # sector's, and each role reads it
    cx = load("fix-fig5.bsf")
    img = _relabel(cx, {s.id: "A" for s in cx.sectors})
    assert validate(img).ok()
    r = derive_roles(img, "P")
    assert {r.z, r.x, r.u, r.v, r.w, r.y} == {"A"}


def test_every_two_label_image_of_fig5_reads_the_image_of_its_roles():
    """All 64 maps of fig5's six sectors onto {A, B}: the words still
    record fig5's corners, so the roles read are the images of fig5's,
    also where the labels alone fit several essentially different maps."""
    cx = load("fix-fig5.bsf")
    r = derive_roles(cx, "P")
    ids = [s.id for s in cx.sectors]
    label_ambiguous = 0
    for labels in product("AB", repeat=len(ids)):
        f = dict(zip(ids, labels))
        img = _relabel(cx, f)
        assert validate(img).ok(), labels
        read = derive_roles(img, "P")
        assert read == RoleAssignment(
            dp="P", **{role: f[sid] for role, sid in _roles(r).items()})
        oracle = dihedral_oracle(_germs(img, "P"))
        _assert_read_within(oracle, read)
        label_ambiguous += len(oracle) > 1
    # ten images fit several essentially different maps by their labels
    assert label_ambiguous == 10


def test_mirror_symmetry_leaves_corner_coefficients_fixed():
    for name, dids in [("fix-tdisc.bsf", ["P", "Q"]), ("fix-split.bsf", ["P", "Q"])]:
        cx = load(name)
        for did in dids:
            r = derive_roles(cx, did)
            m = _mirror(_roles(r))
            coeffs = {}
            for s, c in ((m["z"], 1), (m["u"], 1), (m["x"], -1), (m["v"], -1)):
                coeffs[s] = coeffs.get(s, 0) + c
            coeffs = {s: c for s, c in coeffs.items() if c}
            assert coeffs == dict(r.form.coeffs)


def _fitting_readings(cx, did):
    """The role maps of the readings whose six corners are all present."""
    corners = cx.dp_corners[did]
    return [{role: corners[here][1] for role, here, _there in joins}
            for joins in surface._READINGS
            if all(corners.get(here, (None,))[0] == there
                   for _role, here, there in joins)]


def test_ambiguity_impossible_for_arising_tables():
    """Every double point of the fixtures, seeds 0-199 and the ladder has
    exactly one reading of its corners, the one derive_roles returns; and
    no two-symbol germ table yields roles from its labels alone."""
    for _name, cx in _group("fixtures") + _group("seeds") + _group("ladder"):
        for d in cx.dps:
            r = derive_roles(cx, d.id)
            assert _fitting_readings(cx, d.id) == [_roles(r)]
    for tbl in product(product("AB", repeat=3), repeat=4):
        with pytest.raises(NoConsistentRoles):
            derive_roles(_dp_complex([tuple(g) for g in tbl]), "P")


def test_each_segment_end_is_resolved_once_per_word_item(monkeypatch):
    """A cold validation plus the roles resolve the segment end at each
    vertex of each arc edge item once: one walk of the words yields the
    corner table and the violations."""
    calls = []

    def counted(seg, side, which):
        calls.append(which)
        return end_of_item(seg, side, which)

    named = _group("fixtures") + [(f"L{k}", ladder()[k]) for k in RUNGS]
    end_of_item = surface._end_of_item
    monkeypatch.setattr(surface, "_end_of_item", counted)
    arc_items = 0
    for _name, cx in named:
        # a copy with no cached tables
        cx = BranchedSurfaceComplex(cx.name, cx.sectors, cx.segments, cx.dps)
        assert validate(cx).ok()
        cx.roles
        arc_items += sum(isinstance(it, SegItem)
                         and cx.segment_by_id[it.seg].kind == "arc"
                         for s in cx.sectors for w in s.words for it in w.items)
    assert (len(calls), arc_items) == (1356, 678)
    assert calls.count("prev") == calls.count("next")


# -- corner forms, pinned -----------------------------------------------------

def _corner_text(name, cx) -> str:
    """Every double point's corner form z + u - x - v: the part of the
    roles that does not depend on which mirror reading is returned."""
    return f"{name}\n" + "".join(
        f"{d.id} {list(cx.roles[d.id].form.coeffs)}\n"
        for d in cx.dps)


def _group(group):
    if group == "fixtures":
        return [(p.name, load(p.name)) for p in sorted(FIXTURES.glob("*.bsf"))]
    if group == "seeds":
        return [(f"seed-{s}", random_complex(s)) for s in range(200)]
    return [(f"L{k}", ladder()[k]) for k in range(1, 41)]


@pytest.mark.parametrize("group,dps,digest", [
    ("fixtures", 12,
     "ee592142bc56a52dfe0d47b8c4bc8480a4388b90e22bca9ce4a55a88f76bb3da"),
    ("seeds", 129,
     "44170c70bc71def5dee59a9b599d321866ba4416a1b613e8cb7b1bd7e393093c"),
    ("ladder", 1640,
     "9fbcd5997a1a439cb90d4d4fbe69351df5ddbcf6e93ba990355693f17bc09395"),
])
def test_every_corner_form_is_pinned(group, dps, digest):
    named = _group(group)
    h = sha256()
    for name, cx in named:
        h.update(_corner_text(name, cx).encode())
    assert sum(len(cx.dps) for _n, cx in named) == dps
    assert h.hexdigest() == digest


# the depth-one good splits whose outputs a search over sector labels
# found ambiguous, and which failed validation before the corners were read
FORMERLY_AMBIGUOUS = ("6 over b2_Wf 2:0:one 2:3:one",
                      "6 under b2_Wf 2:0:one 2:3:one",
                      "75 neutral b0_Bo 1:0:one 3:0:one",
                      "75 neutral b0_Bo 3:0:one 1:0:one",
                      "185 over b0_Wf 2:0:one 2:3:one",
                      "185 under b0_Wf 2:0:one 2:3:one")


def test_every_seeded_split_corner_form_is_pinned():
    """Corner forms of every good split's output over seeds 0-199; the
    formerly ambiguous six are hashed apart from the rest, whose digest
    is the one they had while the six failed."""
    rest, six, broken = sha256(), sha256(), []
    for seed in range(200):
        cx = random_complex(seed)
        for loc in good_loci(cx):
            for choice in (OVER, UNDER, NEUTRAL):
                name = f"{seed} {choice} {format_locus(cx, loc)}"
                try:
                    out = split(cx, loc, choice).complex
                except InvariantViolation:
                    broken.append(name)
                    continue
                h = six if name in FORMERLY_AMBIGUOUS else rest
                h.update(_corner_text(name, out).encode())
    assert (rest.hexdigest(), six.hexdigest(), broken) == (
        "23932410d2d92f3cb1bf36f624134297907a38289b6dc4514e3d75e9940ff0a1",
        "699f7338445bc5c2c0af0466ed4e96dce0ccb267a1df0a750510b5d4f8914a45",
        [])
