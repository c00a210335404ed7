"""Assembly tests.

The Euler-characteristic oracle here recomputes everything from scratch:
per-cell incidence counts from the level maps, vertex classes by walking
the degree-<=2 endpoint-pairing graph, and the inclusion-exclusion sum
   sum chi(face) + sum_edges (iota - 1) - sum_vertices (iota - 1)
instead of the implementation's quotient-complex count.
"""

import functools
import hashlib
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgate import assembly, surface
from bsgate.assembly import assemble, normalize_trace
from bsgate.errors import (
    BsgateError,
    InvariantViolation,
    PreconditionFailed,
    WeightsNotSatisfying,
)
from bsgate.gen import random_complex
from bsgate.parser import parse_complex, parse_weights
from bsgate.surface import SegItem
from bsgate.weights import (
    ISC,
    KINDS,
    NEG_TISC,
    POS_TISC,
    build_system,
)

from conftest import FIXTURES, fixture_text, load, tally, traced_peak
from test_certificates import ladder, snapshot

CORPUS = ["fix-torus.bsf", "fix-doc.bsf", "fix-tdisc.bsf", "fix-negtd.bsf",
          "fix-split.bsf", "fix-clean.bsf"]


# -- independent chi oracle ---------------------------------------------------

def chi_total_oracle(cx, w):
    face_sum = sum(s.euler() * w.get(s.id, 0) for s in cx.sectors)
    glued = sum(w.get(g.up, 0) + w.get(g.lo, 0) for g in cx.segments)

    occ_by_cell = {}
    total_verts = 0
    for s in cx.sectors:
        for lev in range(1, w.get(s.id, 0) + 1):
            for wi, word in enumerate(s.words):
                total_verts += len(word.verts)
                for ii, it in enumerate(word.items):
                    if not isinstance(it, SegItem):
                        continue
                    g = cx.segment_by_id[it.seg]
                    z, x = w.get(g.one, 0), w.get(g.up, 0)
                    cell_lev = z - x + lev if it.side == "up" else lev
                    occ_by_cell.setdefault((it.seg, cell_lev), []).append(
                        (s.id, lev, wi, ii))

    nbrs = {}
    for occs in occ_by_cell.values():
        assert len(occs) <= 2
        if len(occs) != 2:
            continue
        (sa, la, wa, ia), (sb, lb, wb, ib) = occs
        ma = len(cx.sector_by_id[sa].words[wa].items)
        mb = len(cx.sector_by_id[sb].words[wb].items)
        for va, vb in (((ia - 1) % ma, ib), (ia, (ib - 1) % mb)):
            a, b = (sa, la, wa, va), (sb, lb, wb, vb)
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)

    seen = set()
    classes = 0
    for s in cx.sectors:
        for lev in range(1, w.get(s.id, 0) + 1):
            for wi, word in enumerate(s.words):
                for vi in range(len(word.verts)):
                    node = (s.id, lev, wi, vi)
                    if node in seen:
                        continue
                    classes += 1
                    stack = [node]
                    while stack:
                        cur = stack.pop()
                        if cur in seen:
                            continue
                        seen.add(cur)
                        stack.extend(nbrs.get(cur, ()))
    return face_sum + glued - (total_verts - classes)


# -- golden assemblies --------------------------------------------------------

def test_torus_three_closed_copies():
    cx = load("fix-torus.bsf")
    for kind in (NEG_TISC, POS_TISC, ISC):
        asm = assemble(cx, {"T": 3}, kind)
        assert asm.classifications == ("Closed",) * 3
        assert [c.euler for c in asm.components] == [0, 0, 0]
        assert tally(cx, asm)[0] == {"T": 3}


def test_doc_witness_is_a_disk():
    asm = assemble(load("fix-doc.bsf"), {"D": 1}, ISC)
    (comp,) = asm.components
    assert comp.euler == 1
    assert comp.classification == "Isc"
    assert comp.boundaries == ((("run", "g", 1),),)


def test_doc_doubled_witness_two_disks():
    cx = load("fix-doc.bsf")
    asm = assemble(cx, {"D": 2}, ISC)
    assert asm.classifications == ("Isc", "Isc")
    assert [c.euler for c in asm.components] == [1, 1]
    assert tally(cx, asm)[0] == {"D": 2, "T": 0}


TDISC_POS_TRACE = (
    ("corner", "P", 0, 1), ("run", "WP", 1), ("corner", "P2", 0, 1),
    ("run", "SM2", 1), ("run", "SB", 1), ("run", "SM", 1),
)


def test_tdisc_pos_witness_golden_trace():
    cx = load("fix-tdisc.bsf")
    asm = assemble(cx, {"mw": 1, "sw": 1}, POS_TISC)
    (comp,) = asm.components
    assert comp.faces == (("mw", 1), ("sw", 1))
    assert comp.euler == 1  # disk turning both positive corners
    assert comp.classification == "PosTisc"
    assert comp.boundaries == (TDISC_POS_TRACE,)
    assert tally(cx, asm)[2] == {"P": 1, "P2": 1, "Q": 0, "Q2": 0}


def test_tdisc_neg_witness_golden_trace():
    asm = assemble(load("fix-tdisc.bsf"), {"sw": 1}, NEG_TISC)
    (comp,) = asm.components
    assert comp.classification == "NegTisc"
    assert comp.boundaries == (
        (("corner", "Q", 0, -1), ("run", "WQ", 1),
         ("corner", "Q2", 0, -1), ("run", "SB", 1)),)
    assert comp.euler == 1


def test_negtd_mirror_witness():
    cx = load("fix-negtd.bsf")
    asm = assemble(cx, {"mw": 1, "sw": 1}, NEG_TISC)
    (comp,) = asm.components
    assert comp.classification == "NegTisc"
    assert all(e[3] == -1 for t in comp.boundaries for e in t
               if e[0] == "corner")
    assert tally(cx, asm)[2] == {"P": 1, "P2": 1, "Q": 0, "Q2": 0}


def test_tdisc_isc_witness_no_corners():
    asm = assemble(load("fix-tdisc.bsf"), {"sw": 1, "se": 1}, ISC)
    (comp,) = asm.components
    assert comp.classification == "Isc"
    assert comp.euler == 1
    assert comp.boundaries == (
        (("run", "EQ", 1), ("run", "WQ", 1)),)


def test_cross_self_gluing_closes_tori():
    asm = assemble(load("fix-cross.bsf"), {"Q": 3}, NEG_TISC)
    assert asm.classifications == ("Closed",) * 3
    assert [c.euler for c in asm.components] == [0, 0, 0]


def test_free_boundary_component_is_other():
    cx = load("fix-fig5.bsf")
    asm = assemble(cx, {"qz": 1}, NEG_TISC)
    (comp,) = asm.components
    assert comp.classification == "Other"
    assert ("free", "f_z") in comp.boundaries[0]
    assert tally(cx, asm)[2] == {"P": 1}


@pytest.mark.parametrize("name, sidecar, kind", [
    ("fix-tdisc.bsf", "fix-tdisc-pos.w", POS_TISC),
    ("fix-negtd.bsf", "fix-negtd-neg.w", NEG_TISC),
])
def test_each_traced_corner_looks_up_one_segment_end(name, sidecar, kind,
                                                      monkeypatch):
    # six sector corners are traced, each entered from one germ side; the
    # germ it leaves by is read off the corner table
    cx = load(name)
    w = parse_weights(fixture_text(sidecar), cx)
    assert not cx.violations
    calls = []
    end_of_item = surface._end_of_item

    def counted(*args):
        calls.append(args)
        return end_of_item(*args)

    monkeypatch.setattr(surface, "_end_of_item", counted)
    assemble(cx, w, kind)
    assert len(calls) == 6


@pytest.mark.parametrize("damage", ["missing", "same-slot"])
def test_a_corner_the_table_cannot_turn_is_an_invariant_violation(damage):
    # the trace enters mw's corner at P from its merged germ at slot 3
    cx = load("fix-tdisc.bsf")
    assert not cx.violations
    table = cx.dp_corners["P"]
    if damage == "missing":
        table.pop((3, "one"))
    else:
        table[3, "one"] = ((3, "up"), "mw")
    with pytest.raises(InvariantViolation, match="no corner at dp:P"):
        assemble(cx, {"mw": 1, "sw": 1}, POS_TISC)


def test_trace_normalization_is_rotation_invariant():
    t = (("run", "b", 1), ("corner", "P", 0, 1), ("run", "a", 1))
    n = normalize_trace(t)
    assert n == normalize_trace(n[1:] + n[:1])
    assert set(n) == set(t)


# -- preconditions ------------------------------------------------------------

def test_unsatisfying_weights_name_the_constraint():
    with pytest.raises(WeightsNotSatisfying, match="seg:g"):
        assemble(load("fix-doc.bsf"), {"T": 1}, ISC)
    with pytest.raises(WeightsNotSatisfying, match="corner:Q"):
        assemble(load("fix-tdisc.bsf"), {"sw": 1}, POS_TISC)
    with pytest.raises(WeightsNotSatisfying, match="negative"):
        assemble(load("fix-torus.bsf"), {"T": -1}, ISC)


def test_complex_failing_validation_is_refused():
    # the up side twice and the lo side never: the sheets do not pair
    text = fixture_text("fix-doc.bsf").replace(
        "bword T 1 : seg:g:lo", "bword T 1 : seg:g:up")
    with pytest.raises(PreconditionFailed) as err:
        assemble(parse_complex(text), {"D": 2, "T": 1}, ISC)
    assert str(err.value) == (
        "input complex fails validation: segment g side up must appear "
        "exactly once on sector T's boundary (found ['T', 'T'])")


def test_oversized_weights_are_refused_before_any_face():
    # one face per unit of weight: 2^18 + 1 faces is over the cap.  The
    # ids of that many faces alone would take megabytes; the refusal
    # allocates under 1 MiB
    cx = load("fix-doc.bsf")
    for w in ({"D": (1 << 18) + 1}, {"D": 10 ** 7}):
        def refuse():
            with pytest.raises(PreconditionFailed,
                               match="more than the 2\\^18"):
                assemble(cx, w, ISC)

        assert traced_peak(refuse)[1] < 1 << 20


def test_non_strict_vectors_still_assemble():
    # the strictness aggregate is not a gluing precondition: the zero
    # vector and plain closed solutions are legitimate inputs
    asm = assemble(load("fix-tdisc.bsf"), {}, NEG_TISC)
    assert asm.components == ()
    asm = assemble(load("fix-torus.bsf"), {"T": 1}, ISC)
    assert asm.classifications == ("Closed",)


# -- conservation and oracle checks ------------------------------------------

WITNESSES = [
    ("fix-torus.bsf", {"T": 3}, NEG_TISC),
    ("fix-doc.bsf", {"D": 1}, ISC),
    ("fix-doc.bsf", {"D": 2}, ISC),
    ("fix-tdisc.bsf", {"mw": 1, "sw": 1}, POS_TISC),
    ("fix-tdisc.bsf", {"sw": 1}, NEG_TISC),
    ("fix-tdisc.bsf", {"sw": 1, "se": 1}, ISC),
    ("fix-tdisc.bsf", {"nw": 1, "mw": 1, "sw": 1}, ISC),
    ("fix-tdisc.bsf", {"mw": 2, "sw": 2}, POS_TISC),
    ("fix-negtd.bsf", {"mw": 1, "sw": 1}, NEG_TISC),
    ("fix-split.bsf", {"O": 1, "Bo": 1}, ISC),
    ("fix-split.bsf", {"O": 2, "Bo": 1, "Ao": 1}, ISC),
    ("fix-cross.bsf", {"Q": 3}, NEG_TISC),
    ("fix-fig5.bsf", {"qz": 1}, NEG_TISC),
    ("fix-fig5.bsf", {"qz": 2, "qx": 1, "qv": 1, "qu": 1}, NEG_TISC),
]


@pytest.mark.parametrize("name,w,kind", WITNESSES)
def test_roundtrip_weights_exact(name, w, kind):
    cx = load(name)
    asm = assemble(cx, w, kind)
    assert tally(cx, asm)[0] == {s.id: w.get(s.id, 0) for s in cx.sectors}


@pytest.mark.parametrize("name,w,kind", WITNESSES)
def test_boundary_runs_equal_segment_slacks(name, w, kind):
    cx = load(name)
    _, runs, _ = tally(cx, assemble(cx, w, kind))
    for g in cx.segments:
        assert runs[g.id] == g.form.dot(w), g.id


@pytest.mark.parametrize("name,w,kind", WITNESSES)
def test_corner_multiplicities_equal_corner_slacks(name, w, kind):
    cx = load(name)
    _, _, corners = tally(cx, assemble(cx, w, kind))
    for d in cx.dps:
        assert corners[d.id] == cx.roles[d.id].form.dot(w), d.id


@pytest.mark.parametrize("name,w,kind", WITNESSES)
def test_euler_against_inclusion_exclusion_oracle(name, w, kind):
    cx = load(name)
    asm = assemble(cx, w, kind)
    assert sum(c.euler for c in asm.components) == chi_total_oracle(cx, w)


@pytest.mark.parametrize("name,w,kind", WITNESSES)
def test_level_maps_injective(name, w, kind):
    # embedded vertical order: upper and lower gluing ranges never overlap
    cx = load(name)
    assemble(cx, w, kind)
    for g in cx.segments:
        z, x, y = (w.get(g.one, 0), w.get(g.up, 0), w.get(g.lo, 0))
        assert z - x >= y


def test_classification_invariants():
    for name, w, kind in WITNESSES:
        asm = assemble(load(name), w, kind)
        for comp in asm.components:
            corners = [e for t in comp.boundaries for e in t
                       if e[0] == "corner"]
            if comp.classification == "Closed":
                assert comp.boundaries == ()
            elif comp.classification == "Isc":
                assert comp.boundaries and not corners
            elif comp.classification in ("PosTisc", "NegTisc"):
                want = 1 if comp.classification == "PosTisc" else -1
                assert corners and all(e[3] == want for e in corners)
            for e in corners:
                assert e[2] >= 0  # turn counts


def test_kind_matched_component_present():
    # criterion-run witnesses on the named corpus: the glued surface must
    # contain a component of the requested kind
    from bsgate.weights import build_system, criterion

    for name in CORPUS:
        cx = load(name)
        v = criterion(cx)
        for kind, cert in ((NEG_TISC, v.neg_tisc), (ISC, v.isc)):
            if not cert.feasible:
                continue
            asm = assemble(cx, cert.witness, kind)
            want = "NegTisc" if kind == NEG_TISC else "Isc"
            assert want in asm.classifications, (name, kind)


@functools.lru_cache(maxsize=None)
def satisfying_vectors(name, kind):
    """Every weight vector with entries <= 3 that ``kind``'s equalities and
    inequalities accept (strictness aside, as in ``check_weights``)."""
    cx = load(name)
    system = build_system(cx, kind)
    col = {s: j for j, s in enumerate(system.variables)}
    n = len(col)
    grid = np.indices((4,) * n).reshape(n, -1).T
    ok = np.ones(len(grid), dtype=bool)
    for forms, accept in ((system.equalities, np.equal),
                          (system.inequalities, np.greater_equal)):
        for form in forms:
            row = np.zeros(n, dtype=np.int64)
            for s, c in form.coeffs:
                row[col[s]] += c
            ok &= accept(grid @ row, 0)
    return [dict(zip(system.variables, map(int, vec))) for vec in grid[ok]]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_random_satisfying_vectors_conserve(data):
    name = data.draw(st.sampled_from(
        ["fix-tdisc.bsf", "fix-split.bsf", "fix-doc.bsf", "fix-cross.bsf"]))
    cx = load(name)
    kind = data.draw(st.sampled_from([NEG_TISC, POS_TISC, ISC]))
    w = data.draw(st.sampled_from(satisfying_vectors(name, kind)))
    asm = assemble(cx, w, kind)
    faces, runs, corners = tally(cx, asm)
    assert faces == w
    assert sum(c.euler for c in asm.components) == chi_total_oracle(cx, w)
    for g in cx.segments:
        assert runs[g.id] == g.form.dot(w)
    for d in cx.dps:
        assert corners[d.id] == cx.roles[d.id].form.dot(w)


# -- parallel copies ----------------------------------------------------------

COPY_FIXTURES = ["fix-tdisc.bsf", "fix-split.bsf", "fix-doc.bsf",
                 "fix-cross.bsf"]


def glued_whole(cx, w):
    """The unreduced walk: one face per unit of ``w``."""
    return assembly._glue(cx, {s.id: w.get(s.id, 0) for s in cx.sectors})


@pytest.mark.parametrize("k", [2, 3, 7])
@pytest.mark.parametrize("name", COPY_FIXTURES)
def test_scaled_vectors_glue_as_parallel_copies(name, k):
    # assemble glues w / gcd(w) once and lays down its copies; the walk
    # over every face of k*w must give the same surface, listed the same
    cx = load(name)
    for kind in KINDS:
        for w in satisfying_vectors(name, kind):
            scaled = {s: k * v for s, v in w.items()}
            assert assemble(cx, scaled, kind) == glued_whole(cx, scaled), (
                kind, w)


@pytest.mark.parametrize("name", COPY_FIXTURES)
def test_zero_and_primitive_vectors_glue_directly(name):
    cx = load(name)
    seen = set()
    for kind in KINDS:
        for w in satisfying_vectors(name, kind):
            g = gcd(*w.values())
            if g <= 1:
                seen.add(g)
                assert assemble(cx, w, kind) == glued_whole(cx, w), (kind, w)
    assert seen == {0, 1}
    assert assemble(cx, {}, ISC).components == ()


def test_a_scaled_witness_unions_as_often_as_the_primitive(monkeypatch):
    # the ladder-decide workload assembles the L10 pos-tisc witness scaled
    # by 100: that costs the gluing of the witness itself
    cx = ladder()[10]
    witness = snapshot()[f"L10/{POS_TISC}"]["witness"]
    calls = []
    union = assembly._union

    def counted(*args):
        calls.append(args)
        return union(*args)

    monkeypatch.setattr(assembly, "_union", counted)
    counts = []
    for scale in (1, 100):
        calls.clear()
        asm = assemble(cx, {s: scale * v for s, v in witness.items()},
                       POS_TISC)
        counts.append(len(calls))
        assert sum(map(len, (c.faces for c in asm.components))) == (
            scale * sum(witness.values()))
    assert counts[0] == counts[1] > 0
    calls.clear()
    glued_whole(cx, {s: 100 * v for s, v in witness.items()})
    assert len(calls) == 100 * counts[0]


# -- pinned output ------------------------------------------------------------

# sha256 over the outcome of every case of pinned_cases(), in order
ASSEMBLED_DIGEST = (
    "b92855f3ec304692cac293728658974571966d1e46f939a7868c92d44446ca99")


def pinned_cases():
    """(label, complex, weights, kind) of every pinned assembly: every
    satisfying vector of every fixture; each fixture's last satisfying
    vector with one sector raised by 1 or set to -1, in turn (some of
    each fixture's are refused); each feasible witness of generator
    seeds 0-199, scaled by 1 and 3; and each pos-tisc witness of the
    ladder rungs, scaled by 100."""
    for path in sorted(FIXTURES.glob("*.bsf")):
        cx = load(path.name)
        for kind in KINDS:
            vecs = satisfying_vectors(path.name, kind)
            for w in vecs:
                yield path.name, cx, w, kind
            last = vecs[-1]
            for s in cx.sectors:
                for value in (last.get(s.id, 0) + 1, -1):
                    yield path.name, cx, {**last, s.id: value}, kind
    certs = snapshot()
    for seed in range(200):
        cx = random_complex(seed)
        for kind in KINDS:
            witness = certs[f"seed-{seed}/{kind}"].get("witness")
            for scale in (1, 3) if witness else ():
                w = {s: scale * v for s, v in witness.items()}
                yield f"seed-{seed}", cx, w, kind
    for rung in (5, 10, 15, 20):
        witness = certs[f"L{rung}/{POS_TISC}"].get("witness")
        if witness:
            w = {s: 100 * v for s, v in witness.items()}
            yield f"L{rung}", ladder()[rung], w, POS_TISC


def test_assembled_surfaces_are_pinned():
    digest = hashlib.sha256()
    for label, cx, w, kind in pinned_cases():
        try:
            outcome = repr(assemble(cx, w, kind))
        except BsgateError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        digest.update(f"{label} {kind} {sorted(w.items())} {outcome}\n"
                      .encode())
    assert digest.hexdigest() == ASSEMBLED_DIGEST
