"""Acceptance runs: one test per headline guarantee.

``pytest -v`` on this file reads as the release checklist.  Each body
asserts its own wall-clock budget — exhaustive checking is only useful
while it stays at desk scale.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from bsgate.assembly import assemble
from bsgate.charts import (
    INNER_CONTACT,
    check_box,
    check_cylinder,
    contact_oracle_box,
    extend_cell,
    holonomy_map,
    purify_box,
    purify_cylinder,
    sample_annulus,
    sample_box,
    sample_cylinder,
)
from bsgate.gen import random_complex
from bsgate.splitting import (
    CHOICES,
    OVER,
    UNDER,
    good_loci,
    pushforward_weights,
    safe_split,
    split,
)
from bsgate.surface import validate
from bsgate.weights import (
    ISC,
    KINDS,
    NEG_TISC,
    Certificate,
    brute_force,
    build_system,
    criterion,
    feasible,
    verify_certificate,
)

from conftest import load, tally

# the six-complex reference corpus; clean3 is the larger sibling used
# by the splitting checks
CORPUS = ("fix-torus.bsf", "fix-doc.bsf", "fix-tdisc.bsf",
          "fix-negtd.bsf", "fix-split.bsf", "fix-clean.bsf")
CLEAN_FAMILY = ("fix-clean.bsf", "fix-clean3.bsf")
EVERY_FIXTURE = CORPUS + ("fix-clean3.bsf", "fix-cross.bsf",
                          "fix-fig5.bsf")


@contextmanager
def budget(seconds):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def test_solver_and_exhaustive_search_agree_on_corpus_and_200_seeds():
    with budget(60):
        complexes = [load(n) for n in CORPUS]
        for seed in range(200):
            cx = random_complex(seed)
            assert len(cx.sectors) <= 6 and len(cx.dps) <= 4
            complexes.append(cx)
        for cx in complexes:
            for kind in KINDS:
                system = build_system(cx, kind)
                cert = feasible(system)
                found = brute_force(system, 6)
                if found is None:
                    continue
                # the enumerated witness must stand on its own, and the
                # solver may never call the same system infeasible
                wrapped = Certificate("Feasible", witness=found)
                assert verify_certificate(system, wrapped), (cx.name, kind)
                assert cert.feasible, (cx.name, kind, found)


def test_every_certificate_verifies_and_witnesses_scale():
    with budget(5):
        feasible_seen = infeasible_seen = 0
        for name in EVERY_FIXTURE:
            cx = load(name)
            for kind in KINDS:
                system = build_system(cx, kind)
                cert = feasible(system)
                assert verify_certificate(system, cert), (name, kind)
                # zero weights never witness anything: the strict part
                # of the cone is homogeneous but excludes the origin
                zero = Certificate("Feasible", witness={})
                assert not verify_certificate(system, zero)
                if cert.feasible:
                    feasible_seen += 1
                    tripled = {s: 3 * v for s, v in cert.witness.items()}
                    assert verify_certificate(
                        system, Certificate("Feasible", witness=tripled))
                else:
                    infeasible_seen += 1
        assert feasible_seen and infeasible_seen


def test_criterion_witnesses_reassemble_into_matching_surfaces():
    with budget(10):
        seen = 0
        for name in CORPUS:
            cx = load(name)
            verdict = criterion(cx)
            for kind, cert in ((NEG_TISC, verdict.neg_tisc),
                               (ISC, verdict.isc)):
                if not cert.feasible:
                    continue
                seen += 1
                w = cert.witness
                asm = assemble(cx, w, kind)
                faces, runs, corners = tally(cx, asm)
                assert faces == {s.id: w.get(s.id, 0) for s in cx.sectors}
                # each inequality's value at the witness; the equalities
                # are 0 there
                value = {f.tag: f.dot(w)
                         for f in build_system(cx, kind).inequalities}
                for g in cx.segments:
                    assert runs[g.id] == value.get(f"seg:{g.id}", 0)
                for d in cx.dps:
                    assert corners[d.id] == value.get(f"corner:{d.id}", 0)
                want = {NEG_TISC: "NegTisc", ISC: "Isc"}[kind]
                assert want in [c.classification for c in asm.components]
        assert seen == 6  # doc, split once; tdisc, negtd twice


def test_safe_split_stays_clean_over_every_good_locus():
    with budget(120):
        checked = 0
        for name in CLEAN_FAMILY:
            cx = load(name)
            loci = good_loci(cx)
            assert len(loci) <= 50
            for locus in loci:
                safe = safe_split(cx, locus)  # a raise here is a failure
                assert validate(safe.complex).ok()
                assert criterion(safe.complex).passes
                checked += 1
        assert checked == 8


def test_splits_bookkeep_crossings_and_transport_closed_weights():
    with budget(30):
        for name in EVERY_FIXTURE:
            cx = load(name)
            for locus in good_loci(cx):
                for choice, left_sign in ((OVER, -1), (UNDER, 1)):
                    res = split(cx, locus, choice)
                    assert len(res.complex.dps) == len(cx.dps) + 2
                    left = res.complex.dp_by_id[res.dp_left]
                    right = res.complex.dp_by_id[res.dp_right]
                    assert (left.sign, right.sign) == (left_sign, -left_sign)
                    assert validate(res.complex).ok()
        # exhaustive weight transport on the two-crossing fixture: any
        # closed solution downstairs must come from one upstairs
        cx = load("fix-split.bsf")
        old_forms = [g.form for g in cx.segments]
        moved = 0
        for locus in good_loci(cx):
            for choice in CHOICES:
                res = split(cx, locus, choice)
                ids = [s.id for s in res.complex.sectors]
                forms = [g.form for g in res.complex.segments]
                for combo in itertools.product(range(3), repeat=len(ids)):
                    w = dict(zip(ids, combo))
                    if any(f.dot(w) != 0 for f in forms):
                        continue
                    back = pushforward_weights(res, w)
                    assert all(f.dot(back) == 0 for f in old_forms), w
                    moved += 1
        assert moved > len(CHOICES) * 2  # more than the zero vectors


def test_box_check_agrees_with_the_wedge_product_oracle():
    with budget(5):
        shape = (65, 65, 65)
        fields = (
            ("downward linear", lambda x, y, z: -1.0 - y, 1.0),
            ("constant", lambda x, y, z: -0.7 + 0.0 * y, 0.0),
            ("cubic plateau", lambda x, y, z: -(y ** 3), None),
        )
        interior = (slice(1, -1),) * 3
        for label, fn, linear_coef in fields:
            grid = sample_box(fn, shape)
            rep = check_box(grid)
            coef = contact_oracle_box(grid)
            assert np.array_equal(rep.contact_mask[interior],
                                  coef[interior] > rep.tol), label
            if linear_coef is not None:
                assert np.abs(coef - linear_coef).max() <= 1e-12, label


def _plateau(x, y, z):
    return -1.0 - np.maximum(0.0, y - 0.5) ** 3


def _band(r, t, z):
    outer = -(r - 0.25)
    return np.where(r <= 0.5, -r ** 2, np.maximum(outer, -0.5))


def _band_h(r, t, z):
    out = np.full_like(r, -1.0)
    mask = r > 0
    out[mask] = _band(r[mask], 0, 0) / r[mask] ** 2
    return out


def test_purification_and_extension_repass_their_defining_checks():
    with budget(10):
        tol = 1e-9
        # box: blend the plateau away, touch nothing near the walls
        g = sample_box(_plateau, (65, 65, 65))
        out = purify_box(g, 0.5, 0.75, 0.1, tol)
        assert check_box(out, tol).is_confoliation
        x, y, _z = g.axes()
        keep = np.abs(x) >= 0.9
        j1 = int(np.argmin(np.abs(y - 0.75)))
        assert np.array_equal(out.values[keep], g.values[keep])
        assert np.array_equal(out.values[:, j1:, :], g.values[:, j1:, :])
        assert np.array_equal(out.values[:, :, 0], g.values[:, :, 0])
        assert np.array_equal(out.values[:, :, -1], g.values[:, :, -1])
        # cylinder: strictify the flat band, rims untouched
        cyl = sample_cylinder(_band, (65, 64, 65), h_fn=_band_h)
        out2 = purify_cylinder(cyl, 0.5, INNER_CONTACT, tol)
        rep2 = check_cylinder(out2, tol)
        assert rep2.is_confoliation
        assert rep2.contact_mask[:, :, 1:-1].all()
        for arr, ref in ((out2.values, cyl.values), (out2.h, cyl.h)):
            assert np.array_equal(arr[:, :, 0], ref[:, :, 0])
            assert np.array_equal(arr[:, :, -1], ref[:, :, -1])
        # solid cell: fill inward from the boundary annulus
        ann = sample_annulus(lambda t, z: -(1.0 - z * z), (64, 65))
        out3 = extend_cell(ann, 0.5, 1.0, 65, tol)
        rep3 = check_cylinder(out3, tol)
        assert rep3.is_confoliation
        r = out3.axes()[0]
        i0 = int(np.argmin(np.abs(r - 0.5)))
        assert rep3.contact_mask[:i0, :, 1:-1].all()
        assert np.array_equal(
            out3.values[i0:],
            np.broadcast_to(ann.values, out3.values[i0:].shape))


def test_holonomy_matches_the_closed_form_return_map():
    with budget(2):
        for c in (0.1, 0.5):
            ann = sample_annulus(
                lambda t, z, c=c: -c * (1.0 - z * z), (64, 2049))
            for z0 in (-0.5, 0.0, 0.5):
                z1 = holonomy_map(ann, z0, 1e-3)
                exact = math.tanh(math.atanh(z0) - 2.0 * math.pi * c)
                assert abs(z1 - exact) <= 1e-6, (c, z0)
                assert z1 - z0 < 0, (c, z0)
