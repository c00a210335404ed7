"""Seeded random complexes for cross-checking the exact solver.

A generated complex is a disjoint union of hand-verified building
blocks, renamed apart, followed by a few structure-preserving
mutations.  Everything is driven by one ``random.Random(seed)``, so a
seed pins the output exactly.
"""

from __future__ import annotations

import random
from functools import cache

from .parser import parse_complex
from .surface import (
    SIDES,
    BoundaryWord,
    BranchSegment,
    BranchedSurfaceComplex,
    DoublePoint,
    FreeItem,
    SegItem,
    Sector,
    SegmentEnd,
    validate,
)

# Each block is a small valid complex; the budget pairs are
# (sectors, double points).
_BLOCKS: dict[str, tuple[str, tuple[int, int]]] = {
    "torus": ("""
surface torus
sector T genus 1 bwords 0
""", (1, 0)),
    "doc": ("""
surface doc
sector D genus 0 bwords 1
sector T genus 1 bwords 2
bword D 0 : seg:g:one
bword T 0 : seg:g:up
bword T 1 : seg:g:lo
segment g circle one D up T lo T
""", (2, 0)),
    "wheel1": ("""
surface wheel1
sector A genus 0 bwords 6
bword A 0 : seg:c1:one
bword A 1 : seg:c1:up
bword A 2 : seg:c1:lo
bword A 3 : seg:c2:one
bword A 4 : seg:c2:up
bword A 5 : seg:c2:lo
segment c1 circle one A up A lo A
segment c2 circle one A up A lo A
""", (1, 0)),
    "wheel2": ("""
surface wheel2
sector A genus 0 bwords 9
bword A 0 : seg:c1:one
bword A 1 : seg:c1:up
bword A 2 : seg:c1:lo
bword A 3 : seg:c2:one
bword A 4 : seg:c2:up
bword A 5 : seg:c2:lo
bword A 6 : seg:c3:one
bword A 7 : seg:c3:up
bword A 8 : seg:c3:lo
segment c1 circle one A up A lo A
segment c2 circle one A up A lo A
segment c3 circle one A up A lo A
""", (1, 0)),
    "cross": ("""
surface cross
sector Q genus 0 bwords 1
sector Wf genus 0 bwords 1
sector Yf genus 0 bwords 1
bword Q 0 : seg:A:one v:dp:P seg:B:up v:dp:P seg:A:lo v:dp:P seg:B:one v:dp:P
bword Wf 0 : seg:A:up v:dp:P
bword Yf 0 : seg:B:lo v:dp:P
segment A arc one Q up Wf lo Q ends dp:P:0 dp:P:2
segment B arc one Q up Q lo Yf ends dp:P:1 dp:P:3
dp P sign +
""", (3, 1)),
    "venn": ("""
surface venn
sector O genus 0 bwords 1
sector L genus 0 bwords 1
sector Ao genus 0 bwords 1
sector Bo genus 0 bwords 1
sector Fa genus 0 bwords 1
sector Fb genus 0 bwords 1
bword O 0 : seg:a2:one v:dp:P seg:b2:one v:dp:Q
bword L 0 : seg:a1:lo v:dp:P seg:b1:up v:dp:Q
bword Ao 0 : seg:b1:one v:dp:P seg:a2:lo v:dp:Q
bword Bo 0 : seg:b2:up v:dp:P seg:a1:one v:dp:Q
bword Fa 0 : seg:a1:up v:dp:P seg:a2:up v:dp:Q
bword Fb 0 : seg:b1:lo v:dp:Q seg:b2:lo v:dp:P
segment a1 arc one Bo up Fa lo L ends dp:P:3 dp:Q:0
segment a2 arc one O up Fa lo Ao ends dp:Q:2 dp:P:1
segment b1 arc one Ao up L lo Fb ends dp:Q:1 dp:P:2
segment b2 arc one O up Bo lo Fb ends dp:P:0 dp:Q:3
dp P sign +
dp Q sign -
""", (6, 2)),
}
_PARSED = {name: parse_complex(text) for name, (text, _) in _BLOCKS.items()}


@cache
def _block(name: str, i: int) -> BranchedSurfaceComplex:
    """Block ``name`` renamed apart as the ``i``-th part of a union; built
    once per pair and shared, as complexes are frozen."""
    cx, prefix = _PARSED[name], f"b{i}_"

    def seg_item(it):
        if isinstance(it, SegItem):
            return SegItem(prefix + it.seg, it.side)
        return FreeItem(prefix + it.label)

    def vert(v):
        return None if v is None else prefix + v

    def end(e):
        if e is None or e.dp is None:
            return e
        return SegmentEnd(prefix + e.dp, e.slot)

    sectors = tuple(
        Sector(prefix + s.id, s.genus, tuple(
            BoundaryWord(tuple(seg_item(it) for it in w.items),
                         tuple(vert(v) for v in w.verts))
            for w in s.words))
        for s in cx.sectors)
    segments = tuple(
        BranchSegment(prefix + g.id, g.kind, prefix + g.one, prefix + g.up,
                      prefix + g.lo, end(g.end0), end(g.end1))
        for g in cx.segments)
    dps = tuple(DoublePoint(prefix + d.id, d.sign) for d in cx.dps)
    return BranchedSurfaceComplex(cx.name, sectors, segments, dps)


def _union(name: str, parts: list[BranchedSurfaceComplex],
           ) -> BranchedSurfaceComplex:
    return BranchedSurfaceComplex(
        name,
        tuple(s for p in parts for s in p.sectors),
        tuple(g for p in parts for g in p.segments),
        tuple(d for p in parts for d in p.dps))


def _add_circle(cx: BranchedSurfaceComplex, rng: random.Random, tag: str,
                ) -> BranchedSurfaceComplex:
    ids = [s.id for s in cx.sectors]
    hosts = {side: rng.choice(ids) for side in SIDES}
    gid = f"mc{tag}"
    sectors = []
    for s in cx.sectors:
        extra = tuple(
            BoundaryWord((SegItem(gid, side),), (None,))
            for side, host in sorted(hosts.items()) if host == s.id)
        sectors.append(Sector(s.id, s.genus, s.words + extra))
    seg = BranchSegment(gid, "circle", hosts["one"], hosts["up"], hosts["lo"])
    return BranchedSurfaceComplex(cx.name, tuple(sectors),
                                  cx.segments + (seg,), cx.dps)


def _flip_sign(cx: BranchedSurfaceComplex, rng: random.Random,
               ) -> BranchedSurfaceComplex:
    if not cx.dps:
        return cx
    victim = rng.choice([d.id for d in cx.dps])
    dps = tuple(DoublePoint(d.id, -d.sign if d.id == victim else d.sign)
                for d in cx.dps)
    return BranchedSurfaceComplex(cx.name, cx.sectors, cx.segments, dps)


def _merge_sectors(cx: BranchedSurfaceComplex, rng: random.Random,
                   ) -> BranchedSurfaceComplex:
    if len(cx.sectors) < 2:
        return cx
    keep, gone = rng.sample([s.id for s in cx.sectors], 2)

    def sid(s: str) -> str:
        return keep if s == gone else s

    sectors = []
    for s in cx.sectors:
        if s.id == gone:
            continue
        if s.id == keep:
            other = cx.sector_by_id[gone]
            sectors.append(Sector(keep, s.genus + other.genus,
                                  s.words + other.words))
        else:
            sectors.append(s)
    segments = tuple(
        BranchSegment(g.id, g.kind, sid(g.one), sid(g.up), sid(g.lo),
                      g.end0, g.end1)
        for g in cx.segments)
    out = BranchedSurfaceComplex(cx.name, tuple(sectors), segments, cx.dps)
    # a merge can collapse the role pattern at a double point; keep it
    # only if the complex still validates
    return out if validate(out).ok() else cx


def random_complex(seed: int, max_sectors: int = 6, max_dps: int = 4,
                   ) -> BranchedSurfaceComplex:
    """Deterministic valid complex within the given size budget."""
    rng = random.Random(seed)
    chosen: list[str] = []
    sectors = dps = 0
    while True:
        fits = [n for n, (_, (ns, nd)) in sorted(_BLOCKS.items())
                if sectors + ns <= max_sectors and dps + nd <= max_dps]
        if not fits:
            break
        name = rng.choice(fits)
        chosen.append(name)
        sectors += _BLOCKS[name][1][0]
        dps += _BLOCKS[name][1][1]
        if rng.random() < 0.4:
            break
    parts = [_block(name, i) for i, name in enumerate(chosen)]
    cx = _union(f"gen-{seed}", parts)
    for k in range(rng.randint(0, 3)):
        move = rng.choice(("circle", "flip", "merge"))
        if move == "circle":
            cx = _add_circle(cx, rng, str(k))
        elif move == "flip":
            cx = _flip_sign(cx, rng)
        else:
            cx = _merge_sectors(cx, rng)
    report = validate(cx)
    if not report.ok():  # pragma: no cover - composition is closed
        raise AssertionError(f"generator bug: {report.violations[0]}")
    return cx
