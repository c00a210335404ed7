"""Seeded random complexes for cross-checking the exact solver.

A generated complex is a disjoint union of hand-verified building
blocks, renamed apart, and a few structure-preserving mutations of
those parts, built as one complex.  Everything is driven by one
``random.Random(seed)``, so a seed pins the output exactly.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Optional

from .parser import parse_complex
from .surface import (
    SIDES,
    BoundaryWord,
    BranchSegment,
    BranchedSurfaceComplex,
    DoublePoint,
    SegItem,
    Sector,
    SegmentEnd,
)

# Each block is a small valid complex.
_BLOCKS: dict[str, str] = {
    "torus": """
surface torus
sector T genus 1 bwords 0
""",
    "doc": """
surface doc
sector D genus 0 bwords 1
sector T genus 1 bwords 2
bword D 0 : seg:g:one
bword T 0 : seg:g:up
bword T 1 : seg:g:lo
segment g circle one D up T lo T
""",
    "wheel1": """
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
""",
    "wheel2": """
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
""",
    "cross": """
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
""",
    "venn": """
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
""",
}
_PARSED = {name: parse_complex(text) for name, text in _BLOCKS.items()}
# each block's (sectors, double points), by block name, in the order
# random_complex draws from
_BUDGETS = {name: (len(cx.sectors), len(cx.dps))
            for name, cx in sorted(_PARSED.items())}

# the sectors, segments and double points that the moves rewrite
_Parts = tuple[tuple[Sector, ...], tuple[BranchSegment, ...],
               tuple[DoublePoint, ...]]


@cache
def _block(name: str, i: int) -> _Parts:
    """The parts of block ``name`` renamed apart as the ``i``-th part of a
    union; made once per pair and shared, as parts are immutable."""
    cx, prefix = _PARSED[name], f"b{i}_"

    # no block has a free item or a free end: every word item is a
    # segment side, and every arc end a slot of a double point
    def seg_item(it):
        return SegItem(prefix + it.seg, it.side)

    def vert(v):
        return None if v is None else prefix + v

    def end(e):
        return None if e is None else SegmentEnd(prefix + e.dp, e.slot)

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
    return sectors, segments, dps


def _add_circle(parts: _Parts, rng: random.Random, tag: str) -> _Parts:
    sectors, segments, dps = parts
    ids = [s.id for s in sectors]
    hosts = {side: rng.choice(ids) for side in SIDES}
    gid = f"mc{tag}"
    sectors = tuple(
        Sector(s.id, s.genus, s.words + tuple(
            BoundaryWord((SegItem(gid, side),), (None,))
            for side, host in sorted(hosts.items()) if host == s.id))
        for s in sectors)
    seg = BranchSegment(gid, "circle", hosts["one"], hosts["up"], hosts["lo"])
    return sectors, segments + (seg,), dps


def _flip_sign(parts: _Parts, rng: random.Random) -> _Parts:
    sectors, segments, dps = parts
    if not dps:
        return parts
    victim = rng.choice([d.id for d in dps])
    return sectors, segments, tuple(
        DoublePoint(d.id, -d.sign if d.id == victim else d.sign) for d in dps)


def _merge_sectors(name: str, parts: _Parts, rng: random.Random,
                   ) -> Optional[BranchedSurfaceComplex]:
    """Complex ``name`` with two random sectors merged; None for fewer than
    two, or when the merge fails validation, as it can at a double point."""
    sectors, segments, dps = parts
    if len(sectors) < 2:
        return None
    keep, gone = rng.sample([s.id for s in sectors], 2)
    other = next(s for s in sectors if s.id == gone)

    def sid(s: str) -> str:
        return keep if s == gone else s

    merged = tuple(
        Sector(keep, s.genus + other.genus, s.words + other.words)
        if s.id == keep else s
        for s in sectors if s.id != gone)
    segments = tuple(
        BranchSegment(g.id, g.kind, sid(g.one), sid(g.up), sid(g.lo),
                      g.end0, g.end1)
        for g in segments)
    out = BranchedSurfaceComplex(name, merged, segments, dps)
    return None if out.violations else out


def random_complex(seed: int, max_sectors: int = 6, max_dps: int = 4,
                   ) -> BranchedSurfaceComplex:
    """Deterministic valid complex within the given size budget."""
    rng, name = random.Random(seed), f"gen-{seed}"
    blocks: list[_Parts] = []
    sectors = dps = 0
    while True:
        fits = [n for n, (ns, nd) in _BUDGETS.items()
                if sectors + ns <= max_sectors and dps + nd <= max_dps]
        if not fits:
            break
        block = rng.choice(fits)
        blocks.append(_block(block, len(blocks)))
        sectors += _BUDGETS[block][0]
        dps += _BUDGETS[block][1]
        if rng.random() < 0.4:
            break
    parts = tuple(tuple(p for b in blocks for p in b[k]) for k in range(3))
    cx = None  # the complex of parts, once a kept merge has built it
    for k in range(rng.randint(0, 3)):
        move = rng.choice(("circle", "flip", "merge"))
        if move == "merge":
            merged = _merge_sectors(name, parts, rng)
            if merged is not None:
                cx = merged
                parts = cx.sectors, cx.segments, cx.dps
            continue
        moved = (_add_circle(parts, rng, str(k)) if move == "circle"
                 else _flip_sign(parts, rng))
        if moved is not parts:  # a flip with no double point moves nothing
            parts, cx = moved, None
    if cx is None:
        cx = BranchedSurfaceComplex(name, *parts)
    if cx.violations:  # pragma: no cover - composition is closed
        raise AssertionError(f"generator bug: {cx.violations[0]}")
    return cx
