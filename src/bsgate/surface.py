"""Data model and validation for branched-surface complexes.

A complex is presented combinatorially: *sectors* (compact connected
surfaces with genus and cyclic boundary words), *branch segments* (the
smooth pieces of the branch locus, each with a merged ``one`` side and an
``up``/``lo`` pair of branching sides), and signed *double points* where
two branch curves cross transversally.

Boundary words are read counterclockwise (sector interior on the left).
Along a segment the ``one``-side edge runs from ``end0`` to ``end1``; the
``up`` and ``lo`` edges run the other way.  Input documents are expected
to orient their ``end0``/``end1`` labels accordingly; ``validate`` checks
this by matching the vertex items flanking every edge item against the
segment's declared ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

from .errors import NoConsistentRoles

SIDES = ("one", "up", "lo")


@dataclass(frozen=True)
class SegItem:
    """Edge item: one side of a branch segment on a sector boundary."""

    seg: str
    side: str  # 'one' | 'up' | 'lo'


@dataclass(frozen=True)
class FreeItem:
    """Edge item: a boundary arc away from the branch locus."""

    label: str


EdgeItem = Union[SegItem, FreeItem]


@dataclass(frozen=True)
class BoundaryWord:
    """Cyclic alternation of edge items and vertex items.

    ``verts[i]`` sits between ``items[i]`` and ``items[(i+1) % n]``; a
    vertex is a double-point id or ``None`` for a smooth vertex.
    """

    items: tuple[EdgeItem, ...]
    verts: tuple[Union[str, None], ...]

    def __post_init__(self):
        if len(self.items) != len(self.verts):
            raise ValueError("boundary word needs one vertex per edge item")


@dataclass(frozen=True)
class Sector:
    id: str
    genus: int
    words: tuple[BoundaryWord, ...]

    def euler(self) -> int:
        return 2 - 2 * self.genus - len(self.words)


@dataclass(frozen=True)
class SegmentEnd:
    """Arc-segment endpoint: a double-point slot or a free end."""

    dp: Union[str, None]  # None = free end
    slot: Union[int, None] = None


FREE_END = SegmentEnd(None, None)


@dataclass(frozen=True)
class BranchSegment:
    id: str
    kind: str  # 'arc' | 'circle'
    one: str
    up: str
    lo: str
    end0: Union[SegmentEnd, None] = None  # None for circles
    end1: Union[SegmentEnd, None] = None

    def side(self, role: str) -> str:
        return {"one": self.one, "up": self.up, "lo": self.lo}[role]


@dataclass(frozen=True)
class DoublePoint:
    id: str
    sign: int  # +1 | -1


@dataclass(frozen=True)
class RoleAssignment:
    """Corner roles at a double point.

    ``z`` is the sector meeting both merged sides, ``x``/``v`` its
    neighbours across the two branch curves, ``u`` the opposite quadrant,
    and ``w``/``y`` the two sheets passing over/under the curves.
    """

    dp: str
    z: str
    x: str
    u: str
    v: str
    w: str
    y: str

    def corner_coeffs(self) -> dict[str, int]:
        """Sparse coefficients of the corner form z + u - x - v."""
        out: dict[str, int] = {}
        for s, c in ((self.z, 1), (self.u, 1), (self.x, -1), (self.v, -1)):
            out[s] = out.get(s, 0) + c
        return {s: c for s, c in out.items() if c}


@dataclass(frozen=True)
class BranchedSurfaceComplex:
    name: str
    sectors: tuple[Sector, ...]
    segments: tuple[BranchSegment, ...]
    dps: tuple[DoublePoint, ...]

    @cached_property
    def sector_by_id(self) -> dict[str, Sector]:
        return {s.id: s for s in self.sectors}

    @cached_property
    def segment_by_id(self) -> dict[str, BranchSegment]:
        return {g.id: g for g in self.segments}

    @cached_property
    def dp_by_id(self) -> dict[str, DoublePoint]:
        return {d.id: d for d in self.dps}

    @cached_property
    def dp_corners(self) -> dict[str, dict]:
        """Per double point: germ side (slot, side) -> (the germ side its
        sector's corner joins it to, that sector), read off every word
        vertex at the point; each corner is entered from both sides."""
        segs = self.segment_by_id
        table: dict[str, dict] = {d.id: {} for d in self.dps}
        for s in self.sectors:
            for w in s.words:
                items = w.items
                for before, v, after in zip(items, w.verts,
                                            items[1:] + items[:1]):
                    if v not in table:
                        continue
                    sides = []
                    for it, which in ((before, "next"), (after, "prev")):
                        if not (isinstance(it, SegItem) and it.seg in segs):
                            break
                        end = _end_of_item(segs[it.seg], it.side, which)
                        if end is None or end.dp != v:
                            break
                        sides.append((end.slot, it.side))
                    else:
                        a, b = sides
                        table[v][a] = (b, s.id)
                        table[v][b] = (a, s.id)
        return table

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Every structural violation, computed once; see :func:`validate`."""
        return _violations(self)

    @cached_property
    def roles(self) -> dict[str, RoleAssignment]:
        """Corner roles at every double point, derived once; raises like
        :func:`derive_roles` at the first double point that fails."""
        return {d.id: derive_roles(self, d.id) for d in self.dps}


def _end_of_item(seg: BranchSegment, side: str, which: str) -> Union[SegmentEnd, None]:
    """Segment end at the 'prev'/'next' vertex of a word item.

    one-side runs end0->end1, so its prev vertex sits at end0; up/lo run
    the other way.  Circles return None (no ends).
    """
    if seg.kind == "circle":
        return None
    if side == "one":
        return seg.end0 if which == "prev" else seg.end1
    return seg.end1 if which == "prev" else seg.end0


_PATTERN = (
    # (role, germ side, germ side): the role's sector has the corner that
    # joins the two germ sides, each (slot offset from the base, field);
    # fields: 0 = one, 1 = eps side (the w-sheet's), 2 = opposite of eps
    ("z", (0, 0), (1, 0)),
    ("w", (0, 1), (2, 1)),
    ("y", (1, 2), (3, 2)),
    ("u", (2, 2), (3, 1)),
    ("x", (2, 0), (1, 1)),
    ("v", (3, 0), (0, 2)),
)

# every reading of _PATTERN, one per base slot and w-sheet side: per role
# the two germ sides (slot, side) its corner joins
_READINGS = tuple(
    tuple((role, ((a + ga) % 4, fields[fa]), ((a + gb) % 4, fields[fb]))
          for role, (ga, fa), (gb, fb) in _PATTERN)
    for a in range(4)
    for fields in (("one", "up", "lo"), ("one", "lo", "up")))


def derive_roles(cx: BranchedSurfaceComplex, dp_id: str) -> RoleAssignment:
    """Read the corner-role assignment at a double point off the words.

    Each corner the boundary words record at the point joins two germ
    sides through one sector (:attr:`BranchedSurfaceComplex.dp_corners`).
    The roles are those of the first base slot and ``w``-sheet side whose
    six ``_PATTERN`` corners are all present, whichever way round each
    runs.  Only ``z``'s corner joins two merged sides, so at most one
    reading fits; none raises :class:`NoConsistentRoles`.  The six corners
    meet all four slots, so none fits a point that lacks an end at some
    slot; :func:`validate` reports that arity before it reads roles.
    """
    corners = cx.dp_corners.get(dp_id)
    if corners is None:
        raise NoConsistentRoles(f"unknown double point {dp_id}")
    for joins in _READINGS:
        roles = {}
        for role, here, there in joins:
            joined = corners.get(here)
            if joined is None or joined[0] != there:
                break
            roles[role] = joined[1]
        else:
            return RoleAssignment(dp=dp_id, **roles)
    raise NoConsistentRoles(f"role derivation failed at dp:{dp_id}")


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str) -> None:
        self.violations.append(msg)


def validate(cx: BranchedSurfaceComplex) -> ValidationReport:
    """Check every structural invariant; returns the list of violations.

    A clean report (empty list) is the precondition for the weight,
    assembly and splitting operations.  The checks run once per complex;
    each call returns a fresh report.
    """
    return ValidationReport(list(cx.violations))


def _violations(cx: BranchedSurfaceComplex) -> tuple[str, ...]:
    rep = ValidationReport()

    # identifier uniqueness
    for kind, ids in (("sector", [s.id for s in cx.sectors]),
                      ("segment", [g.id for g in cx.segments]),
                      ("dp", [d.id for d in cx.dps])):
        seen = set()
        for i in ids:
            if i in seen:
                rep.add(f"duplicate {kind} id {i}")
            seen.add(i)

    # reference resolution
    for g in cx.segments:
        for role in SIDES:
            sid = g.side(role)
            if sid not in cx.sector_by_id:
                rep.add(f"dangling reference: segment {g.id} side {role} "
                        f"names unknown sector {sid}")
        if g.kind == "circle":
            if g.end0 is not None or g.end1 is not None:
                rep.add(f"circle segment {g.id} must not declare ends")
        elif g.kind == "arc":
            for label, end in (("end0", g.end0), ("end1", g.end1)):
                if end is None:
                    rep.add(f"arc segment {g.id} missing {label}")
                elif end.dp is not None:
                    if end.dp not in cx.dp_by_id:
                        rep.add(f"dangling reference: segment {g.id} {label} "
                                f"names unknown dp {end.dp}")
                    elif not (end.slot is not None and 0 <= end.slot < 4):
                        rep.add(f"segment {g.id} {label} has bad slot")
        else:
            rep.add(f"segment {g.id} has unknown kind {g.kind}")

    for d in cx.dps:
        if d.sign not in (1, -1):
            rep.add(f"dp {d.id} has invalid sign")

    # the sectors whose words carry each (segment, side), read further down
    occurrences: dict[tuple[str, str], list[str]] = {}
    for s in cx.sectors:
        if s.genus < 0:
            rep.add(f"sector {s.id} has negative genus")
        for wi, w in enumerate(s.words):
            if not w.items:
                rep.add(f"sector {s.id} word {wi} is empty")
            for it in w.items:
                if isinstance(it, SegItem):
                    if it.seg not in cx.segment_by_id:
                        rep.add(f"dangling reference: sector {s.id} word {wi} "
                                f"names unknown segment {it.seg}")
                    elif it.side not in SIDES:
                        rep.add(f"sector {s.id} word {wi}: bad side {it.side}")
                    else:
                        occurrences.setdefault((it.seg, it.side), []).append(s.id)
            for v in w.verts:
                if v is not None and v not in cx.dp_by_id:
                    rep.add(f"dangling reference: sector {s.id} word {wi} "
                            f"names unknown dp {v}")
    if rep.violations:  # later checks assume resolvable references
        return tuple(rep.violations)

    # four ends per double point, one per slot
    slot_fill: dict[str, list[int]] = {d.id: [0] * 4 for d in cx.dps}
    for g in cx.segments:
        for end in (g.end0, g.end1):
            if end is not None and end.dp is not None:
                slot_fill[end.dp][end.slot] += 1
    for d in cx.dps:
        if slot_fill[d.id] != [1, 1, 1, 1]:
            rep.add(f"dp {d.id} has wrong end arity "
                    f"(slots filled {slot_fill[d.id]})")

    # side multiplicity: each (segment, side) appears exactly once, in the
    # declared sector's words
    for g in cx.segments:
        for role in SIDES:
            occ = occurrences.get((g.id, role), [])
            want = g.side(role)
            if len(occ) != 1 or occ[0] != want:
                rep.add(f"segment {g.id} side {role} must appear exactly once "
                        f"on sector {want}'s boundary (found {occ})")

    # vertex/end flank consistency and circle-word shape
    for s in cx.sectors:
        for wi, w in enumerate(s.words):
            n = len(w.items)
            for ii, it in enumerate(w.items):
                prev_v = w.verts[(ii - 1) % n]
                next_v = w.verts[ii]
                if isinstance(it, FreeItem):
                    if prev_v is not None or next_v is not None:
                        rep.add(f"sector {s.id} word {wi}: free edge "
                                f"{it.label} abuts a double-point vertex")
                    continue
                g = cx.segment_by_id[it.seg]
                if g.kind == "circle":
                    if n != 1:
                        rep.add(f"sector {s.id} word {wi}: circle side "
                                f"{it.seg}:{it.side} must fill a whole word")
                    elif w.verts[0] is not None:
                        rep.add(f"sector {s.id} word {wi}: circle basepoint "
                                f"must be smooth")
                    continue
                for which, v in (("prev", prev_v), ("next", next_v)):
                    end = _end_of_item(g, it.side, which)
                    want = None if end.dp is None else end.dp
                    if v != want:
                        rep.add(
                            f"sector {s.id} word {wi} item {ii} "
                            f"({it.seg}:{it.side}): {which} vertex is "
                            f"{v or 'smooth'} but segment end is "
                            f"{'free' if want is None else 'dp:' + want}")

    if rep.violations:
        return tuple(rep.violations)

    # corner roles must be read off the words at every double point; only
    # when the cached map fails is each point derived alone, to report all
    try:
        cx.roles
    except NoConsistentRoles:
        pass
    else:
        return ()
    for d in cx.dps:
        try:
            derive_roles(cx, d.id)
        except NoConsistentRoles:
            rep.add(f"role derivation failed at dp:{d.id}")

    return tuple(rep.violations)
