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

from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple, Union

from .errors import InvariantViolation, NoConsistentRoles

SIDES = ("one", "up", "lo")


class _Frozen:
    """A record whose fields ``__init__`` sets once.  It compares and
    hashes by their values, in ``_fields`` order, and assigning to it
    raises; a ``cached_property`` still stores into its ``__dict__``."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}"
                           for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SegItem(NamedTuple):
    """Edge item: one side of a branch segment on a sector boundary."""

    seg: str
    side: str  # 'one' | 'up' | 'lo'


class FreeItem(NamedTuple):
    """Edge item: a boundary arc away from the branch locus."""

    label: str


EdgeItem = Union[SegItem, FreeItem]


class BoundaryWord(_Frozen):
    """Cyclic alternation of edge items and vertex items.

    ``verts[i]`` sits between ``items[i]`` and ``items[(i+1) % n]``; a
    vertex is a double-point id or ``None`` for a smooth vertex.
    """

    _fields = ("items", "verts")

    def __init__(self, items: tuple[EdgeItem, ...],
                 verts: tuple[Union[str, None], ...]):
        if len(items) != len(verts):
            raise ValueError("boundary word needs one vertex per edge item")
        self.__dict__.update(items=items, verts=verts)


class Sector(NamedTuple):
    id: str
    genus: int
    words: tuple[BoundaryWord, ...]

    def euler(self) -> int:
        return 2 - 2 * self.genus - len(self.words)


class SegmentEnd(NamedTuple):
    """Arc-segment endpoint: a double-point slot or a free end."""

    dp: Union[str, None]  # None = free end
    slot: Union[int, None] = None


FREE_END = SegmentEnd(None, None)


class LinForm(NamedTuple):
    """Homogeneous integer-coefficient form over sector weights."""

    coeffs: tuple[tuple[str, int], ...]  # sorted by sector id, zero-free
    tag: str

    @staticmethod
    def make(coeffs: dict[str, int], tag: str) -> "LinForm":
        return LinForm(tuple(sorted((s, c) for s, c in coeffs.items() if c)), tag)

    def dot(self, weights) -> object:
        return sum(weights.get(s, 0) * c for s, c in self.coeffs)


def _summed_form(terms, tag: str) -> LinForm:
    """The form of ``terms``, (sector, coefficient) pairs in which a
    sector may appear more than once, its coefficients summed."""
    coeffs: dict[str, int] = {}
    for s, c in terms:
        coeffs[s] = coeffs.get(s, 0) + c
    return LinForm.make(coeffs, tag)


class _SegmentFields(NamedTuple):
    id: str
    kind: str  # 'arc' | 'circle'
    one: str
    up: str
    lo: str
    end0: Union[SegmentEnd, None] = None  # None for circles
    end1: Union[SegmentEnd, None] = None


class BranchSegment(_SegmentFields):
    """Read-only fields, and the segment's form, cached on the object."""

    @cached_property
    def form(self) -> LinForm:
        """The branch inequality's form ``w(one) - w(up) - w(lo)``, which
        reads this segment alone, so it is built once per object."""
        return _summed_form(((self.one, 1), (self.up, -1), (self.lo, -1)),
                            f"seg:{self.id}")


class DoublePoint(NamedTuple):
    id: str
    sign: int  # +1 | -1


class _RoleFields(NamedTuple):
    dp: str
    z: str
    x: str
    u: str
    v: str
    w: str
    y: str


class RoleAssignment(_RoleFields):
    """Corner roles at a double point.

    ``z`` is the sector meeting both merged sides, ``x``/``v`` its
    neighbours across the two branch curves, ``u`` the opposite quadrant,
    and ``w``/``y`` the two sheets passing over/under the curves.  The
    fields are read-only, and the point's corner form is cached on the
    object.
    """

    @cached_property
    def form(self) -> LinForm:
        """The corner form ``z + u - x - v``, which reads these roles
        alone, so it is built once per object."""
        return _summed_form(((self.z, 1), (self.u, 1), (self.x, -1),
                             (self.v, -1)), f"corner:{self.dp}")


class BranchedSurfaceComplex(_Frozen):
    """A read-only complex.  Its constructor builds the id tables, checks
    every reference (:func:`_check_references`) and builds, by
    :func:`_tables`, from the tables of ``parent`` (the clean complex that
    a move turned into this one) or of no parent: ``dp_corners``, per
    double point, germ side (slot, side) -> (the germ side its sector's
    corner joins it to, that sector), each corner entered from both sides;
    ``violations`` (see :func:`validate`); and ``roles``, per double point,
    which a complex with a violation lacks: reading them raises
    :class:`NoConsistentRoles` naming the first.  Built from a parent, a
    complex with a violation raises :class:`InvariantViolation` naming
    every one.  The parent is not kept."""

    _fields = ("name", "sectors", "segments", "dps")

    def __init__(self, name: str, sectors: tuple[Sector, ...],
                 segments: tuple[BranchSegment, ...],
                 dps: tuple[DoublePoint, ...],
                 parent: Union["BranchedSurfaceComplex", None] = None):
        # the id tables, which the reference check reads first
        self.__dict__.update(
            name=name, sectors=sectors, segments=segments, dps=dps,
            sector_by_id={s.id: s for s in sectors},
            segment_by_id={g.id: g for g in segments},
            dp_by_id={d.id: d for d in dps})
        _check_references(self)
        if (violations := _tables(self, parent)) and parent is not None:
            raise InvariantViolation(
                "split output fails validation: " + "; ".join(violations))

    def __getattr__(self, name: str):
        # reached only for a name that the object does not hold: of its
        # tables, the roles of a complex that fails validation
        if name == "roles":
            raise NoConsistentRoles(self.violations[0])
        raise AttributeError(name)


def _end_of_item(seg: BranchSegment, side: str, which: str) -> SegmentEnd:
    """Arc-segment end at the 'prev'/'next' vertex of a word item.

    one-side runs end0->end1, so its prev vertex sits at end0; up/lo run
    the other way.
    """
    if side == "one":
        return seg.end0 if which == "prev" else seg.end1
    return seg.end1 if which == "prev" else seg.end0


# the parent of a complex built with none: it holds no part and no
# table, and `_tables` only reads it
_NO_PARENT = SimpleNamespace(sectors=(), sector_by_id={}, segment_by_id={},
                             dp_corners={}, roles={})


def _tables(out: BranchedSurfaceComplex,
            cx: Union[BranchedSurfaceComplex, None]) -> tuple[str, ...]:
    """Write into ``out``, as its constructor runs, its corner table, its
    violations and, if it has none, its roles, built from the tables of
    ``cx``, the clean complex that a move turned into ``out``, or of no
    parent; return the violations: the side and flank ones, or else each
    point whose roles fail.

    A sector of ``cx`` that ``out`` does not hold (by identity) is gone,
    and one of ``out`` that ``cx`` does not hold is new, so with no parent
    every sector is new.  Only the new sectors are walked, onto copies,
    less the gone sectors' entries, of the tables of the points of ``cx``
    that a gone or new sector names, and onto new tables for the points
    that ``cx`` lacks; every other table, and the roles of each point
    whose table comes back unchanged, is shared with ``cx``.  Only the
    segments that ``cx`` lacks (by identity) or that a new sector names
    are checked, so ``out`` must keep every point of ``cx``, and a
    segment that a kept sector names must keep its ends."""
    cx = _NO_PARENT if cx is None else cx
    gone = [s for s in cx.sectors if out.sector_by_id.get(s.id) is not s]
    new = [s for s in out.sectors if cx.sector_by_id.get(s.id) is not s]
    gone_ids = {s.id for s in gone}
    was = cx.dp_corners
    corners = dict(was)
    corners.update((d.id, {}) for d in out.dps if d.id not in was)
    named = {v for s in gone + new for w in s.words for v in w.verts
             if v in was}
    for v in named:
        corners[v] = {k: c for k, c in was[v].items() if c[1] not in gone_ids}
    carriers, flanks = _walk_sectors(new, out.segment_by_id, corners)
    # a table that came back unchanged stays shared, and so do its roles,
    # which read that table alone
    roles = dict(cx.roles)
    for v in named:
        if corners[v] == was[v]:
            corners[v] = was[v]
        else:
            del roles[v]
    names = {gid for gid, _side in carriers}
    old = cx.segment_by_id
    checked = [g for g in out.segments
               if g.id in names or old.get(g.id) is not g]
    for g in checked:
        kept = old.get(g.id)
        if kept is not None:  # its kept sheets, as cx declared them
            for role, sid in zip(SIDES, (kept.one, kept.up, kept.lo)):
                if sid not in gone_ids:
                    carriers.setdefault((g.id, role), []).append(sid)
    # each side of a checked segment appears once, in its declared sheet
    violations = [f"segment {g.id} side {role} must appear exactly once on "
                  f"sector {want}'s boundary (found {occ})"
                  for g in checked
                  for role, want in zip(SIDES, (g.one, g.up, g.lo))
                  if (occ := carriers.get((g.id, role), [])) != [want]]
    violations += flanks
    out.__dict__["dp_corners"] = corners  # derive_roles reads it
    if not violations:  # the roles of each point whose table is not shared
        for d in out.dps:
            if d.id not in roles:
                try:
                    roles[d.id] = derive_roles(out, d.id)
                except NoConsistentRoles as err:
                    violations.append(str(err))
    out.__dict__["violations"] = violations = tuple(violations)
    if not violations:
        out.__dict__["roles"] = {d.id: roles[d.id] for d in out.dps}
    return violations


def corner_units(cx: BranchedSurfaceComplex, entering: SegItem,
                 did: str) -> int:
    """Quarter-turns of the corner at dp ``did`` after ``entering``, an
    edge item of a valid complex: 1 to an adjacent slot, 2 to the
    opposite one, read off the corner table."""
    slot = _end_of_item(cx.segment_by_id[entering.seg], entering.side,
                        "next").slot
    joined = cx.dp_corners[did].get((slot, entering.side))
    if joined is None or joined[0][0] == slot:
        raise InvariantViolation(
            f"no corner at dp:{did} turns from {entering.seg}:{entering.side}")
    return 2 if (joined[0][0] - slot) % 4 == 2 else 1


def _refusal(message: str, part: tuple) -> InvariantViolation:
    err = InvariantViolation(message)
    err.part = part
    return err


def _check_references(cx: BranchedSurfaceComplex) -> None:
    """Raise :class:`InvariantViolation` at the first broken reference of
    ``cx``, its ``part`` naming the part at fault: ``("bword", sector id,
    word index)``, or a kind and an id.  Every complex runs it once, as it
    is built."""
    sectors, segs, dps = cx.sector_by_id, cx.segment_by_id, cx.dp_by_id
    for kind, table, parts in (("sector", sectors, cx.sectors),
                               ("segment", segs, cx.segments),
                               ("dp", dps, cx.dps)):
        if len(table) != len(parts):
            ids = [p.id for p in parts]
            dup = next(i for n, i in enumerate(ids) if i in ids[:n])
            raise _refusal(f"duplicate {kind} id {dup}", (kind, dup))
    for sid, genus, words in cx.sectors:
        if genus < 0:
            raise _refusal(f"sector {sid} has negative genus", ("sector", sid))
        for k, w in enumerate(words):
            part = ("bword", sid, k)
            if not w.items:
                raise _refusal(f"bword {sid} {k} is empty", part)
            for it in w.items:
                if isinstance(it, SegItem):
                    seg, side = it
                    if seg not in segs:
                        raise _refusal(f"dangling reference: bword {sid} {k} "
                                       f"names unknown segment {seg}", part)
                    if side not in SIDES:
                        raise _refusal(f"bword {sid} {k} names bad side "
                                       f"{side!r}", part)
            for v in w.verts:
                if v is not None and v not in dps:
                    raise _refusal(f"dangling reference: bword {sid} {k} "
                                   f"names unknown dp {v}", part)
    fill = {d: [0, 0, 0, 0] for d in dps}  # the ends at each point's slots
    for gid, kind, one, up, lo, end0, end1 in cx.segments:
        part = ("segment", gid)
        if one not in sectors or up not in sectors or lo not in sectors:
            role, sid = next((r, s) for r, s in zip(SIDES, (one, up, lo))
                             if s not in sectors)
            raise _refusal(f"dangling reference: segment {gid} side {role} "
                           f"names unknown sector {sid}", part)
        if kind not in ("arc", "circle"):
            raise _refusal(f"segment {gid} has unknown kind {kind!r}", part)
        want = 2 if kind == "arc" else 0  # both for an arc, none for a circle
        if (end0 is not None) + (end1 is not None) != want:
            raise _refusal(f"{kind} segment {gid} must declare {want} ends",
                           part)
        for dp, slot in (end0, end1)[:want]:
            if dp is not None:
                if dp not in dps:
                    raise _refusal(f"dangling reference: segment {gid} "
                                   f"names unknown dp {dp}", part)
                if slot not in (0, 1, 2, 3):
                    raise _refusal(f"segment {gid} names slot {slot!r} of "
                                   f"dp {dp}", part)
                fill[dp][slot] += 1
    for did, sign in cx.dps:
        if sign not in (1, -1):
            raise _refusal(f"dp {did} has invalid sign {sign!r}", ("dp", did))
        if fill[did] != [1, 1, 1, 1]:
            raise _refusal(f"double point {did} has wrong end arity (slots "
                           f"filled {fill[did]})", ("dp", did))


def _walk_sectors(sectors, segs: dict, corners: dict) -> tuple:
    """Walk the words of ``sectors``, which name only the segments in
    ``segs`` and the points keyed in ``corners``, onto the tables of the
    points they name; return the sectors carrying each (segment, side)
    item, and the flank violations in report order.  Each edge item's
    segment ends are resolved once, at its two vertices; a corner is
    recorded exactly where the flank check passes."""
    carriers, flanks = {}, []
    for sid, _genus, words in sectors:
        for wi, w in enumerate(words):
            items, verts = w.items, w.verts
            # the previous item's germ side at the vertex between them, and
            # the first item's at the vertex that closes the word
            ahead = first = None
            prev_v = verts[-1]
            for ii, (it, v) in enumerate(zip(items, verts)):
                germs = [None, None]  # its germ sides at prev and next
                seg, side = it if isinstance(it, SegItem) else (None, None)
                if seg is None:
                    if prev_v is not None or v is not None:
                        flanks.append(f"sector {sid} word {wi}: free edge "
                                      f"{it.label} abuts a double-point vertex")
                else:
                    g = segs[seg]
                    carriers.setdefault(it, []).append(sid)
                    if g.kind != "circle":
                        for k, (which, at) in enumerate((("prev", prev_v),
                                                         ("next", v))):
                            end = _end_of_item(g, side, which)
                            want = end.dp
                            if at != want:
                                flanks.append(
                                    f"sector {sid} word {wi} item {ii} "
                                    f"({seg}:{side}): {which} vertex is "
                                    f"{at or 'smooth'} but segment end is "
                                    f"{'free' if want is None else 'dp:' + want}")
                            elif at is not None:
                                germs[k] = (end.slot, side)
                    elif len(items) != 1:
                        flanks.append(f"sector {sid} word {wi}: circle side "
                                      f"{seg}:{side} must fill a whole word")
                    elif v is not None:
                        flanks.append(f"sector {sid} word {wi}: circle "
                                      "basepoint must be smooth")
                back, fwd = germs
                if ii == 0:
                    first = back
                elif ahead is not None and back is not None:
                    corners[prev_v].update({ahead: (back, sid),
                                            back: (ahead, sid)})
                ahead, prev_v = fwd, v
            if ahead is not None and first is not None:
                corners[prev_v].update({ahead: (first, sid),
                                        first: (ahead, sid)})
    return carriers, flanks


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
    sides through one sector (:attr:`BranchedSurfaceComplex.dp_corners`,
    which the constructor writes before it derives any roles).  The roles
    are those of the first base slot and ``w``-sheet side whose six
    ``_PATTERN`` corners are all present, whichever way round each runs.
    Only ``z``'s corner joins two merged sides, so at most one reading
    fits; none raises :class:`NoConsistentRoles`.  The six corners meet
    all four slots, each of which holds one end, as every complex is
    checked to have when it is built.
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


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]

    def ok(self) -> bool:
        return not self.violations


def validate(cx: BranchedSurfaceComplex) -> ValidationReport:
    """Check the local model at every crossing; returns the violations:
    side multiplicity, flanks, circle words and corner roles, as the
    constructor has refused every broken reference.  A clean report (empty
    tuple) is the precondition for the weight, assembly and splitting
    operations.  The constructor finds them once per complex, with its
    corners and roles, and the report holds them as they are.
    """
    return ValidationReport(cx.violations)
