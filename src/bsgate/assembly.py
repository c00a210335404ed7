"""Glue a satisfying weight vector into an explicit surface.

Each sector contributes ``w(s)`` ordered copies (levels ``1..w(s)``,
bottom to top).  Along a segment with weights ``(z; x upper, y lower)``
the canonical embedded gluing attaches the top ``x`` merged-side copies
to the upper sheet and the bottom ``y`` to the lower sheet,
level-preserving; the middle ``z - x - y`` copies keep free boundary
there.  Boundary arcs are then traced through the glued complex; at a
double-point vertex the crossing fan is measured in quarter-turn units,
yielding either a silent smooth pass (2 units) or a corner record with
interior angle pi/2 + 2n*pi (1 + 4n units), each sector corner's units
read off the corner table by ``surface.corner_units``, with one
segment-end lookup per traced corner.

The surface carried with weights ``g*w`` is ``g`` parallel copies of
the one carried with ``w`` (Floyd and Oertel, "Incompressible surfaces
via branched surfaces", Topology 23, 1984).  Every gluing offset of
``g*w`` is a multiple of ``g``, so a face at level ``L`` keeps
``(L - 1) mod g`` across every gluing, and the faces with
``(L - 1) mod g == c`` glue as the faces of ``w`` do.  Hence only
``w / gcd(w)`` is glued, and copy ``c`` (``0 <= c < g``) of each
component relabels a face or boundary-run level ``l`` as
``g*(l - 1) + c + 1``.  That map is strictly increasing, so trace
rotations, boundary order and component order read the same on either
side of it.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

from .errors import (
    InvariantViolation,
    PreconditionFailed,
    WeightsNotSatisfying,
)
from .surface import (
    BranchedSurfaceComplex,
    FreeItem,
    SegItem,
    corner_units,
)
from .weights import build_system

FaceId = tuple[str, int]

CLOSED = "Closed"
ISC_CLASS = "Isc"
POS_TISC_CLASS = "PosTisc"
NEG_TISC_CLASS = "NegTisc"
OTHER = "Other"

# most faces assemble lists, one per unit of weight.  Only the primitive
# vector is glued, but the result still lists every face and the report
# prints every component: 2^18 faces (the bench's L10 pos-tisc witness
# scaled by 65,536, a 4-face disk laid down 65,536 times) take about
# 0.8 s and 150 MB as one `bsgate assemble` on a 2-vCPU x86-64 VM
_MAX_FACES = 1 << 18


class Component(NamedTuple):
    faces: tuple[FaceId, ...]
    euler: int
    boundaries: tuple[tuple, ...]  # traces; entries are tagged tuples
    classification: str


class AssembledSurface(NamedTuple):
    components: tuple[Component, ...]

    @property
    def classifications(self) -> tuple[str, ...]:
        return tuple(c.classification for c in self.components)


def check_weights(cx: BranchedSurfaceComplex, weights: dict[str, int],
                  kind: str) -> None:
    """Raise WeightsNotSatisfying naming the first violated constraint;
    :func:`build_system` first refuses a complex that fails validation.

    Strictness is deliberately not enforced: zero vectors and other
    non-strict solutions still glue to legitimate (possibly empty or
    fully closed) surfaces.
    """
    system = build_system(cx, kind)
    for s in cx.sectors:
        if weights.get(s.id, 0) < 0:
            raise WeightsNotSatisfying(f"negative weight on sector {s.id}")
    w = {s: weights.get(s, 0) for s in system.variables}
    for form in system.equalities:
        if form.dot(w) != 0:
            raise WeightsNotSatisfying(f"equality violated: {form.tag}")
    for form in system.inequalities:
        if form.dot(w) < 0:
            raise WeightsNotSatisfying(f"inequality violated: {form.tag}")


class _Template:
    """A sector's boundary positions, its (word, item) pairs in order.

    Per position: the item, the positions after and before it in its
    word, the vertex after it, and its trace entry: ``("free", label)``
    with offset None, or the segment id with the level offset of its
    edge cell (``w(one) - w(up)`` on an ``up`` side, else 0).
    """

    def __init__(self, sector, segs, w: dict[str, int]):
        self.items, self.nxt, self.prv, self.dps = [], [], [], []
        self.entry, self.offset = [], []
        for word in sector.words:
            start, m = len(self.items), len(word.items)
            for ii, item in enumerate(word.items):
                self.items.append(item)
                self.nxt.append(start + (ii + 1) % m)
                self.prv.append(start + (ii - 1) % m)
                if isinstance(item, FreeItem):
                    self.entry.append(("free", item.label))
                    self.offset.append(None)
                    continue
                g = segs[item.seg]
                self.entry.append(item.seg)
                self.offset.append(w[g.one] - w[g.up]
                                   if item.side == "up" else 0)
            self.dps.extend(word.verts)
        # corner_units of the fan vertex after each position, on demand
        self.units: list[Optional[int]] = [None] * len(self.items)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent: list[int], a: int, b: int) -> int:
    """Join the classes of ``a`` and ``b``; 1 if they were apart."""
    ra, rb = _find(parent, a), _find(parent, b)
    parent[max(ra, rb)] = min(ra, rb)
    return int(ra != rb)


def assemble(cx: BranchedSurfaceComplex, weights: dict[str, int],
             kind: str) -> AssembledSurface:
    """Construct the canonical glued surface for a satisfying vector.

    The vector's greatest common divisor ``g`` is divided out, the
    primitive vector is glued by :func:`_glue`, and each of its
    components is laid down ``g`` times, copy after copy, at the levels
    the module docstring gives: the result is the surface glued from
    the whole vector, listed the same way.
    """
    check_weights(cx, weights, kind)
    w = {s.id: weights.get(s.id, 0) for s in cx.sectors}
    total = sum(w.values())
    if total > _MAX_FACES:
        raise PreconditionFailed(
            f"weights sum to {total}: one face per unit is more than "
            f"the 2^18 faces assemble builds")
    g = gcd(*w.values()) or 1
    components = []
    for comp in _glue(cx, {s: v // g for s, v in w.items()}).components:
        # each level at copy 0's value; copy c adds c.  A trace entry
        # that is not a run keeps its level None and stays as it is
        faces = [(sid, g * (lev - 1) + 1) for sid, lev in comp.faces]
        traces = [[(e, None) if e[0] != "run" else
                   (e[1], g * (e[2] - 1) + 1) for e in trace]
                  for trace in comp.boundaries]
        for c in range(g):
            components.append(Component(
                tuple([(sid, lev + c) for sid, lev in faces]), comp.euler,
                tuple([tuple([e if lev is None else ("run", e, lev + c)
                              for e, lev in trace]) for trace in traces]),
                comp.classification))
    return AssembledSurface(tuple(components))


def _glue(cx: BranchedSurfaceComplex,
          w: dict[str, int]) -> AssembledSurface:
    """The surface glued from ``w``, which weighs every sector of ``cx``.

    Faces are numbered in ``cx.sectors`` order, then by level; the edge
    or vertex occurrence at template position ``p`` of a face has the id
    ``base(face) + p``.  Along a segment with weights ``(z; x, y)`` the
    ``one`` side at level L is glued to the ``lo`` side at L for
    L <= y, and to the ``up`` side at L - (z - x) for L > z - x.
    """
    tpls = [_Template(s, cx.segment_by_id, w) for s in cx.sectors]
    where: dict[tuple[str, str], tuple[int, int]] = {
        (item.seg, item.side): (k, p)
        for k, t in enumerate(tpls) for p, item in enumerate(t.items)
        if isinstance(item, SegItem)}
    weight = [w[s.id] for s in cx.sectors]
    first_face, first_occ = [], []  # per sector
    face_tpl, face_level, face_base = [], [], []  # per face
    occ_face: list[int] = []  # per occurrence
    for t, n_faces in zip(tpls, weight):
        first_face.append(len(face_tpl))
        first_occ.append(len(occ_face))
        for lev in range(1, n_faces + 1):
            face_base.append(len(occ_face))
            occ_face.extend([len(face_tpl)] * len(t.items))
            face_tpl.append(t)
            face_level.append(lev)
    n_occ = len(occ_face)

    # pair the sheets of each segment; union faces and vertex occurrences
    partner = [-1] * n_occ
    face_up = list(range(len(face_tpl)))
    vert_up = list(range(n_occ))
    # per face: the pairs glued at its one sides, less the vertex
    # classes they merge, i.e. what gluing adds to the Euler number
    glue = [0] * len(face_tpl)
    for g in cx.segments:
        ko, po = where[g.id, "one"]
        no = len(tpls[ko].items)
        da = tpls[ko].prv[po] - po
        for side in ("lo", "up"):
            kt, pt = where[g.id, side]
            first = tpls[kt].offset[pt]
            nt, count = len(tpls[kt].items), weight[kt]
            db = tpls[kt].prv[pt] - pt
            a0 = first_occ[ko] + first * no + po
            b0 = first_occ[kt] + pt
            partner[a0:a0 + count * no:no] = range(b0, b0 + count * nt, nt)
            partner[b0:b0 + count * nt:nt] = range(a0, a0 + count * no, no)
            fa0, fb0 = first_face[ko] + first, first_face[kt]
            for i in range(count):
                a, b = a0 + i * no, b0 + i * nt
                _union(face_up, fa0 + i, fb0 + i)
                # prev(a) ~ next(b) and next(a) ~ prev(b)
                glue[fa0 + i] += (1 - _union(vert_up, a + da, b)
                                  - _union(vert_up, a, b + db))

    # components, in order of their least (sid, level) face; each is
    # [faces, Euler number, traces]
    order = sorted(range(len(tpls)), key=lambda k: cx.sectors[k].id)
    comps: dict[int, list] = {}  # face root -> component
    face_comp: list = [None] * len(face_tpl)  # per face
    for k in order:
        sid, chi = cx.sectors[k].id, cx.sectors[k].euler()
        for lev in range(1, weight[k] + 1):
            f = first_face[k] + lev - 1
            comp = comps.setdefault(_find(face_up, f), [[], 0, []])
            comp[0].append((sid, lev))
            comp[1] += chi + glue[f]
            face_comp[f] = comp

    # boundary traces: from each boundary occurrence, walk the vertex fan
    # after it to the next one, recording a corner unless the fan is a
    # smooth pass (2 quarter-turns) along a branch line
    visited = bytearray(n_occ)
    for k in order:  # starts in (sid, level, word, item) order
        for f in range(first_face[k], first_face[k] + weight[k]):
            base = face_base[f]
            for start in range(base, base + len(tpls[k].items)):
                if partner[start] >= 0 or visited[start]:
                    continue
                entries: list[tuple] = []
                occ = start
                while True:
                    visited[occ] = 1
                    h = occ_face[occ]
                    t, p = face_tpl[h], occ - face_base[h]
                    off = t.offset[p]
                    entries.append(t.entry[p] if off is None else
                                   ("run", t.entry[p], face_level[h] + off))
                    units = 0
                    corner_dp: Optional[str] = None
                    for _hop in range(n_occ + 2):
                        j = t.nxt[p]
                        did = t.dps[p]
                        if did is not None:
                            u = t.units[p]
                            if u is None:
                                u = t.units[p] = corner_units(
                                    cx, t.items[p], did)
                            units += u
                            if corner_dp is None:
                                corner_dp = did
                            elif corner_dp != did:
                                raise InvariantViolation(
                                    "fan mixes double points "
                                    f"{corner_dp} and {did}")
                        occ = occ - p + j
                        if partner[occ] < 0:
                            break
                        occ = partner[occ]
                        h = occ_face[occ]
                        t, p = face_tpl[h], occ - face_base[h]
                    else:
                        raise InvariantViolation(
                            "fan walk failed to terminate")
                    if corner_dp is not None and units != 2:
                        if units % 4 != 1:
                            raise InvariantViolation(
                                f"fan at dp:{corner_dp} sweeps {units} "
                                "quarter-turns")
                        entries.append(("corner", corner_dp, (units - 1) // 4,
                                        cx.dp_by_id[corner_dp].sign))
                    if occ == start:
                        break
                face_comp[f][2].append(tuple(entries))

    components = []
    for faces, chi, comp_traces in comps.values():
        boundaries = tuple(sorted(normalize_trace(t) for t in comp_traces))
        signs: set[int] = set()
        has_free = False
        for trace in boundaries:
            for e in trace:
                if e[0] == "corner":
                    signs.add(e[3])
                elif e[0] == "free":
                    has_free = True
        if not boundaries:
            cls = CLOSED
        elif has_free:
            cls = OTHER
        elif not signs:
            cls = ISC_CLASS
        elif signs == {1}:
            cls = POS_TISC_CLASS
        elif signs == {-1}:
            cls = NEG_TISC_CLASS
        else:
            cls = OTHER
        components.append(Component(
            faces=tuple(faces), euler=chi, boundaries=boundaries,
            classification=cls))
    return AssembledSurface(tuple(components))


def normalize_trace(entries: tuple) -> tuple:
    """Lexicographically least rotation; traces are cyclic."""
    if not entries:
        return entries
    first = min(entries)  # the least rotation starts at a least entry
    return min(entries[i:] + entries[:i]
               for i, e in enumerate(entries) if e == first)

