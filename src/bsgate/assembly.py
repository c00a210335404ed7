"""Glue a satisfying weight vector into an explicit surface.

Each sector contributes ``w(s)`` ordered copies (levels ``1..w(s)``,
bottom to top).  Along a segment with weights ``(z; x upper, y lower)``
the canonical embedded gluing attaches the top ``x`` merged-side copies
to the upper sheet and the bottom ``y`` to the lower sheet,
level-preserving; the middle ``z - x - y`` copies keep free boundary
there.  Boundary arcs are then traced through the glued complex; at a
double-point vertex the crossing fan is measured in quarter-turn units,
yielding either a silent smooth pass (2 units) or a corner record with
interior angle pi/2 + 2n*pi (1 + 4n units).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    PreconditionFailed,
    TracingInconsistency,
    WeightsNotSatisfying,
)
from .surface import (
    BranchedSurfaceComplex,
    FreeItem,
    SegItem,
    _end_of_item,
)
from .weights import build_system

FaceId = tuple[str, int]
Occ = tuple[FaceId, int, int]  # (face, word index, item/vertex index)

CLOSED = "Closed"
ISC_CLASS = "Isc"
POS_TISC_CLASS = "PosTisc"
NEG_TISC_CLASS = "NegTisc"
OTHER = "Other"

# most faces assemble builds, one per unit of weight: 2^18 faces took
# about 15 s and 700 MB on a 2-vCPU x86-64 VM
_MAX_FACES = 1 << 18


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


@dataclass(frozen=True)
class Component:
    faces: tuple[FaceId, ...]
    euler: int
    boundaries: tuple[tuple, ...]  # traces; entries are tagged tuples
    classification: str


@dataclass(frozen=True)
class AssembledSurface:
    components: tuple[Component, ...]

    @property
    def classifications(self) -> tuple[str, ...]:
        return tuple(c.classification for c in self.components)


def check_weights(cx: BranchedSurfaceComplex, weights: dict[str, int],
                  kind: str) -> None:
    """Raise WeightsNotSatisfying naming the first violated constraint.

    Strictness is deliberately not enforced: zero vectors and other
    non-strict solutions still glue to legitimate (possibly empty or
    fully closed) surfaces.
    """
    for s in cx.sectors:
        if weights.get(s.id, 0) < 0:
            raise WeightsNotSatisfying(f"negative weight on sector {s.id}")
    system = build_system(cx, kind)
    w = {s: weights.get(s, 0) for s in system.variables}
    for form in system.equalities:
        if form.dot(w) != 0:
            raise WeightsNotSatisfying(f"equality violated: {form.tag}")
    for form in system.inequalities:
        if form.dot(w) < 0:
            raise WeightsNotSatisfying(f"inequality violated: {form.tag}")


def _edge_cell(cx, weights, face: FaceId, wi: int, ii: int, item):
    sid, level = face
    if isinstance(item, FreeItem):
        return ("free", sid, wi, ii, level)
    if item.side == "up":
        g = cx.segment_by_id[item.seg]
        level += weights.get(g.one, 0) - weights.get(g.up, 0)
    return ("seg", item.seg, level)


def assemble(cx: BranchedSurfaceComplex, weights: dict[str, int],
             kind: str) -> AssembledSurface:
    """Construct the canonical glued surface for a satisfying vector."""
    check_weights(cx, weights, kind)
    w = {s.id: weights.get(s.id, 0) for s in cx.sectors}
    total = sum(w.values())
    if total > _MAX_FACES:
        raise PreconditionFailed(
            f"weights sum to {total}: one face per unit is more than "
            f"the 2^18 faces assemble builds")

    faces: list[FaceId] = [(s.id, lev) for s in cx.sectors
                           for lev in range(1, w[s.id] + 1)]

    # edge cells and their occurrences
    occs_of_cell: dict[tuple, list[Occ]] = {}
    item_of_occ: dict[Occ, object] = {}
    for face in faces:
        sector = cx.sector_by_id[face[0]]
        for wi, word in enumerate(sector.words):
            for ii, item in enumerate(word.items):
                occ = (face, wi, ii)
                item_of_occ[occ] = item
                cell = _edge_cell(cx, w, face, wi, ii, item)
                occs_of_cell.setdefault(cell, []).append(occ)

    partner: dict[Occ, Occ] = {}
    for cell, occs in occs_of_cell.items():
        if len(occs) > 2:
            raise TracingInconsistency(
                f"edge cell {cell} has {len(occs)} occurrences")
        if len(occs) == 2:
            partner[occs[0]] = occs[1]
            partner[occs[1]] = occs[0]

    # face components
    comp_uf = _UnionFind()
    for face in faces:
        comp_uf.add(face)
    for occs in occs_of_cell.values():
        if len(occs) == 2:
            comp_uf.union(occs[0][0], occs[1][0])

    # vertex cells: union-find over vertex occurrences
    vert_uf = _UnionFind()
    word_len: dict[tuple[str, int], int] = {
        (s.id, wi): len(wd.items)
        for s in cx.sectors for wi, wd in enumerate(s.words)}
    for face in faces:
        sector = cx.sector_by_id[face[0]]
        for wi, word in enumerate(sector.words):
            for vi in range(len(word.verts)):
                vert_uf.add((face, wi, vi))
    for a, b in partner.items():
        if a > b:
            continue
        (fa, wa, ia), (fb, wb, ib) = a, b
        ma, mb = word_len[(fa[0], wa)], word_len[(fb[0], wb)]
        # prev(a) ~ next(b) and next(a) ~ prev(b)
        vert_uf.union((fa, wa, (ia - 1) % ma), (fb, wb, ib))
        vert_uf.union((fa, wa, ia), (fb, wb, (ib - 1) % mb))

    vert_classes = vert_uf.classes()
    vert_root = {occ: root for root, occs in vert_classes.items()
                 for occ in occs}

    # boundary traces
    traces_by_comp: dict[FaceId, list[tuple]] = {}
    boundary_occs = sorted(
        occ for occ, it in item_of_occ.items() if occ not in partner)
    visited: set[Occ] = set()

    def run_entry(occ: Occ) -> tuple:
        item = item_of_occ[occ]
        if isinstance(item, FreeItem):
            return ("free", item.label)
        cell = _edge_cell(cx, w, occ[0], occ[1], occ[2], item)
        return ("run", cell[1], cell[2])

    def vertex_dp(occ_face: FaceId, wi: int, vi: int) -> Optional[str]:
        return cx.sector_by_id[occ_face[0]].words[wi].verts[vi]

    def corner_units(entering, leaving, did: str) -> int:
        g_in = cx.segment_by_id[entering.seg]
        g_out = cx.segment_by_id[leaving.seg]
        end_in = _end_of_item(g_in, entering.side, "next")
        end_out = _end_of_item(g_out, leaving.side, "prev")
        if end_in is None or end_out is None \
                or end_in.dp != did or end_out.dp != did:
            raise TracingInconsistency(
                f"segment ends disagree with vertex dp:{did}")
        diff = (end_out.slot - end_in.slot) % 4
        if diff in (1, 3):
            return 1
        if diff == 2:
            return 2
        raise TracingInconsistency(
            f"fold-back at dp:{did} (slot {end_in.slot} to itself)")

    def successor(occ: Occ):
        """Walk the vertex fan after traversing ``occ``; returns
        (next boundary occurrence, corner record or None)."""
        units = 0
        corner_dp: Optional[str] = None
        cur = occ
        for _hop in range(len(item_of_occ) + 2):
            face, wi, ii = cur
            m = word_len[(face[0], wi)]
            j = (ii + 1) % m
            did = vertex_dp(face, wi, ii)
            if did is not None:
                entering = item_of_occ[cur]
                leaving = item_of_occ[(face, wi, j)]
                units += corner_units(entering, leaving, did)
                if corner_dp is None:
                    corner_dp = did
                elif corner_dp != did:
                    raise TracingInconsistency(
                        "fan mixes double points "
                        f"{corner_dp} and {did}")
            nxt = (face, wi, j)
            if nxt not in partner:
                record = None
                if corner_dp is not None:
                    if units == 2:
                        record = None  # smooth pass along a branch line
                    elif units % 4 == 1:
                        sign = cx.dp_by_id[corner_dp].sign
                        record = ("corner", corner_dp, (units - 1) // 4, sign)
                    else:
                        raise TracingInconsistency(
                            f"fan at dp:{corner_dp} sweeps {units} "
                            "quarter-turns")
                return nxt, record
            cur = partner[nxt]
        raise TracingInconsistency("fan walk failed to terminate")

    for start in boundary_occs:
        if start in visited:
            continue
        entries: list[tuple] = []
        occ = start
        while True:
            visited.add(occ)
            entries.append(run_entry(occ))
            occ, record = successor(occ)
            if record is not None:
                entries.append(record)
            if occ == start:
                break
        comp_root = comp_uf.find(start[0])
        traces_by_comp.setdefault(comp_root, []).append(tuple(entries))

    # euler characteristic per component
    comps = comp_uf.classes()
    edge_cells_by_comp: dict[FaceId, int] = {}
    for cell, occs in occs_of_cell.items():
        root = comp_uf.find(occs[0][0])
        edge_cells_by_comp[root] = edge_cells_by_comp.get(root, 0) + 1
    vert_cells_by_comp: dict[FaceId, int] = {}
    for root_v, occs in vert_classes.items():
        root = comp_uf.find(occs[0][0])
        vert_cells_by_comp[root] = vert_cells_by_comp.get(root, 0) + 1

    components = []
    for root in sorted(comps):
        comp_faces = tuple(sorted(comps[root]))
        chi = sum(cx.sector_by_id[sid].euler() for sid, _lev in comp_faces)
        chi -= edge_cells_by_comp.get(root, 0)
        chi += vert_cells_by_comp.get(root, 0)
        boundaries = tuple(sorted(normalize_trace(t)
                                  for t in traces_by_comp.get(root, [])))
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
            faces=comp_faces, euler=chi, boundaries=boundaries,
            classification=cls))
    return AssembledSurface(tuple(components))


def normalize_trace(entries: tuple) -> tuple:
    """Lexicographically least rotation; traces are cyclic."""
    if not entries:
        return entries
    rotations = [entries[i:] + entries[:i] for i in range(len(entries))]
    return min(rotations)

