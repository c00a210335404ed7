"""Elementary splitting moves along a directed arc through a sector.

A move pushes the branch locus through a sector ``Z`` from an *entry*
edge (one whose merged side faces into ``Z``) to an *exit* edge.  The
over and under moves slide the entering branch curve across the exit
curve, creating a pair of new double points of opposite sign; the
neutral move stops short of the exit curve and merges the flanking
sheets instead.

All three moves run through one template in ``split``: cut the sector
along the arc, rewrite the lateral sheets at the entry and exit edges,
fuse the severed halves of a circle edge, then name the pieces and
rebuild the segments.  Conventions worth keeping in mind when reading
it:

* the cut along the arc follows the canonical representative that, when
  entry and exit share a boundary word, severs a planar piece carrying
  the word segment running forward from the entry;
* the under move is the over move with the ``up`` and ``lo`` sheets
  swapped in its one lateral table; so the over move's new left double
  point is negative and its right one positive, and the under move's
  signs are the mirror image;
* every output is built by ``surface.carried_complex``, which checks
  its references, the words that the move rewrote and the roles at the
  points whose corners it changed, so a template error surfaces as
  ``InvariantViolation`` rather than silent corruption.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import (
    BadMove,
    BsgateError,
    InvalidLocus,
    InvariantViolation,
    MalformedSystem,
    PreconditionFailed,
)
from .parser import _is_int
from .surface import (
    SIDES,
    BoundaryWord,
    BranchSegment,
    BranchedSurfaceComplex,
    DoublePoint,
    SegItem,
    SegmentEnd,
    Sector,
    carried_complex,
)
from .weights import Verdict, criterion

OVER = "over"
UNDER = "under"
NEUTRAL = "neutral"
CHOICES = (OVER, UNDER, NEUTRAL)

Position = tuple[int, int]  # (word index, item index) on the sector boundary


class SplitLocus(NamedTuple):
    """A directed arc through ``sector`` from ``entry`` to ``exit``."""

    sector: str
    entry: Position
    exit: Position


class SplitResult(NamedTuple):
    complex: BranchedSurfaceComplex
    choice: str
    dp_left: Optional[str]
    dp_right: Optional[str]
    sector_images: tuple[tuple[str, str], ...]  # original id -> new id


class PlanStep(NamedTuple):
    """One committed safe step: the locus, the move committed, and the
    verdict of each move tried, in the order tried."""

    locus: SplitLocus
    choice: str
    verdicts: tuple[tuple[str, Verdict], ...]


class ScheduleResult(NamedTuple):
    complex: BranchedSurfaceComplex
    steps: tuple[PlanStep, ...]


def _resolve(cx: BranchedSurfaceComplex, locus: SplitLocus):
    sec = cx.sector_by_id.get(locus.sector)
    if sec is None:
        raise InvalidLocus(f"unknown sector {locus.sector}")

    def item_at(pos: Position, label: str):
        wi, ii = pos
        if not 0 <= wi < len(sec.words):
            raise InvalidLocus(
                f"{label} word index {wi} out of range for sector {sec.id}")
        word = sec.words[wi]
        if not 0 <= ii < len(word.items):
            raise InvalidLocus(
                f"{label} item index {ii} out of range in word {wi}")
        return word.items[ii]

    ent = item_at(locus.entry, "entry")
    ext = item_at(locus.exit, "exit")
    if locus.entry == locus.exit:
        raise InvalidLocus("entry and exit positions coincide")
    if not isinstance(ent, SegItem) or ent.side != "one":
        raise InvalidLocus(
            "entry edge must carry the merged side of its segment")
    if not isinstance(ext, SegItem):
        raise InvalidLocus("exit edge is a free boundary arc")
    return sec, ent, ext


def is_bad_move(cx: BranchedSurfaceComplex, locus: SplitLocus) -> bool:
    """True when the exit edge branches outward for the locus sector."""
    _, _, ext = _resolve(cx, locus)
    return ext.side != "one"


def _loci(cx: BranchedSurfaceComplex, good: bool) -> list[SplitLocus]:
    """Per sector, each inward entry paired with every other segment edge,
    or with every other inward edge when ``good``: one walk of the words."""
    out = []
    for s in cx.sectors:
        edges = [((wi, ii), it.side) for wi, w in enumerate(s.words)
                 for ii, it in enumerate(w.items) if isinstance(it, SegItem)]
        entries = [p for p, side in edges if side == "one"]
        exits = entries if good else [p for p, _ in edges]
        for e in entries:
            out.extend(SplitLocus(s.id, e, x) for x in exits if x != e)
    return out


def all_loci(cx: BranchedSurfaceComplex) -> list[SplitLocus]:
    """Every resolvable locus: inward entry, any segment edge as exit."""
    return _loci(cx, good=False)


def good_loci(cx: BranchedSurfaceComplex) -> list[SplitLocus]:
    """The loci of :func:`all_loci` that :func:`is_bad_move` passes, those
    whose exit carries a merged side too, in the same order."""
    return _loci(cx, good=True)


# -- locus text form (used by the command line and plan files) ---------------

def parse_position(text: str) -> tuple[Position, str]:
    parts = text.split(":")
    if len(parts) != 3 or parts[2] not in SIDES:
        raise InvalidLocus(
            f"bad position {text!r}, expected <word>:<item>:<one|up|lo>")
    if not (_is_int(parts[0]) and _is_int(parts[1])):
        raise InvalidLocus(f"bad position {text!r}, indices must be integers")
    return (int(parts[0]), int(parts[1])), parts[2]


def locus_from_strings(cx: BranchedSurfaceComplex, sector: str,
                       entry: str, exit: str) -> SplitLocus:
    (e_pos, e_side) = parse_position(entry)
    (x_pos, x_side) = parse_position(exit)
    locus = SplitLocus(sector, e_pos, x_pos)
    _, ent, ext = _resolve(cx, locus)
    if ent.side != e_side:
        raise InvalidLocus(
            f"entry side mismatch: declared {e_side}, found {ent.side}")
    if ext.side != x_side:
        raise InvalidLocus(
            f"exit side mismatch: declared {x_side}, found {ext.side}")
    return locus


def format_locus(cx: BranchedSurfaceComplex, locus: SplitLocus) -> str:
    sec = cx.sector_by_id[locus.sector]

    def pos(p: Position) -> str:
        it = sec.words[p[0]].items[p[1]]
        return f"{p[0]}:{p[1]}:{it.side}"

    return f"{locus.sector} {pos(locus.entry)} {pos(locus.exit)}"


# -- the rewrite --------------------------------------------------------------

# Working form of a boundary word: a list of (item, following vertex).
_Pairs = list[tuple[SegItem, Optional[str]]]


class _Piece:
    """A sector of the output complex while words are under surgery."""

    def __init__(self, genus: int, words: list[_Pairs],
                 members: tuple[str, ...], tags: frozenset):
        self.genus = genus
        self.words = words
        self.members = members  # the input sectors merged into this piece
        self.tags = tags  # "zl", "zr" or "slv" when the piece is one of those


def _pairs(word: BoundaryWord) -> _Pairs:
    return list(zip(word.items, word.verts))


def _word(pairs: _Pairs) -> BoundaryWord:
    return BoundaryWord(tuple(p[0] for p in pairs),
                        tuple(p[1] for p in pairs))


def _forward(pairs: _Pairs, i: int, j: int) -> _Pairs:
    """Pairs strictly between positions i and j, walking forward."""
    m = len(pairs)
    out, k = [], (i + 1) % m
    while k != j:
        out.append(pairs[k])
        k = (k + 1) % m
    return out


def _find(pieces: list[_Piece], g: BranchSegment, side: str):
    """Where edge ``g``:``side`` sits among the move's pieces."""
    want = SegItem(g.id, side)
    for piece in pieces:
        for wi, pairs in enumerate(piece.words):
            for ii, (it, _) in enumerate(pairs):
                if it == want:
                    return piece, wi, ii
    raise InvariantViolation(f"lost track of edge {g.id}:{side} during splice")


def _replace_item(pairs: _Pairs, i: int, seq: _Pairs) -> _Pairs:
    return pairs[:i] + seq + pairs[i + 1:]


def _fuse_adjacent(pieces: list[_Piece], first: SegItem, second: SegItem,
                   merged: SegItem) -> None:
    """Collapse ``first, smooth vertex, second`` into ``merged`` everywhere."""
    for piece in pieces:
        for wi, pairs in enumerate(piece.words):
            m = len(pairs)
            for i in range(m):
                it, vert = pairs[i]
                j = (i + 1) % m
                if it == first and vert is None and pairs[j][0] == second:
                    rot = pairs[i:] + pairs[:i]
                    piece.words[wi] = [(merged, rot[1][1])] + rot[2:]
                    return
    raise InvariantViolation(f"no fusion site for {merged.seg}:{merged.side}")


def _allocate_names(cx: BranchedSurfaceComplex, z: str, gin: BranchSegment,
                    choice: str) -> dict[str, str]:
    """The move's new names, keyed by role, with the least suffix ``n``
    that none of them has taken; each try stops at its first taken name."""
    secs, segs, dps = cx.sector_by_id, cx.segment_by_id, cx.dp_by_id
    if choice == NEUTRAL:
        stems = [("zl", f"{z}_l", secs), ("zr", f"{z}_r", secs),
                 ("xm", f"{gin.up}_m", secs), ("ym", f"{gin.lo}_m", secs)]
        stems += [(k, k, segs) for k in ("fl", "fr", "fn")]
    else:
        stems = [("zl", f"{z}_l", secs), ("zr", f"{z}_r", secs),
                 ("slv", "slv", secs)]
        stems += [(k, k, segs)
                  for k in ("fl", "fr", "flr", "gl", "gm", "gr", "gf", "tg")]
        stems += [("L", "L", dps), ("R", "R", dps)]
    n = 1
    while True:
        for _key, stem, taken in stems:
            if f"{stem}{n}" in taken:
                break
        else:
            return {key: f"{stem}{n}" for key, stem, _taken in stems}
        n += 1


def split(cx: BranchedSurfaceComplex, locus: SplitLocus,
          choice: str) -> SplitResult:
    if choice not in CHOICES:
        raise InvalidLocus(f"unknown move choice {choice!r}")
    if cx.violations:
        raise PreconditionFailed(
            "input complex fails validation: " + cx.violations[0])
    sec, ent, ext = _resolve(cx, locus)
    if ext.side != "one":
        raise BadMove(
            f"exit edge {ext.seg}:{ext.side} branches outward "
            f"for sector {sec.id}")

    gin = cx.segment_by_id[ent.seg]
    gout = cx.segment_by_id[ext.seg]
    entry_circle = gin.kind == "circle"
    exit_circle = gout.kind == "circle"
    names = _allocate_names(cx, sec.id, gin, choice)
    over_like = choice in (OVER, UNDER)
    lvert, rvert = names.get("L"), names.get("R")  # None for neutral

    def seg_item(key: str, side: str) -> SegItem:
        return SegItem(names[key], side)

    # the move rewrites the words of the locus sector and of the lateral
    # sheets at the entry and exit: each becomes a piece, listed in
    # ``pieces`` with those the move adds.  Every other sector passes through
    consumed = {sec.id, gin.up, gin.lo, gout.up, gout.lo}
    pool: list = []  # every output sector, in order
    pieces: list[_Piece] = []
    for s in cx.sectors:
        if s.id in consumed:
            s = _Piece(s.genus, [_pairs(w) for w in s.words], (s.id,),
                       frozenset({"zl"} if s.id == sec.id else ()))
            pieces.append(s)
        pool.append(s)
    zp = next(p for p in pieces if "zl" in p.tags)

    # --- cut the locus sector along the arc -------------------------------
    (ew, ei), (xw, xi) = locus.entry, locus.exit
    fr_one, fl_one = seg_item("fr", "one"), seg_item("fl", "one")
    # over and under turn at L onto gl and come back at R along gr;
    # neutral turns onto fl
    if over_like:
        lead, turn = [(fl_one, lvert)], seg_item("gl", "one")
        back = [(seg_item("gr", "one"), rvert)]
    else:
        lead, turn, back = [], fl_one, []
    if ew == xw:
        w = zp.words[ew]
        right = back + [(fr_one, w[ei][1])] + _forward(w, ei, xi)
        zp.words[ew] = lead + [(turn, w[xi][1])] + _forward(w, xi, ei)
        zr = _Piece(0, [right], (), frozenset({"zr"}))
        pool.insert(pool.index(zp) + 1, zr)
        pieces.append(zr)
    else:
        we, wx = zp.words[ew], zp.words[xw]
        zp.words[ew] = ([(fr_one, we[ei][1])] + _forward(we, ei, ei) + lead
                        + [(turn, wx[xi][1])] + _forward(wx, xi, xi) + back)
        del zp.words[xw]

    # --- lateral rewrites at the entry and exit ----------------------------
    if over_like:
        # under is over with the two lateral sheets swapped
        a, b = ("up", "lo") if choice == OVER else ("lo", "up")
        entry_mid = {a: seg_item("tg", a), b: seg_item("gm", "one")}
        exit_mid = {a: seg_item("tg", "one"), b: seg_item("gm", b)}
        for side in ("up", "lo"):
            piece, wi, ii = _find(pieces, gin, side)
            after = piece.words[wi][ii][1]
            piece.words[wi] = _replace_item(
                piece.words[wi], ii,
                [(seg_item("fr", side), rvert), (entry_mid[side], lvert),
                 (seg_item("fl", side), after)])
            piece, wi, ii = _find(pieces, gout, side)
            after = piece.words[wi][ii][1]
            piece.words[wi] = _replace_item(
                piece.words[wi], ii,
                [(seg_item("gl", side), lvert), (exit_mid[side], rvert),
                 (seg_item("gr", side), after)])
        sliver = [(seg_item("tg", b), lvert), (seg_item("gm", a), rvert)]
        pieces.append(_Piece(0, [sliver], (), frozenset({"slv"})))
        pool.append(pieces[-1])
    else:
        for side in ("up", "lo"):
            pa, wa, ia = _find(pieces, gin, side)
            pb, wb, ib = _find(pieces, gout, side)
            frs, fls = seg_item("fr", side), seg_item("fl", side)
            if pa is pb and wa == wb:
                w = pa.words[wa]
                w1 = [(frs, w[ib][1])] + _forward(w, ib, ia)
                w2 = [(fls, w[ia][1])] + _forward(w, ia, ib)
                pa.words[wa] = w1
                pa.words.insert(wa + 1, w2)
            else:
                wordb = pb.words[wb]
                splice = ([(frs, wordb[ib][1])] + _forward(wordb, ib, ib)
                          + [(fls, pa.words[wa][ia][1])])
                pa.words[wa] = _replace_item(pa.words[wa], ia, splice)
                del pb.words[wb]
                if pa is pb:
                    pa.genus += 1  # self-fusion across two words
                else:
                    pa.genus += pb.genus
                    pa.words.extend(pb.words)
                    pa.members += pb.members
                    pa.tags |= pb.tags
                    pool.remove(pb)
                    pieces.remove(pb)

    # --- circle entries and exits fuse the severed halves ------------------
    def fuse(first: str, second: str, key: str) -> None:
        """Merge the halves ``first``, ``second`` of a circle into ``key``."""
        _fuse_adjacent(pieces, seg_item(first, "one"),
                       seg_item(second, "one"), seg_item(key, "one"))
        for side in ("up", "lo"):
            _fuse_adjacent(pieces, seg_item(second, side),
                           seg_item(first, side), seg_item(key, side))

    if entry_circle:
        fuse("fr", "fl", "flr" if over_like else "fn")
    if exit_circle and over_like:
        fuse("gl", "gr", "gf")
    elif exit_circle and not entry_circle:
        fuse("fl", "fr", "fn")

    # --- name the pieces and emit sectors ----------------------------------
    def piece_name(piece: _Piece) -> str:
        for tag in ("zl", "zr", "slv"):
            if tag in piece.tags:
                return names[tag]
        if len(piece.members) == 1:
            return piece.members[0]
        if gin.up in piece.members:
            return names["xm"]
        if gin.lo in piece.members:
            return names["ym"]
        raise InvariantViolation("merged piece with no naming anchor")

    emitted, new = [], []  # every output sector, and the pieces' ones
    images: dict[str, str] = {}  # original sector id -> new id
    for piece in pool:
        if isinstance(piece, _Piece):
            piece = Sector(piece_name(piece), piece.genus,
                           tuple(_word(p) for p in piece.words))
            new.append(piece)
        else:
            images[piece.id] = piece.id
        emitted.append(piece)

    # --- rebuild segments from where their edges now sit --------------------
    occ: dict[tuple[str, str], str] = {
        it: s.id for s in new for w in s.words for it in w.items
        if isinstance(it, SegItem)}

    def sheet(seg_id: str, side: str) -> str:
        try:
            return occ[(seg_id, side)]
        except KeyError as missing:
            raise InvariantViolation(f"edge {missing.args[0]} unplaced")

    def end(dp_key: str, slot: int) -> SegmentEnd:
        return SegmentEnd(names[dp_key], slot)

    if over_like:
        table = {
            "fl": ("arc", gin.end0, end("L", 3)),
            "fr": ("arc", end("R", 3), gin.end1),
            "flr": ("arc", end("R", 3), end("L", 3)),
            "gl": ("arc", end("L", 2), gout.end1),
            "gr": ("arc", gout.end0, end("R", 0)),
            "gf": ("arc", end("L", 2), end("R", 0)),
            "gm": ("arc", end("R", 2), end("L", 0)),
            "tg": ("arc", end("L", 1), end("R", 1)),
        }
        entry_key = "flr" if entry_circle else "fr"
        exit_key = "gf" if exit_circle else "gr"
    else:
        table = {
            "fl": ("arc", gin.end0, gout.end1),
            "fr": ("arc", gout.end0, gin.end1),
            "fn": (("circle", None, None) if entry_circle and exit_circle
                   else ("arc", gout.end0, gout.end1) if entry_circle
                   else ("arc", gin.end0, gin.end1)),
        }
        entry_key = exit_key = (
            "fn" if (entry_circle or exit_circle) else "fr")

    # a fused circle's halves are gone from the words, so the keys whose
    # edges the words still carry are the new segments
    new_segments = [
        BranchSegment(names[key], kind,
                      **{side: sheet(names[key], side) for side in SIDES},
                      end0=e0, end1=e1)
        for key, (kind, e0, e1) in table.items()
        if (names[key], "one") in occ]
    # an input segment stays the same object unless one of its sheets
    # moved, which only one declared on a consumed sector can do
    segments = []
    for g in cx.segments:
        if g.one in consumed or g.up in consumed or g.lo in consumed:
            if g.id in (gin.id, gout.id):
                continue
            moved = {side: sid for side, old in zip(SIDES, (g.one, g.up, g.lo))
                     if old in consumed and (sid := sheet(g.id, side)) != old}
            if moved:
                g = g._replace(**moved)
        segments.append(g)

    new_dps = ()
    if over_like:
        lsign = -1 if choice == OVER else 1
        new_dps = (DoublePoint(names["L"], lsign),
                   DoublePoint(names["R"], -lsign))

    out = carried_complex(cx, tuple(emitted), tuple(segments + new_segments),
                          cx.dps + new_dps)

    for g, key in ((gout, exit_key), (gin, entry_key)):
        images[g.up] = occ[(names[key], "up")]
        images[g.lo] = occ[(names[key], "lo")]
    images[sec.id] = names["zl"]

    return SplitResult(out, choice, lvert, rvert,
                       tuple(sorted(images.items())))


def pushforward_weights(res: SplitResult,
                        weights: Mapping[str, int]) -> dict[str, int]:
    """Pull a weight vector on the split complex back to the original.

    Each original sector reads off the weight of its canonical image
    piece.  Under the segment equalities of the split complex the halves
    of the severed sector are forced equal, so this reproduces every
    closed-surface solution's preimage.
    """
    for key in weights:
        if key not in res.complex.sector_by_id:
            raise MalformedSystem(f"unknown sector {key} in weight vector")
    return {old: weights.get(new, 0) for old, new in res.sector_images}


def _commit(cx: BranchedSurfaceComplex,
            locus: SplitLocus) -> tuple[SplitResult, PlanStep]:
    """Over, else under, on a complex whose criterion passes: the
    committed split and its step record."""
    verdicts = []
    for choice in (OVER, UNDER):
        res = split(cx, locus, choice)
        verdicts.append((choice, criterion(res.complex)))
        if verdicts[-1][1].passes:
            return res, PlanStep(locus, choice, tuple(verdicts))
    (_, v_over), (_, v_under) = verdicts
    err = InvariantViolation(
        "neither the over nor the under move stays clean at "
        f"{locus.sector} {locus.entry}->{locus.exit}; "
        f"over witness {dict(v_over.neg_tisc.witness or {})}, "
        f"under witness {dict(v_under.neg_tisc.witness or {})}")
    err.verdicts = tuple(verdicts)
    raise err


def safe_split(cx: BranchedSurfaceComplex, locus: SplitLocus) -> SplitResult:
    """Split so the result stays clean, trying over before under, and
    return the committed split."""
    if not criterion(cx).passes:
        raise PreconditionFailed(
            "criterion fails on the input complex; nothing to preserve")
    return _commit(cx, locus)[0]


def run_plan(cx: BranchedSurfaceComplex,
             rows: Iterable[tuple[str, str, str]]) -> ScheduleResult:
    """Commit one safe split per row, each naming its locus in text form
    against the complex as it stands at that step, and tag failures with
    the step.  Only passing steps are committed, so a committed output's
    verdict is the next step's input verdict.  The result keeps each
    step's record and only the last complex."""
    if not criterion(cx).passes:
        raise PreconditionFailed("criterion fails on the initial complex")
    cur = cx
    steps: list[PlanStep] = []
    for i, row in enumerate(rows):
        try:
            res, step = _commit(cur, locus_from_strings(cur, *row))
        except BsgateError as exc:
            exc.args = (f"step {i}: {exc}",)
            raise
        steps.append(step)
        cur = res.complex
    return ScheduleResult(cur, tuple(steps))
