"""Text format for complexes and weight sidecars.

Line-oriented, UTF-8, ``#`` starts a comment, tokens whitespace-separated.
Declarations are collected first and the complex built from them checks
their references, so documents may order their lines freely.  Each line
is split once; a token's 1-based column is found only to report an error.
Integers are read by ``errors._int``, which refuses over-long ones too.

- Line and column: every error of the first pass (a malformed line
  points at its first token), a bword naming an unknown sector, and
  every weight-sidecar error.
- Line only: a word index out of range, a duplicate or missing bword,
  and an unknown segment, dp or sector that the constructor refuses, at
  the line of the bword or segment that names it.
- Neither: ``missing surface declaration`` and wrong end arity at a
  double point.
"""

from __future__ import annotations

from . import errors
from .errors import InvariantViolation, ParseError
from .surface import (
    FREE_END,
    SIDES,
    BoundaryWord,
    BranchSegment,
    BranchedSurfaceComplex,
    DoublePoint,
    FreeItem,
    Sector,
    SegItem,
    SegmentEnd,
)


def _tokens(line: str) -> list[tuple[int, str]]:
    """(1-based column, token) pairs of ``line`` before any ``#``.

    Only whitespace lies between the end of one token and the start of
    the next, so the first match of a token from there is its own start.
    """
    code = line.split("#", 1)[0]
    pairs, pos = [], 0
    for tok in code.split():
        pos = code.index(tok, pos)
        pairs.append((pos + 1, tok))
        pos += len(tok)
    return pairs


class _Bad(Exception):
    """A defect at token ``args[1]`` of the line being read; :meth:`at`
    makes it the :class:`ParseError` to raise, with that token's column."""

    def at(self, line: int, raw: str) -> ParseError:
        return ParseError(self.args[0], line, _tokens(raw)[self.args[1]][0])


def _check_id(tok: str, what: str, j: int) -> str:
    # ids are whitespace-split tokens of the text before any '#', or
    # ':'-split parts of one, so neither whitespace nor '#' reaches here
    if not tok or ":" in tok:
        raise _Bad(f"invalid {what} {tok!r} (':'/'#'/whitespace "
                   f"not allowed)", j)
    return tok


def _int(tok: str, what: str, j: int, nonneg: str = "") -> int:
    try:
        val = errors._int(tok)
    except ValueError:
        raise _Bad(f"expected integer {what}, got {tok!r}", j) from None
    if nonneg and val < 0:  # nonneg names what must not be negative
        raise _Bad(f"{nonneg} must be nonnegative", j)
    return val


def _parse_item(tok: str, j: int):
    parts = tok.split(":")
    if parts[0] == "seg":
        if len(parts) != 3:
            raise _Bad(f"malformed edge item {tok!r} "
                       f"(want seg:<gid>:<side>)", j)
        if parts[2] not in SIDES:
            raise _Bad(f"bad segment side {parts[2]!r} in {tok!r}", j)
        return SegItem(_check_id(parts[1], "segment id", j), parts[2])
    if parts[0] == "free":
        if len(parts) != 2:
            raise _Bad(f"malformed free item {tok!r} (want free:<label>)", j)
        return FreeItem(_check_id(parts[1], "free-edge label", j))
    raise _Bad(f"expected edge item, got {tok!r}", j)


def _parse_vtx(tok: str, j: int):
    parts = tok.split(":")
    if len(parts) == 3 and parts[0] == "v" and parts[1] == "dp":
        return _check_id(parts[2], "double-point id", j)
    raise _Bad(f"expected vertex token (v:dp:<did> or v:smooth), "
               f"got {tok!r}", j)


def _parse_end(tok: str, j: int) -> SegmentEnd:
    if tok == "free":
        return FREE_END
    parts = tok.split(":")
    if len(parts) == 3 and parts[0] == "dp":
        _check_id(parts[1], "double-point id", j)
        slot = _int(parts[2], "slot", j)
        if not 0 <= slot <= 3:
            raise _Bad(f"slot {slot} out of range 0..3", j)
        return SegmentEnd(parts[1], slot)
    raise _Bad(f"expected end (dp:<did>:<slot> or free), got {tok!r}", j)


def parse_complex(text: str) -> BranchedSurfaceComplex:
    """Parse a complex document; raises :class:`ParseError` on any defect.

    Defects include syntax errors, duplicate identifiers, dangling
    references and wrong end arity at a double point, each reported with
    the offending name and, where the module docstring says so, position.
    """
    surface_name = None
    sector_decls: dict[str, tuple] = {}  # sid -> (genus, bwords, line)
    word_decls: list[tuple] = []  # (sid, k, word, line), in file order
    segments: dict[str, BranchSegment] = {}
    decl_lines: dict[tuple, int] = {}  # the line of each part a refusal names
    dps: dict[str, DoublePoint] = {}
    vtx = {"v:smooth": None}  # each vertex token, read once per document
    lines = text.splitlines()

    try:
        for lineno, raw in enumerate(lines, start=1):
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            head, n = toks[0], len(toks)

            if head == "surface":
                if n != 2:
                    raise _Bad("surface takes exactly one name", 0)
                if surface_name is not None:
                    raise _Bad("duplicate surface declaration", 0)
                surface_name = _check_id(toks[1], "surface name", 1)

            elif head == "sector":
                if n != 6 or toks[2] != "genus" or toks[4] != "bwords":
                    raise _Bad("malformed sector line (want: sector <sid> "
                               "genus <int> bwords <int>)", 0)
                sid = _check_id(toks[1], "sector id", 1)
                if sid in sector_decls:
                    raise _Bad(f"duplicate sector id {sid}", 1)
                genus = _int(toks[3], "genus", 3, "genus")
                nb = _int(toks[5], "bwords count", 5, "bwords count")
                sector_decls[sid] = (genus, nb, lineno)

            elif head == "bword":
                if n < 5 or toks[3] != ":":
                    raise _Bad("malformed bword line "
                               "(want: bword <sid> <k> : <item> ...)", 0)
                sid = _check_id(toks[1], "sector id", 1)
                k = _int(toks[2], "word index", 2)
                items, verts = [], []
                for j in range(4, n):
                    tok = toks[j]
                    if j % 2 == 0:
                        items.append(_parse_item(tok, j))
                    else:
                        if tok not in vtx:
                            vtx[tok] = _parse_vtx(tok, j)
                        verts.append(vtx[tok])
                if len(verts) == len(items) - 1:
                    verts.append(None)  # implied smooth closing vertex
                word = BoundaryWord(tuple(items), tuple(verts))
                word_decls.append((sid, k, word, lineno))

            elif head == "segment":
                if not (n in (9, 12) and toks[3] == "one" and toks[5] == "up"
                        and toks[7] == "lo" and (n == 9 or toks[9] == "ends")):
                    raise _Bad("malformed segment line (want: segment <gid> "
                               "<arc|circle> one <sid> up <sid> lo <sid> "
                               "[ends <end> <end>])", 0)
                gid = _check_id(toks[1], "segment id", 1)
                if gid in segments:
                    raise _Bad(f"duplicate segment id {gid}", 1)
                kind = toks[2]
                if kind not in ("arc", "circle"):
                    raise _Bad(f"segment kind must be arc or circle, "
                               f"got {kind!r}", 2)
                one = _check_id(toks[4], "sector id", 4)
                up = _check_id(toks[6], "sector id", 6)
                lo = _check_id(toks[8], "sector id", 8)
                end0 = end1 = None
                if n == 12:
                    if kind == "circle":
                        raise _Bad(f"circle segment {gid} must not declare "
                                   f"ends", 9)
                    end0 = _parse_end(toks[10], 10)
                    end1 = _parse_end(toks[11], 11)
                elif kind == "arc":
                    raise _Bad(f"arc segment {gid} must declare ends", 0)
                segments[gid] = BranchSegment(gid, kind, one, up, lo, end0,
                                              end1)
                decl_lines["segment", gid] = lineno

            elif head == "dp":
                if n != 4 or toks[2] != "sign":
                    raise _Bad("malformed dp line "
                               "(want: dp <did> sign <+|->)", 0)
                did = _check_id(toks[1], "double-point id", 1)
                if did in dps:
                    raise _Bad(f"duplicate dp id {did}", 1)
                if toks[3] not in ("+", "-"):
                    raise _Bad("sign must be + or -", 3)
                dps[did] = DoublePoint(did, 1 if toks[3] == "+" else -1)

            else:
                raise _Bad(f"unknown directive {head!r}", 0)
    except _Bad as e:
        raise e.at(lineno, raw) from None

    if surface_name is None:
        raise ParseError("missing surface declaration")

    # -- resolution pass ---------------------------------------------------
    words_by_sector: dict[str, dict[int, BoundaryWord]] = {
        s: {} for s in sector_decls}
    for sid, k, word, line in word_decls:
        if sid not in sector_decls:
            raise _Bad(f"dangling reference: bword names unknown sector "
                       f"{sid}", 1).at(line, lines[line - 1])
        nb = sector_decls[sid][1]
        if not 0 <= k < nb:
            raise ParseError(f"word index {k} out of range for sector "
                             f"{sid} (bwords {nb})", line)
        words = words_by_sector[sid]
        if k in words:
            raise ParseError(f"duplicate bword {sid} {k}", line)
        words[k] = word
        decl_lines["bword", sid, k] = line

    # every word kept is in range and no index twice, so a short sector
    # lacks an index, and its least one is at most its count of words
    for sid, (_, nb, line) in sector_decls.items():
        words = words_by_sector[sid]
        if len(words) < nb:
            missing = set(range(len(words) + 1)) - words.keys()
            raise ParseError(f"sector {sid} missing bword index "
                             f"{min(missing)}", line)

    sectors = tuple(
        Sector(sid, genus, tuple(words_by_sector[sid][k] for k in range(nb)))
        for sid, (genus, nb, _) in sector_decls.items())
    try:
        return BranchedSurfaceComplex(surface_name, sectors,
                                      tuple(segments.values()),
                                      tuple(dps.values()))
    except InvariantViolation as e:  # reported on its part's line, if any
        raise ParseError(str(e), decl_lines.get(e.part)) from None


def _item_str(it) -> str:
    if isinstance(it, SegItem):
        return f"seg:{it.seg}:{it.side}"
    return f"free:{it.label}"


def _vtx_str(v) -> str:
    return "v:smooth" if v is None else f"v:dp:{v}"


def _end_str(end: SegmentEnd) -> str:
    return "free" if end.dp is None else f"dp:{end.dp}:{end.slot}"


def print_complex(cx: BranchedSurfaceComplex) -> str:
    """Canonical document for ``cx``; closing vertices are explicit."""
    lines = [f"surface {cx.name}"]
    for s in cx.sectors:
        lines.append(f"sector {s.id} genus {s.genus} bwords {len(s.words)}")
    for s in cx.sectors:
        for k, w in enumerate(s.words):
            parts = []
            for i, it in enumerate(w.items):
                parts.append(_item_str(it))
                parts.append(_vtx_str(w.verts[i]))
            lines.append(f"bword {s.id} {k} : " + " ".join(parts))
    for g in cx.segments:
        line = f"segment {g.id} {g.kind} one {g.one} up {g.up} lo {g.lo}"
        if g.kind == "arc":
            line += f" ends {_end_str(g.end0)} {_end_str(g.end1)}"
        lines.append(line)
    for d in cx.dps:
        lines.append(f"dp {d.id} sign {'+' if d.sign > 0 else '-'}")
    return "\n".join(lines) + "\n"


def parse_weights(text: str, cx: BranchedSurfaceComplex) -> dict[str, int]:
    """Parse a weight sidecar against ``cx``; omitted sectors get 0."""
    weights = {s.id: 0 for s in cx.sectors}
    seen: set[str] = set()
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            if toks[0] != "w" or len(toks) != 3:
                raise _Bad("malformed weight line (want: w <sid> <int>)", 0)
            sid = toks[1]
            if sid not in weights:
                raise _Bad(f"dangling reference: weight names unknown "
                           f"sector {sid}", 1)
            if sid in seen:
                raise _Bad(f"duplicate weight for sector {sid}", 1)
            seen.add(sid)
            weights[sid] = _int(toks[2], "weight", 2,
                                f"weight for sector {sid}")
    except _Bad as e:
        raise e.at(lineno, raw) from None
    return weights
