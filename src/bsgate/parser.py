"""Text format for complexes and weight sidecars.

Line-oriented, UTF-8, ``#`` starts a comment, tokens whitespace-separated.
Parsing is two-pass: declarations are collected first, references resolved
afterwards, so documents may order their lines freely.  All errors carry
1-based line/column positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
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
    _slot_fill,
)

_FORBIDDEN = set(":#") | set(" \t\r\n\f\v")


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


def _check_id(tok: str, what: str, line: int, col: int) -> str:
    if not tok or not _FORBIDDEN.isdisjoint(tok):
        raise ParseError(f"invalid {what} {tok!r} (':'/'#'/whitespace "
                         f"not allowed)", line, col)
    return tok


def _int(tok: str, what: str, line: int, col: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {tok!r}",
                         line, col) from None


@dataclass
class _SectorDecl:
    sid: str
    genus: int
    bwords: int
    line: int


@dataclass
class _WordDecl:
    sid: str
    k: int
    items: list
    verts: list
    line: int
    sid_col: int


def _parse_item(tok: str, line: int, col: int):
    parts = tok.split(":")
    if parts[0] == "seg":
        if len(parts) != 3:
            raise ParseError(f"malformed edge item {tok!r} "
                             f"(want seg:<gid>:<side>)", line, col)
        if parts[2] not in SIDES:
            raise ParseError(f"bad segment side {parts[2]!r} in {tok!r}",
                             line, col)
        _check_id(parts[1], "segment id", line, col)
        return SegItem(parts[1], parts[2])
    if parts[0] == "free":
        if len(parts) != 2:
            raise ParseError(f"malformed free item {tok!r} "
                             f"(want free:<label>)", line, col)
        _check_id(parts[1], "free-edge label", line, col)
        return FreeItem(parts[1])
    raise ParseError(f"expected edge item, got {tok!r}", line, col)


def _parse_vtx(tok: str, line: int, col: int):
    if tok == "v:smooth":
        return None
    parts = tok.split(":")
    if len(parts) == 3 and parts[0] == "v" and parts[1] == "dp":
        _check_id(parts[2], "double-point id", line, col)
        return parts[2]
    raise ParseError(f"expected vertex token (v:dp:<did> or v:smooth), "
                     f"got {tok!r}", line, col)


def _parse_end(tok: str, line: int, col: int) -> SegmentEnd:
    if tok == "free":
        return FREE_END
    parts = tok.split(":")
    if len(parts) == 3 and parts[0] == "dp":
        _check_id(parts[1], "double-point id", line, col)
        slot = _int(parts[2], "slot", line, col)
        if not 0 <= slot <= 3:
            raise ParseError(f"slot {slot} out of range 0..3", line, col)
        return SegmentEnd(parts[1], slot)
    raise ParseError(f"expected end (dp:<did>:<slot> or free), got {tok!r}",
                     line, col)


def parse_complex(text: str) -> BranchedSurfaceComplex:
    """Parse a complex document; raises :class:`ParseError` on any defect.

    Defects include syntax errors, duplicate identifiers, dangling
    references and wrong end arity at a double point, each reported with
    the offending position and name.
    """
    surface_name = None
    sector_decls: dict[str, _SectorDecl] = {}
    word_decls: list[_WordDecl] = []
    segments: dict[str, BranchSegment] = {}
    seg_lines: dict[str, int] = {}
    dps: dict[str, DoublePoint] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        col0, head = toks[0]

        if head == "surface":
            if len(toks) != 2:
                raise ParseError("surface takes exactly one name", lineno, col0)
            if surface_name is not None:
                raise ParseError("duplicate surface declaration", lineno, col0)
            surface_name = _check_id(toks[1][1], "surface name", lineno,
                                     toks[1][0])

        elif head == "sector":
            if len(toks) != 6 or toks[2][1] != "genus" or toks[4][1] != "bwords":
                raise ParseError("malformed sector line "
                                 "(want: sector <sid> genus <int> bwords <int>)",
                                 lineno, col0)
            sid = _check_id(toks[1][1], "sector id", lineno, toks[1][0])
            if sid in sector_decls:
                raise ParseError(f"duplicate sector id {sid}", lineno,
                                 toks[1][0])
            genus = _int(toks[3][1], "genus", lineno, toks[3][0])
            if genus < 0:
                raise ParseError("genus must be nonnegative", lineno,
                                 toks[3][0])
            nb = _int(toks[5][1], "bwords count", lineno, toks[5][0])
            if nb < 0:
                raise ParseError("bwords count must be nonnegative", lineno,
                                 toks[5][0])
            sector_decls[sid] = _SectorDecl(sid, genus, nb, lineno)

        elif head == "bword":
            if len(toks) < 5 or toks[3][1] != ":":
                raise ParseError("malformed bword line "
                                 "(want: bword <sid> <k> : <item> ...)",
                                 lineno, col0)
            sid = _check_id(toks[1][1], "sector id", lineno, toks[1][0])
            k = _int(toks[2][1], "word index", lineno, toks[2][0])
            body = toks[4:]
            items, verts = [], []
            for pos, (col, tok) in enumerate(body):
                if pos % 2 == 0:
                    items.append(_parse_item(tok, lineno, col))
                else:
                    verts.append(_parse_vtx(tok, lineno, col))
            if len(verts) == len(items) - 1:
                verts.append(None)  # implied smooth closing vertex
            word_decls.append(_WordDecl(sid, k, items, verts, lineno,
                                        toks[1][0]))

        elif head == "segment":
            ok = (len(toks) in (9, 12)
                  and toks[3][1] == "one" and toks[5][1] == "up"
                  and toks[7][1] == "lo"
                  and (len(toks) == 9 or toks[9][1] == "ends"))
            if not ok:
                raise ParseError("malformed segment line (want: segment <gid> "
                                 "<arc|circle> one <sid> up <sid> lo <sid> "
                                 "[ends <end> <end>])", lineno, col0)
            gid = _check_id(toks[1][1], "segment id", lineno, toks[1][0])
            if gid in segments:
                raise ParseError(f"duplicate segment id {gid}", lineno,
                                 toks[1][0])
            kind = toks[2][1]
            if kind not in ("arc", "circle"):
                raise ParseError(f"segment kind must be arc or circle, "
                                 f"got {kind!r}", lineno, toks[2][0])
            one = _check_id(toks[4][1], "sector id", lineno, toks[4][0])
            up = _check_id(toks[6][1], "sector id", lineno, toks[6][0])
            lo = _check_id(toks[8][1], "sector id", lineno, toks[8][0])
            end0 = end1 = None
            if len(toks) == 12:
                if kind == "circle":
                    raise ParseError(f"circle segment {gid} must not declare "
                                     f"ends", lineno, toks[9][0])
                end0 = _parse_end(toks[10][1], lineno, toks[10][0])
                end1 = _parse_end(toks[11][1], lineno, toks[11][0])
            elif kind == "arc":
                raise ParseError(f"arc segment {gid} must declare ends",
                                 lineno, col0)
            segments[gid] = BranchSegment(gid, kind, one, up, lo, end0, end1)
            seg_lines[gid] = lineno

        elif head == "dp":
            if len(toks) != 4 or toks[2][1] != "sign":
                raise ParseError("malformed dp line "
                                 "(want: dp <did> sign <+|->)", lineno, col0)
            did = _check_id(toks[1][1], "double-point id", lineno, toks[1][0])
            if did in dps:
                raise ParseError(f"duplicate dp id {did}", lineno, toks[1][0])
            if toks[3][1] not in ("+", "-"):
                raise ParseError("sign must be + or -", lineno, toks[3][0])
            dps[did] = DoublePoint(did, 1 if toks[3][1] == "+" else -1)

        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col0)

    if surface_name is None:
        raise ParseError("missing surface declaration")

    # -- resolution pass ---------------------------------------------------
    words_by_sector: dict[str, dict[int, _WordDecl]] = {s: {} for s in sector_decls}
    for wd in word_decls:
        decl = sector_decls.get(wd.sid)
        if decl is None:
            raise ParseError(f"dangling reference: bword names unknown "
                             f"sector {wd.sid}", wd.line, wd.sid_col)
        if not 0 <= wd.k < decl.bwords:
            raise ParseError(f"word index {wd.k} out of range for sector "
                             f"{wd.sid} (bwords {decl.bwords})", wd.line)
        if wd.k in words_by_sector[wd.sid]:
            raise ParseError(f"duplicate bword {wd.sid} {wd.k}", wd.line)
        words_by_sector[wd.sid][wd.k] = wd

        for it in wd.items:
            if isinstance(it, SegItem) and it.seg not in segments:
                raise ParseError(f"dangling reference: bword {wd.sid} {wd.k} "
                                 f"names unknown segment {it.seg}", wd.line)
        for v in wd.verts:
            if v is not None and v not in dps:
                raise ParseError(f"dangling reference: bword {wd.sid} {wd.k} "
                                 f"names unknown dp {v}", wd.line)

    for sid, decl in sector_decls.items():
        missing = sorted(set(range(decl.bwords)) - set(words_by_sector[sid]))
        if missing:
            raise ParseError(f"sector {sid} missing bword index "
                             f"{missing[0]}", decl.line)

    for gid, g in segments.items():
        for role in SIDES:
            sid = g.side(role)
            if sid not in sector_decls:
                raise ParseError(f"dangling reference: segment {gid} side "
                                 f"{role} names unknown sector {sid}",
                                 seg_lines[gid])
        for end in (g.end0, g.end1):
            if end is not None and end.dp is not None and end.dp not in dps:
                raise ParseError(f"dangling reference: segment {gid} names "
                                 f"unknown dp {end.dp}", seg_lines[gid])

    for did, fill in _slot_fill(segments.values(), dps).items():
        if fill != [1, 1, 1, 1]:
            raise ParseError(f"double point {did} has wrong end arity "
                             f"(slots filled {fill})")

    sectors = tuple(
        Sector(sid, sector_decls[sid].genus,
               tuple(BoundaryWord(tuple(words_by_sector[sid][k].items),
                                  tuple(words_by_sector[sid][k].verts))
                     for k in range(sector_decls[sid].bwords)))
        for sid in sector_decls)
    return BranchedSurfaceComplex(
        name=surface_name,
        sectors=sectors,
        segments=tuple(segments.values()),
        dps=tuple(dps.values()),
    )


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
        if g.kind == "arc" and g.end0 is not None and g.end1 is not None:
            line += f" ends {_end_str(g.end0)} {_end_str(g.end1)}"
        lines.append(line)
    for d in cx.dps:
        lines.append(f"dp {d.id} sign {'+' if d.sign > 0 else '-'}")
    return "\n".join(lines) + "\n"


def parse_weights(text: str, cx: BranchedSurfaceComplex) -> dict[str, int]:
    """Parse a weight sidecar against ``cx``; omitted sectors get 0."""
    weights = {s.id: 0 for s in cx.sectors}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        col0, head = toks[0]
        if head != "w" or len(toks) != 3:
            raise ParseError("malformed weight line (want: w <sid> <int>)",
                             lineno, col0)
        sid = toks[1][1]
        if sid not in weights:
            raise ParseError(f"dangling reference: weight names unknown "
                             f"sector {sid}", lineno, toks[1][0])
        if sid in seen:
            raise ParseError(f"duplicate weight for sector {sid}", lineno,
                             toks[1][0])
        seen.add(sid)
        val = _int(toks[2][1], "weight", lineno, toks[2][0])
        if val < 0:
            raise ParseError(f"weight for sector {sid} must be nonnegative",
                             lineno, toks[2][0])
        weights[sid] = val
    return weights

