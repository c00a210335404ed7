"""Command-line entry point.

One invocation, one report: deterministic ``key: value`` lines on
stdout with wall-clock time quarantined to a trailing comment, so
identical inputs diff byte-for-byte.  Exit codes: 0 for a completed run
(whatever the verdict), 1 for usage, parse, or file problems, 2 for
validation and domain failures, 3 when an internal invariant breaks
(a certificate that does not verify, an oracle disagreement, a split
that corrupts its output) or any other exception escapes
(``internal-error``).
"""

from __future__ import annotations

import os
import re
import sys
import time
from importlib import import_module
from types import SimpleNamespace
from typing import Optional

from . import __version__
from .errors import (
    BadMove,
    ChartError,
    InvalidLocus,
    InvariantViolation,
    MalformedSystem,
    ParseError,
    PreconditionFailed,
    WeightsNotSatisfying,
    _int,
)


class UsageError(Exception):
    pass


class OracleDisagreement(Exception):
    pass


class _Violation(Exception):
    """The input complex parses but fails validation (exit code 2)."""


# the exit-code contract, first match wins; any other exception is a bug
# and exits 3 as internal-error
_EXIT_CODES = (
    (UsageError, 1), (ParseError, 1),
    (_Violation, 2), (WeightsNotSatisfying, 2), (MalformedSystem, 2),
    (InvalidLocus, 2), (BadMove, 2), (PreconditionFailed, 2),
    (ChartError, 2),
    (OracleDisagreement, 3), (InvariantViolation, 3),
)


def _read_bytes(path_str: str) -> tuple[bytes, str]:
    """The bytes of one input file, without a leading UTF-8 byte-order
    mark, and the sha256 of all its bytes, from one read; the bytes must
    be UTF-8 text, which is checked only when they are not ASCII.  The
    mark is stripped from the bytes, not by the "utf-8-sig" codec: a
    process's first lookup of that codec costs more than decoding a
    typical input, and grids are parsed from their bytes."""
    from hashlib import sha256

    try:
        with open(path_str, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path_str}: {exc.strerror}")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            raise UsageError(f"cannot read {path_str}: not UTF-8 "
                             "text") from None
    return (data.removeprefix(b"\xef\xbb\xbf"),
            sha256(data).hexdigest())


def _read(path_str: str) -> tuple[str, str]:
    """The UTF-8 text of one input file, without a leading byte-order
    mark, and the sha256 of its bytes; the parsers split lines with
    str.splitlines, so LF, CRLF and CR endings read alike."""
    data, digest = _read_bytes(path_str)
    return data.decode("utf-8"), digest


def _load_complex(args, lines, sidecar: Optional[str] = None,
                  header: tuple[str, ...] = ()):
    """Read, digest and parse ``args.input``; the text of the file named
    by ``args.<sidecar>`` is read and digested alongside."""
    from .parser import parse_complex

    text, digest = _read(args.input)
    side_text, side_digest = (_read(getattr(args, sidecar)) if sidecar
                              else (None, None))
    lines.append(f"input-sha256: {digest}")
    if sidecar:
        lines.append(f"{sidecar}-sha256: {side_digest}")
    lines.extend(header)
    return parse_complex(text), side_text


def _load_valid_complex(args, lines, sidecar: Optional[str] = None,
                        header: tuple[str, ...] = ()):
    """:func:`_load_complex`, refusing a complex that fails validation."""
    from .surface import validate

    cx, side_text = _load_complex(args, lines, sidecar, header)
    validation = validate(cx)
    if not validation.ok():
        raise _Violation(validation.violations[0])
    return cx, side_text


def _write_out(path: str, lines: list[str], pieces: list[str]) -> None:
    """Write ``pieces`` to ``path`` as UTF-8, one at a time, and report the
    path: a grid's fibres, or a complex as one piece (0.6 MB at L600)."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(pieces)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}")
    lines.append(f"out: {path}")


def _error_code(exc: Exception) -> str:
    """The report's name for an error type: ChartError -> chart-error."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def _frac(q) -> str:
    """A Fraction as ``p/q``."""
    return f"{q.numerator}/{q.denominator}"


def _trace_str(trace: tuple) -> str:
    parts = []
    for entry in trace:
        if entry[0] == "run":
            parts.append(f"run:{entry[1]}:{entry[2]}")
        elif entry[0] == "free":
            parts.append(f"free:{entry[1]}")
        else:
            sign = "+" if entry[3] > 0 else "-"
            parts.append(f"corner:{entry[1]}:{entry[2]}:{sign}")
    return " ".join(parts) if parts else "(closed)"


def _emit_witness(lines: list[str], witness: dict) -> None:
    lines.extend(f"w {sid} {witness[sid]}" for sid in sorted(witness))


def _emit_certificate(lines: list[str], system, cert) -> None:
    """Verdict, witness and tight inequalities (form 0), or multipliers."""
    lines.append(f"feasible: {'true' if cert.feasible else 'false'}")
    if cert.feasible:
        _emit_witness(lines, cert.witness)
        lines.extend(f"tight: {tag}" for tag in sorted(
            f.tag for f in system.inequalities if f.dot(cert.witness) == 0))
    else:
        for tag in sorted(cert.multipliers):
            lines.append(f"multiplier {tag} {_frac(cert.multipliers[tag])}")


# -- subcommand bodies ---------------------------------------------------


def _cmd_validate(args, lines) -> int:
    from .surface import validate

    cx, _ = _load_complex(args, lines)
    report = validate(cx)
    lines.append(f"name: {cx.name}")
    lines.append(f"sectors: {len(cx.sectors)}")
    lines.append(f"segments: {len(cx.segments)}")
    lines.append(f"double-points: {len(cx.dps)}")
    lines.append(f"violations: {len(report.violations)}")
    for v in report.violations:
        lines.append(f"violation: {v}")
    return 0 if report.ok() else 2


def _cmd_detect(args, lines) -> int:
    from .weights import (CONCLUSION, ISC, NEG_TISC, brute_force,
                          build_system, criterion, feasible)

    if args.oracle_bound is not None:  # refused before any work is done
        if args.kind == "criterion":
            raise UsageError("--oracle-bound needs a single system kind, "
                             "not criterion")
        if args.oracle_bound < 1:
            raise UsageError(f"--oracle-bound must be at least 1, "
                             f"got {args.oracle_bound}")
    cx, _ = _load_valid_complex(args, lines, header=(f"kind: {args.kind}",))
    if args.kind == "criterion":
        verdict = criterion(cx)
        lines.append(f"passes: {'true' if verdict.passes else 'false'}")
        for kind, cert in ((NEG_TISC, verdict.neg_tisc), (ISC, verdict.isc)):
            lines.append(f"{kind}: "
                         f"{'feasible' if cert.feasible else 'infeasible'}")
            if cert.feasible:
                _emit_witness(lines, cert.witness)
        if verdict.passes:
            lines.append(f"conclusion: {CONCLUSION}")
        return 0
    system = build_system(cx, args.kind)
    cert = feasible(system)
    _emit_certificate(lines, system, cert)
    if args.oracle_bound is not None:
        lines.append(f"oracle-bound: {args.oracle_bound}")
        found = brute_force(system, args.oracle_bound)
        lines.append(f"oracle-witness: {'found' if found else 'none'}")
        if found and not cert.feasible:
            lines.append("oracle-agreement: fail")
            raise OracleDisagreement(
                f"brute force found {found} but the solver said infeasible")
        lines.append("oracle-agreement: ok")
    return 0


def _cmd_assemble(args, lines) -> int:
    from .assembly import assemble
    from .parser import parse_weights

    cx, wtext = _load_valid_complex(args, lines, sidecar="weights")
    weights = parse_weights(wtext, cx)
    asm = assemble(cx, weights, args.kind)
    lines.append(f"kind: {args.kind}")
    lines.append(f"components: {len(asm.components)}")
    for i, comp in enumerate(asm.components):
        lines.append(f"component {i} faces {len(comp.faces)} euler "
                     f"{comp.euler} class {comp.classification}")
        for trace in comp.boundaries:
            lines.append(f"component {i} boundary {_trace_str(trace)}")
    return 0


def _describe_split(lines, res) -> None:
    lines.append(f"choice: {res.choice}")
    lines.append(f"sectors: {len(res.complex.sectors)}")
    lines.append(f"double-points: {len(res.complex.dps)}")
    if res.dp_left is not None:
        left = res.complex.dp_by_id[res.dp_left]
        right = res.complex.dp_by_id[res.dp_right]
        lines.append(f"dp-left: {left.id} {'+' if left.sign > 0 else '-'}")
        lines.append(f"dp-right: {right.id} "
                     f"{'+' if right.sign > 0 else '-'}")
        # the left/right sign pattern is a declared convention; a global
        # mirror reflection swaps it coherently
        lines.append("convention: over makes the left crossing negative, "
                     "under the right (mirror-dependent)")
    for old, new in res.sector_images:
        lines.append(f"image {old} {new}")


def _cmd_split(args, lines) -> int:
    from .parser import print_complex
    from .splitting import locus_from_strings, safe_split, split

    cx, _ = _load_valid_complex(args, lines)
    locus = locus_from_strings(cx, args.sector, args.entry, args.exit)
    if args.choice == "safe":
        res = safe_split(cx, locus)
        lines.append("criterion-preserved: true")
    else:
        res = split(cx, locus, args.choice)
    _describe_split(lines, res)
    if args.out:
        _write_out(args.out, lines, [print_complex(res.complex)])
    return 0


def _cmd_schedule(args, lines) -> int:
    from .parser import print_complex
    from .splitting import run_plan

    cx, ptext = _load_valid_complex(args, lines, sidecar="plan")
    rows = []
    for lno, raw in enumerate(ptext.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError("plan rows need <sector> <entry> <exit>",
                             line=lno)
        rows.append(tuple(fields))
    result = run_plan(cx, rows)
    lines.append(f"steps: {len(result.steps)}")
    for i, step in enumerate(result.steps):
        lines.append(f"step {i} sector {step.locus.sector} "
                     f"choice {step.choice}")
    lines.append(f"final-sectors: {len(result.complex.sectors)}")
    lines.append(f"final-double-points: {len(result.complex.dps)}")
    # run_plan refuses an initial complex that fails and commits only
    # steps whose output passes, so every plan it returns ends passing
    lines.append("criterion: passes")
    if args.out:
        _write_out(args.out, lines, [print_complex(result.complex)])
    return 0


def _grid_flag(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_int, text.split(",")))
    except ValueError:
        raise UsageError(f"--grid needs comma-separated integers, "
                         f"got {text!r}") from None


def _cmd_chart(args, lines) -> int:
    from . import charts

    sub = args.chart_cmd
    data, digest = _read_bytes(args.input)
    lines.append(f"input-sha256: {digest}")
    grid = charts.parse_grid(data)
    del data  # megabytes on a large grid, and nothing below reads it
    if sub != "extend" and args.grid is not None:
        want = _grid_flag(args.grid)
        if want != grid.shape:
            raise ChartError(f"grid shape {grid.shape} does not match "
                             f"--grid {want}")
    if sub == "holonomy":
        z1 = charts.holonomy_map(grid, args.z0, args.step)
        lines.append("convention: leaves follow dz/dtheta = f with "
                     "increasing theta")
        lines.append("z1: %.17g" % z1)
        lines.append("displacement: %.17g" % (z1 - args.z0))
        return 0
    if sub == "purify-box":
        grid = charts.purify_box(grid, args.y0, args.y1, args.delta,
                                 args.tol)
    elif sub == "purify-cyl":
        grid = charts.purify_cylinder(grid, args.r0, args.mode, args.tol)
    elif sub == "extend":
        # --grid sizes the OUTPUT here: NX is the new radial sample
        # count; anything after it must be NY,NZ of the boundary data
        want = _grid_flag(args.grid) if args.grid is not None else (65,)
        if want[1:] and want[1:] != grid.shape:
            raise ChartError(f"boundary shape {grid.shape} does not match "
                             f"--grid {want}")
        grid = charts.extend_cell(grid, args.r0, args.radius, want[0],
                                  args.tol)
    check = (charts.check_box if sub in ("check-box", "purify-box")
             else charts.check_cylinder)
    report = check(grid, args.tol)
    lines.append("confoliation: "
                 f"{'true' if report.is_confoliation else 'false'}")
    lines.append(f"contact-cells: {int(report.contact_mask.sum())}"
                 f"/{report.contact_mask.size}")
    lines.append("max-violation: %.17g" % report.max_violation)
    lines.append("tol: %.17g" % report.tol)
    if getattr(args, "out", None):
        _write_out(args.out, lines, charts._grid_pieces(grid))
    return 0


# most seeds selftest checks: 10^5 seeds take about 22 s (about 0.22 ms
# a seed) on a 2-vCPU x86-64 VM; CI runs 200 and the benchmark 1,000
_MAX_SEEDS = 10 ** 5


def _cmd_selftest(args, lines) -> int:
    from . import charts
    from .gen import random_complex
    from .weights import KINDS, brute_force, build_system, feasible

    if args.seeds < 1:  # no system solved is no check passed
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    if args.seeds > _MAX_SEEDS:
        raise UsageError(f"--seeds must be at most {_MAX_SEEDS}, "
                         f"got {args.seeds}")
    seed_text = os.environ.get("BSGATE_SEED", "0")
    try:
        base = _int(seed_text)
    except ValueError:
        raise UsageError(f"BSGATE_SEED must be an integer, "
                         f"got {seed_text!r}") from None
    lines.append(f"seed-base: {base}")
    solver_runs = 0
    for seed in range(base, base + args.seeds):
        cx = random_complex(seed)
        for kind in KINDS:
            system = build_system(cx, kind)
            try:
                cert = feasible(system)
            except InvariantViolation as exc:
                exc.args = (f"seed {seed} kind {kind}: {exc}",)
                raise
            # a feasible witness has already passed verify_certificate
            if not cert.feasible and brute_force(system, 3) is not None:
                raise OracleDisagreement(
                    f"seed {seed} kind {kind}: oracle disagrees")
            solver_runs += 1
    lines.append(f"solver-runs: {solver_runs}")
    box = charts.sample_box(lambda x, y, z: -1.0 - y, (9, 9, 9))
    if not charts.check_box(box).is_contact:
        raise InvariantViolation("selftest chart check failed")
    if float(abs(charts.contact_oracle_box(box) - 1.0).max()) > 1e-12:
        raise InvariantViolation("selftest oracle check failed")
    ann = charts.sample_annulus(lambda t, z: -0.05 + 0 * t, (8, 9))
    z1 = charts.holonomy_map(ann, 0.0, 1e-2)
    if abs(z1 + 0.1 * 3.141592653589793) > 1e-9:
        raise InvariantViolation("selftest holonomy check failed")
    lines.append("selftest: ok")
    return 0


# -- parser and dispatch -------------------------------------------------

# weights.KINDS, splitting.CHOICES and (charts.INNER_CONTACT,
# charts.OUTER_CONTACT), spelled out so that building the parser loads no
# layer
_KINDS = ("neg-tisc", "pos-tisc", "isc")
_CHOICES = ("over", "under", "neutral")
_MODES = ("inner", "outer")


def _arg(*flags, **kwargs):
    return flags, kwargs


_INPUT = _arg("input")
_OUT = _arg("--out", default=None)
_GRID = _arg("--grid", default=None, metavar="NX,NY,NZ")
_TOL = _arg("--tol", type=float, default=1e-9)
_R0 = _arg("--r0", type=float, required=True)

# one row per command, in the order --help lists them: its help line,
# its arguments (for a command with subcommands, a table of each one's
# arguments), its handler and the layers it runs; main loads the layers,
# and hashlib for a command that reads a file, after reading argv, so
# help and usage errors load none, and before the clock starts, so
# # duration-ms leaves loading out; the handlers import their names from
# them locally, so a command loads no other layer
_COMMANDS = {
    "validate": ("structural checks on a complex", (_INPUT,),
                 _cmd_validate, ("parser", "surface")),
    "detect": ("decide a weight-system kind", (
        _arg("--kind", required=True, choices=_KINDS + ("criterion",)),
        _arg("--oracle-bound", type=int, default=None), _INPUT),
        _cmd_detect, ("parser", "surface", "weights")),
    "assemble": ("glue a carried surface", (
        _arg("--kind", required=True, choices=_KINDS),
        _arg("--weights", required=True), _INPUT),
        _cmd_assemble, ("parser", "surface", "assembly")),
    "split": ("one splitting move", (
        _arg("--sector", required=True),
        _arg("--entry", required=True, metavar="W:K:SIDE"),
        _arg("--exit", required=True, metavar="W:K:SIDE"),
        _arg("--choice", required=True, choices=_CHOICES + ("safe",)),
        _OUT, _INPUT), _cmd_split, ("parser", "surface", "splitting")),
    "schedule": ("run a splitting plan", (
        _arg("--plan", required=True), _OUT, _INPUT),
        _cmd_schedule, ("parser", "surface", "splitting")),
    "chart": ("slope-function checks", {
        "check-box": (_INPUT, _GRID, _TOL),
        "check-cyl": (_INPUT, _GRID, _TOL),
        "purify-box": (_INPUT, _GRID, _TOL, _OUT,
                       _arg("--y0", type=float, required=True),
                       _arg("--y1", type=float, required=True),
                       _arg("--delta", type=float, required=True)),
        "purify-cyl": (_INPUT, _GRID, _TOL, _OUT, _R0,
                       _arg("--mode", required=True, choices=_MODES)),
        "extend": (_INPUT, _GRID, _TOL, _OUT, _R0,
                   _arg("--radius", type=float, default=1.0)),
        "holonomy": (_INPUT, _GRID, _arg("--z0", type=float, required=True),
                     _arg("--step", type=float, default=1e-3)),
    }, _cmd_chart, ("charts",)),
    "selftest": ("seeded end-to-end checks", (
        _arg("--seeds", type=int, default=10),),
        _cmd_selftest, ("gen", "weights", "charts")),
}


# the top level's help line; the module docstring is stripped under -OO
_DESCRIPTION = ("Decide weight-system verdicts on branched-surface "
                "complexes, split them, and check slope-function charts.")
_HELP = ("-h", "--help")


def _level(path: tuple[str, ...]) -> tuple:
    """The help line, arguments and subcommands (their dest and table) of
    the parser ``path`` names: the top's subcommands are the command
    table's rows, and a command's are the table in its arguments entry,
    whose dest is the command's name and ``_cmd``."""
    about, args = (_COMMANDS[path[0]][:2] if path
                   else (_DESCRIPTION, _COMMANDS))
    for name in path[1:]:
        about, args = "", args[name]
    if isinstance(args, dict):
        return about, (), ("_".join((*path, "cmd")), args)
    return about, args, None


def _dest(names: tuple[str, ...]) -> str:
    return names[0].lstrip("-").replace("-", "_")


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        raise UsageError(f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")


def _negative_number(token: str) -> bool:
    """Whether ``token`` is a minus and a decimal number: digits, or
    digits, a point and digits, the first digits optional.  One final
    newline is allowed, as a regular expression's ``$`` allows it."""
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    if not dot:
        return whole.isdecimal()
    return frac.isdecimal() and (whole + "0").isdecimal()


def _reading(token: str, flags: dict) -> Optional[tuple]:
    """How a parser with ``flags`` reads ``token`` before any ``--``:
    None for a positional, else the flag it names ("" for an unknown
    option) and the value given in the same token, or None.  A long flag
    may be cut to a unique prefix; an ambiguous one is an error."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        hits = [flag for flag in flags if flag.startswith(name)]
        value = value if eq else None
    else:  # a one-letter flag with a value glued on
        hits = [token[:2]] if token[:2] in flags else []
        value = token[2:]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {token} could match "
                         f"{', '.join(hits)}")
    if hits:
        return hits[0], value
    if " " in token or _negative_number(token):
        return None
    return "", None


def _usage(names: tuple[str, ...], kwargs: dict) -> str:
    if names[0][0] != "-":
        return names[0]
    choices = kwargs.get("choices")
    shown = f"{names[0]} " + (kwargs.get("metavar")
                              or (choices and "{%s}" % ",".join(choices))
                              or _dest(names).upper())
    return shown if kwargs.get("required") else f"[{shown}]"


def _help(path: tuple[str, ...]) -> str:
    """The help of the parser ``path`` names, from the command table:
    its subcommands, then each argument with its type, choices and
    default or whether it is required."""
    about, args, sub = _level(path)
    usage = ["usage: bsgate", *path, "[-h]"]
    usage += [_usage(names, kwargs) for names, kwargs in args]
    rows = []
    if sub:
        usage.append("{%s} ..." % ",".join(sub[1]))
        rows += [(name, _level((*path, name))[0]) for name in sub[1]]
    for names, kwargs in args:
        notes = [kwargs["type"].__name__] if "type" in kwargs else []
        if kwargs.get("required") or names[0][0] != "-":
            notes.append("required")
        elif kwargs.get("default") is not None:
            notes.append(f"default {kwargs['default']}")
        rows.append((_usage(names, kwargs).strip("[]"), ", ".join(notes)))
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(shown) for shown, _ in rows)
    return "\n".join([" ".join(usage), "", *([about, ""] if about else []),
                      *(f"  {shown:<{width}}  {notes}".rstrip()
                        for shown, notes in rows)]) + "\n"


def _print(text: str) -> None:
    """Write text to stdout and flush it.  Once its reader has gone (a
    pipe whose read end is closed), stdout is pointed at os.devnull, as
    the signal module's docs advise, so that neither the rest of the
    report nor the flush at exit raises: the command keeps its own exit
    code and prints no traceback."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _parse_level(path: tuple[str, ...], tokens: list[str], values: dict,
                 extras: list[str]) -> bool:
    """Read ``tokens`` with the parser ``path`` names, then with the
    subcommand's that takes the rest: options and positionals in any
    order, the last repeated flag winning, ``--`` ending the options, a
    bad value refused when it is reached, then missing required
    arguments.  Sets ``values`` and collects in ``extras`` the tokens no
    argument takes.  Returns False after printing help."""
    _, args, sub = _level(path)
    flags = dict.fromkeys(_HELP)
    positional = None
    for names, kwargs in args:
        values[_dest(names)] = kwargs.get("default")
        if names[0][0] == "-":
            flags.update(dict.fromkeys(names, (names, kwargs)))
        else:
            positional = names
    n = len(tokens)
    mark = tokens.index("--") if "--" in tokens else n
    readings = [_reading(token, flags) for token in tokens[:mark]]
    readings += [None] * (n - mark)
    seen, i = set(), 0
    while i < n:
        if not readings[i]:  # a run of positionals, up to the next option
            end = next((k for k in range(i + 1, n) if readings[k]), n)
            first = i + (i == mark)  # a leading -- is part of the run
            if sub and first < n:
                # the subcommand takes the rest; a leading -- is its name
                _check_choice(sub[0], tokens[i], sub[1])
                values[sub[0]] = tokens[i]
                return _parse_level((*path, tokens[i]), tokens[i + 1:],
                                    values, extras)
            if positional and positional not in seen and first < n:
                values[_dest(positional)] = tokens[first]
                seen.add(positional)
                i = first + 1 + (first + 1 == mark)  # and a -- after it
            extras.extend(tokens[i:end])
            i = end
            continue
        flag, value = readings[i]
        i += 1
        if not flag:
            extras.append(tokens[i - 1])
        elif flag in _HELP:
            # -hh reads as -h -h; any other value given to help is refused
            if value is not None and (flag == "--help" or
                                      not value or value.lstrip("h")):
                ignored = value.lstrip("h") if flag == "-h" else value
                raise UsageError("argument -h/--help: ignored explicit "
                                 f"argument {ignored!r}")
            _print(_help(path))
            return False
        else:
            names, kwargs = flags[flag]
            name = "/".join(names)
            if value is None:
                if i == n or i == mark or readings[i]:
                    raise UsageError(f"argument {name}: expected one "
                                     "argument")
                value, i = tokens[i], i + 1
            convert = kwargs.get("type", str)
            try:
                value = convert(value)
            except ValueError:
                raise UsageError(f"argument {name}: invalid "
                                 f"{convert.__name__} value: "
                                 f"{value!r}") from None
            if "choices" in kwargs:
                _check_choice(name, value, kwargs["choices"])
            values[_dest(names)] = value
            seen.add(names)
    missing = ["/".join(names) for names, kwargs in args if names not in seen
               and (kwargs.get("required") or names == positional)]
    if missing or sub:  # a subcommand found has taken the rest
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing or [sub[0]]))
    return True


def _parse_args(argv) -> Optional[SimpleNamespace]:
    """``argv`` read against the command table: the namespace, or None
    after printing help.  A usage error raises :class:`UsageError`."""
    values, extras = {}, []
    if not _parse_level((), list(argv), values, extras):
        return None
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except UsageError as exc:
        print(f"error: usage-error: {exc}", file=sys.stderr)
        return 1
    if args is None:  # --help
        return 0
    lines = [f"bsgate-report {args.cmd}", f"version: {__version__}"]
    _, _, handler, layers = _COMMANDS[args.cmd]
    started = time.monotonic()
    try:
        for layer in layers:  # a layer that fails to load is a bug, too
            import_module(f".{layer}", __package__)
        if hasattr(args, "input"):  # an input positional: a file to digest
            import_module("hashlib")
        started = time.monotonic()
        code = handler(args, lines)
    except Exception as exc:
        code = next((c for t, c in _EXIT_CODES if isinstance(exc, t)), None)
        if code is None:  # a bug: still one report, exit code 3
            lines.append(f"error: internal-error: {type(exc).__name__}: "
                         f"{exc}")
            code = 3
        elif isinstance(exc, _Violation):
            lines.append(f"violation: {exc}")
        else:
            lines.append(f"error: {_error_code(exc)}: {exc}")
    _print("\n".join(lines) + "\n")
    _print(f"# duration-ms {int((time.monotonic() - started) * 1000)}\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
