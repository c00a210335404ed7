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

import argparse
import hashlib
import os
import re
import sys
import time
from importlib import import_module
from pathlib import Path
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
    TracingInconsistency,
    WeightsNotSatisfying,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the report contract
    # reserves 2 for validation failures, so reroute to exit code 1
    def error(self, message):
        raise UsageError(message)


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
    (TracingInconsistency, 3),
)


def _read_bytes(path_str: str) -> tuple[bytes, str]:
    """The bytes of one input file and their sha256, from one read; the
    bytes must be UTF-8 text, which is checked only when they are not
    ASCII."""
    try:
        data = Path(path_str).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path_str}: {exc.strerror}")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            raise UsageError(f"cannot read {path_str}: not UTF-8 "
                             "text") from None
    return data, hashlib.sha256(data).hexdigest()


def _read(path_str: str) -> tuple[str, str]:
    """The UTF-8 text of one input file and the sha256 of its bytes; the
    parsers split lines with str.splitlines, so LF, CRLF and CR endings
    read alike."""
    data, digest = _read_bytes(path_str)
    return data.decode("utf-8"), digest


def _load_valid_complex(args, lines, sidecar: Optional[str] = None,
                        header: tuple[str, ...] = ()):
    """Read, digest, parse and validate ``args.input``; the text of the
    file named by ``args.<sidecar>`` is read and digested alongside."""
    from .parser import parse_complex
    from .surface import validate

    text, digest = _read(args.input)
    side_text, side_digest = (_read(getattr(args, sidecar)) if sidecar
                              else (None, None))
    lines.append(f"input-sha256: {digest}")
    if sidecar:
        lines.append(f"{sidecar}-sha256: {side_digest}")
    lines.extend(header)
    cx = parse_complex(text)
    validation = validate(cx)
    if not validation.ok():
        raise _Violation(validation.violations[0])
    return cx, side_text


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


def _emit_certificate(lines: list[str], cert) -> None:
    lines.append(f"feasible: {'true' if cert.feasible else 'false'}")
    if cert.feasible:
        for sid in sorted(cert.witness):
            lines.append(f"w {sid} {cert.witness[sid]}")
        for tag in sorted(t for t, s in cert.slacks.items() if s == 0):
            lines.append(f"tight: {tag}")
    else:
        for tag in sorted(cert.multipliers):
            lines.append(f"multiplier {tag} {_frac(cert.multipliers[tag])}")


# -- subcommand bodies ---------------------------------------------------


def _cmd_validate(args, lines) -> int:
    from .parser import parse_complex
    from .surface import validate

    text, digest = _read(args.input)
    lines.append(f"input-sha256: {digest}")
    cx = parse_complex(text)
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
    from .weights import (ISC, NEG_TISC, brute_force, build_system,
                          criterion, feasible)

    cx, _ = _load_valid_complex(args, lines, header=(f"kind: {args.kind}",))
    if args.kind == "criterion":
        verdict = criterion(cx)
        lines.append(f"passes: {'true' if verdict.passes else 'false'}")
        for kind, cert in ((NEG_TISC, verdict.neg_tisc), (ISC, verdict.isc)):
            lines.append(f"{kind}: "
                         f"{'feasible' if cert.feasible else 'infeasible'}")
            if cert.feasible:
                for sid in sorted(cert.witness):
                    lines.append(f"w {sid} {cert.witness[sid]}")
        if verdict.passes:
            lines.append(f"conclusion: {verdict.conclusion}")
        return 0
    system = build_system(cx, args.kind)
    cert = feasible(system)
    _emit_certificate(lines, cert)
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
    lines.append(f"choice: {res.record.choice}")
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
    for old, new in res.record.sector_images:
        lines.append(f"image {old} {new}")


def _cmd_split(args, lines) -> int:
    from .parser import print_complex
    from .splitting import locus_from_strings, safe_split, split

    cx, _ = _load_valid_complex(args, lines)
    locus = locus_from_strings(cx, args.sector, args.entry, args.exit)
    if args.choice == "safe":
        res = safe_split(cx, locus).split
        lines.append("criterion-preserved: true")
    else:
        res = split(cx, locus, args.choice)
    _describe_split(lines, res)
    if args.out:
        Path(args.out).write_text(print_complex(res.complex))
        lines.append(f"out: {args.out}")
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
    for step in result.steps:
        lines.append(f"step {step.index} sector {step.locus.sector} "
                     f"choice {step.choice}")
    lines.append(f"final-sectors: {len(result.complex.sectors)}")
    lines.append(f"final-double-points: {len(result.complex.dps)}")
    lines.append(
        f"criterion: {'passes' if result.verdict.passes else 'fails'}")
    if args.out:
        Path(args.out).write_text(print_complex(result.complex))
        lines.append(f"out: {args.out}")
    return 0


def _grid_flag(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(n) for n in text.split(","))
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
        want = _grid_flag(args.grid) if args.grid else (65,)
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
        Path(args.out).write_text(charts.print_grid(grid))
        lines.append(f"out: {args.out}")
    return 0


def _cmd_selftest(args, lines) -> int:
    from . import charts
    from .gen import random_complex
    from .weights import KINDS, brute_force, build_system, feasible

    if args.seeds < 1:  # no system solved is no check passed
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    seed_text = os.environ.get("BSGATE_SEED", "0")
    try:
        base = int(seed_text)
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

# each command's help line and arguments, in the order --help lists them;
# chart's arguments are those of its subcommands, below
_COMMAND_ARGS = {
    "validate": ("structural checks on a complex", (_INPUT,)),
    "detect": ("decide a weight-system kind", (
        _arg("--kind", required=True, choices=_KINDS + ("criterion",)),
        _arg("--oracle-bound", type=int, default=None), _INPUT)),
    "assemble": ("glue a carried surface", (
        _arg("--kind", required=True, choices=_KINDS),
        _arg("--weights", required=True), _INPUT)),
    "split": ("one splitting move", (
        _arg("--sector", required=True),
        _arg("--entry", required=True, metavar="W:K:SIDE"),
        _arg("--exit", required=True, metavar="W:K:SIDE"),
        _arg("--choice", required=True, choices=_CHOICES + ("safe",)),
        _OUT, _INPUT)),
    "schedule": ("run a splitting plan", (
        _arg("--plan", required=True), _OUT, _INPUT)),
    "chart": ("slope-function checks", ()),
    "selftest": ("seeded end-to-end checks", (
        _arg("--seeds", type=int, default=10),)),
}
_CHART_ARGS = {
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
}


def _branch(table: dict, name) -> tuple[str, ...]:
    """The names of ``table`` to build: ``name`` alone if it is one."""
    return (name,) if name in table else tuple(table)


def _build_parser(argv=()) -> _Parser:
    """The parser tree, cut to the branch that ``argv`` names.

    When ``argv[0]`` is a command, only its parser is built, and for
    ``chart`` only that of the subcommand ``argv[1]`` names.  A
    subparser's prog, help and error messages do not depend on its
    siblings, and :class:`_Parser` passes on only the message, so the
    cut tree prints what the whole one would.  Any other ``argv`` (none,
    an unknown name, ``-h``) gets the whole tree.
    """
    cmd, chart_cmd = (*argv[:2], None, None)[:2]
    parser = _Parser(prog="bsgate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in _branch(_COMMAND_ARGS, cmd):
        help_line, args = _COMMAND_ARGS[name]
        p = sub.add_parser(name, help=help_line)
        if name == "chart":
            csub = p.add_subparsers(dest="chart_cmd", required=True)
            for chart_name in _branch(_CHART_ARGS,
                                      chart_cmd if cmd == "chart" else None):
                cp = csub.add_parser(chart_name)
                for flags, kwargs in _CHART_ARGS[chart_name]:
                    cp.add_argument(*flags, **kwargs)
        for flags, kwargs in args:
            p.add_argument(*flags, **kwargs)
    return parser


# each command's handler and the layers it runs; main loads the layers
# before the clock starts, so # duration-ms leaves loading out, and the
# handlers import their names from them locally, so a command loads no
# other layer
_COMMANDS = {
    "validate": (_cmd_validate, ("parser", "surface")),
    "detect": (_cmd_detect, ("parser", "surface", "weights")),
    "assemble": (_cmd_assemble, ("parser", "surface", "assembly")),
    "split": (_cmd_split, ("parser", "surface", "splitting")),
    "schedule": (_cmd_schedule, ("parser", "surface", "splitting")),
    "chart": (_cmd_chart, ("charts",)),
    "selftest": (_cmd_selftest, ("gen", "weights", "charts")),
}


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    _, layers = _COMMANDS.get(argv[0] if argv else None, (None, ()))
    for layer in layers:
        import_module(f".{layer}", __package__)
    started = time.monotonic()
    try:
        args = _build_parser(argv).parse_args(argv)
    except UsageError as exc:
        print(f"error: usage-error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    lines = [f"bsgate-report {args.cmd}", f"version: {__version__}"]
    try:
        handler, _ = _COMMANDS[args.cmd]
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
    print("\n".join(lines))
    print(f"# duration-ms {int((time.monotonic() - started) * 1000)}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
