"""Correctness of one ``bsgate`` report.

Two kinds of check.  Every seed gets the independent ones: exit code 0,
the report's own consistency, ``input-sha256`` against the file read,
every printed certificate re-checked with ``verify_certificate`` against
a system built from the input, assembled faces against the weights,
split and schedule outputs re-parsed and validated, purified charts
still confoliations, holonomy against its closed form, ``selftest: ok``.
The default seed also pins every verdict line to the manifest committed
with its corpus.  Witness, multiplier and ``tight`` lines are verified,
never pinned, so a solver that finds another valid certificate (say,
with a different pricing rule) still passes; the same goes for the
assemble lines that follow from the witness.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

from corpus import (HOLONOMY_STEP, ROOT, SELFTEST_SEEDS, WITNESS_SCALE,
                    Z1_CLOSED_FORM_TOL, Invocation, holonomy_closed_form)

CERTIFICATE_PREFIXES = ("w ", "multiplier ", "tight: ")
WITNESS_DEPENDENT_PREFIXES = ("weights-sha256: ", "components: ",
                              "component ")
FLOAT_KEYS = ("max-violation", "tol", "z1", "displacement")
# pinned floats: the integrator and checks are deterministic, so this only
# absorbs printing differences, not a change of method
FLOAT_TOL = 1e-9


def report_lines(report: str) -> list[str]:
    """Report lines without the ``# duration-ms`` trailer."""
    return [line for line in report.splitlines()
            if not line.startswith("# duration-ms ")]


def _fields(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


def pinned(report: str) -> dict:
    """The part of a report a manifest pins: lines and float values."""
    lines = report_lines(report)
    assemble = bool(lines) and lines[0] == "bsgate-report assemble"
    keep, floats = [], {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if line.startswith(CERTIFICATE_PREFIXES):
            continue
        if assemble and line.startswith(WITNESS_DEPENDENT_PREFIXES):
            continue
        if sep and key in FLOAT_KEYS:
            floats[key] = float(value)
            continue
        keep.append(line)
    return {"lines": keep, "floats": floats}


def against_manifest(inv: Invocation, code: int, report: str,
                     want: dict) -> list[str]:
    problems = []
    if "out_sha256" in want:
        out = ROOT / inv.argv[inv.argv.index("--out") + 1]
        if not out.is_file() or hashlib.sha256(
                out.read_bytes()).hexdigest() != want["out_sha256"]:
            problems.append(f"{out.name} differs from the manifest's bytes")
    if code != want["exit"]:
        problems.append(f"exit {code}, manifest says {want['exit']}")
    got = pinned(report)
    if got["lines"] != want["lines"]:
        diff = [f"-{x}" for x in want["lines"] if x not in got["lines"]]
        diff += [f"+{x}" for x in got["lines"] if x not in want["lines"]]
        problems.append("verdict lines differ from the manifest: "
                        + "; ".join(diff[:6] or ["(order)"]))
    for key, value in want["floats"].items():
        have = got["floats"].get(key)
        if have is None or abs(have - value) > FLOAT_TOL:
            problems.append(f"{key} {have} != manifest {value!r}")
    return problems


def _input_path(argv: tuple[str, ...]) -> Path:
    return ROOT / (argv[2] if argv[0] == "chart" else argv[-1])


def _parse(path: Path):
    from bsgate import parse_complex
    return parse_complex(path.read_text())


def _verify_detect(cx, kind: str, lines: list[str]) -> list[str]:
    from bsgate import build_system, verify_certificate
    from bsgate.weights import Certificate
    problems = []
    if kind == "criterion":
        verdicts, witnesses, label = {}, {}, None
        for line in lines:
            key, sep, value = line.partition(": ")
            if sep and key in ("neg-tisc", "isc"):
                label = key
                verdicts[key] = value
                witnesses[key] = {}
            elif line.startswith("w ") and label is not None:
                _, sid, v = line.split()
                witnesses[label][sid] = int(v)
        fields = _fields(lines)
        if set(verdicts) != {"neg-tisc", "isc"}:
            return ["criterion report lacks a neg-tisc or isc verdict"]
        passes = all(v == "infeasible" for v in verdicts.values())
        if fields.get("passes") != ("true" if passes else "false"):
            problems.append("passes line contradicts the verdicts")
        if ("conclusion" in fields) != passes:
            problems.append("conclusion line present iff passes is violated")
        for label, verdict in verdicts.items():
            if verdict == "feasible":
                cert = Certificate("Feasible", witness=witnesses[label])
                if not verify_certificate(build_system(cx, label), cert):
                    problems.append(f"{label} witness fails verification")
        return problems
    fields = _fields(lines)
    system = build_system(cx, kind)
    if fields.get("feasible") == "true":
        w = {}
        tight = set()
        for line in lines:
            if line.startswith("w "):
                _, sid, v = line.split()
                w[sid] = int(v)
            elif line.startswith("tight: "):
                tight.add(line.split(": ", 1)[1])
        cert = Certificate("Feasible", witness=w)
        if not verify_certificate(system, cert):
            problems.append(f"{kind} witness fails verification")
        elif tight != {f.tag for f in system.inequalities if f.dot(w) == 0}:
            problems.append(f"{kind} tight lines disagree with the witness")
    elif fields.get("feasible") == "false":
        mult = {}
        for line in lines:
            if line.startswith("multiplier "):
                _, tag, q = line.split()
                mult[tag] = Fraction(q)
        cert = Certificate("Infeasible", multipliers=mult)
        if not verify_certificate(system, cert):
            problems.append(f"{kind} multipliers fail verification")
    else:
        problems.append("detect report has no feasible line")
    return problems


def _verify_assemble(inv: Invocation, lines: list[str]) -> list[str]:
    wpath = ROOT / inv.argv[inv.argv.index("--weights") + 1]
    total = sum(int(line.split()[2]) for line in wpath.read_text().splitlines())
    comps = [line.split() for line in lines
             if line.startswith("component ") and " faces " in line]
    fields = _fields(lines)
    problems = []
    if fields.get("components") != str(len(comps)) or not comps:
        problems.append("components line disagrees with component lines")
    faces = sum(int(parts[3]) for parts in comps)
    if faces != total:
        problems.append(f"{faces} faces glued for total weight {total}")
    if total % WITNESS_SCALE:
        problems.append("weights are not the scaled witness")
    return problems


def _verify_complex_out(path: Path, fields: dict[str, str]) -> list[str]:
    from bsgate import validate
    cx = _parse(path)
    problems = []
    if not validate(cx).ok():
        problems.append(f"{path.name} does not validate")
    want = fields.get("sectors", fields.get("final-sectors"))
    if want != str(len(cx.sectors)):
        problems.append(f"{path.name} has {len(cx.sectors)} sectors, "
                        f"report says {want}")
    return problems


def check(inv: Invocation, code: int, report: str, seed: int) -> list[str]:
    """Problems with one report; an empty list means it is correct."""
    lines = report_lines(report)
    if code != 0:
        return [f"exit code {code}"]
    cmd = inv.argv[0]
    if not lines or lines[0] != f"bsgate-report {cmd}":
        return ["report header missing"]
    if not report.rstrip("\n").splitlines()[-1].startswith("# duration-ms "):
        return ["duration trailer missing"]
    fields = _fields(lines)
    problems = []
    if any(line.startswith("error: ") for line in lines):
        problems.append("report carries an error line")
    if cmd != "selftest":
        path = _input_path(inv.argv)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if fields.get("input-sha256") != digest:
            problems.append("input-sha256 is not the digest of the input")
    if cmd == "detect":
        kind = inv.argv[inv.argv.index("--kind") + 1]
        problems += _verify_detect(_parse(_input_path(inv.argv)), kind, lines)
    elif cmd == "assemble":
        problems += _verify_assemble(inv, lines)
    elif cmd == "validate":
        if fields.get("violations") != "0":
            problems.append("validate reports violations")
    elif cmd == "split":
        choice = inv.argv[inv.argv.index("--choice") + 1]
        if fields.get("choice") != choice:
            problems.append("split made another choice than asked")
        problems += _verify_complex_out(ROOT / fields.get("out", ""), fields)
    elif cmd == "schedule":
        plan = ROOT / inv.argv[inv.argv.index("--plan") + 1]
        nrows = sum(1 for row in plan.read_text().splitlines() if row.strip())
        steps = [line for line in lines if line.startswith("step ")]
        if fields.get("steps") != str(nrows) or len(steps) != nrows:
            problems.append("schedule did not report every plan step")
        if fields.get("criterion") != "passes":
            problems.append("schedule output fails the criterion")
        problems += _verify_complex_out(ROOT / fields.get("out", ""), fields)
    elif cmd == "chart":
        sub = inv.argv[1]
        cells = fields.get("contact-cells", "")
        if sub != "holonomy":
            a, _, b = cells.partition("/")
            if not (a.isdigit() and b.isdigit() and int(a) <= int(b)):
                problems.append("contact-cells is not a count a/b")
            if sub not in ("check-box", "check-cyl") and \
                    fields.get("confoliation") != "true":
                problems.append(f"{sub} output is not a confoliation")
        else:
            z0 = float(inv.argv[3].split("=", 1)[1])
            z1 = float(fields.get("z1", "nan"))
            exact = holonomy_closed_form(seed, z0)
            if not abs(z1 - exact) <= Z1_CLOSED_FORM_TOL or not z1 < z0:
                problems.append(f"z1 {z1} is not the return map {exact} "
                                f"(step {HOLONOMY_STEP})")
    elif cmd == "selftest":
        if fields.get("selftest") != "ok" or \
                fields.get("solver-runs") != str(3 * SELFTEST_SEEDS) or \
                fields.get("seed-base") != dict(inv.env)["BSGATE_SEED"]:
            problems.append("selftest did not report ok over every seed")
    return problems
