"""Command-line interface tests.

Every run goes through ``main(argv)`` with captured stdout — the same
code path as the console script, minus the process spawn.  Reports are
pinned as line goldens with the ``# duration-ms`` trailer stripped, so
these double as a determinism check.
"""

import json
import math
import os
import re
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from bsgate import __version__, cli, gen, splitting, surface, weights
from bsgate.charts import (
    INNER_CONTACT,
    OUTER_CONTACT,
    parse_grid,
    print_grid,
    sample_annulus,
    sample_box,
    sample_cylinder,
)
from bsgate.cli import main
from bsgate.parser import parse_complex, print_complex
from bsgate.surface import validate

from conftest import FIXTURES, fixture_text, fx, run_python, traced_peak

TRAILER = re.compile(r"^# duration-ms \d+$")


def run(capsys, *argv):
    """Invoke the CLI, return (exit code, report lines minus trailer)."""
    code = main(list(argv))
    out = capsys.readouterr().out.rstrip("\n").split("\n")
    assert TRAILER.match(out[-1]), out[-1]
    return code, out[:-1]


# -- exit-code contract ---------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: bsgate" in capsys.readouterr().out


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error: usage-error" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1


_CHART_COMMANDS = ("check-box", "check-cyl", "purify-box", "purify-cyl",
                   "extend", "holonomy")
# every argv that ends in help or a usage error before any handler runs:
# the tree's own, each command's and each chart subcommand's, bare and
# with --help, one bad value per choices flag, and unknown flags
_USAGE_ARGVS = (
    [[], ["frob"], ["--help"], ["-h"], ["chart"], ["chart", "frob"],
     ["chart", "--help"], ["chart", "-h"]]
    + [[cmd] for cmd in cli._COMMANDS if cmd != "selftest"]
    + [[cmd, "--help"] for cmd in cli._COMMANDS]
    + [["chart", sub] for sub in _CHART_COMMANDS]
    + [["chart", sub, "--help"] for sub in _CHART_COMMANDS]
    + [["detect", "--kind", "frob", "x.bsf"],
       ["assemble", "--kind", "frob", "--weights", "x.w", "x.bsf"],
       ["split", "--sector", "A", "--entry", "0:0:one", "--exit", "3:0:one",
        "--choice", "frob", "x.bsf"],
       ["chart", "purify-cyl", "x.grid", "--r0", "0.5", "--mode", "sideways"],
       ["selftest", "--seeds", "frob"],
       ["detect", "--kind", "isc"],
       ["validate", "x.bsf", "--bogus"],
       ["chart", "holonomy", "x.grid", "--z0", "0", "--tol", "1"],
       ["frob", "detect"], ["chart", "frob", "check-box"]])


# the message of each usage error above, as argparse's whole tree printed
# it; the table-driven reading keeps every one
_USAGE_ERRORS = {
    "": "the following arguments are required: cmd",
    "frob": "argument cmd: invalid choice: 'frob' (choose from 'validate', "
            "'detect', 'assemble', 'split', 'schedule', 'chart', "
            "'selftest')",
    "chart": "the following arguments are required: chart_cmd",
    "chart frob": "argument chart_cmd: invalid choice: 'frob' (choose from "
                  "'check-box', 'check-cyl', 'purify-box', 'purify-cyl', "
                  "'extend', 'holonomy')",
    "validate": "the following arguments are required: input",
    "detect": "the following arguments are required: --kind, input",
    "assemble": "the following arguments are required: --kind, --weights, "
                "input",
    "split": "the following arguments are required: --sector, --entry, "
             "--exit, --choice, input",
    "schedule": "the following arguments are required: --plan, input",
    "chart check-box": "the following arguments are required: input",
    "chart check-cyl": "the following arguments are required: input",
    "chart purify-box": "the following arguments are required: input, "
                        "--y0, --y1, --delta",
    "chart purify-cyl": "the following arguments are required: input, "
                        "--r0, --mode",
    "chart extend": "the following arguments are required: input, --r0",
    "chart holonomy": "the following arguments are required: input, --z0",
    "detect --kind frob x.bsf": "argument --kind: invalid choice: 'frob' "
                                "(choose from 'neg-tisc', 'pos-tisc', "
                                "'isc', 'criterion')",
    "assemble --kind frob --weights x.w x.bsf":
        "argument --kind: invalid choice: 'frob' (choose from 'neg-tisc', "
        "'pos-tisc', 'isc')",
    "split --sector A --entry 0:0:one --exit 3:0:one --choice frob x.bsf":
        "argument --choice: invalid choice: 'frob' (choose from 'over', "
        "'under', 'neutral', 'safe')",
    "chart purify-cyl x.grid --r0 0.5 --mode sideways":
        "argument --mode: invalid choice: 'sideways' (choose from 'inner', "
        "'outer')",
    "selftest --seeds frob": "argument --seeds: invalid int value: 'frob'",
    "detect --kind isc": "the following arguments are required: input",
    "validate x.bsf --bogus": "unrecognized arguments: --bogus",
    "chart holonomy x.grid --z0 0 --tol 1": "unrecognized arguments: --tol 1",
    "frob detect": "argument cmd: invalid choice: 'frob' (choose from "
                   "'validate', 'detect', 'assemble', 'split', 'schedule', "
                   "'chart', 'selftest')",
    "chart frob check-box": "argument chart_cmd: invalid choice: 'frob' "
                            "(choose from 'check-box', 'check-cyl', "
                            "'purify-box', 'purify-cyl', 'extend', "
                            "'holonomy')",
}


@pytest.mark.parametrize("argv", _USAGE_ARGVS,
                         ids=[" ".join(a) or "(none)" for a in _USAGE_ARGVS])
def test_usage_and_help_read_as_from_the_whole_tree(capsys, argv):
    # a usage error prints the pinned message alone, on stderr, and exits
    # 1; help prints the help of the parser argv names and exits 0
    code = main(list(argv))
    out, err = capsys.readouterr()
    if argv[-1:] in (["--help"], ["-h"]):
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: {' '.join(['bsgate', *argv[:-1]])} "
                              "[-h]")
    else:
        message = _USAGE_ERRORS[" ".join(argv)]
        assert (code, out, err) == (1, "", f"error: usage-error: {message}\n")


def _help_page(capsys, *argv) -> str:
    assert main([*argv, "--help"]) == 0
    return capsys.readouterr().out


def test_help_lists_the_command_table(capsys):
    # each page is generated from the table: the top one lists every
    # command with its help line, chart's every subcommand, and each
    # command's every flag, choice set and default
    top = [line.split() for line in _help_page(capsys).splitlines()]
    for name, (help_line, _) in cli._COMMAND_ARGS.items():
        assert [name, *help_line.split()] in top
    chart = _help_page(capsys, "chart").splitlines()
    assert all(f"  {name}" in chart for name in cli._CHART_ARGS)
    pages = [((cmd,), args) for cmd, (_, args) in cli._COMMAND_ARGS.items()]
    pages += [(("chart", sub), args) for sub, args in cli._CHART_ARGS.items()]
    for argv, args in pages:
        page = _help_page(capsys, *argv)
        assert page.startswith(f"usage: bsgate {' '.join(argv)} [-h]")
        for flags, kwargs in args:
            assert flags[0] in page
            if "choices" in kwargs:
                assert "{%s}" % ",".join(kwargs["choices"]) in page
            if kwargs.get("default") is not None:
                assert f"default {kwargs['default']}" in page


def test_spelled_out_choices_agree_with_the_layers():
    # the parser spells these out so that reading argv loads no layer
    assert cli._KINDS == weights.KINDS
    assert cli._CHOICES == splitting.CHOICES
    assert cli._MODES == (INNER_CONTACT, OUTER_CONTACT)


def test_commands_and_help_run_without_docstrings(tmp_path):
    # python -OO strips docstrings; the help's description is a literal
    box = tmp_path / "box.grid"
    box.write_text(print_grid(sample_box(lambda x, y, z: -1.0 - y,
                                         (5, 5, 5))))
    argvs = [
        ["--help"], ["chart", "holonomy", "--help"],
        ["validate", fx("fix-clean.bsf")],
        ["detect", "--kind", "criterion", fx("fix-clean.bsf")],
        ["assemble", "--kind", "isc", "--weights", fx("fix-doc-isc.w"),
         fx("fix-doc.bsf")],
        ["split", "--sector", "A", "--entry", "0:0:one", "--exit",
         "3:0:one", "--choice", "safe", fx("fix-clean.bsf")],
        ["schedule", "--plan", fx("clean3.plan"), fx("fix-clean3.bsf")],
        ["chart", "check-box", str(box)],
        ["selftest", "--seeds", "1"]]
    proc = run_python("-OO", "-c", "import json, sys\n"
                      "from bsgate.cli import main\n"
                      "for argv in json.loads(sys.argv[1]):\n"
                      "    print('exit', main(argv))",
                      json.dumps(argvs))
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert [l for l in lines if l.startswith("exit ")] == ["exit 0"] * 9
    assert lines[0].startswith("usage: bsgate [-h]")
    assert "violations: 0" in lines
    assert "passes: true" in lines
    assert "selftest: ok" in lines


def test_missing_input_file(capsys):
    code, lines = run(capsys, "validate", "/no/such/file.bsf")
    assert code == 1
    assert any(l.startswith("error: usage-error: cannot read") for l in lines)


def test_unparseable_input(capsys, tmp_path):
    p = tmp_path / "bad.bsf"
    p.write_text("surface x\nsector A genus -1 bwords 0\n")
    code, lines = run(capsys, "validate", str(p))
    assert code == 1
    assert any(l.startswith("error: parse-error") for l in lines)


@pytest.mark.parametrize("argv", [("validate",), ("chart", "check-box")],
                         ids=["validate", "chart"])
def test_non_utf8_input_is_a_usage_error(capsys, tmp_path, argv):
    p = tmp_path / "utf16.txt"
    p.write_bytes(b"\xff\xfe" + fixture_text("fix-clean.bsf").encode())
    code, lines = run(capsys, *argv, str(p))  # run checks the trailer
    assert code == 1
    assert lines[-1] == f"error: usage-error: cannot read {p}: not UTF-8 text"


def test_crlf_input_reads_like_lf(capsys, tmp_path):
    text = fixture_text("fix-split.bsf")
    lf, crlf = tmp_path / "lf.bsf", tmp_path / "crlf.bsf"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    _, want = run(capsys, "validate", str(lf))
    _, got = run(capsys, "validate", str(crlf))
    assert got[2] == f"input-sha256: {sha256(crlf.read_bytes()).hexdigest()}"
    assert got[:2] + got[3:] == want[:2] + want[3:]


@pytest.mark.parametrize("argv, marked", [
    (("validate", "fix-clean.bsf"), "fix-clean.bsf"),
    (("schedule", "--plan", "clean3.plan", "fix-clean3.bsf"), "clean3.plan"),
    (("assemble", "--kind", "isc", "--weights", "fix-doc-isc.w",
      "fix-doc.bsf"), "fix-doc-isc.w"),
], ids=["complex", "plan", "weights"])
def test_a_byte_order_mark_reads_as_no_text(capsys, tmp_path, argv, marked):
    # a leading UTF-8 byte-order mark is not part of the first line; the
    # digest is still taken over the file's bytes
    p = tmp_path / marked
    p.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / marked).read_bytes())
    plain = [fx(a) if (FIXTURES / a).is_file() else a for a in argv]
    code0, want = run(capsys, *plain)
    code, got = run(capsys, *[str(p) if a == marked else b
                              for a, b in zip(argv, plain)])
    assert code == code0 == 0
    digest = sha256(p.read_bytes()).hexdigest()
    (i,) = [k for k, line in enumerate(got)
            if line.endswith(f"-sha256: {digest}")]
    assert got[i].split(":")[0] == want[i].split(":")[0]
    assert got[:i] + got[i + 1:] == want[:i] + want[i + 1:]


def test_structural_violations_exit_two(capsys, tmp_path):
    # parseable, but the extra circle never shows up in a boundary word
    p = tmp_path / "loose.bsf"
    p.write_text(fixture_text("fix-split.bsf")
                 + "segment zz circle one O up L lo L\n")
    code, lines = run(capsys, "validate", str(p))
    assert code == 2
    assert "violations: 3" in lines
    assert sum(l.startswith("violation:") for l in lines) == 3


LOOSE_VIOLATION = ("violation: segment zz side one must appear exactly once "
                   "on sector O's boundary (found [])")


def _digest(path) -> str:
    return sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv,extra", [
    (("detect", "--kind", "criterion"), ["kind: criterion"]),
    (("assemble", "--kind", "isc", "--weights", "fix-doc-isc.w"),
     [f"weights-sha256: {_digest(FIXTURES / 'fix-doc-isc.w')}"]),
    (("split", "--sector", "O", "--entry", "0:0:one", "--exit", "0:1:one",
      "--choice", "over"), []),
    (("schedule", "--plan", "clean3.plan"),
     [f"plan-sha256: {_digest(FIXTURES / 'clean3.plan')}"]),
], ids=["detect", "assemble", "split", "schedule"])
def test_violation_reports_are_pinned(capsys, tmp_path, argv, extra):
    # every handler that loads a complex reports a structural violation
    # the same way: digests first, then the first violation, exit code 2
    p = tmp_path / "loose.bsf"
    p.write_text(fixture_text("fix-split.bsf")
                 + "segment zz circle one O up L lo L\n")
    argv = [fx(a) if a.startswith("fix-") or a.endswith(".plan") else a
            for a in argv]
    code, lines = run(capsys, *argv, str(p))
    assert code == 2
    assert lines == [f"bsgate-report {argv[0]}", f"version: {__version__}",
                     f"input-sha256: {_digest(p)}", *extra, LOOSE_VIOLATION]


def test_stray_exception_exits_three_with_one_report(capsys, monkeypatch):
    def broken(args, lines):
        lines.append("input-sha256: 0")
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "validate",
                        (broken, cli._COMMANDS["validate"][1]))
    assert main(["validate", fx("fix-split.bsf")]) == 3
    out = capsys.readouterr().out.rstrip("\n").split("\n")
    assert out[:-1] == ["bsgate-report validate", f"version: {__version__}",
                        "input-sha256: 0",
                        "error: internal-error: RuntimeError: boom"]
    assert TRAILER.match(out[-1])


def test_domain_error_exits_two(capsys):
    # exiting through a lateral side is the canonical forbidden move
    code, lines = run(capsys, "split", "--sector", "Ao",
                      "--entry", "0:0:one", "--exit", "0:1:lo",
                      "--choice", "over", fx("fix-split.bsf"))
    assert code == 2
    assert any(l.startswith("error: bad-move") for l in lines)


def test_oracle_disagreement_exits_three(capsys, monkeypatch):
    # force the cross-check to "find" a witness the solver ruled out
    monkeypatch.setattr(weights, "brute_force", lambda system, bound: {"A": 1})
    code, lines = run(capsys, "detect", "--kind", "neg-tisc",
                      "--oracle-bound", "2", fx("fix-clean.bsf"))
    assert code == 3
    assert "oracle-agreement: fail" in lines
    assert any(l.startswith("error: oracle-disagreement") for l in lines)


def test_unverifiable_certificate_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(weights, "verify_certificate", lambda s, c: False)
    code, lines = run(capsys, "detect", "--kind", "pos-tisc",
                      fx("fix-tdisc.bsf"))
    assert code == 3
    assert any(l.startswith("error: invariant-violation") for l in lines)


def test_unverifiable_criterion_certificate_exits_three(capsys, monkeypatch):
    # the criterion verifies each of its certificates the same way
    monkeypatch.setattr(weights, "verify_certificate", lambda s, c: False)
    code, lines = run(capsys, "detect", "--kind", "criterion",
                      fx("fix-clean.bsf"))
    assert code == 3
    assert any(l.startswith("error: invariant-violation") for l in lines)


# -- report goldens -------------------------------------------------------


def test_validate_report(capsys):
    code, lines = run(capsys, "validate", fx("fix-split.bsf"))
    assert code == 0
    assert lines[0] == "bsgate-report validate"
    assert lines[1].startswith("version: ")
    assert re.fullmatch(r"input-sha256: [0-9a-f]{64}", lines[2])
    assert lines[3:] == ["name: fix-split", "sectors: 6", "segments: 4",
                         "double-points: 2", "violations: 0"]


def test_detect_feasible_report(capsys):
    code, lines = run(capsys, "detect", "--kind", "pos-tisc",
                      "--oracle-bound", "4", fx("fix-tdisc.bsf"))
    assert code == 0
    assert "feasible: true" in lines
    assert "w mw 1" in lines and "w sw 1" in lines
    assert "w ne 0" in lines
    # zero-slack constraints are named so the verdict can be audited
    assert "tight: seg:N" in lines
    assert lines[-2:] == ["oracle-witness: found", "oracle-agreement: ok"]


def test_tight_lines_are_the_forms_zero_at_the_witness(capsys):
    # the rule bench/check.py applies: a feasible report names, sorted,
    # each inequality whose form is 0 at the witness it prints
    feasible_reports = 0
    for path in sorted(FIXTURES.glob("*.bsf")):
        cx = parse_complex(path.read_text())
        for kind in weights.KINDS:
            code, lines = run(capsys, "detect", "--kind", kind, str(path))
            assert code == 0
            if "feasible: true" not in lines:
                continue
            feasible_reports += 1
            w = {sid: int(n) for _, sid, n in
                 (line.split() for line in lines if line.startswith("w "))}
            system = weights.build_system(cx, kind)
            tight = sorted(f.tag for f in system.inequalities
                           if f.dot(w) == 0)
            assert [line for line in lines if line.startswith("tight: ")] \
                == [f"tight: {tag}" for tag in tight], (path.name, kind)
    assert feasible_reports == 10


def test_detect_infeasible_report_carries_multipliers(capsys):
    # a negative multiplier, on an equality
    code, lines = run(capsys, "detect", "--kind", "pos-tisc",
                      fx("fix-split.bsf"))
    assert code == 0
    assert "feasible: false" in lines
    assert "multiplier corner:Q -1/1" in lines
    # fix-cross's isc aggregate is <= 0 by itself, so its certificate
    # combines no form: the report has no multiplier line
    code, lines = run(capsys, "detect", "--kind", "isc", fx("fix-cross.bsf"))
    assert code == 0
    assert "feasible: false" in lines
    assert not [line for line in lines if line.startswith("multiplier")]


def test_detect_oracle_runs_the_largest_bound_in_blocks():
    # one variable at the largest bound under the 2**26 cap: one Python
    # iteration per candidate ran for minutes; a fresh interpreter with
    # a timeout, so that such a search fails instead of hanging.  The
    # isc aggregate of fix-torus is empty, so the oracle now misses
    # before any table; test_weights runs the blocked search itself
    code, lines, err = bsgate_child("detect", "--kind", "isc",
                                    "--oracle-bound", "67108863",
                                    fx("fix-torus.bsf"))
    assert (code, err) == (0, "")
    assert lines[-2:] == ["oracle-witness: none", "oracle-agreement: ok"]


@pytest.mark.parametrize("kind, bound, message", [
    ("criterion", "3", "--oracle-bound needs a single system kind, "
                       "not criterion"),
    ("isc", "0", "--oracle-bound must be at least 1, got 0"),
    ("isc", "-2", "--oracle-bound must be at least 1, got -2"),
], ids=["criterion", "zero", "negative"])
def test_oracle_bound_is_refused_before_the_complex_is_read(capsys, kind,
                                                            bound, message):
    # criterion ran no oracle and said nothing, and a bound below 1 was
    # refused only after the whole certificate, with exit 2
    code, lines = run(capsys, "detect", "--kind", kind, "--oracle-bound",
                      bound, fx("fix-cross.bsf"))
    assert code == 1
    assert lines[2:] == [f"error: usage-error: {message}"]


def test_detect_criterion_passing(capsys):
    code, lines = run(capsys, "detect", "--kind", "criterion",
                      fx("fix-clean.bsf"))
    assert code == 0
    assert "passes: true" in lines
    assert "neg-tisc: infeasible" in lines
    assert "isc: infeasible" in lines
    assert lines[-1] == ("conclusion: fully carries a pure positive "
                         "contamination")


def test_detect_criterion_failing_names_the_leak(capsys):
    code, lines = run(capsys, "detect", "--kind", "criterion",
                      fx("fix-doc.bsf"))
    assert code == 0
    assert "passes: false" in lines
    assert "isc: feasible" in lines
    assert "w D 1" in lines
    assert not any(l.startswith("conclusion") for l in lines)


def test_assemble_report(capsys):
    code, lines = run(capsys, "assemble", "--kind", "pos-tisc",
                      "--weights", fx("fix-tdisc-pos.w"),
                      fx("fix-tdisc.bsf"))
    assert code == 0
    assert "components: 1" in lines
    assert "component 0 faces 2 euler 1 class PosTisc" in lines
    assert ("component 0 boundary corner:P:0:+ run:WP:1 corner:P2:0:+ "
            "run:SM2:1 run:SB:1 run:SM:1") in lines


def test_assemble_report_names_a_free_arc(capsys, tmp_path):
    # fix-fig5's corner sector meets the free arc f_z between its runs
    p = tmp_path / "qz.w"
    p.write_text("w qz 1\n")
    code, lines = run(capsys, "assemble", "--kind", "neg-tisc",
                      "--weights", str(p), fx("fix-fig5.bsf"))
    assert code == 0
    assert lines[-2:] == [
        "component 0 faces 1 euler 1 class Other",
        "component 0 boundary corner:P:0:- run:E:1 free:f_z run:N:1"]


def test_assemble_rejects_unbalanced_weights(capsys, tmp_path):
    p = tmp_path / "bumped.w"
    p.write_text("w mw 2\nw sw 1\n")
    code, lines = run(capsys, "assemble", "--kind", "pos-tisc",
                      "--weights", str(p), fx("fix-tdisc.bsf"))
    assert code == 2
    assert any(l.startswith("error: weights-not-satisfying") for l in lines)


def test_assemble_refuses_oversized_weights_up_front(capsys, tmp_path):
    # before any face is built: the whole call allocates under 1 MiB
    p = tmp_path / "big.w"
    p.write_text(f"w D {(1 << 18) + 1}\n")
    (code, lines), peak = traced_peak(lambda: run(
        capsys, "assemble", "--kind", "isc", "--weights", str(p),
        fx("fix-doc.bsf")))
    assert peak < 1 << 20
    assert (code, lines[-1]) == (
        2, "error: precondition-failed: weights sum to 262145: one face "
           "per unit is more than the 2^18 faces assemble builds")


def test_split_safe_report(capsys):
    code, lines = run(capsys, "split", "--sector", "A",
                      "--entry", "0:0:one", "--exit", "3:0:one",
                      "--choice", "safe", fx("fix-clean.bsf"))
    assert code == 0
    assert "criterion-preserved: true" in lines
    assert "choice: over" in lines
    assert "dp-left: L1 -" in lines
    assert "dp-right: R1 +" in lines
    assert any(l.startswith("convention:") for l in lines)
    assert "image A A_l1" in lines


@pytest.mark.parametrize("name", ["fix-clean.bsf", "fix-clean3.bsf"])
def test_safe_split_reports_what_its_committed_move_reports(capsys, name):
    # at every good locus: the committed move's report, with the
    # criterion-preserved line before its choice line
    cx = parse_complex(fixture_text(name))
    loci = splitting.good_loci(cx)
    assert loci
    for locus in loci:
        sector, entry, exit_ = splitting.format_locus(cx, locus).split()
        argv = ("split", "--sector", sector, "--entry", entry,
                "--exit", exit_, "--choice")
        choice = splitting.safe_split(cx, locus).choice
        code, safe = run(capsys, *argv, "safe", fx(name))
        code0, committed = run(capsys, *argv, choice, fx(name))
        assert code == code0 == 0
        i = committed.index(f"choice: {choice}")
        assert safe == (committed[:i] + ["criterion-preserved: true"]
                        + committed[i:]), (name, sector, entry, exit_)


def test_split_out_file_is_a_valid_complex(capsys, tmp_path):
    out = tmp_path / "after.bsf"
    code, lines = run(capsys, "split", "--sector", "A",
                      "--entry", "0:0:one", "--exit", "3:0:one",
                      "--choice", "under", "--out", str(out),
                      fx("fix-clean.bsf"))
    assert code == 0
    assert f"out: {out}" in lines
    cx = parse_complex(out.read_text())
    assert validate(cx).ok()
    code2, _ = run(capsys, "validate", str(out))
    assert code2 == 0


def test_out_pieces_are_written_one_at_a_time(tmp_path):
    # 12 MiB of text in 700,000 pieces: joining them and encoding the
    # whole text at once is a tracemalloc peak of 2.0x this text
    pieces = [f"w s\u00e9{i} {i}\n" for i in range(700_000)]
    text = "".join(pieces)
    assert len(text) > 8 << 20
    out, lines = tmp_path / "big.txt", []
    _, peak = traced_peak(lambda: cli._write_out(str(out), lines, pieces))
    assert out.read_bytes() == text.encode("utf-8")
    assert lines == [f"out: {out}"]
    assert peak < 0.5 * len(text), peak / len(text)


def test_out_write_failure_is_a_usage_error(capsys, tmp_path):
    # reported like an input that cannot be read: exit 1, and no out:
    # line for a file that was not written
    out = tmp_path / "missing" / "x.bsf"
    code, lines = run(capsys, "split", "--sector", "A", "--entry", "0:0:one",
                      "--exit", "3:0:one", "--choice", "under", "--out",
                      str(out), fx("fix-clean.bsf"))
    assert code == 1
    assert lines[-1] == (f"error: usage-error: cannot write {out}: "
                         "No such file or directory")
    assert not any(line.startswith("out:") for line in lines)
    assert not out.parent.exists()


def test_schedule_report(capsys):
    code, lines = run(capsys, "schedule", "--plan", fx("clean3.plan"),
                      fx("fix-clean3.bsf"))
    assert code == 0
    assert "steps: 3" in lines
    assert "step 0 sector A choice over" in lines
    assert "step 2 sector A_l1_l2 choice over" in lines
    assert "final-sectors: 6" in lines
    assert "final-double-points: 6" in lines
    assert lines[-1] == "criterion: passes"


@pytest.mark.parametrize("argv, validations", [
    (("split", "--sector", "A", "--entry", "0:0:one", "--exit", "3:0:one",
      "--choice", "over", "fix-clean.bsf"), 2),
    (("schedule", "--plan", "clean3.plan", "fix-clean3.bsf"), 4),
], ids=["split", "schedule"])
def test_each_complex_is_validated_once(capsys, monkeypatch, argv,
                                        validations):
    # the work behind the cached ``violations``, whoever calls ``validate``,
    # and each split output, which ``carried_complex`` checks as it builds it
    seen = []

    def counting(cx, _violations=surface._violations):
        seen.append(cx)
        return _violations(cx)

    def carried(*parts, _build=splitting.carried_complex):
        seen.append(_build(*parts))
        return seen[-1]

    monkeypatch.setattr(surface, "_violations", counting)
    monkeypatch.setattr(splitting, "carried_complex", carried)
    argv = [fx(a) if a.startswith("fix-") or a.endswith(".plan") else a
            for a in argv]
    code, _ = run(capsys, *argv)
    assert code == 0
    assert len({id(cx) for cx in seen}) == len(seen) == validations


def test_schedule_out_file_is_the_final_complex(capsys, tmp_path):
    out = tmp_path / "after.bsf"
    code, lines = run(capsys, "schedule", "--plan", fx("clean3.plan"),
                      "--out", str(out), fx("fix-clean3.bsf"))
    assert code == 0 and lines[-1] == f"out: {out}"
    rows = [tuple(line.split()) for line in
            (FIXTURES / "clean3.plan").read_text().splitlines()]
    final = splitting.run_plan(parse_complex(fixture_text("fix-clean3.bsf")),
                               rows).complex
    text = out.read_text()
    assert text == print_complex(final)
    assert validate(parse_complex(text)).ok()


def test_plan_comments_and_blank_lines_read_as_no_rows(capsys, tmp_path):
    # the same report as the bare plan, but for the plan's digest
    rows = (FIXTURES / "clean3.plan").read_text().splitlines(keepends=True)
    p = tmp_path / "commented.plan"
    p.write_text("# three over steps from fix-clean3\n" + rows[0] + "\n"
                 + rows[1].rstrip("\n") + "  # the left half\n" + rows[2])
    reports = [run(capsys, "schedule", "--plan", plan, fx("fix-clean3.bsf"))
               for plan in (fx("clean3.plan"), str(p))]
    bare, commented = ([l for l in lines if not l.startswith("plan-sha256")]
                       for _, lines in reports)
    assert [code for code, _ in reports] == [0, 0]
    assert commented == bare and "steps: 3" in bare


def test_schedule_rejects_short_plan_rows(capsys, tmp_path):
    p = tmp_path / "short.plan"
    p.write_text("A 0:0:one\n")
    code, lines = run(capsys, "schedule", "--plan", str(p),
                      fx("fix-clean.bsf"))
    assert code == 1
    assert any("plan rows need" in l for l in lines)


# -- chart subcommands ----------------------------------------------------


@pytest.fixture
def box_path(tmp_path):
    grid = sample_box(lambda x, y, z: -1.0 - y, (9, 9, 9))
    p = tmp_path / "box.grid"
    p.write_text(print_grid(grid))
    return str(p)


@pytest.fixture
def annulus_path(tmp_path):
    ann = sample_annulus(lambda t, z: -0.1 * (1.0 - z * z), (8, 17))
    p = tmp_path / "ann.grid"
    p.write_text(print_grid(ann))
    return str(p)


def test_chart_check_box_report(capsys, box_path):
    code, lines = run(capsys, "chart", "check-box", box_path)
    assert code == 0
    assert "confoliation: true" in lines
    assert "contact-cells: 729/729" in lines
    assert "max-violation: 0" in lines
    assert "tol: 1.0000000000000001e-09" in lines


def test_a_byte_order_mark_on_a_grid_reads_as_no_text(capsys, tmp_path,
                                                      box_path):
    # grids are parsed from the file's bytes, so the mark is dropped
    # there; the digest is still taken over the file's bytes
    p = tmp_path / "bom.grid"
    p.write_bytes(b"\xef\xbb\xbf" + Path(box_path).read_bytes())
    code0, want = run(capsys, "chart", "check-box", box_path)
    code, got = run(capsys, "chart", "check-box", str(p))
    assert code == code0 == 0
    digests = [f"input-sha256: {sha256(Path(g).read_bytes()).hexdigest()}"
               for g in (box_path, p)]
    i = want.index(digests[0])
    assert got[i] == digests[1]
    assert got[:i] + got[i + 1:] == want[:i] + want[i + 1:]


def test_chart_grid_flag_cross_checks_the_shape(capsys, box_path):
    code, lines = run(capsys, "chart", "check-box", box_path,
                      "--grid", "9,9,9")
    assert code == 0
    code, lines = run(capsys, "chart", "check-box", box_path,
                      "--grid", "65,65,65")
    assert code == 2
    assert any(l.startswith("error: chart-error") for l in lines)


def test_chart_grid_flag_must_be_integers(capsys, box_path, annulus_path):
    # int() would read the last two as 9,9,9, which is this grid's shape
    for argv in (("check-box", box_path, "--grid", "5,x,5"),
                 ("check-box", box_path, "--grid", ""),
                 ("check-box", box_path, "--grid", "\uff19,9,9"),
                 ("check-box", box_path, "--grid", "9,0_9,9"),
                 ("extend", annulus_path, "--r0", "0.5", "--grid", "")):
        code, lines = run(capsys, "chart", *argv)
        assert code == 1
        assert lines[-1] == ("error: usage-error: --grid needs "
                             f"comma-separated integers, got {argv[-1]!r}")


def test_chart_spacing_must_be_numbers(capsys, box_path, tmp_path):
    text = Path(box_path).read_text().replace("spacing 0.25 0.25",
                                              "spacing 0.25 x")
    p = tmp_path / "bad.grid"
    p.write_text(text)
    code, lines = run(capsys, "chart", "check-box", str(p))
    assert code == 2
    assert lines[-1].startswith("error: chart-error: bad header number")


def test_chart_header_numbers_must_be_finite(capsys, tmp_path):
    # a NaN radius passed every check and read as a confoliation
    grid = sample_cylinder(lambda r, t, z: -r * r + 0 * z, (5, 4, 5),
                           h_fn=lambda r, t, z: -1.0 + 0 * z)
    lines = print_grid(grid).splitlines()
    for i, col in ((1, 2), (3, 1)):  # the radius in bounds and spacing
        toks = lines[i].split()
        toks[col] = "nan"
        lines[i] = " ".join(toks)
    p = tmp_path / "bad.grid"
    p.write_text("\n".join(lines) + "\n")
    code, lines = run(capsys, "chart", "check-cyl", str(p))
    assert code == 2
    assert lines[-1] == ("error: chart-error: bad header number: bounds "
                         "and spacing must be finite")


@pytest.mark.parametrize("sample", ["nan", "inf", "-inf"])
def test_chart_samples_must_be_finite(capsys, box_path, tmp_path, sample):
    lines = Path(box_path).read_text().splitlines()
    lines[4] = sample
    p = tmp_path / "bad.grid"
    p.write_text("\n".join(lines) + "\n")
    code, lines = run(capsys, "chart", "check-box", str(p))
    assert code == 2
    assert lines[-1] == (f"error: chart-error: bad sample value: "
                         f"{sample!r} on line 5 is not finite")


@pytest.mark.parametrize("shape, message", [
    ("-3 -3 5", "each axis needs at least 2 samples"),
    ("3 1 5", "each axis needs at least 2 samples"),
    ("3 3", "box shape needs 3 numbers"),
    # int() reads both as 3 3 5, and print_grid writes neither
    ("\uff13 3 5", "bad header number: invalid literal for int() with "
                   "base 10: '\uff13'"),
    ("3 0_3 5", "bad header number: invalid literal for int() with "
                "base 10: '0_3'"),
], ids=["negative", "one-sample", "two-entries", "fullwidth", "underscore"])
def test_chart_shape_line_must_fit_the_kind(capsys, tmp_path, shape, message):
    # only the shape line is wrong: the 45 sample lines fit (3, 3, 5)
    text = print_grid(sample_box(lambda x, y, z: -1.0 - y, (3, 3, 5)))
    p = tmp_path / "bad.grid"
    p.write_text(text.replace("shape 3 3 5", "shape " + shape),
                 encoding="utf-8")
    code, lines = run(capsys, "chart", "check-box", str(p))
    assert code == 2
    assert lines[-1] == f"error: chart-error: {message}"


@pytest.mark.parametrize("shape", ["4294967296 4294967296 2",
                                   "3037000500 3037000500 2"],
                         ids=["wraps-to-zero", "wraps-to-small"])
def test_chart_sample_count_does_not_wrap(capsys, tmp_path, shape):
    # a product wrapped at 2**64 once asked for 0 lines and crashed in
    # reshape (exit 3), or asked for 290948384 lines
    head = print_grid(sample_box(lambda x, y, z: -1.0 - y, (3, 3, 5)))
    head = head.splitlines()[:4]
    head[2] = "shape " + shape
    p = tmp_path / "huge.grid"
    p.write_text("\n".join(head) + "\n")  # and no sample lines
    want = math.prod(int(n) for n in shape.split())
    code, lines = run(capsys, "chart", "check-box", str(p))
    assert (code, lines[-1]) == (
        2, f"error: chart-error: expected {want} sample lines, got 0")


def test_chart_purify_box_roundtrip(capsys, tmp_path):
    def staircase(x, y, z):
        return -1.0 - np.maximum(0.0, y - 0.5) ** 3

    p = tmp_path / "stair.grid"
    p.write_text(print_grid(sample_box(staircase, (33, 33, 33))))
    out = tmp_path / "pure.grid"
    code, lines = run(capsys, "chart", "purify-box", str(p),
                      "--y0", "0.5", "--y1", "0.75", "--delta", "0.25",
                      "--out", str(out))
    assert code == 0
    assert "confoliation: true" in lines
    grid = parse_grid(out.read_text())
    assert grid.shape == (33, 33, 33)


def test_chart_extend_grid_flag_sizes_the_output(capsys, annulus_path,
                                                 tmp_path):
    out = tmp_path / "cell.grid"
    code, lines = run(capsys, "chart", "extend", annulus_path,
                      "--r0", "0.5", "--grid", "33", "--out", str(out))
    assert code == 0
    assert "confoliation: true" in lines
    grid = parse_grid(out.read_text())
    assert grid.kind == "cylinder"
    assert grid.shape == (33, 8, 17)
    # full NX,NY,NZ form also accepted, but NY,NZ must match the input
    code, _ = run(capsys, "chart", "extend", annulus_path,
                  "--r0", "0.5", "--grid", "33,8,17")
    assert code == 0
    # other NY,NZ, or a list of any other length, is refused
    for flag in ("33,9,17", "65,999", "9,1,2,3"):
        code, lines = run(capsys, "chart", "extend", annulus_path,
                          "--r0", "0.5", "--grid", flag)
        want = tuple(int(n) for n in flag.split(","))
        assert (code, lines[-1]) == (
            2, "error: chart-error: boundary shape (8, 17) does not match "
               f"--grid {want}")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_chart_tol_must_be_finite_and_nonnegative(capsys, tmp_path, box_path,
                                                  tol):
    # f = 0.3 at z = +-1: a nan tol let extend write this cylinder
    lifted = sample_annulus(
        lambda t, z: np.where(np.abs(z) == 1.0, 0.3, -1.0 + 0 * t), (8, 17))
    p = tmp_path / "lifted.grid"
    p.write_text(print_grid(lifted))
    out = tmp_path / "cell.grid"
    for argv in (("extend", str(p), "--r0", "0.5", "--out", str(out)),
                 ("check-box", box_path)):
        code, lines = run(capsys, "chart", *argv, "--tol", tol)
        assert (code, lines[-1]) == (
            2, "error: chart-error: tol must be finite and >= 0, "
               f"got {float(tol)!r}")
    assert not out.exists()


def test_chart_holonomy_report(capsys, tmp_path):
    ann = sample_annulus(lambda t, z: -0.05 + 0.0 * t, (8, 9))
    p = tmp_path / "flat.grid"
    p.write_text(print_grid(ann))
    code, lines = run(capsys, "chart", "holonomy", str(p),
                      "--z0", "0", "--step", "1e-2")
    assert code == 0
    assert lines[-3] == ("convention: leaves follow dz/dtheta = f with "
                         "increasing theta")
    z1 = float(lines[-2].split(": ")[1])
    disp = float(lines[-1].split(": ")[1])
    assert z1 == pytest.approx(-0.05 * 2 * 3.141592653589793, abs=1e-9)
    assert disp == z1


@pytest.mark.parametrize("argv, flag", [
    (("holonomy", "--z0", "0", "--step", "0.01", "--tol", "nan", "--out"),
     "--tol nan --out"),
    (("holonomy", "--z0", "0", "--step", "0.01", "--out"), "--out"),
    (("check-box", "--out"), "--out"),
    (("check-cyl", "--out"), "--out"),
], ids=["holonomy-tol", "holonomy-out", "check-box-out", "check-cyl-out"])
def test_chart_flags_a_subcommand_would_ignore_are_usage_errors(
        capsys, tmp_path, annulus_path, box_path, argv, flag):
    # holonomy reads no tol, and the checks write no grid
    sub, *opts = argv
    cyl = tmp_path / "cyl.grid"
    cyl.write_text(print_grid(sample_cylinder(
        lambda r, t, z: -r * r + 0 * z, (5, 4, 5),
        h_fn=lambda r, t, z: -1.0 + 0 * z)))
    inp = {"holonomy": annulus_path, "check-box": box_path,
           "check-cyl": str(cyl)}[sub]
    out = tmp_path / "x.grid"
    assert main(["chart", sub, inp, *opts, str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: usage-error: unrecognized arguments: {flag} {out}\n")
    assert not out.exists()


def bsgate_child(*argv: str) -> tuple[int, list[str], str]:
    """The console script in a fresh interpreter: (exit code, report
    lines minus trailer, stderr)."""
    proc = run_python("-m", "bsgate.cli", *argv)
    out = proc.stdout.rstrip("\n").split("\n")
    assert TRAILER.match(out[-1]), out[-1]
    return proc.returncode, out[:-1], proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["validate", "fix-clean.bsf"], 0),
    (["detect", "--kind", "criterion", "fix-split.bsf"], 0),
    (["detect", "--help"], 0),
    (["validate", "missing.bsf"], 1),
    (["chart", "holonomy", "ann.grid", "--z0", "0", "--step", "nan"], 2),
], ids=["report", "failing-criterion", "help", "usage-error", "chart-error"])
def test_a_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(
        annulus_path, argv, code):
    # the read end is closed before the child starts, so its first write
    # to stdout always meets a broken pipe
    paths = {"fix-clean.bsf": fx("fix-clean.bsf"),
             "fix-split.bsf": fx("fix-split.bsf"), "ann.grid": annulus_path}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_python("-m", "bsgate.cli",
                          *(paths.get(a, a) for a in argv), stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


@pytest.mark.parametrize("step, message", [
    ("nan", "step must be positive and finite"),
    ("inf", "step must be positive and finite"),
    ("1e-300", "step 1e-300 needs more than 10000000 RK4 steps"),
])
def test_chart_holonomy_refuses_a_step_up_front(annulus_path, step, message):
    # a fresh interpreter with a timeout: 1e-300 once meant 6e300 steps
    code, lines, err = bsgate_child("chart", "holonomy", annulus_path,
                                    "--z0", "0", "--step", step)
    assert (code, lines[-1], err) == (2, f"error: chart-error: {message}", "")


def test_chart_extend_refuses_an_oversized_grid_up_front(capsys,
                                                        annulus_path):
    # 30,841 x 8 x 17 samples pass the 2^22 cap; --grid 100000000 once
    # ran for seconds and ended in a MemoryError, exit 3
    (code, lines), peak = traced_peak(lambda: run(
        capsys, "chart", "extend", annulus_path, "--r0", "0.5",
        "--grid", "30841"))
    assert peak < 1 << 20
    assert capsys.readouterr().err == ""
    assert [l for l in lines if l.startswith(("bsgate-report", "error"))] == [
        "bsgate-report chart",
        "error: chart-error: 30841 radial samples of a 8 x 17 annulus make "
        "more than 4194304 samples"]
    assert code == 2


def test_chart_out_does_not_double_the_peak(capsys, tmp_path):
    # --out writes the grid's text fibre by fibre; joining it first once
    # took the peak of this call to 1.8x the peak without --out
    p = tmp_path / "ann.grid"
    p.write_text(print_grid(sample_annulus(
        lambda t, z: -0.1 * (1.0 - z * z), (64, 65))))
    out = tmp_path / "cell.grid"
    argv = ("chart", "extend", str(p), "--r0", "0.5", "--grid", "200")
    (code, _), bare = traced_peak(lambda: run(capsys, *argv))
    (code_out, lines), peak = traced_peak(lambda: run(
        capsys, *argv, "--out", str(out)))
    assert code == code_out == 0 and f"out: {out}" in lines
    assert out.stat().st_size > 30 << 20
    assert peak < 1.1 * bare, peak / bare


def test_chart_extend_refuses_an_infinite_radius_quietly(annulus_path):
    code, lines, err = bsgate_child("chart", "extend", annulus_path,
                                    "--r0", "0.5", "--radius", "inf")
    assert (code, lines[-1], err) == (
        2, "error: chart-error: cylinder grid needs a positive radial "
           "bound (R,)", "")


def test_chart_extend_refuses_an_overflowing_extension_quietly(tmp_path):
    # finite boundary data whose f / r^2 overflows: 2,032 h samples of
    # this cylinder were infinite, and extend wrote them out
    huge = sample_annulus(lambda t, z: -1e308 * (1.0 - z * z), (8, 9))
    p = tmp_path / "huge.grid"
    p.write_text(print_grid(huge))
    out = tmp_path / "cell.grid"
    code, lines, err = bsgate_child("chart", "extend", str(p), "--r0", "0.5",
                                    "--out", str(out))
    assert (code, lines[-1], err) == (
        2, "error: chart-error: extended slope is not finite: the boundary "
           "data over r^2 leaves the float range (r0 = 0.5)", "")
    assert not out.exists()


def test_spelled_out_choices_are_the_layer_constants():
    # the parser spells them out so that building it loads no layer
    assert cli._KINDS == weights.KINDS
    assert cli._CHOICES == splitting.CHOICES
    assert cli._MODES == (INNER_CONTACT, OUTER_CONTACT)


@pytest.mark.parametrize("mode", [INNER_CONTACT, OUTER_CONTACT, "sideways"])
def test_purify_cyl_modes_are_the_chart_constants(mode):
    # the parser spells the modes out so that building it loads no charts
    argv = ["chart", "purify-cyl", "in.grid", "--r0", "0.5", "--mode", mode]
    if mode == "sideways":
        with pytest.raises(cli.UsageError, match="invalid choice"):
            cli._parse_args(argv)
    else:
        assert cli._parse_args(argv).mode == mode


# -- determinism and selftest ---------------------------------------------


@pytest.mark.parametrize("argv", [
    ("validate", "fix-split.bsf"),
    ("detect", "--kind", "criterion", "fix-clean.bsf"),
    ("detect", "--kind", "pos-tisc", "--oracle-bound", "3",
     "fix-tdisc.bsf"),
    ("assemble", "--kind", "isc", "--weights", "fix-doc-isc.w",
     "fix-doc.bsf"),
    ("split", "--sector", "A", "--entry", "0:0:one", "--exit", "3:0:one",
     "--choice", "neutral", "fix-clean.bsf"),
], ids=["validate", "criterion", "detect-oracle", "assemble", "split"])
def test_reports_are_deterministic(capsys, argv):
    argv = [fx(a) if a.startswith("fix-") or a.endswith(".plan") else a
            for a in argv]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_selftest_reads_the_seed_base_from_the_environment(capsys,
                                                           monkeypatch):
    monkeypatch.setenv("BSGATE_SEED", "3")
    code, lines = run(capsys, "selftest", "--seeds", "2")
    assert code == 0
    assert "seed-base: 3" in lines
    assert "solver-runs: 6" in lines
    assert lines[-1] == "selftest: ok"


def test_selftest_seed_base_must_be_an_integer(capsys, monkeypatch):
    # ASCII digits after an optional sign: int() would read '1_0' as 10
    for seed in ("abc", "1_0", "\uff11", " 3"):
        monkeypatch.setenv("BSGATE_SEED", seed)
        code, lines = run(capsys, "selftest", "--seeds", "1")
        assert code == 1
        assert lines[-1] == ("error: usage-error: BSGATE_SEED must be an "
                             f"integer, got {seed!r}")
    monkeypatch.setenv("BSGATE_SEED", "-2")
    code, lines = run(capsys, "selftest", "--seeds", "1")
    assert code == 0 and "seed-base: -2" in lines


@pytest.mark.parametrize("line, message", [
    ("segment A arc one Q up Wf lo Q ends dp:P:0 dp:P:2",
     "line 12, col 9: duplicate segment id A"),
    ("dp P sign +", "line 14, col 4: duplicate dp id P"),
], ids=["segment", "dp"])
def test_duplicate_ids_are_parse_errors(capsys, tmp_path, line, message):
    # the second declaration is refused where its id stands
    text = fixture_text("fix-cross.bsf")
    assert text.count(f"{line}\n") == 1
    p = tmp_path / "twice.bsf"
    p.write_text(text.replace(f"{line}\n", f"{line}\n{line}\n"))
    code, lines = run(capsys, "validate", str(p))
    assert (code, lines[-1]) == (1, f"error: parse-error: {message}")


@pytest.mark.parametrize("seeds", ["0", "-5"])
def test_selftest_needs_at_least_one_seed(capsys, seeds):
    # zero seeds solved no system, yet it printed "selftest: ok"
    code, lines = run(capsys, "selftest", "--seeds", seeds)
    assert code == 1
    assert lines[-1] == ("error: usage-error: --seeds must be at least 1, "
                         f"got {seeds}")
    assert not any(l.startswith(("solver-runs", "selftest")) for l in lines)


def test_selftest_refuses_more_seeds_than_its_cap_up_front(capsys,
                                                          monkeypatch):
    # 10^9 seeds once meant days of solves; the refusal builds no complex
    built = []
    monkeypatch.setattr(gen, "random_complex", built.append)
    code, lines = run(capsys, "selftest", "--seeds", "1000000000")
    assert (code, built) == (1, [])
    assert lines[-1] == ("error: usage-error: --seeds must be at most "
                         "100000, got 1000000000")
    assert cli._MAX_SEEDS == 100_000


def test_selftest_reports_an_oracle_disagreement(capsys, monkeypatch):
    # force the oracle to "find" a witness for every system
    monkeypatch.setattr(weights, "brute_force", lambda system, bound: {"A": 1})
    code, lines = run(capsys, "selftest", "--seeds", "1")
    assert code == 3
    assert lines[-1] == ("error: oracle-disagreement: seed 0 kind "
                         "neg-tisc: oracle disagrees")


def test_selftest_asks_the_oracle_only_about_infeasible_verdicts(
        capsys, monkeypatch):
    verdicts, asked = [], []  # (system, feasible) and systems, in call order
    solve, oracle = weights.feasible, weights.brute_force

    def recording_feasible(system):
        cert = solve(system)
        verdicts.append((system, cert.feasible))
        return cert

    def recording_oracle(system, bound):
        asked.append(system)
        return oracle(system, bound)

    monkeypatch.setattr(weights, "feasible", recording_feasible)
    monkeypatch.setattr(weights, "brute_force", recording_oracle)
    code, lines = run(capsys, "selftest", "--seeds", "4")
    assert code == 0 and "solver-runs: 12" in lines
    # seeds 0-3: isc is feasible on seeds 0 and 3, all else infeasible
    assert [ok for _s, ok in verdicts].count(True) == 2
    assert asked == [system for system, ok in verdicts if not ok]


def test_selftest_oracle_builds_a_table_only_where_the_aggregate_can_reach_1(
        capsys, monkeypatch, oracle_tables):
    # seeds 0-999 ask the oracle 2627 times; 2355 of those systems have a
    # strict aggregate with no positive coefficient, which misses with no
    # table, and the other 272 build one each
    calls, oracle = [], weights.brute_force

    def recording_oracle(system, bound):
        calls.append(system)
        return oracle(system, bound)

    monkeypatch.setattr(weights, "brute_force", recording_oracle)
    code, lines = run(capsys, "selftest", "--seeds", "1000")
    assert code == 0 and "solver-runs: 3000" in lines
    assert (len(calls), len(oracle_tables)) == (2627, 272)


def test_selftest_names_the_seed_and_kind_of_a_failed_check(capsys,
                                                            monkeypatch):
    monkeypatch.setenv("BSGATE_SEED", "5")
    monkeypatch.setattr(weights, "verify_certificate", lambda s, c: False)
    code, lines = run(capsys, "selftest", "--seeds", "1")
    assert code == 3
    assert lines[-1] == ("error: invariant-violation: seed 5 kind neg-tisc: "
                         "emitted certificate for neg-tisc fails "
                         "verification")
