"""The command line's argv reading against argparse's.

``cli._parse_args`` reads argv from the command table with no argument
parsing library.  The reference below is the argparse tree the command
line was built on, built from the same tables (``_build_parser`` cut the
tree to the branch that argv names).  For drawn argvs both sides must
agree on the exit code, on the namespace when the argv parses, on the
message when it is refused, and on whose help is printed.

The reference is argparse as of Python 3.10 and 3.11, so the
differential test runs there alone.  Its readings of about a thousand
drawn argvs are committed in ``fixtures/argv-readings.json``, which
every version checks ``cli._parse_args`` against; on 3.10 or 3.11,
``PYTHONPATH=src:tests python -c "import test_argv;
test_argv.write_readings()"`` draws and writes them again.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from bsgate import cli

READINGS = Path(__file__).parent / "fixtures" / "argv-readings.json"
_OLD_ARGPARSE = sys.version_info < (3, 12)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise cli.UsageError(message)


def _branch(table, name):
    return (name,) if name in table else tuple(table)


def _build_parser(argv=()):
    cmd, chart_cmd = (*argv[:2], None, None)[:2]
    parser = _Parser(prog="bsgate", description="Command-line entry point.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in _branch(cli._COMMAND_ARGS, cmd):
        help_line, args = cli._COMMAND_ARGS[name]
        p = sub.add_parser(name, help=help_line)
        if name == "chart":
            csub = p.add_subparsers(dest="chart_cmd", required=True)
            for chart_name in _branch(cli._CHART_ARGS,
                                      chart_cmd if cmd == "chart" else None):
                cp = csub.add_parser(chart_name)
                for flags, kwargs in cli._CHART_ARGS[chart_name]:
                    cp.add_argument(*flags, **kwargs)
        for flags, kwargs in args:
            p.add_argument(*flags, **kwargs)
    return parser


def _outcome(parse, argv):
    """(exit code, namespace or message or the prog whose help printed)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            ns = parse(list(argv))
    except cli.UsageError as exc:
        return 1, str(exc)
    except SystemExit as exc:
        ns = None
        assert exc.code == 0
    if ns is None:
        usage = out.getvalue().split()
        assert usage[0] == "usage:"
        return 0, usage[1:usage.index("[-h]")]
    return 0, vars(ns)


def _reference(argv):
    return _build_parser(argv).parse_args(argv)


# the branches of the tree: each command, each chart subcommand, and a
# few that name none
_PATHS = ([[cmd] for cmd in cli._COMMAND_ARGS if cmd != "chart"]
          + [["chart", sub] for sub in cli._CHART_ARGS]
          + [[], ["chart"], ["frob"], ["chart", "frob"]])
# no "--": see test_a_value_of_two_dashes_after_equals_is_kept
_VALUES = ("0", "3", "0.5", "-0.25", "-1", "-.5", "-1e-3", "1e-9", "frob",
           "", "-", "a b", "- 1", "-5\n", "x.bsf", "in.grid")
# tokens that name no argument, or help, wherever they stand
_STRAYS = ("--", "-h", "--help", "--he", "-hh", "-hx", "-h=", "--help=x",
           "--bogus", "--bogus=1", "-x", "-x=1", "---x", "--=x", "-")


def _args(path):
    if path[:1] == ["chart"] and path[1:] and path[1] in cli._CHART_ARGS:
        return cli._CHART_ARGS[path[1]]
    if path and path[0] in cli._COMMAND_ARGS:
        return cli._COMMAND_ARGS[path[0]][1]
    return ()


def _pool(args):
    """The tokens drawn for a parser with ``args``: each flag, its
    unique and ambiguous prefixes, valid and invalid values, and their
    ``=`` forms (help's are among the strays)."""
    flags = [f for names, _ in args for f in names if f.startswith("-")]
    values = list(_VALUES)
    for _, kwargs in args:
        values.extend(kwargs.get("choices", ()))
    prefixes = {flag[:k] for flag in flags for k in range(3, len(flag))}
    names = flags + sorted(prefixes)
    return names, values, [f"{name}={value}" for name in names
                           for value in values]


@st.composite
def argvs(draw):
    path = draw(st.sampled_from(_PATHS))
    names, values, glued = _pool(_args(path))
    # a call that is well formed but for the flags and input it leaves
    # out, then stray tokens, maybe all shuffled
    wanted = []
    for flagnames, kwargs in _args(path):
        if not draw(st.integers(0, 5)):
            continue
        if not flagnames[0].startswith("-"):
            wanted.append("x.bsf")
            continue
        value = draw(st.sampled_from(kwargs.get("choices",
                                                ("0.5", "-0.25", "3"))))
        wanted += ([f"{flagnames[0]}={value}"] if draw(st.booleans())
                   else [flagnames[0], value])
    token = st.one_of([st.sampled_from(pool)
                       for pool in (names, values, glued, _STRAYS) if pool])
    tail = wanted + draw(st.lists(token, max_size=3))
    if draw(st.booleans()):
        tail = draw(st.permutations(tail))
    lead = [] if draw(st.integers(0, 7)) else [draw(st.sampled_from(_STRAYS))]
    return lead + path + list(tail)


# argvs that once read otherwise; both tests read them
_EXAMPLES = (
    ["chart", "holonomy", "in.grid", "--z0", "-0.25"],
    ["chart", "holonomy", "in.grid", "--z0", "-1e-3"],
    ["chart", "extend", "--r=1", "in.grid"],
    ["split", "--e", "0:0:one", "--sector", "A", "x.bsf"],
    ["detect", "--kind", "isc", "--ki=criterion", "--", "-x.bsf"],
    ["-x", "detect", "x.bsf", "--kind", "isc", "--bogus", "y"],
    ["validate", "-hh", "x.bsf"],
    ["validate", "x.bsf", "--"],
    ["validate", "--", "--"],
)


def _given_examples(test):
    for argv in _EXAMPLES:
        test = example(argv)(test)
    return given(argvs())(test)


# Python 3.13's argparse reads --, values glued to -h and choice lists
# otherwise; the reference is argparse as of 3.10 and 3.11, which CI runs
@pytest.mark.skipif(not _OLD_ARGPARSE,
                    reason="the reference is argparse as of Python 3.11")
@_given_examples
@settings(max_examples=1000, deadline=None)
def test_argv_reads_as_the_argparse_tree(argv):
    assert _outcome(cli._parse_args, argv) == _outcome(_reference, argv)


def write_readings(path: Path = READINGS, count: int = 1250) -> None:
    """Write the reference's reading of each example and of ``count``
    argvs drawn with a fixed seed, repeats dropped, one ``[argv, code,
    outcome]`` a line, as :func:`_outcome` gives them."""
    assert _OLD_ARGPARSE, "the reference is argparse as of Python 3.11"
    drawn = list(_EXAMPLES)

    @settings(max_examples=count, derandomize=True, database=None,
              phases=[Phase.generate], deadline=None)
    @given(argvs())
    def draw(argv):
        if argv not in drawn:
            drawn.append(argv)

    draw()
    rows = [json.dumps([argv, *_outcome(_reference, argv)])
            for argv in drawn]
    path.write_text("[\n" + ",\n".join(rows) + "\n]\n")


def test_argv_reads_as_the_recorded_argparse_readings():
    # the table the reference wrote, checked on every Python version
    table = json.loads(READINGS.read_text())
    assert len(table) > 900
    assert [argv for argv, _, _ in table[:len(_EXAMPLES)]] == list(_EXAMPLES)
    for argv, code, outcome in table:
        assert _outcome(cli._parse_args, argv) == (code, outcome), argv


def test_a_value_of_two_dashes_after_equals_is_kept():
    # argparse before Python 3.13 turned the value of --flag=-- into an
    # empty list, which reached the handlers (selftest --seeds=-- exited
    # 3, internal-error); here it is the string "--", as in 3.13
    argv = ["schedule", "--plan=--", "--out=--", "x.bsf"]
    assert vars(cli._parse_args(argv)) == {"cmd": "schedule", "plan": "--",
                                           "out": "--", "input": "x.bsf"}
    with pytest.raises(cli.UsageError, match="invalid choice: '--'"):
        cli._parse_args(["detect", "--kind=--", "x.bsf"])
    with pytest.raises(cli.UsageError, match="invalid int value: '--'"):
        cli._parse_args(["selftest", "--seeds=--"])
