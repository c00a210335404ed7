"""Only the chart layer and the brute-force oracle load numpy.

The exact layers work on integers and fractions, so ``import bsgate``
and every command that does not need numpy start without it; the chart
names are served from ``bsgate.charts`` on first use.  Each load check
runs in a fresh interpreter (see ``conftest.run_python``).
"""

import pytest

import bsgate
from bsgate import charts
from bsgate.cli import main

from conftest import fx, run_python

# runs one command, then says whether numpy was loaded before and after
PROBE = """
import sys
from bsgate.cli import main
before = "numpy" in sys.modules
code = main(sys.argv[1:])
print("exit", code, "numpy-before", before, "numpy-after",
      "numpy" in sys.modules)
"""


def probe(*argv: str) -> tuple[list[str], str]:
    proc = run_python("-c", PROBE, *argv)
    assert proc.stderr == ""
    *report, verdict = proc.stdout.splitlines()
    return report[:-1], verdict  # report[-1] is the # duration-ms trailer


def test_import_bsgate_leaves_numpy_unloaded():
    proc = run_python("-c", "import sys, bsgate; "
                            "print('numpy' in sys.modules)")
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ("validate", "fix-clean.bsf"),
    ("detect", "--kind", "criterion", "fix-clean.bsf"),
    ("split", "--sector", "A", "--entry", "0:0:one", "--exit", "3:0:one",
     "--choice", "safe", "fix-clean.bsf"),
    ("schedule", "--plan", "clean3.plan", "fix-clean3.bsf"),
], ids=["validate", "criterion", "split", "schedule"])
def test_exact_commands_run_without_numpy(argv):
    argv = [fx(a) if a.startswith("fix-") or a.endswith(".plan") else a
            for a in argv]
    _, verdict = probe(*argv)
    assert verdict == "exit 0 numpy-before False numpy-after False"


def test_the_oracle_loads_numpy_when_asked(capsys):
    argv = ["detect", "--kind", "pos-tisc", "--oracle-bound", "3",
            fx("fix-tdisc.bsf")]
    report, verdict = probe(*argv)
    assert verdict == "exit 0 numpy-before False numpy-after True"
    assert main(argv) == 0  # the same report from this process
    assert report == capsys.readouterr().out.splitlines()[:-1]
    assert report[-2:] == ["oracle-witness: found", "oracle-agreement: ok"]


def test_every_public_name_resolves():
    for name in bsgate.__all__:
        getattr(bsgate, name)
    assert bsgate.check_box is charts.check_box
    assert set(bsgate.__all__) <= set(dir(bsgate))
    names = {}
    exec("from bsgate import *", names)
    assert set(bsgate.__all__) <= set(names)
    with pytest.raises(AttributeError, match="no_such_name"):
        bsgate.no_such_name
