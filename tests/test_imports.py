"""Each command loads only the layers it runs, only the chart layer
and the brute-force oracle load numpy, and no command loads
``dataclasses``, ``argparse`` or ``gettext``.

``import bsgate`` loads no layer: every public name but the errors is
served from its layer on first use.  The exact layers work on integers
and fractions, so every command that does not need numpy starts without
it.  Each load check runs in a fresh interpreter (see
``conftest.run_python``).
"""

import importlib

import pytest

import bsgate
from bsgate import charts
from bsgate.charts import print_grid, sample_annulus, sample_box
from bsgate.cli import main

from conftest import fx, run_python

# runs one command, then says whether numpy was loaded before and after,
# names the bsgate modules loaded after, and says whether dataclasses,
# argparse and gettext were
PROBE = """
import sys
from bsgate.cli import main
before = "numpy" in sys.modules
code = main(sys.argv[1:])
print("exit", code, "numpy-before", before, "numpy-after",
      "numpy" in sys.modules)
print(*sorted(m for m in sys.modules if m.partition(".")[0] == "bsgate"))
print(*(f"{name} {name in sys.modules}"
        for name in ("dataclasses", "argparse", "gettext")))
"""
# what every command loads: the package, its errors and the command line
BASE = ("bsgate", "bsgate.cli", "bsgate.errors")


def probe(*argv: str) -> tuple[list[str], str, list[str]]:
    proc = run_python("-c", PROBE, *argv)
    assert proc.stderr == ""
    *report, verdict, modules, loaded = proc.stdout.splitlines()
    # every record is a NamedTuple or a plain class, so no command pays
    # for the dataclasses machinery (and inspect, ast, dis) at start-up;
    # argv is read from the command table, so none pays for argparse and
    # its gettext and locale either
    assert loaded == "dataclasses False argparse False gettext False"
    # report[-1] is the # duration-ms trailer
    return report[:-1], verdict, modules.split()


def layers(*names: str) -> list[str]:
    return sorted(BASE + tuple(f"bsgate.{n}" for n in names))


def test_import_bsgate_leaves_numpy_unloaded():
    proc = run_python("-c", "import sys, bsgate; "
                            "print('numpy' in sys.modules, *sorted("
                            "m for m in sys.modules if 'bsgate' in m)); "
                            "print(bsgate.weights.__name__)")
    assert proc.stdout == "False bsgate bsgate.errors\nbsgate.weights\n"


# detect loads the solver (simplex) through weights, and split and
# schedule load weights through splitting's criterion
EXACT = ("parser", "surface", "weights", "simplex")


@pytest.mark.parametrize("argv, loaded", [
    (("validate", "fix-clean.bsf"), ("parser", "surface")),
    (("detect", "--kind", "criterion", "fix-clean.bsf"), EXACT),
    (("split", "--sector", "A", "--entry", "0:0:one", "--exit", "3:0:one",
      "--choice", "safe", "fix-clean.bsf"), EXACT + ("splitting",)),
    (("schedule", "--plan", "clean3.plan", "fix-clean3.bsf"),
     EXACT + ("splitting",)),
    (("assemble", "--kind", "isc", "--weights", "fix-doc-isc.w",
      "fix-doc.bsf"), EXACT + ("assembly",)),
], ids=["validate", "criterion", "split", "schedule", "assemble"])
def test_exact_commands_run_without_numpy(argv, loaded):
    argv = [fx(a) if a.startswith("fix-") or a.endswith(".plan") else a
            for a in argv]
    _, verdict, modules = probe(*argv)
    assert verdict == "exit 0 numpy-before False numpy-after False"
    assert modules == layers(*loaded)


@pytest.mark.parametrize("argv", [
    ("check-box", "box.grid"),
    ("purify-box", "box.grid", "--y0", "0.25", "--y1", "0.5",
     "--delta", "0.25"),
    ("extend", "ann.grid", "--r0", "0.5", "--grid", "9"),
    ("holonomy", "ann.grid", "--z0", "0", "--step", "0.1"),
], ids=lambda argv: argv[0])
def test_chart_commands_load_the_chart_layer_alone(tmp_path, argv):
    (tmp_path / "box.grid").write_text(print_grid(
        sample_box(lambda x, y, z: -1.0 - y, (5, 5, 5))))
    (tmp_path / "ann.grid").write_text(print_grid(
        sample_annulus(lambda t, z: -0.1 * (1.0 - z * z), (8, 9))))
    sub, name, *rest = argv
    _, verdict, modules = probe("chart", sub, str(tmp_path / name), *rest)
    assert verdict == "exit 0 numpy-before False numpy-after True"
    assert modules == layers("charts")


def test_selftest_loads_no_dataclasses():
    report, verdict, modules = probe("selftest", "--seeds", "2")
    assert report[-1] == "selftest: ok"
    assert verdict == "exit 0 numpy-before False numpy-after True"
    assert modules == layers(*EXACT, "gen", "charts")


def test_the_oracle_loads_numpy_when_asked(capsys):
    argv = ["detect", "--kind", "pos-tisc", "--oracle-bound", "3",
            fx("fix-tdisc.bsf")]
    report, verdict, modules = probe(*argv)
    assert verdict == "exit 0 numpy-before False numpy-after True"
    assert modules == layers(*EXACT)
    assert main(argv) == 0  # the same report from this process
    assert report == capsys.readouterr().out.splitlines()[:-1]
    assert report[-2:] == ["oracle-witness: found", "oracle-agreement: ok"]


def test_the_oracle_answers_an_aggregate_that_cannot_reach_1_without_numpy():
    # the isc aggregate of fix-cross has no positive coefficient, so no
    # vector in the box reaches 1 and the oracle builds no table
    report, verdict, modules = probe("detect", "--kind", "isc",
                                     "--oracle-bound", "3",
                                     fx("fix-cross.bsf"))
    assert verdict == "exit 0 numpy-before False numpy-after False"
    assert modules == layers(*EXACT)
    assert report[-2:] == ["oracle-witness: none", "oracle-agreement: ok"]


def test_detect_loads_no_pathlib_without_site():
    # -S leaves out site-packages and their .pth files, which may load
    # pathlib before any command runs; inputs are read with open()
    proc = run_python("-S", "-c", "import sys; from bsgate.cli import main; "
                      "code = main(sys.argv[1:]); print('exit', code, "
                      "'pathlib', 'pathlib' in sys.modules)",
                      "detect", "--kind", "criterion", fx("fix-clean.bsf"))
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "exit 0 pathlib False"


# runs one command with numpy hidden, as in an install that lacks it
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from bsgate.cli import main
sys.exit(main(sys.argv[1:]))
"""
NO_NUMPY = ("error: internal-error: ModuleNotFoundError: import of numpy "
            "halted; None in sys.modules")


@pytest.mark.parametrize("argv, code", [
    (("chart", "holonomy", "--help"), 0),
    (("chart", "--bogus"), 1),
    (("chart", "check-box", "box.grid"), 3),
    (("selftest", "--seeds", "1"), 3),
], ids=["help", "usage", "check-box", "selftest"])
def test_commands_without_numpy_end_in_one_report(tmp_path, argv, code):
    # help and usage errors load no layer; a layer that fails to load is
    # the command's one report, an internal error, with no traceback
    (tmp_path / "box.grid").write_text(print_grid(
        sample_box(lambda x, y, z: -1.0 - y, (5, 5, 5))))
    argv = [str(tmp_path / a) if a.endswith(".grid") else a for a in argv]
    proc = run_python("-c", WITHOUT_NUMPY, *argv)
    assert proc.returncode == code
    out = proc.stdout.splitlines()
    if code == 0:
        assert proc.stderr == ""
        assert out[0].startswith("usage: bsgate chart holonomy ")
    elif code == 1:
        assert out == []
        assert proc.stderr.startswith("error: usage-error: ")
        assert len(proc.stderr.splitlines()) == 1
    else:
        assert proc.stderr == ""
        assert out[:-1] == [f"bsgate-report {argv[0]}",
                            f"version: {bsgate.__version__}", NO_NUMPY]
        assert out[-1].startswith("# duration-ms ")


def test_every_public_name_resolves():
    for name in bsgate.__all__:
        getattr(bsgate, name)
    assert bsgate.check_box is charts.check_box
    # every lazy name is its layer's own object, and with the errors and
    # the version makes up __all__
    for name, layer in bsgate._HOME.items():
        home = importlib.import_module(f"bsgate.{layer}")
        assert getattr(bsgate, name) is getattr(home, name)
    errors = {name for name, value in vars(bsgate.errors).items()
              if isinstance(value, type) and issubclass(value, Exception)}
    assert sorted(bsgate.__all__) == sorted(
        {*bsgate._HOME, *errors, "__version__"})
    assert set(bsgate.__all__) <= set(dir(bsgate))
    names = {}
    exec("from bsgate import *", names)
    assert set(bsgate.__all__) <= set(names)
    with pytest.raises(AttributeError, match="no_such_name"):
        bsgate.no_such_name
