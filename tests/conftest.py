import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bsgate
from bsgate import surface
from bsgate.parser import parse_complex

FIXTURES = Path(__file__).parent / "fixtures"
# the directory holding the bsgate under test, for fresh interpreters
_PACKAGE_ROOT = str(Path(bsgate.__file__).resolve().parent.parent)


def fx(name: str) -> str:
    """The path of fixture ``name``, as a command-line argument."""
    return str(FIXTURES / name)


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def load(name: str):
    return parse_complex(fixture_text(name))


def clean3_rows() -> list[tuple[str, ...]]:
    """The rows of ``clean3.plan``, three over steps from fix-clean3, each
    its sector, entry and exit."""
    return [tuple(line.split())
            for line in fixture_text("clean3.plan").splitlines()]


@pytest.fixture
def fix(request):
    return load(request.param)


@pytest.fixture
def oracle_tables(monkeypatch):
    """The dtypes of the tables ``brute_force`` builds, in call order:
    each table starts by choosing its dtype, and no other code of a
    test that reads this calls ``numpy.min_scalar_type``."""
    import numpy

    picked, pick = [], numpy.min_scalar_type

    def recording_pick(value):
        picked.append(pick(value))
        return picked[-1]

    monkeypatch.setattr(numpy, "min_scalar_type", recording_pick)
    return picked


@pytest.fixture
def tables_built(monkeypatch):
    """Each ``(complex, parent)`` that ``surface._tables`` builds from, in
    call order, from the start of the test: one per complex built, cold
    ones with parent ``None``.  It holds every complex it records."""
    built, tables = [], surface._tables

    def recording(out, parent):
        built.append((out, parent))
        return tables(out, parent)

    monkeypatch.setattr(surface, "_tables", recording)
    return built


def run_python(*args: str, stdout=subprocess.PIPE,
               ) -> subprocess.CompletedProcess:
    """``python <args>`` in a fresh interpreter that imports the bsgate
    under test: this process has numpy and the charts loaded already,
    and pytest captures the warnings a real run prints on stderr.  Its
    stdout is captured, or goes to the given file descriptor."""
    path = os.pathsep.join(filter(None, (_PACKAGE_ROOT,
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def tally(cx, asm):
    """Faces per sector, boundary runs per segment and corner records per
    double point, over all of ``asm``'s components, zeros included."""
    faces = dict.fromkeys((s.id for s in cx.sectors), 0)
    runs = dict.fromkeys((g.id for g in cx.segments), 0)
    corners = dict.fromkeys((d.id for d in cx.dps), 0)
    for comp in asm.components:
        for sid, _lev in comp.faces:
            faces[sid] += 1
        for trace in comp.boundaries:
            for e in trace:
                if e[0] in ("run", "corner"):
                    (runs if e[0] == "run" else corners)[e[1]] += 1
    return faces, runs, corners


def traced_peak(fn) -> tuple:
    """Call ``fn()``; return its result and the peak of the memory
    Python allocated meanwhile, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
