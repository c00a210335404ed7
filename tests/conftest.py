import os
import subprocess
import sys
from pathlib import Path

import pytest

import bsgate
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


@pytest.fixture
def fix(request):
    return load(request.param)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python <args>`` in a fresh interpreter that imports the bsgate
    under test: this process has numpy and the charts loaded already,
    and pytest captures the warnings a real run prints on stderr."""
    path = os.pathsep.join(filter(None, (_PACKAGE_ROOT,
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
