"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The count metrics of a traced run must repeat exactly between two runs,
each in its own process (so with its own hash seed), and the manifest
check must catch a report with one verdict line flipped.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from corpus import ROOT, WORKLOADS, load_manifest, prepare, require_package  # noqa: E402

require_package()

from check import against_manifest, check  # noqa: E402
from passes import in_process  # noqa: E402

EXACT = (".calls", "weights.system.", "splitting.criterion_per_step",
         "splitting.under_fallback_ratio", "charts.holonomy.rk4_steps",
         "charts.grid_bytes", "gen.sectors", "assembly.faces", "trace.spans")


def _traced(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_between_traced_runs(workload):
    first, second = _traced(workload), _traced(workload)
    counts = sorted(k for k in first if any(
        k.endswith(s) or k.startswith(s) for s in EXACT))
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["cli.main.calls"] > 0


# (workload, invocation, verdict line, flipped line)
FLIPS = (
    ("ladder-decide", "criterion-L5", "passes: true", "passes: false"),
    ("ladder-decide", "criterion-L5", "neg-tisc: infeasible",
     "neg-tisc: feasible"),
    ("ladder-decide", "pos-tisc-L5", "feasible: false", "feasible: true"),
    ("charts", "check-box", "confoliation: true", "confoliation: false"),
)


@pytest.mark.parametrize("workload,inv_id,line,flipped", FLIPS)
def test_manifest_check_catches_a_flipped_verdict(monkeypatch, workload,
                                                  inv_id, line, flipped):
    monkeypatch.chdir(ROOT)
    inv = next(i for i in prepare(workload, 0).invocations if i.id == inv_id)
    want = load_manifest(0)[f"{workload}/{inv_id}"]
    res = in_process(inv)
    assert check(inv, res.code, res.report, 0) == []
    assert against_manifest(inv, res.code, res.report, want) == []
    assert line in res.report.splitlines()
    bad = res.report.replace(line + "\n", flipped + "\n", 1)
    assert against_manifest(inv, res.code, bad, want)
