"""Benchmark of the ``bsgate`` command line.

    python3 bench/run.py --workload ladder-decide --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all              # every workload in turn

With ``--trace 0`` each invocation of the workload runs in its own
``python -c 'from bsgate.cli import main ...'`` process, as the
``bsgate`` console script does, one at a time: a closed loop with a
single client, pinned to the CPU that a short probe finds fastest just
before the call (see ``passes.quietest_cpu``).  A run makes a fixed
number of whole passes over the invocation list: ``--seconds`` over the
workload's nominal pass time (``PASS_S``), at least two.  The count does
not depend on how fast the code runs, so every version of it is timed on
as many samples.

The shared VM this was built on runs each virtual CPU at one of two
speeds, about 1.7-2x apart, switching within seconds as co-tenants come and
go; CPU time slows with it.  So every time is given in seconds at the
faster speed: while a child runs, a thread of this process times a fixed
piece of pure-Python work of a few ms (``passes.reference_s``) on the
child's CPU every 100 ms, and the child's times are scaled by the mean
of nominal over measured (``passes.Result.scale``).  A change to the
package moves the scaled times as it moves the raw ones; the raw ones
are saved with the results.  End-to-end metrics:

    wall_s       wall time of one pass: each call's median over the
                 passes, summed
    work_s       the same over the reports' own ``# duration-ms``:
                 in-process work
    setup_s      per-invocation start-up, child wall minus its
                 duration-ms (interpreter, ``import bsgate``, argparse,
                 report output); median over every call of the run
    peak_rss_mb  largest child max-RSS in a pass; median over passes

``calls`` (invocations per pass) and ``fail_ratio`` are printed on the
summary line; the JSON line carries them as ``attempted`` and ``failed``
(``fail_ratio`` is 0 on a correct build, which a bounded metric cannot be).

With ``--trace 1`` the same argv lists run in this process through
``bsgate.cli.main``, each call once untraced and once with every layer's
public functions wrapped (see ``tracing.py``), back to back.  It reports
the per-layer counts and self times, and ``trace.overhead_s``: traced
minus untraced ``work_s``, all as measured (not scaled).  Spans go to
``.bench_work/spans-*.txt``.

Every report is checked (see ``check.py``); the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results with every input's sha256 go to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpus import (ROOT, WORK, WORKLOADS, Invocation, load_manifest,  # noqa: E402
                    prepare, require_package)

# untraced runs make at least this many passes
MIN_PASSES = 2
# wall time of one untraced pass of each workload on the seed code, on a
# 2-vCPU x86-64 VM; a run makes --seconds / PASS_S passes (traced runs,
# which time each call twice, half as many), whatever the code's speed
PASS_S = {"ladder-decide": 11.0, "schedule": 11.0, "selftest": 4.5,
          "charts": 5.5}
END_TO_END = (("wall_s", "s"), ("work_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _checked(workload, seed, manifest, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass of a run."""
    from check import against_manifest, check, report_lines
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, list[str]] = {}
    seen = set()
    for results in passes:
        for inv, res in results:
            attempted += 1
            seen.add(inv.id)
            issues = list(res.problems)
            try:
                issues += check(inv, res.code, res.report, seed)
            except Exception as exc:  # a malformed report fails its call only
                issues.append(f"check raised {type(exc).__name__}: {exc}")
            want = manifest.get(f"{workload.name}/{inv.id}")
            if want is not None:
                issues += against_manifest(inv, res.code, res.report, want)
            lines = report_lines(res.report)
            if first.setdefault(inv.id, lines) != lines:
                issues.append("report differs from the first pass")
            if issues:
                failed += 1
                detail = res.stderr.strip().splitlines()[-1:] or []
                problems.append(f"{inv.id}: " + "; ".join(issues + detail))
    for key in manifest:
        name, _, inv_id = key.partition("/")
        if name == workload.name and inv_id not in seen:
            attempted += 1
            failed += 1
            problems.append(f"{inv_id}: expected by the manifest, not run")
    return attempted, failed, problems


def _per_pass(passes, value) -> float:
    """Sum over the invocation list of each call's median ``value`` across
    passes: the time of one pass."""
    by_call: dict[str, list[float]] = {}
    for results in passes:
        for inv, res in results:
            v = value(res)
            if v is not None:
                by_call.setdefault(inv.id, []).append(v)
    return sum(statistics.median(v) for v in by_call.values())


def pass_count(workload, seconds: float, traced: bool) -> int:
    n = round(seconds / PASS_S[workload.name] / (2 if traced else 1))
    return max(1 if traced else MIN_PASSES, n)


def measure(workload, seconds: float) -> tuple[dict, list, dict]:
    from passes import in_child, run_pass
    # one unmeasured call fills the bytecode caches of a fresh checkout
    in_child(Invocation("warm-up", ("validate", "bench/corpus/fix-clean3.bsf")))
    passes, peaks = [], []
    for _ in range(pass_count(workload, seconds, traced=False)):
        results = run_pass(workload.invocations, in_child)
        passes.append(results)
        peaks.append(max(r.rss_mb for _, r in results))
    setups = [(r.wall_s - r.duration_s) * r.scale for results in passes
              for _, r in results if r.duration_s is not None]
    metrics = {"wall_s": _per_pass(passes, lambda r: r.wall_s * r.scale),
               "work_s": _per_pass(passes, lambda r: r.duration_s
                                   and r.duration_s * r.scale),
               "setup_s": statistics.median(setups or [0.0]),
               "peak_rss_mb": statistics.median(peaks)}
    # per call: id, wall, duration-ms, max RSS, CPU time of the child and
    # the reference_s() times around it, all as measured
    samples = {"calls": [[[inv.id, r.wall_s, r.duration_s, r.rss_mb, r.cpu_s,
                           r.references]
                          for inv, r in results] for results in passes],
               "unscaled": {"wall_s": _per_pass(passes, lambda r: r.wall_s),
                            "work_s": _per_pass(passes,
                                                lambda r: r.duration_s)}}
    return metrics, passes, samples


def measure_traced(workload, seconds: float) -> tuple[dict, list, dict]:
    from passes import in_process, run_pass
    from tracing import Tracer
    ids = [inv.id for inv in workload.invocations]
    plain, traced, layers = [], [], []
    for _ in range(pass_count(workload, seconds, traced=True)):
        tracer = Tracer()
        untraced = []

        def run_traced(inv):
            tracer.invocation = ids.index(inv.id)
            tracer.install()
            try:
                return in_process(inv)
            finally:
                tracer.uninstall()

        def execute(inv):
            # each call runs untraced and traced back to back, in
            # alternating order, so slow drifts of the machine cancel
            # out of the difference
            if (len(untraced) + len(layers)) % 2:
                res = run_traced(inv)
                untraced.append((inv, in_process(inv)))
            else:
                untraced.append((inv, in_process(inv)))
                res = run_traced(inv)
            return res

        results = run_pass(workload.invocations, execute)
        bad = tracer.unverified()
        for inv, res in results:
            if ids.index(inv.id) in bad:
                res.problems.append("a certificate from feasible() fails "
                                    "verify_certificate")
        plain.append(untraced)
        traced.append(results)
        layers.append(tracer.layer_metrics())
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        # counts repeat exactly from pass to pass; times get the median
        metrics[name] = (statistics.median(values)
                         if name.endswith("_s") else values[0])
    work = {"untraced_work_s": _per_pass(plain, lambda r: r.duration_s),
            "traced_work_s": _per_pass(traced, lambda r: r.duration_s)}
    metrics["trace.overhead_s"] = (work["traced_work_s"]
                                   - work["untraced_work_s"])
    tracer.write(WORK / f"spans-{workload.name}-seed{workload.seed}.txt", ids)
    return metrics, plain + traced, work


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = prepare(name, seed)
    manifest = load_manifest(seed)
    if trace:
        from tracing import PER_LAYER
        values, passes, samples = measure_traced(workload, seconds)
        units = dict(PER_LAYER)
    else:
        values, passes, samples = measure(workload, seconds)
        units = dict(END_TO_END)
    attempted, failed, problems = _checked(workload, seed, manifest, passes)
    calls = len(passes[0])
    for path, digest in sorted(workload.inputs.items()):
        print(f"input-sha256 {digest} {path}")
    print(f"inputs-sha256 {workload.inputs_digest()} {name} seed {seed}")
    if "unscaled" in samples:
        print(f"{name} seed {seed} unscaled: " + " | ".join(
            f"{k} {v:.6g} s" for k, v in samples["unscaled"].items()))
    for problem in problems[:20]:
        print(f"FAIL {name}: {problem}")
    shown = " | ".join(f"{k} {values[k]:.6g} {units[k]}" for k in units)
    print(f"{name} seed {seed} trace {int(trace)} passes {len(passes)}: "
          f"{shown} | calls {calls} count | fail_ratio "
          f"{failed / attempted:.6g} ratio ({failed}/{attempted})",
          flush=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**result, "workload": name, "seed": seed,
                               "calls": calls, "problems": problems,
                               "samples": samples,
                               "inputs": workload.inputs}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_package()
    os.chdir(ROOT)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
