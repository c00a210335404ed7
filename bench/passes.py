"""One pass over a workload's invocation list, in a child process per call
(how a user runs ``bsgate``) or in this process (for the traced run)."""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from corpus import OUT, ROOT, WITNESS_SCALE, WORK, Invocation

# what the ``bsgate`` console script runs
CLI = "import sys; from bsgate.cli import main; sys.exit(main())"
CALL_TIMEOUT_S = 150.0


@dataclass
class Result:
    code: int
    report: str
    stderr: str
    wall_s: float
    rss_mb: float = 0.0  # child max RSS; 0.0 in process
    cpu_s: float = 0.0  # child user + system CPU time; 0.0 in process
    # reference_s() on the child's CPU just before, while and just after
    # it runs; empty in process
    references: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # found while traced

    @property
    def scale(self) -> float:
        """The mean of REFERENCE_NOMINAL_S over each reference time taken
        around and during the call.  The samples are evenly spaced in time,
        so this is the factor that turns the call's times into seconds at
        the nominal speed."""
        if not self.references:
            return 1.0
        return statistics.fmean(REFERENCE_NOMINAL_S / r
                                for r in self.references)

    @property
    def duration_s(self) -> Optional[float]:
        """The report's own ``# duration-ms`` trailer, in seconds."""
        lines = self.report.rstrip("\n").splitlines()
        if not lines or not lines[-1].startswith("# duration-ms "):
            return None
        return int(lines[-1].split()[-1]) / 1000.0


Executor = Callable[[Invocation], Result]

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else []
# time of one reference_s(), in thread CPU time, on a 2-vCPU x86-64 VM at
# the faster of its two speeds; see Result.scale
REFERENCE_NOMINAL_S = 0.0025
# a child's CPU is sampled with reference_s() this often while it runs
SAMPLE_PERIOD_S = 0.1


def reference_s() -> float:
    """Thread CPU time of a fixed piece of pure-Python work like the
    package's own: exact elimination over ``Fraction`` on a 9 x 10
    matrix, a few ms.  It uses the standard library only, so it stays the
    same whatever the package under test does.  CPU time, not wall time:
    a sample that the child preempts does not read slow, while a CPU that
    a co-tenant slows down does."""
    start = time.thread_time()
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
          for j in range(n + 1)] for i in range(n)]
    for k in range(n):
        p = next((r for r in range(k, n) if m[r][k]), None)
        if p is None:
            continue
        m[k], m[p] = m[p], m[k]
        for r in range(n):
            if r != k and m[r][k]:
                f = m[r][k] / m[k][k]
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return time.thread_time() - start


class Sampler(threading.Thread):
    """Runs reference_s() every SAMPLE_PERIOD_S on this thread's CPU until
    stopped: how fast that CPU is while a child runs on it."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(SAMPLE_PERIOD_S):
            self.samples.append(reference_s())

    def stop(self) -> list[float]:
        self._done.set()
        self.join()
        return self.samples


@contextlib.contextmanager
def quietest_cpu():
    """Pin this process, and so the children it starts, to the CPU on which
    ``reference_s`` runs fastest right now, and yield that time.  On a
    shared VM each virtual CPU is slowed in turn, by up to half, by
    whatever else runs on its host core, and a child does not move away
    from a slow one by itself."""
    if len(CPUS) < 2:
        yield reference_s()
        return
    probes = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        probes[cpu] = reference_s()
    best = min(probes, key=probes.get)
    os.sched_setaffinity(0, {best})
    try:
        yield probes[best]
    finally:
        os.sched_setaffinity(0, CPUS)


def in_child(inv: Invocation) -> Result:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(inv.env)
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "stdout", "w+b") as out, \
            open(WORK / "stderr", "w+b") as err, \
            quietest_cpu() as ref_before:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI, *inv.argv],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        sampler = Sampler()
        sampler.start()
        try:
            # wait4 rather than Popen.wait: it returns this child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            during = sampler.stop()
        references = [ref_before, *during, reference_s()]
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, out.read().decode(),
                      err.read().decode(), wall, usage.ru_maxrss / 1024.0,
                      usage.ru_utime + usage.ru_stime, references)


def in_process(inv: Invocation) -> Result:
    import bsgate.cli as cli  # looked up per call: the tracer rebinds main
    saved = {k: os.environ.get(k) for k, _ in inv.env}
    os.environ.update(inv.env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(inv.argv))
            except Exception:  # a raw traceback is a failed call, as in a child
                traceback.print_exc(file=err)
                code = 1
            wall = time.perf_counter() - start
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return Result(code, out.getvalue(), err.getvalue(), wall)


def witness(report: str) -> dict[str, int]:
    """``w <sector> <int>`` lines of a feasible single-kind detect report."""
    if "feasible: true" not in report.splitlines():
        return {}
    return {parts[1]: int(parts[2]) for parts in
            (line.split() for line in report.splitlines())
            if len(parts) == 3 and parts[0] == "w"}


def _write_weights(inv: Invocation, source: Optional[Result]) -> bool:
    w = witness(source.report) if source is not None else {}
    if not w:
        return False
    path = ROOT / inv.argv[inv.argv.index("--weights") + 1]
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"w {s} {WITNESS_SCALE * v}\n"
                            for s, v in sorted(w.items())))
    return True


def run_pass(invocations: list[Invocation],
             execute: Executor) -> list[tuple[Invocation, Result]]:
    """Run the list in order, one call at a time.  An assemble whose
    detect reported no witness is skipped, not attempted."""
    done: dict[str, Result] = {}
    results = []
    for inv in invocations:
        if inv.weights_from is not None and \
                not _write_weights(inv, done.get(inv.weights_from)):
            continue
        res = execute(inv)
        done[inv.id] = res
        results.append((inv, res))
    return results
