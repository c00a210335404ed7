"""Seeded inputs and invocation lists for the bsgate benchmark.

Every workload is a fixed list of ``bsgate`` argv lists:

* ``ladder-decide`` reads the "over" ladder committed under
  ``bench/corpus/seed0``: ``split(..., "over")`` from ``fix-clean3``
  with loci drawn by ``random.Random(0)`` over ``good_loci``, kept at
  rungs L5, L10, L15 and L20;
* ``schedule`` reads the committed plan (16 ``safe_split`` steps from
  ``fix-clean3``, loci drawn the same way and written with
  ``format_locus``; at the last two steps the first drawn locus where the over
  move breaks the criterion, so ``safe_split`` falls back to under) and
  one committed good locus of L20;
* ``selftest`` is one ``selftest --seeds 1000`` call from seed
  ``1000 * seed``;
* ``charts`` reads grids sampled from seeded parameters and written
  (``%.17g``) by the code below, never by the package under test.

The ladder and the plan are the same for every seed.  The cost of an
exact solve depends on which loci were drawn (one pass of the ladder
took 7 s on one seed and 26 s on another), so seeded ladders would
measure the seed, not the code; the seed only shuffles the order of
their calls.  Each version of the package is timed on the same bytes.

Run ``python3 bench/corpus.py`` from the repository root to rewrite the
committed corpus and its manifest of expected reports with the package
in ``src/``; a diff in ``bench/corpus`` then shows what changed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "bench" / "corpus"
SEED0 = CORPUS / "seed0"
WORK = ROOT / ".bench_work"
OUT = WORK / "out"

WORKLOADS = ("ladder-decide", "schedule", "selftest", "charts")
RUNGS = (5, 10, 15, 20)
POS_RUNGS = (5, 10, 15)
ASSEMBLE_RUNGS = (10, 15)
WITNESS_SCALE = 100
PLAN_STEPS = 16
# plan steps whose locus makes safe_split fall back to the under move
UNDER_STEPS = (14, 15)
SELFTEST_SEEDS = 1000
HOLONOMY_Z0 = ("0.5", "-0.25")
HOLONOMY_STEP = "1e-4"
# |z1 - closed form| allowed: on the 65-sample z axis linear
# interpolation of c (1 - z^2) is off by up to c dz^2 / 4 in slope; the
# worst error over seeds 0-11 is 1.5e-4
Z1_CLOSED_FORM_TOL = 2e-3


def require_package() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (ROOT / "src" / "bsgate" / "cli.py").is_file():
        sys.exit(f"bench: no bsgate sources under {ROOT / 'src'}")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass(frozen=True)
class Invocation:
    """One ``bsgate`` call.  ``weights_from`` names the pos-tisc detect
    whose reported witness, scaled, becomes this assemble's weights."""

    id: str
    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    weights_from: Optional[str] = None


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list[Invocation]
    inputs: dict[str, str] = field(default_factory=dict)  # path -> sha256

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.inputs):
            h.update(f"{path} {self.inputs[path]}\n".encode())
        return h.hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _start():
    from bsgate import parse_complex
    return parse_complex((CORPUS / "fix-clean3.bsf").read_text())


# -- complexes ---------------------------------------------------------------


def ladder_texts(seed: int) -> dict[int, str]:
    from bsgate import good_loci, print_complex, split
    rng = random.Random(seed)
    cur = _start()
    out = {}
    for step in range(1, max(RUNGS) + 1):
        cur = split(cur, rng.choice(good_loci(cur)), "over").complex
        if step in RUNGS:
            out[step] = print_complex(cur)
    return out


def plan_text(seed: int) -> str:
    from bsgate import InvariantViolation, good_loci, safe_split
    from bsgate.splitting import format_locus
    rng = random.Random(seed)
    cur = _start()
    rows = []
    for step in range(PLAN_STEPS):
        loci = list(good_loci(cur))
        if step in UNDER_STEPS:
            rng.shuffle(loci)
            for locus in loci:
                try:
                    res = safe_split(cur, locus)
                except InvariantViolation:  # neither move stays clean
                    continue
                if res.choice == "under":
                    break
            else:
                raise RuntimeError(f"plan step {step}: no under fallback")
        else:
            locus = rng.choice(loci)
            res = safe_split(cur, locus)
        rows.append(format_locus(cur, locus))
        cur = res.complex
    return "\n".join(rows) + "\n"


def locus_text(seed: int, l20_text: str) -> str:
    from bsgate import good_loci, parse_complex
    from bsgate.splitting import format_locus
    cx = parse_complex(l20_text)
    return format_locus(cx, random.Random(seed).choice(good_loci(cx))) + "\n"


# -- chart grids (written here, not by bsgate.charts.print_grid) -------------

TWO_PI = 2.0 * math.pi


def chart_params(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    return {
        "box_a": 0.5 + rng.random(),          # level of f
        "box_b": 0.5 + rng.random(),          # plateau edge y > 1/2
        "box_c": 0.2 * rng.random(),          # y-free x*z twist
        "cyl_s": 0.5 + rng.random(),          # scale of the radial band
        "ann_c": 0.05 + 0.15 * rng.random(),  # leaf slope -c (1 - z^2)
    }


def _grid_text(kind: str, bounds: str, shape, spacing, arrays) -> str:
    lines = [f"bsgate-grid {kind} {1 if len(arrays) == 2 else 0}",
             "bounds " + bounds,
             "shape " + " ".join(str(n) for n in shape),
             "spacing " + " ".join("%.17g" % s for s in spacing)]
    for arr in arrays:
        lines.extend(map("%.17g".__mod__, arr.ravel().tolist()))
    return "\n".join(lines) + "\n"


def box_grid(p, n=65) -> str:
    import numpy as np
    x = np.linspace(-1.0, 1.0, n)
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
    f = (-p["box_a"] - p["box_b"] * np.maximum(0.0, yy - 0.5) ** 3
         + p["box_c"] * xx * zz)
    d = 2.0 / (n - 1)
    return _grid_text("box", "-1 1 -1 1 -1 1", f.shape, (d, d, d), [f])


def cylinder_grid(p, shape=(65, 64, 65)) -> str:
    import numpy as np
    nr, nth, nz = shape
    r = np.linspace(0.0, 1.0, nr)
    band = np.where(r <= 0.5, -r ** 2, np.maximum(-(r - 0.25), -0.5))
    h1 = np.full_like(r, -1.0)
    h1[1:] = band[1:] / r[1:] ** 2
    f = np.broadcast_to((p["cyl_s"] * band)[:, None, None], shape)
    h = np.broadcast_to((p["cyl_s"] * h1)[:, None, None], shape)
    spacing = (1.0 / (nr - 1), TWO_PI / nth, 2.0 / (nz - 1))
    return _grid_text("cylinder", "0 1 0 %.17g -1 1" % TWO_PI, shape,
                      spacing, [f, h])


def annulus_grid(p, shape=(64, 65)) -> str:
    import numpy as np
    nth, nz = shape
    z = np.linspace(-1.0, 1.0, nz)
    f = np.broadcast_to((-p["ann_c"] * (1.0 - z * z))[None, :], shape)
    return _grid_text("annulus", "0 %.17g -1 1" % TWO_PI, shape,
                      (TWO_PI / nth, 2.0 / (nz - 1)), [f])


def holonomy_closed_form(seed: int, z0: float) -> float:
    """Return map of dz/dtheta = -c (1 - z^2) once around the annulus."""
    c = chart_params(seed)["ann_c"]
    return math.tanh(math.atanh(z0) - TWO_PI * c)


# -- workloads ---------------------------------------------------------------


def _cli_input(workload: Workload, path: Path) -> str:
    workload.inputs[rel(path)] = sha256_file(path)
    return rel(path)


def prepare(name: str, seed: int) -> Workload:
    """The inputs of workload ``name`` and its argv lists for ``seed``."""
    wl = Workload(name, seed, [])
    OUT.mkdir(parents=True, exist_ok=True)
    groups: list[list[Invocation]] = []
    if name == "ladder-decide":
        for n in RUNGS:
            rung = _cli_input(wl, SEED0 / f"L{n}.bsf")
            group = [Invocation(f"criterion-L{n}",
                                ("detect", "--kind", "criterion", rung))]
            if n in POS_RUNGS:
                group.append(Invocation(f"pos-tisc-L{n}",
                                        ("detect", "--kind", "pos-tisc", rung)))
            if n in ASSEMBLE_RUNGS:
                group.append(Invocation(
                    f"assemble-L{n}",
                    ("assemble", "--kind", "pos-tisc", "--weights",
                     rel(OUT / f"L{n}-pos.w"), rung),
                    weights_from=f"pos-tisc-L{n}"))
            groups.append(group)
    elif name == "schedule":
        start = _cli_input(wl, CORPUS / "fix-clean3.bsf")
        plan = _cli_input(wl, SEED0 / "schedule.plan")
        out = rel(OUT / "schedule.bsf")
        groups.append([
            Invocation("schedule",
                       ("schedule", "--plan", plan, "--out", out, start)),
            Invocation("validate-schedule", ("validate", out))])
        l20 = _cli_input(wl, SEED0 / f"L{max(RUNGS)}.bsf")
        _cli_input(wl, SEED0 / "split.locus")
        sector, entry, exit_ = (SEED0 / "split.locus").read_text().split()
        for choice in ("over", "under", "neutral"):
            groups.append([Invocation(
                f"split-{choice}",
                ("split", "--sector", sector, "--entry", entry, "--exit",
                 exit_, "--choice", choice, "--out",
                 rel(OUT / f"split-{choice}.bsf"), l20))])
    elif name == "selftest":
        groups.append([Invocation(
            "selftest", ("selftest", "--seeds", str(SELFTEST_SEEDS)),
            env=(("BSGATE_SEED", str(SELFTEST_SEEDS * seed)),))])
    elif name == "charts":
        d = WORK / f"seed-{seed}"
        p = chart_params(seed)
        paths = {}
        for key, make in (("box", box_grid), ("cyl", cylinder_grid),
                          ("ann", annulus_grid)):
            path = d / f"{key}.grid"
            if not path.is_file():
                _write(path, make(p))
            paths[key] = _cli_input(wl, path)
        groups += [
            [Invocation("check-box", ("chart", "check-box", paths["box"]))],
            [Invocation("purify-box", (
                "chart", "purify-box", paths["box"], "--y0", "0.5", "--y1",
                "0.75", "--delta", "0.1", "--out",
                rel(OUT / "box-pure.grid")))],
            [Invocation("check-cyl", ("chart", "check-cyl", paths["cyl"]))],
            [Invocation("purify-cyl", (
                "chart", "purify-cyl", paths["cyl"], "--r0", "0.5", "--mode",
                "inner", "--out", rel(OUT / "cyl-pure.grid")))],
            [Invocation("extend", (
                "chart", "extend", paths["ann"], "--r0", "0.5", "--grid", "65",
                "--out", rel(OUT / "extend.grid")))]]
        groups += [[Invocation(f"holonomy-{z0}", (
            "chart", "holonomy", paths["ann"], f"--z0={z0}", "--step",
            HOLONOMY_STEP))] for z0 in HOLONOMY_Z0]
    else:
        raise ValueError(f"unknown workload {name!r}")
    if seed:
        random.Random(seed).shuffle(groups)
    wl.invocations = [inv for group in groups for inv in group]
    return wl


def load_manifest(seed: int) -> dict:
    """Expected reports.  The ladder and schedule inputs are the same for
    every seed; the charts and selftest entries hold for seed 0 only."""
    manifest = json.loads((SEED0 / "manifest.json").read_text())
    if seed == 0:
        return manifest
    return {key: want for key, want in manifest.items()
            if key.startswith(("ladder-decide/", "schedule/"))}


def main() -> int:
    """Rewrite the committed seed-0 corpus and its manifest."""
    require_package()
    from check import pinned
    from passes import run_pass, in_process
    shutil.rmtree(WORK / "seed-0", ignore_errors=True)  # cached grids
    texts = ladder_texts(0)
    for n, text in texts.items():
        _write(SEED0 / f"L{n}.bsf", text)
    _write(SEED0 / "split.locus", locus_text(0, texts[max(RUNGS)]))
    _write(SEED0 / "schedule.plan", plan_text(0))
    os.chdir(ROOT)
    manifest = {}
    for name in WORKLOADS:
        wl = prepare(name, 0)
        for inv, res in run_pass(wl.invocations, in_process):
            entry = manifest[f"{name}/{inv.id}"] = {"exit": res.code,
                                                    **pinned(res.report)}
            if "--out" in inv.argv:
                entry["out_sha256"] = sha256_file(
                    ROOT / inv.argv[inv.argv.index("--out") + 1])
            print(f"{name}/{inv.id}: exit {res.code}", flush=True)
    _write(SEED0 / "manifest.json", json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
