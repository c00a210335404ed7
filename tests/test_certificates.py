"""Certificate snapshot and large-complex soundness.

``fixtures/certificates.json`` pins the certificate that ``feasible``
returns for every fixture complex, generator seeds 0-199 and the
over-ladder rungs L5, L10, L15 and L20, for all three kinds: 639
systems.  A changed verdict, witness or multiplier fails here.  When a
change is intended, regenerate the file and say why in the change log:

    PYTHONPATH=src python3 tests/test_certificates.py

``SELFTEST_DIGEST`` pins, as one sha256, every certificate that
``selftest --seeds 1000`` computes at seed base 0 (seeds 0-999, three
kinds each), with each inequality's value at a feasible witness.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from bsgate.gen import random_complex
from bsgate.splitting import good_loci, split
from bsgate.weights import (KINDS, Certificate, ConstraintSystem, LinForm,
                            build_system, feasible, verify_certificate)

from conftest import FIXTURES, load

SNAPSHOT = FIXTURES / "certificates.json"
SEEDS = range(200)
RUNGS = (5, 10, 15, 20)
SELFTEST_DIGEST = (
    "bf1e6205eb76b66af51980ff7701cb326e3c4c79cd9d7caad13d95812148c6ab")


@lru_cache(maxsize=None)
def ladder() -> tuple:
    """``fix-clean3`` and the complexes after each of 80 over-splits, each
    at a good locus drawn by ``random.Random(0)``; entry k is rung Lk."""
    rng = random.Random(0)
    cur = load("fix-clean3.bsf")
    rungs = [cur]
    for _ in range(80):
        cur = split(cur, rng.choice(good_loci(cur)), "over").complex
        rungs.append(cur)
    return tuple(rungs)


def complexes(group: str) -> dict:
    if group == "fixtures":
        return {p.name: load(p.name) for p in sorted(FIXTURES.glob("*.bsf"))}
    if group == "seeds":
        return {f"seed-{s}": random_complex(s) for s in SEEDS}
    return {f"L{k}": ladder()[k] for k in RUNGS}


GROUPS = ("fixtures", "seeds", "ladder")


def encode(cert) -> dict:
    if cert.feasible:
        return {"verdict": cert.verdict, "witness": cert.witness}
    return {"verdict": cert.verdict,
            "multipliers": {tag: f"{q.numerator}/{q.denominator}"
                            for tag, q in cert.multipliers.items()}}


def solve_all(group: str) -> dict:
    return {f"{name}/{kind}": encode(feasible(build_system(cx, kind)))
            for name, cx in complexes(group).items() for kind in KINDS}


@lru_cache(maxsize=None)
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_system():
    want = {f"{name}/{kind}" for group in GROUPS
            for name in complexes(group) for kind in KINDS}
    assert len(want) == 639
    assert set(snapshot()) == want


@pytest.mark.parametrize("group", GROUPS)
def test_certificates_match_snapshot(group):
    got = solve_all(group)
    changed = sorted(k for k, v in got.items() if snapshot()[k] != v)
    assert not changed, f"{len(changed)} certificates changed: {changed[:5]}"


def test_selftest_certificates_match_digest():
    def full(system, cert) -> dict:
        w, mult = cert.witness, cert.multipliers
        return {"verdict": cert.verdict, "witness": w,
                "slacks": None if w is None else {
                    f.tag: f.dot(w) for f in system.inequalities},
                "multipliers": None if mult is None else {
                    tag: f"{q.numerator}/{q.denominator}"
                    for tag, q in mult.items()}}

    table = {}
    for seed in range(1000):
        cx = random_complex(seed)
        for kind in KINDS:
            system = build_system(cx, kind)
            table[f"seed-{seed}/{kind}"] = full(system, feasible(system))
    text = json.dumps(table, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SELFTEST_DIGEST


def test_multiplier_with_a_denominator_above_one():
    # a + 3b >= 0 strictly and -3a - 2b >= 0: the aggregate's b
    # coefficient 3 is cancelled only by 3/2 of the second form
    ineqs = (LinForm.make({"a": 1, "b": 3}, "i0"),
             LinForm.make({"a": -3, "b": -2}, "i1"))
    system = ConstraintSystem(("a", "b"), (), ineqs, (0,), "toy")
    cert = feasible(system)
    assert {tag: f"{q.numerator}/{q.denominator}"
            for tag, q in cert.multipliers.items()} == {"i1": "3/2"}
    q = cert.multipliers["i1"]
    short = Certificate("Infeasible",
                        multipliers={"i1": q - Fraction(1, q.denominator)})
    assert not verify_certificate(system, short)


@pytest.mark.parametrize("rung, sectors, verdicts", [
    (30, 54, ("Feasible", "Feasible", "Infeasible")),
    (40, 74, ("Feasible", "Feasible", "Infeasible")),
    (60, 113, ("Feasible", "Feasible", "Infeasible")),
    (80, 153, ("Feasible", "Feasible", "Infeasible")),
], ids=["L30", "L40", "L60", "L80"])
def test_large_rungs_certificates_verify(rung, sectors, verdicts):
    # past brute force's reach, so soundness is the check here; the
    # over-ladder fails the criterion from L30 on (neg-tisc feasible)
    cx = ladder()[rung]
    assert len(cx.sectors) == sectors
    got = []
    for kind in KINDS:
        system = build_system(cx, kind)
        cert = feasible(system)
        assert verify_certificate(system, cert), kind
        got.append(cert.verdict)
    assert tuple(got) == verdicts


if __name__ == "__main__":
    table = {}
    for group in GROUPS:
        table.update(solve_all(group))
    SNAPSHOT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} certificates to {SNAPSHOT}")
