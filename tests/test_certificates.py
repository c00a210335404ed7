"""Certificate snapshot, the forcing presolve's lift, and large-complex
soundness.

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
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgate import weights
from bsgate.gen import random_complex
from bsgate.splitting import good_loci, split
from bsgate.weights import (KINDS, Certificate, ConstraintSystem, LinForm,
                            brute_force, build_system, feasible,
                            verify_certificate)

from conftest import FIXTURES, load

SNAPSHOT = FIXTURES / "certificates.json"
SEEDS = range(200)
RUNGS = (5, 10, 15, 20)
SELFTEST_DIGEST = (
    "e89f10cff9630a1311a0f60f7fba301b1eb41cd8da026132f5508b83692a7d97")


@lru_cache(maxsize=None)
def ladder() -> tuple:
    """``fix-clean3`` and the complexes after each of 120 over-splits, each
    at a good locus drawn by ``random.Random(0)``; entry k is rung Lk."""
    rng = random.Random(0)
    cur = load("fix-clean3.bsf")
    rungs = [cur]
    for _ in range(120):
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


def _forced(system) -> list:
    _problem, (_kept, _signed, steps) = weights._rows(system)
    return [(f.tag, [s for s, _c in pairs]) for f, pairs in steps]


def test_forcing_chain_lifts_in_reverse_order():
    # n1 = -2a >= 0 forces a; the equality e = 3b - a then has only
    # b left, positive, and forces it; the strict s2 = b - 2c then
    # forces c.  Nothing is left to solve.  With sigma = p0 + s2 =
    # a + 2b + c, the reverse walk takes s2 at 1/2 (c: 1 - 2 * 1/2),
    # e at -5/6 (b: 2 + 1/2 - 3 * 5/6) and n1 at 11/12 (a: 1 + 5/6 -
    # 2 * 11/12); a forward walk leaves a positive.
    system = ConstraintSystem(
        ("a", "b", "c"), (LinForm.make({"a": -1, "b": 3}, "e"),),
        (LinForm.make({"a": 1, "b": 1, "c": 3}, "p0"),
         LinForm.make({"a": -2}, "n1"),
         LinForm.make({"b": 1, "c": -2}, "s2")), (0, 2), "toy")
    assert weights._rows(system)[0] is None
    assert _forced(system) == [("n1", ["a"]), ("e", ["b"]), ("s2", ["c"])]
    cert = feasible(system)
    assert {tag: f"{q.numerator}/{q.denominator}"
            for tag, q in cert.multipliers.items()} \
        == {"s2": "1/2", "e": "-5/6", "n1": "11/12"}


def test_forcing_leaves_a_feasible_residual():
    # -a >= 0 forces a; b - a >= 0, strict, is then b >= 1, and the
    # witness is 0 on a
    system = ConstraintSystem(
        ("a", "b"), (), (LinForm.make({"a": -1}, "n0"),
                         LinForm.make({"a": -1, "b": 1}, "s1")), (1,), "toy")
    assert _forced(system) == [("n0", ["a"])]
    assert feasible(system).witness == {"a": 0, "b": 1}


@st.composite
def forcing_chains(draw):
    """A system with a planted forcing chain: each chain row has one sign
    on the run of sectors it forces (negative on an inequality) and any
    coefficients on the sectors before that run; free rows over every
    sector ride along, and the rows come in any order."""
    n = draw(st.integers(min_value=2, max_value=5))
    variables = tuple(f"v{i}" for i in range(n))
    coeff = st.integers(min_value=-3, max_value=3)
    size = st.integers(min_value=1, max_value=3)
    free = st.integers(min_value=-2, max_value=3)
    rows = []  # (form, equality, strict)
    start = 0
    # the chain forces a prefix of the sectors, all of them at times
    last = draw(st.sampled_from((max(1, n - 2), n - 1, n)))
    for t, end in enumerate(sorted(draw(st.sets(
            st.integers(min_value=1, max_value=last), min_size=1)))):
        equality = draw(st.booleans())
        sign = draw(st.sampled_from((-1, 1))) if equality else -1
        coeffs = {v: draw(coeff) for v in variables[:start]}
        coeffs.update({v: sign * draw(size) for v in variables[start:end]})
        rows.append((LinForm.make(coeffs, f"f{t}"), equality,
                     draw(st.booleans())))
        start = end
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        rows.append((LinForm.make({v: draw(free) for v in variables},
                                  f"r{i}"),
                     draw(st.integers(min_value=0, max_value=3)) == 0,
                     draw(st.booleans())))
    rows = draw(st.permutations(rows))
    eqs = tuple(f for f, equality, _s in rows if equality)
    ineqs = [(f, strict) for f, equality, strict in rows if not equality]
    system = ConstraintSystem(
        variables, eqs, tuple(f for f, _s in ineqs),
        tuple(i for i, (_f, strict) in enumerate(ineqs) if strict), "chain")
    return system, set(variables[:start])


@given(forcing_chains())
@settings(max_examples=100, deadline=None)
def test_planted_forcing_chains_agree_with_the_oracle(case):
    system, planted = case
    forced = {s for _tag, sectors in _forced(system) for s in sectors}
    assert planted <= forced
    cert = feasible(system)
    assert verify_certificate(system, cert)
    found = brute_force(system, 3)
    assert cert.feasible or found is None
    if cert.feasible:
        assert not any(cert.witness[s] for s in forced)
    if found is not None:
        assert verify_certificate(system, Certificate("Feasible",
                                                      witness=found))


@pytest.mark.parametrize("rung, sectors, verdicts", [
    (30, 54, ("Feasible", "Feasible", "Infeasible")),
    (40, 74, ("Feasible", "Feasible", "Infeasible")),
    (60, 113, ("Feasible", "Feasible", "Infeasible")),
    (80, 153, ("Feasible", "Feasible", "Infeasible")),
    (120, 233, ("Feasible", "Feasible", "Infeasible")),
], ids=["L30", "L40", "L60", "L80", "L120"])
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
