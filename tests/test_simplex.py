"""The phase-one solver on its own, checked by plain arithmetic, and its
raw answers on the systems ``selftest`` and the benchmark corpus solve,
pinned as one sha256 per group."""

from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgate import weights
from bsgate.errors import InvariantViolation
from bsgate.gen import random_complex
from bsgate.parser import parse_complex
from bsgate.simplex import phase_one
from bsgate.splitting import run_plan

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


@st.composite
def sparse_systems(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    entry = st.dictionaries(st.integers(min_value=0, max_value=n - 1),
                            st.integers(min_value=-3, max_value=3))
    rows = [draw(entry) for _ in range(m)]
    # some rows get a column of their own with entry +1, so phase one
    # starts them on it instead of on an artificial
    for row in rows:
        if draw(st.booleans()):
            row[n] = 1
            n += 1
    rhs = draw(st.lists(st.integers(min_value=0, max_value=4),
                        min_size=m, max_size=m))
    return rows, rhs, n


@given(sparse_systems())
@settings(max_examples=300, deadline=None)
def test_phase_one_answer_checks_by_arithmetic(system):
    rows, rhs, n = system
    res = phase_one(rows, rhs, n)
    assert len(res.x) == n and len(res.duals) == len(rows)
    assert res.x_den > 0
    if res.feasible:
        # x / x_den solves the rows; times x_den, rows . x = x_den * rhs
        assert all(v >= 0 for v in res.x)
        for row, b in zip(rows, rhs):
            assert sum(c * res.x[j] for j, c in row.items()) == res.x_den * b
    else:
        # Farkas, up to the duals' positive factor: the dual combination
        # of the rows is <= 0 everywhere while that of the rhs is positive
        for j in range(n):
            assert sum(y * row.get(j, 0)
                       for y, row in zip(res.duals, rows)) <= 0
        assert sum(y * b for y, b in zip(res.duals, rhs)) > 0


def test_negative_rhs_is_refused():
    with pytest.raises(InvariantViolation, match="nonnegative rhs"):
        phase_one([{0: 1}, {0: 1, 1: -1}], [1, -1], 2)


def _selftest_systems():
    for seed in range(1000):
        cx = random_complex(seed)
        for kind in weights.KINDS:
            weights.feasible(weights.build_system(cx, kind))


def _ladder_systems():
    for k in (5, 10, 15, 20):
        cx = parse_complex((CORPUS / "seed0" / f"L{k}.bsf").read_text())
        weights.criterion(cx)
        weights.feasible(weights.build_system(cx, weights.POS_TISC))


def _schedule_systems():
    cx = parse_complex((CORPUS / "fix-clean3.bsf").read_text())
    plan = (CORPUS / "seed0" / "schedule.plan").read_text()
    run_plan(cx, [tuple(line.split()) for line in plan.splitlines()])


@pytest.mark.parametrize("solve, calls, digest", [
    (_selftest_systems, 3000,
     "16aaff447c6a9d7db2f0e9628d7bab4de1e9c124493a1614ac33283fee4c09c8"),
    (_ladder_systems, 12,
     "39d5068b3bf5a4282a633b58c97241b797bafdbb9bbfe2f4ee35d03f86ff6ae7"),
    (_schedule_systems, 38,
     "ef62e8744af7665549fb287f37e23b2b11365c272397e802c87a31ff5dc8ee4d"),
], ids=["selftest-seeds-0-999", "ladder-L5-L20", "schedule-plan"])
def test_phase_one_answers_are_pinned(monkeypatch, solve, calls, digest):
    # every PhaseOneResult that feasible receives, in call order: the
    # seeded selftest systems, criterion and pos-tisc on the benchmark's
    # over-ladder, and each criterion of the benchmark's schedule plan
    answers = []

    def recording(rows, rhs, n):
        res = phase_one(rows, rhs, n)
        answers.append(repr(res))
        return res

    monkeypatch.setattr(weights, "phase_one", recording)
    solve()
    text = "\n".join(answers)
    assert (len(answers), sha256(text.encode()).hexdigest()) \
        == (calls, digest)
