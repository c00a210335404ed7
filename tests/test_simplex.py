"""The phase-one solver on its own, checked by plain arithmetic, and its
raw answers on the whole of each system that ``selftest`` and the
benchmark corpus solve, pinned as one sha256 per group; the forcing
presolve's outcome on the same systems is pinned apart."""

from functools import lru_cache
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


def _full_rows(system):
    """The phase-one rows of the whole of ``system``, with no presolve:
    the equalities, each inequality with its slack, then the aggregate
    with its surplus, as ``weights._rows`` lays out a residual."""
    col = {s: j for j, s in enumerate(system.variables)}
    signed = ([(f, 1) for f in system.equalities]
              + [(f, -1) for f in system.inequalities]
              + [(system._aggregate, 1)])
    rows = [{col[s]: sign * c for s, c in f.coeffs} for f, sign in signed]
    for j, row in enumerate(rows[len(system.equalities):-1], len(col)):
        row[j] = 1
    n = len(col) + len(system.inequalities) + 1
    rows[-1][n - 1] = -1
    return rows, [0] * (len(rows) - 1) + [1], n


@lru_cache(maxsize=None)
def _solved(solve) -> tuple[tuple, int]:
    """Every system that ``solve()`` hands to ``feasible``, in call order,
    and the number of phase-one calls the presolve leaves."""
    systems, calls = [], []
    feasible = weights.feasible

    def recording(system):
        systems.append(system)
        return feasible(system)

    def counting(*args):
        calls.append(1)
        return phase_one(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "feasible", recording)
        mp.setattr(weights, "phase_one", counting)
        solve()
    return tuple(systems), len(calls)


SOLVES = [_selftest_systems, _ladder_systems, _schedule_systems]
SOLVE_IDS = ["selftest-seeds-0-999", "ladder-L5-L20", "schedule-plan"]


@pytest.mark.parametrize("solve, calls, digest", zip(SOLVES, [3000, 12, 38], [
    "16aaff447c6a9d7db2f0e9628d7bab4de1e9c124493a1614ac33283fee4c09c8",
    "39d5068b3bf5a4282a633b58c97241b797bafdbb9bbfe2f4ee35d03f86ff6ae7",
    "ef62e8744af7665549fb287f37e23b2b11365c272397e802c87a31ff5dc8ee4d",
]), ids=SOLVE_IDS)
def test_phase_one_answers_are_pinned(solve, calls, digest):
    # phase one's answer on the whole of every system that feasible is
    # asked about, in call order: the seeded selftest systems, criterion
    # and pos-tisc on the benchmark's over-ladder, and each criterion of
    # the benchmark's schedule plan
    systems, _ = _solved(solve)
    text = "\n".join(repr(phase_one(*_full_rows(s))) for s in systems)
    assert (len(systems), sha256(text.encode()).hexdigest()) \
        == (calls, digest)


@pytest.mark.parametrize("solve, calls, digest", zip(SOLVES, [1843, 3, 2], [
    "be3632d20afddc8c3ca7b66801ea724c6e21595153ee4ebc2af10b6af0833887",
    "75ec7dcfc229855e887166a47d4390c13f7879bc9b76eab62c64536added7063",
    "0bd406f2a8c515deb344a3ff5b25b82453cc5a8951c65e50a00429026bae0508",
]), ids=SOLVE_IDS)
def test_presolve_outcomes_are_pinned(solve, calls, digest):
    # the phase-one calls that the forcing presolve leaves, and, per
    # system, its forced sectors in forcing order and the residual's row
    # and column counts; a system with nothing forced keeps the rows of
    # the whole system
    systems, got = _solved(solve)
    outcomes = []
    for system in systems:
        problem, (_kept, _signed, steps) = weights._rows(system)
        if not steps:
            assert problem == _full_rows(system)
        forced = [s for _f, pairs in steps for s, _c in pairs]
        size = problem and (len(problem[0]), problem[2])
        outcomes.append(f"{forced} {size}")
    text = "\n".join(outcomes)
    assert (got, sha256(text.encode()).hexdigest()) == (calls, digest)
