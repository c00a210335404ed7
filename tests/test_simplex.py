"""The phase-one solver on its own, checked by plain arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgate.errors import InvariantViolation
from bsgate.simplex import phase_one


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
