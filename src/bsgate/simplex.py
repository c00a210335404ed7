"""Sparse fraction-free exact simplex (Bland's rule), phase one.

Decides feasibility of ``A x = b, x >= 0`` by minimizing the sum of
artificial variables.  The start is the slack basis (a crash start, after
Bixby 1992): a row with a column of its own, entry +1 and in no other
row, starts with that column basic at its ``b >= 0``; only the other
rows get an artificial.  The start makes two passes over the entries:
one copies the rows without zeros and counts each column's rows, the
next picks each row's least own column and prices the artificial rows.
Each tableau row is a sparse ``{column: int}`` map with an ``int``
right-hand side, and stands for the rational row up to a positive
factor.  A pivot cross-multiplies instead of dividing
(fraction-free elimination, after Bareiss 1968) and then divides each
changed row by the gcd of its entries, which keeps the integers small.
A positive factor changes no sign and no ratio, so Bland's least-index
rule (1977) makes exactly the pivots a rational tableau would, and runs
are reproducible.  Every basic entry stays positive, so the answer is
read off in integers: the feasibility verdict, a primal point as integer
numerators over one positive denominator, and the dual row multipliers
up to one positive factor, which callers turn into Farkas certificates.
A row's dual is read off the reduced cost of its starting column: an
artificial (cost 1) gives ``den - red``, an own +1 column (cost 0)
gives ``-red``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .errors import InvariantViolation


class PhaseOneResult(NamedTuple):
    feasible: bool  # optimum 0: no artificial stays basic at a nonzero value
    x: tuple[int, ...]  # primal point times x_den (real variables only)
    x_den: int  # > 0
    duals: tuple[int, ...]  # one multiplier per row, times a positive factor


def _eliminate(p: int, row: dict[int, int], f: int,
               prow: dict[int, int]) -> dict[int, int]:
    """``p * row - f * prow`` without its zero entries."""
    out = {j: p * c for j, c in row.items()} if p != 1 else dict(row)
    for j, c in prow.items():
        v = out.get(j, 0) - f * c
        if v:
            out[j] = v
        else:
            del out[j]
    return out


def _divide(row: dict[int, int], g: int) -> dict[int, int]:
    return {j: c // g for j, c in row.items()} if g > 1 else row


def phase_one(rows: list[dict[int, int]], rhs: list[int],
              n: int) -> PhaseOneResult:
    """Minimize the artificial sum for ``rows . x = rhs``, ``x >= 0``.

    ``rows`` are sparse integer maps over the ``n`` real columns.  Row
    ``r`` starts on its least own +1 column if it has one, and otherwise
    gets artificial column ``n + r``.  ``rhs`` entries must be
    nonnegative: ``weights._rows`` negates a row where needed and keeps
    its sign, to read its dual back; it hands over only the rows of
    what its forcing presolve leaves.  Optimum 0 means the system is
    feasible and ``x / x_den`` is a solution; a positive optimum
    certifies infeasibility via ``duals``: ``duals . rows <= 0``
    componentwise while ``duals . rhs > 0``.
    """
    m = len(rows)
    if any(b < 0 for b in rhs):
        raise InvariantViolation("phase_one requires nonnegative rhs")

    tab = []
    rows_of: dict[int, int] = {}  # each column's number of rows
    for row in rows:
        row = {j: c for j, c in row.items() if c}
        tab.append(row)
        for j in row:
            rows_of[j] = rows_of.get(j, 0) + 1
    b = list(rhs)

    # reduced costs of the cost vector (0..0, 1..1) are red / den, den > 0;
    # the start prices the artificial rows at 1 and the others at 0, and
    # every basic column starts at 0
    start = []
    red: dict[int, int] = {}
    for r, row in enumerate(tab):
        own = n + r  # the row's artificial, unless it has an own +1 column
        for j, c in row.items():
            if c == 1 and j < own and rows_of[j] == 1:
                own = j
        start.append(own)
        if own >= n:
            for j, c in row.items():
                red[j] = red.get(j, 0) - c
            row[n + r] = 1
    basis = list(start)
    red = {j: c for j, c in red.items() if c}
    den = 1

    while True:
        pc = min((j for j, c in red.items() if c < 0), default=None)
        if pc is None:
            break
        hits = [(r, row[pc]) for r, row in enumerate(tab) if pc in row]
        # least b[r] / a over a > 0 by cross-multiplication (every a and
        # the chosen p are positive); ties go to the least basic column
        pr = None
        for r, a in hits:
            if a > 0 and (pr is None or b[r] * p < pb * a or (
                    b[r] * p == pb * a and basis[r] < basis[pr])):
                pr, pb, p = r, b[r], a
        if pr is None:
            raise InvariantViolation("phase-one objective unbounded")
        prow = tab[pr]
        for r, f in hits:
            if r != pr:
                row = _eliminate(p, tab[r], f, prow)
                rb = p * b[r] - f * pb
                g = gcd(rb, *row.values())
                tab[r], b[r] = _divide(row, g), rb // g
        red = _eliminate(p, red, red[pc], prow)
        g = gcd(den * p, *red.values())
        red, den = _divide(red, g), den * p // g
        basis[pr] = pc

    # basic column basis[r] has value b[r] / tab[r][basis[r]], and every
    # basic entry is positive
    real = [r for r in range(m) if basis[r] < n]
    x_den = lcm(*(tab[r][basis[r]] for r in real))
    x = [0] * n
    for r in real:
        x[basis[r]] = b[r] * (x_den // tab[r][basis[r]])
    feasible = not any(b[r] for r in range(m) if basis[r] >= n)
    # a row's dual is its starting column's cost minus its reduced cost
    duals = tuple((den if j >= n else 0) - red.get(j, 0) for j in start)
    return PhaseOneResult(feasible, tuple(x), x_den, duals)
