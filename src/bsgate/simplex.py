"""Sparse fraction-free exact simplex (Bland's rule), phase one.

Decides feasibility of ``A x = b, x >= 0`` by minimizing the sum of
artificial variables.  Each tableau row is a sparse ``{column: int}`` map
with an ``int`` right-hand side, and stands for the rational row up to a
positive factor.  A pivot cross-multiplies instead of dividing
(fraction-free elimination, after Bareiss 1968) and then divides each
changed row by the gcd of its entries, which keeps the integers small.
A positive factor changes no sign and no ratio, so Bland's least-index
rule (1977) makes exactly the pivots a rational tableau would, and runs
are reproducible.  Every basic entry stays positive, so the answer is
read off in integers: the feasibility verdict, a primal point as integer
numerators over one positive denominator, and the dual row multipliers
up to one positive factor, which callers turn into Farkas certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import InvariantViolation


@dataclass(frozen=True)
class PhaseOneResult:
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

    ``rows`` are sparse integer maps over the ``n`` real columns; row
    ``r`` gets artificial column ``n + r``.  ``rhs`` entries must be
    nonnegative (callers pre-negate rows).  Optimum 0 means the system is
    feasible and ``x / x_den`` is a solution; a positive optimum
    certifies infeasibility via ``duals``: ``duals . rows <= 0``
    componentwise while ``duals . rhs > 0``.
    """
    m = len(rows)
    if any(b < 0 for b in rhs):
        raise InvariantViolation("phase_one requires nonnegative rhs")

    tab = [{**{j: c for j, c in row.items() if c}, n + r: 1}
           for r, row in enumerate(rows)]
    b = list(rhs)
    basis = [n + r for r in range(m)]

    # reduced costs of the cost vector (0..0, 1..1) are red / den, den > 0;
    # all basic costs are 1, so the artificial columns start at 0
    red: dict[int, int] = {}
    for row in rows:
        for j, c in row.items():
            red[j] = red.get(j, 0) - c
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
    duals = tuple(den - red.get(n + r, 0) for r in range(m))
    return PhaseOneResult(feasible, tuple(x), x_den, duals)
