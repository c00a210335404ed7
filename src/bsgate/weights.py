"""Weight-space constraint systems and exact feasibility certificates.

Three families of integer weight systems live on a validated complex.
All share one inequality per branch segment, ``w(merged) - w(upper) -
w(lower) >= 0``; they differ in how the corner form ``z + u - x - v`` at
each double point is constrained and in which slacks must be strictly
positive somewhere:

* ``neg-tisc``: corner form pinned to 0 at positive double points, ``>= 0``
  at negative ones, and at least one negative corner strictly positive.
* ``pos-tisc``: the mirror image.
* ``isc``: corner form pinned to 0 everywhere, at least one segment
  inequality strict.

Everything is decided exactly, in integer arithmetic from the
fraction-free tableau to the certificate; homogeneity makes integer and
rational feasibility coincide once strictness is written as an
aggregate slack ``>= 1``.  Each decision starts with a forcing presolve:
a row whose signs allow no nonzero weight on its sectors fixes them at
0, until nothing changes.  Phase one solves only what is left, and the
certificate is lifted back to the whole system in integers, a witness
by zeros and multipliers in reverse forcing order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from typing import NamedTuple, Optional

from .errors import (InvariantViolation, MalformedSystem, PreconditionFailed,
                     _decimal)
from .simplex import PhaseOneResult, phase_one
from .surface import BranchedSurfaceComplex, LinForm, _Frozen, _summed_form

NEG_TISC = "neg-tisc"
POS_TISC = "pos-tisc"
ISC = "isc"
KINDS = (NEG_TISC, POS_TISC, ISC)


class ConstraintSystem(_Frozen):
    """Each equality is required = 0 and each inequality >= 0; the
    slacks of the inequalities at ``strict_group`` must sum to >= 1."""

    _fields = ("variables", "equalities", "inequalities", "strict_group",
               "kind")

    def __init__(self, variables: tuple[str, ...],
                 equalities: tuple[LinForm, ...],
                 inequalities: tuple[LinForm, ...],
                 strict_group: tuple[int, ...], kind: str):
        self.__dict__.update(variables=variables, equalities=equalities,
                             inequalities=inequalities,
                             strict_group=strict_group, kind=kind)
        _check_system(self)

    # the aggregate reads the frozen fields alone, so it is summed once
    # per system however many solvers and oracles read it
    @cached_property
    def _aggregate(self) -> LinForm:
        return strict_aggregate(self)


class Certificate(NamedTuple):
    verdict: str  # 'Feasible' | 'Infeasible'
    witness: Optional[dict[str, int]] = None
    multipliers: Optional[dict[str, Fraction]] = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "Feasible"


def _check_system(system: ConstraintSystem) -> None:
    """Raise :class:`MalformedSystem` naming why ``system`` is malformed.
    Every system runs it once, as it is built."""
    vars_ = set(system.variables)
    if len(vars_) != len(system.variables):
        raise MalformedSystem("duplicate variable")
    forms = system.equalities + system.inequalities
    if len({f.tag for f in forms}) != len(forms):
        raise MalformedSystem("duplicate form tag")
    for form in forms:
        for s, c in form.coeffs:
            if s not in vars_:
                raise MalformedSystem(
                    f"form {form.tag} uses unknown variable {s}")
            if not isinstance(c, int):
                raise MalformedSystem(
                    f"form {form.tag} has non-integer coefficient {c!r}")
    n = len(system.inequalities)
    if len(set(system.strict_group)) != len(system.strict_group):
        raise MalformedSystem("duplicate strict_group index")
    for i in system.strict_group:
        if not 0 <= i < n:
            raise MalformedSystem(f"strict_group index {i} out of range")


def build_system(cx: BranchedSurfaceComplex, kind: str) -> ConstraintSystem:
    """Constraint system for ``kind`` over all sectors of ``cx``, which
    must pass validation."""
    if kind not in KINDS:
        raise MalformedSystem(f"unknown system kind {kind!r}")
    if cx.violations:
        raise PreconditionFailed(
            "input complex fails validation: " + cx.violations[0])
    variables = tuple(s.id for s in cx.sectors)
    inequalities = [g.form for g in cx.segments]
    equalities: list[LinForm] = []
    strict: list[int] = []
    if kind == ISC:
        strict = list(range(len(inequalities)))
    roles = cx.roles
    for d in cx.dps:
        form = roles[d.id].form
        pinned = (d.sign > 0) if kind == NEG_TISC else (d.sign < 0)
        if kind == ISC or pinned:
            equalities.append(form)
        else:
            strict.append(len(inequalities))
            inequalities.append(form)
    return ConstraintSystem(variables, tuple(equalities), tuple(inequalities),
                            tuple(strict), kind)


def strict_aggregate(system: ConstraintSystem) -> LinForm:
    """Sum of the strict-group inequality forms (must reach >= 1)."""
    return _summed_form((t for i in system.strict_group
                         for t in system.inequalities[i].coeffs), "aggregate")


def _rows(system: ConstraintSystem) -> tuple:
    """The forcing presolve of ``system`` and the phase-one rows of what
    it leaves (Brearley, Mitra and Williams 1975).

    One pass over the coefficients counts each row's sectors and its
    negative ones and lists each sector's rows; then a queue over those
    rows runs until nothing changes.  An inequality whose remaining
    coefficients are all negative, or an equality whose remaining
    coefficients all have one sign, forces each of its remaining sectors
    to 0: at ``w >= 0`` the row holds only where they are all 0.  Each
    such row is one forcing step, ``(form, [(sector, coefficient),
    ...])`` over the sectors it forced, in forcing order; it rescans its
    coefficients once, and a queued row with no sector left is skipped
    without a rescan.

    The residual keeps the other sectors, in ``system.variables`` order,
    in the layout of the whole system: an equality is ``form = 0``, an
    inequality ``slack - form = 0`` (each slack starts basic), the
    aggregate ``aggregate - surplus = 1``; the sector columns come
    first, then one slack per kept inequality, then the surplus.  An
    equality with no sector left is dropped, and so is an inequality
    outside the strict group with no negative coefficient left, which
    holds at every ``w >= 0``.  With nothing forced and nothing dropped,
    these are the rows of the whole system.

    Returns ``(rows, rhs, n)`` for phase one, or ``None`` when every
    sector is forced (the aggregate is then 0, so the system is
    infeasible), and ``(kept, signed, steps)`` for :func:`_lift`: the
    kept sectors, each residual row's form with the row's factor on its
    form and its dual (the aggregate last), and the forcing steps.
    """
    eqs, ineqs = system.equalities, system.inequalities
    forms = eqs + ineqs
    ne = len(eqs)
    # each form's count of sectors not yet forced, and of those with a
    # negative coefficient, and each sector's rows, each ``r`` or, where
    # its coefficient is negative, ``~r``, all in one pass; a row joins
    # the queue whenever it forces, and is skipped once nothing is left
    left, neg, queue = [], [], []
    rows_of: dict[str, list] = {s: [] for s in system.variables}
    for r, f in enumerate(forms):
        m = 0
        for s, c in f.coeffs:
            if c < 0:
                rows_of[s].append(~r)
                m += 1
            else:
                rows_of[s].append(r)
        k = len(f.coeffs)
        left.append(k)
        neg.append(m)
        if k and (m == k or (r < ne and not m)):
            queue.append(r)
    forced: set[str] = set()
    steps = []
    for r in queue:  # the queue grows as rows come to force
        if not left[r]:
            continue
        pairs = [(s, c) for s, c in forms[r].coeffs if s not in forced]
        steps.append((forms[r], pairs))
        for s, _c in pairs:
            forced.add(s)
            for r2 in rows_of[s]:
                if r2 < 0:
                    r2 = ~r2
                    neg[r2] -= 1
                k = left[r2] = left[r2] - 1
                m = neg[r2]
                if k and (m == k or (r2 < ne and not m)):
                    queue.append(r2)

    kept = [s for s in system.variables if s not in forced]
    if not kept:
        return None, (kept, [], steps)
    strict = set(system.strict_group)
    signed = [(f, 1) for f, k in zip(eqs, left) if k]
    first = len(signed)  # the first inequality row
    signed += [(f, -1) for i, f in enumerate(ineqs)
               if neg[ne + i] or i in strict]
    signed.append((system._aggregate, 1))
    col = {s: j for j, s in enumerate(kept)}
    rows = [{col[s]: sign * c for s, c in f.coeffs if s in col}
            for f, sign in signed]
    for j, row in enumerate(rows[first:-1], len(col)):
        row[j] = 1  # the inequality's slack
    n = len(col) + len(rows) - first
    rows[-1][n - 1] = -1  # the surplus
    return (rows, [0] * (len(rows) - 1) + [1], n), (kept, signed, steps)


def _lift(system: ConstraintSystem, presolve: tuple,
          res: Optional[PhaseOneResult]) -> Certificate:
    """The certificate of ``system`` from its presolve and the residual's
    phase-one answer ``res`` (``None`` when every sector was forced).

    A witness is the residual's, read off the sector columns, with 0 on
    every forced sector, made primitive.  Otherwise the residual rows'
    duals, each times its row's factor, are integer multipliers over the
    aggregate's ``y_sigma`` (``y_sigma = 1`` and no others when every
    sector was forced); their combination with the aggregate is <= 0
    on the kept sectors.  The forcing steps, walked in reverse, make it
    <= 0 on the forced ones (Andersen and Andersen 1995): each forcing
    row gets the least multiplier that does so on the sectors it forced,
    the exact ratio ``max combo[s] / (-sign * a_s)``, where ``sign`` is
    the multiplier's sign, -1 only for an equality with positive
    coefficients.  A row touches only sectors forced at or before its
    own step, so no later step's sectors move.  A ratio with a
    denominator ``q > 1`` scales every multiplier and the common
    denominator by ``q``.  The multipliers become ``Fraction``s, keyed
    by tag, only at the end."""
    kept, signed, steps = presolve
    if res is not None and res.feasible:
        x = res.x[:len(kept)]
        g = gcd(*x) or 1
        nums = dict(zip(kept, x))
        return Certificate("Feasible", witness={
            s: nums.get(s, 0) // g for s in system.variables})
    if res is None:
        used, den = [], 1
    else:
        *y, den = (sign * v for (_f, sign), v in zip(signed, res.duals))
        if den <= 0:  # no Farkas certificate: verification refuses it
            return Certificate("Infeasible", multipliers={})
        used = [(f, v) for (f, _s), v in zip(signed, y) if v]
    mult = {f.tag: v for f, v in used}
    if steps:
        # the combination, times den, on the forced sectors
        combo = {s: 0 for _f, pairs in steps for s, _c in pairs}
        for f, v in [(system._aggregate, den)] + used:
            for s, c in f.coeffs:
                if s in combo:
                    combo[s] += v * c
        for f, pairs in reversed(steps):
            sign = 1 if pairs[0][1] < 0 else -1
            p, q = 0, 1  # the least multiplier, p / q, so far
            for s, c in pairs:
                v, a = combo[s], -sign * c
                if v * q > p * a:
                    p, q = v, a
            if not p:
                continue
            g = gcd(p, q)
            p, q = p // g, q // g
            if q > 1:
                combo = {s: q * v for s, v in combo.items()}
                mult = {tag: q * v for tag, v in mult.items()}
                den *= q
            k = sign * p
            mult[f.tag] = mult.get(f.tag, 0) + k
            for s, c in f.coeffs:
                combo[s] += k * c
    return Certificate("Infeasible", multipliers={
        tag: Fraction(v, den) for tag, v in mult.items() if v})


def feasible(system: ConstraintSystem) -> Certificate:
    """Exact feasibility decision with a checkable certificate.

    The forcing presolve of :func:`_rows` fixes the sectors that the
    signs force to 0; phase one decides the rest, unless nothing is
    left, and :func:`_lift` lifts its answer to the whole system.
    Feasible yields the primitive integer witness of the solved vertex;
    Infeasible yields rational multipliers combining the constraints into
    a componentwise-nonpositive form that the strictness aggregate
    contradicts.  Every certificate passes :func:`verify_certificate` on
    the whole system before it is returned; one that fails raises
    :class:`InvariantViolation`.
    """
    problem, presolve = _rows(system)
    res = phase_one(*problem) if problem else None
    cert = _lift(system, presolve, res)
    if not verify_certificate(system, cert):
        raise InvariantViolation(
            f"emitted certificate for {system.kind} fails verification")
    return cert


def verify_certificate(system: ConstraintSystem, cert: Certificate) -> bool:
    """Re-check a certificate by direct arithmetic, solver-independently.

    Only exact input passes: an ``int`` witness, and ``int`` or
    ``Fraction`` multipliers.  An infeasible certificate is
    checked in ``int`` arithmetic, scaled by the lcm of the multipliers'
    denominators.
    """
    sigma = system._aggregate

    if cert.verdict == "Feasible":
        w = cert.witness
        if not isinstance(w, dict):
            return False
        if any(not isinstance(v, int) or v < 0 for v in w.values()):
            return False
        if set(w) - set(system.variables):
            return False
        if any(f.dot(w) != 0 for f in system.equalities):
            return False
        if any(f.dot(w) < 0 for f in system.inequalities):
            return False
        return sigma.dot(w) >= 1

    if cert.verdict == "Infeasible":
        mult = cert.multipliers
        if not isinstance(mult, dict):
            return False
        if any(not isinstance(v, (int, Fraction)) for v in mult.values()):
            return False
        tags = {f.tag: ("eq", f) for f in system.equalities}
        tags.update({f.tag: ("ineq", f) for f in system.inequalities})
        # the combination times scale, all in int
        scale = lcm(*(v.denominator for v in mult.values()))
        combo = {s: scale * c for s, c in sigma.coeffs}
        for tag, v in mult.items():
            if tag not in tags:
                return False
            role, form = tags[tag]
            if role == "ineq" and v < 0:
                return False
            k = v.numerator * (scale // v.denominator)
            for s, c in form.coeffs:
                combo[s] = combo.get(s, 0) + k * c
        return all(v <= 0 for v in combo.values())

    return False


# elements in the largest array one brute-force block builds, of the
# table's dtype: at most 8 MiB
_CHUNK_ELEMENTS = 1 << 20
_INT64_MAX = (1 << 63) - 1


def brute_force(system: ConstraintSystem, bound: int) -> Optional[dict[str, int]]:
    """Lexicographically least satisfying vector with entries in [0, bound].

    Exhaustive; a miss does not prove infeasibility.  Serves as the
    independent oracle for :func:`feasible`.  The values of every form
    are tabulated one variable at a time, last first, each as the new
    leading digit of the table's long axis, so that every broadcast add
    runs along that axis.  The table holds at most ``_CHUNK_ELEMENTS``
    entries: the trailing variables whose full table fits, and a block
    of as many values of the digit before them as fit, so that a digit
    wider than that still costs one compare per block, not one per
    value (bound 2**26 - 1 over one variable and three columns takes
    about 0.35 s).  Each block, with the leading variables taken in
    lexicographic order, compares the table with its own values and
    checks every constraint at once; only the first hit is decoded.
    Every entry and every shift lies in ``[-reach - 1, reach]``, where
    ``reach = bound * max sum(|c|)`` over the forms, so the table is kept
    in the narrowest signed dtype that holds that range (int8 for the
    ``selftest`` systems); a table's aggregate has a positive coefficient,
    so the digits fit too.  Refuses a bound that is not an ``int``, a
    search space of (bound+1)**n > 2**26 candidates (a full search of
    4**13 over three columns takes about 0.03 s on a 2-vCPU x86-64 VM
    once numpy is loaded; the tests need 7**9), which any n > 26 is,
    and a form whose values could leave int64, ``bound * sum(|c|) >
    2**63 - 1``.  After those refusals, a strict aggregate with no
    positive coefficient misses with no table built.
    """
    if not isinstance(bound, int):
        raise MalformedSystem(f"bound must be an int, not {bound!r}")
    if bound < 1:
        raise MalformedSystem("bound must be >= 1")
    variables = system.variables
    n, base = len(variables), bound + 1
    if n > 26 or base ** n > 1 << 26:
        raise MalformedSystem(f"oracle search space {_decimal(base)}^{n} "
                              "exceeds 2^26 candidates")
    forms = system.equalities + system.inequalities + (system._aggregate,)
    reach = 0
    for form in forms:
        reach = max(reach, bound * sum(abs(c) for _s, c in form.coeffs))
        if reach > _INT64_MAX:
            raise MalformedSystem(f"oracle values of {form.tag} exceed int64")
    # over the box the aggregate reaches at most bound times its positive
    # coefficients, so with none it never reaches 1, and no table is built
    if not any(c > 0 for _s, c in system._aggregate.coeffs):
        return None
    import numpy as np  # here, so that only the oracle's tables load it

    dtype = np.min_scalar_type(-reach - 1)

    # one column per constraint, each required >= 0: an equality is a
    # pair of opposite columns, and the aggregate column starts at -1
    columns = [(f, -1) for f in system.equalities] + [(f, 1) for f in forms]
    width = len(columns)
    col = {s: j for j, s in enumerate(variables)}
    rows = [[0] * width for _ in variables]
    for k, (form, sign) in enumerate(columns):
        for s, c in form.coeffs:
            rows[col[s]][k] = sign * c
    per_unit = np.array(rows, dtype=dtype).reshape(n, width)

    # the last t < n variables in full, then `step` values of the blocked digit
    t = n - 1
    while t and base ** t * width > _CHUNK_ELEMENTS:
        t -= 1
    step = min(base, max(1, _CHUNK_ELEMENTS // (base ** t * width)))
    head = n - t - 1  # the variables before the blocked digit
    # table[k, i]: column k's value at the i-th assignment of a block:
    # `step` values of the blocked digit, then the trailing variables
    shape = (step,) + (base,) * t
    digits = np.arange(base, dtype=dtype)
    table = np.zeros((width, 1), dtype=dtype)
    table[-1] = -1
    for unit, run in zip(reversed(per_unit), [digits] * t + [digits[:step]]):
        table = ((unit[:, None] * run)[:, :, None]
                 + table[:, None, :]).reshape(width, -1)
    for values in product(*[range(base)] * head, range(0, base, step)):
        # the block's first assignment: a prefix, then the digit's start
        shift = np.array(values, dtype=dtype) @ per_unit[:head + 1]
        span = min(step, base - values[-1]) * base ** t
        ok = (table[:, :span] >= -shift[:, None]).all(axis=0)
        hit = int(ok.argmax())
        if ok[hit]:
            digit, *rest = np.unravel_index(hit, shape)
            vec = (*values[:-1], values[-1] + digit, *rest)
            return {s: int(v) for s, v in zip(variables, vec)}
    return None


class Verdict(NamedTuple):
    neg_tisc: Certificate
    isc: Certificate

    @property
    def passes(self) -> bool:
        return not self.neg_tisc.feasible and not self.isc.feasible


CONCLUSION = "fully carries a pure positive contamination"


def criterion(cx: BranchedSurfaceComplex) -> Verdict:
    """Both obstruction systems must be infeasible for a pass."""
    return Verdict(feasible(build_system(cx, NEG_TISC)),
                   feasible(build_system(cx, ISC)))
