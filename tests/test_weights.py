import tracemalloc
from fractions import Fraction
from functools import cached_property
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsgate import surface, weights
from bsgate.errors import InvariantViolation, MalformedSystem
from bsgate.parser import parse_complex, print_complex
from bsgate.surface import BranchedSurfaceComplex, derive_roles, validate
from bsgate.weights import (
    ISC,
    KINDS,
    NEG_TISC,
    POS_TISC,
    Certificate,
    ConstraintSystem,
    LinForm,
    build_system,
    brute_force,
    criterion,
    feasible,
    strict_aggregate,
    verify_certificate,
)

from conftest import fixture_text, load


def _nonzero(w):
    return {k: v for k, v in w.items() if v}


def toy(coeffs_list, strict, variables=("a", "b"), eqs=()):
    ineqs = tuple(LinForm.make(c, f"i{i}") for i, c in enumerate(coeffs_list))
    eqs = tuple(LinForm.make(c, f"e{i}") for i, c in enumerate(eqs))
    return ConstraintSystem(tuple(variables), eqs, ineqs, tuple(strict), "toy")


def rebuilt(system, **changes):
    """A new system built from ``system``'s fields, ``changes`` in place."""
    fields = {"variables": system.variables, "equalities": system.equalities,
              "inequalities": system.inequalities,
              "strict_group": system.strict_group, "kind": system.kind}
    return ConstraintSystem(**{**fields, **changes})


def test_smallest_strict_system():
    sys_ = toy([{"a": 1, "b": -1}], [0])
    cert = feasible(sys_)
    assert cert.feasible and cert.witness == {"a": 1, "b": 0}
    assert brute_force(sys_, 1) == {"a": 1, "b": 0}
    assert verify_certificate(sys_, cert)


def test_feasible_refuses_a_certificate_that_fails_verification(monkeypatch):
    monkeypatch.setattr(weights, "verify_certificate", lambda s, c: False)
    for sys_ in (toy([{"a": 1, "b": -1}], [0]),  # feasible
                 toy([{"a": 1, "b": -1}, {"a": -1, "b": 1}], [0, 1])):
        with pytest.raises(InvariantViolation, match="emitted certificate "
                           "for toy fails verification"):
            feasible(sys_)


def test_roles_are_derived_once_for_every_kind(monkeypatch):
    derived = []

    def counting(cx, did, _derive=surface.derive_roles):
        derived.append(did)
        return _derive(cx, did)

    monkeypatch.setattr(surface, "derive_roles", counting)
    cx = load("fix-split.bsf")
    assert validate(cx).ok()
    for kind in KINDS:
        build_system(cx, kind)
    assert sorted(derived) == sorted(d.id for d in cx.dps)


def test_a_segment_form_is_built_once_per_segment_object(monkeypatch):
    # an equal but distinct complex builds the forms of its own segments;
    # one with a double point's sign flipped shares the segments, so it
    # builds none, yet gets the system of a fresh build, as does the first
    # complex asked again
    text = fixture_text("fix-split.bsf")
    cx, twin = parse_complex(text), parse_complex(text)
    d = cx.dps[0]
    flipped = BranchedSurfaceComplex(cx.name, cx.sectors, cx.segments,
                                     (d._replace(sign=-d.sign),) + cx.dps[1:])
    want, want_flipped = ([build_system(parse_complex(print_complex(c)), k)
                           for k in KINDS] for c in (cx, flipped))
    assert want[0] != want_flipped[0]
    built = []

    def counting(g, _form=surface.BranchSegment.form.func):
        built.append(g)
        return _form(g)

    form = cached_property(counting)
    form.__set_name__(surface.BranchSegment, "form")
    monkeypatch.setattr(surface.BranchSegment, "form", form)
    order = (cx, twin, flipped, cx)
    for c in order:
        assert [build_system(c, kind) for kind in KINDS] \
            == (want_flipped if c is flipped else want)
    n = len(cx.segments)
    assert len(built) == 2 * n
    assert all(a is b for a, b in zip(built, cx.segments + twin.segments))


def test_a_system_is_checked_and_aggregated_once(monkeypatch):
    checked, summed = [], []
    check, aggregate = weights._check_system, weights.strict_aggregate
    monkeypatch.setattr(weights, "_check_system",
                        lambda s: checked.append(s) or check(s))
    monkeypatch.setattr(weights, "strict_aggregate",
                        lambda s: summed.append(s) or aggregate(s))
    sys_ = build_system(load("fix-cross.bsf"), ISC)
    for _ in range(2):
        cert = feasible(sys_)
        assert verify_certificate(sys_, cert)
        assert brute_force(sys_, 3) is None
    assert [s is sys_ for s in checked + summed] == [True, True]


GOOD_FIELDS = {"variables": ("a", "b"), "equalities": (),
               "inequalities": (LinForm.make({"a": 1}, "i0"),),
               "strict_group": (0,), "kind": "toy"}


@pytest.mark.parametrize("fields, message", [
    ({"strict_group": (5,)}, "strict_group index 5 out of range"),
    ({"inequalities": (LinForm.make({"c": 1}, "i0"),)},
     "form i0 uses unknown variable c"),
    ({"inequalities": (LinForm.make({"a": 1}, "i0"),
                       LinForm.make({"b": 1}, "i1")),
      "strict_group": (0, 0)}, "duplicate strict_group index"),
    ({"variables": ("a", "a")}, "duplicate variable"),
], ids=["index", "variable", "strict-twice", "variable-twice"])
def test_a_malformed_system_refuses_on_every_call(fields, message):
    # no malformed system exists: each build refuses afresh, and so does
    # each rebuild of a good system's fields
    good = ConstraintSystem(**GOOD_FIELDS)
    refusals = []
    for _ in range(2):
        for make in (lambda: ConstraintSystem(**{**GOOD_FIELDS, **fields}),
                     lambda: rebuilt(good, **fields)):
            with pytest.raises(MalformedSystem) as info:
                make()
            refusals.append(info.value)
    assert [str(exc) for exc in refusals] == [message] * 4
    assert len({id(exc) for exc in refusals}) == 4


def test_empty_strict_group_is_infeasible():
    for kind in KINDS:
        sys_ = build_system(load("fix-torus.bsf"), kind)
        assert sys_.equalities == () and sys_.inequalities == ()
        assert sys_.strict_group == ()
        cert = feasible(sys_)
        assert not cert.feasible
        # the empty combination already contradicts 0 >= 1
        assert verify_certificate(sys_, Certificate("Infeasible", multipliers={}))
        assert verify_certificate(sys_, cert)
        assert brute_force(sys_, 5) is None


def test_doc_isc_single_inequality():
    sys_ = build_system(load("fix-doc.bsf"), ISC)
    assert sys_.equalities == ()
    assert [f.coeffs for f in sys_.inequalities] == [(("D", 1), ("T", -2))]
    assert sys_.strict_group == (0,)
    assert brute_force(sys_, 2) == {"D": 1, "T": 0}
    cert = feasible(sys_)
    assert cert.feasible and cert.witness == {"D": 1, "T": 0}
    assert verify_certificate(sys_, cert)


def test_fig5_neg_tisc_reproduces_branch_inequalities():
    cx = load("fix-fig5.bsf")
    sys_ = build_system(cx, NEG_TISC)
    r = derive_roles(cx, "P")
    z, x, u, v, w, y = r.z, r.x, r.u, r.v, r.w, r.y
    got = {f.coeffs for f in sys_.inequalities}
    want = {
        LinForm.make({z: 1, x: -1, y: -1}, "").coeffs,
        LinForm.make({z: 1, w: -1, v: -1}, "").coeffs,
        LinForm.make({v: 1, u: -1, y: -1}, "").coeffs,
        LinForm.make({x: 1, w: -1, u: -1}, "").coeffs,
        LinForm.make({z: 1, u: 1, x: -1, v: -1}, "").coeffs,
    }
    assert got == want
    assert [sys_.inequalities[i].tag for i in sys_.strict_group] == ["corner:P"]
    assert sys_.equalities == ()
    assert _nonzero(brute_force(sys_, 2)) == {"qz": 1}


TDISC_EXPECT = [
    (NEG_TISC, {"sw": 1}),
    (POS_TISC, {"mw": 1, "sw": 1}),
    (ISC, {"sw": 1, "se": 1}),
]


@pytest.mark.parametrize("kind,witness", TDISC_EXPECT)
def test_tdisc_oracle_frozen(kind, witness):
    sys_ = build_system(load("fix-tdisc.bsf"), kind)
    assert _nonzero(brute_force(sys_, 4)) == witness
    cert = feasible(sys_)
    assert cert.feasible
    assert verify_certificate(sys_, cert)
    full = {v: witness.get(v, 0) for v in sys_.variables}
    assert verify_certificate(sys_, Certificate("Feasible", witness=full))


def test_tdisc_pos_witness_strict_corners():
    sys_ = build_system(load("fix-tdisc.bsf"), POS_TISC)
    cert = feasible(sys_)
    assert cert.witness == {v: {"mw": 1, "sw": 1}.get(v, 0)
                            for v in sys_.variables}
    value = {f.tag: f.dot(cert.witness) for f in sys_.inequalities}
    assert value["corner:P"] == 1 and value["corner:P2"] == 1


def test_negtd_mirror():
    sys_ = build_system(load("fix-negtd.bsf"), NEG_TISC)
    assert _nonzero(brute_force(sys_, 4)) == {"mw": 1, "sw": 1}
    v = criterion(load("fix-negtd.bsf"))
    assert not v.passes and v.neg_tisc.feasible
    assert verify_certificate(sys_, v.neg_tisc)


def test_split_fixture_tisc_systems_infeasible():
    cx = load("fix-split.bsf")
    for kind in (NEG_TISC, POS_TISC):
        sys_ = build_system(cx, kind)
        cert = feasible(sys_)
        assert not cert.feasible and verify_certificate(sys_, cert)
        assert brute_force(sys_, 4) is None
    isc = feasible(build_system(cx, ISC))
    assert isc.feasible and _nonzero(isc.witness) == {"O": 1, "Ao": 1}


@pytest.mark.parametrize("name,passes", [
    ("fix-torus.bsf", True),
    ("fix-cross.bsf", True),
    ("fix-clean.bsf", True),
    ("fix-clean3.bsf", True),
    ("fix-doc.bsf", False),
    ("fix-fig5.bsf", False),
    ("fix-split.bsf", False),
    ("fix-tdisc.bsf", False),
    ("fix-negtd.bsf", False),
])
def test_criterion_verdicts(name, passes):
    v = criterion(load(name))
    assert v.passes is passes
    if passes:
        assert not v.neg_tisc.feasible and not v.isc.feasible
    else:
        assert v.neg_tisc.feasible or v.isc.feasible


@pytest.mark.parametrize("name", ["fix-tdisc.bsf", "fix-split.bsf",
                                  "fix-fig5.bsf", "fix-doc.bsf",
                                  "fix-cross.bsf"])
def test_oracle_agreement_all_kinds(name):
    cx = load(name)
    for kind in KINDS:
        sys_ = build_system(cx, kind)
        cert = feasible(sys_)
        bf = brute_force(sys_, 6)
        assert cert.feasible == (bf is not None)
        assert verify_certificate(sys_, cert)
        if bf is not None:
            assert verify_certificate(sys_, Certificate("Feasible", witness=bf))
            # completeness at bound: solver witness small -> oracle must hit
            if max(cert.witness.values(), default=0) <= 6:
                assert bf is not None


def test_zero_vector_rejected_when_strictness_nonempty():
    sys_ = build_system(load("fix-doc.bsf"), ISC)
    zero = {v: 0 for v in sys_.variables}
    assert not verify_certificate(sys_, Certificate("Feasible", witness=zero))


def test_scaled_witness_accepted():
    sys_ = build_system(load("fix-tdisc.bsf"), POS_TISC)
    w = feasible(sys_).witness
    for k in (2, 7):
        scaled = {s: k * v for s, v in w.items()}
        assert verify_certificate(sys_, Certificate("Feasible", witness=scaled))


def test_tampered_witnesses_rejected():
    # mw = sw = 1 pins both corner equalities of fix-tdisc's pos-tisc at 0
    sys_ = build_system(load("fix-tdisc.bsf"), POS_TISC)
    cert = feasible(sys_)
    w = cert.witness
    assert verify_certificate(sys_, cert)
    for bad in ({**w, "nw": -1},  # a negative entry
                {**w, "mw": 1.0},  # not an int
                {**w, "zz": 0},  # not a sector of the system
                {**w, "mw": 2},  # corner:Q reads -1
                {**w, "yv": 1}):  # seg:N reads -1, every equality 0
        assert not verify_certificate(
            sys_, Certificate("Feasible", witness=bad)), bad
    assert not verify_certificate(sys_, cert._replace(verdict="Maybe"))


def test_tampered_multipliers_rejected():
    sys_ = build_system(load("fix-split.bsf"), NEG_TISC)
    cert = feasible(sys_)
    bad = dict(cert.multipliers)
    bad["corner:Q"] = Fraction(-1)  # inequality multiplier must stay >= 0
    assert not verify_certificate(sys_, Certificate("Infeasible", multipliers=bad))
    assert not verify_certificate(
        sys_, Certificate("Infeasible", multipliers={"no-such-tag": Fraction(1)}))


def test_malformed_systems_rejected():
    with pytest.raises(MalformedSystem, match="index 5 out of range"):
        toy([{"a": 1}], [5])
    with pytest.raises(MalformedSystem, match="unknown variable c"):
        rebuilt(toy([{"a": 1}], [0]),
                inequalities=(LinForm.make({"c": 1}, "i0"),))
    with pytest.raises(MalformedSystem):
        brute_force(toy([{"a": 1}], [0]), 0)
    with pytest.raises(MalformedSystem):
        build_system(load("fix-torus.bsf"), "bogus")


def test_duplicate_form_tags_are_malformed():
    # A - B >= 0, strict, and B >= 0, both tagged t: multipliers keyed by
    # tag would merge, and the solver once emitted a certificate for them
    # that failed its own check
    a_b, b = LinForm.make({"A": 1, "B": -1}, "t"), LinForm.make({"B": 1}, "t")
    good = ConstraintSystem(("A", "B"), (), (a_b,), (0,), "dup")
    for eqs, ineqs in (((), (a_b, b)), ((b,), (a_b,))):
        with pytest.raises(MalformedSystem, match="duplicate form tag"):
            ConstraintSystem(("A", "B"), eqs, ineqs, (0,), "dup")
        with pytest.raises(MalformedSystem, match="duplicate form tag"):
            rebuilt(good, equalities=eqs, inequalities=ineqs)


@pytest.mark.parametrize("c", [1.5, Fraction(3, 2), 2.0], ids=repr)
def test_non_integer_coefficients_are_malformed(c):
    # a - c b = 0 with b >= 0 strict; brute force once truncated 1.5 to 1
    # and returned a = b = 1, where the equality is -0.5
    with pytest.raises(MalformedSystem, match="non-integer coefficient"):
        toy([{"b": 1}], [0], eqs=[{"a": 1, "b": -c}])
    good = toy([{"b": 1}], [0], eqs=[{"a": 1, "b": -2}])
    with pytest.raises(MalformedSystem, match="non-integer coefficient"):
        rebuilt(good, equalities=(LinForm.make({"a": 1, "b": -c}, "e0"),))


def test_non_exact_certificates_are_rejected():
    sys_ = toy([{"a": 1, "b": 3}, {"a": -3, "b": -2}], [0])
    good = feasible(sys_).multipliers
    assert verify_certificate(sys_, Certificate("Infeasible", multipliers=good))
    for bad in ("3/2", None, float("inf"), 1.5):
        assert not verify_certificate(
            sys_, Certificate("Infeasible", multipliers={"i1": bad})), bad
    assert verify_certificate(
        sys_, Certificate("Infeasible", multipliers={"i1": 2}))
    assert not verify_certificate(
        sys_, Certificate("Infeasible", multipliers=list(good.items())))
    feas = toy([{"a": 1, "b": -1}], [0])
    assert verify_certificate(feas, Certificate("Feasible", witness={"a": 1}))
    assert not verify_certificate(feas, Certificate("Feasible", witness=[1, 0]))


def test_brute_force_refuses_oversized_search():
    # 7**24 candidates: refused up front instead of overflowing int64
    variables = tuple(f"s{i}" for i in range(24))
    sys_ = toy([{v: 1 for v in variables}], [0], variables=variables)
    with pytest.raises(MalformedSystem, match=r"7\^24 exceeds"):
        brute_force(sys_, 6)


def test_brute_force_memory_is_bounded():
    # 2**20 candidates over 20 variables; the least hit is v00 = v19 = 1.
    # Enumerated as one int64 chunk, this search traces 328 MiB; in int8
    # blocks of 2**18 candidates it needs about 2.5 MiB.  numpy is loaded
    # first, so that only the search is traced.
    import numpy  # noqa: F401

    variables = tuple(f"v{i:02d}" for i in range(20))
    sys_ = toy([{"v00": 1}], [0], variables=variables,
               eqs=[{"v00": 1, "v19": -1}])
    tracemalloc.start()
    try:
        found = brute_force(sys_, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == {v: int(v in ("v00", "v19")) for v in variables}
    assert peak < 4 << 20


def test_brute_force_refuses_forms_that_leave_int64():
    # a - 2**62 b >= 0: at bound 3, b = 3 wrapped round to a "hit"
    big = 1 << 62
    sys_ = toy([{"a": 1, "b": -big}], [0])
    with pytest.raises(MalformedSystem, match="oracle values of i0 exceed "
                       "int64"):
        brute_force(sys_, 3)
    assert brute_force(sys_, 1) == {"a": 1, "b": 0}  # 1 + 2**62 fits
    # infeasible, yet the wrapped search returned a "witness" for it
    sys_ = toy([{"b": -big}, {"a": -1}], [0, 1])
    assert not feasible(sys_).feasible
    with pytest.raises(MalformedSystem, match="exceed int64"):
        brute_force(sys_, 3)


def reference_oracle(system, bound):
    """The first hit of a plain lexicographic enumeration."""
    sigma = strict_aggregate(system)
    for vec in product(range(bound + 1), repeat=len(system.variables)):
        w = dict(zip(system.variables, vec))
        if (all(f.dot(w) == 0 for f in system.equalities)
                and all(f.dot(w) >= 0 for f in system.inequalities)
                and sigma.dot(w) >= 1):
            return w
    return None


@st.composite
def oracle_cases(draw):
    bound = draw(st.integers(min_value=1, max_value=7))
    most = max(n for n in range(8) if (bound + 1) ** n <= 2048)
    nv = draw(st.integers(min_value=0, max_value=most))
    variables = tuple(f"v{i}" for i in range(nv))
    coeff = st.integers(min_value=-2, max_value=3)

    def forms(prefix, count):
        return tuple(LinForm.make({v: draw(coeff) for v in variables},
                                  f"{prefix}{i}") for i in range(count))

    eqs = forms("e", draw(st.integers(min_value=0, max_value=2)))
    ineqs = forms("i", draw(st.integers(min_value=1, max_value=4)))
    strict = tuple(sorted(draw(st.sets(st.integers(
        min_value=0, max_value=len(ineqs) - 1), min_size=1))))
    # a small block leaves some variables to the leading-prefix loop
    chunk = draw(st.sampled_from([weights._CHUNK_ELEMENTS, 8, 64]))
    return ConstraintSystem(variables, eqs, ineqs, strict, "random"), bound, chunk


@given(oracle_cases())
@settings(max_examples=200, deadline=None)
def test_brute_force_is_the_first_hit_of_a_plain_enumeration(case):
    sys_, bound, chunk = case
    with mock.patch.object(weights, "_CHUNK_ELEMENTS", chunk):
        found = brute_force(sys_, bound)
    assert found == reference_oracle(sys_, bound)


def _edge_systems(span):
    """Systems whose widest form reaches exactly ``span`` at bound 1."""
    # the least hit is a = b = 1, where i0 reads span itself
    top = toy([{"a": span}, {"a": -1, "b": span - 1}], [0],
              variables=("a", "b", "c"))
    # no hit; at a = 1, i0 reads -span and the aggregate column -span - 1,
    # but an aggregate with no positive coefficient misses with no table
    bottom = toy([{"a": -span}, {"b": 1}], [0])
    # no hit; the aggregate a can reach 1, so the search runs, and at
    # a = 1 its table reads -span in column i1
    low = toy([{"a": 1}, {"a": -span}], [0])
    return top, bottom, low


@pytest.mark.parametrize("chunk", [weights._CHUNK_ELEMENTS, 8])
@pytest.mark.parametrize("span", [127, 128, 32767, 32768, 2**31 - 1, 2**31])
def test_brute_force_at_the_edges_of_each_dtype(span, chunk, monkeypatch,
                                                oracle_tables):
    # a table one dtype too narrow reads span as a negative number
    monkeypatch.setattr(weights, "_CHUNK_ELEMENTS", chunk)
    top, bottom, low = _edge_systems(span)
    assert brute_force(top, 1) == reference_oracle(top, 1) == {
        "a": 1, "b": 1, "c": 0}
    assert brute_force(bottom, 1) is reference_oracle(bottom, 1) is None
    assert brute_force(low, 1) is reference_oracle(low, 1) is None
    # top and low share the dtype of span; bottom built no table
    assert len(oracle_tables) == 2
    assert oracle_tables[0] == oracle_tables[1]


@pytest.mark.parametrize("chunk", [weights._CHUNK_ELEMENTS, 8])
def test_brute_force_digits_wider_than_every_form(chunk, monkeypatch,
                                                 oracle_tables):
    # every form is zero, so reach stays 0 while the digits would run to
    # 200, past int8: the empty aggregate takes the exit, and no table
    # is built to need a dtype for them
    monkeypatch.setattr(weights, "_CHUNK_ELEMENTS", chunk)
    sys_ = toy([{}, {}], [0, 1], eqs=[{}])
    assert brute_force(sys_, 200) is reference_oracle(sys_, 200) is None
    assert oracle_tables == []


@pytest.mark.parametrize("bound", [2.5, 3.0, "3"], ids=repr)
def test_brute_force_refuses_a_bound_that_is_not_an_int(bound):
    with pytest.raises(MalformedSystem, match="bound must be an int"):
        brute_force(toy([{"a": 1}], [0]), bound)


def test_brute_force_decodes_a_hit_past_the_first_block(monkeypatch):
    # v0 = ... = v5 and v0 >= 1 over [0, 3]: twelve columns, so blocks
    # of 4**2 candidates, and the least hit lies in block (1, 1, 1, 1)
    variables = tuple(f"v{i}" for i in range(6))
    sys_ = toy([{"v0": 1}], [0], variables=variables,
               eqs=[{"v0": 1, v: -1} for v in variables[1:]])
    monkeypatch.setattr(weights, "_CHUNK_ELEMENTS", 16 * 12)
    assert brute_force(sys_, 3) == {v: 1 for v in variables}


@pytest.mark.parametrize("sys_, tables", [
    # the aggregate -a never reaches 1: no table
    (toy([{"a": -1}], [0], variables=("a",)), 0),
    # the aggregate a could, but a >= 1 breaks i1: every block misses
    (toy([{"a": 1}, {"a": -1}], [0]), 1),
    (toy([{"a": 1}], [0], variables=("a",)), 1),
    # the least hit is a = 1, b = 37: past the first blocks of b
    (toy([{"a": 1}, {"a": -37, "b": 1}], [0]), 1),
    # b = 51 would be a hit, one past the bound, in b's last block
    (toy([{"a": 1}, {"a": -51, "b": 1}], [0]), 1),
], ids=["no-hit", "no-hit-in-every-block", "hit",
        "hit-past-the-first-blocks", "hit-past-the-bound"])
def test_brute_force_blocks_a_digit_wider_than_the_cap(sys_, tables,
                                                       monkeypatch,
                                                       oracle_tables):
    # three columns and a cap of 8: the last digit runs in blocks of two
    monkeypatch.setattr(weights, "_CHUNK_ELEMENTS", 8)
    assert brute_force(sys_, 50) == reference_oracle(sys_, 50)
    assert len(oracle_tables) == tables


def test_brute_force_searches_the_largest_bound_in_blocks(oracle_tables):
    # one variable at the largest bound under the 2**26 cap, whose
    # aggregate a could reach 1: three columns, so 2**26 candidates in
    # 193 blocks of 349,525, all missing.  No CLI input can drive this
    # search: every form of a one-sector complex is <= 0
    sys_ = toy([{"a": 1}, {"a": -1}], [0], variables=("a",))
    assert brute_force(sys_, (1 << 26) - 1) is None
    assert len(oracle_tables) == 1


def test_strict_aggregate_sums_group():
    sys_ = build_system(load("fix-clean.bsf"), ISC)
    assert strict_aggregate(sys_).coeffs == (("A", -2),)


@st.composite
def small_systems(draw):
    # sector names may clash with form tags
    variables = tuple(draw(st.lists(
        st.sampled_from(("v0", "v1", "i0", "e0", "surplus", "slack:i0")),
        min_size=1, max_size=3, unique=True)))
    coeff = st.integers(min_value=-2, max_value=2)
    nin = draw(st.integers(min_value=1, max_value=4))
    neq = draw(st.integers(min_value=0, max_value=2))
    ineqs = [
        LinForm.make({v: draw(coeff) for v in variables}, f"i{i}")
        for i in range(nin)
    ]
    eqs = [
        LinForm.make({v: draw(coeff) for v in variables}, f"e{i}")
        for i in range(neq)
    ]
    strict = draw(st.sets(st.integers(min_value=0, max_value=nin - 1)))
    return ConstraintSystem(variables, tuple(eqs), tuple(ineqs),
                            tuple(sorted(strict)), "random")


@given(small_systems())
@settings(max_examples=120, deadline=None)
def test_solver_matches_oracle_on_random_systems(sys_):
    cert = feasible(sys_)
    assert verify_certificate(sys_, cert)
    bf = brute_force(sys_, 3)
    if bf is not None:
        assert cert.feasible
        assert verify_certificate(sys_, Certificate("Feasible", witness=bf))
    if cert.feasible:
        assert all(v >= 0 for v in cert.witness.values())
        doubled = {s: 2 * v for s, v in cert.witness.items()}
        assert verify_certificate(sys_, Certificate("Feasible", witness=doubled))


# -- the forcing presolve against a rescan to its fixpoint --------------------

def _rescan_presolve(system):
    """The forcing presolve the slow way: sweep every row, forcing all the
    remaining sectors of each row that forces, until a sweep forces
    nothing.  Returns the forced sectors, then the residual's ``(rows,
    rhs, n)`` (``None`` when every sector is forced), its kept sectors
    and its signed forms, laid out as ``weights._rows`` documents."""
    ne = len(system.equalities)
    forms = system.equalities + system.inequalities
    forced = set()

    def rest(form):
        return [c for s, c in form.coeffs if s not in forced]

    sweep = True
    while sweep:
        sweep = False
        for r, form in enumerate(forms):
            cs = rest(form)
            if cs and (all(c < 0 for c in cs)
                       or (r < ne and all(c > 0 for c in cs))):
                forced.update(s for s, _c in form.coeffs)
                sweep = True
    kept = [s for s in system.variables if s not in forced]
    if not kept:
        return forced, None, kept, []
    signed = [(f, 1) for f in system.equalities if rest(f)]
    first = len(signed)
    signed += [(f, -1) for i, f in enumerate(system.inequalities)
               if any(c < 0 for c in rest(f)) or i in system.strict_group]
    signed.append((system._aggregate, 1))
    n = len(kept) + len(signed) - first
    rows = []
    for i, (f, sign) in enumerate(signed):
        row = {kept.index(s): sign * c for s, c in f.coeffs if s in kept}
        if first <= i < len(signed) - 1:
            row[len(kept) + i - first] = 1  # the inequality's slack
        rows.append(row)
    rows[-1][n - 1] = -1  # the surplus
    return forced, (rows, [0] * (len(rows) - 1) + [1], n), kept, signed


@st.composite
def presolve_cases(draw):
    """A small integer system, raw: its sectors, each equality's and each
    inequality's sparse coefficients, and its strict group."""
    names = [f"s{j}" for j in range(draw(st.integers(1, 6)))]
    form = st.dictionaries(st.sampled_from(names),
                           st.integers(-3, 3).filter(bool))
    eqs = draw(st.lists(form, max_size=4))
    ineqs = draw(st.lists(form, max_size=5))
    strict = draw(st.sets(st.integers(0, len(ineqs) - 1))) if ineqs else ()
    return names, eqs, ineqs, sorted(strict)


@given(presolve_cases())
# a mixed-sign equality: nothing to force
@example((["a", "b"], [{"a": 1, "b": -1}], [{"a": 1, "b": -2}], [0]))
# a one-signed equality forces a and b, so a strict inequality forces c
@example((["a", "b", "c", "d"], [{"a": 2, "b": 1}],
          [{"a": 1, "c": -1}, {"b": 3, "d": 1}], [0, 1]))
# everything forced, through an equality left with one sign
@example((["a", "b"], [{"a": 1, "b": -1}], [{"b": -2}], []))
@settings(max_examples=300, deadline=None)
def test_presolve_matches_a_rescan_to_its_fixpoint(case):
    """The queue's residual, kept sectors and signed rows are those of a
    rescan to the fixpoint, and its steps force that fixpoint's sectors,
    each row in its turn."""
    names, eqs, ineqs, strict = case
    system = toy(ineqs, strict, names, eqs)
    problem, (kept, signed, steps) = weights._rows(system)
    forced, *want = _rescan_presolve(system)
    assert [problem, kept, signed] == want
    # each step forces the sectors of its row that no earlier step forced,
    # all of them negative, or of one sign in an equality
    done = set()
    for form, pairs in steps:
        assert pairs == [(s, c) for s, c in form.coeffs if s not in done]
        signs = {c > 0 for _s, c in pairs}
        assert signs == {False} or (signs == {True}
                                    and form in system.equalities)
        done.update(s for s, _c in pairs)
    assert done == forced
    feasible(system)  # its certificate, lifted over the steps, verifies
