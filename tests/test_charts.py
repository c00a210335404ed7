"""Chart-module tests.

The box checks are pinned against an independent wedge-product oracle
(contact_oracle_box assembles the full 1-form triple product rather
than reading off a single derivative); the constructions are tested by
re-running their defining checks plus bit-identity on the declared
coincidence strata.  Analytic expectations frozen below were derived by
hand: the volume coefficient for dz + f dx is -df/dy, the leaf map for
f = -c(1-z^2) is tanh(artanh z0 - 2 pi c).
"""

import math
import sys
import types
import warnings
from hashlib import sha256
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgate.charts import (
    ANNULUS,
    BOX,
    CYLINDER,
    INNER_CONTACT,
    OUTER_CONTACT,
    SlopeGrid,
    check_box,
    check_cylinder,
    contact_oracle_box,
    extend_cell,
    holonomy_map,
    parse_grid,
    print_grid,
    purify_box,
    purify_cylinder,
    sample_annulus,
    sample_box,
    sample_cylinder,
)
from bsgate.errors import ChartError
from conftest import traced_peak

SMALL = (17, 17, 17)


# -- grid construction --------------------------------------------------------

def test_grid_rejects_unknown_kind():
    with pytest.raises(ChartError, match="kind"):
        SlopeGrid("sphere", (), np.zeros((3, 3, 3)))


def test_grid_shape_and_bounds_rules():
    with pytest.raises(ChartError, match="3-dimensional"):
        SlopeGrid(BOX, (), np.zeros((3, 3)))
    with pytest.raises(ChartError, match="2-dimensional"):
        SlopeGrid(ANNULUS, (), np.zeros((3, 3, 3)))
    with pytest.raises(ChartError, match="radial bound"):
        SlopeGrid(CYLINDER, (), np.zeros((3, 3, 3)))
    with pytest.raises(ChartError, match="no bounds"):
        SlopeGrid(BOX, (1.0,), np.zeros((3, 3, 3)))
    with pytest.raises(ChartError, match="at least 2"):
        SlopeGrid(BOX, (), np.zeros((3, 1, 3)))


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0,
                                    -1.0])
def test_cylinder_radius_must_be_finite_and_positive(radius):
    with pytest.raises(ChartError, match="positive radial bound"):
        SlopeGrid(CYLINDER, (radius,), np.zeros((3, 4, 3)),
                  np.zeros((3, 4, 3)))
    # sampling refuses it before building the axes: no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError, match="positive radial bound"):
            sample_cylinder(lambda r, t, z: -r * r + 0 * z, (3, 4, 3),
                            radius=radius,
                            h_fn=lambda r, t, z: -1.0 + 0 * z)


def test_h_only_on_cylinders():
    with pytest.raises(ChartError, match="carry h"):
        SlopeGrid(BOX, (), np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))
    with pytest.raises(ChartError, match="shape"):
        SlopeGrid(CYLINDER, (1.0,), np.zeros((3, 3, 3)), np.zeros((3, 3, 4)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_samples_must_be_finite(bad):
    with pytest.raises(ChartError, match="f samples must be finite"):
        sample_box(lambda x, y, z: bad + 0 * x, (3, 3, 3))
    with pytest.raises(ChartError, match="h samples must be finite"):
        sample_cylinder(lambda r, t, z: 0 * r, (3, 4, 3),
                        h_fn=lambda r, t, z: np.where(r > 0, bad, 0.0))


def test_grids_are_immutable():
    g = sample_box(lambda x, y, z: x, shape=(3, 3, 3))
    with pytest.raises(ValueError):
        g.values[0, 0, 0] = 5.0


# -- box checks ---------------------------------------------------------------

def test_constant_field_is_confoliation_without_contact():
    rep = check_box(sample_box(lambda x, y, z: -1.0 + 0 * x, SMALL))
    assert rep.is_confoliation
    assert not rep.contact_mask.any()
    assert rep.max_violation == 0.0


def test_linear_field_is_contact_everywhere():
    rep = check_box(sample_box(lambda x, y, z: -1.0 - y, SMALL))
    assert rep.is_confoliation and rep.is_contact
    assert rep.max_violation == 0.0


def test_rising_field_fails_with_unit_violation():
    rep = check_box(sample_box(lambda x, y, z: y, SMALL))
    assert not rep.is_confoliation
    assert rep.max_violation == pytest.approx(1.0, abs=1e-12)


def test_check_box_degenerate_axis():
    with pytest.raises(ChartError, match="3 samples along y"):
        check_box(SlopeGrid(BOX, (), np.zeros((5, 2, 5))))
    with pytest.raises(ChartError, match="box grid"):
        check_box(sample_annulus(lambda t, z: 0 * t, (4, 5)))


def test_oracle_linear_field_coefficient_is_one():
    coef = contact_oracle_box(sample_box(lambda x, y, z: -1.0 - y, SMALL))
    assert np.abs(coef - 1.0).max() <= 1e-12


def test_oracle_constant_field_coefficient_is_zero():
    coef = contact_oracle_box(sample_box(lambda x, y, z: 0.7 + 0 * x, SMALL))
    assert np.abs(coef).max() <= 1e-12


def test_oracle_cubic_field_tracks_three_y_squared():
    # second-order differences of y^3 carry an O(h^2) bias, largest at
    # the one-sided rows; 2 h^2 bounds it on this grid
    g = sample_box(lambda x, y, z: -y ** 3, (65, 65, 65))
    coef = contact_oracle_box(g)
    y = g.axes()[1][None, :, None]
    h = g.spacings()[1]
    assert np.abs(coef - 3.0 * y ** 2).max() <= 2.0 * h * h + 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_oracle_equals_negated_derivative_on_the_interior(seed):
    # both code paths reduce to the same central stencil away from the
    # y edges, so agreement there is exact for arbitrary samples
    f = np.random.RandomState(seed).uniform(-2, 2, size=(7, 7, 7))
    g = SlopeGrid(BOX, (), f)
    coef = contact_oracle_box(g)
    dfdy = np.gradient(g.values, g.spacings()[1], axis=1, edge_order=1)
    assert np.array_equal(coef[:, 1:-1, :], -dfdy[:, 1:-1, :])


# -- cylinder checks ----------------------------------------------------------

def test_cylinder_pure_field():
    g = sample_cylinder(lambda r, t, z: -r ** 2, (17, 16, 17),
                        h_fn=lambda r, t, z: -1.0 + 0 * r)
    rep = check_cylinder(g)
    assert rep.is_confoliation and rep.is_contact
    assert rep.max_violation == 0.0


def test_cylinder_quartic_field_misses_axis_contact():
    g = sample_cylinder(lambda r, t, z: -r ** 4, (17, 16, 17),
                        h_fn=lambda r, t, z: -r ** 2)
    rep = check_cylinder(g)
    assert rep.is_confoliation
    assert rep.contact_mask[1:].all()
    assert not rep.contact_mask[0].any()  # h(0) = 0: open condition fails


def test_cylinder_rising_field_fails():
    g = sample_cylinder(lambda r, t, z: r ** 2, (17, 16, 17),
                        h_fn=lambda r, t, z: 1.0 + 0 * r)
    rep = check_cylinder(g)
    assert not rep.is_confoliation
    assert rep.max_violation == pytest.approx(2.0, abs=0.1)


def test_cylinder_reduction_consistency_is_checked():
    g = sample_cylinder(lambda r, t, z: -r ** 2, (17, 16, 17),
                        h_fn=lambda r, t, z: -2.0 + 0 * r)
    rep = check_cylinder(g)
    assert not rep.is_confoliation
    assert rep.max_violation == pytest.approx(1.0, abs=1e-12)


def test_cylinder_requires_h():
    g = sample_cylinder(lambda r, t, z: -r ** 2, (9, 8, 9))
    with pytest.raises(ChartError, match="reduced samples h"):
        check_cylinder(g)


# -- purify_box ---------------------------------------------------------------

def _staircase(x, y, z):
    return -1.0 - np.maximum(0.0, y - 0.5) ** 3


def test_purify_box_postconditions():
    g = sample_box(_staircase, (33, 33, 33))
    out = purify_box(g, 0.5, 0.75, 0.1)
    rep = check_box(out)
    assert rep.is_confoliation
    x, y, z = out.axes()
    window = ((np.abs(x)[:, None, None] < 0.9)
              & np.ones((1, y.size, 1), bool)
              & (np.abs(z)[None, None, :] < 1.0))
    assert rep.contact_mask[window].all()
    assert not np.array_equal(out.values, g.values)


def test_purify_box_strata_bit_identical():
    g = sample_box(_staircase, (33, 33, 33))
    out = purify_box(g, 0.5, 0.75, 0.1)
    x, y, z = g.axes()
    keep_x = np.abs(x) >= 0.9
    j1 = int(np.argmin(np.abs(y - 0.75)))
    assert np.array_equal(out.values[keep_x], g.values[keep_x])
    assert np.array_equal(out.values[:, j1:, :], g.values[:, j1:, :])
    assert np.array_equal(out.values[:, :, 0], g.values[:, :, 0])
    assert np.array_equal(out.values[:, :, -1], g.values[:, :, -1])


def test_purify_box_identity_is_admissible():
    # already contact: the blend rewrites nothing it should not
    g = sample_box(lambda x, y, z: -y, (33, 33, 33))
    rep = check_box(purify_box(g, 0.5, 0.75, 0.1))
    assert rep.is_confoliation
    assert rep.contact_mask[:, :, 1:-1].all()


def test_purify_box_guards():
    g = sample_box(_staircase, (33, 33, 33))
    with pytest.raises(ChartError, match="0 < y0 < y1 < 1"):
        purify_box(g, 0.75, 0.5, 0.1)
    with pytest.raises(ChartError, match="0 < delta < 1"):
        purify_box(g, 0.5, 0.75, 0.0)
    with pytest.raises(ChartError, match="sample grid"):
        purify_box(g, 0.5, 0.7501, 0.1)
    flat = sample_box(lambda x, y, z: 0.0 * x, (33, 33, 33))
    with pytest.raises(ChartError, match="not contact at cell"):
        purify_box(flat, 0.5, 0.75, 0.1)
    rising = sample_box(lambda x, y, z: y, (33, 33, 33))
    with pytest.raises(ChartError, match="not a confoliation"):
        purify_box(rising, 0.5, 0.75, 0.1)


# -- purify_cylinder ----------------------------------------------------------

def _band(r, t, z):
    # -r^2 inside r0 = 0.5, then its tangent line, frozen flat past 0.75
    outer = -(r - 0.25)
    return np.where(r <= 0.5, -r ** 2, np.maximum(outer, -0.5))


def _band_h(r, t, z):
    out = np.full_like(r, -1.0)
    mask = r > 0
    out[mask] = _band(r[mask], 0, 0) / r[mask] ** 2
    return out


def test_purify_cylinder_extends_contact_to_the_band():
    g = sample_cylinder(_band, (33, 16, 33), h_fn=_band_h)
    assert check_cylinder(g).is_confoliation
    assert not check_cylinder(g).is_contact
    out = purify_cylinder(g, 0.5, INNER_CONTACT)
    rep = check_cylinder(out)
    assert rep.is_confoliation
    assert rep.contact_mask[:, :, 1:-1].all()


def test_purify_cylinder_rims_bit_identical_and_edge_drift_small():
    g = sample_cylinder(_band, (33, 16, 33), h_fn=_band_h)
    out = purify_cylinder(g, 0.5, INNER_CONTACT)
    for arr, ref in ((out.values, g.values), (out.h, g.h)):
        assert np.array_equal(arr[:, :, 0], ref[:, :, 0])
        assert np.array_equal(arr[:, :, -1], ref[:, :, -1])
    # the strictifying margin is 100 tol scaled by max |f|
    assert np.abs(out.values - g.values).max() <= 2e-7


def test_purify_cylinder_outer_mode_rescues_the_axis():
    g = sample_cylinder(lambda r, t, z: -r ** 4, (33, 16, 33),
                        h_fn=lambda r, t, z: -r ** 2)
    assert not check_cylinder(g).contact_mask[0].any()
    out = purify_cylinder(g, 0.5, OUTER_CONTACT)
    rep = check_cylinder(out)
    assert rep.is_confoliation
    assert rep.contact_mask[:, :, 1:-1].all()


def test_purify_cylinder_guards():
    g = sample_cylinder(_band, (33, 16, 33), h_fn=_band_h)
    with pytest.raises(ChartError, match="mode"):
        purify_cylinder(g, 0.5, "sideways")
    with pytest.raises(ChartError, match="0 < r0 < R"):
        purify_cylinder(g, 1.5, INNER_CONTACT)
    rising = sample_cylinder(lambda r, t, z: r ** 2, (33, 16, 33),
                             h_fn=lambda r, t, z: 1.0 + 0 * r)
    with pytest.raises(ChartError, match="not a confoliation"):
        purify_cylinder(rising, 0.5, INNER_CONTACT)
    with pytest.raises(ChartError, match="not contact at cell"):
        purify_cylinder(g, 0.5, OUTER_CONTACT)  # band is flat outside


# -- extend_cell --------------------------------------------------------------

def test_extend_cell_postconditions():
    ann = sample_annulus(lambda t, z: -(1 - z ** 2), (16, 33))
    out = extend_cell(ann, 0.5, 1.0, 33)
    rep = check_cylinder(out)
    assert rep.is_confoliation
    r = out.axes()[0]
    i0 = int(np.argmin(np.abs(r - 0.5)))
    assert np.array_equal(
        out.values[i0:], np.broadcast_to(ann.values, (33 - i0, 16, 33)))
    assert rep.contact_mask[1:i0, :, 1:-1].all()
    assert rep.contact_mask[0, :, 1:-1].all()


def test_extend_cell_reduced_limit_near_the_axis():
    # the two smallest radial lines must carry h = f / r0^2 exactly
    ann = sample_annulus(lambda t, z: -(1 - z ** 2) * (2 + np.sin(t)),
                         (16, 33))
    out = extend_cell(ann, 0.5, 1.0, 33)
    want = ann.values / 0.25
    assert np.array_equal(out.h[0], want)
    assert np.array_equal(out.h[1], want)
    i0 = int(np.argmin(np.abs(out.axes()[0] - 0.5)))
    assert check_cylinder(out).contact_mask[:i0, :, 1:-1].all()


def test_extend_cell_guards():
    flatish = sample_annulus(lambda t, z: 0.0 * t, (8, 9))
    with pytest.raises(ChartError, match="strictly negative"):
        extend_cell(flatish, 0.5, 1.0, 9)
    lifted = sample_annulus(lambda t, z: -(1 - z ** 2) - 0.1, (8, 9))
    with pytest.raises(ChartError, match="vanish"):
        extend_cell(lifted, 0.5, 1.0, 9)
    ok = sample_annulus(lambda t, z: -(1 - z ** 2), (8, 9))
    with pytest.raises(ChartError, match="0 < r0 < R"):
        extend_cell(ok, 2.0, 1.0, 9)
    with pytest.raises(ChartError, match="3 radial"):
        extend_cell(ok, 0.5, 1.0, 2)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tol_must_be_finite_and_nonnegative(tol):
    # a nan tol made every "exceeds tol" comparison false: extend_cell
    # skipped its boundary precondition and check_box read a violation
    # of 0 as no confoliation
    box = sample_box(lambda x, y, z: -1.0 - y, (5, 5, 5))
    cyl = sample_cylinder(lambda r, t, z: -r * r + 0 * z, (5, 4, 5),
                          h_fn=lambda r, t, z: -1.0 + 0 * z)
    lifted = sample_annulus(
        lambda t, z: np.where(np.abs(z) == 1.0, 0.3, -1.0 + 0 * t), (8, 9))
    for call in (lambda: check_box(box, tol),
                 lambda: check_cylinder(cyl, tol),
                 lambda: extend_cell(lifted, 0.5, 1.0, 9, tol)):
        with pytest.raises(ChartError, match="tol must be finite and >= 0"):
            call()


# -- holonomy -----------------------------------------------------------------

def test_holonomy_constant_field_is_exact():
    ann = sample_annulus(lambda t, z: -0.05 + 0 * t, (16, 65))
    z1 = holonomy_map(ann, 0.0, 1e-3)
    assert abs(z1 - (-0.1 * math.pi)) <= 1e-12


def test_holonomy_matches_separable_closed_form():
    ann = sample_annulus(lambda t, z: -0.1 * (1 - z ** 2), (64, 2049))
    z1 = holonomy_map(ann, 0.5, 1e-3)
    assert abs(z1 - math.tanh(math.atanh(0.5) - 0.2 * math.pi)) <= 1e-6
    assert z1 < 0.5


@pytest.mark.parametrize("c, z0, step, z1", [
    (0.1, 0.5, 1e-3, "-0x1.42f665a0c6b71p-4"),
    (0.5, -0.5, 1e-3, "-0x1.ff5ce9235abcdp-1"),
    (0.1, -0.9, 0.05, "-0x1.f0e32c1f63af6p-1"),
    (0.5, 0.5, 1.0, "-0x1.fa1a358daf670p-1"),
    (0.5, 0.0, 3.0, "-0x1.0000000000000p+0"),  # clamps at z = -1
])
def test_holonomy_is_bit_pinned_on_the_acceptance_annulus(c, z0, step, z1):
    ann = sample_annulus(lambda t, z: -c * (1.0 - z * z), (64, 2049))
    assert holonomy_map(ann, z0, step).hex() == z1


@pytest.mark.parametrize("step", [1e-3, 0.05, 1.0])
def test_holonomy_nests_slope_alone_called_four_times_a_step(step):
    # bench/tracing.py counts RK4 steps as the calls of the code objects
    # nested in holonomy_map over 4, replayed under sys.settrace as here:
    # a comprehension or lambda nested there would be counted too
    inner = {c for c in holonomy_map.__code__.co_consts
             if isinstance(c, types.CodeType)}
    assert {c.co_name for c in inner} == {"slope"}
    ann = sample_annulus(lambda t, z: -0.1 * (1.0 - z * z), (64, 2049))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if frame.f_code in inner:
            calls += 1

    sys.settrace(count)
    try:
        holonomy_map(ann, 0.5, step)
    finally:
        sys.settrace(None)
    assert calls == 4 * math.ceil(2.0 * math.pi / step)


@pytest.mark.parametrize("z0, step", [(0.5, 1e-2), (0.0, 3.0)],
                         ids=["inside", "clamped"])
def test_holonomy_returns_a_python_float(z0, step):
    ann = sample_annulus(lambda t, z: -0.5 * (1.0 - z * z), (64, 2049))
    assert type(holonomy_map(ann, z0, step)) is float


def test_holonomy_flat_annulus_has_none():
    ann = sample_annulus(lambda t, z: 0.0 * t, (16, 17))
    assert holonomy_map(ann, 0.3, 1e-3) == 0.3


def test_holonomy_guards():
    ann = sample_annulus(lambda t, z: -(1 - z ** 2), (16, 17))
    for step in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ChartError, match="positive and finite"):
            holonomy_map(ann, 0.0, step)
    # past 10**7 steps, and 2pi / 5e-324 overflows to inf
    for step in (2 * math.pi / (10 ** 7 + 1), 1e-300, 5e-324):
        with pytest.raises(ChartError, match="more than 10000000 RK4"):
            holonomy_map(ann, 0.0, step)
    with pytest.raises(ChartError, match="z0"):
        holonomy_map(ann, 1.0, 1e-2)
    with pytest.raises(ChartError, match="nonpositive"):
        holonomy_map(sample_annulus(lambda t, z: 0.1 + 0 * t, (8, 9)),
                     0.0, 1e-2)
    with pytest.raises(ChartError, match="annulus"):
        holonomy_map(sample_box(lambda x, y, z: 0 * x, (5, 5, 5)), 0.0, 1e-2)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_holonomy_annulus_must_be_finite(bad):
    # both passed the nonpositive guard and died in int() on the leaf
    with pytest.raises(ChartError, match="f samples must be finite"):
        holonomy_map(sample_annulus(lambda t, z: bad + 0 * t, (8, 9)),
                     0.0, 0.1)


def _per_step_holonomy(annulus, z0, step):
    """holonomy_map's integrator evaluated stage by stage, theta side
    included: the reference the tabulated theta cells must match bit
    for bit."""
    nth, nz = annulus.shape
    f = annulus.values.tolist()
    dth = 2.0 * math.pi / nth
    dz = 2.0 / (nz - 1)

    def slope(theta, zz):
        a = (theta % (2.0 * math.pi)) / dth
        i = int(a)
        fa = a - i
        i %= nth
        i2 = (i + 1) % nth
        b = (zz + 1.0) / dz
        if b <= 0.0:
            j, fb = 0, 0.0
        elif b >= nz - 1:
            j, fb = nz - 2, 1.0
        else:
            j = int(b)
            fb = b - j
        top = (1.0 - fb) * f[i][j] + fb * f[i][j + 1]
        bot = (1.0 - fb) * f[i2][j] + fb * f[i2][j + 1]
        return (1.0 - fa) * top + fa * bot

    n = math.ceil(2.0 * math.pi / step)
    h = 2.0 * math.pi / n
    zcur = float(z0)
    for k in range(n):
        th = k * h
        k1 = slope(th, zcur)
        k2 = slope(th + h / 2.0, zcur + h / 2.0 * k1)
        k3 = slope(th + h / 2.0, zcur + h / 2.0 * k2)
        k4 = slope(th + h, zcur + h * k3)
        zcur += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if zcur < -1.0:
            zcur = -1.0
        elif zcur > 1.0:
            zcur = 1.0
    return zcur


@st.composite
def _nonpositive_annuli(draw):
    """A nonpositive annulus of uniform samples in [-scale, 0], with
    scale up to 20 so that some leaves clamp at -1 within one turn."""
    shape = (draw(st.integers(2, 12)), draw(st.integers(2, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return SlopeGrid(ANNULUS, (),
                     -draw(st.floats(0.1, 20.0)) * rng.random(shape))


# the z0 where 1 + z0 rounds to 2, so the leaf starts on the top clamp
_TOP = math.nextafter(1.0, 0.0)


# step counts n, with step 2pi / n: one step (its last stage at theta =
# 2pi exactly, wrapping to 0); 21 and 6, whose last stage lands just past
# and just short of 2pi; one below, at and above one 4096-step block; and
# three blocks and a bit
@pytest.mark.parametrize("n", [1, 21, 6, 4095, 4096, 4097, 12290])
@given(_nonpositive_annuli(),
       st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                 st.sampled_from([_TOP, -_TOP, 0.0])))
@settings(max_examples=12, deadline=None)
def test_holonomy_matches_the_per_step_integrator(n, annulus, z0):
    step = 2.0 * math.pi / n
    assert math.ceil(2.0 * math.pi / step) == n
    assert (holonomy_map(annulus, z0, step).hex()
            == _per_step_holonomy(annulus, z0, step).hex())


def test_reference_cases_reach_their_corners():
    # the wrap and clamp cases the parametrized steps and z0 claim
    two_pi = 2.0 * math.pi
    ends = [(n - 1) * (two_pi / n) + two_pi / n for n in (1, 21, 6)]
    assert ends[0] == two_pi and ends[1] > two_pi and ends[2] < two_pi
    # with 6 theta rows, that last theta of n = 6, just short of 2pi,
    # divides up to row index 6 itself, which must wrap to row 0
    assert ends[2] / (two_pi / 6) == 6.0
    rows = SlopeGrid(ANNULUS, (), -np.arange(12.0).reshape(6, 2) / 12.0)
    assert (holonomy_map(rows, 0.0, two_pi / 6).hex()
            == _per_step_holonomy(rows, 0.0, two_pi / 6).hex())
    assert (_TOP + 1.0) / (2.0 / 8) >= 8  # b on the top clamp, nz = 9
    steep = sample_annulus(lambda t, z: -20.0 + 0 * t, (8, 9))
    assert holonomy_map(steep, 0.0, two_pi / 21) == -1.0


@given(st.floats(0.05, 0.8), st.floats(0.0, 1.0), st.floats(-0.8, 0.8),
       st.floats(0.0, 0.5))
@settings(max_examples=25, deadline=None)
def test_holonomy_comparison_principle(amp, shrink, z0, sway):
    # f <= g <= 0 pointwise must give z1(f) <= z1(g)
    def field(t, z, s=1.0):
        return -s * amp * (1 - z ** 2) * (1 + sway * np.sin(t))

    lower = sample_annulus(field, (16, 65))
    upper = sample_annulus(lambda t, z: field(t, z, 1.0 - shrink), (16, 65))
    assert (holonomy_map(lower, z0, 2e-2)
            <= holonomy_map(upper, z0, 2e-2) + 1e-12)


def test_holonomy_displacement_sign_tracks_the_field():
    neg = sample_annulus(lambda t, z: -0.2 * (1 - z ** 2), (16, 65))
    assert holonomy_map(neg, 0.25, 1e-2) < 0.25
    zero = sample_annulus(lambda t, z: 0.0 * t, (16, 65))
    assert holonomy_map(zero, 0.25, 1e-2) == 0.25


# -- text form ----------------------------------------------------------------

def test_grid_round_trips_all_kinds():
    box = sample_box(lambda x, y, z: x * y - z, (5, 4, 3))
    cyl = sample_cylinder(lambda r, t, z: -r ** 2 * (1 + 0.1 * np.sin(t)),
                          (5, 4, 3), radius=2.0,
                          h_fn=lambda r, t, z: -(1 + 0.1 * np.sin(t)))
    ann = sample_annulus(lambda t, z: -(1 - z * z), (4, 5))
    for g in (box, cyl, ann):
        back = parse_grid(print_grid(g))
        assert back.kind == g.kind
        assert back.bounds == g.bounds
        assert np.array_equal(back.values, g.values)
        if g.h is None:
            assert back.h is None
        else:
            assert np.array_equal(back.h, g.h)


# -0.0, subnormals, a huge value, integral values and inexact fractions
_EDGE = np.array([-0.0, 5e-324, 1e300, 3.0, -7.0, 0.1, -1.0 / 3.0, 2.5e-8,
                  -1e-310, 0.0, 65536.0])


@pytest.mark.parametrize("grid, digest", [
    (SlopeGrid(BOX, (), np.resize(_EDGE, (3, 3, 3))),
     "dc3d8b80449f8a01c223d151fd74663eac8ae4c0bc2860dfdae5deb662fb32de"),
    (SlopeGrid(CYLINDER, (2.0,), np.resize(_EDGE, (3, 4, 3)),
               np.resize(_EDGE[::-1], (3, 4, 3))),
     "84ead2c8278e49388056676260f5095a05b9613c69ad2e7a546fd444e846e923"),
    (SlopeGrid(ANNULUS, (), np.resize(_EDGE, (4, 3))),
     "fd3c568a179cf5777de6350b31c39e41d93bd4117362e78f286e808ac16ed1de"),
], ids=[BOX, CYLINDER, ANNULUS])
def test_grid_text_is_pinned_and_reads_back_bit_exact(grid, digest):
    text = print_grid(grid)
    assert sha256(text.encode()).hexdigest() == digest
    back = parse_grid(text)
    assert back.values.tobytes() == grid.values.tobytes()
    if grid.h is not None:
        assert back.h.tobytes() == grid.h.tobytes()


def test_grid_header_is_fixed_form():
    g = sample_box(lambda x, y, z: 0 * x, (3, 3, 5))
    head = print_grid(g).splitlines()[:4]
    assert head == [
        "bsgate-grid box 0",
        "bounds -1 1 -1 1 -1 1",
        "shape 3 3 5",
        "spacing 1 1 0.5",
    ]
    cyl = sample_cylinder(lambda r, t, z: 0 * r, (3, 4, 5), radius=2.0,
                          h_fn=lambda r, t, z: 0 * r)
    assert print_grid(cyl).splitlines()[:4] == [
        "bsgate-grid cylinder 1",
        "bounds 0 2 0 6.2831853071795862 -1 1",
        "shape 3 4 5",
        "spacing 1 1.5707963267948966 0.5",
    ]
    ann = sample_annulus(lambda t, z: 0 * t, (4, 5))
    assert print_grid(ann).splitlines()[:4] == [
        "bsgate-grid annulus 0",
        "bounds 0 6.2831853071795862 -1 1",
        "shape 4 5",
        "spacing 1.5707963267948966 0.5",
    ]


@pytest.mark.parametrize("grid, bounds", [
    (sample_box(lambda x, y, z: 0 * x, (3, 3, 3)), "0 7 0 7 0 7"),
    (sample_box(lambda x, y, z: 0 * x, (3, 3, 3)), "1"),
    (sample_annulus(lambda t, z: 0 * t, (4, 3)), "0 1 -1 1"),
    (sample_cylinder(lambda r, t, z: 0 * r, (3, 4, 3), radius=1.0),
     "5 1 9 9 9 9"),
], ids=["box-shifted", "box-one-number", "annulus-short-theta",
        "cylinder-wrong-ends"])
def test_grid_bounds_line_must_match_the_kind(grid, bounds):
    head, rest = print_grid(grid).split("\n", 1)
    text = head + "\nbounds " + bounds + "\n" + rest.split("\n", 1)[1]
    with pytest.raises(ChartError, match="bounds"):
        parse_grid(text)


def test_grid_parse_errors():
    g = sample_box(lambda x, y, z: 0 * x, (3, 3, 3))
    text = print_grid(g)
    with pytest.raises(ChartError, match="4-line header"):
        parse_grid("just one line")
    with pytest.raises(ChartError, match="not a grid file"):
        parse_grid(text.replace("bsgate-grid", "other-magic"))
    with pytest.raises(ChartError, match="h flag"):
        parse_grid(text.replace("box 0", "box 2"))
    with pytest.raises(ChartError, match="sample lines"):
        parse_grid(text + "0\n")
    with pytest.raises(ChartError, match="bad sample value"):
        parse_grid(text[:-2] + "x\n")
    with pytest.raises(ChartError, match="spacing line disagrees"):
        parse_grid(text.replace("spacing 1 1 1", "spacing 1 1 2"))
    with pytest.raises(ChartError, match="grid text is not UTF-8"):
        parse_grid(text.encode()[:-2] + b"\xff\n")


def _one_break(sep: str, at: int) -> Callable[[str], str]:
    """The text with its line break number ``at`` (from 0) made ``sep``."""
    def swap(text: str) -> str:
        lines = text.split("\n")
        return "\n".join(lines[:at + 1]) + sep + "\n".join(lines[at + 1:])
    return swap


# every way of ending lines that str.splitlines reads like "\n"
_ENDINGS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "vt-header": _one_break("\x0b", 1),
    "vt-body": _one_break("\x0b", 9),
    "ls-header": _one_break("\u2028", 2),
    "ls-body": _one_break("\u2028", 17),
    "no-final-newline": lambda text: text[:-1],
}


@pytest.mark.parametrize("ending", _ENDINGS)
@pytest.mark.parametrize("grid", [
    sample_box(lambda x, y, z: x * y - z * z, (3, 4, 5)),
    sample_cylinder(lambda r, t, z: -r ** 2 * (1 + 0.1 * np.sin(t)) * z,
                    (3, 4, 5), radius=2.0,
                    h_fn=lambda r, t, z: -(1 + 0.1 * np.sin(t)) * z),
], ids=[BOX, CYLINDER])
def test_grid_line_endings_read_like_lf(grid, ending):
    change = _ENDINGS[ending]
    text = print_grid(grid)
    back = parse_grid(change(text))
    assert back.values.tobytes() == grid.values.tobytes()
    if grid.h is not None:
        assert back.h.tobytes() == grid.h.tobytes()
    # full-width digits are text that float() reads, several bytes a
    # character in UTF-8: a line holding them must not shift the others
    lines = text.split("\n")
    wide = str.maketrans("0123456789", "".join(map(chr, range(0xFF10,
                                                              0xFF1A))))
    lines[5] = lines[5].translate(wide)
    assert not lines[5].isascii()
    back = parse_grid(change("\n".join(lines)))
    assert back.values.tobytes() == grid.values.tobytes()
    for at, bad, message in [
            (12, "x1", "could not convert string to float: 'x1'"),
            (14, "nan", "'nan' on line 15 is not finite")]:
        lines = text.split("\n")
        lines[at] = bad
        with pytest.raises(ChartError) as err:
            parse_grid(change("\n".join(lines)))
        assert str(err.value) == "bad sample value: " + message


# zeros of both signs, subnormals and a huge value: an axis along which
# only these differ is not constant, and -0.0 must not merge into 0.0
_TWINS = (0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e300)


@st.composite
def _invariant_samples(draw, shape):
    """Samples constant along a random subset of axes, then maybe one
    sample swapped for a twin value, which breaks that constancy."""
    const = draw(st.sets(st.sampled_from(range(len(shape)))))
    core = tuple(1 if k in const else n for k, n in enumerate(shape))
    pool = st.one_of(st.sampled_from(_TWINS), st.floats(allow_nan=False,
                                                        allow_infinity=False))
    vals = draw(st.lists(pool, min_size=math.prod(core),
                         max_size=math.prod(core)))
    out = np.broadcast_to(np.reshape(vals, core), shape).copy()
    if draw(st.booleans()):
        at = tuple(draw(st.integers(0, n - 1)) for n in shape)
        out[at] = draw(st.sampled_from(_TWINS))
    return out


@st.composite
def _invariant_grids(draw):
    kind = draw(st.sampled_from([BOX, CYLINDER, ANNULUS]))
    shape = tuple(draw(st.integers(2, 6))
                  for _ in range(2 if kind == ANNULUS else 3))
    if kind == CYLINDER:
        return SlopeGrid(kind, (2.0,), draw(_invariant_samples(shape)),
                         draw(_invariant_samples(shape)))
    return SlopeGrid(kind, (), draw(_invariant_samples(shape)))


@given(_invariant_grids())
@settings(max_examples=200, deadline=None)
def test_grid_io_equals_the_one_pass_conversion(grid):
    # print_grid and parse_grid convert each distinct slice once; the
    # bytes must be those of converting every sample in one pass
    samples = grid.values.ravel().tolist()
    if grid.h is not None:
        samples += grid.h.ravel().tolist()
    text = print_grid(grid)
    body = text.split("\n", 4)[4]
    assert body == ("%.17g\n" * len(samples)) % tuple(samples)
    back = parse_grid(text)
    got = back.values.tobytes() + (b"" if back.h is None
                                   else back.h.tobytes())
    assert got == np.array(body.splitlines(), dtype=float).tobytes()


@st.composite
def _fibred_grids(draw):
    """Grids whose z-fibres (runs of shape[-1] sample lines) repeat at
    arbitrary places: a plateau of equal fibres along the axis before z,
    fibres copied anywhere (f into h too), and constant fibres.  Some
    copies differ from their source by a twin value only (0.0 against
    -0.0, say): equal as floats, but not as text."""
    kind = draw(st.sampled_from([BOX, CYLINDER, ANNULUS]))
    shape = tuple(draw(st.integers(2, 5))
                  for _ in range(2 if kind == ANNULUS else 3))
    nz = shape[-1]
    nfib = math.prod(shape[:-1]) * (2 if kind == CYLINDER else 1)
    pool = st.one_of(st.sampled_from(_TWINS), st.floats(allow_nan=False,
                                                        allow_infinity=False))
    fibres = np.array(draw(st.lists(pool, min_size=nfib * nz,
                                    max_size=nfib * nz))).reshape(nfib, nz)
    run = shape[-2]  # fibres along the axis before z
    j0 = draw(st.integers(0, run - 1))
    j1 = draw(st.integers(j0, run - 1))
    for start in range(0, nfib, run):
        fibres[start + j0:start + j1 + 1] = fibres[start + j0]
    index = st.integers(0, nfib - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), min_size=1,
                                  max_size=4)):
        fibres[dst] = fibres[src]
        if draw(st.booleans()):
            at = draw(st.integers(0, nz - 1))
            fibres[src, at] = draw(st.sampled_from(_TWINS))
            fibres[dst, at] = draw(st.sampled_from(_TWINS))
    for at in draw(st.lists(index, max_size=3)):
        fibres[at] = draw(pool)
    f, *h = fibres.reshape(-1, *shape)
    return SlopeGrid(kind, (2.0,) if kind == CYLINDER else (), f,
                     h[0] if h else None)


def _read_each_line(lines: list[str]) -> np.ndarray:
    """The reference: every sample line converted with float() in file
    order, or parse_grid's report of the first bad one."""
    values = []
    for s in lines:
        try:
            values.append(float(s))
        except ValueError as exc:
            raise ChartError(f"bad sample value: {exc}") from None
    for at, v in enumerate(values):
        if not math.isfinite(v):
            raise ChartError(f"bad sample value: {lines[at].strip()!r} on "
                             f"line {at + 5} is not finite")
    return np.array(values)


@given(_fibred_grids())
@settings(max_examples=200, deadline=None)
def test_grid_with_repeated_fibres_equals_the_one_pass_conversion(grid):
    samples = grid.values.ravel().tolist()
    if grid.h is not None:
        samples += grid.h.ravel().tolist()
    text = print_grid(grid)
    assert text.split("\n", 4)[4] == ("%.17g\n" * len(samples)) % tuple(
        samples)
    back = parse_grid(text)
    got = back.values.tobytes() + (b"" if back.h is None
                                   else back.h.tobytes())
    assert got == _read_each_line(text.split("\n")[4:-1]).tobytes()


@given(_fibred_grids(), st.data())
@settings(max_examples=200, deadline=None)
def test_grid_bad_sample_in_a_repeated_fibre(grid, data):
    # bad text planted at one place of some copies of a fibre that the
    # text repeats; the report names the first bad line in file order
    lines = print_grid(grid).split("\n")
    nz = grid.shape[-1]
    copies: dict[tuple, list[int]] = {}
    for start in range(4, len(lines) - 1, nz):
        copies.setdefault(tuple(lines[start:start + nz]), []).append(start)
    repeated = [s for s in copies.values() if len(s) > 1] or list(
        copies.values())
    starts = data.draw(st.sampled_from(repeated))
    at = data.draw(st.integers(0, nz - 1))
    for start in data.draw(st.lists(st.sampled_from(starts), min_size=1,
                                    unique=True)):
        lines[start + at] = data.draw(st.sampled_from(["x1", "nan",
                                                       " -inf "]))
    with pytest.raises(ChartError) as want:
        _read_each_line(lines[4:-1])
    with pytest.raises(ChartError) as got:
        parse_grid("\n".join(lines))
    assert str(got.value) == str(want.value)


@given(_fibred_grids(), st.sampled_from(["lf", *_ENDINGS]), st.data())
@settings(max_examples=200, deadline=None)
def test_grid_bytes_parse_like_their_text(grid, ending, data):
    # the same bits or the same refusal from the text and from its UTF-8
    # bytes, bad samples planted (one not ASCII: the message must quote
    # the decoded line, not bytes) and lines ended every splitlines way
    lines = print_grid(grid).split("\n")
    for at in data.draw(st.lists(st.integers(4, len(lines) - 2),
                                 max_size=3)):
        lines[at] = data.draw(st.sampled_from(["x1", "nan", " -inf ",
                                               "\uff11.5", "x\uff11"]))
    text = "\n".join(lines)
    if ending != "lf":
        text = _ENDINGS[ending](text)
    outcomes = []
    for given_text in (text, text.encode()):
        try:
            back = parse_grid(given_text)
        except ChartError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(back.values.tobytes() + (
                b"" if back.h is None else back.h.tobytes()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("grid", [
    sample_cylinder(lambda r, t, z: -r ** 2 * (1 + np.sin(t)) * (1 - z * z),
                    (65, 64, 65), h_fn=lambda r, t, z: -1.0 - r + 0 * t * z),
    sample_box(lambda x, y, z: 0.1 * x * z - np.maximum(0.0, y - 0.5) ** 3,
               (65, 65, 65)),
], ids=[CYLINDER, BOX])
def test_grid_parse_peak_memory_is_bounded_by_the_text(grid):
    # the sample lines are cut into z-fibres of the encoded text, not
    # into one str per line, and CRLF text is not rewritten; a cylinder
    # whose h is constant in theta and z, and a box with a y-plateau
    for ending in ("\n", "\r\n"):
        text = print_grid(grid).replace("\n", ending)
        back, peak = traced_peak(lambda: parse_grid(text))
        assert back.values.tobytes() == grid.values.tobytes()
        assert peak <= 3 * len(text)


@pytest.mark.parametrize("which", ["f", "h"])
@pytest.mark.parametrize("first, later, message", [
    ("nan", "inf", "'nan' on line {} is not finite"),
    ("x1", "x2", "could not convert string to float: 'x1'"),
], ids=["non-finite", "unparsable"])
def test_grid_bad_sample_repeated_along_constant_axes(which, first, later,
                                                      message):
    # f and h vary in r only, so their cores are one line per radius;
    # the bad radii repeat over theta and z, and the report names the
    # first bad line in file order
    shape = (4, 3, 5)
    grid = sample_cylinder(lambda r, t, z: -r ** 2 + 0 * t * z, shape,
                           radius=2.0, h_fn=lambda r, t, z: -1 + 0 * r * t * z)
    lines = print_grid(grid).splitlines()
    offset = 4 + (0 if which == "f" else math.prod(shape))
    per_r = shape[1] * shape[2]
    for i in range(per_r):
        lines[offset + per_r + i] = first
        lines[offset + 2 * per_r + i] = later
    with pytest.raises(ChartError) as err:
        parse_grid("\n".join(lines) + "\n")
    assert str(err.value) == "bad sample value: " + message.format(
        offset + per_r + 1)
