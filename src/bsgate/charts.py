"""Grid-sampled slope functions and their contact-geometry sign checks.

Charts come in three kinds.  A box chart samples f(x, y, z) on
[-1, 1]^3; the plane field is the kernel of dz + f dx, so confoliation
and contact are sign conditions on df/dy.  A cylinder chart samples
f(r, theta, z) on [0, R] x [0, 2pi) x [-1, 1] together with the reduced
function h (f = r^2 h), stored explicitly so the axis never divides
0/0; here the signs of df/dr and of h on the axis decide.  An annulus
chart samples f(theta, z) and feeds the leaf integrator.

Theta is sampled half-open, so periodicity is structural: the theta=2pi
column is never stored.  All operations are pure; grids are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ChartError

BOX = "box"
CYLINDER = "cylinder"
ANNULUS = "annulus"

INNER_CONTACT = "inner"
OUTER_CONTACT = "outer"

TWO_PI = 2.0 * math.pi
DEFAULT_TOL = 1e-9
# most RK4 steps holonomy_map takes, ceil(2pi / step): about 50 s of
# pure-Python integration on a 2-vCPU x86-64 VM
_MAX_RK4_STEPS = 10 ** 7
# RK4 steps whose theta side _theta_runs tabulates at once: six lists of
# weights, under 1 MB whatever the step count
_HOLONOMY_BLOCK = 4096

# fraction of the blend slope carried by the linear term; keeps the
# purified profile strictly decreasing where the smooth term flattens
_MU = 0.1

# per kind, (low end, high end, periodic) of each axis in index order; a
# high end of None is the cylinder's radius R, the one bound a grid carries
_AXES = {
    BOX: ((-1.0, 1.0, False),) * 3,
    CYLINDER: ((0.0, None, False), (0.0, TWO_PI, True), (-1.0, 1.0, False)),
    ANNULUS: ((0.0, TWO_PI, True), (-1.0, 1.0, False)),
}


def _ends(kind: str, bounds: tuple[float, ...]) -> list[float]:
    """Low and high end of every axis in turn, as the bounds line reads."""
    return [v for lo, hi, _ in _AXES[kind]
            for v in (lo, bounds[0] if hi is None else hi)]


def _check_bounds(kind: str, bounds: tuple[float, ...]) -> None:
    """A cylinder carries one finite positive radius R; other kinds none."""
    if kind == CYLINDER:
        if len(bounds) != 1 or not 0 < bounds[0] < math.inf:
            raise ChartError("cylinder grid needs a positive radial "
                             "bound (R,)")
    elif bounds != ():
        raise ChartError(f"{kind} grid takes no bounds")


def _axes(kind: str, bounds: tuple[float, ...], shape: tuple[int, ...],
          ) -> list[tuple[np.ndarray, float]]:
    """(sample coordinates, spacing) along each axis; a periodic axis is
    sampled half-open, so its high end is never stored."""
    ends = _ends(kind, bounds)
    return [np.linspace(lo, hi, n, endpoint=not periodic, retstep=True)
            for lo, hi, (_, _, periodic), n
            in zip(ends[::2], ends[1::2], _AXES[kind], shape)]


@dataclass(frozen=True)
class SlopeGrid:
    """One chart's worth of slope-function samples.

    bounds is () for box and annulus charts (their domains are fixed)
    and (R,) for a cylinder of radius R.  values is indexed in axis
    order: (x, y, z), (r, theta, z), or (theta, z).
    """

    kind: str
    bounds: tuple[float, ...]
    values: np.ndarray
    h: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in _AXES:
            raise ChartError(f"unknown chart kind: {self.kind!r}")
        vals = np.array(self.values, dtype=float)
        want = len(_AXES[self.kind])
        if vals.ndim != want:
            raise ChartError(
                f"{self.kind} grid needs a {want}-dimensional sample array, "
                f"got {vals.ndim} dimensions")
        if min(vals.shape) < 2:
            raise ChartError("each axis needs at least 2 samples")
        _check_bounds(self.kind, self.bounds)
        if not np.isfinite(vals).all():
            raise ChartError("f samples must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.h is not None:
            if self.kind != CYLINDER:
                raise ChartError("only cylinder grids carry h")
            hv = np.array(self.h, dtype=float)
            if hv.shape != vals.shape:
                raise ChartError("h samples must match f in shape")
            if not np.isfinite(hv).all():
                raise ChartError("h samples must be finite")
            hv.setflags(write=False)
            object.__setattr__(self, "h", hv)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def axes(self) -> tuple[np.ndarray, ...]:
        """Sample coordinates along each axis, in index order."""
        return tuple(c for c, _ in _axes(self.kind, self.bounds, self.shape))

    def spacings(self) -> tuple[float, ...]:
        return tuple(float(d) for _, d in
                     _axes(self.kind, self.bounds, self.shape))


def _sample(kind: str, fn: Callable, shape: tuple[int, ...],
            bounds: tuple[float, ...] = (),
            h_fn: Optional[Callable] = None) -> SlopeGrid:
    _check_bounds(kind, bounds)  # before a bad radius meets the arithmetic
    mesh = np.meshgrid(*(c for c, _ in _axes(kind, bounds, shape)),
                       indexing="ij")

    def at(g: Callable) -> np.ndarray:  # SlopeGrid copies what it keeps
        return np.broadcast_to(np.asarray(g(*mesh), float), mesh[0].shape)

    return SlopeGrid(kind, bounds, at(fn), None if h_fn is None else at(h_fn))


def sample_box(fn: Callable, shape: tuple[int, int, int] = (65, 65, 65),
               ) -> SlopeGrid:
    return _sample(BOX, fn, shape)


def sample_cylinder(fn: Callable, shape: tuple[int, int, int] = (65, 64, 65),
                    radius: float = 1.0,
                    h_fn: Optional[Callable] = None) -> SlopeGrid:
    return _sample(CYLINDER, fn, shape, (radius,), h_fn)


def sample_annulus(fn: Callable, shape: tuple[int, int] = (64, 65),
                   ) -> SlopeGrid:
    return _sample(ANNULUS, fn, shape)


@dataclass(frozen=True)
class ChartReport:
    """Outcome of a per-cell sign check.

    max_violation is the largest positive excess over the confoliation
    condition (0.0 when the condition holds everywhere), so
    is_confoliation implies max_violation <= tol.
    """

    is_confoliation: bool
    contact_mask: np.ndarray
    max_violation: float
    tol: float

    @property
    def is_contact(self) -> bool:
        return bool(self.contact_mask.all())


def _expect(grid: SlopeGrid, kind: str, what: str) -> None:
    if grid.kind != kind:
        raise ChartError(f"{what} needs a {kind} grid, got {grid.kind}")


def _check_tol(tol: float) -> None:
    # a nan tol would make every "exceeds tol" comparison false
    if not 0.0 <= tol < math.inf:
        raise ChartError(f"tol must be finite and >= 0, got {tol!r}")


def check_box(grid: SlopeGrid, tol: float = DEFAULT_TOL) -> ChartReport:
    """Confoliation/contact sign check for dz + f dx on a box.

    Confoliation holds when the finite-difference df/dy never exceeds
    tol; the contact mask marks cells where it is below -tol.
    """
    _expect(grid, BOX, "check_box")
    _check_tol(tol)
    if grid.shape[1] < 3:
        raise ChartError("check_box needs at least 3 samples along y")
    dy = grid.spacings()[1]
    dfdy = np.gradient(grid.values, dy, axis=1, edge_order=1)
    max_violation = max(float(dfdy.max()), 0.0)
    return ChartReport(is_confoliation=bool(max_violation <= tol),
                       contact_mask=dfdy < -tol,
                       max_violation=max_violation, tol=tol)


def contact_oracle_box(grid: SlopeGrid) -> np.ndarray:
    """Volume-form coefficient of w ^ dw for w = dz + f dx, per cell.

    Assembles the full triple product for a general 1-form
    a dx + b dy + c dz from finite differences of every component, with
    a = f, b = 0, c = 1, instead of reading off -df/dy directly.  The
    cancellations are left to the arithmetic, so this is an independent
    code path against check_box: analytically the coefficient equals
    -df/dy, and a positive coefficient means positive contact.
    """
    _expect(grid, BOX, "contact_oracle_box")
    if min(grid.shape) < 3:
        raise ChartError("contact_oracle_box needs at least 3 samples "
                         "per axis")
    dx, dy, dz = grid.spacings()
    a = grid.values
    b = np.zeros_like(a)
    c = np.ones_like(a)
    ay = np.gradient(a, dy, axis=1, edge_order=2)
    az = np.gradient(a, dz, axis=2, edge_order=2)
    bx = np.gradient(b, dx, axis=0, edge_order=2)
    bz = np.gradient(b, dz, axis=2, edge_order=2)
    cx = np.gradient(c, dx, axis=0, edge_order=2)
    cy = np.gradient(c, dy, axis=1, edge_order=2)
    return a * (cy - bz) - b * (cx - az) + c * (bx - ay)


def check_cylinder(grid: SlopeGrid, tol: float = DEFAULT_TOL) -> ChartReport:
    """Cylinder-chart check: f = r^2 h, df/dr signs, and the axis.

    Confoliation needs |f - r^2 h| <= tol everywhere and df/dr <= tol
    off the axis.  The contact mask uses df/dr < -tol off the axis and
    h < -tol on it (the slope degenerates at r = 0, h carries the sign
    there).
    """
    _expect(grid, CYLINDER, "check_cylinder")
    _check_tol(tol)
    if grid.h is None:
        raise ChartError("check_cylinder needs the reduced samples h")
    if grid.shape[0] < 3:
        raise ChartError("check_cylinder needs at least 3 samples along r")
    r = grid.axes()[0][:, None, None]
    dr = grid.spacings()[0]
    residual = float(np.abs(grid.values - r * r * grid.h).max())
    dfdr = np.gradient(grid.values, dr, axis=0, edge_order=1)
    off_axis_excess = float(dfdr[1:].max())
    max_violation = max(0.0, residual, off_axis_excess)
    contact = np.empty(grid.shape, dtype=bool)
    contact[1:] = dfdr[1:] < -tol
    contact[0] = grid.h[0] < -tol
    return ChartReport(is_confoliation=bool(max_violation <= tol),
                       contact_mask=contact,
                       max_violation=max_violation, tol=tol)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _cell(where: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.argwhere(where)[0])


def _require_purifiable(grid: SlopeGrid, report: ChartReport,
                        failure: Optional[str], region: np.ndarray,
                        axis: int, name: str) -> None:
    """Raise the first failed purifier precondition: a confoliation, then
    the purifier's own (``failure`` is its message, None if it holds),
    then contact on the cells of ``region`` with |z| < 1.  A failing cell
    is reported with its coordinate ``name`` (along ``axis``) and z."""
    if not report.is_confoliation:
        raise ChartError("precondition failed: input is not a confoliation "
                         f"(violation {report.max_violation:.3e})")
    if failure is not None:
        raise ChartError(failure)
    needed = region & ~report.contact_mask
    needed[:, :, [0, -1]] = False
    if needed.any():
        cell = _cell(needed)
        coords = grid.axes()
        raise ChartError("precondition failed: not contact at cell "
                         f"{cell}, {name}={coords[axis][cell[axis]]:.6g}, "
                         f"z={coords[2][cell[2]]:.6g}")


def purify_box(grid: SlopeGrid, y0: float, y1: float, delta: float,
               tol: float = DEFAULT_TOL) -> SlopeGrid:
    """Make a box confoliation contact on {|x| < 1-delta, |z| < 1}.

    The input must be a confoliation that is already contact on
    {y > y0, |z| < 1} with f(x, y1, z) < f(x, -y1, z); the output blends
    f below y1 toward a strictly y-decreasing profile between those two
    sample sheets, windowed so the samples on {|x| >= 1-delta},
    {y >= y1} and {|z| = 1} are returned bit-identical.
    """
    _expect(grid, BOX, "purify_box")
    if not 0.0 < y0 < y1 < 1.0:
        raise ChartError("need 0 < y0 < y1 < 1")
    if not 0.0 < delta < 1.0:
        raise ChartError("need 0 < delta < 1")
    report = check_box(grid, tol)
    x, y, z = grid.axes()
    dy = grid.spacings()[1]
    j1 = int(round((y1 + 1.0) / dy))
    jm1 = int(round((1.0 - y1) / dy))
    off_grid = abs(y[j1] - y1) > 1e-9 or abs(y[jm1] + y1) > 1e-9
    _require_purifiable(grid, report,
                        "y1 must lie on the sample grid" if off_grid else None,
                        (y > y0)[None, :, None], 1, "y")
    f = grid.values
    a = f[:, jm1:jm1 + 1, :]  # values on the y = -y1 sheet
    b = f[:, j1:j1 + 1, :]    # values on the y = +y1 sheet
    if not (b < a).all():
        i, k = _cell((b >= a)[:, 0, :])
        raise ChartError("precondition failed: f(x, y1, z) < f(x, -y1, z) "
                         f"does not hold at x={x[i]:.6g}, z={z[k]:.6g}")
    yy = y[None, :, None]
    u = (yy + y1) / (2.0 * y1)  # 0 at -y1, 1 at +y1; linear tail below
    sigma = (1.0 - _MU) * _smoothstep(u) + _MU * u
    profile = a + (b - a) * sigma
    g = np.where(yy >= y[j1], f, profile)
    sx = _smoothstep((1.0 - delta - np.abs(x)) / (1.0 - delta))
    sz = _smoothstep(1.0 - np.abs(z))
    chi = sx[:, None, None] * sz[None, None, :]
    out = (1.0 - chi) * f + chi * g
    # coincidence strata, bit for bit
    keep_x = np.abs(x) >= 1.0 - delta
    out[keep_x, :, :] = f[keep_x, :, :]
    out[:, j1:, :] = f[:, j1:, :]
    out[:, :, 0] = f[:, :, 0]
    out[:, :, -1] = f[:, :, -1]
    return SlopeGrid(BOX, (), out)


def purify_cylinder(grid: SlopeGrid, r0: float, mode: str,
                    tol: float = DEFAULT_TOL) -> SlopeGrid:
    """Make a cylinder confoliation contact on all of {|z| < 1}.

    mode names the region where the input is already contact: "inner"
    for {r < r0, |z| < 1}, "outer" for {r > r0, |z| < 1}.  The rewrite
    is the same either way (the modes differ only in which precondition
    is enforced): away from z = +-1, f is pulled onto its running
    radial minimum minus a strictly decreasing paraboloid margin, which
    also pushes the axis values of h strictly negative.  The z = +-1
    slices are returned bit-identical; near r = R the output agrees
    with the input only up to the margin size.
    """
    _expect(grid, CYLINDER, "purify_cylinder")
    if mode not in (INNER_CONTACT, OUTER_CONTACT):
        raise ChartError(f"unknown purification mode: {mode!r}")
    radius = grid.bounds[0]
    if not 0.0 < r0 < radius:
        raise ChartError("need 0 < r0 < R")
    report = check_cylinder(grid, tol)
    h_positive = float(grid.h[0].max()) > tol
    r, _, z = grid.axes()
    rows = r < r0 if mode == INNER_CONTACT else r > r0
    _require_purifiable(grid, report,
                        "precondition failed: h must be nonpositive on the "
                        "axis" if h_positive else None,
                        rows[:, None, None], 0, "r")
    f = grid.values
    dz = grid.spacings()[2]
    chi = _smoothstep((1.0 - np.abs(z)) / (2.0 * dz))[None, None, :]
    eps = 100.0 * tol * max(1.0, float(np.abs(f).max()))
    rr = (r / radius)[:, None, None]
    base = np.minimum.accumulate(f, axis=0) - eps * rr * rr
    out = (1.0 - chi) * f + chi * base
    hout = np.empty_like(out)
    r2 = (r[1:] ** 2)[:, None, None]
    hout[1:] = out[1:] / r2
    hout[0] = grid.h[0] - chi[0] * (eps / (radius * radius))
    out[:, :, 0] = f[:, :, 0]
    out[:, :, -1] = f[:, :, -1]
    hout[:, :, 0] = grid.h[:, :, 0]
    hout[:, :, -1] = grid.h[:, :, -1]
    return SlopeGrid(CYLINDER, (radius,), out, hout)


def extend_cell(boundary: SlopeGrid, r0: float, radius: float, nr: int,
                tol: float = DEFAULT_TOL) -> SlopeGrid:
    """Extend annulus boundary data radially into a full cylinder.

    Multiplies f(theta, z) by a C^1 radial ramp beta with beta = r^2/r0^2
    near the axis, strictly increasing on (0, r0), and identically 1
    from r0 outward — so the output agrees with the boundary data for
    r >= r0, is contact on {0 < r < r0, |z| < 1}, and has
    h(0) = f/r0^2 < 0 on the open interior.
    """
    _expect(boundary, ANNULUS, "extend_cell")
    _check_tol(tol)
    if not 0.0 < r0 < radius:
        raise ChartError("need 0 < r0 < R")
    if nr < 3:
        raise ChartError("need at least 3 radial samples")
    f2 = boundary.values
    bad = f2[:, 1:-1] >= 0.0
    if bad.any():
        i, k = _cell(bad)
        raise ChartError("boundary slope must be strictly negative on "
                         f"|z| < 1 (cell ({i}, {k + 1}))")
    if float(np.abs(f2[:, [0, -1]]).max()) > tol:
        raise ChartError("boundary slope must vanish at z = +-1")
    _check_bounds(CYLINDER, (radius,))  # 0 < r0 < R lets R = inf through
    r = np.linspace(0.0, radius, nr)
    half = r0 / 2.0
    # finite boundary data near the float range can overflow f / r^2; the
    # result is checked below, so the arithmetic stays quiet
    with np.errstate(all="ignore"):
        t = (r - half) / half
        p = ((-t + 1.25) * t + 0.5) * t + 0.25  # Hermite: C^1 ramp 1/4 -> 1
        beta = np.where(r <= half, (r / r0) ** 2,
                        np.where(r >= r0, 1.0, p))
        out = f2[None, :, :] * beta[:, None, None]
        h = np.empty_like(out)
        core = r <= half
        h[core] = np.broadcast_to(f2 / (r0 * r0), f2.shape)
        r2 = (r[~core] ** 2)[:, None, None]
        h[~core] = out[~core] / r2
    if not (np.isfinite(out).all() and np.isfinite(h).all()):
        raise ChartError("extended slope is not finite: the boundary data "
                         f"over r^2 leaves the float range (r0 = {r0!r})")
    return SlopeGrid(CYLINDER, (radius,), out, h)


def _theta_runs(f: list, dth: float, n: int, h: float):
    """The theta side of holonomy_map's n steps of size h, in runs of
    steps over which the three stages (theta, theta + h/2, theta + h)
    all keep their cells.  Each run yields the two sample rows of each
    stage's cell (rows of f, nested lists) and an iterator over its
    steps of the weights 1 - fa and fa of each stage.  Theta wraps as
    Python's % and int() wrap it, to the same bits, for theta >= 0."""
    nth = len(f)
    for start in range(0, n, _HOLONOMY_BLOCK):
        th = np.arange(start, min(start + _HOLONOMY_BLOCK, n),
                       dtype=float) * h
        cells = np.empty((3, len(th)), dtype=np.int64)
        weights = []
        for stage, t in zip(cells, (th, th + h / 2.0, th + h)):
            a = np.remainder(t, TWO_PI) / dth
            stage[:] = a
            fa = a - stage
            weights += [(1.0 - fa).tolist(), fa.tolist()]
        cells %= nth
        edges = [0, *(np.flatnonzero((cells[:, 1:] != cells[:, :-1])
                                     .any(axis=0)) + 1).tolist(), len(th)]
        for lo, hi in zip(edges, edges[1:]):
            yield ([f[c] for i in cells[:, lo].tolist()
                    for c in (i, (i + 1) % nth)],
                   zip(*[w[lo:hi] for w in weights]))


def holonomy_map(annulus: SlopeGrid, z0: float, step: float) -> float:
    """Follow a leaf of dz/dtheta = f(theta, z) once around the annulus.

    Classical fixed-step 4th-order integration from theta = 0 to 2pi
    with bilinearly interpolated samples; theta wraps, z clamps to the
    chart.  The convention is increasing theta, so a strictly negative
    slope field returns the leaf strictly below its start.  The step
    must be finite and positive, and ceil(2pi / step) at most 10**7
    steps.  The theta side of every stage (the wrap, the cell, its
    weights and its two sample rows) depends on the step index alone,
    not on z, so it is tabulated with numpy a block of steps at a time
    and cut into runs of steps over which all three stages keep their
    cells: each run binds its sample rows once and steps through its
    weights alone.  The z side and the RK4 update run on Python floats
    over the samples as nested lists.  Each tabulated value is the same
    IEEE operation on the same operands as evaluating it per step, so
    the result, a Python float, has the same bits.
    """
    _expect(annulus, ANNULUS, "holonomy_map")
    if not 0.0 < step < math.inf:
        raise ChartError("step must be positive and finite")
    if TWO_PI / step > _MAX_RK4_STEPS:
        raise ChartError(f"step {step:.6g} needs more than "
                         f"{_MAX_RK4_STEPS} RK4 steps")
    if not -1.0 < z0 < 1.0:
        raise ChartError("z0 must lie strictly inside (-1, 1)")
    if float(annulus.values.max()) > 0.0:
        raise ChartError("slope field must be nonpositive")
    nth, nz = annulus.shape
    f = annulus.values.tolist()
    dth = TWO_PI / nth
    last = nz - 1
    dz = 2.0 / last

    # the z side of one stage, four calls a step; bench/tracing.py counts
    # RK4 steps by calls of the code objects nested here, so slope stays
    # the only one; ga, fa and the rows come from _theta_runs
    def slope(ga: float, fa: float, row: list, nxt: list,
              zz: float) -> float:
        b = (zz + 1.0) / dz
        if b <= 0.0:
            j, fb = 0, 0.0
        elif b >= last:
            j, fb = last - 1, 1.0
        else:
            j = int(b)
            fb = b - j
        gb = 1.0 - fb
        top = gb * row[j] + fb * row[j + 1]
        bot = gb * nxt[j] + fb * nxt[j + 1]
        return ga * top + fa * bot

    n = math.ceil(TWO_PI / step)
    h = TWO_PI / n
    half = h / 2.0
    sixth = h / 6.0
    zcur = float(z0)
    for (row1, nxt1, row2, nxt2, row4, nxt4), steps in _theta_runs(
            f, dth, n, h):
        for ga1, fa1, ga2, fa2, ga4, fa4 in steps:
            k1 = slope(ga1, fa1, row1, nxt1, zcur)
            k2 = slope(ga2, fa2, row2, nxt2, zcur + half * k1)
            k3 = slope(ga2, fa2, row2, nxt2, zcur + half * k2)
            k4 = slope(ga4, fa4, row4, nxt4, zcur + h * k3)
            zcur += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if zcur < -1.0:
                zcur = -1.0
            elif zcur > 1.0:
                zcur = 1.0
    return zcur


# -- flat text serialization ---------------------------------------------

GRID_MAGIC = "bsgate-grid"


def _distinct(fibres: Iterable[bytes]) -> tuple[list[bytes], list[int]]:
    """The distinct fibres in order of first use, and the index of each
    fibre among them: the z-fibre rule that print_grid and parse_grid
    share, on a fibre's bytes (so -0.0 and 0.0 stay apart)."""
    ids: dict[bytes, int] = {}
    codes = [ids.setdefault(fibre, len(ids)) for fibre in fibres]
    return list(ids), codes


def print_grid(grid: SlopeGrid) -> str:
    """Four-line ASCII header (kind, bounds, shape, spacing), then the
    samples one ``%.17g`` value per line in C order, h following f;
    ``%.17g`` reads back bit-exact.  The samples are cut into z-fibres
    (runs of shape[-1] values) by their bytes, each distinct fibre is
    formatted once, and the fibres' text is joined in order: the bytes
    are those of formatting every sample."""
    head = [
        "%s %s %d" % (GRID_MAGIC, grid.kind, 0 if grid.h is None else 1),
        "bounds " + " ".join("%.17g" % v
                             for v in _ends(grid.kind, grid.bounds)),
        "shape " + " ".join(str(n) for n in grid.shape),
        "spacing " + " ".join("%.17g" % s for s in grid.spacings()),
    ]
    nz = grid.shape[-1]
    distinct, codes = _distinct(
        fibre.tobytes() for a in (grid.values, grid.h) if a is not None
        for fibre in a.reshape(-1, nz))
    line = "%.17g\n" * nz
    texts = [line % tuple(row.tolist()) for row in
             np.frombuffer(b"".join(distinct)).reshape(-1, nz)]
    return "".join(["\n".join(head) + "\n",
                    *map(texts.__getitem__, codes)])


def _agrees(read: list[float], derived: Sequence[float]) -> bool:
    return len(read) == len(derived) and all(
        abs(s - t) <= 1e-12 for s, t in zip(read, derived))


# besides "\n", str.splitlines ends a line at each of these bytes (at
# "\r\n" once), and in UTF-8 text at U+0085, U+2028 and U+2029: a last
# byte, after the bytes that lead to it
_ASCII_BREAKS = b"\r\v\f\x1c\x1d\x1e"
_WIDE_BREAKS = ((0x85, b"\xc2"), (0xA8, b"\xe2\x80"), (0xA9, b"\xe2\x80"))


def _line_ends(data: bytes) -> np.ndarray:
    """The index of the last byte of each line of the UTF-8 text data,
    its line break included, with lines ended as ``str.splitlines``
    ends them.  Each break is found on the bytes: the ASCII ones by
    byte search, the multi-byte ones only in non-ASCII text, once it is
    known to be UTF-8, where their bytes can match nothing else."""
    arr = np.frombuffer(data, np.uint8)
    other = []
    for byte in _ASCII_BREAKS:
        if byte in data:
            at = np.flatnonzero(arr == byte)
            if byte == 13:  # "\r\n" is one break, ending at the "\n"
                at = at[arr[np.minimum(at + 1, len(arr) - 1)] != 10]
            other.append(at)
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError:
            raise ChartError("grid text is not UTF-8") from None
        for byte, lead in _WIDE_BREAKS:
            at = np.flatnonzero(arr == byte)
            for k, prior in enumerate(reversed(lead), 1):
                at = at[at >= k]
                at = at[arr[at - k] == prior]
            other.append(at)
    ends = np.flatnonzero(arr == 10)
    if sum(map(len, other)):
        ends = np.sort(np.concatenate([ends, *other]))
    if len(arr) and (not len(ends) or ends[-1] < len(arr) - 1):
        ends = np.append(ends, len(arr) - 1)  # a last line with no break
    return ends


def parse_grid(text: str | bytes) -> SlopeGrid:
    """Read print_grid's text back, as ``str`` or as its UTF-8 bytes.
    Lines end as ``str.splitlines`` ends them.  The header must agree
    with the kind's axes: a shape entry per axis, each at least 2, and
    the bounds and spacing they imply.  The samples are read one z-fibre
    (a run of shape[-1] lines) at a time, by print_grid's rule: the
    fibres are cut from the bytes, each distinct fibre is converted once
    with ``float()``'s rules on its decoded text (one line once, when
    all its lines are the same text), and f and h are gathered from
    them, to the same bits as converting every line.  A bad sample is
    refused at its first line in file order, f before h, an unparsable
    one before any non-finite one; a non-finite one is named with its
    line number."""
    data = text.encode() if isinstance(text, str) else text
    ends = _line_ends(data)
    if len(ends) < 4:
        raise ChartError("grid text needs a 4-line header")
    head, btoks, stoks, ptoks = (
        line.split() for line in data[:ends[3] + 1].decode().splitlines())
    if len(head) != 3 or head[0] != GRID_MAGIC:
        raise ChartError(f"not a grid file (expected '{GRID_MAGIC} "
                         "<kind> <has_h>')")
    kind, has_h = head[1], head[2]
    if has_h not in ("0", "1"):
        raise ChartError("h flag must be 0 or 1")
    if btoks[:1] != ["bounds"] or stoks[:1] != ["shape"] \
            or ptoks[:1] != ["spacing"]:
        raise ChartError("header lines must be bounds, shape, spacing")
    try:
        shape = tuple(int(n) for n in stoks[1:])
        bvals = [float(v) for v in btoks[1:]]
        spacing = [float(v) for v in ptoks[1:]]
    except ValueError as exc:
        raise ChartError(f"bad header number: {exc}") from None
    if not np.isfinite(bvals + spacing).all():
        raise ChartError("bad header number: bounds and spacing must be "
                         "finite")
    if min(shape, default=2) < 2:
        raise ChartError("each axis needs at least 2 samples")
    bounds: tuple[float, ...] = ()
    if kind in _AXES:  # SlopeGrid refuses an unknown kind below
        if len(shape) != len(_AXES[kind]):
            raise ChartError(f"{kind} shape needs {len(_AXES[kind])} "
                             "numbers")
        if len(bvals) != 2 * len(_AXES[kind]):
            raise ChartError(f"{kind} bounds need {2 * len(_AXES[kind])} "
                             "numbers")
        bounds = tuple(bvals[2 * i + 1] for i, (_, hi, _) in
                       enumerate(_AXES[kind]) if hi is None)
    nvals = math.prod(shape)  # Python ints: a huge shape cannot wrap
    want = nvals * (2 if has_h == "1" else 1)
    if len(ends) - 4 != want:
        raise ChartError(f"expected {want} sample lines, "
                         f"got {len(ends) - 4}")
    nz = shape[-1] if shape else 1  # no shape: SlopeGrid refuses the kind
    # fibre i is the text after the line end cuts[i] up to and with the
    # line end cuts[i + 1]; ends is 8 bytes a line, and data the text's
    # size when it was encoded here: freeing both keeps the line-end
    # search above the peak
    cuts = ends[3::nz].tolist()
    del ends
    fibres = [data[a + 1:b + 1] for a, b in zip(cuts, cuts[1:])]
    del data
    # distinct fibres in order of first use, so the first unparsable
    # line to raise is the first in the file
    distinct, codes = _distinct(fibres)
    table = np.empty((len(distinct), nz))
    try:
        for row, fibre in zip(table, distinct):
            lines = fibre.decode().splitlines()
            row[:] = (float(lines[0]) if lines.count(lines[0]) == nz
                      else list(map(float, lines)))
    except ValueError as exc:
        raise ChartError(f"bad sample value: {exc}") from None
    bad = ~np.isfinite(table)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=1)[codes])[0])
        k = int(np.argmax(bad[codes[i]]))
        line = fibres[i].decode().splitlines()[k]
        raise ChartError(f"bad sample value: {line.strip()!r} on "
                         f"line {i * nz + k + 5} is not finite")
    per = nvals // nz
    f, *h = (table[codes[i:i + per]].reshape(shape)
             for i in range(0, len(codes), per))
    grid = SlopeGrid(kind, bounds, f, h[0] if h else None)
    if not _agrees(bvals, _ends(kind, bounds)):
        raise ChartError(f"bounds line disagrees with the {kind} axes")
    if not _agrees(spacing, grid.spacings()):
        raise ChartError("spacing line disagrees with shape and bounds")
    return grid
