"""Kinetic BGK observer solver for 1D Burgers and its macroscopic equivalent.

The steps transport; a nudged lane relaxes the transported field u* exactly
with one ``_relax``: u_new = u* + (1 - exp(-lam dt)) gap, where the gap is
target - u* on the observed cells and 0.0 on the others.  ``_relax`` takes
the gap, not the target, so the twin driver relaxes through it toward any
mean innovation.  The gap is finite: the twin driver builds it on the
observed window alone, and of the steps only ``step_collapse_macroscopic``
takes an observed field, whose NaN cells it reads as unobserved.
This is the Lie splitting of the BGK relaxation source with the stiff part
integrated exactly, a convex combination for any lam dt, so the CFL bounds
hold transport alone and do not depend on the gain.

Three discrete lanes solve the nudged Burgers problem:

* ``step_kinetic_burgers`` transports a full kinetic density f(x, xi) upwind;
  the BGK observer relaxes it toward the cell-averaged indicator density of
  the observed field (``XiGrid.indicator``), and f evolves freely.
* ``step_collapse_macroscopic`` is the moment form of the collapsed kinetic
  scheme, whose f is projected back to the cell-averaged indicator of its own
  xi-integral after every step: it never stores f, only its xi-integral.  The
  cell average of chi(., u) integrates to u exactly, so for u on the xi grid
  the step is exactly the xi-moment of a kinetic step from that indicator;
  its upwind flux is piecewise linear in u and read from one edge table per
  grid (``XiGrid.flux_table``).
* ``step_macroscopic_burgers`` is the Engquist-Osher flux-splitting scheme,
  the n_xi -> infinity limit of the collapsed scheme.

``step_kinetic_linear`` transports at one fixed velocity (the single-speed
linear lane).  The collapse and Engquist-Osher steps share one conservative
update and differ only in their interface flux.  Only the collapse step
still takes a target and a gain and relaxes after its transport, because
the benchmark's tracer reads them by position; the library passes it none.

Every step takes a leading row axis: u of shape (k, n_cells), a kinetic
density of shape (k, n_cells, n_xi), steps k fields at once, each row exactly
as its one-row call.  Padding, flux and relaxation act on the cell axis, and
``lam`` broadcasts against the field (a (k, 1) column gives each row its own
gain).  So does ``dt`` in the linear, Engquist-Osher and collapse steps: a
(k, 1) column gives each row its own step, checked against that row's bound
(the Engquist-Osher bound follows each row's own maximum), so the twin steps
its truth as one more row beside its observers.  The steps run on the
boundary kinds of ``BOUNDARY_KINDS``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import BoundaryKind, Grid1D, XiGrid, _refuse_infinite

_CFL_TOL = 1.0 + 1e-12
BOUNDARY_KINDS = (BoundaryKind.DIRICHLET_ZERO, BoundaryKind.PERIODIC)


def burgers_cfl(dx: float, xi_sup: float, safety: float = 0.95) -> float:
    """Largest stable time step: safety * dx / xi_sup.  The relaxation is
    integrated exactly, so the gain does not enter."""
    for name, value in (("dx", dx), ("xi_sup", xi_sup)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if dx <= 0.0 or xi_sup <= 0.0:
        raise ValueError("dx and xi_sup must be positive")
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    return safety * dx / xi_sup


@dataclass
class KineticField:
    """Cell-by-velocity kinetic density values on a grid pair."""

    values: np.ndarray  # shape (n_cells, n_xi), or (k, n_cells, n_xi) for k rows
    xi: XiGrid
    grid: Grid1D

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-2:] != (self.grid.n_cells, self.xi.n_xi) or self.values.ndim > 3:
            raise ValueError(
                f"field shape {self.values.shape} does not match "
                f"({self.grid.n_cells}, {self.xi.n_xi})"
            )

    def macroscopic(self) -> np.ndarray:
        """xi-integral of the density per cell."""
        return self.values @ self.xi.weights

    @staticmethod
    def from_macroscopic(u: np.ndarray, xi: XiGrid, grid: Grid1D) -> "KineticField":
        """The cell-averaged indicator density of u, whose xi-integral is u
        for u on the xi grid."""
        return KineticField(xi.indicator(u), xi, grid)


def _pad(values: np.ndarray, bc: BoundaryKind, axis: int = -1) -> np.ndarray:
    """Ghost-padded copy along the cell axis ``axis`` (-1 for u, -2 for a
    kinetic density)."""
    if bc not in BOUNDARY_KINDS:
        raise ValueError(f"boundary kind {bc} is not supported by the Burgers solvers")
    tail = (slice(None),) * (-1 - axis)
    if bc is BoundaryKind.PERIODIC:
        first, last = (..., slice(None, 1)) + tail, (..., slice(-1, None)) + tail
        return np.concatenate([values[last], values, values[first]], axis=axis)
    shape = list(values.shape)
    shape[axis] += 2
    out = np.zeros(shape)
    out[(..., slice(1, -1)) + tail] = values
    return out


def _relax(u, gap, lam, dt):
    """Exact relaxation of du/dt = lam (target - u) over dt, given the gap
    target - u: u + (1 - exp(-lam dt)) gap.  The gap is finite: an
    unobserved cell's gap is 0.0, which leaves u + 0.0 there.  ``lam`` may be
    a scalar or an array broadcasting against u; a zero gain everywhere
    leaves u as it is."""
    if not np.any(lam):
        return u
    return u - np.expm1(-lam * dt) * gap


def step_kinetic_burgers(f: KineticField, dt: float) -> KineticField:
    """One upwind transport step of the kinetic density.  The step refuses
    time steps above the stability bound instead of clamping them."""
    xi = f.xi.nodes
    dx = f.grid.dx
    bound = burgers_cfl(dx, max(f.xi.speed_sup, 1e-300), safety=1.0)
    if not 0.0 <= dt <= bound * _CFL_TOL:  # a NaN dt fails too
        raise ValueError(f"dt={dt:g} violates the CFL bound 0 <= dt <= {bound:g}")
    fp = _pad(f.values, f.grid.bc, axis=-2)
    div = np.where(
        xi >= 0.0,
        xi * (fp[..., 1:-1, :] - fp[..., :-2, :]),
        xi * (fp[..., 2:, :] - fp[..., 1:-1, :]),
    )
    return replace(f, values=f.values - (dt / dx) * div)


def _check_dt(ok, dt, step: str) -> None:
    """Refuse ``dt`` where ``ok`` is False: a bool for a float dt, a bool per
    row for a (k, 1) column of them (the text names the first row refused).
    A NaN dt compares False, so it is refused too."""
    if ok if isinstance(ok, bool) else ok.all():
        return
    if np.ndim(dt) == 0:
        raise ValueError(f"dt={dt:g} violates the CFL bound for the {step} step")
    row = int(np.argmin(ok[:, 0]))
    raise ValueError(f"dt={dt[row, 0]:g} of row {row} violates the CFL bound for the {step} step")


def step_kinetic_linear(f: np.ndarray, speed: float, dt: float | np.ndarray,
                        grid: Grid1D) -> np.ndarray:
    """Upwind transport at a single fixed velocity over ``dt``, a float or a
    (k, 1) column."""
    _check_dt((0.0 <= dt) & (dt * abs(speed) / grid.dx <= _CFL_TOL), dt, "linear")
    fp = _pad(f, grid.bc)
    if speed >= 0.0:
        div = speed * (fp[..., 1:-1] - fp[..., :-2])
    else:
        div = speed * (fp[..., 2:] - fp[..., 1:-1])
    return f - (dt / grid.dx) * div


def engquist_osher_flux(u_left: np.ndarray, u_right: np.ndarray) -> np.ndarray:
    """Engquist-Osher interface flux for the u^2/2 flux function."""
    return 0.5 * np.maximum(u_left, 0.0) * u_left + 0.5 * np.minimum(u_right, 0.0) * u_right


def _conservative_step(u, dt, grid, flux):
    """u - dt/dx (F_{i+1/2} - F_{i-1/2}), with ``flux`` mapping the padded
    cell values to the n_cells + 1 interface fluxes."""
    f = flux(_pad(u, grid.bc))
    return u - (dt / grid.dx) * (f[..., 1:] - f[..., :-1])


def step_macroscopic_burgers(u: np.ndarray, dt: float | np.ndarray, grid: Grid1D) -> np.ndarray:
    """Engquist-Osher transport step over ``dt``, a float or a (k, 1) column,
    each row under the bound of its own maximum |u|."""
    u = np.asarray(u, dtype=float)
    u_sup = np.max(np.abs(u), axis=-1, keepdims=True)
    # dx / u_sup, any dt on a row of zeros; a NaN or infinite u_sup (a NaN or
    # infinite cell) allows its row no dt
    bound = np.divide(grid.dx, u_sup, out=np.full(u_sup.shape, math.inf), where=u_sup > 0.0)
    _check_dt((0.0 <= dt) & (u_sup < math.inf) & (dt <= bound * _CFL_TOL), dt, "macroscopic")
    return _conservative_step(
        u, dt, grid, lambda up: engquist_osher_flux(up[..., :-1], up[..., 1:])
    )


def step_collapse_macroscopic(
    u: np.ndarray,
    obs_u: np.ndarray | None,
    lam: float | np.ndarray,
    dt: float | np.ndarray,
    grid: Grid1D,
    xi: XiGrid,
) -> np.ndarray:
    """Moment form of the collapsed kinetic step.

    For u and obs_u on the xi grid this is exactly the xi-integral of a
    kinetic step (upwind transport, then exact relaxation) from the
    cell-averaged indicator of u toward that of obs_u, without storing f:
    the cell-averaged indicator of a value integrates to the value itself,
    and its upwind flux is G+(u_L) + G-(u_R), with G+- the piecewise-linear
    half-line fluxes of ``XiGrid.flux_table``.  Reading them costs one
    ``searchsorted`` on the cell edges, a gather and a multiply-add, so a step
    costs O(n_cells log n_xi) instead of O(n_cells n_xi).

    Values past the grid are clamped to [xi_min, xi_max] where the flux is
    read and the target taken, as the grid cuts off their indicator; the
    cell keeps its own value u.  NaN in ``obs_u`` marks an unobserved cell,
    whose gap is 0.0, and an infinite value is refused.  ``dt`` is a float
    or a (k, 1) column.
    """
    u = np.asarray(u, dtype=float)
    bound = burgers_cfl(grid.dx, xi.speed_sup, safety=1.0) * _CFL_TOL
    _check_dt((0.0 <= dt) & (dt <= bound), dt, "collapsed")
    inner, intercept, slope = xi.flux_table
    lo, hi = xi.xi_min, xi.xi_max

    def flux(up):
        v = np.minimum(np.maximum(up, lo), hi)  # np.clip's dispatch costs more
        cell = inner.searchsorted(v, side="right")
        left, right = cell[..., :-1], cell[..., 1:]
        return (
            intercept[0].take(left) + slope[0].take(left) * v[..., :-1]
            + intercept[1].take(right) + slope[1].take(right) * v[..., 1:]
        )

    new = _conservative_step(u, dt, grid, flux)
    if obs_u is None:
        return new
    _refuse_infinite("obs_u", obs_u)
    return _relax(new, np.where(np.isnan(obs_u), 0.0, np.clip(obs_u, lo, hi) - new), lam, dt)
