"""Kinetic BGK observer solver for 1D Burgers and its macroscopic equivalent.

Every step transports, then relaxes exactly: u* = transport(u), then
u_new = u* + (1 - exp(-lam dt)) gap on the observed cells, where the gap is
target - u*.  ``_relax`` takes the gap, not the target, so the twin driver
relaxes through it toward any mean innovation.  This is the Lie splitting
of the BGK relaxation source with the stiff part integrated exactly, a
convex combination for any lam dt, so the CFL bounds hold transport alone
and do not depend on the gain.

Three discrete lanes solve the nudged Burgers problem:

* ``step_kinetic_burgers`` advances a full kinetic density f(x, xi) by upwind
  transport plus relaxation toward the cell-averaged indicator density of the
  observed field (``XiGrid.indicator``); f evolves freely (the BGK observer).
* ``step_collapse_macroscopic`` is the moment form of the collapsed kinetic
  scheme, whose f is projected back to the cell-averaged indicator of its own
  xi-integral after every step: it never stores f, only its xi-integral.  The
  cell average of chi(., u) integrates to u exactly, so for u on the xi grid
  the step is exactly the xi-moment of a kinetic step from that indicator;
  its upwind flux is piecewise linear in u and read from one edge table per
  grid (``XiGrid.flux_table``).
* ``step_macroscopic_burgers`` is the Engquist-Osher flux-splitting scheme,
  the n_xi -> infinity limit of the collapsed scheme.

The collapse and Engquist-Osher steps share one conservative update and
differ only in their interface flux.

Every step takes a leading row axis: u of shape (k, n_cells), a kinetic
density of shape (k, n_cells, n_xi), steps k fields at once, each row exactly
as its one-row call.  Padding, flux and relaxation act on the cell axis, and
``lam`` broadcasts against the field (a (k, 1) column gives each row its own
gain).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import BoundaryKind, Grid1D, XiGrid

_CFL_TOL = 1.0 + 1e-12


def burgers_cfl(dx: float, xi_sup: float, safety: float = 0.95) -> float:
    """Largest stable time step: safety * dx / xi_sup.  The relaxation is
    integrated exactly, so the gain does not enter."""
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
    tail = (slice(None),) * (-1 - axis)
    if bc is BoundaryKind.DIRICHLET_ZERO:
        shape = list(values.shape)
        shape[axis] += 2
        out = np.zeros(shape)
        out[(..., slice(1, -1)) + tail] = values
        return out
    if bc is BoundaryKind.PERIODIC:
        first, last = (..., slice(None, 1)) + tail, (..., slice(-1, None)) + tail
        return np.concatenate([values[last], values, values[first]], axis=axis)
    raise ValueError(f"boundary kind {bc} is not supported by the Burgers solvers")


def _relax(u, gap, lam, dt):
    """Exact relaxation of du/dt = lam (target - u) over dt, given the gap
    target - u: u + (1 - exp(-lam dt)) gap where the gap is finite (NaN marks
    unobserved cells), u elsewhere.  ``lam`` may be a scalar or an array
    broadcasting against u; gap None leaves u as it is."""
    if gap is None or not np.any(lam):
        return u
    return u + np.where(np.isfinite(gap), -np.expm1(-lam * dt) * gap, 0.0)


def step_kinetic_burgers(
    f: KineticField,
    obs_u: np.ndarray | None,
    lam: float | np.ndarray,
    dt: float,
) -> KineticField:
    """One upwind transport step of the kinetic observer, then exact
    relaxation toward the cell-averaged indicator density of ``obs_u`` (NaN
    marks unobserved cells).

    Pass lam = 0 (or obs_u = None) on steps without an active observation.
    The step refuses time steps above the stability bound instead of
    clamping them.
    """
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
    new = f.values - (dt / dx) * div
    if obs_u is not None:
        new = _relax(new, f.xi.indicator(obs_u) - new, lam, dt)
    return replace(f, values=new)


def step_kinetic_linear(
    f: np.ndarray,
    speed: float,
    f_obs: np.ndarray | None,
    lam,
    dt: float,
    grid: Grid1D,
) -> np.ndarray:
    """Upwind transport at a single fixed velocity, then exact relaxation
    toward a kinetic observation field (NaN marks unobserved cells).
    ``lam`` may be a scalar or a per-cell array (space-masked gain)."""
    if not (0.0 <= dt and dt * abs(speed) / grid.dx <= _CFL_TOL):
        raise ValueError(f"dt={dt:g} violates the CFL bound for the linear step")
    fp = _pad(f, grid.bc)
    if speed >= 0.0:
        div = speed * (fp[..., 1:-1] - fp[..., :-2])
    else:
        div = speed * (fp[..., 2:] - fp[..., 1:-1])
    new = f - (dt / grid.dx) * div
    gap = None if f_obs is None else f_obs - new
    return _relax(new, gap, np.asarray(lam, dtype=float), dt)


def engquist_osher_flux(u_left: np.ndarray, u_right: np.ndarray) -> np.ndarray:
    """Engquist-Osher interface flux for the u^2/2 flux function."""
    return 0.5 * np.maximum(u_left, 0.0) * u_left + 0.5 * np.minimum(u_right, 0.0) * u_right


def _conservative_step(u, target, lam, dt, grid, flux):
    """u - dt/dx (F_{i+1/2} - F_{i-1/2}), with ``flux`` mapping the padded
    cell values to the n_cells + 1 interface fluxes, then exact relaxation
    toward ``target``."""
    f = flux(_pad(u, grid.bc))
    new = u - (dt / grid.dx) * (f[..., 1:] - f[..., :-1])
    return _relax(new, None if target is None else target - new, lam, dt)


def step_macroscopic_burgers(
    u: np.ndarray,
    obs_u: np.ndarray | None,
    lam: float | np.ndarray,
    dt: float,
    grid: Grid1D,
) -> np.ndarray:
    """Engquist-Osher step, then exact relaxation toward ``obs_u``."""
    u = np.asarray(u, dtype=float)
    u_sup = float(np.max(np.abs(u)))
    # a NaN u_sup is not 0 and gives a NaN bound, which no dt passes
    if not 0.0 <= dt or (u_sup != 0.0
                         and not dt <= burgers_cfl(grid.dx, u_sup, safety=1.0) * _CFL_TOL):
        raise ValueError(f"dt={dt:g} violates the CFL bound for the macroscopic step")
    return _conservative_step(
        u, obs_u, lam, dt, grid, lambda up: engquist_osher_flux(up[..., :-1], up[..., 1:])
    )


def step_collapse_macroscopic(
    u: np.ndarray,
    obs_u: np.ndarray | None,
    lam: float | np.ndarray,
    dt: float,
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
    cell keeps its own value u.
    """
    u = np.asarray(u, dtype=float)
    if not 0.0 <= dt <= burgers_cfl(grid.dx, xi.speed_sup, safety=1.0) * _CFL_TOL:
        raise ValueError(f"dt={dt:g} violates the CFL bound for the collapsed step")
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

    target = None if obs_u is None else np.clip(obs_u, lo, hi)
    return _conservative_step(u, target, lam, dt, grid, flux)
