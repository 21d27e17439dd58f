"""Kinetic BGK observer solver for 1D Burgers and its macroscopic equivalent.

Three discrete lanes solve the nudged Burgers problem:

* ``step_kinetic_burgers`` advances a full kinetic density f(x, xi) by upwind
  transport plus relaxation toward the indicator density of the observed
  field; f evolves freely (the BGK observer).
* ``step_collapse_macroscopic`` is the moment form of the collapsed kinetic
  scheme, whose f is projected back to an indicator of its own xi-integral
  after every step: it never stores f, only its xi-integral, with fluxes
  evaluated by midpoint quadrature on the xi grid, read in closed form from
  prefix sums over the nodes.
* ``step_macroscopic_burgers`` is the Engquist-Osher flux-splitting scheme
  with a nudging source, i.e. the exact xi-integral of the collapsed scheme.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import BoundaryKind, Grid1D, XiGrid
from .kinetic import chi_indicator

_CFL_TOL = 1.0 + 1e-12


def burgers_cfl(lam: float, dx: float, xi_sup: float, safety: float = 0.95) -> float:
    """Largest stable time step: safety / (lambda + xi_sup / dx)."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    if dx <= 0.0 or xi_sup <= 0.0:
        raise ValueError("dx and xi_sup must be positive")
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    return safety / (lam + xi_sup / dx)


@dataclass
class KineticField:
    """Cell-by-velocity kinetic density values on a grid pair."""

    values: np.ndarray  # shape (n_cells, n_xi)
    xi: XiGrid
    grid: Grid1D

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells, self.xi.n_xi):
            raise ValueError(
                f"field shape {self.values.shape} does not match "
                f"({self.grid.n_cells}, {self.xi.n_xi})"
            )

    def macroscopic(self) -> np.ndarray:
        """xi-integral of the density per cell."""
        return self.values @ self.xi.weights

    @staticmethod
    def from_macroscopic(u: np.ndarray, xi: XiGrid, grid: Grid1D) -> "KineticField":
        values = chi_indicator(xi.nodes[None, :], np.asarray(u, dtype=float)[:, None])
        return KineticField(values, xi, grid)


def _pad(values: np.ndarray, bc: BoundaryKind) -> np.ndarray:
    """Ghost-padded copy along axis 0."""
    if bc is BoundaryKind.DIRICHLET_ZERO:
        shape = (values.shape[0] + 2,) + values.shape[1:]
        out = np.zeros(shape)
        out[1:-1] = values
        return out
    if bc is BoundaryKind.PERIODIC:
        return np.concatenate([values[-1:], values, values[:1]], axis=0)
    raise ValueError(f"boundary kind {bc} is not supported by the Burgers solvers")


def step_kinetic_burgers(
    f: KineticField,
    obs_u: np.ndarray | None,
    lam: float,
    dt: float,
) -> KineticField:
    """One explicit upwind step of the kinetic observer.

    Pass lam = 0 (or obs_u = None) on steps without an active observation.
    The step refuses time steps above the stability bound instead of
    clamping them.
    """
    xi = f.xi.nodes
    dx = f.grid.dx
    if dt > burgers_cfl(lam, dx, max(f.xi.speed_sup, 1e-300), safety=1.0) * _CFL_TOL:
        raise ValueError(
            f"dt={dt:g} violates the CFL bound "
            f"{burgers_cfl(lam, dx, f.xi.speed_sup, safety=1.0):g}"
        )
    fp = _pad(f.values, f.grid.bc)
    div = np.where(
        xi[None, :] >= 0.0,
        xi[None, :] * (fp[1:-1] - fp[:-2]),
        xi[None, :] * (fp[2:] - fp[1:-1]),
    )
    new = f.values - (dt / dx) * div
    if lam > 0.0 and obs_u is not None:
        obs = np.asarray(obs_u, dtype=float)
        observed = np.isfinite(obs)
        target = chi_indicator(xi[None, :], np.where(observed, obs, 0.0)[:, None])
        new = new + np.where(
            observed[:, None], lam * dt * (target - f.values), 0.0
        )
    return replace(f, values=new)


def step_kinetic_linear(
    f: np.ndarray,
    speed: float,
    f_obs: np.ndarray | None,
    lam,
    dt: float,
    grid: Grid1D,
) -> np.ndarray:
    """Upwind transport at a single fixed velocity with relaxation toward a
    kinetic observation field.  ``lam`` may be a scalar or a per-cell array
    (space-masked gain)."""
    lam_arr = np.asarray(lam, dtype=float)
    if dt * (float(np.max(lam_arr)) + abs(speed) / grid.dx) > _CFL_TOL:
        raise ValueError("dt violates the CFL bound for the linear step")
    fp = _pad(f[:, None], grid.bc)[:, 0]
    if speed >= 0.0:
        div = speed * (fp[1:-1] - fp[:-2])
    else:
        div = speed * (fp[2:] - fp[1:-1])
    new = f - (dt / grid.dx) * div
    if f_obs is not None:
        new = new + lam_arr * dt * (f_obs - f)
    return new


def engquist_osher_flux(u_left: np.ndarray, u_right: np.ndarray) -> np.ndarray:
    """Engquist-Osher interface flux for the u^2/2 flux function."""
    return 0.5 * np.maximum(u_left, 0.0) * u_left + 0.5 * np.minimum(u_right, 0.0) * u_right


def step_macroscopic_burgers(
    u: np.ndarray,
    obs_u: np.ndarray | None,
    lam: float,
    dt: float,
    grid: Grid1D,
) -> np.ndarray:
    """Engquist-Osher step with nudging source lam*dt*(obs - u)."""
    u = np.asarray(u, dtype=float)
    up = _pad(u[:, None], grid.bc)[:, 0]
    u_sup = float(np.max(np.abs(up))) if up.size else 0.0
    if u_sup > 0.0 and dt > burgers_cfl(lam, grid.dx, u_sup, safety=1.0) * _CFL_TOL:
        raise ValueError("dt violates the CFL bound for the macroscopic step")
    flux = engquist_osher_flux(up[:-1], up[1:])
    new = u - (dt / grid.dx) * (flux[1:] - flux[:-1])
    if lam > 0.0 and obs_u is not None:
        obs = np.asarray(obs_u, dtype=float)
        observed = np.isfinite(obs)
        new = new + np.where(observed, lam * dt * (obs - u), 0.0)
    return new


def step_collapse_macroscopic(
    u: np.ndarray,
    obs_u: np.ndarray | None,
    lam: float,
    dt: float,
    grid: Grid1D,
    xi: XiGrid,
) -> np.ndarray:
    """Moment form of the collapsed kinetic step.

    Equivalent to a ``step_kinetic_burgers`` step from the indicator of u
    followed by the xi-integral, without storing f.  Fluxes and the nudging
    term carry the midpoint xi-quadrature of the indicator, so this lane
    agrees with ``step_macroscopic_burgers`` to O(dxi) per step.

    The quadrature is read from prefix sums over the sorted nodes
    (``XiGrid.indicator_tables``) instead of summing dense indicator arrays:
    the upwind flux sum_{xi_j >= 0} w_j xi_j chi(xi_j, u_L)
    + sum_{xi_j < 0} w_j xi_j chi(xi_j, u_R) is T1[0, kl(u_L)] + T1[1, kr(u_R)],
    and the nudging moment (chi(., obs) - chi(., u)) @ w is the same over T0,
    with kl, kr the left/right ``searchsorted`` positions of each value among
    the nodes.  A step costs O(n_cells log n_xi) instead of O(n_cells n_xi).
    """
    u = np.asarray(u, dtype=float)
    if dt > burgers_cfl(lam, grid.dx, xi.speed_sup, safety=1.0) * _CFL_TOL:
        raise ValueError("dt violates the CFL bound for the collapsed step")
    nodes, t0, t1 = xi.indicator_tables
    up = _pad(u, grid.bc)
    kl = nodes.searchsorted(up, side="left")
    kr = nodes.searchsorted(up, side="right")
    flux = t1[0, kl[:-1]] + t1[1, kr[1:]]
    new = u - (dt / grid.dx) * (flux[1:] - flux[:-1])
    if lam > 0.0 and obs_u is not None:
        obs = np.asarray(obs_u, dtype=float)
        observed = np.isfinite(obs)
        obs = np.where(observed, obs, 0.0)
        target = (
            t0[0, nodes.searchsorted(obs, side="left")]
            + t0[1, nodes.searchsorted(obs, side="right")]
        )
        own = t0[0, kl[1:-1]] + t0[1, kr[1:-1]]
        new = new + np.where(observed, lam * dt * (target - own), 0.0)
    return new
