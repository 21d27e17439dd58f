"""Kinetic finite-volume solver for the 1D Saint-Venant system.

The scheme tracks cell averages of depth H and discharge q = H u.  Interface
fluxes are exact half-line moments of Gibbs equilibria built on hydrostatically
reconstructed depths, so the update is the moment form of an upwind kinetic
transport step followed by a collapse back to Gibbs form.  Consequences
inherited from the kinetic form:

* depth nonnegativity under the CFL bound,
* exact preservation of still water over arbitrary topography (including
  dry areas),
* an in-cell energy inequality; with the semicircle profile the collapse is
  the energy minimiser, which extends the inequality to the nudged observer
  step.

The observer adds the exact xi-moments of lam * (M_obs - f), where M_obs is
the Gibbs density built from the observed depth and the observer's own
velocity: dH += lam dt (H_obs - H), dq += lam dt u (H_obs - H).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import BoundaryKind, Grid1D
from .kinetic import (
    GRAVITY,
    ChiProfile,
    halfline_energy_moment,
    upwind_mass_momentum,
)

DRY_DEPTH = 1e-8
_CFL_TOL = 1.0 + 1e-12


@dataclass
class SWState:
    """Cell-averaged shallow-water state over a fixed bathymetry."""

    h: np.ndarray
    q: np.ndarray
    z_b: np.ndarray
    grid: Grid1D
    profile: ChiProfile = ChiProfile.SEMICIRCLE
    g: float = GRAVITY
    h_dry: float = DRY_DEPTH

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.z_b = np.asarray(self.z_b, dtype=float)
        n = self.grid.n_cells
        if not (self.h.shape == self.q.shape == self.z_b.shape == (n,)):
            raise ValueError("state arrays must match the grid size")
        if not (self.h >= 0.0).all():  # NaN fails too
            raise ValueError(
                f"water depth h must be nonnegative, got min {np.min(self.h)}"
            )

    @property
    def velocity(self) -> np.ndarray:
        """q / H on wet cells, zero on cells below the dry threshold."""
        wet = self.h >= self.h_dry
        return np.where(wet, self.q / np.maximum(self.h, self.h_dry), 0.0)

    @property
    def surface(self) -> np.ndarray:
        return self.h + self.z_b

    def mass(self) -> float:
        return float(np.sum(self.h) * self.grid.dx)

    def copy(self) -> "SWState":
        return replace(self, h=self.h.copy(), q=self.q.copy())


@dataclass
class InterfaceReconstruction:
    """Hydrostatically reconstructed interface depths, one column per
    interface (boundary interfaces included via ghost cells); row 0 is the
    left (minus) side of each interface, row 1 the right (plus) side."""

    h_sides: np.ndarray  # (2, n+1) reconstructed depths
    h_cells: np.ndarray  # (2, n+1) depths of the cells either side


# positive half-line (xi >= 0) on the left side of an interface, negative on
# the right: the upwind split of the kinetic flux
_UPWIND_SIDE = np.array([[True], [False]])


@dataclass
class EnergyBudget:
    """Per-cell energies and per-interface energy fluxes."""

    zeta_hat: np.ndarray
    zeta_tilde: np.ndarray | None
    flux: np.ndarray


def _interface_pairs(a: np.ndarray, bc: BoundaryKind, mirror: bool = False) -> np.ndarray:
    """(2, n+1) values of the cells left (row 0) and right (row 1) of every
    interface, ghost cells included; ``mirror`` flips the sign of the wall
    ghosts (velocity)."""
    out = np.empty((2, a.size + 1))
    out[0, 1:] = a
    out[1, :-1] = a
    if bc is BoundaryKind.REFLECTIVE_WALL:
        out[0, 0], out[1, -1] = (-a[0], -a[-1]) if mirror else (a[0], a[-1])
    elif bc is BoundaryKind.PERIODIC:
        out[0, 0], out[1, -1] = a[-1], a[0]
    else:
        raise ValueError(
            "shallow-water solver supports reflective_wall and periodic boundaries"
        )
    return out


def hydrostatic_reconstruct(state: SWState) -> InterfaceReconstruction:
    """Interface depths limited by the higher of the two neighbouring bottoms,
    truncated at zero so reconstructed depths stay admissible."""
    bc = state.grid.bc
    h_cells = _interface_pairs(state.h, bc)
    z_cells = _interface_pairs(state.z_b, bc)
    z_int = np.maximum(z_cells[0], z_cells[1])
    return InterfaceReconstruction(np.maximum(0.0, h_cells + z_cells - z_int), h_cells)


def sv_interface_flux(
    rec: InterfaceReconstruction,
    u_left: np.ndarray,
    u_right: np.ndarray,
    profile: ChiProfile,
    g: float = GRAVITY,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kinetic interface fluxes (mass, momentum-left, momentum-right).

    Both sides of every interface go through one partial-moment evaluation,
    which yields the mass (power 1) and momentum (power 2) half-line moments.
    The mass flux is shared by both neighbouring cells.  The momentum flux
    carries a side-specific hydrostatic correction g/2 (H_cell^2 - H_rec^2);
    written on the interface depths it is the usual g dz/2 (H_cell + H_rec)
    topography term, but this form stays exactly balanced for still water
    even when the nonnegativity truncation is active at a wet/dry front.
    """
    h = rec.h_sides
    u = np.empty_like(h)
    u[0], u[1] = u_left, u_right
    c = np.sqrt(g * h / 2.0)
    mass, momentum = upwind_mass_momentum(profile, h, u, c, _UPWIND_SIDE)
    f_q = momentum[0] + momentum[1]
    f_q_sides = f_q + 0.5 * g * (rec.h_cells**2 - h**2)
    return mass[0] + mass[1], f_q_sides[0], f_q_sides[1]


def _cfl_bound(state: SWState, u: np.ndarray, lam: float, safety: float) -> float:
    # Maximum over every cell: a dry cell (u = 0, h < h_dry) is slower than
    # the dry-threshold speed and no wet cell is, so this is the maximum over
    # the wet cells, or the threshold speed when none is wet.
    w = state.profile.support_halfwidth
    speed = np.abs(u) + w * np.sqrt(state.g * state.h / 2.0)
    speed_max = max(float(speed.max()), w * math.sqrt(state.g * state.h_dry / 2.0))
    dx = state.grid.dx
    return safety * dx / (lam * dx + speed_max)


def sv_cfl(state: SWState, lam: float, safety: float = 0.95) -> float:
    """Stable time step min_i dx / (lam dx + |u_i| + w_chi c_i) over wet cells.

    The kinetic support speed w_chi * c bounds every particle velocity of the
    cell's equilibrium, which is what the convex-combination argument needs.
    An entirely dry state falls back to the gravity-wave speed of the dry
    threshold depth.
    """
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    return _cfl_bound(state, state.velocity, lam, safety)


def _check_cfl(state: SWState, u: np.ndarray, lam: float, dt: float):
    bound = _cfl_bound(state, u, lam, 1.0)
    if not dt <= bound * _CFL_TOL:  # a NaN dt or bound fails too
        raise ValueError(f"dt={dt:g} violates the CFL bound {bound:g}")


def _flux_divergence(state: SWState, u: np.ndarray):
    u_left, u_right = _interface_pairs(u, state.grid.bc, mirror=True)
    f_h, f_q_left, f_q_right = sv_interface_flux(
        hydrostatic_reconstruct(state), u_left, u_right, state.profile, state.g
    )
    div_h = f_h[1:] - f_h[:-1]
    div_q = f_q_left[1:] - f_q_right[:-1]
    return div_h, div_q


def _settle(h: np.ndarray, q: np.ndarray, h_dry: float):
    """Clear roundoff-negative depths and the momentum of dry cells.

    The scheme is nonnegativity preserving in exact arithmetic; anything
    below -1e3 eps of the depth scale indicates a genuine CFL or flux bug and
    is reported instead of masked.
    """
    floor = -1e-13 * max(1.0, float(h.max(initial=0.0)))
    if not (h >= floor).all():  # NaN fails too
        raise FloatingPointError(f"negative depth {float(np.min(h)):g} after update")
    h = np.maximum(h, 0.0)
    q = np.where(h >= h_dry, q, 0.0)
    return h, q


def _sv_update(state: SWState, dt: float, lam: float, dh: np.ndarray | None) -> SWState:
    """Transport step, plus the nudging source lam dt (dh, u dh) unless dh is
    None, then the depth settle."""
    u = state.velocity
    _check_cfl(state, u, lam, dt)
    sigma = dt / state.grid.dx
    div_h, div_q = _flux_divergence(state, u)
    h = state.h - sigma * div_h
    q = state.q - sigma * div_q
    if dh is not None:
        h = h + lam * dt * dh
        q = q + lam * dt * u * dh
    h, q = _settle(h, q, state.h_dry)
    return replace(state, h=h, q=q)


def sv_forward_step(state: SWState, dt: float) -> SWState:
    """One conservative step of the forward (unassimilated) scheme."""
    return _sv_update(state, dt, 0.0, None)


def sv_observer_step(
    state: SWState,
    obs_h: np.ndarray | None,
    lam: float,
    dt: float,
    dh: np.ndarray | None = None,
) -> SWState:
    """Transport step plus the nudging source of a depth observation.

    ``obs_h`` holds the observed depth per cell with NaN marking cells
    outside the observation mask; masked cells receive no source.  The source
    is applied in the same explicit update as the transport, matching the
    convex-combination structure that yields the discrete energy inequality.

    ``dh`` replaces the depth innovation obs_h - H (``obs_h`` is then
    ignored): the mollified gain passes the kernel-weighted mean of several
    innovations, each against the observer's depth at its observation time,
    with ``lam`` the total weighted gain.
    """
    if dh is None:
        obs_h = np.asarray(obs_h, dtype=float)
        observed = np.isfinite(obs_h)
        if np.any(obs_h[observed] < 0.0):
            raise ValueError("observed depths must be nonnegative")
        dh = np.where(observed, obs_h - state.h, 0.0)
    return _sv_update(state, dt, lam, dh)


def cell_energy(state: SWState, include_topography: bool = False) -> np.ndarray:
    """Macroscopic energy H u^2/2 + g H^2/2 (+ g H z_b) per cell."""
    u = state.velocity
    e = 0.5 * state.h * u * u + 0.5 * state.g * state.h * state.h
    if include_topography:
        e = e + state.g * state.h * state.z_b
    return e


def total_energy(state: SWState, include_topography: bool = True) -> float:
    return float(np.sum(cell_energy(state, include_topography)) * state.grid.dx)


def energy_budget(
    state: SWState,
    obs_h: np.ndarray | None = None,
    include_topography: bool = False,
) -> EnergyBudget:
    """Observer and observation energies per cell plus interface energy fluxes.

    The flux at interface i+1/2 is the upwind half-line energy moment of the
    reconstructed equilibria, the quantity whose telescoping sum bounds the
    total energy of the forward scheme.  The observation energy uses the
    Gibbs density built from the observed depth and the observer velocity;
    it is NaN where no observation is available.
    """
    zeta_hat = cell_energy(state, include_topography)
    zeta_tilde = None
    if obs_h is not None:
        obs_h = np.asarray(obs_h, dtype=float)
        u = state.velocity
        zeta_tilde = 0.5 * obs_h * u * u + 0.5 * state.g * obs_h * obs_h
        if include_topography:
            zeta_tilde = zeta_tilde + state.g * obs_h * state.z_b
    rec = hydrostatic_reconstruct(state)
    u_sides = _interface_pairs(state.velocity, state.grid.bc, mirror=True)
    flux = halfline_energy_moment(state.profile, rec.h_sides, u_sides, state.g, _UPWIND_SIDE)
    return EnergyBudget(zeta_hat=zeta_hat, zeta_tilde=zeta_tilde, flux=flux[0] + flux[1])


# --- benchmark setups ------------------------------------------------------


def parabolic_bowl_bathymetry(grid: Grid1D, a: float, h_m: float) -> np.ndarray:
    x = grid.centers
    mid = 0.5 * (grid.x_min + grid.x_max)
    return (h_m / a**2) * ((x - mid) ** 2 - a**2)


def thacker_setup(
    a: float,
    length: float,
    h_m: float,
    n_cells: int,
    profile: ChiProfile = ChiProfile.SEMICIRCLE,
    g: float = GRAVITY,
) -> tuple[SWState, SWState]:
    """Sloshing-bowl benchmark: truth with a planar tilted surface, observer
    at rest filling the bowl bottom.

    The truth depth is the bowl parabola shifted half a unit sideways,
    max(0, -(h_m/a^2)((x - L/2 + 1/2)^2 - a^2)), which keeps its free surface
    a straight line; both initial velocities vanish.
    """
    if a <= 0.0 or h_m <= 0.0:
        raise ValueError("bowl parameters must be positive")
    if length <= 2.0 * a:
        raise ValueError("domain must be longer than the bowl diameter")
    grid = Grid1D(n_cells, 0.0, length, BoundaryKind.REFLECTIVE_WALL)
    z_b = parabolic_bowl_bathymetry(grid, a, h_m)
    x = grid.centers
    mid = 0.5 * length
    h_truth = np.maximum(0.0, -(h_m / a**2) * ((x - mid + 0.5) ** 2 - a**2))
    h_obs = np.maximum(0.0, -z_b)
    zeros = np.zeros(n_cells)
    truth = SWState(h_truth, zeros.copy(), z_b, grid, profile, g)
    observer = SWState(h_obs, zeros.copy(), z_b, grid, profile, g)
    return truth, observer


def lake_at_rest_state(
    grid: Grid1D,
    z_b: np.ndarray,
    eta: float,
    profile: ChiProfile = ChiProfile.SEMICIRCLE,
    g: float = GRAVITY,
) -> SWState:
    """Still water of surface level eta over the given bathymetry."""
    h = np.maximum(0.0, eta - np.asarray(z_b, dtype=float))
    return SWState(h, np.zeros(grid.n_cells), z_b, grid, profile, g)


def dam_break_state(
    grid: Grid1D,
    h_left: float,
    h_right: float,
    x_split: float,
    profile: ChiProfile = ChiProfile.SEMICIRCLE,
    g: float = GRAVITY,
) -> SWState:
    """Flat-bottom dam break: depth h_left below x_split, h_right above."""
    h = np.where(grid.centers < x_split, h_left, h_right).astype(float)
    zeros = np.zeros(grid.n_cells)
    return SWState(h, zeros.copy(), zeros.copy(), grid, profile, g)
