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

A state is immutable, arrays included, and computes its velocity and CFL
wave speed once.  The states a step produces from one another share a
workspace: the bathymetry's interface pairs and work buffers that every step
reuses through ufunc ``out=``.  A step never returns a work buffer; its new
depth and discharge are fresh arrays.  The states of one chain share those
buffers, so they are stepped from one thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .grid import BoundaryKind, Grid1D
from .kinetic import (
    GRAVITY,
    ChiProfile,
    _fresh_buffers,
    halfline_energy_moment,
    upwind_mass_momentum,
)

DRY_DEPTH = 1e-8
_CFL_TOL = 1.0 + 1e-12


@dataclass(frozen=True)
class SWState:
    """Cell-averaged shallow-water state over a fixed bathymetry.

    Immutable: the state holds read-only copies of its arrays, and
    ``dataclasses.replace`` derives a changed state (and checks it again).
    ``velocity`` and ``max_wave_speed`` are computed on first use and kept.
    """

    h: np.ndarray
    q: np.ndarray
    z_b: np.ndarray
    grid: Grid1D
    profile: ChiProfile = ChiProfile.SEMICIRCLE
    g: float = GRAVITY
    h_dry: float = DRY_DEPTH

    def __post_init__(self):
        for name in ("h", "q", "z_b"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))
        n = self.grid.n_cells
        if not (self.h.shape == self.q.shape == self.z_b.shape == (n,)):
            raise ValueError("state arrays must match the grid size")
        if not (self.h >= 0.0).all():  # NaN fails too
            raise ValueError(
                f"water depth h must be nonnegative, got min {np.min(self.h)}"
            )

    @cached_property
    def velocity(self) -> np.ndarray:
        """q / H on wet cells, zero on cells below the dry threshold."""
        u = np.maximum(self.h, self.h_dry)
        np.divide(self.q, u, out=u)
        np.copyto(u, 0.0, where=self.h < self.h_dry)  # h is never NaN
        return _read_only(u)

    @cached_property
    def max_wave_speed(self) -> float:
        """max |u| + w_chi c over the cells, at least the dry-threshold speed."""
        return _max_wave_speed(self)

    @cached_property
    def _work(self) -> _Workspace:
        return _Workspace(self.z_b, self.grid.bc)

    @property
    def surface(self) -> np.ndarray:
        return self.h + self.z_b

    def mass(self) -> float:
        return float(np.sum(self.h) * self.grid.dx)

    def copy(self) -> "SWState":
        """The same state, checked again."""
        return replace(self)

    def _successor(self, h: np.ndarray, q: np.ndarray) -> "SWState":
        """The state (h, q) on this bathymetry and workspace, built without
        the checks: only for depths ``_settle`` has just proven finite and
        nonnegative, on this grid."""
        new = object.__new__(SWState)
        new.__dict__.update(h=_read_only(h), q=_read_only(q), z_b=self.z_b, grid=self.grid,
                            profile=self.profile, g=self.g, h_dry=self.h_dry, _work=self._work)
        return new


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _max_wave_speed(state: SWState) -> float:
    # Maximum over every cell: a dry cell (u = 0, h < h_dry) is slower than
    # the dry-threshold speed and no wet cell is, so this is the maximum over
    # the wet cells, or the threshold speed when none is wet.
    w = state.profile.support_halfwidth
    c = np.multiply(state.g, state.h)
    np.multiply(c, 0.5, out=c)  # halving by * 0.5 is exact
    np.sqrt(c, out=c)
    np.multiply(w, c, out=c)
    speed = np.abs(state.velocity)
    np.add(speed, c, out=speed)
    return max(float(speed.max()), w * math.sqrt(state.g * state.h_dry / 2.0))


def _grow(pool: list, shape: tuple):
    """New buffers, each appended to ``pool`` as it is handed out."""
    while True:
        pool.append(np.empty(shape))
        yield pool[-1]


class _Workspace:
    """What the steps of one chain of states share: the bathymetry's
    interface pairs with z_int = max(z_L, z_R), and work buffers.

    ``begin`` starts a step: ``wide`` then hands out the (2, n+1) interface
    buffers and ``cells`` the (n,) cell buffers, each from the first one
    again.  A buffer lives until the next ``begin``.
    """

    def __init__(self, z_b: np.ndarray, bc: BoundaryKind):
        self.z_cells = _interface_pairs(z_b, bc)
        self.z_int = np.maximum(self.z_cells[0], self.z_cells[1])
        self._pools = ([], [])
        self.begin()

    def begin(self) -> _Workspace:
        wide, cells = self.z_cells.shape, (self.z_cells.shape[1] - 1,)
        self.wide = chain(self._pools[0], _grow(self._pools[0], wide)).__next__
        self.cells = chain(self._pools[1], _grow(self._pools[1], cells)).__next__
        return self


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


def _interface_pairs(a: np.ndarray, bc: BoundaryKind, mirror: bool = False,
                     out: np.ndarray | None = None) -> np.ndarray:
    """(2, n+1) values of the cells left (row 0) and right (row 1) of every
    interface, ghost cells included; ``mirror`` flips the sign of the wall
    ghosts (velocity).  Written into ``out`` when given."""
    if out is None:
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


def hydrostatic_reconstruct(state: SWState, *, take=None) -> InterfaceReconstruction:
    """Interface depths limited by the higher of the two neighbouring bottoms,
    truncated at zero so reconstructed depths stay admissible.

    ``take`` supplies (2, n+1) buffers for the result (a step's work
    buffers); by default the arrays are fresh.
    """
    work = state._work
    take = take or _fresh_buffers(work.z_cells)
    h_cells = _interface_pairs(state.h, state.grid.bc, out=take())
    h_sides = np.add(h_cells, work.z_cells, out=take())
    np.subtract(h_sides, work.z_int, out=h_sides)
    np.maximum(0.0, h_sides, out=h_sides)
    return InterfaceReconstruction(h_sides, h_cells)


def sv_interface_flux(
    rec: InterfaceReconstruction,
    u_left: np.ndarray,
    u_right: np.ndarray,
    profile: ChiProfile,
    g: float = GRAVITY,
    *,
    take=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kinetic interface fluxes (mass, momentum-left, momentum-right).

    Both sides of every interface go through one partial-moment evaluation,
    which yields the mass (power 1) and momentum (power 2) half-line moments.
    The mass flux is shared by both neighbouring cells.  The momentum flux
    carries a side-specific hydrostatic correction g/2 (H_cell^2 - H_rec^2);
    written on the interface depths it is the usual g dz/2 (H_cell + H_rec)
    topography term, but this form stays exactly balanced for still water
    even when the nonnegativity truncation is active at a wet/dry front.

    ``take`` supplies (2, n+1) buffers for every intermediate and result (a
    step's work buffers); by default the arrays are fresh.
    """
    h = rec.h_sides
    take = take or _fresh_buffers(h)
    u = take()
    u[0], u[1] = u_left, u_right
    c = np.multiply(g, h, out=take())
    np.multiply(c, 0.5, out=c)  # halving by * 0.5 is exact
    np.sqrt(c, out=c)
    mass, momentum = upwind_mass_momentum(profile, h, u, c, _UPWIND_SIDE, take=take)
    f_q = np.add(momentum[0], momentum[1], out=momentum[0])
    f_q_sides = np.square(rec.h_cells, out=take())
    np.subtract(f_q_sides, np.square(h, out=c), out=f_q_sides)  # c is spent
    np.multiply(0.5 * g, f_q_sides, out=f_q_sides)
    np.add(f_q, f_q_sides, out=f_q_sides)
    return np.add(mass[0], mass[1], out=mass[0]), f_q_sides[0], f_q_sides[1]


def _cfl_bound(state: SWState, lam: float, safety: float) -> float:
    dx = state.grid.dx
    return safety * dx / (lam * dx + state.max_wave_speed)


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
    return _cfl_bound(state, lam, safety)


def _check_cfl(state: SWState, lam: float, dt: float):
    bound = _cfl_bound(state, lam, 1.0)
    if not dt <= bound * _CFL_TOL:  # a NaN dt or bound fails too
        raise ValueError(f"dt={dt:g} violates the CFL bound {bound:g}")


def _flux_divergence(state: SWState, work: _Workspace):
    u_sides = _interface_pairs(state.velocity, state.grid.bc, mirror=True, out=work.wide())
    f_h, f_q_left, f_q_right = sv_interface_flux(
        hydrostatic_reconstruct(state, take=work.wide), u_sides[0], u_sides[1],
        state.profile, state.g, take=work.wide,
    )
    div_h = np.subtract(f_h[1:], f_h[:-1], out=work.cells())
    div_q = np.subtract(f_q_left[1:], f_q_right[:-1], out=work.cells())
    return div_h, div_q


def _settle(h: np.ndarray, q: np.ndarray, h_dry: float):
    """Clear roundoff-negative depths and the momentum of dry cells; the
    results are fresh arrays.

    The scheme is nonnegativity preserving in exact arithmetic; anything
    below -1e3 eps of the depth scale indicates a genuine CFL or flux bug and
    is reported instead of masked.
    """
    floor = -1e-13 * max(1.0, float(h.max(initial=0.0)))
    if not h.min() >= floor:  # NaN fails too
        raise FloatingPointError(f"negative depth {float(np.min(h)):g} after update")
    h = np.maximum(h, 0.0)
    q = np.where(h >= h_dry, q, 0.0)
    return h, q


def _sv_update(state: SWState, work: _Workspace, dt: float, lam: float,
               dh: np.ndarray | None) -> SWState:
    """Transport step, plus the nudging source lam dt (dh, u dh) unless dh is
    None, then the depth settle."""
    _check_cfl(state, lam, dt)
    sigma = dt / state.grid.dx
    h, q = _flux_divergence(state, work)
    np.multiply(sigma, h, out=h)
    np.subtract(state.h, h, out=h)
    np.multiply(sigma, q, out=q)
    np.subtract(state.q, q, out=q)
    if dh is not None:
        source = np.multiply(lam * dt, dh, out=work.cells())
        np.add(h, source, out=h)
        np.multiply(lam * dt, state.velocity, out=source)
        np.multiply(source, dh, out=source)
        np.add(q, source, out=q)
    return state._successor(*_settle(h, q, state.h_dry))


def sv_forward_step(state: SWState, dt: float) -> SWState:
    """One conservative step of the forward (unassimilated) scheme."""
    return _sv_update(state, state._work.begin(), dt, 0.0, None)


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
    ignored): the twin driver passes the weighted mean of its innovation
    terms (under the mollified gain, several, each against the observer's
    depth at its observation time), with ``lam`` the gain times their total
    weight.
    """
    work = state._work.begin()
    if dh is None:
        obs_h = np.asarray(obs_h, dtype=float)
        observed = np.isfinite(obs_h)
        if (observed & (obs_h < 0.0)).any():
            raise ValueError("observed depths must be nonnegative")
        dh = np.subtract(obs_h, state.h, out=work.cells())
        np.copyto(dh, 0.0, where=~observed)
    return _sv_update(state, work, dt, lam, dh)


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
