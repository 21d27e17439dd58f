"""Kinetic finite-volume solver for the 1D Saint-Venant system.

The scheme tracks cell averages of depth H and discharge q = H u.  Interface
fluxes are exact half-line moments of Gibbs equilibria built on hydrostatically
reconstructed depths, so the update is the moment form of an upwind kinetic
transport step followed by a collapse back to Gibbs form.  On a flat bed
(every bed entry equal) the reconstruction is the identity, so both faces of
a cell carry the cell's own equilibrium: the step then evaluates the positive
half-line moments once per cell and takes the negative ones as the full
moments less the positive ones.  Consequences inherited from the kinetic form:

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
wave speed once.  The steps take a leading row axis: ``sv_forward_step`` and
``sv_observer_step`` accept a sequence of k states on one bathymetry and
advance them as one (k, n) update, with one dt and one gain per row, and each
row equals its one-row call bit for bit.  The CFL check, the settle floor and
the wave speed are per row; the successors' velocities and wave speeds are
computed once on the stack, and each row's state keeps its own row of them.

The states a step produces from one another share a workspace: the
bathymetry's interface pairs, whether it is flat, and, per stack size k, work
buffers of shape (2, k(n+1)), (k, n) and (k, n+2) that every step reuses
through ufunc ``out=``; the interfaces of the k rows lie side by side, so the
flux sees one long row.
States stacked together share one workspace from then on.  A step never returns a
work buffer; its new depths and discharges are fresh arrays.  The states of
one workspace share those buffers, so they are stepped from one thread.
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

    def __post_init__(self):
        if not (math.isfinite(self.g) and self.g > 0.0):
            raise ValueError(f"g must be positive and finite, got {self.g!r}")
        for name in ("h", "q", "z_b"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))
        n = self.grid.n_cells
        if not (self.h.shape == self.q.shape == self.z_b.shape == (n,)):
            raise ValueError("state arrays must match the grid size")
        for name, what in (("h", "water depth"), ("q", "discharge"), ("z_b", "bed elevation")):
            values = getattr(self, name)
            finite = np.isfinite(values)
            if not finite.all():
                cell = int(np.argmin(finite))
                raise ValueError(f"{what} {name} must be finite, got {values[cell]} in cell {cell}")
        if not (self.h >= 0.0).all():
            raise ValueError(
                f"water depth h must be nonnegative, got min {np.min(self.h)}"
            )

    @cached_property
    def velocity(self) -> np.ndarray:
        """q / H on wet cells, zero on cells below the dry threshold."""
        u = np.maximum(self.h, DRY_DEPTH)
        np.divide(self.q, u, out=u)
        np.copyto(u, 0.0, where=self.h < DRY_DEPTH)  # h is never NaN
        return _read_only(u)

    @cached_property
    def max_wave_speed(self) -> float:
        """max |u| + w_chi c over the cells, at least the dry-threshold speed."""
        return _max_wave_speeds([self], self.h, self.velocity)[0]

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

    def _successor(self, h: np.ndarray, q: np.ndarray, u: np.ndarray,
                   work: _Workspace) -> "SWState":
        """The state (h, q) of velocity u on this bathymetry and the
        workspace ``work``, built without the checks: only for read-only
        depths ``_settle`` has just proven finite and nonnegative, on this
        grid."""
        new = object.__new__(SWState)
        new.__dict__.update(h=h, q=q, z_b=self.z_b, grid=self.grid, profile=self.profile,
                            g=self.g, velocity=u, _work=work)
        return new


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _max_wave_speeds(states, h: np.ndarray, u: np.ndarray) -> list[float]:
    """The wave speed of each of ``states``, whose depths and velocities are
    the rows of the (k, n) stacks h and u (or h and u of one state)."""
    # Maximum over every cell: a dry cell (u = 0, h < DRY_DEPTH) is slower than
    # the dry-threshold speed and no wet cell is, so this is the maximum over
    # the wet cells, or the threshold speed when none is wet.
    first = states[0]
    w = first.profile.support_halfwidth
    c = np.multiply(first.g, h)
    np.multiply(c, 0.5, out=c)  # halving by * 0.5 is exact
    np.sqrt(c, out=c)
    np.multiply(w, c, out=c)
    speed = np.abs(u)
    np.add(speed, c, out=speed)
    floor = w * math.sqrt(first.g * DRY_DEPTH / 2.0)
    return [max(top, floor) for top in speed.reshape(len(states), -1).max(axis=1).tolist()]


def _grow(pool: list, shape: tuple):
    """New buffers, each appended to ``pool`` as it is handed out."""
    while True:
        pool.append(np.empty(shape))
        yield pool[-1]


class _Workspace:
    """What the steps of states on one bathymetry share: its interface pairs
    with z_int = max(z_L, z_R), whether it is flat, and work buffers for each
    stack size.

    The interfaces of a stack of k rows lie side by side, k blocks of n+1
    (``_interface_pairs``), so every interface buffer is a (2, k(n+1))
    array and the flux sees one long row.  ``begin(k)`` starts a step of k
    rows: ``wide`` then hands out those buffers, ``cells`` the (k, n) cell
    buffers and ``ghosted`` the (k, n+2) buffers of the cells with their
    ghosts (the flat-bed flux), each from the first one of that size again.
    A buffer lives until the next ``begin`` of its size.  ``bed`` gives the
    bathymetry's pairs repeated for k rows.  ``flat`` holds when every bed
    entry is exactly equal: the reconstruction is then the identity.
    """

    def __init__(self, z_b: np.ndarray, bc: BoundaryKind):
        z_cells = _interface_pairs(z_b, bc)
        self.n = z_b.size
        self.flat = bool((z_b == z_b[0]).all())
        self._beds = {1: (z_cells, np.maximum(z_cells[0], z_cells[1]))}
        self._pools = {}

    def bed(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(z_cells, z_int) of k rows, the one row's repeated."""
        if k not in self._beds:
            self._beds[k] = tuple(np.tile(z, k) for z in self._beds[1])
        return self._beds[k]

    def begin(self, k: int) -> _Workspace:
        wide, cells, ghosted = self._pools.setdefault(k, ([], [], []))
        self.wide = chain(wide, _grow(wide, (2, k * (self.n + 1)))).__next__
        self.cells = chain(cells, _grow(cells, (k, self.n))).__next__
        self.ghosted = chain(ghosted, _grow(ghosted, (k, self.n + 2))).__next__
        return self


class _Rows:
    """k states on one bathymetry, stepped as one: their depths, discharges
    and velocities as (k, n) stacks, read by the step where it would read a
    state.  The states share one workspace from then on, and the step is
    begun on its buffers of size k."""

    def __init__(self, states):
        self.states = states = tuple(states)
        if not states:
            raise ValueError("a step needs at least one state")
        first = states[0]
        work = first._work
        for state in states[1:]:
            if state.__dict__.get("_work") is not work:
                if not _same_bed(first, state):
                    raise ValueError("stacked states must share their grid, bathymetry, "
                                     "profile and g")
                state.__dict__["_work"] = work
        self.grid, self.profile, self.g = first.grid, first.profile, first.g
        self._work = work.begin(len(states))
        if len(states) == 1:  # the state's own arrays, as one row
            self.h, self.q, self.velocity = first.h[None], first.q[None], first.velocity[None]
            return
        self.h, self.q, self.velocity = work.cells(), work.cells(), work.cells()
        for r, state in enumerate(states):
            self.h[r], self.q[r], self.velocity[r] = state.h, state.q, state.velocity


def _same_bed(a: SWState, b: SWState) -> bool:
    """Whether a and b can be rows of one stack: one grid, bathymetry,
    profile and g."""
    return (a.grid, a.profile, a.g) == (b.grid, b.profile, b.g) and (
        np.array_equal(a.z_b, b.z_b)
    )


@dataclass
class InterfaceReconstruction:
    """Hydrostatically reconstructed interface depths, one column per
    interface (boundary interfaces included via ghost cells); row 0 is the
    left (minus) side of each interface, row 1 the right (plus) side."""

    h_sides: np.ndarray  # (2, n+1) reconstructed depths, (2, k(n+1)) for k rows
    h_cells: np.ndarray  # (2, n+1) depths of the cells either side, likewise


# positive half-line (xi >= 0) on the left side of an interface, negative on
# the right: the upwind split of the kinetic flux
_UPWIND_SIDE = np.array([[True], [False]])


@dataclass
class EnergyBudget:
    """Per-cell energies and per-interface energy fluxes."""

    zeta_hat: np.ndarray
    zeta_tilde: np.ndarray | None
    flux: np.ndarray


def _ghosts(a: np.ndarray, bc: BoundaryKind, mirror: bool):
    """The (left, right) ghost cells of each row of ``a``: a wall repeats
    the end cells, with the sign flipped under ``mirror`` (velocity); a
    periodic domain wraps."""
    first, last = a[..., 0], a[..., -1]
    if bc is BoundaryKind.REFLECTIVE_WALL:
        return (-first, -last) if mirror else (first, last)
    if bc is BoundaryKind.PERIODIC:
        return last, first
    raise ValueError(
        "shallow-water solver supports reflective_wall and periodic boundaries"
    )


def _interface_pairs(a: np.ndarray, bc: BoundaryKind, mirror: bool = False,
                     out: np.ndarray | None = None) -> np.ndarray:
    """(2, n+1) values of the cells left (row 0) and right (row 1) of every
    interface, ghost cells included; for the k rows of a (k, n) stack, their
    k blocks of n+1 interfaces side by side, (2, k(n+1)).  ``mirror`` flips
    the sign of the wall ghosts (velocity).  Written into ``out`` when
    given."""
    n = a.shape[-1]
    if out is None:
        out = np.empty((2, a.size // n * (n + 1)))
    pairs = out.reshape(2, -1, n + 1)
    pairs[0, :, 1:] = a
    pairs[1, :, :-1] = a
    pairs[0, :, 0], pairs[1, :, -1] = _ghosts(a, bc, mirror)
    return out


def _with_ghosts(a: np.ndarray, bc: BoundaryKind, mirror: bool = False, *,
                 out: np.ndarray) -> np.ndarray:
    """The rows of the (k, n) stack ``a`` with their two ghost cells, written
    into the (k, n+2) buffer ``out``; ``mirror`` as in ``_interface_pairs``."""
    out[:, 1:-1] = a
    out[:, 0], out[:, -1] = _ghosts(a, bc, mirror)
    return out


def hydrostatic_reconstruct(state: SWState, *, take=None) -> InterfaceReconstruction:
    """Interface depths limited by the higher of the two neighbouring bottoms,
    truncated at zero so reconstructed depths stay admissible.

    ``take`` supplies buffers for the result (a step's work buffers, of
    shape (2, k(n+1)) when ``state`` is a step's stack of k rows); by
    default the arrays are fresh.
    """
    z_cells, z_int = state._work.bed(state.h.size // state.grid.n_cells)
    take = take or _fresh_buffers(z_cells)
    h_cells = _interface_pairs(state.h, state.grid.bc, out=take())
    h_sides = np.add(h_cells, z_cells, out=take())
    np.subtract(h_sides, z_int, out=h_sides)
    np.maximum(0.0, h_sides, out=h_sides)
    return InterfaceReconstruction(h_sides, h_cells)


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
    The results are fresh arrays.
    """
    u = np.empty_like(rec.h_sides)
    u[0], u[1] = u_left, u_right
    return _interface_flux(rec, u, profile, g, _fresh_buffers(u))


def _interface_flux(rec: InterfaceReconstruction, u: np.ndarray, profile: ChiProfile,
                    g: float, take) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sv_interface_flux`` on the velocities ``u`` of the left (row 0) and
    right (row 1) sides, as one array of the reconstruction's shape.

    Every operation acts entry by entry, so the interfaces of a step's k
    rows go through as one long row of k(n+1).  ``take`` supplies buffers of
    that shape for every intermediate and result (a step's work buffers).
    """
    h = rec.h_sides
    c = np.multiply(0.5 * g, h, out=take())  # halving g is exact: the bits of g h / 2
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


def _check_cfl(states, lam: list[float], dt: list[float]):
    """Each state's step dt against its CFL bound at its gain lam."""
    for state, lam_r, dt_r in zip(states, lam, dt):
        bound = _cfl_bound(state, lam_r, 1.0)
        if not dt_r <= bound * _CFL_TOL:  # a NaN dt or bound fails too
            raise ValueError(f"dt={dt_r:g} violates the CFL bound {bound:g}")


def _flux_divergence(rows: _Rows, work: _Workspace):
    """The (k, n) differences of the mass and momentum fluxes across each
    cell of the rows, in work buffers."""
    if work.flat:
        return _flat_flux_divergence(rows, work)
    u_sides = _interface_pairs(rows.velocity, rows.grid.bc, mirror=True, out=work.wide())
    fluxes = _interface_flux(hydrostatic_reconstruct(rows, take=work.wide), u_sides,
                             rows.profile, rows.g, work.wide)
    # the k blocks of n+1 interfaces, one row each
    f_h, f_q_left, f_q_right = (f.reshape(len(rows.h), -1) for f in fluxes)
    div_h = np.subtract(f_h[:, 1:], f_h[:, :-1], out=work.cells())
    div_q = np.subtract(f_q_left[:, 1:], f_q_right[:, :-1], out=work.cells())
    return div_h, div_q


def _flat_flux_divergence(rows: _Rows, work: _Workspace):
    """``_flux_divergence`` on a flat bed, one kernel call per cell.

    The reconstruction is the identity and the hydrostatic correction zero,
    so both faces of a cell carry its own Gibbs equilibrium: the kernel
    gives the positive half-line moments P+ of the n+2 cells of each row
    (ghosts included), the negative ones are the full moments less P+, and
    the flux across i+1/2 is P+_i + (full - P+)_(i+1).  The full moments
    h u and h (u^2 + c^2) are the kernel's own sums at J = J_full, so a side
    whose particles all move one way gets an exact zero on the other.
    """
    bc = rows.grid.bc
    h = _with_ghosts(rows.h, bc, out=work.ghosted())
    u = _with_ghosts(rows.velocity, bc, mirror=True, out=work.ghosted())
    c = np.multiply(0.5 * rows.g, h, out=work.ghosted())
    np.sqrt(c, out=c)
    c2 = np.multiply(c, c, out=work.ghosted())
    full_q = np.multiply(u, u, out=work.ghosted())
    np.add(full_q, c2, out=full_q)
    np.multiply(h, full_q, out=full_q)
    full_h = np.multiply(h, u, out=c2)  # c2 is spent
    fluxes = upwind_mass_momentum(rows.profile, h, u, c, True, take=work.ghosted)
    div = []
    for full, positive in zip((full_h, full_q), fluxes):
        negative = np.subtract(full, positive, out=full)
        f = np.add(positive[:, :-1], negative[:, 1:], out=positive[:, :-1])
        div.append(np.subtract(f[:, 1:], f[:, :-1], out=work.cells()))
    return tuple(div)


def _settle(h: np.ndarray, q: np.ndarray):
    """Clear roundoff-negative depths and the momentum of dry cells of each
    row of the (k, n) stacks h and q; the results are fresh arrays.

    The scheme is nonnegativity preserving in exact arithmetic; anything
    below -1e3 eps of a row's depth scale indicates a genuine CFL or flux bug
    and is reported, with that row's minimum, instead of masked.  So is an
    infinite depth, which would hide below no floor.
    """
    for low, top in zip(h.min(axis=1).tolist(), h.max(axis=1, initial=0.0).tolist()):
        if not low >= -1e-13 * max(1.0, top):  # NaN fails too
            raise FloatingPointError(f"negative depth {low:g} after update")
        if top == math.inf:
            raise FloatingPointError("infinite depth after update")
    h = np.maximum(h, 0.0)
    q = np.where(h >= DRY_DEPTH, q, 0.0)
    return h, q


def _sv_update(rows: _Rows, dt, lam, dh: np.ndarray | None) -> list[SWState]:
    """Transport step of each row over its dt, plus the nudging source
    lam dt (dh, u dh) at its gain lam unless dh is None, then the depth
    settle; the successors of the rows' states.  ``dt`` and ``lam`` hold one
    float per row."""
    work, states = rows._work, rows.states
    _check_cfl(states, lam, dt)
    dt, lam = np.array(dt)[:, None], np.array(lam)[:, None]  # columns, one value per row
    sigma = dt / rows.grid.dx
    h, q = _flux_divergence(rows, work)
    np.multiply(sigma, h, out=h)
    np.subtract(rows.h, h, out=h)
    np.multiply(sigma, q, out=q)
    np.subtract(rows.q, q, out=q)
    if dh is not None:
        source = np.multiply(lam * dt, dh, out=work.cells())
        np.add(h, source, out=h)
        np.multiply(lam * dt, rows.velocity, out=source)
        np.multiply(source, dh, out=source)
        np.add(q, source, out=q)
    h, q = _settle(h, q)
    # the velocity: dry cells need no zeroing, their settled q is +0.0
    u = np.maximum(h, DRY_DEPTH)
    np.divide(q, u, out=u)
    h.flags.writeable = q.flags.writeable = u.flags.writeable = False
    new = [state._successor(h[r], q[r], u[r], work) for r, state in enumerate(states)]
    for state, speed in zip(new, _max_wave_speeds(new, h, u)):
        state.__dict__["max_wave_speed"] = speed
    return new


def _per_row(values, k: int) -> list[float]:
    """``values``, one per row of k or one for all of them, as k floats."""
    if isinstance(values, (int, float, np.number)):
        return [float(values)] * k
    values = [float(v) for v in values]
    if len(values) != k:
        raise ValueError(f"{len(values)} values for a stack of {k} rows")
    return values


def sv_forward_step(state, dt):
    """One conservative step of the forward (unassimilated) scheme.

    ``state`` is one state, or a sequence of k states on one bathymetry
    stepped as one (k, n) update into a list of k successors; ``dt`` is then
    one step per row, or one for all of them.  Each row equals its one-row
    step bit for bit.
    """
    if isinstance(state, SWState):
        return _sv_update(_Rows((state,)), (dt,), (0.0,), None)[0]
    rows = _Rows(state)
    return _sv_update(rows, _per_row(dt, len(rows.states)), [0.0] * len(rows.states), None)


def sv_observer_step(
    state,
    obs_h: np.ndarray | None,
    lam,
    dt,
    dh: np.ndarray | None = None,
):
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

    ``state`` may be a sequence of k states stepped as one (k, n) update, as
    in ``sv_forward_step``, with ``lam`` and ``dt`` one per row or one for
    all; ``obs_h`` and ``dh`` are one field for all rows or one per row.  A
    row at gain 0 takes the forward step (up to the sign of a zero).
    """
    single = isinstance(state, SWState)
    rows = _Rows((state,) if single else state)
    k = len(rows.states)
    if dh is None:
        obs_h = np.asarray(obs_h, dtype=float)
        observed = np.isfinite(obs_h)
        if (observed & (obs_h < 0.0)).any():
            raise ValueError("observed depths must be nonnegative")
        dh = np.subtract(obs_h, rows.h, out=rows._work.cells())
        np.copyto(dh, 0.0, where=~observed)
    new = _sv_update(rows, (dt,) if single else _per_row(dt, k),
                     (lam,) if single else _per_row(lam, k), dh)
    return new[0] if single else new


def cell_energy(state: SWState, include_topography: bool = False) -> np.ndarray:
    """Macroscopic energy H u^2/2 + g H^2/2 (+ g H z_b) per cell."""
    u = state.velocity
    e = 0.5 * state.h * u * u + 0.5 * state.g * state.h * state.h
    if include_topography:
        e = e + state.g * state.h * state.z_b
    return e


def total_energy(state: SWState) -> float:
    """The energy of ``state``, its bed's potential energy included."""
    return float(np.sum(cell_energy(state, include_topography=True)) * state.grid.dx)


def energy_budget(state: SWState, obs_h: np.ndarray | None = None) -> EnergyBudget:
    """Observer and observation energies per cell plus interface energy fluxes.

    The flux at interface i+1/2 is the upwind half-line energy moment of the
    reconstructed equilibria, the quantity whose telescoping sum bounds the
    total energy of the forward scheme.  The observation energy uses the
    Gibbs density built from the observed depth and the observer velocity;
    it is NaN where no observation is available.  Neither energy holds the
    bed's potential energy g H z_b.
    """
    zeta_hat = cell_energy(state)
    zeta_tilde = None
    if obs_h is not None:
        obs_h = np.asarray(obs_h, dtype=float)
        u = state.velocity
        zeta_tilde = 0.5 * obs_h * u * u + 0.5 * state.g * obs_h * obs_h
    rec = hydrostatic_reconstruct(state)
    u_sides = _interface_pairs(state.velocity, state.grid.bc, mirror=True)
    flux = halfline_energy_moment(state.profile, rec.h_sides, u_sides, state.g, _UPWIND_SIDE)
    return EnergyBudget(zeta_hat=zeta_hat, zeta_tilde=zeta_tilde, flux=flux[0] + flux[1])


# --- benchmark setups ------------------------------------------------------


def parabolic_bowl_bathymetry(grid: Grid1D, a: float, h_m: float) -> np.ndarray:
    """Bed of the bowl of half-width a and depth h_m centred on the domain:
    (h_m / a^2)((x - mid)^2 - a^2), at -h_m in the middle and 0 at x = mid +- a."""
    if not a > 0.0:
        raise ValueError(f"bowl half-width a must be positive, got {a!r}")
    if not h_m > 0.0:
        raise ValueError(f"bowl depth h_m must be positive, got {h_m!r}")
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
