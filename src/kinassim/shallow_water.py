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

A state (``SWState``) is immutable, arrays included, and computes its
velocity and CFL wave speed once.  The steps work on rows (``_Rows``): k
states on one bathymetry as one read-only (3, k, n) array of their depths,
discharges and velocities, with the k wave speeds beside it.  A step writes
the successors of its rows into one fresh array and computes their
velocities and wave speeds once on it; the ghost cells, the update and the
nudging source each act on two fields of every row in one call, and the
settle checks all rows at once.  Each row equals its one-row step bit for
bit, and the CFL check, the settle floor and the wave speed are per row.
``sv_forward_step`` and ``sv_observer_step`` take one state and return its
successor, a step of one row; the twin driver carries rows from step to step
and builds states only where it hands them out.

What the steps on one bathymetry share is a ``_Bed``: the bed's interface
pairs, whether it is flat, its CFL bound formula, and per stack size k a
``_Stack`` that binds its step once.  It holds every buffer of the step (the
cells with their ghosts, the interface sides, the reconstruction, the
kernel's partial moments and recurrence, the fluxes and their differences,
the source, settle and wave-speed buffers) and the step's flux divergence as
a tuple of numpy calls on fixed views of them, the half-line kernel's among
them (``kinetic._upwind_moments``).  A warm step loads its rows into the
cells, makes those calls, and allocates only its result: no view is built,
no buffer handed out, no branch taken on the profile or the kind of bed.
The public ``hydrostatic_reconstruct`` and ``sv_interface_flux`` bind the
same calls to fresh buffers on each call.  Rows made by a step keep their
bed; states stacked together share the first one's from then on.  A step
never returns a work buffer, but the rows of one bed share those buffers,
so they are stepped from one thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import BoundaryKind, Grid1D, _refuse_infinite
from .kinetic import (
    GRAVITY,
    UPWIND_SIDES,
    ChiProfile,
    _run,
    _scalar,
    _upwind_moments,
    halfline_energy_moment,
)

DRY_DEPTH = 1e-8
_CFL_TOL = 1.0 + 1e-12
BOUNDARY_KINDS = (BoundaryKind.REFLECTIVE_WALL, BoundaryKind.PERIODIC)
_DRY, _ZERO = _scalar(DRY_DEPTH), _scalar(0.0)  # ufunc operands


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
        return _max_wave_speeds(self._bed, self.h[None], self.velocity[None])[0]

    @cached_property
    def _bed(self) -> _Bed:
        return _Bed(self)

    @property
    def surface(self) -> np.ndarray:
        return self.h + self.z_b

    def mass(self) -> float:
        return float(np.sum(self.h) * self.grid.dx)

    def copy(self) -> "SWState":
        """The same state, checked again."""
        return replace(self)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _max_wave_speeds(bed: _Bed, h: np.ndarray, u: np.ndarray, out=(None, None)) -> list[float]:
    """The wave speed of each row of the (k, n) depths h and velocities u on
    ``bed``, computed in the two (k, n) buffers ``out`` when given."""
    # Maximum over every cell: a dry cell (u = 0, h < DRY_DEPTH) is slower than
    # the dry-threshold speed and no wet cell is, so this is the maximum over
    # the wet cells, or the threshold speed when none is wet.  h (g / 2) is
    # g h / 2 to the bit on every cell of depth DRY_DEPTH or more (halving is
    # exact above the subnormals), and a dry cell stays below the floor either
    # way
    c = np.multiply(h, bed.half_g, out[0])
    np.sqrt(c, c)
    np.multiply(bed.w, c, c)
    speed = np.abs(u, out[1])
    np.add(speed, c, speed)
    floor = bed.floor
    return [max(top, floor) for top in np.maximum.reduce(speed, axis=1).tolist()]


def _same_bed(a: SWState, b: SWState) -> bool:
    """Whether a and b can be rows of one stack: one grid, bathymetry,
    profile and g."""
    return (a.grid, a.profile, a.g) == (b.grid, b.profile, b.g) and (
        np.array_equal(a.z_b, b.z_b)
    )


def _ghost_calls(g: np.ndarray, bc: BoundaryKind, sign) -> list:
    """The calls that write the ghost cells (first and last column) of the
    rows of ``g``, shaped (..., n+2), from their end cells: a wall repeats
    them times ``sign`` (-1 mirrors a velocity; a column of signs acts row by
    row), a periodic domain wraps."""
    if bc not in BOUNDARY_KINDS:
        raise ValueError(f"shallow-water solver supports "
                         f"{' and '.join(kind.value for kind in BOUNDARY_KINDS)} boundaries")
    first, last = g[..., 0], g[..., -1]
    if bc is BoundaryKind.PERIODIC:
        return [partial(np.copyto, first, g[..., -2]), partial(np.copyto, last, g[..., 1])]
    return [partial(np.multiply, g[..., 1], sign, first),
            partial(np.multiply, g[..., -2], sign, last)]


def _ghosted(a: np.ndarray, bc: BoundaryKind, sign: float = 1.0) -> np.ndarray:
    """``a`` (..., n) with its two ghost cells, a fresh (..., n+2) array."""
    g = np.empty(a.shape[:-1] + (a.shape[-1] + 2,))
    g[..., 1:-1] = a
    _run(_ghost_calls(g, bc, sign))
    return g


def _sides(g: np.ndarray) -> np.ndarray:
    """The read-only view of the cells left and right of every interface of
    the rows of ``g`` (..., k, n+2), ghost cells included: (..., 2, k, n+1),
    the left side first; (2, n+1) for one row (n+2,)."""
    pairs = sliding_window_view(g, 2, axis=-1)
    return np.moveaxis(pairs, -1, max(g.ndim - 2, 0))


@dataclass
class InterfaceReconstruction:
    """Hydrostatically reconstructed interface depths, one column per
    interface (boundary interfaces included via ghost cells); row 0 is the
    left (minus) side of each interface, row 1 the right (plus) side."""

    h_sides: np.ndarray  # (2, n+1) reconstructed depths
    h_cells: np.ndarray  # (2, n+1) depths of the cells either side


@dataclass
class EnergyBudget:
    """Per-cell energies and per-interface energy fluxes."""

    zeta_hat: np.ndarray
    zeta_tilde: np.ndarray | None
    flux: np.ndarray


class _Bed:
    """What the steps of states on one grid, bathymetry, profile and g share:
    the bed's interface pairs with z_int = max(z_L, z_R), whether it is flat
    (every bed entry exactly equal: the reconstruction is then the
    identity), the wave-speed constants, the CFL bound, and one ``_Stack``
    per stack size."""

    def __init__(self, state: SWState):
        grid, z_b = state.grid, state.z_b
        self.grid, self.profile, self.g, self.z_b = grid, state.profile, state.g, z_b
        self.n, self.dx, self.bc = grid.n_cells, grid.dx, grid.bc
        self.flat = bool((z_b == z_b[0]).all())
        w = state.profile.support_halfwidth
        self.floor = w * math.sqrt(state.g * DRY_DEPTH / 2.0)
        self.half_g, self.w = _scalar(0.5 * state.g), _scalar(w)  # ufunc operands
        self._z = None
        self._stacks = {}

    @property
    def z_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(z_cells, z_int): the (2, n+1) bed either side of every interface
        and its (n+1) maximum."""
        if self._z is None:
            z_cells = _sides(_ghosted(self.z_b, self.bc))
            self._z = z_cells, np.maximum(z_cells[0], z_cells[1])
        return self._z

    def bound(self, speed: float, lam: float = 0.0, safety: float = 1.0) -> float:
        """The CFL bound safety dx / (lam dx + speed) of a row of wave speed
        ``speed`` at gain ``lam``."""
        dx = self.dx
        return safety * dx / (lam * dx + speed)

    def stack(self, k: int) -> _Stack:
        stack = self._stacks.get(k)
        if stack is None:
            stack = self._stacks[k] = _Stack(self, k)
        return stack


class _Stack:
    """A step of k rows on one bed, bound once: its constants, its work
    buffers, and the numpy calls of its flux divergence on fixed views of
    them.

    ``cells`` holds [h, q, u] of the rows with their ghost cells, (3, k,
    n+2); a step loads its input into ``rows``, the view of the rows' own
    cells, and every other call reads and writes views bound here: the
    ghost cells, the interface sides (h and u left and right of every
    interface, (2, 2, k, n+1)), the reconstruction, the kernel
    (``kinetic._upwind_moments``), the flux and its differences ``div``.
    Where it costs one copy, the operands of a call are arrays of one shape
    (the sides, the bed of every row), on which numpy takes its fast loop.
    ``sigma`` and ``lam_dt`` are the (k, 1) columns of dt / dx and lam dt,
    written in place; the nudging source, the settle and the wave speeds
    have their buffers here too.  A warm step allocates only its result.
    """

    def __init__(self, bed: _Bed, k: int):
        n = bed.n
        self.bed, self.k = bed, k
        cells = np.empty((3, k, n + 2))
        self.rows = cells[:, :, 1:-1]
        self.hq, self.u = self.rows[:2], self.rows[2]
        self.div = np.empty((2, k, n))
        self.source = np.empty((2, k, n))
        self.speeds = (np.empty((k, n)), np.empty((k, n)))
        self.dry = np.empty((k, n), dtype=bool)
        self.sigma, self.lam_dt = np.empty((k, 1)), np.empty((k, 1))
        ghosted = cells[::2]  # h and u; a wall mirrors u, not h
        calls = _ghost_calls(ghosted, bed.bc, np.array([[1.0], [-1.0]]))
        calls += (self._flat_divergence if bed.flat else self._sloped_divergence)(ghosted)
        self._divergence_calls = tuple(calls)
        self._calls = self._divergence_calls + (
            partial(np.multiply, self.sigma, self.div, self.div),)
        self._source_rows = tuple(self.source)
        self._shape = (3, k, n)

    def step(self, a: np.ndarray, speed: list, dt, lam=None, dh=None) -> _Rows:
        """The successors of the rows of ``a`` (3, k, n), of wave speeds
        ``speed``, each over its dt in ``dt`` with the nudging source
        lam dt (dh, u dh) at its gain in ``lam`` unless dh is None (then the
        forward step), and settled.  ``a`` may be ``rows``, loaded already."""
        bed, k = self.bed, self.k
        dx = bed.dx
        sigma, lam_dt = self.sigma, self.lam_dt
        for r in range(k):
            lam_r, dt_r = (0.0 if dh is None else lam[r]), dt[r]
            bound = bed.bound(speed[r], lam_r)
            if not 0.0 <= dt_r <= bound * _CFL_TOL:  # a NaN dt or bound fails too
                raise ValueError(f"dt={dt_r:g} violates the CFL bound 0 <= dt <= {bound:g}")
            sigma[r, 0] = dt_r / dx
            lam_dt[r, 0] = lam_r * dt_r
        if a is not self.rows:
            np.copyto(self.rows, a)
        for call in self._calls:
            call()
        new = np.empty(self._shape)
        hq = new[:2]
        h, q, u = new
        np.subtract(self.hq, self.div, hq)
        if dh is not None:  # lam dt dh, (lam dt u) dh
            source_h, source_q = self._source_rows
            np.multiply(lam_dt, dh, source_h)
            np.multiply(lam_dt, self.u, source_q)
            np.multiply(source_q, dh, source_q)
            np.add(hq, self.source, hq)
        _settle(h, q, self.dry)
        # the velocity: dry cells need no zeroing, their settled q is +0.0
        np.maximum(h, _DRY, out=u)
        np.divide(q, u, u)
        speeds = _max_wave_speeds(bed, h, u, self.speeds)
        new.flags.writeable = False
        return _Rows(new, speeds, bed)

    def _divergence(self, a: np.ndarray) -> np.ndarray:
        """The (2, k, n) differences of the mass and momentum fluxes across
        each cell of the rows of ``a``, in ``div``."""
        np.copyto(self.rows, a)
        _run(self._divergence_calls)
        return self.div

    def _sloped_divergence(self, ghosted: np.ndarray) -> list:
        """The calls from the ghosted h and u to ``div`` on a sloped bed:
        the reconstruction and the interface flux of every side."""
        sides = _sides(ghosted)
        copied = np.empty(sides.shape)
        h_cells, u = copied
        z_cells, z_int = (np.ascontiguousarray(np.broadcast_to(z, h_cells.shape))
                          for z in (self.bed.z_pairs[0][:, None], self.bed.z_pairs[1]))
        h = np.empty(h_cells.shape)
        f = np.empty((3,) + h.shape[1:])  # f_h, then f_q on the left and right sides
        calls = [partial(np.copyto, copied, sides)]
        calls += _reconstruct(h_cells, z_cells, z_int, h)
        calls += _interface_flux(h, h_cells, u, self.bed.profile, self.bed.g, f)
        # f_h[i+1] - f_h[i], and f_q from the left side of i+1 less f_q from
        # the right side of i
        return calls + [partial(np.subtract, f[0:2, :, 1:], f[0::2, :, :-1], self.div)]

    def _flat_divergence(self, ghosted: np.ndarray) -> list:
        """The calls of ``_divergence`` on a flat bed, one kernel evaluation
        per cell.

        The reconstruction is the identity and the hydrostatic correction
        zero, so both faces of a cell carry its own Gibbs equilibrium: the
        kernel gives the positive half-line moments P+ of the n+2 cells of
        each row (ghosts included), the negative ones are the full moments
        less P+, and the flux across i+1/2 is P+_i + (full - P+)_(i+1).  The
        full moments h u and h (u^2 + c^2) are the kernel's own sums at
        J = J_full, so a side whose particles all move one way gets an exact
        zero on the other.
        """
        bed = self.bed
        h, u = ghosted
        c, full_h, full_q = (np.empty(h.shape) for _ in range(3))
        c2 = full_h  # spent once full_q holds it
        calls = [partial(np.multiply, _scalar(0.5 * bed.g), h, c), partial(np.sqrt, c, c),
                 partial(np.multiply, c, c, c2), partial(np.multiply, u, u, full_q),
                 partial(np.add, full_q, c2, full_q), partial(np.multiply, h, full_q, full_q),
                 partial(np.multiply, h, u, full_h)]
        kernel, fluxes = _upwind_moments(bed.profile, h, u, c, (1, 2), True)
        calls += kernel
        for div, full, positive in zip(self.div, (full_h, full_q), fluxes):
            f = positive[:, :-1]
            calls += [partial(np.subtract, full, positive, full),  # the negative half-line
                      partial(np.add, f, full[:, 1:], f),
                      partial(np.subtract, f[:, 1:], f[:, :-1], div)]
        return calls


class _Rows:
    """k states on one bed as one read-only array ``a`` (3, k, n): their
    depths, discharges and velocities; ``speed`` holds their k wave
    speeds.  What the twin driver carries from step to step."""

    __slots__ = ("a", "speed", "bed")

    def __init__(self, a: np.ndarray, speed: list, bed: _Bed):
        self.a, self.speed, self.bed = a, speed, bed

    @classmethod
    def of(cls, states) -> _Rows:
        """The states ``states`` as rows; they share the first one's bed from
        then on."""
        states = tuple(states)
        if not states:
            raise ValueError("a step needs at least one state")
        first = states[0]
        bed = first._bed
        for state in states[1:]:
            if state.__dict__.get("_bed") is not bed:
                if not _same_bed(first, state):
                    raise ValueError("stacked states must share their grid, bathymetry, "
                                     "profile and g")
                state.__dict__["_bed"] = bed
        a = np.array([[s.h for s in states], [s.q for s in states],
                      [s.velocity for s in states]])
        return cls(_read_only(a), [s.max_wave_speed for s in states], bed)

    def step(self, dt, lam=None, dh=None) -> _Rows:
        """``_Stack.step`` of these rows."""
        return self.bed.stack(len(self.speed)).step(self.a, self.speed, dt, lam, dh)

    def split(self) -> list[_Rows]:
        """Each row as rows of its own."""
        a, bed = self.a, self.bed
        return [_Rows(a[:, r:r + 1], [speed], bed) for r, speed in enumerate(self.speed)]

    def state(self, r: int) -> SWState:
        """Row r as a state, built without the checks: its depths have been
        proven finite and nonnegative (``_settle``) or come from a state."""
        a, bed = self.a, self.bed
        new = object.__new__(SWState)
        new.__dict__.update(h=a[0, r], q=a[1, r], z_b=bed.z_b, grid=bed.grid,
                            profile=bed.profile, g=bed.g, velocity=a[2, r],
                            max_wave_speed=self.speed[r], _bed=bed)
        return new


def _step_pair(first: _Rows, second: _Rows, dt, lam=None, dh=None) -> list[_Rows]:
    """The one-row rows ``first`` and ``second``, on one bed, stepped as one
    two-row stack (``_Stack.step``): their successors, one row each."""
    stack = second.bed.stack(2)
    both = np.concatenate((first.a, second.a), axis=1, out=stack.rows)
    return stack.step(both, first.speed + second.speed, dt, lam, dh).split()


def hydrostatic_reconstruct(state: SWState) -> InterfaceReconstruction:
    """Interface depths limited by the higher of the two neighbouring bottoms,
    truncated at zero so reconstructed depths stay admissible.  ``h_cells``
    is a read-only view of the depths with their ghost cells."""
    h_cells = _sides(_ghosted(state.h, state.grid.bc))
    h = np.empty(h_cells.shape)
    _run(_reconstruct(h_cells, *state._bed.z_pairs, h))
    return InterfaceReconstruction(h, h_cells)


def _reconstruct(h_cells: np.ndarray, z_cells: np.ndarray, z_int: np.ndarray,
                 out: np.ndarray) -> list:
    """The calls that write max(0, H + z - z_int) on both sides of every
    interface into ``out``, from the cell depths and beds either side."""
    return [partial(np.add, h_cells, z_cells, out), partial(np.subtract, out, z_int, out),
            partial(np.maximum, _ZERO, out, out=out)]


def _interface_flux(h: np.ndarray, h_cells: np.ndarray, u: np.ndarray, profile: ChiProfile,
                    g: float, out: np.ndarray) -> list:
    """The calls of ``sv_interface_flux`` into ``out``, bound to its
    arguments and to buffers of h's shape."""
    c, half_g = np.empty(h.shape), _scalar(0.5 * g)
    calls = [partial(np.multiply, half_g, h, c),  # halving g is exact: the bits of g h / 2
             partial(np.sqrt, c, c)]
    kernel, (mass, momentum) = _upwind_moments(profile, h, u, c, (1, 2), UPWIND_SIDES)
    f_q, f_q_sides = momentum[0], out[1:]
    return calls + list(kernel) + [
        partial(np.add, momentum[0], momentum[1], f_q),
        partial(np.square, h_cells, f_q_sides),
        partial(np.square, h, c),  # c is spent
        partial(np.subtract, f_q_sides, c, f_q_sides),
        partial(np.multiply, half_g, f_q_sides, f_q_sides),
        partial(np.add, f_q, f_q_sides, f_q_sides),
        partial(np.add, mass[0], mass[1], out[0])]


def sv_interface_flux(h: np.ndarray, h_cells: np.ndarray, u: np.ndarray, profile: ChiProfile,
                      g: float = GRAVITY) -> np.ndarray:
    """Kinetic interface fluxes on the reconstructed depths ``h``, the cell
    depths ``h_cells`` and the velocities ``u`` of the left (row 0) and right
    (row 1) sides of every interface (float arrays, (2, ...) each; see
    ``hydrostatic_reconstruct``): the mass flux, then the momentum flux of
    the left and of the right side, as the rows of one (3, ...) array.

    Both sides of every interface go through one partial-moment evaluation,
    which yields the mass (power 1) and momentum (power 2) half-line moments.
    The mass flux is shared by both neighbouring cells.  The momentum flux
    carries a side-specific hydrostatic correction g/2 (H_cell^2 - H_rec^2);
    written on the interface depths it is the usual g dz/2 (H_cell + H_rec)
    topography term, but this form stays exactly balanced for still water
    even when the nonnegativity truncation is active at a wet/dry front.

    Every operation acts entry by entry, so the interfaces of k rows go
    through as one (2, k, n+1) stack: the step binds these calls once
    (``_Stack``), and a call of this function binds them to fresh buffers.
    """
    out = np.empty((3,) + h.shape[1:])
    _run(_interface_flux(h, h_cells, u, profile, g, out))
    return out


def _check_gain(lam: float) -> None:
    if not 0.0 <= lam < math.inf:  # NaN fails too
        raise ValueError(f"gain lam must be nonnegative and finite, got {lam!r}")


def sv_cfl(state: SWState, lam: float, safety: float = 0.95) -> float:
    """Stable time step min_i dx / (lam dx + |u_i| + w_chi c_i) over wet cells.

    The kinetic support speed w_chi * c bounds every particle velocity of the
    cell's equilibrium, which is what the convex-combination argument needs.
    An entirely dry state falls back to the gravity-wave speed of the dry
    threshold depth.
    """
    _check_gain(lam)
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    return state._bed.bound(state.max_wave_speed, lam, safety)


def _settle(h: np.ndarray, q: np.ndarray, dry: np.ndarray) -> None:
    """Clear roundoff-negative depths and the momentum of dry cells of each
    row of the (k, n) stacks h and q, in place; ``dry`` is a (k, n) boolean
    buffer.

    The scheme is nonnegativity preserving in exact arithmetic; anything
    below -1e3 eps of a row's depth scale indicates a genuine CFL or flux bug
    and is reported, with that row's minimum, instead of masked.  So is an
    infinite depth, which would hide below no floor.  The rows are looked at
    one by one only when some depth is negative, infinite or NaN.
    """
    low, top = np.minimum.reduce(h, None), np.maximum.reduce(h, None)
    if not (low >= 0.0 and top < math.inf):
        low, top = h.min(axis=1), h.max(axis=1, initial=0.0)
        floor = np.maximum(top, 1.0)
        floor *= -1e-13
        if not ((low >= floor).all() and (top < math.inf).all()):  # NaN fails too
            for low_r, floor_r, top_r in zip(low.tolist(), floor.tolist(), top.tolist()):
                if not low_r >= floor_r:
                    raise FloatingPointError(f"negative depth {low_r:g} after update")
                if top_r == math.inf:
                    raise FloatingPointError("infinite depth after update")
    np.maximum(h, _ZERO, out=h)
    np.putmask(q, np.less(h, _DRY, dry), 0.0)


def sv_forward_step(state: SWState, dt: float) -> SWState:
    """One conservative step of the forward (unassimilated) scheme."""
    return _Rows.of((state,)).step((dt,)).state(0)


def sv_observer_step(state: SWState, obs_h: np.ndarray, lam: float, dt: float) -> SWState:
    """Transport step plus the nudging source of a depth observation at the
    nonnegative finite gain ``lam``.

    ``obs_h`` holds the observed depth per cell with NaN marking cells
    outside the observation mask; masked cells receive no source, and an
    infinite depth is refused.  The source is applied in the same explicit
    update as the transport, matching the convex-combination structure that
    yields the discrete energy inequality.
    At gain 0 the step is the forward step (up to the sign of a zero).
    """
    _check_gain(lam)
    rows = _Rows.of((state,))
    obs_h = np.asarray(obs_h, dtype=float)
    _refuse_infinite("obs_h", obs_h)
    observed = np.isfinite(obs_h)
    if (observed & (obs_h < 0.0)).any():
        raise ValueError("observed depths must be nonnegative")
    dh = np.subtract(obs_h, rows.a[0])
    np.copyto(dh, 0.0, where=~observed)
    return rows.step((dt,), (lam,), dh).state(0)


def cell_energy(state: SWState) -> np.ndarray:
    """Macroscopic energy H u^2/2 + g H^2/2 per cell, without the bed's
    potential energy."""
    n = state.grid.n_cells
    return _cell_energy(state.h, state.velocity, state.g, None, (np.empty(n), np.empty(n)))


def _cell_energy(h, u, g: float, z_b, out) -> np.ndarray:
    """The energy H u^2/2 + g H^2/2 of the depths h and velocities u per
    cell, plus the bed's potential energy g H z_b unless z_b is None, in the
    first of the two buffers ``out`` of h's shape."""
    e, term = out
    np.multiply(0.5, h, e)
    np.multiply(e, u, e)
    np.multiply(e, u, e)
    np.multiply(0.5 * g, h, term)
    np.multiply(term, h, term)
    np.add(e, term, e)
    if z_b is not None:
        np.multiply(g, h, term)
        np.multiply(term, z_b, term)
        np.add(e, term, e)
    return e


def total_energy(state: SWState) -> float:
    """The energy of ``state``, its bed's potential energy included."""
    n = state.grid.n_cells
    return _total_energy(state._bed, state.h, state.velocity, (np.empty(n), np.empty(n)))


def _total_energy(bed: _Bed, h, u, out) -> float:
    """``total_energy`` of the depths h and velocities u on ``bed``, in the
    two buffers ``out`` of h's shape."""
    return float(np.sum(_cell_energy(h, u, bed.g, bed.z_b, out)) * bed.dx)


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
        out = np.empty(obs_h.shape), np.empty(obs_h.shape)
        zeta_tilde = _cell_energy(obs_h, state.velocity, state.g, None, out)
    rec = hydrostatic_reconstruct(state)
    u_sides = _sides(_ghosted(state.velocity, state.grid.bc, -1.0))
    flux = halfline_energy_moment(state.profile, rec.h_sides, u_sides, state.g, UPWIND_SIDES)
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
