"""Twin experiments: gain schedules, per-model lanes, twin runs, sweeps, decay fits.

A twin run advances a reference ("truth") trajectory, synthesises
observations from it (masking, subsampling, deterministic noise), and
advances the observer against those observations, recording error norms
along the way.  A gain sweep is the same run with a stack of observers, one
gain per row, against one truth; a single twin is the sweep of one gain.

Every model is the same kinetic equation with the relaxation source
lam (M_obs - f); only the transport and the closure differ.  A *lane* is
that per-model part, a scheme that holds no state: its CFL bound, one step
that transports and then nudges toward the weighted mean of a list of
innovation terms, the field it observes and is compared on, and the energy
(Saint-Venant only).  Every
temporal mode resolves to such terms (``_Truth.resolve``): one term
of weight 1 toward the held, interpolated or truth-read target, or one
kernel-weighted term per observation time under the mollified gain.  Every
term is measured against the observer's current state, so the nudge is the
BGK relaxation lam W (M_obs - f) toward the weighted mean of the
observations, W the total weight of the terms.  A lane reads each
observation on the observed window alone (``_Lane.window``) and takes a gap
of 0.0 off it, so NaN marks an unobserved cell only in the observation
record and at the public steps.  The Burgers lanes relax exactly toward the
mean innovation with one ``burgers._relax`` on the gap; the Saint-Venant
lane adds it as an explicit source.  The truth is the
scheme at lam = 0: ``_lanes`` gives it its observers' lane object wherever
it runs their scheme on their grid and bed.  Every lane state, the truth's
included, is a stack of rows (``_Lane.stack``).

The truth (``_Truth``) owns the twin's observation record, built once from
the configuration: the observation times inside the horizon, the observed
cells, the noise, the clamp, the kinetic-velocity grid every observation
must lie on, the series it samples and the temporal mode, and it resolves
each window from that record (``_Truth.resolve``).  One time loop
(``_run_lockstep``) advances the truth and the observers, one gain per
row, and resolves nothing where no row has a positive gain.  Its substep
windows tile each truth step and each resolves its own, so an observation
time fires in the one window that holds it, and a window's firing depends
on its bounds alone.  The truth leads: before the observers take a truth
step, the truth has taken it and has passed every observation time that
step's windows read (``_Truth.lead``).  The truth samples each observation
time as it steps past it (``_Truth.take``).  It
steps alone only to lead and to finish: wherever the truth steps through
its observers' lane object (the linear, Engquist-Osher and collapse lanes,
and Saint-Venant on the observers' grid and bed), the first observer
substep of each truth step takes the truth's next step beside it, as one
update in which the truth is the row at gain 0, each row at its own dt
(``_Truth.step_beside``, ``_Lane.step_pair``).  The loop releases the truth fields behind the
observers.  The Saint-Venant lanes carry their states as rows of one array
(``shallow_water._Rows``) from step to step, and hand out ``SWState``s only
in a run's results.

Truth and observer share the truth's time grid; the observer subdivides a
truth step only when its own transient state demands a shorter step.  The
Burgers lanes relax exactly after transport (``burgers._relax``), so their
bounds, and with them the time grid, do not depend on the gain: every gain of
a sweep runs on the same grid.  Where the observer's bound is a constant too
(the collapse, BGK and linear lanes), a sweep runs one truth and steps its
observers as one (k, n) stack (``sweep_lambda``).  The Engquist-Osher bound
follows the state, and the Saint-Venant lane keeps its explicit source under
a CFL bound augmented by the gain, so each of their gains runs its own truth
and a stack of one observer.  A sweep point is the final errors alone, so a
sweep records only the rows at t = 0 and t_final of each run, each measured
as ``run_twin`` measures it.  The loop stops with a ``SolverError`` when a
CFL bound is not a positive finite step or a step budget runs out, so every
run terminates.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .burgers import (
    BOUNDARY_KINDS as BURGERS_BOUNDARY_KINDS,
    KineticField,
    _relax,
    burgers_cfl,
    step_collapse_macroscopic,
    step_kinetic_burgers,
    step_kinetic_linear,
    step_macroscopic_burgers,
)
from .grid import Grid1D, XiGrid, _check_count
from .metrics import ErrorRecorder, ErrorSeries, fit_log_slope
from .observation import (
    Mollifier,
    NoiseSpec,
    ObservationSeries,
    interpolate_in_time,
    mollified_gain,
    nearest_recorded,
    noise_field,
    observe,
)
from .shallow_water import (
    BOUNDARY_KINDS as SW_BOUNDARY_KINDS,
    _DRY,
    SWState,
    _Rows,
    _same_bed,
    _step_pair,
    _total_energy,
)

_TIME_TOL = 1e-12

# The truth may take _STEP_BUDGET times the steps its first CFL bound implies
# over the horizon, the observer _STEP_BUDGET substeps per truth step: a run
# that needs more has a collapsing bound.  The implied count is capped, so the
# budget stays finite however small the first bound is.
_STEP_BUDGET = 100
_MAX_IMPLIED_STEPS = 10**6


class SolverError(RuntimeError):
    """A time loop cannot go on: its CFL bound is not a positive finite step,
    or it has used up its step budget."""


class TemporalMode(Enum):
    """When the gain acts.  Without observation times, EVERY_STEP and
    INTERPOLATED nudge toward the truth's own state at every step."""

    EVERY_STEP = "every_step"  # every step, toward the last observation (hold)
    INTERPOLATED = "interpolated"  # every step, linear in time between observations
    AT_OBSERVATION_TIMES = "at_observation_times"  # only in the step holding each t_k
    MOLLIFIED = "mollified"  # kernel-weighted observations within sigma of t


class BurgersObserverMode(Enum):
    BGK = "bgk"  # free kinetic density, no collapse
    COLLAPSE = "collapse"  # projected to an indicator after every step
    MACROSCOPIC = "macroscopic"  # Engquist-Osher moment scheme


@dataclass(frozen=True)
class GainSchedule:
    """Nudging gain and its temporal activation."""

    lam: float = 0.0
    temporal_mode: TemporalMode = TemporalMode.EVERY_STEP
    sigma: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"gain lam must be finite and nonnegative, got {self.lam!r}")
        if self.sigma is not None and not math.isfinite(self.sigma):
            raise ValueError(f"gain sigma must be finite, got {self.sigma!r}")
        if self.temporal_mode is TemporalMode.MOLLIFIED and not (
            self.sigma and self.sigma > 0.0
        ):
            raise ValueError(f"mollified gain requires a positive sigma, got {self.sigma!r}")


def _observed_cells(grid: Grid1D, interval: tuple[float, float] | None) -> slice:
    """The cells whose centres lie in the observation ``interval`` (every
    cell when None), as a slice: an interval's cells are contiguous."""
    if interval is None:
        return slice(0, grid.n_cells)
    cells = np.flatnonzero(grid.interval_mask(*interval))
    return slice(cells[0], cells[-1] + 1) if cells.size else slice(0, 0)


@dataclass
class RunConfig:
    """Complete description of a twin experiment."""

    model: str  # "burgers" | "shallow_water"
    grid: Grid1D
    t_final: float = 1.0
    gain: GainSchedule = GainSchedule()
    cfl_safety: float = 0.95
    record_every: int = 1
    sobolev_order: float = 0.125
    # observation protocol; obs_times None means the truth state is observed
    # exactly at every step, obs_mask is the one spatial window (None: all cells)
    obs_times: np.ndarray | None = None
    obs_mask: tuple[float, float] | None = None
    noise: NoiseSpec | None = None
    # Burgers lane
    truth_u0: np.ndarray | None = None
    observer_u0: np.ndarray | None = None
    observer_mode: BurgersObserverMode = BurgersObserverMode.BGK
    n_xi: int = 64
    xi_margin: float = 1.0
    fixed_xi: float | None = None  # single-speed linear transport lane
    # shallow-water lane
    truth_state: SWState | None = None
    observer_state: SWState | None = None
    truth_resolution_factor: int = 1

    def __post_init__(self):
        if self.model not in ("burgers", "shallow_water"):
            raise ValueError(f"unknown model {self.model!r}")
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final!r}")
        if not 0.0 < self.cfl_safety <= 1.0:  # NaN fails too
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety!r}")
        _check_count("record_every", self.record_every)
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not 0.0 <= self.sobolev_order < 1.0:  # NaN fails too
            raise ValueError(
                f"sobolev_order must lie in [0, 1), got {self.sobolev_order!r}"
            )
        if not (math.isfinite(self.xi_margin) and self.xi_margin >= 0.0):
            raise ValueError(f"xi_margin must be finite and nonnegative, got {self.xi_margin!r}")
        _check_count("n_xi", self.n_xi)
        if self.n_xi < 1:
            raise ValueError(f"n_xi must be >= 1, got {self.n_xi!r}")
        if self.obs_times is not None:
            times = self.obs_times = np.asarray(self.obs_times, dtype=float)
            if times.ndim != 1 or not (
                np.all(np.isfinite(times) & (times >= 0.0)) and np.all(np.diff(times) > 0.0)
            ):
                raise ValueError("obs_times must be a 1-D array of finite, nonnegative, "
                                 f"strictly increasing times, got {times!r}")
        kinds = SW_BOUNDARY_KINDS if self.model == "shallow_water" else BURGERS_BOUNDARY_KINDS
        if self.grid.bc not in kinds:
            raise ValueError(f"bc {self.grid.bc.value} is not supported by the {self.model} "
                             f"solver (supported: {', '.join(kind.value for kind in kinds)})")
        cells = _observed_cells(self.grid, self.obs_mask)
        if cells.start == cells.stop:
            raise ValueError(f"obs_mask {self.obs_mask} holds no cell centre of the grid on "
                             f"[{self.grid.x_min:g}, {self.grid.x_max:g}]")
        if self.gain.temporal_mode is TemporalMode.MOLLIFIED and (
            self.obs_times is None or not self.obs_times.size
        ):
            raise ValueError(f"a mollified gain needs obs_times, got {self.obs_times!r}")
        if self.model == "shallow_water":
            fine = self.grid.refined(self.truth_resolution_factor)
            for name, grid in (("observer_state", self.grid), ("truth_state", fine)):
                state = getattr(self, name)
                if state is None or state.grid != grid:
                    raise ValueError(f"{name} must lie on {grid}, got "
                                     f"{None if state is None else state.grid}")
            return
        for name in ("truth_u0", "observer_u0"):
            u0 = getattr(self, name)
            shape = None if u0 is None else np.shape(u0)
            if shape != (self.grid.n_cells,):
                raise ValueError(f"{name} must have shape ({self.grid.n_cells},), got {shape}")
            finite = np.isfinite(u0)
            if not finite.all():
                cell = int(np.argmin(finite))
                raise ValueError(f"{name} must be finite, got {u0[cell]} in cell {cell}")
        if self.fixed_xi is not None and not math.isfinite(self.fixed_xi):
            raise ValueError(f"fixed_xi must be finite, got {self.fixed_xi!r}")

    def echo(self) -> dict:
        """Flat, reproducible summary of every resolved setting."""
        out = {
            "model": self.model,
            "n_cells": self.grid.n_cells,
            "x_min": self.grid.x_min,
            "x_max": self.grid.x_max,
            "bc": self.grid.bc.value,
            "t_final": self.t_final,
            "cfl_safety": self.cfl_safety,
            "record_every": self.record_every,
            "sobolev_order": self.sobolev_order,
            "lambda": self.gain.lam,
            "temporal_mode": self.gain.temporal_mode.value,
            "sigma": self.gain.sigma,
            "obs_count": None if self.obs_times is None else len(self.obs_times),
            "obs_mask": self.obs_mask,
            "noise_epsilon": None if self.noise is None else self.noise.epsilon,
            "noise_r": None if self.noise is None else self.noise.r,
            "noise_alpha": None if self.noise is None else self.noise.alpha,
        }
        if self.model == "burgers":
            out.update(
                observer_mode=self.observer_mode.value,
                n_xi=self.n_xi,
                xi_margin=self.xi_margin,
                fixed_xi=self.fixed_xi,
            )
        else:
            out.update(g=self.truth_state.g, profile=self.truth_state.profile.value,
                       truth_resolution_factor=self.truth_resolution_factor)
        return out


@dataclass
class RunResult:
    """Recorded output of a twin run."""

    errors: ErrorSeries
    dt_history: np.ndarray
    recorded_dt: np.ndarray  # truth step ending at each error row, NaN at t = 0
    final_truth: object
    final_observer: object
    grid: Grid1D
    config_echo: dict
    energy_observer: np.ndarray | None = None
    energy_truth: np.ndarray | None = None

    @property
    def final_l1_rel(self) -> float:
        return float(self.errors.l1_rel[-1])

    @property
    def final_sobolev(self) -> float:
        return float(self.errors.sobolev[-1])


# --- lanes ---------------------------------------------------------------------


def _per_row(lams: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The gains ``lams``, one per row of ``state``, shaped to broadcast
    against it."""
    return lams.reshape((-1,) + (1,) * (state.ndim - 1))


class _Lane:
    """One model's scheme, holding no state: the truth and the observers step
    through it, the truth as the scheme at lam = 0.

    Every state is a stack of rows: ``stack(initial, k)`` builds k rows from
    the configured initial value (``_initial``), the truth a stack of one and
    the observers one row per gain, k = 1 for a single twin; ``observed``
    gives one field per row, and ``row(state, r)`` hands row r out as a run
    result holds it.  ``step(state, dt, lams, terms)`` transports, then
    nudges each row at its gain in ``lams`` times the total weight W of the
    innovation terms ``terms`` (``_Truth.resolve``) toward their
    weighted mean (``_mean_innovation``); terms None is transport alone.
    ``step_pair`` takes that step together with the next step of a truth on
    the same lane, the truth one more row at its own dt.

    The observers' lane has a ``window``, the slice of the cells observed
    (``_observed_cells``): a nudge reads an observed field on the window
    alone and leaves every other cell to its transport, so what a field
    holds off the window is never read.

    The base class is a Burgers lane on the field u, given its bound, its
    gain-free transport and the relaxation target of an observed field as
    callables.  Every Burgers lane measures its innovations after transport
    and relaxes the whole stack exactly with one ``_relax``.
    """

    clamp_nonnegative = False  # truncate negative noisy observations
    # the truth field a target is taken from: the end of the step (1) for the
    # exact relaxation of the Burgers lanes, its start (0) for the explicit
    # source of the Saint-Venant lane
    target_level = 1
    # the axes of a state past its cell axis (a kinetic density's xi axis)
    trailing = ()

    def __init__(self, bound, transport, window: slice, xi: XiGrid | None = None,
                 target=None):
        self.bound, self.transport, self.window = bound, transport, window
        self.xi = xi  # kinetic-velocity grid the observations must fit in
        if target is not None:
            self.target = target

    def target(self, obs):
        """What the lane relaxes toward for the observed field ``obs``."""
        return obs

    def stack(self, initial, k: int):
        """k copies of the initial field, one row each."""
        return np.repeat(np.asarray(initial, dtype=float)[None], k, axis=0)

    def row(self, state, r: int):
        return state[r].copy()

    def cfl(self, state, obs=None) -> float:
        return self.bound(state)

    def step(self, state, dt, lams=None, terms=None):
        return self._relaxed(self.transport(state, dt), dt, lams, terms)

    def step_pair(self, truth, truth_dt, state, dt, lams, terms):
        """(the truth's step over truth_dt, this lane's ``step``) as one
        transport of the truth's row on top of the observers' rows, each at
        its own dt, then the observers' relaxation; only for a truth on this
        lane."""
        dts = np.full((len(state) + 1, 1), dt)
        dts[0] = truth_dt
        new = self.transport(np.concatenate((truth, state)), dts)
        return new[:1], self._relaxed(new[1:], dt, lams, terms)

    def _relaxed(self, new, dt, lams, terms):
        """The transported stack ``new`` nudged under ``terms``."""
        if terms is None:
            return new
        gap, weight = _mean_innovation(self, terms, new)
        return _relax(new, gap, _per_row(lams, new) * weight, dt)

    def observed(self, state):
        return state

    def energy(self, state):
        return None


class _BGKLane(_Lane):
    """Burgers, free kinetic density f(x, xi), stepped as the values of a
    KineticField, (k, n_cells, n_xi) for k rows: a row starts as the
    cell-averaged indicator of the initial field, and the target of an
    observed field is its indicator, so the source acts in kinetic space.
    The window indexes the cell axis, the second last."""

    trailing = (slice(None),)

    def __init__(self, xi: XiGrid, grid: Grid1D, bound, transport, window: slice):
        super().__init__(bound, transport, window, xi, xi.indicator)
        self.grid = grid

    def stack(self, initial, k: int):
        return super().stack(self.xi.indicator(np.asarray(initial, dtype=float)), k)

    def row(self, state, r: int):
        return KineticField(state[r].copy(), self.xi, self.grid)

    def observed(self, state):
        return state @ self.xi.weights


def _mean_innovation(lane: _Lane, terms, ref):
    """(sum_k w_k g_k / W, W) over the innovation terms (w_k, obs_k),
    W = sum_k w_k, with g_k = lane.target(obs_k) - ref on the lane's window
    and 0 off it: every term is measured against the one current state
    ``ref``, on every row of it, and obs_k is read on the window alone.

    The weighted gaps are added into a zero gap in the order of the terms,
    so each cell's sum starts from 0.0 and no zero keeps its sign."""
    window = lane.window
    cells = (..., window) + lane.trailing
    gap, weight = np.zeros(ref.shape), 0.0
    for w, obs in terms:
        gap[cells] += w * (lane.target(obs[window]) - ref[cells])
        weight += w
    return np.divide(gap, weight, gap), weight


class _SWLane(_Lane):
    """Kinetic Saint-Venant scheme; the observed field is the depth, averaged
    over ``factor`` cells when the truth runs on a refined grid.  The lane
    carries a state as one row of ``shallow_water._Rows`` (``stack`` refuses
    any other k) and hands it out as an ``SWState`` (``row``).  Its time grid
    depends on the gain, so it steps a stack of one observer.  Its
    innovations are measured against the depth before the step, and its
    source is explicit: one source-and-settle update at the gain times the
    total weight, so the CFL bound and the positivity check see the gain
    actually applied.

    Where the truth steps through the same lane object as its observer, the
    two share a grid and a bathymetry, and a substep and the truth's next
    step go as one two-row update, the truth the row at gain 0
    (``step_pair``).  The observers' lane has a ``window``, the
    slice of the cells observed, which its nudge and its probe read alone,
    and the buffers of its probe; every lane has those of its energy."""

    clamp_nonnegative = True
    target_level = 0
    xi = None

    def __init__(self, grid: Grid1D, lam_cfl: float, safety: float, factor: int = 1,
                 window: slice | None = None):
        self.lam_cfl, self.safety, self.factor, self.window = lam_cfl, safety, factor, window
        n = grid.n_cells
        if window is not None:  # the observers' lane
            width = len(range(n)[window])
            self._probe = np.empty(width, dtype=bool), np.empty(width), np.empty(width)
        self._energy = np.empty(n), np.empty(n)

    def stack(self, initial: SWState, k: int):
        if k != 1:
            raise ValueError(f"a Saint-Venant lane steps one observer, not {k}")
        return _Rows.of((initial.copy(),))

    def row(self, rows, r: int):
        return rows.state(r)

    def bound(self, rows) -> float:
        """``sv_cfl`` of the row at the lane's gain and safety."""
        return rows.bed.bound(rows.speed[0], self.lam_cfl, self.safety)

    def cfl(self, rows, obs=None) -> float:
        """``bound``, tightened by the wave speed of the observed depth
        ``obs`` on its wet cells: those of the window above the dry
        threshold.

        The speed is evaluated on every cell of the window: a dry cell's
        depth counts as 0 under the square root and its speed as -inf, and
        an unobserved cell's NaN (which compares False) is passed over by
        the maximum; obs (g / 2) is g obs / 2 to the bit on the wet cells.
        """
        bound = self.bound(rows)
        if obs is None:
            return bound
        bed, window = rows.bed, self.window
        dry, speed, u = self._probe
        obs = obs[window]
        np.less_equal(obs, _DRY, dry)
        np.multiply(obs, bed.half_g, speed)
        np.putmask(speed, dry, 0.0)
        np.sqrt(speed, speed)
        np.multiply(bed.w, speed, speed)
        np.add(np.abs(rows.a[2, 0, window], u), speed, speed)
        np.putmask(speed, dry, -math.inf)
        top = np.fmax.reduce(speed)
        if top > -math.inf:  # some cell is wet
            bound = min(bound, bed.bound(float(top), self.lam_cfl, self.safety))
        return bound

    def step(self, rows, dt, lams=None, terms=None):
        if terms is None:
            return rows.step((dt,))
        dh, weight = _mean_innovation(self, terms, rows.a[0, 0])
        return rows.step((dt,), (float(lams[0]) * weight,), dh)

    def step_pair(self, truth, truth_dt, rows, dt, lams, terms):
        """(the truth's step over truth_dt, this lane's ``step``) as one
        two-row update; only for a truth on this lane."""
        if terms is None:
            return _step_pair(truth, rows, (truth_dt, dt))
        dh, weight = _mean_innovation(self, terms, rows.a[0, 0])
        return _step_pair(truth, rows, (truth_dt, dt), (0.0, float(lams[0]) * weight), dh)

    def observed(self, rows):
        h = rows.a[0]
        if self.factor == 1:
            return h
        return h.reshape(len(h), -1, self.factor).mean(axis=2)

    def energy(self, rows):
        """``total_energy`` of the row, in the lane's buffers."""
        return _total_energy(rows.bed, rows.a[0, 0], rows.a[2, 0], self._energy)


def _horizon_times(config: RunConfig) -> list[float] | None:
    """The observation times inside the horizon, as one list (None observes
    the truth exactly at every step): later times are never assimilated."""
    if config.obs_times is None:
        return None
    return [t for t in config.obs_times.tolist() if t <= config.t_final * (1.0 + _TIME_TOL)]


def _lam_for_cfl(config: RunConfig) -> float:
    """The gain the Saint-Venant CFL bound allows for: lam times the largest
    total kernel weight of the observation times inside the horizon under
    the mollified gain (0 where none is: nothing nudges).

    Between consecutive ends t_k -+ sigma of the kernels' supports the same
    kernels are active, and with w = pi / sigma their sum is
    (count + a cos(w t) + b sin(w t)) / (2 sigma), a and b the sums of
    cos(w t_k) and sin(w t_k) over them.  Each kernel has a continuous
    slope, so the sum peaks where its slope is 0: at the first crest
    w t = atan2(b, a) + 2 pi j of a piece past the piece's start, or at the
    piece's end where that crest lies beyond it.  The relative 1e-9 on top
    covers the rounding of these sums and of the kernel weights a run adds
    up."""
    gain = config.gain
    if gain.temporal_mode is not TemporalMode.MOLLIFIED:
        return gain.lam
    times = _horizon_times(config)
    if not times:
        return 0.0
    sigma, top = gain.sigma, 0.0
    w = math.pi / sigma
    ends = sorted({t + side for t in times for side in (-sigma, sigma)})
    for lo, hi in zip(ends, ends[1:]):
        mid = 0.5 * (lo + hi)
        active = times[bisect_left(times, mid - sigma):bisect_left(times, mid + sigma)]
        a, b = (math.fsum(f(w * t) for t in active) for f in (math.cos, math.sin))
        phase = math.atan2(b, a)
        # the piece's first crest, or its end
        t = min((phase + math.tau * math.ceil((w * lo - phase) / math.tau)) / w, hi)
        top = max(top, len(active) + a * math.cos(w * t) + b * math.sin(w * t))
    return gain.lam * (top / (2.0 * sigma) * (1.0 + 1e-9))


def _initial(config: RunConfig) -> tuple:
    """The configured initial values of the truth and of the observers, from
    which ``_Lane.stack`` builds their states: ``SWState``s on
    Saint-Venant, fields u on Burgers."""
    if config.model == "shallow_water":
        return config.truth_state, config.observer_state
    return config.truth_u0, config.observer_u0


def _lanes(config: RunConfig) -> tuple[_Lane, _Lane]:
    """(truth lane, observer lane), under one CFL bound: gain-augmented on
    Saint-Venant, gain-free on Burgers, the observer lane on the observed
    window.  One object twice wherever the truth runs the observers' scheme
    on their grid and bed; two only for the BGK observer, whose truth runs
    the collapsed lane, and for a Saint-Venant truth on a refined grid or on
    another bed."""
    safety, grid = config.cfl_safety, config.grid
    truth_initial, observer_initial = _initial(config)
    window = _observed_cells(grid, config.obs_mask)
    if config.model == "shallow_water":
        lam_cfl = _lam_for_cfl(config)
        lane = _SWLane(grid, lam_cfl, safety, window=window)
        factor = config.truth_resolution_factor
        if factor == 1 and _same_bed(truth_initial, observer_initial):
            return lane, lane
        return _SWLane(truth_initial.grid, lam_cfl, safety, factor), lane
    if config.fixed_xi is not None:
        speed = config.fixed_xi
        fixed = burgers_cfl(grid.dx, max(abs(speed), 1e-12), safety)
        lane = _Lane(lambda f: fixed,
                     lambda f, dt: step_kinetic_linear(f, speed, dt, grid), window)
        return lane, lane
    if config.observer_mode is BurgersObserverMode.MACROSCOPIC:
        lane = _Lane(
            lambda u: burgers_cfl(grid.dx, max(float(np.max(np.abs(u))), 1e-12), safety),
            lambda u, dt: step_macroscopic_burgers(u, dt, grid),
            window,
        )
        return lane, lane
    lo = min(float(np.min(u0)) for u0 in (truth_initial, observer_initial))
    hi = max(float(np.max(u0)) for u0 in (truth_initial, observer_initial))
    xi = XiGrid.spanning(lo, hi, config.xi_margin, config.n_xi)
    fixed = burgers_cfl(grid.dx, xi.speed_sup, safety)
    # the collapsed step's target, clamped to the grid as its flux is
    lane = _Lane(
        lambda u: fixed,
        lambda u, dt: step_collapse_macroscopic(u, None, 0.0, dt, grid, xi),
        window,
        xi,
        lambda obs: np.clip(obs, xi.xi_min, xi.xi_max),
    )
    if config.observer_mode is BurgersObserverMode.COLLAPSE:
        return lane, lane
    return lane, _BGKLane(
        xi, grid, lane.bound,
        lambda f, dt: step_kinetic_burgers(KineticField(f, xi, grid), dt).values,
        window,
    )


# --- truth ---------------------------------------------------------------------


class _Truth:
    """The truth run, unnudged, which the twin loop steps ahead of the
    observers, and the twin's observation record.

    The run: its observed field at every step (duck-typed for
    ``sample_observations``), its steps, its energies when recorded, its
    state as the lane carries it, a stack of one row from the initial value
    ``initial`` (``held``), and as a result holds it (``state``), the final
    one once ``done``.  ``next_dt`` is the length of its next step, checked
    against its bound and its step budget; ``take`` records that step,
    whether the truth took it alone (``step``) or beside an observer substep
    (``step_beside``).  Each step's observed field is an array of its own;
    ``release(k)`` sets those before k to None (indices stay absolute, and
    reading one fails); ``finish`` keeps them all.

    The record, built once from the configuration: the observation times
    inside the horizon (``times``, ``_horizon_times``), the observed cells
    (``mask``), the noise field, and the lane's clamp and kinetic-velocity
    grid ``xi``, on which every observation is checked to lie where it is
    made (``_refuse_saturation``).
    The temporal modes that consume time-stamped observations read a sampled
    ``series``: it holds every time from the start, each field NaN until a
    step passes its time (``take``; every time left once the truth is done),
    and then what ``sample_observations`` gives over the same run on its
    own; ``sampled`` counts the times passed.

    ``lead(n)`` is the one rule for how far the truth runs ahead of the
    observers: before the observers take truth step n, the truth has taken
    it, and the series holds every observation the windows of that step
    read.

    ``resolve(t_lo, t_hi, n)`` answers once per window [t_lo, t_hi) of truth
    step n with the innovation terms of ``_Lane.step``, a list of (weight,
    observed field), or None when nothing is observed.  Every temporal mode
    but the mollified gain resolves one term (1.0, target), NaN off the
    observed cells, which the lane does not read.  The mollified gain
    resolves one term per observation time within sigma of the window's
    start, its kernel weight and field (``mollifier``).  The lane measures
    every term against the observer's current state.

    A target read from the truth trajectory (at-observation-time nudging,
    and every-step nudging without observation times) is the observation of
    the truth state at the lane's ``target_level``: for the Burgers lanes,
    which relax exactly after transport, at the end t_{n+1} of truth step n;
    for the Saint-Venant lane, whose source is explicit, at its start t_n.
    Either way a twin started from the truth's own state stays on it to
    machine precision.  At the observation times the windows of a run tile
    it (``_run_lockstep``), so a window fires when an observation time lies
    at or after its start and before its end, each time fires exactly once,
    and a window holding two times nudges once.  The sampled series feeds
    the every-step (hold), interpolated and mollified modes, whose targets
    are genuinely stamped at the observation times and are resolved at the
    start of the window on both models; the hold takes the last time at or
    before it.  Every row of the observers' stack takes the same windows: a
    row with a zero gain is relaxed by nothing where a window fires.
    """

    def __init__(self, config: RunConfig, lane: _Lane, initial):
        grid, gain = config.grid, config.gain
        self.lane, self.grid = lane, grid
        self.t_final, self.record_every = config.t_final, config.record_every
        self.held, self.t, self.done = lane.stack(initial, 1), 0.0, False
        self.trajectory_times, self.trajectory_fields, self.dts = [0.0], [], []
        self.energies = [lane.energy(self.held)]
        self._budget, self._released, self._spare = None, 0, []
        self._keep(lane.observed(self.held)[0])
        self.mask = np.zeros(grid.n_cells, dtype=bool)
        self.mask[_observed_cells(grid, config.obs_mask)] = True
        self._noise = None if config.noise is None else noise_field(config.noise, grid)
        self.times = _horizon_times(config)
        self.series, self.sampled, mode = None, 0, gain.temporal_mode
        if self.times and mode is not TemporalMode.AT_OBSERVATION_TIMES:
            fields = np.full((len(self.times), grid.n_cells), np.nan)
            self.series = ObservationSeries(self.times, fields, self.mask, grid)
        self.mollifier = Mollifier(gain.sigma) if mode is TemporalMode.MOLLIFIED else None
        self._interpolated = mode is TemporalMode.INTERPOLATED
        # a window reads up to _reach past its start
        self._reach = _TIME_TOL if self.mollifier is None else gain.sigma

    @property
    def state(self):
        return self.lane.row(self.held, 0)

    def _keep(self, field) -> None:
        kept = self._spare.pop() if self._spare else np.empty_like(field)
        kept[...] = field
        self.trajectory_fields.append(kept)

    def release(self, k: int) -> None:
        """Drop the fields before k; new fields reuse their arrays (fewer page faults)."""
        while self._released < k:
            self._spare.append(self.trajectory_fields[self._released])
            self.trajectory_fields[self._released] = None
            self._released += 1

    def _observe(self, field):
        """The observation of the truth field ``field``, checked to lie on
        the lane's kinetic-velocity grid."""
        observed = observe(field, self._noise, self.mask, self.lane.clamp_nonnegative)
        _refuse_saturation(observed, self.lane.xi)
        return observed

    def resolve(self, t_lo: float, t_hi: float, n: int):
        """The innovation terms that nudge the window [t_lo, t_hi) of truth
        step n, or None."""
        times, series = self.times, self.series
        if series is None:  # read from the truth, at the observation times if any
            if times is not None and bisect_left(times, t_lo) == bisect_left(times, t_hi):
                return None
            return [(1.0, self._observe(self.trajectory_fields[n + self.lane.target_level]))]
        if self.mollifier is not None:
            return [(w, f) for _, w, f in mollified_gain(series, self.mollifier, t_lo)] or None
        if t_lo < times[0] - _TIME_TOL:
            return None
        if self._interpolated:
            return [(1.0, interpolate_in_time(series, min(t_lo, times[-1])))]
        return [(1.0, series.fields[max(bisect_left(times, t_lo + _TIME_TOL) - 1, 0)])]

    def lead(self, n: int) -> bool:
        """Step alone until truth step n has been taken and, on a sampled
        series, the truth has passed the first observation time after
        t_{n+1} + _reach and at least two: what the windows of step n read.
        False when the truth ended before step n."""
        times = self.times
        while True:
            k = self.sampled  # every time once the truth is done
            if len(self.dts) > n and (self.series is None or k == len(times) or (
                    k >= 2 and times[k - 1] > self.trajectory_times[n + 1] + self._reach)):
                return True
            if self.done:
                return False
            self.step()

    def next_dt(self) -> float:
        t = self.t
        bound = _checked_bound(self.lane.bound(self.held), "truth", t)
        if self._budget is None:
            implied = min(self.t_final / bound, _MAX_IMPLIED_STEPS)
            self._budget = _STEP_BUDGET * math.ceil(implied)
        elif len(self.dts) >= self._budget:
            raise SolverError(
                f"truth run used up its budget of {self._budget} steps at t={t:g} "
                f"(CFL bound {bound:g})"
            )
        return min(bound, self.t_final - t)

    def take(self, state, dt: float) -> None:
        t = self.t + dt
        done = not t < self.t_final * (1.0 - _TIME_TOL)
        field = self.lane.observed(state)[0]
        # sampled before the step is recorded: a refused observation leaves
        # the truth as it was, and stepping it again refuses it again
        times, series, k = self.times, self.series, self.sampled
        while series is not None and k < len(times) and (times[k] < t or done):
            newer = nearest_recorded(np.array([self.t, t]), times[k])
            series.fields[k] = self._observe(field if newer else self.trajectory_fields[-1])
            k = self.sampled = k + 1
        self.held, self.t, self.done = state, t, done
        self.trajectory_times.append(t)
        self.dts.append(dt)
        self._keep(field)
        if len(self.dts) % self.record_every == 0 or self.done:  # the final state too
            self.energies.append(self.lane.energy(state))

    def step(self) -> None:
        dt = self.next_dt()
        self.take(self.lane.step(self.held, dt), dt)

    def step_beside(self, state, dt: float, lams, terms):
        """Take the next step beside the observers' substep, on the truth's
        own lane, over dt from ``state`` under ``terms``, as one update in
        which the truth is the row at gain 0 (``_Lane.step_pair``); returns
        their new state."""
        truth_dt = self.next_dt()
        stepped, state = self.lane.step_pair(self.held, truth_dt, state, dt, lams, terms)
        self.take(stepped, truth_dt)
        return state

    def finish(self) -> None:
        while not self.done:
            self.step()


def _refuse_saturation(fields: np.ndarray, xi: XiGrid | None) -> None:
    """Refuse observed values outside the kinetic-velocity grid: the indicator
    of such a value is cut off at the grid's end, and nudging toward it would
    lose mass without a sign.  NaN (unobserved) cells pass."""
    if xi is None:
        return
    outside = (fields < xi.xi_min) | (fields > xi.xi_max)
    if outside.any():
        where = np.unravel_index(np.argmax(outside), outside.shape)
        raise ValueError(
            f"observed value {float(fields[where])!r} in cell {where[-1]} lies outside the "
            f"xi grid [{xi.xi_min:g}, {xi.xi_max:g}]; increase xi_margin"
        )


def _checked_bound(bound: float, phase: str, t: float) -> float:
    if not (math.isfinite(bound) and bound > 0.0):
        raise SolverError(
            f"{phase} CFL bound {bound!r} at t={t:g} is not a positive finite step"
        )
    return bound


# --- the twin loop -----------------------------------------------------------


def _energies(values: list) -> np.ndarray | None:
    return None if values[0] is None else np.asarray(values)


def _run_lockstep(config: RunConfig, lane: _Lane, state, truth: _Truth,
                  lams) -> list[RunResult]:
    """Advance the truth and the stack of observers ``state``, one row per
    gain of ``lams``, to t_final in one time loop: the observers step on the
    truth's time grid, and the truth leads (``_Truth.lead``).  Records the
    errors (L1 relative, L1, L2, Sobolev) and the energy of every
    record_every-th step and of the last; one RunResult per row.

    Each truth step's window is resolved once (``_Truth.resolve``), and the
    field of its first term is what the observer's bound is probed on.  A truth
    step longer than that bound is divided into m substeps of dt / m, and
    every substep, the first included, resolves its own window; an undivided
    step takes the step's answer.  Where no row has a positive gain nothing
    is resolved, so such a run takes no probe and no source.  The windows
    tile the run: substep j of truth step n holds
    [t_n + j sub, t_n + (j + 1) sub), the last one ends at t_{n+1}, and the
    run's last window has no end, so an observation time past the truth's
    last step but inside the horizon fires too.  The first substep
    of each truth step takes the truth's next step beside it, while the
    truth has steps left, wherever the truth steps through the observers'
    lane (``_Truth.step_beside``).

    The truth's fields before n are released before step n.  The observers
    may take _STEP_BUDGET substeps per truth step over the run; the truth runs
    to its end before a substep count past that share of its steps so far is
    refused.  When the loop raises, the truth runs to its end first, sampling
    every observation on the way, so a failing truth or observation raises
    its own error (the earlier in time) instead of the observers'.

    ``record`` only copies the observed fields and the truth field into an
    ``ErrorRecorder``, which measures a whole block of rows in one vectorised
    pass; the energies are computed row by row.

    ``state`` is the stack as the lane carries it (on Saint-Venant, one row
    of ``shallow_water._Rows``, the array that each step replaces); the
    lane turns its rows into the results' states (``row``) only once the
    loop is done.
    """
    times, fields, dts = truth.trajectory_times, truth.trajectory_fields, truth.dts
    grid, order, lams = config.grid, config.sobolev_order, np.asarray(lams, dtype=float)
    # where no row has a positive gain nothing nudges: no probe, no source
    resolve = truth.resolve if np.any(lams > 0.0) else lambda t_lo, t_hi, n: None
    recorded, energies = [], []  # step indices, energies of the recorded rows
    errors = ErrorRecorder(grid, order, stack=len(lams))

    def record(n):
        recorded.append(n)
        errors.add(lane.observed(state), fields[n])
        energies.append(lane.energy(state))

    def substeps_of(dt, bound):
        if bound >= dt * (1.0 - 1e-9):
            return 1
        return math.ceil(min(dt / bound, _STEP_BUDGET * len(dts) + 1.0))

    try:
        record(0)
        n, substeps = 0, 0
        while truth.lead(n):
            dt, last = dts[n], truth.done and n == len(dts) - 1
            end = math.inf if last else times[n + 1]
            terms = resolve(times[n], end, n)
            # the observed field the observer's bound must allow for
            probe = None if terms is None else terms[0][1]
            bound = _checked_bound(lane.cfl(state, probe), "observer", times[n])
            m = substeps_of(dt, bound)
            if substeps + m > _STEP_BUDGET * len(dts) and not truth.done:
                truth.finish()  # the budget counts every truth step
                m = substeps_of(dt, bound)
            substeps += m
            if substeps > _STEP_BUDGET * len(dts):
                raise SolverError(
                    f"observer run used up its budget of {_STEP_BUDGET * len(dts)} substeps at "
                    f"t={times[n]:g} (CFL bound {bound:g})"
                )
            sub = dt / m
            for j in range(m):
                if m > 1:  # each substep resolves its own window
                    terms = resolve(times[n] + j * sub, times[n] + (j + 1) * sub if j < m - 1
                                    else end, n)
                if j == 0 and lane is truth.lane and not truth.done:
                    state = truth.step_beside(state, sub, lams, terms)
                else:
                    state = lane.step(state, sub, lams, terms)
            if (n + 1) % config.record_every == 0 or last:
                record(n + 1)
            n += 1
            truth.release(n)
    except Exception:
        truth.finish()
        raise
    truth.finish()  # samples any observation time no window read
    times, dts, recorded = np.asarray(times), np.asarray(dts), np.asarray(recorded)
    recorded_dt = np.concatenate(([math.nan], dts[recorded[1:] - 1]))
    norms, echo, final_truth = errors.norms(), config.echo(), truth.state
    return [
        RunResult(
            errors=ErrorSeries(times[recorded], *norms[:, r], order=order),
            dt_history=dts,
            recorded_dt=recorded_dt,
            final_truth=final_truth,
            final_observer=lane.row(state, r),
            grid=grid,
            config_echo={**echo, "lambda": float(lam)},
            energy_observer=_energies(energies),
            energy_truth=_energies(truth.energies),
        )
        for r, lam in enumerate(lams)
    ]


def _run_group(config: RunConfig, lams) -> list[RunResult]:
    """One truth, and the observers of every gain in ``lams`` stepped as one
    stack beside it.  The gains must share the truth's time grid and the
    observer's substeps, as the gains of a group of ``_groups`` do."""
    config = replace(config)  # checks again a config changed after construction
    (truth_lane, lane), (truth_initial, initial) = _lanes(config), _initial(config)
    truth = _Truth(config, truth_lane, truth_initial)
    return _run_lockstep(config, lane, lane.stack(initial, len(lams)), truth, lams)


def run_twin(config: RunConfig) -> RunResult:
    """Run the full twin experiment described by ``config``: the sweep of its
    one gain."""
    return _run_group(config, [config.gain.lam])[0]


# --- sweeps and decay fits ------------------------------------------------------


@dataclass
class SweepPoint:
    lam: float
    final_l1_rel: float
    final_sobolev: float
    failed: str | None = None


def _groups(config: RunConfig, lams: list[float]) -> list[list[float]]:
    """The sweep's gains in groups that share one truth and take the same
    substeps.  Every Burgers gain runs on the gain-free time grid, and on the
    collapse, BGK and linear lanes the observer's bound is the truth's
    constant one, so all their gains form one group.  The Engquist-Osher
    bound follows each observer's own state, and a Saint-Venant gain's grid
    follows its gain (``_lam_for_cfl``), so each of their gains is a group
    of its own."""
    if config.model == "burgers" and (
        config.fixed_xi is not None
        or config.observer_mode is not BurgersObserverMode.MACROSCOPIC
    ):
        return [lams]
    return [[lam] for lam in lams]


def _sweep_worker(args) -> list[SweepPoint]:
    """The points of one group of gains.  If the group raises, its gains run
    again one at a time, so each point reports its own result or error."""
    config, lams = args
    try:
        # a point is the final errors alone: a cadence past any step count
        # (the truth's budget is at most _STEP_BUDGET * _MAX_IMPLIED_STEPS
        # steps) records the rows at t = 0 and t_final only
        results = _run_group(replace(config, gain=replace(config.gain, lam=lams[0]),
                                     record_every=_STEP_BUDGET * _MAX_IMPLIED_STEPS + 1), lams)
    except Exception as exc:  # per-run failures must not abort the sweep
        if len(lams) > 1:
            return [point for lam in lams for point in _sweep_worker((config, [lam]))]
        return [SweepPoint(lams[0], math.nan, math.nan, failed=f"{type(exc).__name__}: {exc}")]
    return [SweepPoint(lam, r.final_l1_rel, r.final_sobolev) for lam, r in zip(lams, results)]


def gain_list(values) -> list[float]:
    """The gains ``values`` as floats: at least one, each finite,
    nonnegative and given once."""
    gains = [float(v) for v in values]
    if not gains:
        raise ValueError(f"sweep needs at least one gain value, got {gains!r}")
    if not all(math.isfinite(v) and v >= 0.0 for v in gains):
        raise ValueError(f"gains must be finite and nonnegative, got {gains!r}")
    repeated = next((v for i, v in enumerate(gains) if v in gains[i + 1:]), None)
    if repeated is not None:
        raise ValueError(f"gain {repeated:g} is given twice, got {gains!r}")
    return gains


def sweep_lambda(config: RunConfig, lam_values, jobs: int = 1) -> list[SweepPoint]:
    """Twin runs over a list of gains, order preserved.

    The gains are split into groups that share one truth (``_groups``): a
    Burgers sweep on the collapse, BGK or linear lane runs one truth and
    steps the observers of all its gains as one stack, one gain per row; each
    Engquist-Osher or Saint-Venant gain runs its own twin.  Wherever the
    truth runs its observers' lane (every lane but BGK, and a refined or
    differently bedded Saint-Venant truth), it steps as one more row of
    their stack.  A group records its errors only at t = 0 and t_final,
    which is all a point returns.  ``jobs`` is an
    integer of at least 1; with ``jobs`` > 1 each group is cut into at most
    ``jobs`` contiguous chunks, each running its own truth, on a process
    pool.  A group that raises runs again one gain at a time, so a failure
    marks only its own point (``SweepPoint.failed``).  Every point equals
    ``run_twin`` at its gain, whatever the grouping.
    """
    lam_values = gain_list(lam_values)
    _check_count("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    tasks = []
    for group in _groups(config, lam_values):
        size = math.ceil(len(group) / jobs)
        tasks += [(config, group[i:i + size]) for i in range(0, len(group), size)]
    if jobs > 1:
        # imported here: it costs every import of the package otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_sweep_worker, tasks))
    else:
        chunks = [_sweep_worker(t) for t in tasks]
    return [point for chunk in chunks for point in chunk]


@dataclass
class DecayFit:
    rate: float
    relative_deviation: float
    window: tuple[float, float]
    floor_limited: bool


def decay_study(config: RunConfig) -> DecayFit:
    """Fit the exponential decay rate of the observer's absolute L1 error and
    compare it to the configured gain.

    Works on collision-free configurations (fixed-speed linear transport, or
    smooth pre-shock Burgers).  Points at or below the numerical error floor
    are dropped from the fit; the fit window is flagged when shortened.
    """
    result = run_twin(config)
    series = result.errors
    t = series.times
    if len(t) < 3:  # a fit needs three rows; a row is recorded per truth step
        raise ValueError(
            f"decay study needs at least 3 recorded error rows, but the run recorded "
            f"{len(t)} over {len(result.dt_history)} truth steps"
        )
    v = np.asarray(series.l1_abs, dtype=float)
    positive = v[v > 0.0]
    if positive.size < 3:
        raise ValueError("not enough positive error samples to fit a decay rate, "
                         f"got {positive.size} of {v.size}")
    floor = 5.0 * float(np.min(positive))
    keep = v > floor
    floor_limited = bool(np.count_nonzero(~keep))
    if np.count_nonzero(keep) >= 3:
        t, v = t[keep], v[keep]
    rate = -fit_log_slope(t, v)
    lam = config.gain.lam
    deviation = abs(rate - lam) / lam if lam > 0.0 else abs(rate)
    return DecayFit(rate, deviation, (float(t[0]), float(t[-1])), floor_limited)
