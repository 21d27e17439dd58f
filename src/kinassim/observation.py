"""Synthetic observation series: masking, subsampling, noise, mollifiers.

Observed fields live on the run's grid with NaN marking cells outside the
observation window.  The deterministic noise model is the oscillatory field
eps^(r-alpha) cos(x/eps + alpha pi/2): the formal alpha-th derivative of
eps^r cos(x/eps), small in a weak norm while order-one in L2 for alpha > 0.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D


@dataclass(frozen=True)
class NoiseSpec:
    """Deterministic oscillatory observation noise."""

    epsilon: float
    r: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r!r}")
        if not 0.0 <= self.alpha < 0.5:  # NaN fails too
            raise ValueError(f"alpha must lie in [0, 1/2), got {self.alpha!r}")


def noise_field(spec: NoiseSpec, grid: Grid1D) -> np.ndarray:
    """Noise values at cell centers."""
    amp = spec.epsilon ** (spec.r - spec.alpha)
    return amp * np.cos(grid.centers / spec.epsilon + spec.alpha * math.pi / 2.0)


@dataclass
class ObservationSeries:
    """Time-stamped observed fields; masked-out cells hold NaN."""

    times: np.ndarray
    fields: np.ndarray  # shape (n_times, n_cells)
    mask: np.ndarray  # shape (n_cells,), bool
    grid: Grid1D

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.fields = np.asarray(self.fields, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("observation times must be strictly increasing")
        if self.fields.shape != (len(self.times), self.grid.n_cells):
            raise ValueError("fields shape must be (n_times, n_cells)")
        self._time_list = self.times.tolist()  # for the bisections of interpolate_in_time


def observe(values: np.ndarray, noise: np.ndarray | None, mask: np.ndarray,
            clamp_nonnegative: bool = False) -> np.ndarray:
    """Observed copy of ``values``: noise added, then (optionally) negative
    noisy values truncated, then NaN outside ``mask``.

    ``values`` may be one field or a stack of fields (one per row); ``noise``
    and ``mask`` are per cell.
    """
    if noise is not None:
        values = values + noise
        if clamp_nonnegative:
            values = np.maximum(values, 0.0)
    return np.where(mask, values, np.nan)


def sample_observations(
    truth,
    times,
    mask_interval: tuple[float, float] | None = None,
    noise: NoiseSpec | None = None,
    clamp_nonnegative: bool = False,
) -> ObservationSeries:
    """Extract an observation series from a recorded truth trajectory.

    ``truth`` must expose ``trajectory_times`` and ``trajectory_fields``
    (states recorded at every solver step, as a 2-D array or a list of fields)
    of a truth run on its own: a twin's truth releases its fields.  Each
    requested time picks the nearest recorded state.  Where observed, the noise
    field is added; ``clamp_nonnegative`` truncates negative noisy values (used
    for water depths, which the observer rejects if negative).
    """
    rec_t = np.asarray(truth.trajectory_times, dtype=float)
    rec_f = truth.trajectory_fields
    if rec_t.size == 0:
        raise ValueError("truth run carries no recorded trajectory")
    grid = truth.grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    span_tol = 1e-9 * max(1.0, abs(rec_t[-1]))
    if np.any(times < rec_t[0] - span_tol) or np.any(times > rec_t[-1] + span_tol):
        raise ValueError("requested observation time outside the recorded span")
    if mask_interval is None:
        mask = np.ones(grid.n_cells, dtype=bool)
    else:
        mask = grid.interval_mask(*mask_interval)
    noise_values = None if noise is None else noise_field(noise, grid)
    picked = np.asarray([rec_f[i] for i in nearest_recorded(rec_t, times)], dtype=float)
    fields = observe(picked, noise_values, mask, clamp_nonnegative)
    return ObservationSeries(times, fields, mask, grid)


def nearest_recorded(rec_t: np.ndarray, times) -> np.ndarray:
    """Index of the recorded time in ``rec_t`` (increasing, at least two)
    nearest each of ``times``, the earlier one on a tie."""
    idx = np.searchsorted(rec_t, times)
    idx = np.clip(idx, 1, len(rec_t) - 1)
    take_left = np.abs(times - rec_t[idx - 1]) <= np.abs(rec_t[idx] - times)
    return np.where(take_left, idx - 1, idx)


def interpolate_in_time(series: ObservationSeries, t: float) -> np.ndarray:
    """Piecewise-linear interpolation of the series at time t (per cell)."""
    times = series._time_list
    tol = 1e-9 * max(1.0, abs(times[-1]))
    if t < times[0] - tol or t > times[-1] + tol:
        raise ValueError(f"time {t} outside the observation span")
    if len(times) == 1:
        return series.fields[0].copy()
    t = min(max(t, times[0]), times[-1])
    k = min(max(bisect_right(times, t) - 1, 0), len(times) - 2)
    t0, t1 = times[k], times[k + 1]
    w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
    return (1.0 - w) * series.fields[k] + w * series.fields[k + 1]


@dataclass(frozen=True)
class Mollifier:
    """Raised-cosine averaging kernel of half-width sigma, unit integral."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def value(self, s):
        """Kernel value phi_sigma(s) = (1/sigma) * (1 + cos(pi s/sigma)) / 2 on
        [-sigma, sigma], zero outside."""
        s = np.asarray(s, dtype=float) / self.sigma
        out = np.where(np.abs(s) <= 1.0, (1.0 + np.cos(np.pi * s)) / 2.0, 0.0) / self.sigma
        if out.ndim == 0:
            return float(out)
        return out


def mollified_gain(series: ObservationSeries, mollifier: Mollifier, t: float):
    """The observations that contribute to the mollified gain at time t: a
    list of ``(k, w_k, field_k)`` for every observation time within the
    kernel support, whose weights w_k sum to the total kernel weight.
    """
    w = mollifier.value(t - series.times)
    return [(int(k), float(w[k]), series.fields[k]) for k in np.nonzero(w > 0.0)[0]]


@dataclass(frozen=True)
class ObservabilityResult:
    observable: bool
    t_min: float
    x_inf: float


def observability_check(speed: float, interval: tuple[float, float], horizon: float
                        ) -> ObservabilityResult:
    """Observability of constant-speed transport on the periodic unit interval
    observed on [a, b] over [0, horizon].

    The minimal horizon is (1 - (b - a)) / |speed| (the slowest characteristic
    must wrap into the window); ``x_inf`` is the least time any characteristic
    spends inside [a, b], in closed form.  A non-finite speed or horizon, or
    a distance speed * horizon beyond the float range, is refused by name.
    """
    a, b = interval
    if not 0.0 < a < b < 1.0:
        raise ValueError("interval must satisfy 0 < a < b < 1")
    for name, value in (("speed", speed), ("horizon", horizon)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    width = b - a
    c = abs(speed)
    if c == 0.0:
        return ObservabilityResult(False, math.inf, 0.0)
    t_min = (1.0 - width) / c
    dist = c * horizon
    if dist == math.inf:
        raise ValueError(f"speed * horizon overflows: speed={speed!r}, horizon={horizon!r}")
    wraps = math.floor(dist)
    frac = dist - wraps
    x_inf = (wraps * width + max(0.0, frac - (1.0 - width))) / c
    return ObservabilityResult(horizon > t_min, t_min, x_inf)
