"""Error norms, spectral seminorms, log-slope fits and sweep analysis."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid1D


@dataclass
class ErrorSeries:
    """Per-time error norms of an observer run."""

    times: np.ndarray
    l1_rel: np.ndarray
    l1_abs: np.ndarray
    l2_abs: np.ndarray
    sobolev: np.ndarray
    order: float = 0.125

    def __post_init__(self):
        n = len(self.times)
        for name in ("l1_rel", "l1_abs", "l2_abs", "sobolev"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match times")


def l1_absolute(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    return float(np.sum(np.abs(np.asarray(a) - np.asarray(b))) * dx)


def l2_absolute(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    d = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(np.sum(d * d) * dx))


def l1_relative(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    """L1 error of a against b, relative to the L1 norm of b.

    Falls back to the absolute error when b vanishes identically.
    """
    num = l1_absolute(a, b, dx)
    den = float(np.sum(np.abs(np.asarray(b))) * dx)
    if den == 0.0:
        return num
    return num / den


def sobolev_seminorm(values: np.ndarray, s: float, grid: Grid1D) -> float:
    """Homogeneous Sobolev seminorm of order s via the periodic DFT.

    Convention: forward transform normalised by 1/n, wavenumbers 2*pi*k/L
    with integer k, the k = 0 mode excluded (which makes explicit mean
    removal redundant).  At s = 0 this returns the root mean square of the
    mean-removed field.  Non-periodic fields are treated as periodic; no
    windowing is applied.
    """
    if not 0.0 <= s < 1.0:
        raise ValueError(f"order s must lie in [0, 1), got {s}")
    values = np.asarray(values, dtype=float)
    n = len(values)
    coeff = np.fft.fft(values) / n
    keep, weights = _sobolev_weights(n, grid.length, s)
    return float(np.sqrt(np.sum(weights * np.abs(coeff[keep]) ** 2)))


@lru_cache(maxsize=64)
def _sobolev_weights(n: int, length: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(mask of the nonzero modes, |omega|^(2s) on them), read-only; computed
    once per (n, length, s) because every recorded row needs them."""
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumber index
    omega = 2.0 * np.pi * k / length
    keep = k != 0
    weights = np.abs(omega[keep]) ** (2.0 * s)
    keep.flags.writeable = weights.flags.writeable = False
    return keep, weights


def fit_log_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) against times (positive values only)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0.0
    if np.count_nonzero(keep) < 3:
        raise ValueError("need at least 3 positive points to fit a rate")
    t, y = times[keep], np.log(values[keep])
    slope = np.polyfit(t, y, 1)[0]
    return float(slope)


def sweep_minimum(curve) -> tuple[float, float, bool]:
    """Minimum of a gain-sweep curve [(lambda, error), ...].

    Ties resolve to the smallest lambda.  ``is_interior`` is False when the
    minimiser sits at either end of the sweep.
    """
    curve = list(curve)
    if len(curve) < 3:
        raise ValueError("sweep needs at least 3 points")
    lams = np.asarray([p[0] for p in curve], dtype=float)
    errs = np.asarray([p[1] for p in curve], dtype=float)
    if not np.all(np.diff(lams) > 0.0):
        raise ValueError("lambda values must be strictly increasing")
    idx = int(np.argmin(errs))  # argmin takes the first (smallest lambda) on ties
    return float(lams[idx]), float(errs[idx]), bool(0 < idx < len(curve) - 1)
