"""Error norms, spectral seminorms, log-slope fits and sweep analysis.

The 1-D functions (``l1_absolute``, ``l2_absolute``, ``l1_relative``,
``sobolev_seminorm``) measure one field.  ``ErrorRecorder`` measures the
error rows of a whole run, or of a stack of runs sharing one reference, a
block of rows at a time: it buffers each row's differences and reference
and, when a block fills, computes every row's norms in one vectorised pass
whose temporaries live in work buffers allocated once.
Both give the same values bit for bit; ``sobolev_seminorm`` is a one-row call
of the block's Sobolev pass.
"""
from __future__ import annotations

import math
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
    row = np.asarray(values, dtype=float).reshape(1, -1)
    n = row.shape[1]
    out = np.empty(1)
    _sobolev_rows(row, _sobolev_weights(n, grid.length, s), out,
                  np.empty((1, n), dtype=complex), np.empty((1, n - 1)))
    return float(out[0])


def _sobolev_rows(diff, weights, out, spectrum, modes) -> None:
    """The Sobolev seminorm of each row of ``diff`` into ``out``.

    ``spectrum`` (complex, the shape of ``diff``) and ``modes`` (one column
    fewer) are work buffers.  The transform runs in place on the complex
    copy: transforming the real rows would allocate their complex cast.
    """
    n = diff.shape[1]
    spectrum[...] = diff
    np.fft.fft(spectrum, axis=1, out=spectrum)
    np.divide(spectrum, n, out=spectrum)
    np.abs(spectrum[:, 1:], out=modes)  # every mode but k = 0
    np.square(modes, out=modes)
    np.multiply(weights, modes, out=modes)
    np.sum(modes, axis=1, out=out)
    np.sqrt(out, out=out)


@lru_cache(maxsize=64)
def _sobolev_weights(n: int, length: float, s: float) -> np.ndarray:
    """|omega|^(2s) on the modes k = 1 .. n - 1 of the FFT's order, read-only;
    computed once per (n, length, s) because every recorded row needs them."""
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumber index, 0 only first
    omega = 2.0 * np.pi * k / length
    weights = np.abs(omega[1:]) ** (2.0 * s)
    weights.flags.writeable = False
    return weights


# Byte budget of one (fields, n_cells) float block of an ErrorRecorder: a
# block holds at most 256 fields and at least one row of them.  The recorder's
# buffers (two real blocks, the references, a complex block and one a column
# narrower) take about six blocks.
_BLOCK_BYTES = 128 * 1024


class ErrorRecorder:
    """Error norms of the recorded rows on ``grid``, computed a block of rows
    at a time, however many rows a run records.

    A row is a stack of ``stack`` fields against one reference: the
    observers of a sweep at one time, one field for a single run.  ``add``
    writes a row's differences and its reference into the next row of the
    block.  When the block fills, and once more in ``norms``, one vectorised
    pass gives every field its L1 error relative to
    the reference's L1 norm (the absolute error where that norm vanishes),
    its L1 and L2 errors and the order-``order`` Sobolev seminorm of the
    difference.  Each value equals the 1-D function's bit for bit: every
    field is reduced as a C-contiguous row, by the same pairwise sum, and
    transformed on its own.
    """

    def __init__(self, grid: Grid1D, order: float, stack: int = 1):
        n, k = grid.n_cells, stack
        adds = max(1, min(256, _BLOCK_BYTES // (8 * n)) // k)  # rows per block
        self.diff, self.work = np.empty((2, adds * k, n))  # one line per field
        self.ref = np.empty((adds, n))
        self.ref_norm = np.empty(adds)
        self.spectrum = np.empty((adds * k, n), dtype=complex)
        self.modes = np.empty((adds * k, n - 1))
        self.dx, self.weights = grid.dx, _sobolev_weights(n, grid.length, order)
        self.stack = stack
        self.tables = []  # (l1_rel, l1_abs, l2_abs, sobolev) of each measured block
        self.done = self.held = 0  # rows measured, rows waiting in the block

    def add(self, field: np.ndarray, ref: np.ndarray) -> None:
        """Record one row: ``field`` of shape (stack, n_cells), or (n_cells,)
        for a stack of one."""
        row, k = self.held, self.stack
        np.subtract(field, ref, out=self.diff[row * k:(row + 1) * k])
        self.ref[row] = ref
        self.held += 1
        if self.held == len(self.ref):
            self._flush()

    def norms(self) -> np.ndarray:
        """(l1_rel, l1_abs, l2_abs, sobolev) of every field of every row
        added, as a (4, stack, rows) array."""
        self._flush()
        table = np.concatenate(self.tables, axis=1)
        return table.reshape(4, self.done, self.stack).transpose(0, 2, 1).copy()

    def _flush(self) -> None:
        rows, k, dx = self.held, self.stack, self.dx
        diff, work = self.diff[:rows * k], self.work[:rows * k]
        self.tables.append(np.empty((4, rows * k)))
        rel, l1, l2, sobolev = self.tables[-1]
        norm = self.ref_norm[:rows]  # each reference's L1 norm
        np.abs(self.ref[:rows], out=work[:rows])
        np.sum(work[:rows], axis=1, out=norm)
        np.multiply(norm, dx, out=norm)
        rel.reshape(rows, k)[...] = norm[:, None]  # for now
        np.abs(diff, out=work)
        np.sum(work, axis=1, out=l1)
        np.multiply(l1, dx, out=l1)
        np.multiply(diff, diff, out=work)
        np.sum(work, axis=1, out=l2)
        np.multiply(l2, dx, out=l2)
        np.sqrt(l2, out=l2)
        np.copyto(rel, 1.0, where=rel == 0.0)  # l1 / 1.0 is l1 exactly
        np.divide(l1, rel, out=rel)
        _sobolev_rows(diff, self.weights, sobolev, self.spectrum[:rows * k], self.modes[:rows * k])
        self.done, self.held = self.done + rows, 0


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
    for lam, err in zip(lams.tolist(), errs.tolist()):
        if not math.isfinite(lam):
            raise ValueError(f"sweep lambda values must be finite, got {lam!r}")
        if not math.isfinite(err):
            raise ValueError(f"sweep error at lambda {lam!r} must be finite, got {err!r}")
    if not np.all(np.diff(lams) > 0.0):
        raise ValueError("lambda values must be strictly increasing")
    idx = int(np.argmin(errs))  # argmin takes the first (smallest lambda) on ties
    return float(lams[idx]), float(errs[idx]), bool(0 < idx < len(curve) - 1)
