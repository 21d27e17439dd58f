import re

import numpy as np
import pytest

from kinassim.grid import Grid1D
from kinassim.metrics import (
    ErrorRecorder,
    ErrorSeries,
    fit_log_slope,
    l1_absolute,
    l1_relative,
    l2_absolute,
    sobolev_seminorm,
    sweep_minimum,
)


def direct_seminorm(values, s, length):
    """O(n^2) evaluation of the seminorm definition, independent of np.fft."""
    n = len(values)
    total = 0.0
    j = np.arange(n)
    for k in range(n):
        k_signed = k - n if k > n // 2 else k
        if k_signed == 0:
            continue
        coeff = np.sum(values * np.exp(-2j * np.pi * j * k / n)) / n
        omega = 2.0 * np.pi * k_signed / length
        total += abs(omega) ** (2 * s) * abs(coeff) ** 2
    return float(np.sqrt(total))


def fft_seminorm(values, s, grid):
    """The seminorm by one 1-D FFT of the field, in the order of operations
    that the block pass must reproduce bit for bit."""
    n = len(values)
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / grid.length
    coeff = np.fft.fft(values) / n
    return float(np.sqrt(np.sum(np.abs(omega[1:]) ** (2.0 * s) * np.abs(coeff[1:]) ** 2)))


class TestL1Relative:
    def test_identical(self):
        a = np.array([1.0, 2.0, 3.0])
        assert l1_relative(a, a, 0.1) == 0.0

    def test_double(self):
        b = np.array([1.0, 2.0, 3.0])
        assert l1_relative(2 * b, b, 0.1) == pytest.approx(1.0)

    def test_constant_offset(self):
        b = np.array([1.0, 2.0, 3.0])
        c, n, dx = 0.5, 3, 0.1
        expected = c * n * dx / (np.sum(np.abs(b)) * dx)
        assert l1_relative(b + c, b, dx) == pytest.approx(expected)

    def test_zero_reference_falls_back_to_absolute(self):
        a = np.array([1.0, -1.0])
        assert l1_relative(a, np.zeros(2), 0.5) == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=16), rng.normal(size=16) + 3.0
        assert l1_relative(5 * a, 5 * b, 0.1) == pytest.approx(l1_relative(a, b, 0.1))


class TestSobolevSeminorm:
    def test_constant_field_is_zero(self):
        grid = Grid1D(64, 0.0, 1.0)
        assert sobolev_seminorm(np.full(64, 3.7), 0.125, grid) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("m,s,amp", [(1, 0.125, 1.0), (3, 0.5, 0.7), (5, 0.25, 2.0)])
    def test_single_mode_closed_form(self, m, s, amp):
        grid = Grid1D(128, 0.0, 1.0)
        field = amp * np.cos(2 * np.pi * m * grid.centers)
        expected = (2 * np.pi * m) ** s * amp / np.sqrt(2.0)
        assert sobolev_seminorm(field, s, grid) == pytest.approx(expected, rel=1e-10)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        grid = Grid1D(32, 0.0, 2.0)
        field = rng.normal(size=32)
        got = sobolev_seminorm(field, 0.3, grid)
        assert got == pytest.approx(direct_seminorm(field, 0.3, 2.0), rel=1e-10)

    def test_s_zero_is_mean_removed_l2(self):
        rng = np.random.default_rng(5)
        grid = Grid1D(50, 0.0, 1.0)
        field = rng.normal(size=50) + 2.0
        rms = np.sqrt(np.mean((field - field.mean()) ** 2))
        assert sobolev_seminorm(field, 0.0, grid) == pytest.approx(rms, rel=1e-10)

    def test_monotone_in_order_above_first_mode(self):
        grid = Grid1D(64, 0.0, 1.0)
        field = np.cos(2 * np.pi * 4 * grid.centers)
        values = [sobolev_seminorm(field, s, grid) for s in (0.0, 0.125, 0.25, 0.5)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_order(self):
        grid = Grid1D(16, 0.0, 1.0)
        with pytest.raises(ValueError):
            sobolev_seminorm(np.zeros(16), 1.5, grid)


def error_series(lengths):
    """An ErrorSeries of three times whose norms have ``lengths``."""
    return ErrorSeries(np.zeros(3), *(np.zeros(n) for n in lengths))


@pytest.mark.parametrize("call, message", [
    (lambda: error_series([2, 3, 3, 3]), "l1_rel length does not match times, got 2 against 3"),
    (lambda: error_series([3, 3, 3, 4]), "sobolev length does not match times, got 4 against 3"),
    (lambda: sweep_minimum([(1.0, 0.5), (2.0, 0.1)]), "sweep needs at least 3 points, got 2"),
    (lambda: sweep_minimum([]), "sweep needs at least 3 points, got 0"),
], ids=["short_l1_rel", "long_sobolev", "two_points", "no_point"])
def test_metrics_refusals_name_the_field_and_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestErrorRecorder:
    """The block pass gives every row what the 1-D functions give, bit for bit."""

    @pytest.mark.parametrize("n", [2, 99, 100, 300, 4000])
    @pytest.mark.parametrize("extra", [None, 0, 1])  # one row, a full block, one past it
    def test_rows_match_the_one_dimensional_norms(self, n, extra):
        grid = Grid1D(n, -1.0, 2.5)
        rows = 1 if extra is None else len(ErrorRecorder(grid, 0.125).diff) + extra
        rng = np.random.default_rng(n)
        fields, refs = rng.normal(size=(2, rows, n))
        refs[-1] = 0.0  # the reference norm vanishes: the relative error falls back
        recorder = ErrorRecorder(grid, 0.125)
        for field, ref in zip(fields, refs):
            recorder.add(field, ref)
        rel, l1, l2, sobolev = recorder.norms()[:, 0]  # a stack of one field
        dx = grid.dx
        norm = [np.sum(np.abs(r)) * dx for r in refs]
        expect_l1 = [l1_absolute(f, r, dx) for f, r in zip(fields, refs)]
        assert norm[-1] == 0.0
        assert np.array_equal(rel, [a / b if b else a for a, b in zip(expect_l1, norm)])
        assert np.array_equal(rel, [l1_relative(f, r, dx) for f, r in zip(fields, refs)])
        assert np.array_equal(l1, expect_l1)
        assert np.array_equal(l2, [l2_absolute(f, r, dx) for f, r in zip(fields, refs)])
        assert np.array_equal(
            sobolev, [sobolev_seminorm(f - r, 0.125, grid) for f, r in zip(fields, refs)]
        )
        assert np.array_equal(
            sobolev, [fft_seminorm(f - r, 0.125, grid) for f, r in zip(fields, refs)]
        )

    @pytest.mark.parametrize("n, stack", [(99, 3), (4000, 5), (100, 300)])
    def test_stacked_fields_match_single_fields(self, n, stack):
        # a stack of fields against one reference per row, one row past a
        # full block, gives each field what its own recorder gives
        grid = Grid1D(n, -1.0, 2.5)
        rows = len(ErrorRecorder(grid, 0.125, stack).ref) + 1
        rng = np.random.default_rng(n + stack)
        fields, refs = rng.normal(size=(rows, stack, n)), rng.normal(size=(rows, n))
        refs[-1] = 0.0
        stacked = ErrorRecorder(grid, 0.125, stack)
        singles = [ErrorRecorder(grid, 0.125) for _ in range(stack)]
        for row, ref in zip(fields, refs):
            stacked.add(row, ref)
            for single, field in zip(singles, row):
                single.add(field, ref)
        norms = stacked.norms()
        assert norms.shape == (4, stack, rows)
        for j, single in enumerate(singles):
            assert np.array_equal(norms[:, j], single.norms()[:, 0])

    @pytest.mark.parametrize("n, rows", [(2, 256), (100, 163), (4000, 4), (40000, 1)])
    def test_block_stays_within_its_byte_budget(self, n, rows):
        recorder = ErrorRecorder(Grid1D(n, 0.0, 1.0), 0.125)
        assert recorder.diff.shape == (rows, n)


class TestFitDecayRate:
    """The decay rate of exp(-r t) is the negated log slope."""

    def test_exact_exponential(self):
        t = np.linspace(0.0, 2.0, 40)
        assert -fit_log_slope(t, np.exp(-5.0 * t)) == pytest.approx(5.0, abs=1e-9)

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 10)
        assert -fit_log_slope(t, np.ones(10)) == pytest.approx(0.0, abs=1e-12)

    def test_floored_decay_underestimates(self):
        t = np.linspace(0.0, 3.0, 60)
        lam, floor = 4.0, 1e-2
        fitted = -fit_log_slope(t, np.exp(-lam * t) + floor)
        assert fitted < lam

    def test_nonpositive_excluded_and_minimum_count(self):
        t = np.array([0.0, 0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            fit_log_slope(t, [1.0, 0.0, 0.0, 0.0])


class TestSweepMinimum:
    def test_v_shape_interior(self):
        lam, err, interior = sweep_minimum([(1, 3.0), (10, 1.0), (100, 2.0)])
        assert (lam, err, interior) == (10.0, 1.0, True)

    def test_monotone_endpoint(self):
        lam, err, interior = sweep_minimum([(1, 3.0), (10, 2.0), (100, 1.0)])
        assert (lam, interior) == (100.0, False)

    def test_tie_takes_smallest_lambda(self):
        lam, _, _ = sweep_minimum([(1, 2.0), (10, 1.0), (50, 1.0), (100, 3.0)])
        assert lam == 10.0

    def test_requires_sorted_gains(self):
        with pytest.raises(ValueError):
            sweep_minimum([(10, 1.0), (1, 2.0), (100, 3.0)])
