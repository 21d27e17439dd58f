import math

import numpy as np
import pytest

from kinassim.grid import BoundaryKind, Grid1D
from kinassim.burgers import step_kinetic_linear
from kinassim.observation import (
    Mollifier,
    NoiseSpec,
    ObservationSeries,
    interpolate_in_time,
    mollified_gain,
    noise_field,
    observability_check,
    sample_observations,
)
from kinassim.metrics import sweep_minimum
from oracles import noise_l2_closed_form, relaxed


def three_times_series(times):
    grid = Grid1D(4, 0.0, 1.0)
    return ObservationSeries(times, np.zeros((len(times), 4)), np.ones(4, dtype=bool), grid)


@pytest.mark.parametrize("call, match", [
    # Mollifier(nan) had NaN values, Mollifier(inf) was 0 everywhere
    (lambda: Mollifier(math.nan), "sigma must be positive and finite, got nan"),
    (lambda: Mollifier(math.inf), "sigma must be positive and finite, got inf"),
    # accepted before
    (lambda: three_times_series([math.nan, 1.0]), "observation times must be finite"),
    (lambda: three_times_series([0.0, math.inf]), "observation times must be finite"),
    # returned an all-NaN field before
    (lambda: interpolate_in_time(three_times_series([0.0, 1.0]), math.nan),
     "time nan outside the observation span"),
    # returned (2.0, nan, True) before
    (lambda: sweep_minimum([(1, 0.5), (2, math.nan), (3, 0.1)]),
     "sweep error at lambda 2.0 must be finite, got nan"),
    (lambda: sweep_minimum([(1, 0.5), (math.inf, 0.2), (3, 0.1)]),
     "sweep lambda values must be finite, got inf"),
], ids=["mollifier_nan", "mollifier_inf", "series_time_nan", "series_time_inf",
        "interpolate_at_nan", "sweep_error_nan", "sweep_lambda_inf"])
def test_observation_and_analysis_refuse_non_finite_input_by_name(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class FakeTruth:
    def __init__(self, times, fields, grid):
        self.trajectory_times = np.asarray(times, dtype=float)
        self.trajectory_fields = np.asarray(fields, dtype=float)
        self.grid = grid


def unit_grid(n=100):
    return Grid1D(n, 0.0, 1.0)


class TestNoiseField:
    def test_plain_cosine(self):
        grid = unit_grid(64)
        spec = NoiseSpec(epsilon=0.05, r=1.0, alpha=0.0)
        np.testing.assert_allclose(
            noise_field(spec, grid), 0.05 * np.cos(grid.centers / 0.05)
        )

    @pytest.mark.parametrize(
        "eps,expected", [(0.02, 4.0e-2), (0.002, 7.0e-3)]
    )
    def test_l2_norms_match_reported_values(self, eps, expected):
        # the reference values are rounded to two figures
        grid = unit_grid(4000)
        spec = NoiseSpec(epsilon=eps, r=1.0, alpha=0.25)
        field = noise_field(spec, grid)
        l2 = math.sqrt(float(np.sum(field**2) * grid.dx))
        assert l2 == pytest.approx(expected, rel=0.1)
        assert l2 == pytest.approx(noise_l2_closed_form(spec), rel=2e-2)

    def test_closed_form_matches_fine_quadrature(self):
        # the closed form drops the alpha phase shift, an O(eps) correction
        spec = NoiseSpec(epsilon=0.013, r=1.2, alpha=0.3)
        grid = unit_grid(20000)
        field = noise_field(spec, grid)
        l2 = math.sqrt(float(np.sum(field**2) * grid.dx))
        assert l2 == pytest.approx(noise_l2_closed_form(spec), rel=2e-2)

    def test_alpha_bound_enforced(self):
        with pytest.raises(ValueError):
            NoiseSpec(epsilon=0.1, alpha=0.5)
        with pytest.raises(ValueError):
            NoiseSpec(epsilon=0.0)

    @pytest.mark.parametrize("field", ["epsilon", "r", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_refused(self, field, value):
        # a NaN epsilon made every observation NaN, i.e. unobserved, and the
        # twin quietly returned the free run's error
        with pytest.raises(ValueError, match=f"{field} must"):
            NoiseSpec(**{"epsilon": 0.1, field: value})


class TestSampleObservations:
    def make_truth(self, n_steps=11, n=20):
        grid = unit_grid(n)
        times = np.linspace(0.0, 1.0, n_steps)
        fields = np.outer(times, np.ones(n))  # field value == time stamp
        return FakeTruth(times, fields, grid)

    def test_full_extraction_equals_truth(self):
        truth = self.make_truth()
        series = sample_observations(truth, truth.trajectory_times)
        np.testing.assert_allclose(series.fields, truth.trajectory_fields)
        assert series.mask.all()

    def test_nearest_state_selection(self):
        truth = self.make_truth()
        series = sample_observations(truth, [0.14])  # nearest recorded is 0.1
        np.testing.assert_allclose(series.fields[0], 0.1)

    def test_mask_fraction(self):
        grid = Grid1D(400, 0.0, 4.0)
        truth = FakeTruth([0.0, 1.0], np.zeros((2, 400)), grid)
        series = sample_observations(truth, [0.5], mask_interval=(1.5, 2.5))
        assert np.count_nonzero(series.mask) == 100  # 25% of the domain
        assert np.all(np.isnan(series.fields[0][~series.mask]))

    def test_noise_additivity_on_zero_truth(self):
        grid = unit_grid(50)
        truth = FakeTruth([0.0, 1.0], np.zeros((2, 50)), grid)
        spec = NoiseSpec(epsilon=0.03, alpha=0.25)
        series = sample_observations(truth, [1.0], noise=spec)
        np.testing.assert_allclose(series.fields[0], noise_field(spec, grid))

    def test_clamped_depths(self):
        grid = unit_grid(50)
        truth = FakeTruth([0.0, 1.0], np.full((2, 50), 0.01), grid)
        spec = NoiseSpec(epsilon=0.1, alpha=0.25)
        series = sample_observations(truth, [1.0], noise=spec, clamp_nonnegative=True)
        assert np.min(series.fields[0]) >= 0.0

    def test_time_outside_span_rejected(self):
        truth = self.make_truth()
        with pytest.raises(ValueError, match="outside"):
            sample_observations(truth, [1.5])


class TestInterpolateInTime:
    def make_series(self):
        grid = unit_grid(10)
        times = np.array([0.0, 1.0, 2.0])
        v = np.ones(10)
        fields = np.stack([v, 1.0 * v, 3.0 * v])
        return ObservationSeries(times, fields, np.ones(10, bool), grid)

    def test_exact_at_stored_times(self):
        series = self.make_series()
        np.testing.assert_allclose(interpolate_in_time(series, 1.0), 1.0)

    def test_midpoint_of_equal_fields(self):
        series = self.make_series()
        np.testing.assert_allclose(interpolate_in_time(series, 0.5), 1.0)

    def test_linear_midpoint(self):
        series = self.make_series()
        np.testing.assert_allclose(interpolate_in_time(series, 1.5), 2.0)

    def test_extrapolation_rejected(self):
        series = self.make_series()
        with pytest.raises(ValueError):
            interpolate_in_time(series, 2.5)

    def test_equals_two_point_blend(self):
        # on the stored times, between them and at both ends of the span
        # (inside the tolerance), against the blend of the two fields whose
        # times bracket t
        rng = np.random.default_rng(16)
        times = np.cumsum(rng.uniform(0.05, 0.5, 13))
        fields = rng.normal(size=(13, 10))
        series = ObservationSeries(times, fields, np.ones(10, bool), unit_grid(10))
        tol = 1e-9 * max(1.0, times[-1])
        ends = [times[0] - 0.5 * tol, times[0], times[-1], times[-1] + 0.5 * tol]
        queries = np.concatenate([times, rng.uniform(times[0], times[-1], 183), ends])
        for t in queries:
            clamped = min(max(t, times[0]), times[-1])
            k = min(max(np.count_nonzero(times <= clamped) - 1, 0), len(times) - 2)
            w = (clamped - times[k]) / (times[k + 1] - times[k])
            want = (1.0 - w) * fields[k] + w * fields[k + 1]
            np.testing.assert_array_equal(interpolate_in_time(series, float(t)), want)
            np.testing.assert_array_equal(interpolate_in_time(series, t), want)
        for t in (times[0] - 2.0 * tol, times[-1] + 2.0 * tol, -1.0, 10.0):
            with pytest.raises(ValueError, match="outside the observation span"):
                interpolate_in_time(series, t)


class TestMollifier:
    def test_unit_integral_and_compact_support(self):
        moll = Mollifier(0.3)
        s = np.linspace(-0.3, 0.3, 200001)
        integral = np.trapezoid(moll.value(s), s)
        assert integral == pytest.approx(1.0, abs=1e-9)
        assert moll.value(0.31) == 0.0
        assert np.all(moll.value(s) >= 0.0)

    def test_weight_examples(self):
        grid = unit_grid(4)
        times = np.array([1.0, 2.0, 3.0])
        fields = np.zeros((3, 4))
        series = ObservationSeries(times, fields, np.ones(4, bool), grid)
        moll = Mollifier(0.25)
        pairs = mollified_gain(series, moll, 0.2)
        w_far = sum(w for _, w, _ in pairs)
        assert w_far == 0.0 and pairs == []
        pairs = mollified_gain(series, moll, 2.0)
        w_peak = sum(w for _, w, _ in pairs)
        assert w_peak == pytest.approx(1.0 / 0.25)  # phi(0)/sigma
        assert [p[0] for p in pairs] == [1]

    def test_partition_sum(self):
        # integral over the run of the summed kernels counts the interior
        # observation times
        grid = unit_grid(4)
        times = np.array([1.0, 2.0, 3.0])
        series = ObservationSeries(times, np.zeros((3, 4)), np.ones(4, bool), grid)
        moll = Mollifier(0.2)
        t = np.linspace(0.0, 4.0, 400001)
        total = np.zeros_like(t)
        for tk in times:
            total += moll.value(t - tk)
        integral = np.trapezoid(total, t)
        assert integral == pytest.approx(len(times), abs=1e-10)


class TestObservability:
    def test_observable_case(self):
        res = observability_check(1.0, (0.25, 0.75), 0.6)
        assert res.observable and res.t_min == pytest.approx(0.5)

    def test_not_observable_case(self):
        res = observability_check(1.0, (0.25, 0.75), 0.4)
        assert not res.observable

    def test_zero_speed_never_observable(self):
        res = observability_check(0.0, (0.25, 0.75), 100.0)
        assert not res.observable and math.isinf(res.t_min) and res.x_inf == 0.0

    def test_x_inf_closed_form_short_horizon(self):
        # distance 0.6, window width 0.5: worst start overlaps 0.1
        res = observability_check(1.0, (0.25, 0.75), 0.6)
        assert res.x_inf == pytest.approx(0.1)

    def test_x_inf_with_wraps(self):
        res = observability_check(2.0, (0.2, 0.7), 1.0)  # travels 2 laps
        assert res.x_inf == pytest.approx((2 * 0.5 + 0.0) / 2.0)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            observability_check(1.0, (0.0, 0.5), 1.0)


class TestPartialSpaceDecay:
    def test_masked_gain_error_bound(self):
        # single-speed transport with a windowed gain: the error norm obeys
        # the closed-form exp(-lam * X_inf(t)) bound within 5%
        n = 400
        grid = Grid1D(n, 0.0, 1.0, BoundaryKind.PERIODIC)
        speed, lam = 1.0, 8.0
        a, b = 0.25, 0.75
        lam_field = np.where(grid.interval_mask(a, b), lam, 0.0)
        dt = grid.dx / speed  # unit CFL: transport is an exact shift
        rng = np.random.default_rng(3)
        err = rng.uniform(0.5, 1.0, n)
        norm0 = float(np.sqrt(np.sum(err**2) * grid.dx))
        t = 0.0
        for _ in range(int(0.9 / dt)):
            # transport-exact shift substep, then windowed decay
            err = step_kinetic_linear(err, speed, dt, grid)
            err = relaxed(step_kinetic_linear(err, 0.0, dt, grid), np.zeros(n), lam_field, dt)
            t += dt
            norm = float(np.sqrt(np.sum(err**2) * grid.dx))
            x_inf = observability_check(speed, (a, b), t).x_inf
            assert norm <= norm0 * math.exp(-lam * x_inf) * 1.05

    def test_decay_saturates_at_window_rate(self):
        # after one full wrap every characteristic has spent ~width*t inside
        n = 200
        grid = Grid1D(n, 0.0, 1.0, BoundaryKind.PERIODIC)
        speed, lam, (a, b) = 1.0, 4.0, (0.25, 0.75)
        lam_field = np.where(grid.interval_mask(a, b), lam, 0.0)
        dt = grid.dx / speed
        err = np.ones(n)
        steps = 3 * n  # three wraps
        for _ in range(steps):
            err = step_kinetic_linear(err, speed, dt, grid)
            err = relaxed(step_kinetic_linear(err, 0.0, dt, grid), np.zeros(n), lam_field, dt)
        t = steps * dt
        x_inf = observability_check(speed, (a, b), t).x_inf
        norm = float(np.sqrt(np.sum(err**2) * grid.dx))
        # discrete decay (1 - lam dt)^k is slightly faster than exp(-lam t_in)
        assert norm <= math.exp(-lam * x_inf) * 1.05
