import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import kinassim.assimilation as assimilation
import kinassim.metrics as metrics
import kinassim.shallow_water as shallow_water
from kinassim import cli
from kinassim.assimilation import (
    BurgersObserverMode,
    GainSchedule,
    RunConfig,
    SolverError,
    TemporalMode,
    decay_study,
    gain_list,
    run_twin,
    sweep_lambda,
)
from kinassim.config import fixture_path, parse_config
from kinassim.grid import BoundaryKind, Grid1D, XiGrid
from kinassim.observation import (
    NoiseSpec,
    interpolate_in_time,
    mollified_gain,
    nearest_recorded,
    observe,
    sample_observations,
)
from kinassim.shallow_water import DRY_DEPTH, dam_break_state, sv_cfl


def square_pulse(grid, lo, hi, value):
    x = grid.centers
    return np.where((x >= lo) & (x <= hi), value, 0.0)


def burgers_config(lam=100.0, mode=BurgersObserverMode.BGK, noise=None,
                   t_final=0.5, n=100, temporal=TemporalMode.AT_OBSERVATION_TIMES,
                   n_obs=30, obs_span=2.0, **kwargs):
    grid = Grid1D(n, 0.0, 1.0, BoundaryKind.DIRICHLET_ZERO)
    times = obs_span * np.arange(1, n_obs + 1) / n_obs
    return RunConfig(
        model="burgers",
        grid=grid,
        t_final=t_final,
        gain=GainSchedule(lam, temporal_mode=temporal, **kwargs),
        truth_u0=square_pulse(grid, 1.0 / 8.0, 1.0 / 4.0, 1.0),
        observer_u0=square_pulse(grid, 1.0 / 12.0, 1.0 / 6.0, 0.75),
        observer_mode=mode,
        obs_times=times[times <= t_final + 1e-12],
        noise=noise,
    )


def linear_config(lam, speed=1.0, n=256, t_final=None):
    grid = Grid1D(n, 0.0, 1.0, BoundaryKind.PERIODIC)
    x = grid.centers
    truth = np.sin(2 * np.pi * x)
    observer = truth + 0.4 * np.cos(2 * np.pi * x) + 0.2
    if t_final is None:
        t_final = 0.35
    return RunConfig(
        model="burgers",
        grid=grid,
        t_final=t_final,
        gain=GainSchedule(lam, temporal_mode=TemporalMode.EVERY_STEP),
        truth_u0=truth,
        observer_u0=observer,
        fixed_xi=speed,
    )


class TestDeterminism:
    def test_bit_identical_sequential_runs(self):
        cfg = burgers_config(noise=NoiseSpec(epsilon=0.02, alpha=0.25))
        r1 = run_twin(cfg)
        r2 = run_twin(cfg)
        np.testing.assert_array_equal(r1.errors.l1_rel, r2.errors.l1_rel)
        np.testing.assert_array_equal(
            r1.final_observer.values, r2.final_observer.values
        )


class TestTwinBasics:
    @pytest.mark.parametrize(
        "mode", [BurgersObserverMode.COLLAPSE, BurgersObserverMode.MACROSCOPIC]
    )
    def test_identical_ics_zero_error(self, mode):
        cfg = burgers_config(lam=50.0, mode=mode, t_final=0.3)
        cfg.observer_u0 = cfg.truth_u0.copy()
        result = run_twin(cfg)
        assert np.max(result.errors.l1_abs) == 0.0

    def test_zero_gain_matches_forward_run(self):
        cfg = burgers_config(lam=0.0, mode=BurgersObserverMode.COLLAPSE, t_final=0.3)
        cfg.observer_u0 = cfg.truth_u0.copy()
        result = run_twin(cfg)
        assert np.max(result.errors.l1_abs) == 0.0

    def test_assimilation_reduces_error(self):
        base = run_twin(burgers_config(lam=0.0, mode=BurgersObserverMode.COLLAPSE))
        nudged = run_twin(burgers_config(lam=100.0, mode=BurgersObserverMode.COLLAPSE))
        assert nudged.final_l1_rel < 0.5 * base.final_l1_rel

    def test_config_echo_embedded(self):
        cfg = burgers_config(lam=3.0)
        result = run_twin(cfg)
        assert result.config_echo["lambda"] == 3.0
        assert result.config_echo["model"] == "burgers"


class TestGainMasking:
    def test_upstream_cells_bit_identical(self):
        # single positive speed, gain windowed on the right: cells upstream of
        # the window (and not yet reached by its wrapped-around influence)
        # never feel the correction.  The baseline runs at gain 0: a Burgers
        # lane's CFL bound does not depend on the gain, so both runs share
        # the time grid exactly.
        cfg = replace(linear_config(6.0, t_final=0.3), obs_mask=(0.7, 0.9))
        base = linear_config(0.0, t_final=0.3)
        nudged = run_twin(cfg)
        free = run_twin(base)
        x = cfg.grid.centers
        # influence wraps from 0.9 through the periodic boundary at grid speed
        clean = (x > 0.45) & (x < 0.65)
        np.testing.assert_array_equal(
            np.asarray(nudged.final_observer)[clean],
            np.asarray(free.final_observer)[clean],
        )
        inside = (x > 0.7) & (x < 0.9)
        assert not np.array_equal(
            np.asarray(nudged.final_observer)[inside],
            np.asarray(free.final_observer)[inside],
        )


class TestMonotoneImprovement:
    def test_l1_error_nonincreasing_in_gain(self):
        # clean full observations: final error shrinks as the gain grows
        errors = []
        for lam in (0.0, 5.0, 20.0, 100.0):
            cfg = burgers_config(
                lam=lam,
                mode=BurgersObserverMode.MACROSCOPIC,
                temporal=TemporalMode.EVERY_STEP,
                t_final=0.5,
            )
            cfg.obs_times = None  # observe the truth exactly at every step
            errors.append(run_twin(cfg).final_l1_rel)
        assert all(b <= a * 1.001 for a, b in zip(errors, errors[1:]))


class TestDecayStudy:
    @pytest.mark.parametrize("lam", [5.0, 20.0])
    def test_linear_rate_within_five_percent(self, lam):
        fit = decay_study(linear_config(lam))
        assert fit.relative_deviation < 0.05

    def test_zero_gain_rate_near_zero(self):
        # residual rate comes from upwind diffusion of the error profile
        fit = decay_study(linear_config(0.0, t_final=0.2))
        assert abs(fit.rate) < 0.01

    def test_preshock_burgers_rate(self):
        # smooth solution before the first shock: collisionless window
        grid = Grid1D(200, 0.0, 1.0, BoundaryKind.PERIODIC)
        x = grid.centers
        cfg = RunConfig(
            model="burgers",
            grid=grid,
            t_final=0.1,
            gain=GainSchedule(50.0, temporal_mode=TemporalMode.EVERY_STEP),
            truth_u0=0.5 * np.sin(2 * np.pi * x),
            observer_u0=0.5 * np.sin(2 * np.pi * x) + 0.2,
            observer_mode=BurgersObserverMode.MACROSCOPIC,
        )
        fit = decay_study(cfg)
        assert fit.relative_deviation < 0.10

    def test_too_few_rows_refused_with_their_counts(self):
        # a zero speed takes one step over the horizon and records two rows;
        # the fit used to fail with "not enough positive error samples"
        with pytest.raises(ValueError, match="at least 3 recorded error rows, but the run "
                                             "recorded 2 over 1 truth steps"):
            decay_study(linear_config(5.0, speed=0.0))


class TestSweep:
    def test_sweep_preserves_order_and_survives_failures(self):
        cfg = burgers_config(lam=1.0, mode=BurgersObserverMode.MACROSCOPIC, t_final=0.2)
        points = sweep_lambda(cfg, [0.0, 10.0, 100.0])
        assert [p.lam for p in points] == [0.0, 10.0, 100.0]
        assert all(p.failed is None for p in points)

    def test_failures_recorded_as_sentinels(self, monkeypatch):
        # the three gains step as one stack; the lambda = 50 row's failure
        # fails the stack, whose gains then run again one at a time
        relax, stacks = assimilation._relax, []

        def flaky(u, target, lam, dt):
            stacks.append(len(lam))
            if np.any(lam == 50.0):
                raise FloatingPointError("synthetic blow-up")
            return relax(u, target, lam, dt)

        monkeypatch.setattr(assimilation, "_relax", flaky)
        cfg = burgers_config(lam=1.0, mode=BurgersObserverMode.COLLAPSE, t_final=0.1)
        points = sweep_lambda(cfg, [0.0, 50.0, 100.0])
        assert stacks[0] == 3 and set(stacks[1:]) == {1}
        assert points[0].failed is None and points[2].failed is None
        assert "FloatingPointError" in points[1].failed
        assert np.isnan(points[1].final_l1_rel)

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_gain_refused_up_front(self, lam):
        # a NaN gain used to come back as a failed point
        cfg = burgers_config(lam=1.0, mode=BurgersObserverMode.MACROSCOPIC, t_final=0.1)
        with pytest.raises(ValueError, match="gains must be finite and nonnegative"):
            sweep_lambda(cfg, [0.0, lam])

    def test_repeated_gain_refused_up_front(self):
        # a repeated gain ran its twin twice; the CLI's summary then stopped
        # on "lambda values must be strictly increasing"
        cfg = burgers_config(lam=1.0, mode=BurgersObserverMode.COLLAPSE, t_final=0.1)
        with pytest.raises(ValueError, match=r"gain 10 is given twice, got \[1\.0, 10\.0, 10\.0"):
            sweep_lambda(cfg, [1.0, 10.0, 10.0, 100.0])
        assert gain_list(["1", "10", "100"]) == [1.0, 10.0, 100.0]
        with pytest.raises(ValueError, match="gain 0 is given twice"):
            gain_list([0.0, -0.0])

    @pytest.mark.parametrize("jobs", [0, -3, 1.5])
    def test_jobs_below_one_refused(self, jobs):
        # 0 and -3 ran sequentially
        cfg = burgers_config(lam=1.0, mode=BurgersObserverMode.COLLAPSE, t_final=0.1)
        with pytest.raises(ValueError, match=r"jobs must be (an integer|>= 1), got"):
            sweep_lambda(cfg, [0.0, 1.0], jobs=jobs)

    def test_parallel_matches_sequential(self):
        cfg = burgers_config(lam=1.0, mode=BurgersObserverMode.MACROSCOPIC, t_final=0.2)
        seq = sweep_lambda(cfg, [0.0, 50.0])
        par = sweep_lambda(cfg, [0.0, 50.0], jobs=2)
        for a, b in zip(seq, par):
            assert a.final_l1_rel == b.final_l1_rel

    def test_parallel_chunks_match_sequential(self):
        # two chunks of the one Burgers group, of three gains and of two
        cfg = burgers_config(lam=1.0, mode=BurgersObserverMode.COLLAPSE, t_final=0.2)
        lams = [0.0, 10.0, 50.0, 100.0, 300.0]
        assert sweep_lambda(cfg, lams, jobs=2) == sweep_lambda(cfg, lams)

    def test_one_truth_per_burgers_sweep_and_per_saint_venant_gain(self, monkeypatch):
        truths = []
        start_truth = assimilation._Truth.__init__

        def counted(self, config, *args):
            truths.append(config.model)
            start_truth(self, config, *args)

        monkeypatch.setattr(assimilation._Truth, "__init__", counted)
        sweep_lambda(burgers_config(lam=1.0, mode=BurgersObserverMode.COLLAPSE, t_final=0.1),
                     [0.0, 10.0, 100.0, 1000.0])
        assert truths == ["burgers"]
        sweep_lambda(small_sw_config(t_final=0.01), [0.0, 5.0, 50.0])
        assert truths == ["burgers"] + ["shallow_water"] * 3


class TestShallowWaterTwin:
    def make_config(self, lam=10.0, **kwargs):
        grid = Grid1D(80, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
        truth = dam_break_state(grid, 2.0, 1.0, 0.5)
        observer = dam_break_state(grid, 1.0, 2.0, 0.5)
        defaults = dict(
            model="shallow_water",
            grid=grid,
            t_final=0.1,
            gain=GainSchedule(lam, temporal_mode=TemporalMode.EVERY_STEP),
            truth_state=truth,
            observer_state=observer,
        )
        defaults.update(kwargs)
        return RunConfig(**defaults)

    def test_error_decreases_and_energy_recorded(self):
        result = run_twin(self.make_config(lam=50.0))
        assert result.errors.l1_rel[-1] < result.errors.l1_rel[0]
        assert result.energy_observer is not None
        assert len(result.energy_observer) == len(result.errors.times)

    def test_zero_gain_leaves_ic_error(self):
        result = run_twin(self.make_config(lam=0.0))
        assert result.errors.l1_rel[-1] > 0.1

    def test_fine_truth_mode(self):
        grid = Grid1D(40, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
        fine = dam_break_state(grid.refined(4), 2.0, 1.0, 0.5)
        observer = dam_break_state(grid, 2.0, 1.0, 0.5)
        cfg = RunConfig(
            model="shallow_water",
            grid=grid,
            t_final=0.05,
            gain=GainSchedule(0.0),
            truth_state=fine,
            observer_state=observer,
            truth_resolution_factor=4,
        )
        result = run_twin(cfg)
        # same IC at both resolutions: only discretisation-level mismatch
        assert result.errors.l1_rel[-1] < 0.02

    def test_observation_times_beyond_horizon_are_inert(self):
        cfg = self.make_config(
            lam=5.0,
            gain=GainSchedule(5.0, temporal_mode=TemporalMode.EVERY_STEP),
            obs_times=np.array([0.02, 0.05, 0.4, 0.9]),  # last two unreachable
        )
        result = run_twin(cfg)
        assert np.isfinite(result.errors.l1_rel).all()
        all_late = self.make_config(
            lam=5.0,
            gain=GainSchedule(5.0, temporal_mode=TemporalMode.EVERY_STEP),
            obs_times=np.array([0.4, 0.9]),
        )
        # same gain in the CFL, nudging only in the steps that hold an
        # observation time: identical time grid, no nudging anywhere
        free = self.make_config(
            lam=5.0,
            gain=GainSchedule(5.0, temporal_mode=TemporalMode.AT_OBSERVATION_TIMES),
            obs_times=np.array([0.4, 0.9]),
        )
        np.testing.assert_array_equal(
            run_twin(all_late).errors.l1_rel, run_twin(free).errors.l1_rel
        )
        # and the run at gain 0, on its own time grid, ends at the same error
        unnudged = self.make_config(lam=0.0, gain=GainSchedule(0.0))
        assert run_twin(all_late).final_l1_rel == pytest.approx(
            run_twin(unnudged).final_l1_rel, rel=1e-4)

    def test_mollified_times_beyond_horizon_leave_the_bound(self):
        # the mollified CFL gain was sized from every configured time: ten
        # inert times at 0.50-0.518 raised it from 2 500 to 20 492 and took
        # the run from 278 truth steps to 2 171
        grid = Grid1D(20, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
        cfg = RunConfig(
            model="shallow_water", grid=grid, t_final=0.1,
            gain=GainSchedule(50.0, temporal_mode=TemporalMode.MOLLIFIED, sigma=0.02),
            truth_state=dam_break_state(grid, 2.0, 1.0, 0.5),
            observer_state=dam_break_state(grid, 1.5, 1.5, 0.5),
            obs_times=np.array([0.05]),
        )
        inert = replace(cfg, obs_times=np.concatenate(([0.05], np.linspace(0.5, 0.518, 10))))
        assert assimilation._lam_for_cfl(inert) == assimilation._lam_for_cfl(cfg)
        alone, beside = run_twin(cfg), run_twin(inert)
        assert len(beside.dt_history) == len(alone.dt_history) == 278
        np.testing.assert_array_equal(beside.dt_history, alone.dt_history)
        np.testing.assert_array_equal(beside.errors.l1_rel, alone.errors.l1_rel)
        np.testing.assert_array_equal(beside.final_observer.h, alone.final_observer.h)
        np.testing.assert_array_equal(beside.final_observer.q, alone.final_observer.q)
        # with no time inside the horizon nothing nudges, and the bound is
        # the gain-free one
        late = replace(cfg, obs_times=np.linspace(0.5, 0.518, 10))
        assert assimilation._lam_for_cfl(late) == 0.0
        np.testing.assert_array_equal(run_twin(late).dt_history,
                                      run_twin(replace(cfg, gain=GainSchedule(0.0))).dt_history)

    def test_mollified_smoke(self):
        cfg = self.make_config(
            lam=2.0,
            gain=GainSchedule(2.0, temporal_mode=TemporalMode.MOLLIFIED, sigma=0.02),
            obs_times=np.linspace(0.02, 0.09, 5),
        )
        result = run_twin(cfg)
        assert np.isfinite(result.errors.l1_rel).all()

    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_mollified_nudging_settles_depths(self, lam, monkeypatch):
        # every mollified innovation is measured against the observer's
        # current depth, so under the gain-augmented CFL bound the update is
        # a convex combination of nonnegative depths: none goes negative
        # before the settle at any gain, and dry cells keep no momentum
        cfg = parse_config(fixture_path("thacker.cfg"))
        cfg.t_final = 3.0
        cfg.gain = GainSchedule(lam, temporal_mode=TemporalMode.MOLLIFIED, sigma=0.1)
        lows = []
        settle = shallow_water._settle

        def keep_low(h, q, dry):
            lows.append(float(h.min()))
            settle(h, q, dry)

        monkeypatch.setattr(shallow_water, "_settle", keep_low)
        observer = run_twin(cfg).final_observer
        assert len(lows) > 1000 and min(lows) >= 0.0
        dry = observer.h < DRY_DEPTH
        assert np.any(dry)
        assert np.all(observer.q[dry] == 0.0)


class TestMollifiedBurgers:
    def test_error_decays_with_observations(self):
        cfg = burgers_config(
            lam=2.0,
            mode=BurgersObserverMode.MACROSCOPIC,
            temporal=TemporalMode.MOLLIFIED,
            sigma=0.04,
            t_final=1.0,
        )
        result = run_twin(cfg)
        base = burgers_config(lam=0.0, mode=BurgersObserverMode.MACROSCOPIC, t_final=1.0)
        baseline = run_twin(base)
        assert result.final_l1_rel < 0.6 * baseline.final_l1_rel

    @pytest.mark.parametrize("mode", [BurgersObserverMode.COLLAPSE, BurgersObserverMode.BGK])
    @pytest.mark.parametrize("sigma", [0.08, 0.04, 0.02])
    def test_criterion_11_runs_stay_in_the_data_range(self, mode, sigma):
        # lam times the total kernel weight reaches a few thousand, far past
        # an explicit source's stability limit on the gain-free time grid:
        # an explicit mollified source blew the observer up to 1e238 there,
        # and criterion 11, which compares errors only, still passed
        cfg = parse_config(fixture_path("burgers_clean.cfg"))
        cfg.observer_mode = mode
        cfg.gain = GainSchedule(cfg.gain.lam, temporal_mode=TemporalMode.MOLLIFIED, sigma=sigma)
        result = run_twin(cfg)
        observer = result.final_observer
        u = observer if mode is BurgersObserverMode.COLLAPSE else observer.macroscopic()
        # exact observations of a truth in [0, 1], an observer start in [0, 0.75]
        lo = min(cfg.truth_u0.min(), cfg.observer_u0.min())
        hi = max(cfg.truth_u0.max(), cfg.observer_u0.max())
        assert np.all(np.isfinite(u))
        assert lo - 1e-12 <= u.min() and u.max() <= hi + 1e-12
        assert np.all(np.isfinite(result.errors.l1_rel))


class TestGainFreeTimeGrid:
    """The Burgers lanes relax exactly, so every gain runs on the time grid
    of lam = 0; it took 422 to 6 737 steps over the criterion-8 gains."""

    @pytest.mark.parametrize("mode", list(BurgersObserverMode))
    def test_truth_steps_do_not_depend_on_the_gain(self, mode):
        cfg = replace(parse_config(fixture_path("burgers_noisy_eps002.cfg")), observer_mode=mode)
        steps = {
            lam: run_twin(replace(cfg, gain=replace(cfg.gain, lam=lam))).dt_history
            for lam in (0.0, 100.0, 3000.0)
        }
        for dts in steps.values():
            np.testing.assert_array_equal(dts, steps[0.0])
        if mode is not BurgersObserverMode.MACROSCOPIC:
            assert len(steps[0.0]) == 422


class TestXiGridSaturationRefused:
    """With xi_margin = 0 the xi grid is [0, 1], the truth's range; noisy
    observations below 0 would be cut off by the indicator."""

    @pytest.mark.parametrize("mode", [BurgersObserverMode.COLLAPSE, BurgersObserverMode.BGK])
    @pytest.mark.parametrize("temporal,kwargs", [
        (TemporalMode.AT_OBSERVATION_TIMES, {}),
        (TemporalMode.EVERY_STEP, {}),
        (TemporalMode.MOLLIFIED, {"sigma": 0.04}),
    ])
    def test_noisy_observations_off_the_grid(self, mode, temporal, kwargs):
        cfg = burgers_config(mode=mode, temporal=temporal,
                             noise=NoiseSpec(0.02, r=1.0, alpha=0.25), **kwargs)
        cfg.xi_margin = 0.0
        with pytest.raises(ValueError, match=r"value -0\.\d+ in cell \d+ lies outside the xi grid \[0, 1\]"):
            run_twin(cfg)

    def test_exact_observations_on_the_grid_edge_run(self):
        cfg = burgers_config(mode=BurgersObserverMode.COLLAPSE)
        cfg.xi_margin = 0.0
        assert math.isfinite(run_twin(cfg).final_l1_rel)

    @pytest.mark.parametrize("margin", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_margin_refused(self, margin):
        # a negative margin cut the grid to [0.1, 0.9] and the truth's
        # maximum from 1.0 to 0.33, silently
        with pytest.raises(ValueError, match="xi_margin must be finite and nonnegative"):
            replace(burgers_config(), xi_margin=margin)

    @pytest.mark.parametrize("n_xi", [0, -1])
    def test_n_xi_below_one_refused(self, n_xi):
        with pytest.raises(ValueError, match=rf"n_xi must be >= 1, got {n_xi}"):
            replace(burgers_config(), n_xi=n_xi)


def small_sw_config(t_final=0.02, factor=1):
    grid = Grid1D(20, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
    return RunConfig(
        model="shallow_water",
        grid=grid,
        t_final=t_final,
        gain=GainSchedule(5.0, temporal_mode=TemporalMode.EVERY_STEP),
        truth_state=dam_break_state(grid.refined(factor) if factor > 1 else grid,
                                    2.0, 1.0, 0.5),
        observer_state=dam_break_state(grid, 1.5, 1.5, 0.5),
        truth_resolution_factor=factor,
    )


class TestNonFiniteInputRefused:
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_gain(self, lam):
        with pytest.raises(ValueError, match="gain lam"):
            GainSchedule(lam)

    def test_t_final(self):
        # accepted before, and run_twin then returned a single row at t = 0
        with pytest.raises(ValueError, match="t_final"):
            small_sw_config(t_final=math.nan)

    def test_cfl_safety(self):
        with pytest.raises(ValueError, match="cfl_safety"):
            RunConfig(
                model="burgers", grid=Grid1D(8, 0.0, 1.0), t_final=0.1,
                gain=GainSchedule(0.0), cfl_safety=math.nan,
            )

    @pytest.mark.parametrize("times", [
        [0.3, 0.1], [0.1, 0.1], [-0.1, 0.1], [0.1, math.nan],
    ])
    def test_observation_times(self, times):
        # unsorted, repeated, negative or NaN times fired once at observation
        # times and failed only inside the sampling of the every-step modes
        with pytest.raises(ValueError, match="obs_times"):
            replace(burgers_config(), obs_times=np.array(times))

    @pytest.mark.parametrize("window", [(0.8, 0.2), (5.0, 6.0), (0.3, math.nan)])
    def test_observation_window_without_a_cell(self, window):
        # reversed, off the grid or NaN: nothing was observed, nor nudged
        with pytest.raises(ValueError, match="obs_mask .* holds no cell centre"):
            replace(burgers_config(), obs_mask=window)

    def test_truth_resolution_factor(self):
        with pytest.raises(ValueError, match="resolution_factor must be >= 1, got 0"):
            replace(small_sw_config(), truth_resolution_factor=0)


class TestNonFiniteBurgersInputRefused:
    """A NaN truth_u0 was refused as "xi_max must exceed xi_min", an
    infinite observer_u0 and a non-finite fixed_xi as "xi_sup must be
    finite", and XiGrid(-inf, 1, 4) was accepted with dxi = inf."""

    @pytest.mark.parametrize("name", ["truth_u0", "observer_u0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_initial_field(self, name, value):
        cfg = burgers_config()
        u0 = getattr(cfg, name).copy()
        u0[7] = value
        with pytest.raises(ValueError, match=rf"{name} must be finite, got {value} in cell 7"):
            replace(cfg, **{name: u0})

    @pytest.mark.parametrize("speed", [math.nan, math.inf])
    def test_fixed_speed(self, speed):
        with pytest.raises(ValueError, match=rf"fixed_xi must be finite, got {speed}"):
            replace(linear_config(1.0), fixed_xi=speed)

    @pytest.mark.parametrize("bounds,name", [
        ((-math.inf, 1.0), "xi_min"), ((-1.0, math.inf), "xi_max"), ((math.nan, 1.0), "xi_min"),
    ], ids=["minus_inf", "inf", "nan"])
    def test_xi_grid(self, bounds, name):
        with pytest.raises(ValueError, match=rf"{name} must be finite"):
            XiGrid(*bounds, 4)


class TestNonIntegerCountsRefused:
    """Non-integer counts were accepted: Grid1D(2.5) gave 3 centres with the
    last on x_max, refined(1.5) a grid of 15.0 cells, record_every=1.5
    recorded as every 3 steps; a fractional n_xi failed deep in the run."""

    @pytest.mark.parametrize("build,name", [
        pytest.param(lambda: Grid1D(2.5), "n_cells", id="grid"),
        pytest.param(lambda: Grid1D(10.0), "n_cells", id="grid_whole_float"),
        pytest.param(lambda: Grid1D(10).refined(1.5), "resolution_factor", id="refined"),
        pytest.param(lambda: XiGrid(-1.0, 1.0, 2.5), "n_xi", id="xi_grid"),
        pytest.param(lambda: replace(burgers_config(), n_xi=2.5), "n_xi", id="run_n_xi"),
        pytest.param(lambda: replace(burgers_config(), record_every=1.5), "record_every",
                     id="record_every"),
        pytest.param(lambda: replace(small_sw_config(), truth_resolution_factor=2.0),
                     "resolution_factor", id="truth_resolution_factor"),
    ])
    def test_refused_by_name(self, build, name):
        with pytest.raises(ValueError, match=rf"{name} must be an integer, got"):
            build()

    def test_numpy_integers_accepted(self):
        grid = Grid1D(np.int64(10))
        assert grid.refined(np.int32(2)).n_cells == 20
        assert XiGrid(-1.0, 1.0, np.int64(4)).n_xi == 4


class TestInitialDataOnTheGrid:
    """Initial data must lie on the configured grid; before, a mismatch ran
    silently or failed far from its cause."""

    def test_shallow_water_observer_off_the_grid(self):
        # dam-break states on [0, 2] under a [0, 1] config ran to completion
        wide = Grid1D(20, 0.0, 2.0, BoundaryKind.REFLECTIVE_WALL)
        with pytest.raises(ValueError, match="observer_state must lie on"):
            replace(small_sw_config(), truth_state=dam_break_state(wide, 2.0, 1.0, 1.0),
                    observer_state=dam_break_state(wide, 1.5, 1.5, 1.0))

    def test_shallow_water_truth_not_refined(self):
        cfg = small_sw_config()
        with pytest.raises(ValueError, match="truth_state must lie on"):
            replace(cfg, truth_resolution_factor=2)

    def test_burgers_initial_field_of_the_wrong_length(self):
        # a half-length u0 died in a numpy broadcast
        cfg = burgers_config()
        with pytest.raises(ValueError, match=r"observer_u0 must have shape \(100,\), got \(50,\)"):
            replace(cfg, observer_u0=cfg.observer_u0[::2])

    def test_burgers_initial_field_missing(self):
        # a missing u0 raised "xi_max must exceed xi_min"
        with pytest.raises(ValueError, match="truth_u0 must have shape"):
            replace(burgers_config(), truth_u0=None)


class TestSettingsRefused:
    def test_sobolev_order(self):
        # accepted before; the run then failed at its first recorded row
        with pytest.raises(ValueError, match="sobolev_order"):
            replace(burgers_config(), sobolev_order=1.5)

    @pytest.mark.parametrize("times", [None, []])
    def test_mollified_gain_without_observation_times(self, times):
        # None failed inside the run, an empty array with a bare IndexError
        cfg = burgers_config(temporal=TemporalMode.MOLLIFIED, sigma=0.04)
        with pytest.raises(ValueError, match="mollified gain needs obs_times"):
            replace(cfg, obs_times=times)

    def test_config_changed_after_construction(self):
        # run_twin checks the settings again before the truth phase
        cfg = burgers_config()
        cfg.sobolev_order = 1.5
        with pytest.raises(ValueError, match="sobolev_order"):
            run_twin(cfg)


class TestEveryStepModes:
    """EVERY_STEP holds the last observation; INTERPOLATED interpolates
    between observations on every nudged step."""

    def run(self, temporal, monkeypatch):
        calls, seen = [], []
        interpolate = assimilation.interpolate_in_time

        def counted(series, t):
            calls.append(interpolate(series, t))
            return calls[-1]

        advance = assimilation._GainController.advance

        def record(self, lane, state, t, dt, nudge, first):
            seen.append((t, nudge, self.truth.series))
            return advance(self, lane, state, t, dt, nudge, first)

        monkeypatch.setattr(assimilation, "interpolate_in_time", counted)
        monkeypatch.setattr(assimilation._GainController, "advance", record)
        run_twin(burgers_config(100.0, BurgersObserverMode.MACROSCOPIC,
                                temporal=temporal, t_final=1.0))
        return calls, seen

    def test_every_step_holds_the_last_observation(self, monkeypatch):
        calls, seen = self.run(TemporalMode.EVERY_STEP, monkeypatch)
        assert calls == []
        series = seen[0][2]
        rows = set()
        for t, nudge, _ in seen:
            if t < series.times[0] - 1e-12:
                assert nudge is None
                continue
            k = max(int(np.searchsorted(series.times, t + 1e-12)) - 1, 0)
            np.testing.assert_array_equal(nudge[0][1], series.fields[k])
            rows.add(k)
        assert rows == set(range(len(series.times) - 1))  # no step starts at t_final

    def test_interpolated_interpolates_on_every_nudged_step(self, monkeypatch):
        calls, seen = self.run(TemporalMode.INTERPOLATED, monkeypatch)
        nudged = [id(nudge[0][1]) for _, nudge, _ in seen if nudge is not None]
        assert 0 < len(nudged) <= len(calls)
        assert set(nudged) <= {id(c) for c in calls}  # calls keeps each result alive


LEAD_MODES = {
    "hold": TemporalMode.EVERY_STEP,
    "interpolated": TemporalMode.INTERPOLATED,
    "at_times": TemporalMode.AT_OBSERVATION_TIMES,
    "mollified": TemporalMode.MOLLIFIED,
}


class TestTruthLeads:
    """The one time loop steps the truth ahead of the observers: every
    observed field a window uses equals what sample_observations gives over
    the truth run on its own to its end, and no window reads a truth state
    the truth has not reached when the window is resolved."""

    def sw_config(self, mode, every=0.006):
        grid = Grid1D(20, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
        return RunConfig(
            model="shallow_water", grid=grid, t_final=0.1,
            gain=GainSchedule(5.0, temporal_mode=LEAD_MODES[mode],
                              sigma=0.01 if mode == "mollified" else None),
            truth_state=dam_break_state(grid, 2.0, 1.0, 0.5),
            observer_state=dam_break_state(grid, 1.5, 1.5, 0.5),
            obs_times=every * np.arange(1, math.floor(0.1 / every) + 1), obs_mask=(0.2, 0.7),
            noise=NoiseSpec(0.02, r=1.0, alpha=0.25),
        )

    def burgers_config(self, mode):
        return burgers_config(100.0, temporal=LEAD_MODES[mode],
                              sigma=0.04 if mode == "mollified" else None, t_final=0.3,
                              noise=NoiseSpec(0.02, r=1.0, alpha=0.25))

    def reads(self, cfg, monkeypatch):
        """The controller of a run of ``cfg``, and per resolved window its
        start, its truth step, the truth's time then and the fields used."""
        controllers, reads = [], []
        resolve = assimilation._GainController.resolve

        def record(self, t_lo, t_hi, step_index, is_last):
            terms = resolve(self, t_lo, t_hi, step_index, is_last)
            controllers.append(self)
            used = None if terms is None else [np.array(field) for _, field in terms]
            reads.append((t_lo, step_index, self.truth.t, used))
            return terms

        monkeypatch.setattr(assimilation._GainController, "resolve", record)
        run_twin(cfg)
        assert len({id(c) for c in controllers}) == 1
        return controllers[0], reads

    def expected(self, cfg, controller, truth, series, t_lo, step_index):
        """(the indices of the recorded truth states the window at t_lo
        reads, the fields it should use), from the whole truth ``truth``."""
        record = controller.truth  # the run's truth holds the observation record
        times = np.asarray(record.times)
        if series is None:  # the truth's own state at the lane's time level
            index = step_index + record.lane.target_level
            field = observe(truth.trajectory_fields[index], record._noise,
                            record.mask, record.lane.clamp_nonnegative)
            return [index], [field]
        nearest = nearest_recorded(np.asarray(truth.trajectory_times), times)
        if controller.mollifier is not None:
            ks = [k for k, _, _ in mollified_gain(series, controller.mollifier, t_lo)]
            return nearest[ks], [series.fields[k] for k in ks]
        if cfg.gain.temporal_mode is TemporalMode.INTERPOLATED:
            t = min(t_lo, times[-1])
            k = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
            return nearest[k:k + 2], [interpolate_in_time(series, t)]
        k = max(int(np.searchsorted(times, t_lo + 1e-12)) - 1, 0)  # the last time held
        return nearest[[k]], [series.fields[k]]

    @pytest.mark.parametrize("mode", list(LEAD_MODES))
    @pytest.mark.parametrize("model", ["shallow_water", "shallow_water_dense", "burgers"])
    def test_windows_read_what_the_truth_has_reached(self, model, mode, monkeypatch):
        if model == "burgers":
            cfg = self.burgers_config(mode)
        else:  # dense: observation times closer than a truth step
            cfg = self.sw_config(mode, every=0.0007 if model.endswith("dense") else 0.006)
        controller, reads = self.reads(cfg, monkeypatch)
        truth = controller.truth
        assert truth.done
        # the run releases the truth fields it has passed: read them from the
        # same truth run on its own, which keeps them all
        whole = assimilation._Truth(cfg, assimilation._lanes(cfg)[0],
                                    assimilation._initial(cfg)[0])
        whole.finish()
        assert whole.trajectory_times == truth.trajectory_times and whole.dts == truth.dts
        series = None
        if truth.series is not None:
            series = sample_observations(whole, truth.times, mask_interval=cfg.obs_mask,
                                         noise=cfg.noise,
                                         clamp_nonnegative=truth.lane.clamp_nonnegative)
            assert np.array_equal(truth.series.fields, series.fields, equal_nan=True)
        used = [r for r in reads if r[3] is not None]
        assert len(used) > 3
        for t_lo, step_index, truth_t, fields in used:
            indices, expected = self.expected(cfg, controller, whole, series, t_lo, step_index)
            assert max(truth.trajectory_times[i] for i in indices) <= truth_t
            assert len(fields) == len(expected)
            for got, want in zip(fields, expected):
                assert np.array_equal(got, want, equal_nan=True)
        # the truth leads: some windows resolve while it is ahead of them
        assert any(truth_t > t_lo for t_lo, _, truth_t, _ in reads)


def dividing_engquist_osher_twin():
    """An Engquist-Osher twin whose observer carries an unobserved pulse of
    height 3 ahead of the observed window [0, 0.5]: its bound is about a
    third of the truth's, so it divides every truth step."""
    cfg = burgers_config(100.0, BurgersObserverMode.MACROSCOPIC, t_final=0.3)
    return replace(cfg, observer_u0=cfg.observer_u0 + square_pulse(cfg.grid, 0.55, 0.7, 3.0),
                   obs_mask=(0.0, 0.5))


class TestObservationFiring:
    def windows(self, cfg, monkeypatch):
        """The observer's substep windows [t, t + dt] of one run, and the run."""
        windows = []
        advance = assimilation._GainController.advance

        def record_window(self, lane, state, t, dt, *rest):
            windows.append((t, t + dt))
            return advance(self, lane, state, t, dt, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(assimilation._GainController, "advance", record_window)
            return windows, run_twin(cfg)

    def test_each_observation_time_fires_once_under_substepping(self, monkeypatch):
        # consecutive substep windows [t, t + dt/m] may overlap in floating
        # point; an observation time in the overlap fired in both windows.
        # The nudges inside the observed window do not move the substeps.
        cfg = dividing_engquist_osher_twin()
        windows, result = self.windows(cfg, monkeypatch)
        assert len(windows) >= 2 * len(result.dt_history)  # m > 1 on every step
        overlaps = [i for i in range(len(windows) - 1) if windows[i][1] > windows[i + 1][0]]
        assert overlaps
        # a window with two observation times nudges once, so the times
        # inside two overlapping windows give way to the one in the overlap
        times = cfg.obs_times
        for i in overlaps:
            times = times[(times < windows[i][0]) | (times > windows[i + 1][1])]
        times = np.sort(np.append(times, [windows[i + 1][0] for i in overlaps]))
        cfg = replace(cfg, obs_times=times)
        nudged = []
        relax = assimilation._relax

        def count_nudged(u, target, lam, dt):
            nudged.append(target is not None and bool(np.all(lam > 0.0)))
            return relax(u, target, lam, dt)

        monkeypatch.setattr(assimilation, "_relax", count_nudged)
        assert self.windows(cfg, monkeypatch)[0] == windows
        assert sum(nudged) == np.count_nonzero(cfg.obs_times <= cfg.t_final) == 8


def bumped_observer_bed(cfg):
    """``cfg`` with its observer on a bed with a bump of height 0.05 at
    x = 0.25, over the truth's grid."""
    state = cfg.observer_state
    x = state.grid.centers
    bump = 0.05 * np.exp(-(((x - 0.25) / 0.05) ** 2))
    return replace(cfg, observer_state=replace(state, z_b=state.z_b + bump))


class TestLanes:
    """A lane is a scheme and holds no state: the truth steps through its
    observers' lane object wherever it runs their scheme on their grid and
    bed, and every state, the truth's included, is a stack of rows."""

    SHARED = {
        "linear": lambda: linear_config(1.0),
        "engquist_osher": lambda: burgers_config(mode=BurgersObserverMode.MACROSCOPIC),
        "collapse": lambda: burgers_config(mode=BurgersObserverMode.COLLAPSE),
        "saint_venant": small_sw_config,
    }
    APART = {
        "bgk": lambda: burgers_config(mode=BurgersObserverMode.BGK),
        "refined_saint_venant": lambda: small_sw_config(factor=2),
        "saint_venant_on_another_bed": lambda: bumped_observer_bed(small_sw_config()),
    }

    @pytest.mark.parametrize("case", list(SHARED))
    def test_one_lane_where_the_truth_runs_the_observers_scheme(self, case):
        truth, observer = assimilation._lanes(self.SHARED[case]())
        assert truth is observer

    @pytest.mark.parametrize("case", list(APART))
    def test_two_lanes_otherwise(self, case):
        truth, observer = assimilation._lanes(self.APART[case]())
        assert truth is not observer

    @pytest.mark.parametrize("case", list(SHARED) + list(APART))
    def test_every_state_is_a_stack_of_rows(self, case):
        cfg = {**self.SHARED, **self.APART}[case]()
        k = 1 if cfg.model == "shallow_water" else 3
        for lane, initial, rows in zip(assimilation._lanes(cfg), assimilation._initial(cfg),
                                       (1, k)):
            state = lane.stack(initial, rows)
            assert lane.observed(state).shape == (rows, cfg.grid.n_cells)
            assert not any(hasattr(lane, name) for name in ("initial", "boundary", "field"))
        if cfg.model == "shallow_water":
            with pytest.raises(ValueError, match="steps one observer, not 2"):
                lane.stack(initial, 2)

    @pytest.mark.parametrize("case", ["saint_venant", "refined_saint_venant",
                                      "saint_venant_on_another_bed"])
    def test_a_truth_steps_beside_its_observer_only_on_their_lane(self, case, monkeypatch):
        cfg = {**self.SHARED, **self.APART}[case]()
        pairs, step_pair = [], assimilation._step_pair

        def counted(*args, **kwargs):
            pairs.append(1)
            return step_pair(*args, **kwargs)

        monkeypatch.setattr(assimilation, "_step_pair", counted)
        steps = len(run_twin(cfg).dt_history)
        if case == "saint_venant":  # the truth leads by one step
            assert len(pairs) == steps - 1 > 0
        else:
            assert not pairs


class TestObservedDepthCFL:
    """The Saint-Venant observer's bound allows for the depth it is nudged
    toward, not only for its own state."""

    def test_deeper_observation_tightens_the_bound(self):
        cfg = small_sw_config()
        lane = assimilation._lanes(cfg)[1]
        state = cfg.observer_state
        n, dx = cfg.grid.n_cells, cfg.grid.dx
        state = replace(state, q=np.linspace(-0.5, 0.5, n) * state.h)
        obs = np.full(n, 4.0)
        obs[2], obs[5], obs[9] = math.nan, 0.0, -1.0  # unobserved, dry, dry
        wet = np.isfinite(obs) & (obs > DRY_DEPTH)
        speed = np.abs(state.velocity[wet]) + state.profile.support_halfwidth * np.sqrt(
            state.g * obs[wet] / 2.0
        )
        expected = cfg.cfl_safety * dx / (cfg.gain.lam * dx + np.max(speed))
        own = sv_cfl(state, cfg.gain.lam, cfg.cfl_safety)
        assert expected < own
        rows = shallow_water._Rows.of((state,))  # the state as the lane carries it
        assert lane.cfl(rows) == lane.cfl(rows, None) == own
        with np.errstate(invalid="raise"):  # no square root of a dry depth
            assert lane.cfl(rows, obs) == expected

    def test_window_probe_equals_the_full_grid_probe(self):
        # the probe reads only the cells of the observation window, outside
        # which every target of a twin is NaN: on random windows, with wet,
        # dry, negative and NaN cells, all-dry and all-NaN windows among
        # them, its bound equals the one evaluated over the whole grid
        rng = np.random.default_rng(53)
        cfg = small_sw_config()
        n = cfg.grid.n_cells
        bound_by_kind = [0, 0]  # windows where the probe tightens the bound, and not
        for trial in range(400):
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo + 1, n + 1))
            lane = assimilation._SWLane(cfg.grid, 5.0, 0.95, window=slice(lo, hi))
            h = rng.uniform(0.0, 2.0, n)
            h[rng.random(n) < 0.2] = 0.0
            rows = shallow_water._Rows.of(
                (replace(cfg.observer_state, h=h, q=h * rng.uniform(-3.0, 3.0, n)),))
            obs = np.full(n, math.nan)
            obs[lo:hi] = rng.uniform(0.0, 8.0, hi - lo)
            pick = rng.random(n)
            obs[(pick < 0.15) & ~np.isnan(obs)] = rng.choice([0.0, DRY_DEPTH, 0.5 * DRY_DEPTH, -1.0])
            obs[(pick > 0.9) & ~np.isnan(obs)] = math.nan
            if trial % 5 == 0:  # every observed cell dry
                obs[lo:hi] = 0.0
            elif trial % 5 == 1:  # nothing observed
                obs[lo:hi] = math.nan
            wet = np.isfinite(obs) & (obs > DRY_DEPTH)
            bed, want = rows.bed, lane.bound(rows)
            if wet.any():
                speed = np.abs(rows.a[2, 0][wet]) + bed.w * np.sqrt(obs[wet] * bed.half_g)
                want = min(want, bed.bound(float(np.max(speed)), lane.lam_cfl, lane.safety))
            with np.errstate(invalid="raise"):  # no square root of a dry depth
                got = lane.cfl(rows, obs)
            assert got == want
            bound_by_kind[got == lane.bound(rows)] += 1
        assert min(bound_by_kind) > 50

    def test_observer_bound_sees_each_target(self, monkeypatch):
        # exact observations every step: the target of step n is the truth's
        # depth at its start, and the observer's bound receives it
        cfg = small_sw_config()
        truth = assimilation._Truth(cfg, assimilation._lanes(cfg)[0],
                                    assimilation._initial(cfg)[0])
        truth.finish()
        seen = []
        cfl = assimilation._SWLane.cfl

        def record_obs(self, state, obs=None):
            if obs is not None:
                seen.append(obs)
            return cfl(self, state, obs)

        monkeypatch.setattr(assimilation._SWLane, "cfl", record_obs)
        run_twin(cfg)
        assert len(seen) == len(truth.dts)
        for obs, field in zip(seen, truth.trajectory_fields):
            np.testing.assert_array_equal(obs, field)


def test_one_speed_evaluation_per_stepped_state(monkeypatch):
    # the time loop's bound, the observed-depth probe and the step's CFL
    # check share one evaluation of each stepped row's wave speed (they made
    # two or three): an initial state's on first use, every other row's on
    # the stack of the step that made it, one evaluation per step; an
    # observer deeper than the truth divides the truth's steps
    cfg = small_sw_config(t_final=0.05)
    cfg = replace(cfg, observer_state=dam_break_state(cfg.grid, 3.0, 3.0, 0.5))
    evaluations, stepped = [], []  # rows per evaluation, rows per step
    speeds, step = shallow_water._max_wave_speeds, shallow_water._Stack.step

    def counted_speeds(bed, h, u, *args):
        evaluations.append(len(h))
        return speeds(bed, h, u, *args)

    def counted_step(stack, a, *args):
        stepped.append(a.shape[1])
        return step(stack, a, *args)

    monkeypatch.setattr(shallow_water, "_max_wave_speeds", counted_speeds)
    monkeypatch.setattr(shallow_water._Stack, "step", counted_step)
    result = run_twin(cfg)
    truth_steps = len(result.dt_history)
    assert sum(stepped) - truth_steps > truth_steps
    # the initial truth and observer, then one evaluation per step, on its
    # rows; the two final rows are never stepped
    assert evaluations == [1, 1] + stepped
    assert 2 in stepped


SW_BOUND = assimilation._SWLane.bound  # the Saint-Venant lane's own-state bound


def n_cells(rows):
    """The cell count of a Saint-Venant lane's rows."""
    return rows.a.shape[-1]


def collapsing_bound(collapses=lambda rows: True):
    """A stand-in for the Saint-Venant lane's bound that shrinks like 1/k^3
    with the call count k on the rows ``collapses`` picks, so their steps sum
    to less than any horizon; other rows get the true bound."""
    calls = []

    def bound(lane, rows):
        value = SW_BOUND(lane, rows)
        if not collapses(rows):
            return value
        calls.append(None)
        return value / len(calls) ** 3

    return bound


class TestTimeLoopsTerminate:
    def test_nan_bound_is_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(assimilation._SWLane, "bound", lambda *args: math.nan)
        with pytest.raises(SolverError, match="truth CFL bound nan"):
            run_twin(small_sw_config())

    def test_nan_bound_exits_with_solver_code(self, monkeypatch, capsys):
        monkeypatch.setattr(assimilation._SWLane, "bound", lambda *args: math.nan)
        assert cli.main(["run-sv", fixture_path("dam_break.cfg"), "--quiet"]) == 2
        assert "CFL bound nan" in capsys.readouterr().err

    def test_nan_observer_bound_is_a_solver_error(self, monkeypatch):
        # before, this surfaced as "cannot convert float NaN to integer"
        cfg = small_sw_config(factor=2)

        def nan_for_observer(lane, rows):
            if n_cells(rows) == cfg.grid.n_cells:
                return math.nan
            return SW_BOUND(lane, rows)

        monkeypatch.setattr(assimilation._SWLane, "bound", nan_for_observer)
        with pytest.raises(SolverError, match="observer CFL bound nan"):
            run_twin(cfg)

    @pytest.mark.parametrize("bound", [0.0, -1e-3])
    def test_nonpositive_bound_is_a_solver_error(self, monkeypatch, bound):
        monkeypatch.setattr(assimilation._SWLane, "bound", lambda *args: bound)
        with pytest.raises(SolverError, match="not a positive finite step"):
            run_twin(small_sw_config())

    def test_collapsing_truth_bound_exhausts_the_budget(self, monkeypatch):
        monkeypatch.setattr(assimilation._SWLane, "bound", collapsing_bound())
        with pytest.raises(SolverError, match="truth run used up its budget"):
            run_twin(small_sw_config())

    def test_collapsing_observer_bound_exhausts_the_budget(self, monkeypatch):
        # the truth runs on a twice finer grid with its true bound; only the
        # observer's bound collapses
        cfg = small_sw_config(t_final=0.04, factor=2)
        monkeypatch.setattr(
            assimilation._SWLane, "bound",
            collapsing_bound(lambda rows: n_cells(rows) == cfg.grid.n_cells),
        )
        with pytest.raises(SolverError, match="observer run used up its budget"):
            run_twin(cfg)


class TestErrorsDoNotDependOnBlockSize:
    """One-row blocks record the same errors as the default blocks."""

    def assert_same(self, result, other):
        for name in ("times", "l1_rel", "l1_abs", "l2_abs", "sobolev"):
            assert np.array_equal(getattr(result.errors, name), getattr(other.errors, name))
        assert np.array_equal(result.recorded_dt, other.recorded_dt, equal_nan=True)

    def one_row_blocks(self, cfg, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_BLOCK_BYTES", 0)
            return run_twin(cfg)

    def test_burgers_run_one_row_past_a_full_block(self, monkeypatch):
        cfg = linear_config(10.0, n=64)
        rows = len(metrics.ErrorRecorder(cfg.grid, cfg.sobolev_order).diff)
        dt = run_twin(replace(cfg, t_final=0.05)).dt_history[0]
        cfg = replace(cfg, t_final=(rows - 0.5) * dt)  # rows steps after t = 0
        default = run_twin(cfg)
        assert len(default.errors.times) == rows + 1
        self.assert_same(self.one_row_blocks(cfg, monkeypatch), default)

    def test_saint_venant_run_with_a_final_partial_row(self, monkeypatch):
        cfg = replace(small_sw_config(t_final=0.1), record_every=10)
        default = run_twin(cfg)
        assert len(default.dt_history) % 10  # the last row closes a partial stride
        self.assert_same(self.one_row_blocks(cfg, monkeypatch), default)

    def test_refined_truth_run(self, monkeypatch):
        cfg = small_sw_config(t_final=0.05, factor=2)
        self.assert_same(self.one_row_blocks(cfg, monkeypatch), run_twin(cfg))


def test_truth_phase_holds_the_trajectory_once():
    # stacking a list of per-step fields at the end of the phase held every
    # field twice (a peak of 2.16 times the fields here); a truth run on its
    # own keeps each step's field once, in an array of its own
    grid = Grid1D(200, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
    cfg = RunConfig(
        model="shallow_water", grid=grid, t_final=0.75, gain=GainSchedule(0.0),
        truth_state=dam_break_state(grid, 2.0, 1.0, 0.5),
        observer_state=dam_break_state(grid, 2.0, 1.0, 0.5),
    )
    truth_lane, _ = assimilation._lanes(cfg)
    tracemalloc.start()
    try:
        truth = assimilation._Truth(cfg, truth_lane, cfg.truth_state)
        truth.finish()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(field.nbytes for field in truth.trajectory_fields)
    assert len(truth.trajectory_fields) > 768
    assert peak < 1.75 * held
    np.testing.assert_array_equal(truth.trajectory_fields[-1], truth.state.h)


def dam_break_twin(lam=20.0):
    """The dam break of test_truth_phase_holds_the_trajectory_once, nudged at
    ``lam`` on every step toward the truth's own depth."""
    grid = Grid1D(200, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
    return RunConfig(
        model="shallow_water", grid=grid, t_final=0.75, gain=GainSchedule(lam),
        truth_state=dam_break_state(grid, 2.0, 1.0, 0.5),
        observer_state=dam_break_state(grid, 1.5, 1.5, 0.5),
    )


class TestTruthWindow:
    """A twin holds the truth fields of its lead over the observers, not
    the whole trajectory: the loop releases every field behind the
    observers' truth step, and the truth steps alone only as far as the
    observers' next windows read."""

    CASES = {  # name: (config, most live fields, least truth steps)
        "dam_break": (dam_break_twin, 4, 768),
        # interpolated, read from an observation series
        "thacker": (lambda: parse_config(fixture_path("thacker.cfg")), 25, 768),
        "thacker_noisy": (lambda: parse_config(fixture_path("thacker_noisy.cfg")), 25, 768),
        # the Engquist-Osher observer that divides every truth step
        "engquist_osher": (dividing_engquist_osher_twin, 4, 30),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_live_fields_stay_within_the_lead(self, case, monkeypatch):
        config, most, least = self.CASES[case]
        step, excess, live, first = [0], [], [], [0]
        resolve, take = assimilation._GainController.resolve, assimilation._Truth.take

        def note_step(self, t_lo, t_hi, step_index, is_last):
            step[0] = step_index
            return resolve(self, t_lo, t_hi, step_index, is_last)

        def count_live(self, state, dt):
            take(self, state, dt)
            fields = self.trajectory_fields
            while fields[first[0]] is None:  # released fields are a prefix
                first[0] += 1
            live.append(len(fields) - first[0])  # fields from the first one held on
            excess.append(live[-1] - (len(self.dts) - step[0]))  # over the truth's lead

        monkeypatch.setattr(assimilation._GainController, "resolve", note_step)
        monkeypatch.setattr(assimilation._Truth, "take", count_live)
        result = run_twin(config())
        assert len(excess) == len(result.dt_history) > least
        assert max(excess) <= 3
        assert max(live) <= most
