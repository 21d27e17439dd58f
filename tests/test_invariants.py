"""Seeded invariants over random states.

The batch property: a step of k stacked rows gives each row exactly what
its one-row call gives (the Burgers and the Saint-Venant steps), and a gain sweep, which steps the observers of each
group of its gains as one stack on one truth, gives each gain exactly what
``run_twin`` gives at that gain.  Random data come from numpy's seeded
``Generator``: piecewise-constant fields of 2-4 levels plus a small ripple,
and observations with NaN windows.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

import kinassim.assimilation as assimilation
from kinassim.assimilation import (
    BurgersObserverMode,
    GainSchedule,
    RunConfig,
    TemporalMode,
    run_twin,
    sweep_lambda,
)
from kinassim.burgers import (
    KineticField,
    burgers_cfl,
    step_collapse_macroscopic,
    step_kinetic_burgers,
    step_kinetic_linear,
    step_macroscopic_burgers,
)
from kinassim.grid import BoundaryKind, Grid1D, XiGrid
from kinassim.kinetic import ChiProfile
from kinassim.observation import NoiseSpec
from kinassim.shallow_water import (
    DRY_DEPTH,
    SWState,
    _Rows,
    cell_energy,
    dam_break_state,
    energy_budget,
    sv_cfl,
    sv_forward_step,
    sv_observer_step,
)
from oracles import relaxed

BCS = [BoundaryKind.PERIODIC, BoundaryKind.DIRICHLET_ZERO]
SW_BCS = [BoundaryKind.PERIODIC, BoundaryKind.REFLECTIVE_WALL]
PROFILES = [ChiProfile.RECTANGLE, ChiProfile.SEMICIRCLE]


def levels(rng, n, lo=-1.0, hi=1.0):
    """A piecewise-constant field of 2-4 levels in [lo, hi] plus a small ripple."""
    cuts = np.sort(rng.choice(np.arange(1, n), rng.integers(1, min(3, n - 1) + 1), replace=False))
    values = rng.uniform(lo, hi, len(cuts) + 1)
    field = np.repeat(values, np.diff(np.concatenate(([0], cuts, [n]))))
    return field + 0.01 * (hi - lo) * rng.standard_normal(n)


def observation(rng, n):
    """Observed values with a NaN window (unobserved cells), or None."""
    if rng.random() < 0.2:
        return None
    obs = levels(rng, n)
    a, b = np.sort(rng.integers(0, n, 2))
    obs[a:b] = np.nan
    return obs


def gains(rng, k):
    """k per-row gains as a column, some of them zero."""
    lam = rng.choice([0.0, 3.0, 40.0, 1e4], k) * rng.uniform(0.5, 1.5, k)
    return lam[:, None]


def sw_rows(rng, k, n, bc, profile, flat=False):
    """k states on one random bathymetry (up to 0.2 high), or one constant
    bed if ``flat``: depths of 2-4 levels with a dry stretch on most rows,
    velocities of both signs."""
    grid = Grid1D(n, 0.0, 1.0, bc)
    z_b = np.full(n, rng.uniform(0.0, 0.2)) if flat else 0.1 * (levels(rng, n) + 1.0)
    states = []
    for _ in range(k):
        h = np.maximum(levels(rng, n, 0.0, 1.0), 0.0)
        if rng.random() < 0.7:  # a dry front
            a = rng.integers(0, n)
            h[a:a + rng.integers(1, n)] = 0.0
        states.append(SWState(h, h * levels(rng, n), z_b, grid, profile))
    return states


def stacked_step(states, dt, lam=None, dh=None):
    """The successors of ``states`` stepped as one stack of rows
    (``_Rows.step``), as states."""
    new = _Rows.of(states).step(dt, lam, dh)
    return [new.state(r) for r in range(len(states))]


def assert_same_state(stacked, alone):
    for name in ("h", "q", "velocity"):
        assert np.array_equal(getattr(stacked, name), getattr(alone, name)), name
    assert stacked.max_wave_speed == alone.max_wave_speed


class TestStepBatches:
    """Each row of a (k, n) step equals the one-row call bit for bit."""

    cases = 60

    def rows(self, rng, k, n):
        return np.stack([levels(rng, n) for _ in range(k)])

    @pytest.mark.parametrize("bc", BCS)
    def test_collapse(self, bc):
        rng = np.random.default_rng(11)
        for _ in range(self.cases):
            k, n = rng.integers(1, 7), rng.integers(2, 60)
            grid, xi = Grid1D(n, 0.0, 1.0, bc), XiGrid(-1.5, 1.5, rng.integers(1, 40))
            u, obs, lam = self.rows(rng, k, n), observation(rng, n), gains(rng, k)
            dt = burgers_cfl(grid.dx, xi.speed_sup, rng.uniform(0.1, 1.0))
            out = step_collapse_macroscopic(u, obs, lam, dt, grid, xi)
            for r in range(k):
                one = step_collapse_macroscopic(u[r], obs, lam[r, 0], dt, grid, xi)
                assert np.array_equal(out[r], one)

    @pytest.mark.parametrize("bc", BCS)
    def test_engquist_osher(self, bc):
        rng = np.random.default_rng(12)
        for _ in range(self.cases):
            k, n = rng.integers(1, 7), rng.integers(2, 60)
            grid = Grid1D(n, 0.0, 1.0, bc)
            u, obs, lam = self.rows(rng, k, n), observation(rng, n), gains(rng, k)
            dt = burgers_cfl(grid.dx, float(np.max(np.abs(u))), rng.uniform(0.1, 1.0))
            out = relaxed(step_macroscopic_burgers(u, dt, grid), obs, lam, dt)
            for r in range(k):
                one = relaxed(step_macroscopic_burgers(u[r], dt, grid), obs, lam[r, 0], dt)
                assert np.array_equal(out[r], one)

    @pytest.mark.parametrize("bc", BCS)
    def test_linear(self, bc):
        rng = np.random.default_rng(13)
        for _ in range(self.cases):
            k, n = rng.integers(1, 7), rng.integers(2, 60)
            grid, speed = Grid1D(n, 0.0, 1.0, bc), rng.uniform(-2.0, 2.0)
            u, obs, lam = self.rows(rng, k, n), observation(rng, n), gains(rng, k)
            dt = burgers_cfl(grid.dx, abs(speed), rng.uniform(0.1, 1.0))
            out = relaxed(step_kinetic_linear(u, speed, dt, grid), obs, lam, dt)
            for r in range(k):
                one = relaxed(step_kinetic_linear(u[r], speed, dt, grid), obs, lam[r, 0], dt)
                assert np.array_equal(out[r], one)

    @pytest.mark.parametrize("bc", BCS)
    def test_kinetic(self, bc):
        rng = np.random.default_rng(14)
        for _ in range(self.cases // 2):
            k, n = rng.integers(1, 5), rng.integers(2, 40)
            grid, xi = Grid1D(n, 0.0, 1.0, bc), XiGrid(-1.5, 1.5, rng.integers(1, 24))
            values = rng.uniform(-1.0, 1.0, (k, n, xi.n_xi))
            obs, lam = observation(rng, n), gains(rng, k)[:, :, None]
            dt = burgers_cfl(grid.dx, xi.speed_sup, rng.uniform(0.1, 1.0))
            target = xi.indicator(obs)
            out = relaxed(step_kinetic_burgers(KineticField(values, xi, grid), dt), target, lam, dt)
            assert out.values.shape == (k, n, xi.n_xi)
            for r in range(k):
                one = relaxed(step_kinetic_burgers(KineticField(values[r], xi, grid), dt), target,
                              lam[r, 0, 0], dt)
                assert np.array_equal(out.values[r], one.values)

    def sw_draw(self, rng, bc, profile, flat):
        """k states on one bed, a gain and a step under each one's bound per row."""
        k, n = rng.integers(1, 6), rng.integers(3, 60)
        states = sw_rows(rng, k, n, bc, profile, flat)
        lam = gains(rng, k)[:, 0]
        dt = [rng.uniform(0.1, 1.0) * sv_cfl(s, lam_r) for s, lam_r in zip(states, lam)]
        return states, lam, dt

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("bc", SW_BCS)
    def test_saint_venant_forward(self, bc, profile):
        rng = np.random.default_rng(21)
        for flat in [False] * (self.cases // 2) + [True] * (self.cases // 4):
            states, _, dt = self.sw_draw(rng, bc, profile, flat)
            out = stacked_step(states, dt)
            assert len(out) == len(states)
            for state, step, new in zip(states, dt, out):
                assert_same_state(new, sv_forward_step(state, step))

    @pytest.mark.parametrize("innovation", ["observed", "dh"])
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("bc", SW_BCS)
    def test_saint_venant_observer(self, bc, profile, innovation):
        rng = np.random.default_rng(22)
        for flat in [False] * (self.cases // 2) + [True] * (self.cases // 4):
            states, lam, dt = self.sw_draw(rng, bc, profile, flat)
            n = states[0].grid.n_cells
            if innovation == "observed":  # one NaN-masked observation for every row
                obs = observation(rng, n)
                obs = np.ones(n) if obs is None else np.abs(obs)
                dh = np.stack([np.where(np.isfinite(obs), obs - s.h, 0.0) for s in states])
                out = stacked_step(states, dt, lam, dh)
                alone = [sv_observer_step(s, obs, lam_r, dt_r)
                         for s, lam_r, dt_r in zip(states, lam, dt)]
            else:  # a depth innovation per row, never deeper than the column
                dh = np.stack([0.5 * s.h * levels(rng, n) for s in states])
                out = stacked_step(states, dt, lam, dh)
                alone = [stacked_step([s], [dt_r], [lam_r], d)[0]
                         for s, lam_r, dt_r, d in zip(states, lam, dt, dh)]
            for new, one in zip(out, alone):
                assert_same_state(new, one)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_saint_venant_failing_row_reports_its_own_minimum(self, profile):
        # a source that drains more water than a column holds leaves a
        # negative depth: the stack reports the first failing row's minimum,
        # the one its one-row call reports
        rng = np.random.default_rng(23)
        for _ in range(self.cases // 2):
            k, n = rng.integers(2, 6), rng.integers(3, 40)
            states = sw_rows(rng, k, n, BoundaryKind.REFLECTIVE_WALL, profile)
            failing = rng.random(k) < 0.5
            failing[rng.integers(0, k)] = True
            lam = np.full(k, 40.0)
            dt = [0.9 * sv_cfl(s, 40.0) for s in states]
            # the source lam dt dh drains 1.5 columns on a failing row, 0.25 else
            dh = np.stack([-(1.5 if bad else 0.25) * s.h / (40.0 * d)
                           for s, bad, d in zip(states, failing, dt)])
            messages = []
            for s, d, row in zip(states, dt, dh):
                try:
                    stacked_step([s], [d], [40.0], row)
                    messages.append(None)
                except FloatingPointError as exc:
                    messages.append(str(exc))
            first = next(m for m in messages if m is not None)
            with pytest.raises(FloatingPointError) as raised:
                stacked_step(states, dt, lam, dh)
            assert str(raised.value) == first


def pulse(grid, lo, hi, value):
    x = grid.centers
    return np.where((x >= lo) & (x <= hi), value, 0.0)


LANES = {
    "collapse": dict(observer_mode=BurgersObserverMode.COLLAPSE),
    "bgk": dict(observer_mode=BurgersObserverMode.BGK, n_xi=24),
    "engquist_osher": dict(observer_mode=BurgersObserverMode.MACROSCOPIC),
    "linear": dict(fixed_xi=0.8),
}
MODES = {
    "at_times": dict(temporal_mode=TemporalMode.AT_OBSERVATION_TIMES),
    "every_step": dict(temporal_mode=TemporalMode.EVERY_STEP),
    "interpolated": dict(temporal_mode=TemporalMode.INTERPOLATED),
    "mollified": dict(temporal_mode=TemporalMode.MOLLIFIED, sigma=0.03),
}
SWEEP = [0.0, 20.0, 300.0]


def twin_config(lane, mode, observed, observer_height=0.75, t_final=0.15):
    """A small Burgers twin: a unit top hat observed every 0.03, with a mask
    and noise when ``observed`` says so."""
    grid = Grid1D(48, 0.0, 1.0, BoundaryKind.DIRICHLET_ZERO)
    return RunConfig(
        model="burgers",
        grid=grid,
        t_final=t_final,
        gain=GainSchedule(1.0, **MODES[mode]),
        truth_u0=pulse(grid, 0.125, 0.25, 1.0),
        observer_u0=pulse(grid, 1.0 / 12.0, 1.0 / 6.0, observer_height),
        obs_times=0.03 * np.arange(1, 6),
        obs_mask=(0.05, 0.45) if observed else None,
        noise=NoiseSpec(0.02, r=1.0, alpha=0.25) if observed else None,
        **LANES[lane],
    )


def assert_same_run(stacked, alone):
    for name in ("times", "l1_rel", "l1_abs", "l2_abs", "sobolev"):
        assert np.array_equal(getattr(stacked.errors, name), getattr(alone.errors, name)), name
    assert np.array_equal(stacked.dt_history, alone.dt_history)
    assert np.array_equal(stacked.recorded_dt, alone.recorded_dt, equal_nan=True)
    final = [np.asarray(getattr(r.final_observer, "values", r.final_observer))
             for r in (stacked, alone)]
    assert final[0].shape == final[1].shape and np.array_equal(*final)
    assert stacked.config_echo == alone.config_echo


class TestSweepBatches:
    """Every row of a stacked sweep equals run_twin at its gain."""

    @pytest.mark.parametrize("observed", [False, True], ids=["full", "masked_noisy"])
    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("lane", list(LANES))
    def test_rows_equal_single_twins(self, lane, mode, observed):
        cfg = twin_config(lane, mode, observed)
        groups = assimilation._groups(cfg, SWEEP)
        assert len(groups) == (len(SWEEP) if lane == "engquist_osher" else 1)
        stacked = [r for group in groups for r in assimilation._run_group(cfg, group)]
        for lam, result in zip(SWEEP, stacked):
            assert_same_run(result, run_twin(replace(cfg, gain=replace(cfg.gain, lam=lam))))

    @pytest.mark.parametrize("mode", list(MODES))
    def test_engquist_osher_gains_substepping_apart(self, mode, monkeypatch):
        # the observer starts twice as high as the truth, so it divides the
        # truth's steps until its gain pulls it down: the strong gains stop
        # substepping first, the zero gain never does
        cfg = replace(twin_config("engquist_osher", mode, False, observer_height=2.0, t_final=0.3),
                      obs_times=0.02 * np.arange(1, 16))
        lams = [0.0, 30.0, 3000.0]
        substeps, alone = [], []
        advance = assimilation._GainController.advance

        def count(self, *args):
            substeps[-1] += 1
            return advance(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(assimilation._GainController, "advance", count)
            for lam in lams:
                substeps.append(0)
                alone.append(run_twin(replace(cfg, gain=replace(cfg.gain, lam=lam))))
        assert len(set(substeps)) > 1
        for point, result in zip(sweep_lambda(cfg, lams), alone):
            assert (point.final_l1_rel, point.final_sobolev) == (
                result.final_l1_rel, result.final_sobolev
            )

    def test_sweep_points_equal_single_twins(self):
        cfg = twin_config("collapse", "at_times", True)
        for point in sweep_lambda(cfg, SWEEP):
            alone = run_twin(replace(cfg, gain=replace(cfg.gain, lam=point.lam)))
            assert (point.final_l1_rel, point.final_sobolev) == (
                alone.final_l1_rel, alone.final_sobolev
            )


class TestSaintVenantProperties:
    """Seeded properties of the Saint-Venant step on random states with dry
    stretches, on random bathymetry, through the stacked rows the twin
    driver steps (``_Rows.step``) and through the public one-row calls."""

    draws = 100

    def draw(self, rng, bc):
        k, n = rng.integers(1, 4), rng.integers(3, 50)
        return sw_rows(rng, k, n, bc, PROFILES[rng.integers(2)])

    @pytest.mark.parametrize("bc", SW_BCS)
    def test_depths_stay_nonnegative_under_the_cfl_bound(self, bc):
        # at any gain with dt <= sv_cfl at that gain, nudged toward a
        # nonnegative observation with an unobserved window: the settle
        # would raise below its roundoff floor
        rng = np.random.default_rng(31)
        for _ in range(self.draws):
            states = self.draw(rng, bc)
            k, n = len(states), states[0].grid.n_cells
            lam = [float(v) for v in gains(rng, k)[:, 0]]
            obs = observation(rng, n)
            obs = np.zeros(n) if obs is None else np.abs(obs)
            rows = _Rows.of(states)
            for _ in range(3):
                dt = [rng.uniform(0.1, 1.0) * sv_cfl(s, lam_r) for s, lam_r in zip(states, lam)]
                dh = np.where(np.isfinite(obs), obs - rows.a[0], 0.0)
                rows = rows.step(dt, lam, dh)
                states = [sv_observer_step(s, obs, lam_r, dt_r)
                          for s, lam_r, dt_r in zip(states, lam, dt)]
                assert (rows.a[0] >= 0.0).all()
                assert all((s.h >= 0.0).all() for s in states)
                assert [rows.state(r).max_wave_speed for r in range(k)] == [
                    s.max_wave_speed for s in states]

    @pytest.mark.parametrize("bc", SW_BCS)
    def test_mass_is_conserved_without_gain(self, bc):
        # the fluxes telescope: at lam = 0 a step moves the total depth by
        # roundoff alone, on walls (no flux through them) and periodic grids
        rng = np.random.default_rng(32)
        for _ in range(self.draws):
            states = self.draw(rng, bc)
            grid = states[0].grid
            dt = [rng.uniform(0.1, 1.0) * sv_cfl(s, 0.0) for s in states]
            rows = _Rows.of(states).step(dt)
            for r, (state, dt_r) in enumerate(zip(states, dt)):
                mass, scale = state.mass(), grid.length * max(1.0, float(np.max(state.h)))
                for h in (rows.a[0, r], sv_forward_step(state, dt_r).h):
                    assert abs(float(np.sum(h) * grid.dx) - mass) <= 1e-14 * scale

    def lakes(self, rng, bc):
        """1-3 still waters of random levels on one random piecewise-constant
        bed, raised above every level on a stretch on most draws."""
        k, n = rng.integers(1, 4), rng.integers(3, 50)
        grid = Grid1D(n, 0.0, 1.0, bc)
        z_b = levels(rng, n, 0.0, 0.3)
        if rng.random() < 0.7:  # a dry bank
            a = rng.integers(0, n)
            z_b[a:a + rng.integers(1, n)] += 0.5
        profile = PROFILES[rng.integers(2)]
        return [SWState(np.maximum(0.0, eta - z_b), np.zeros(n), z_b, grid, profile)
                for eta in rng.uniform(0.0, 0.4, k)]

    @pytest.mark.parametrize("bc", SW_BCS)
    def test_still_water_stays_still(self, bc):
        # the hydrostatic reconstruction balances the bed exactly: three
        # steps at the sv_cfl bound move depths and discharges by roundoff
        # alone (worst seen over 2 000 draws: 1.1e-16 of the depth scale in h,
        # 2.3e-16 in q), dry banks and wet/dry fronts included
        rng = np.random.default_rng(33)
        for _ in range(self.draws):
            states = self.lakes(rng, bc)
            k = len(states)
            rows, alone = _Rows.of(states), states
            for _ in range(3):
                rows = rows.step([sv_cfl(rows.state(r), 0.0) for r in range(k)])
                alone = [sv_forward_step(s, sv_cfl(s, 0.0)) for s in alone]
            for r, still in enumerate(states):
                scale = max(1.0, float(np.max(still.h)))
                for new in (rows.state(r), alone[r]):
                    assert np.max(np.abs(new.h - still.h)) <= 2e-14 * scale
                    assert np.max(np.abs(new.q)) <= 2e-14 * scale

    @pytest.mark.parametrize("bc", SW_BCS)
    def test_energy_inequality_on_a_flat_bed(self, bc):
        # criterion 5's cell-wise inequality: with the semicircle profile (the
        # energy minimiser) on a constant bed, a nudged step's energy is at
        # most the budget's upwind energy flux balance plus the relaxation
        # toward the observation's energy, at each gain, for dt within the
        # CFL bound of the observer and of the observed depth carried at the
        # observer's velocity (worst slack -1.3e-7 at this seed on either
        # grid, -1.5e-8 to -8.3e-7 at seeds 0-2)
        rng = np.random.default_rng(34)
        for i in range(2 * self.draws):
            lam = (0.0, 1.0, 10.0, 100.0)[i % 4]
            n = rng.integers(3, 50)
            observer, = sw_rows(rng, 1, n, bc, ChiProfile.SEMICIRCLE, flat=True)
            obs = sw_rows(rng, 1, n, bc, ChiProfile.SEMICIRCLE, flat=True)[0].h
            seen = SWState(obs, obs * observer.velocity, observer.z_b, observer.grid,
                           observer.profile)
            dt = rng.uniform(0.5, 1.0) * min(sv_cfl(observer, lam, 1.0), sv_cfl(seen, lam, 1.0))
            budget = energy_budget(observer, obs_h=obs)
            new = sv_observer_step(observer, obs, lam, dt)
            bound = (budget.zeta_hat - dt / observer.grid.dx * np.diff(budget.flux)
                     + lam * dt * (budget.zeta_tilde - budget.zeta_hat))
            wet = new.h >= DRY_DEPTH
            assert np.all((cell_energy(new) - bound)[wet] <= 1e-10)


def public_step(name):
    """The public step function ``name`` as a function of dt alone: the
    Saint-Venant steps on a dam break between walls, the Burgers steps on a
    unit pulse, with a NaN cell where the name ends in "/nan_cell"."""
    if name.startswith("sv_"):
        state = dam_break_state(Grid1D(40, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL),
                                2.0, 1.0, 0.5)
        if name == "sv_forward_step":
            return lambda dt: sv_forward_step(state, dt)
        return lambda dt: sv_observer_step(state, state.h[::-1], 1.0, dt)
    grid, xi = Grid1D(40, 0.0, 1.0, BoundaryKind.PERIODIC), XiGrid(-1.5, 1.5, 16)
    u = pulse(grid, 0.3, 0.6, 1.0)
    if name.endswith("/nan_cell"):
        name = name.removesuffix("/nan_cell")
        u[10] = math.nan
    return {
        "step_kinetic_burgers": lambda dt: step_kinetic_burgers(
            KineticField(xi.indicator(u), xi, grid), dt),
        "step_kinetic_linear": lambda dt: step_kinetic_linear(u, 0.8, dt, grid),
        "step_macroscopic_burgers": lambda dt: step_macroscopic_burgers(u, dt, grid),
        "step_collapse_macroscopic": lambda dt: step_collapse_macroscopic(
            u, None, 0.0, dt, grid, xi),
    }[name]


@pytest.mark.parametrize("name, dt", [
    *((name, dt) for name in ("sv_forward_step", "sv_observer_step", "step_kinetic_burgers",
                              "step_kinetic_linear", "step_macroscopic_burgers",
                              "step_collapse_macroscopic") for dt in (-1e-3, math.nan)),
    ("step_macroscopic_burgers/nan_cell", 1e6),
])
def test_step_refuses_a_negative_or_nan_dt(name, dt):
    # a negative dt ran a step backwards (the dam break's depth fell below
    # its initial minimum, a Burgers pulse grew past its maximum), and a NaN
    # one returned an all-NaN Burgers field; a NaN cell made the
    # Engquist-Osher bound NaN, which let any dt pass (a step of 1e6 spread
    # the NaN to three cells), so a NaN state has no allowed step
    step = public_step(name)
    if not name.endswith("/nan_cell"):
        step(0.0)  # a zero step is allowed
    with pytest.raises(ValueError, match="CFL"):
        step(dt)


def nudged_step(name: str, cell_value: float):
    """The public step ``name`` at gain 10 over a short step toward the
    mirrored state, ``cell_value`` observed in cell 2, and the same step
    with nothing observed: a dam break on 10 cells between walls for the
    Saint-Venant observer, a ramp from 0 to 1 on 10 periodic cells for the
    collapsed step."""
    if name == "sv_observer_step":
        state = dam_break_state(Grid1D(10, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL),
                                2.0, 1.0, 0.5)
        obs = state.h[::-1].copy()
        obs[2] = cell_value
        dt = 0.5 * sv_cfl(state, 10.0)
        return (sv_observer_step(state, obs, 10.0, dt).h,
                sv_observer_step(state, np.full(10, math.nan), 10.0, dt).h)
    grid, xi = Grid1D(10, 0.0, 1.0, BoundaryKind.PERIODIC), XiGrid(-1.5, 1.5, 16)
    u = np.linspace(0.0, 1.0, 10)
    obs = u[::-1].copy()
    obs[2] = cell_value

    def step(target):
        return step_collapse_macroscopic(u, target, 10.0, 0.01, grid, xi)

    return step(obs), step(np.full(10, math.nan))


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("name, argument", [
    ("sv_observer_step", "obs_h"), ("step_collapse_macroscopic", "obs_u"),
])
def test_step_refuses_an_infinite_observation(name, argument, value):
    # an infinite observation was taken for an unobserved cell (the
    # Saint-Venant observer) or clipped to the xi grid and nudged toward
    # (the collapsed step: cell 2 of the ramp ended at 0.342 under +inf, at
    # 0.221 under NaN); NaN still marks an unobserved cell.  The other
    # Burgers steps take no observation
    with pytest.raises(ValueError, match=rf"{argument} must be finite or NaN \(unobserved\), "
                                         rf"got {value} in cell 2"):
        nudged_step(name, value)
    nudged, unobserved = nudged_step(name, math.nan)
    assert np.all(np.isfinite(nudged))
    assert nudged[2] == unobserved[2] and not np.array_equal(nudged, unobserved)
