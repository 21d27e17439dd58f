"""Acceptance gate: one test per numbered criterion, each printing a
PASS/FAIL line with the measured values.

Criteria 1-6 and 10 are exact or tolerance-based oracle checks; 7-9 and 11
are property-based (curve shapes and improvement ratios).
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from kinassim.assimilation import (
    BurgersObserverMode,
    GainSchedule,
    RunConfig,
    TemporalMode,
    decay_study,
    run_twin,
    sweep_lambda,
)
from kinassim.burgers import KineticField
from kinassim.config import fixture_path, parse_config
from kinassim.grid import BoundaryKind, Grid1D, XiGrid
from kinassim.kinetic import (
    GRAVITY,
    ChiProfile,
    chi_cube_integral,
    upwind_power_moment,
)
from kinassim.metrics import sweep_minimum
from kinassim.observation import NoiseSpec, noise_field, observability_check
from kinassim.shallow_water import (
    DRY_DEPTH,
    cell_energy,
    dam_break_state,
    energy_budget,
    lake_at_rest_state,
    parabolic_bowl_bathymetry,
    sv_cfl,
    sv_forward_step,
    sv_observer_step,
    total_energy,
)
from oracles import chi_profile_value, exact_relaxation_solution

PROFILES = [ChiProfile.RECTANGLE, ChiProfile.SEMICIRCLE]


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


# --- criterion 1: moment identities -----------------------------------------


def test_criterion_1_moment_identities():
    t0 = time.perf_counter()
    worst_rel = 0.0
    rng = np.random.default_rng(2024)
    for profile in PROFILES:
        for _ in range(100):
            h = rng.uniform(1e-3, 10.0)
            u = rng.uniform(-5.0, 5.0)
            c = math.sqrt(GRAVITY * h / 2.0)
            # rebuild the moments from the half-line closed forms
            mass = sum(
                upwind_power_moment(profile, h, u, c, 0, side) for side in (True, False)
            )
            momentum = sum(
                upwind_power_moment(profile, h, u, c, 1, side) for side in (True, False)
            )
            p2 = sum(
                upwind_power_moment(profile, h, u, c, 2, side) for side in (True, False)
            )
            k3 = chi_cube_integral(profile)
            cube = (GRAVITY**2 / (8.0 * k3)) * h**3 / c**2 * k3
            energy = 0.5 * p2 + cube
            expected = np.array([h, h * u, 0.5 * h * u * u + 0.5 * GRAVITY * h * h])
            got = np.array([mass, momentum, energy])
            rel = np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1e-30))
            worst_rel = max(worst_rel, float(rel))
    worst_mom = 0.0
    for profile in PROFILES:
        w = profile.support_halfwidth
        for fn in (lambda z: 1.0, lambda z: z * z):
            val, _ = quad(
                lambda z: fn(z) * chi_profile_value(profile, z), -w, w,
                limit=200, epsabs=1e-13, epsrel=1e-13,
            )
            worst_mom = max(worst_mom, abs(val - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-10 and worst_mom < 1e-12 and elapsed < 1.0
    assert verdict(
        1, ok,
        f"moment identity rel err {worst_rel:.2e} (<1e-10), "
        f"profile moments off by {worst_mom:.2e} (<1e-12), {elapsed:.2f}s (<1s)",
    )


# --- criterion 2: well-balancedness ------------------------------------------


def test_criterion_2_lake_at_rest():
    grid = Grid1D(200, 0.0, 4.0, BoundaryKind.REFLECTIVE_WALL)
    z_b = parabolic_bowl_bathymetry(grid, 1.0, 0.5)
    state = lake_at_rest_state(grid, z_b, 2.0)
    eta0 = state.surface.copy()
    deviation = 0.0
    for _ in range(1000):
        state = sv_forward_step(state, sv_cfl(state, 0.0))
        deviation = max(deviation, float(np.max(np.abs(state.surface - eta0))))
    ok = deviation < 1e-12
    assert verdict(2, ok, f"max surface deviation {deviation:.2e} m (<1e-12)")


# --- criteria 3 and 4: dam break positivity, conservation, energy decay ------


@pytest.fixture(scope="module")
def dam_break_forward():
    grid = Grid1D(400, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
    state = dam_break_state(grid, 2.0, 1.0, 0.5)
    mass0 = state.mass()
    min_h = math.inf
    worst_slack = -math.inf
    prev_energy = total_energy(state)
    t0 = time.perf_counter()
    for _ in range(2000):
        state = sv_forward_step(state, sv_cfl(state, 0.0))
        min_h = min(min_h, float(np.min(state.h)))
        energy = total_energy(state)
        worst_slack = max(worst_slack, energy - prev_energy)
        prev_energy = energy
    elapsed = time.perf_counter() - t0
    drift = abs(state.mass() - mass0) / mass0
    return min_h, drift, worst_slack, elapsed


def test_criterion_3_positivity_and_mass(dam_break_forward):
    min_h, drift, _, elapsed = dam_break_forward
    ok = min_h >= 0.0 and drift < 1e-10 and elapsed < 5.0
    assert verdict(
        3, ok,
        f"min H {min_h:.3e} (>=0), relative mass drift {drift:.2e} (<1e-10), "
        f"{elapsed:.2f}s (<5s)",
    )


def test_criterion_4_forward_energy_decay(dam_break_forward):
    _, _, worst_slack, _ = dam_break_forward
    ok = worst_slack <= 1e-10
    assert verdict(
        4, ok, f"worst per-step total-energy increase {worst_slack:.2e} (<=1e-10)"
    )


# --- criterion 5: observer entropy inequality ---------------------------------


def test_criterion_5_observer_entropy_inequality():
    grid = Grid1D(400, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
    details = []
    ok = True
    for lam in (1.0, 10.0, 100.0):
        truth = dam_break_state(grid, 2.0, 1.0, 0.5)
        observer = dam_break_state(grid, 1.0, 2.0, 0.5)
        worst = -math.inf
        t = 0.0
        while t < 0.65:
            dt = min(sv_cfl(truth, lam), sv_cfl(observer, lam), 0.65 - t)
            budget = energy_budget(observer, obs_h=truth.h)
            sigma = dt / grid.dx
            new = sv_observer_step(observer, truth.h.copy(), lam, dt)
            bound = (
                budget.zeta_hat
                - sigma * (budget.flux[1:] - budget.flux[:-1])
                + lam * dt * (budget.zeta_tilde - budget.zeta_hat)
            )
            wet = new.h >= DRY_DEPTH
            worst = max(worst, float(np.max((cell_energy(new) - bound)[wet])))
            truth = sv_forward_step(truth, dt)
            observer = new
            t += dt
        details.append(f"lam={lam:g}: {worst:.2e}")
        ok = ok and worst <= 1e-10
    assert verdict(
        5, ok, "worst cell-wise entropy slack " + ", ".join(details) + " (<=1e-10)"
    )


# --- criterion 6: exponential decay of the linear observer --------------------


def _linear_twin(lam: float) -> RunConfig:
    grid = Grid1D(256, 0.0, 1.0, BoundaryKind.PERIODIC)
    x = grid.centers
    truth = np.sin(2.0 * np.pi * x)
    observer = truth + 0.25 * (1.1 + np.cos(2.0 * np.pi * x))
    return RunConfig(
        model="burgers",
        grid=grid,
        t_final=0.35,
        gain=GainSchedule(lam, temporal_mode=TemporalMode.EVERY_STEP),
        truth_u0=truth,
        observer_u0=observer,
        fixed_xi=1.0,
    )


def test_criterion_6_exponential_decay():
    t0 = time.perf_counter()
    details = []
    ok = True
    for lam in (5.0, 20.0):
        fit = decay_study(_linear_twin(lam))
        details.append(f"lam={lam:g} rate={fit.rate:.3f} dev={fit.relative_deviation:.2%}")
        ok = ok and fit.relative_deviation < 0.05
    # representation-formula oracle after 100 transport-exact steps
    grid = Grid1D(200, 0.0, 1.0, BoundaryKind.PERIODIC)
    xi = XiGrid(0.75, 1.25, 1)
    speed = float(xi.nodes[0])
    x = grid.centers

    def target(t, xx, xxi):
        return np.sin(2.0 * np.pi * (xx - speed * t))

    bump = 0.25 * (1.1 + np.cos(2.0 * np.pi * x))
    f0 = KineticField((target(0.0, x, speed) + bump)[:, None], xi, grid)
    horizon = 100 * grid.dx / speed
    for lam in (5.0, 20.0):
        sol = exact_relaxation_solution(f0, target, lam, horizon)
        err = float(np.sum(np.abs(sol.values[:, 0] - target(horizon, x, speed))) * grid.dx)
        expected = float(np.sum(np.abs(bump)) * grid.dx) * math.exp(-lam * horizon)
        rel = abs(err - expected) / expected
        details.append(f"oracle lam={lam:g} rel dev={rel:.2e}")
        ok = ok and rel < 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert verdict(6, ok, "; ".join(details) + f"; {elapsed:.2f}s (<1s)")


# --- criterion 7: Burgers assimilation benefit --------------------------------


def _noise_floor(config: RunConfig, truth_final: np.ndarray) -> float:
    """||noise||_L1 over the observed cells, relative to ||u(T)||_L1.

    Nudging toward chi(u + n) instead of chi(u) leaves the source
    lam * (chi(u + n) - chi(u)) in the kinetic error equation, and
    ||chi(u + n) - chi(u)||_L1(x, xi) = ||n||_L1, so the observer's error is
    bounded by decay * e(0) + (1 - decay) * ||n||_L1: it settles at the noise
    level, not below it.
    """
    grid = config.grid
    mask = np.ones(grid.n_cells, dtype=bool)
    if config.obs_mask is not None:
        mask &= grid.interval_mask(*config.obs_mask)
    noise = noise_field(config.noise, grid)
    noise_l1 = float(np.sum(np.abs(noise[mask])) * grid.dx)
    truth_l1 = float(np.sum(np.abs(truth_final)) * grid.dx)
    return noise_l1 / truth_l1


def test_criterion_7_assimilation_benefit():
    """Nudging removes at least three quarters of the free-run error, counted
    above the L1 noise floor: nudged <= 0.25 * free + ||n||_L1 / ||u(T)||_L1.

    Checked on the collapse lane of each fixture and on its n_xi -> infinity
    limit, the Engquist-Osher lane, so a pass cannot rest on the xi quadrature.
    """
    t0 = time.perf_counter()
    details = []
    ok = True
    for fixture in ("burgers_noisy_eps002.cfg", "burgers_noisy_eps0002.cfg"):
        config = parse_config(fixture_path(fixture))
        config.t_final = 0.5
        config.obs_times = config.obs_times[config.obs_times <= 0.5 + 1e-12]
        for mode in (config.observer_mode, BurgersObserverMode.MACROSCOPIC):
            lane = replace(config, observer_mode=mode)
            nudged = run_twin(lane)
            baseline = run_twin(replace(lane, gain=replace(lane.gain, lam=0.0)))
            floor = _noise_floor(lane, nudged.final_truth)
            bound = 0.25 * baseline.final_l1_rel + floor
            ratio = nudged.final_l1_rel / baseline.final_l1_rel
            details.append(
                f"eps={config.noise.epsilon:g} {mode.value}: "
                f"nudged={nudged.final_l1_rel:.3f} free={baseline.final_l1_rel:.3f} "
                f"floor={floor:.3f} bound={bound:.3f} ratio={ratio:.3f}"
            )
            ok = ok and nudged.final_l1_rel <= bound
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    assert verdict(
        7, ok,
        "; ".join(details) + f" (nudged <= 0.25*free + floor each), "
        f"{elapsed:.2f}s (<5s)",
    )


# --- criterion 8: optimal-gain structure of the noisy sweep -------------------


def test_criterion_8_optimal_gain_structure():
    t0 = time.perf_counter()
    lams = [10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0]
    minima = {}
    details = []
    ok = True
    for eps in (0.05, 0.02, 0.005):
        config = parse_config(fixture_path("burgers_noisy_eps002.cfg"))
        config.noise = NoiseSpec(epsilon=eps, r=1.0, alpha=0.25)
        points = sweep_lambda(config, lams)
        assert all(p.failed is None for p in points)
        curve = [(p.lam, p.final_sobolev) for p in points]
        lam_opt, err_min, interior = sweep_minimum(curve)
        minima[eps] = err_min
        details.append(f"eps={eps:g}: lam_opt={lam_opt:g} interior={interior}")
        ok = ok and interior
    decreasing = minima[0.05] > minima[0.02] > minima[0.005]
    ok = ok and decreasing
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    assert verdict(
        8, ok,
        "; ".join(details)
        + f"; min errors {minima[0.05]:.4f} > {minima[0.02]:.4f} > "
        f"{minima[0.005]:.4f}: {decreasing}; {elapsed:.1f}s (<120s)",
    )


# --- criterion 9: Thacker gain sweeps ------------------------------------------


def _decreasing_until_floor(errors, floor_band=5.0, min_drop=10.0):
    errors = list(errors)
    floor = min(errors)
    if errors[0] < min_drop * floor:
        return False
    k = 0
    while k + 1 < len(errors) and errors[k + 1] < errors[k]:
        k += 1
    return all(v <= floor_band * floor for v in errors[k + 1 :])


def test_criterion_9_thacker_gain_sweeps():
    t0 = time.perf_counter()
    lams = [1.0, 3.0, 10.0, 30.0, 100.0]

    clean_cfg = parse_config(fixture_path("thacker.cfg"))
    clean = sweep_lambda(clean_cfg, lams)
    assert all(p.failed is None for p in clean)
    clean_errs = [p.final_l1_rel for p in clean]
    clean_ok = _decreasing_until_floor(clean_errs)

    noisy_cfg = parse_config(fixture_path("thacker_noisy.cfg"))
    noisy = sweep_lambda(noisy_cfg, lams)
    assert all(p.failed is None for p in noisy)
    noisy_errs = [p.final_l1_rel for p in noisy]
    lam_opt, err_min, interior = sweep_minimum(list(zip(lams, noisy_errs)))
    opt_ok = interior and 3.0 <= lam_opt <= 100.0

    # the error cannot fall below a fixed fraction of the injected noise level
    mask = noisy_cfg.grid.interval_mask(*noisy_cfg.obs_mask)
    noise = noise_field(noisy_cfg.noise, noisy_cfg.grid)
    dx = noisy_cfg.grid.dx
    noise_l1 = float(np.sum(np.abs(noise[mask])) * dx)
    truth_l1 = noisy_cfg.truth_state.mass()  # depth is conserved
    floor = 0.25 * noise_l1 / truth_l1
    floor_ok = err_min >= floor

    elapsed = time.perf_counter() - t0
    ok = clean_ok and opt_ok and floor_ok and elapsed < 300.0
    assert verdict(
        9, ok,
        f"clean {['%.4f' % e for e in clean_errs]} decreasing-to-floor={clean_ok}; "
        f"noisy {['%.4f' % e for e in noisy_errs]} lam_opt={lam_opt:g} "
        f"interior={interior}; min {err_min:.4f} >= noise floor {floor:.4f}: "
        f"{floor_ok}; {elapsed:.1f}s (<300s)",
    )


# --- criterion 10: observability closed form -----------------------------------


def _brute_force_x_inf(speed, a, b, horizon, n_starts=10**4):
    c = abs(speed)
    if c == 0.0:
        return 0.0
    d = c * horizon
    x = np.arange(n_starts) / n_starts
    lo = x if speed > 0 else x - d
    width = b - a

    def cumulative(y):
        wraps = np.floor(y)
        return wraps * width + np.clip(y - wraps - a, 0.0, width)

    time_inside = (cumulative(lo + d) - cumulative(lo)) / c
    return float(np.min(time_inside))


def test_criterion_10_observability():
    speeds = [0.25, 0.5, 1.0, 2.0, -0.25, -0.5, -1.0, -2.0]
    intervals = [(0.05, 0.35), (0.25, 0.75), (0.1, 0.9), (0.4, 0.55), (0.2, 0.5)]
    horizons = [0.12 * k for k in range(1, 26)]
    assert len(speeds) * len(intervals) * len(horizons) == 1000
    worst = 0.0
    mismatches = 0
    for speed in speeds:
        for a, b in intervals:
            for horizon in horizons:
                res = observability_check(speed, (a, b), horizon)
                expected = horizon > (1.0 - (b - a)) / abs(speed)
                if res.observable != expected:
                    mismatches += 1
                brute = _brute_force_x_inf(speed, a, b, horizon)
                worst = max(worst, abs(res.x_inf - brute))
    ok = mismatches == 0 and worst < 1e-6
    assert verdict(
        10, ok,
        f"verdict mismatches {mismatches}/1000 (=0), "
        f"max |X_inf - brute force| {worst:.2e} (<1e-6)",
    )


# --- criterion 11: time-sampling bias ------------------------------------------


def test_criterion_11_mollified_sampling_bias():
    errors = []
    for sigma in (0.08, 0.04, 0.02):
        config = parse_config(fixture_path("burgers_clean.cfg"))
        config.observer_mode = BurgersObserverMode.COLLAPSE
        config.gain = GainSchedule(
            config.gain.lam, temporal_mode=TemporalMode.MOLLIFIED, sigma=sigma
        )
        errors.append(run_twin(config).final_l1_rel)
    ok = errors[1] <= errors[0] * (1.0 + 1e-9) and errors[2] <= errors[1] * (1.0 + 1e-9)
    assert verdict(
        11, ok,
        "final error across sigma halvings "
        + " -> ".join(f"{e:.5f}" for e in errors)
        + " (monotone-or-equal)",
    )
