import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from kinassim import shallow_water
from kinassim.grid import BoundaryKind, Grid1D
from kinassim.kinetic import (
    ChiProfile,
    chi_cube_integral,
    upwind_power_moment,
)
from kinassim.shallow_water import (
    DRY_DEPTH,
    SWState,
    _Rows,
    _settle,
    cell_energy,
    dam_break_state,
    energy_budget,
    hydrostatic_reconstruct,
    lake_at_rest_state,
    parabolic_bowl_bathymetry,
    sv_cfl,
    sv_forward_step,
    sv_interface_flux,
    sv_observer_step,
    thacker_setup,
    total_energy,
)
from oracles import chi_profile_value, stoker_depth_averages, stoker_middle_state

G = 9.81
PROFILES = [ChiProfile.RECTANGLE, ChiProfile.SEMICIRCLE]


def innovation_step(state, dh, lam, dt):
    """The observer step by the given depth innovation ``dh`` in place of
    obs_h - H: the one row of ``_Rows.step``."""
    return _Rows.of((state,)).step((dt,), (lam,), dh).state(0)


def wall_grid(n, length=1.0):
    return Grid1D(n, 0.0, length, BoundaryKind.REFLECTIVE_WALL)


def flat_state(h_values, q_values=None, profile=ChiProfile.SEMICIRCLE):
    h = np.asarray(h_values, dtype=float)
    q = np.zeros_like(h) if q_values is None else np.asarray(q_values, dtype=float)
    grid = wall_grid(len(h))
    return SWState(h, q, np.zeros_like(h), grid, profile)


class TestReconstruction:
    def test_flat_bottom_identity(self):
        state = flat_state([1.0, 2.0, 1.5, 0.5])
        rec = hydrostatic_reconstruct(state)
        # interior interfaces reproduce the neighbouring cell depths
        np.testing.assert_allclose(rec.h_sides[0][1:-1], state.h[:-1])
        np.testing.assert_allclose(rec.h_sides[1][1:-1], state.h[1:])

    def test_lake_at_rest_equal_sides(self):
        grid = wall_grid(6)
        z_b = np.array([0.0, 0.2, 0.5, 0.3, 0.1, 0.0])
        state = lake_at_rest_state(grid, z_b, eta=1.0)
        rec = hydrostatic_reconstruct(state)
        np.testing.assert_allclose(rec.h_sides[0], rec.h_sides[1], atol=1e-15)
        np.testing.assert_allclose(rec.h_sides[0][1:-1], 1.0 - np.maximum(z_b[:-1], z_b[1:]))

    def test_truncation_at_step(self):
        grid = wall_grid(2)
        state = SWState(
            np.array([0.1, 0.0]), np.zeros(2), np.array([0.0, 0.5]), grid,
            ChiProfile.SEMICIRCLE,
        )
        rec = hydrostatic_reconstruct(state)
        assert rec.h_sides[0][1] == 0.0  # max(0, 0.1 - 0.5)
        assert rec.h_sides[1][1] == 0.0


class TestInterfaceFlux:
    def test_dry_interface(self):
        state = flat_state([0.0, 0.0])
        rec = hydrostatic_reconstruct(state)
        f_h, f_q_l, f_q_r = sv_interface_flux(rec.h_sides, rec.h_cells, np.zeros((2, 3)),
                                              state.profile)
        np.testing.assert_allclose([f_h, f_q_l, f_q_r], 0.0)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_symmetric_still_water(self, profile):
        h = 1.3
        state = flat_state([h, h], profile=profile)
        rec = hydrostatic_reconstruct(state)
        f_h, f_q_l, f_q_r = sv_interface_flux(rec.h_sides, rec.h_cells, np.zeros((2, 3)), profile)
        np.testing.assert_allclose(f_h, 0.0, atol=1e-14)
        np.testing.assert_allclose(f_q_l, G * h * h / 2.0, rtol=1e-12)
        np.testing.assert_allclose(f_q_r, G * h * h / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_flux_against_quadrature(self, profile):
        # upwind-split halfline moments of the two reconstructed equilibria
        rng = np.random.default_rng(8)
        grid = wall_grid(2)
        h = rng.uniform(0.2, 2.0, 2)
        u = rng.uniform(-1.5, 1.5, 2)
        state = SWState(h, h * u, np.zeros(2), grid, profile)
        rec = hydrostatic_reconstruct(state)
        f_h, f_q_l, f_q_r = sv_interface_flux(
            rec.h_sides, rec.h_cells, np.array([[-u[0], u[0], u[1]], [u[0], u[1], -u[1]]]),
            profile,
        )
        c = np.sqrt(G * h / 2.0)

        def left(xi):
            return h[0] / c[0] * chi_profile_value(profile, (xi - u[0]) / c[0])

        def right(xi):
            return h[1] / c[1] * chi_profile_value(profile, (xi - u[1]) / c[1])

        span_l = u[0] + profile.support_halfwidth * c[0] + 1.0
        span_r = u[1] - profile.support_halfwidth * c[1] - 1.0
        pos, _ = quad(lambda xi: xi * left(xi), 0.0, span_l, limit=300)
        neg, _ = quad(lambda xi: xi * right(xi), span_r, 0.0, limit=300)
        assert f_h[1] == pytest.approx(pos + neg, rel=1e-8, abs=1e-10)
        # momentum flux: xi^2 moment of the upwind density (flat bottom, so
        # the left/right corrections vanish and both sides agree)
        pos2, _ = quad(lambda xi: xi * xi * left(xi), 0.0, span_l, limit=300)
        neg2, _ = quad(lambda xi: xi * xi * right(xi), span_r, 0.0, limit=300)
        assert f_q_l[1] == pytest.approx(pos2 + neg2, rel=1e-8)
        assert f_q_r[1] == pytest.approx(f_q_l[1], rel=1e-12)


class TestCfl:
    def test_formula_value(self):
        grid = Grid1D(10, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
        state = SWState(np.ones(10), np.zeros(10), np.zeros(10), grid,
                        ChiProfile.RECTANGLE)
        dt = sv_cfl(state, 0.0, safety=1.0)
        assert dt == pytest.approx(0.1 / (math.sqrt(3.0) * math.sqrt(G / 2.0)), rel=1e-12)
        assert dt == pytest.approx(0.02607, rel=1e-3)

    def test_large_gain_limit(self):
        state = flat_state(np.ones(10))
        lam = 1e9
        assert sv_cfl(state, lam, safety=1.0) == pytest.approx(1.0 / lam, rel=1e-3)

    def test_dx_scaling(self):
        g1 = Grid1D(10, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
        g2 = Grid1D(10, 0.0, 2.0, BoundaryKind.REFLECTIVE_WALL)
        s1 = SWState(np.ones(10), np.zeros(10), np.zeros(10), g1, ChiProfile.SEMICIRCLE)
        s2 = SWState(np.ones(10), np.zeros(10), np.zeros(10), g2, ChiProfile.SEMICIRCLE)
        assert sv_cfl(s2, 0.0) == pytest.approx(2.0 * sv_cfl(s1, 0.0))

    def test_all_dry_uses_threshold_floor(self):
        state = flat_state(np.zeros(8))
        assert np.isfinite(sv_cfl(state, 0.0)) and sv_cfl(state, 0.0) > 0.0


class TestForwardStep:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_lake_at_rest_over_bump(self, profile):
        grid = wall_grid(50, 4.0)
        z_b = parabolic_bowl_bathymetry(grid, 1.0, 0.5)
        state = lake_at_rest_state(grid, z_b, eta=2.0, profile=profile)
        eta0 = state.surface.copy()
        for _ in range(50):
            state = sv_forward_step(state, sv_cfl(state, 0.0))
        assert np.max(np.abs(state.surface - eta0)) < 1e-13
        assert np.max(np.abs(state.q)) < 1e-13

    @pytest.mark.parametrize("profile", PROFILES)
    def test_lake_at_rest_with_dry_bank(self, profile):
        # surface below the bathymetry peak: the truncation is active and the
        # still state must survive exactly
        grid = wall_grid(50, 4.0)
        z_b = parabolic_bowl_bathymetry(grid, 1.0, 0.5)
        state = lake_at_rest_state(grid, z_b, eta=0.0, profile=profile)
        assert np.any(state.h == 0.0) and np.any(state.h > 0.0)
        h0 = state.h.copy()
        for _ in range(50):
            state = sv_forward_step(state, sv_cfl(state, 0.0))
        assert np.max(np.abs(state.h - h0)) < 1e-13
        assert np.max(np.abs(state.q)) < 1e-13

    def test_dam_break_positive_and_conservative(self):
        grid = wall_grid(100)
        state = dam_break_state(grid, 2.0, 1.0, 0.5)
        mass0 = state.mass()
        for _ in range(200):
            state = sv_forward_step(state, sv_cfl(state, 0.0))
            assert np.min(state.h) >= 0.0
        assert abs(state.mass() - mass0) < 1e-12 * mass0

    def test_symmetric_hump_stays_symmetric(self):
        grid = wall_grid(80)
        x = grid.centers
        h = 1.0 + 0.3 * np.exp(-80.0 * (x - 0.5) ** 2)
        state = SWState(h, np.zeros(80), np.zeros(80), grid, ChiProfile.SEMICIRCLE)
        for _ in range(120):
            state = sv_forward_step(state, sv_cfl(state, 0.0))
        np.testing.assert_allclose(state.h, state.h[::-1], atol=1e-12)
        np.testing.assert_allclose(state.q, -state.q[::-1], atol=1e-12)

    def test_cfl_enforced(self):
        state = flat_state(np.ones(20))
        with pytest.raises(ValueError, match="CFL"):
            sv_forward_step(state, 1.0)


class TestObserverStep:
    def test_zero_gain_equals_forward(self):
        grid = wall_grid(40)
        state = dam_break_state(grid, 2.0, 1.0, 0.5)
        dt = sv_cfl(state, 0.0)
        fwd = sv_forward_step(state, dt)
        obs = sv_observer_step(state, state.h.copy(), 0.0, dt)
        np.testing.assert_allclose(obs.h, fwd.h)
        np.testing.assert_allclose(obs.q, fwd.q)

    def test_uniform_states_relax_height_only(self):
        # periodic boundaries: flux differences vanish for a uniform state
        n = 30
        grid = Grid1D(n, 0.0, 1.0, BoundaryKind.PERIODIC)
        state = SWState(np.full(n, 1.0), np.full(n, 0.5), np.zeros(n), grid,
                        ChiProfile.SEMICIRCLE)
        obs_h = np.full(n, 1.5)
        lam = 2.0
        dt = sv_cfl(state, lam)
        out = sv_observer_step(state, obs_h, lam, dt)
        u0 = state.velocity
        np.testing.assert_allclose(out.h, 1.0 + lam * dt * 0.5, rtol=1e-13)
        np.testing.assert_allclose(out.velocity, u0, rtol=1e-12)

    def test_masked_cells_receive_no_source(self):
        n = 30
        state = flat_state(np.full(n, 1.0))
        obs_h = np.full(n, np.nan)
        obs_h[10:20] = 1.2
        dt = sv_cfl(state, 5.0)
        out = sv_observer_step(state, obs_h, 5.0, dt)
        np.testing.assert_allclose(out.h[:10], 1.0, atol=1e-14)
        assert np.all(out.h[10:20] > 1.0)

    def test_innovation_argument_matches_observation(self):
        n = 30
        state = flat_state(np.linspace(0.5, 1.5, n))
        obs_h = np.full(n, np.nan)
        obs_h[5:25] = 1.1
        dt = sv_cfl(state, 4.0)
        dh = np.where(np.isfinite(obs_h), obs_h - state.h, 0.0)
        direct = sv_observer_step(state, obs_h, 4.0, dt)
        given = innovation_step(state, dh, 4.0, dt)
        np.testing.assert_array_equal(given.h, direct.h)
        np.testing.assert_array_equal(given.q, direct.q)

    @pytest.mark.parametrize("lam", [-5.0, math.nan, math.inf])
    def test_bad_gain_rejected_by_name(self, lam):
        # -5 was accepted, and NaN refused only as "violates the CFL bound nan"
        state = flat_state(np.ones(10))
        with pytest.raises(ValueError, match="gain lam must be nonnegative and finite"):
            sv_observer_step(state, np.ones(10), lam, 1e-4)
        with pytest.raises(ValueError, match="gain lam must be nonnegative and finite"):
            sv_cfl(state, lam)

    def test_negative_observation_rejected(self):
        state = flat_state(np.ones(10))
        bad = np.full(10, -0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            sv_observer_step(state, bad, 1.0, 1e-4)

    def test_mass_converges_monotonically_under_single_signed_error(self):
        # full observation of a deeper truth: observer mass grows toward it
        grid = wall_grid(40)
        truth = lake_at_rest_state(grid, np.zeros(40), 1.0)
        observer = lake_at_rest_state(grid, np.zeros(40), 0.8)
        lam = 5.0
        masses = [observer.mass()]
        for _ in range(100):
            dt = sv_cfl(truth, lam)
            observer = sv_observer_step(observer, truth.h.copy(), lam, dt)
            masses.append(observer.mass())
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert masses[-1] < truth.mass() + 1e-12

    def test_dirichlet_boundaries_rejected(self):
        grid = Grid1D(10, 0.0, 1.0, BoundaryKind.DIRICHLET_ZERO)
        state = SWState(np.ones(10), np.zeros(10), np.zeros(10), grid,
                        ChiProfile.SEMICIRCLE)
        with pytest.raises(ValueError, match="reflective_wall and periodic"):
            sv_forward_step(state, 1e-4)

    def test_entropy_inequality_one_step(self):
        # flat-bottom assimilated dam break: per-cell discrete inequality
        grid = wall_grid(60)
        truth = dam_break_state(grid, 2.0, 1.0, 0.5)
        state = dam_break_state(grid, 1.0, 2.0, 0.5)
        lam = 10.0
        for _ in range(40):
            dt = min(sv_cfl(state, lam), sv_cfl(truth, lam))
            budget = energy_budget(state, obs_h=truth.h)
            sigma = dt / grid.dx
            new = sv_observer_step(state, truth.h.copy(), lam, dt)
            zeta_new = cell_energy(new)
            bound = (
                budget.zeta_hat
                - sigma * (budget.flux[1:] - budget.flux[:-1])
                + lam * dt * (budget.zeta_tilde - budget.zeta_hat)
            )
            assert np.max(zeta_new - bound) <= 1e-10
            truth = sv_forward_step(truth, dt)
            state = new


def rough_state(bc, profile, n=60, seed=4, flat=False):
    """Bathymetry with a dry bank, velocities of both signs, some of them
    supercritical (|u| > w c), on the given boundary kind; ``flat`` puts
    the same depths and velocities on a constant bed."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(n, 0.0, 2.0, bc)
    z_b = 0.3 * np.sin(2.0 * np.pi * grid.centers / 2.0) + 0.05 * rng.random(n)
    h = np.maximum(0.0, 0.25 - z_b) * rng.uniform(0.5, 1.5, n)
    c = np.sqrt(G * h / 2.0)
    u = rng.uniform(-1.5, 1.5, n) * profile.support_halfwidth * c
    return SWState(h, h * u, np.full(n, 0.1) if flat else z_b, grid, profile)


def reference_step(state, dt, lam=0.0, dh=None):
    """The kinetic step written out with one upwind_power_moment call per
    interface side and power, on ghost cells built by concatenation."""
    h, z, g, prof = state.h, state.z_b, state.g, state.profile
    u = np.where(h >= DRY_DEPTH, state.q / np.maximum(h, DRY_DEPTH), 0.0)
    if state.grid.bc is BoundaryKind.REFLECTIVE_WALL:
        def ext(a, sign):
            return np.concatenate([sign * a[:1], a, sign * a[-1:]])
    else:
        def ext(a, sign):
            return np.concatenate([a[-1:], a, a[:1]])
    hx, ux, zx = ext(h, 1.0), ext(u, -1.0), ext(z, 1.0)
    z_int = np.maximum(zx[:-1], zx[1:])
    hm = np.maximum(0.0, hx[:-1] + zx[:-1] - z_int)
    hp = np.maximum(0.0, hx[1:] + zx[1:] - z_int)
    cm, cp = np.sqrt(g * hm / 2.0), np.sqrt(g * hp / 2.0)
    f_h = upwind_power_moment(prof, hm, ux[:-1], cm, 1, True) + upwind_power_moment(
        prof, hp, ux[1:], cp, 1, False
    )
    f_q = upwind_power_moment(prof, hm, ux[:-1], cm, 2, True) + upwind_power_moment(
        prof, hp, ux[1:], cp, 2, False
    )
    f_q_left = f_q + 0.5 * g * (hx[:-1] ** 2 - hm**2)
    f_q_right = f_q + 0.5 * g * (hx[1:] ** 2 - hp**2)
    sigma = dt / state.grid.dx
    h_new = h - sigma * (f_h[1:] - f_h[:-1])
    q_new = state.q - sigma * (f_q_left[1:] - f_q_right[:-1])
    if dh is not None:
        h_new = h_new + lam * dt * dh
        q_new = q_new + lam * dt * u * dh
    h_new = np.maximum(h_new, 0.0)
    return h_new, np.where(h_new >= DRY_DEPTH, q_new, 0.0)


BOUNDARIES = [BoundaryKind.REFLECTIVE_WALL, BoundaryKind.PERIODIC]


class TestFusedStepMatchesReference:
    """The fused flux (one partial-moment evaluation per interface side)
    reproduces the four-call reference bit for bit."""

    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_forward_step(self, bc, profile):
        state = rough_state(bc, profile)
        assert np.any(state.h == 0.0)
        for _ in range(5):
            dt = sv_cfl(state, 0.0)
            want = reference_step(state, dt)
            state = sv_forward_step(state, dt)
            np.testing.assert_array_equal(state.h, want[0])
            np.testing.assert_array_equal(state.q, want[1])

    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_observer_step_masked_and_innovation(self, bc, profile):
        state = rough_state(bc, profile, seed=11)
        n, lam = state.grid.n_cells, 6.0
        obs_h = np.full(n, np.nan)
        obs_h[10:45] = state.h[10:45] * 1.2 + 0.01
        wave = np.cos(2.0 * np.pi * state.grid.centers)
        for _ in range(5):
            dt = sv_cfl(state, lam)
            dh = np.where(np.isfinite(obs_h), obs_h - state.h, 0.0)
            dh_given = 0.3 * state.h * wave  # both signs, never deeper than the column
            want = reference_step(state, dt, lam, dh)
            got = sv_observer_step(state, obs_h, lam, dt)
            np.testing.assert_array_equal(got.h, want[0])
            np.testing.assert_array_equal(got.q, want[1])
            want = reference_step(state, dt, lam, dh_given)
            given = innovation_step(state, dh_given, lam, dt)
            np.testing.assert_array_equal(given.h, want[0])
            np.testing.assert_array_equal(given.q, want[1])
            state = got


def reference_divergence(state):
    """The (mass, momentum) flux differences across each cell of ``state``
    from the public reconstruction and interface flux."""
    u = state.velocity
    if state.grid.bc is BoundaryKind.REFLECTIVE_WALL:
        ux = np.concatenate([-u[:1], u, -u[-1:]])
    else:
        ux = np.concatenate([u[-1:], u, u[:1]])
    rec = hydrostatic_reconstruct(state)
    fluxes = sv_interface_flux(rec.h_sides, rec.h_cells, np.stack([ux[:-1], ux[1:]]),
                               state.profile, state.g)
    f_h, f_q_left, f_q_right = fluxes
    return f_h[1:] - f_h[:-1], f_q_left[1:] - f_q_right[:-1], max(np.max(np.abs(f)) for f in fluxes)


def flat_bed_rows(rng, k, n, bc, profile):
    """k random states on one constant bed: dry cells, and velocities up to
    three times the support speed w c, so some sides move one way only."""
    grid = Grid1D(n, 0.0, 1.0, bc)
    z_b = np.full(n, rng.uniform(-1.0, 1.0))
    states = []
    for _ in range(k):
        h = rng.uniform(0.0, 2.0, n)
        h[rng.random(n) < 0.2] = 0.0
        u = rng.uniform(-3.0, 3.0, n) * profile.support_halfwidth * np.sqrt(G * h / 2.0)
        states.append(SWState(h, h * u, z_b, grid, profile))
    return states


class TestFlatBedForm:
    """On a constant bed the step evaluates each cell's equilibrium once,
    the negative half-line as the full moments less the positive ones; any
    other bed takes the reconstruction and interface flux."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_divergence_matches_the_reference(self, profile, bc, k):
        rng = np.random.default_rng(19 + k)
        upwind = 0
        for _ in range(20):
            states = flat_bed_rows(rng, k, int(rng.integers(2, 50)), bc, profile)
            rows = _Rows.of(states)
            assert rows.bed.flat
            div_h, div_q = rows.bed.stack(k)._divergence(rows.a)
            for r, state in enumerate(states):
                ref_h, ref_q, scale = reference_divergence(state)
                # relative to the row's largest interface flux
                assert np.max(np.abs(div_h[r] - ref_h)) <= 1e-13 * scale
                assert np.max(np.abs(div_q[r] - ref_q)) <= 1e-13 * scale
                c = np.sqrt(G * state.h / 2.0)
                upwind += np.sum(np.abs(state.velocity) >= profile.support_halfwidth * c)
        assert upwind > 0

    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_still_water_on_a_raised_bed_stays_still(self, profile, bc):
        grid = Grid1D(40, 0.0, 1.0, bc)
        state = lake_at_rest_state(grid, np.full(40, 0.7), eta=2.0, profile=profile)
        assert state._bed.flat
        h0 = state.h.copy()
        for _ in range(30):
            state = sv_forward_step(state, sv_cfl(state, 0.0))
        np.testing.assert_array_equal(state.h, h0)
        np.testing.assert_array_equal(state.q, 0.0)

    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_one_bed_step_keeps_the_reference_bit_for_bit(self, profile, bc):
        rng = np.random.default_rng(7)
        n = 40
        grid = Grid1D(n, 0.0, 1.0, bc)
        z_b = np.where(grid.centers < 0.5, 0.0, 0.2)
        h = np.maximum(0.0, 0.5 - z_b) * rng.uniform(0.5, 1.5, n)
        state = SWState(h, h * rng.uniform(-1.0, 1.0, n), z_b, grid, profile)
        assert not state._bed.flat
        for _ in range(5):
            dt = sv_cfl(state, 0.0)
            want = reference_step(state, dt)
            state = sv_forward_step(state, dt)
            np.testing.assert_array_equal(state.h, want[0])
            np.testing.assert_array_equal(state.q, want[1])


def stepper(kind, lam=6.0):
    """One step of the given kind: forward, nudged toward an observed depth
    (NaN outside a window), or nudged by a given depth innovation dh."""
    def step(state):
        dt = sv_cfl(state, lam)
        if kind == "forward":
            return sv_forward_step(state, dt)
        if kind == "observed":
            obs_h = np.full(state.grid.n_cells, np.nan)
            obs_h[10:45] = state.h[10:45] * 1.2 + 0.01
            return sv_observer_step(state, obs_h, lam, dt)
        dh = 0.3 * state.h * np.cos(2.0 * np.pi * state.grid.centers)
        return innovation_step(state, dh, lam, dt)

    return step


STEP_KINDS = ["forward", "observed", "dh"]


class TestStatesAndWorkBuffers:
    """Steps reuse work buffers and each state caches its velocity and CFL
    speed; neither may leak from one state into another."""

    @pytest.mark.parametrize("kind", STEP_KINDS)
    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_kept_state_unchanged_by_later_steps(self, profile, bc, kind):
        step = stepper(kind)
        for flat in (False, True):
            states = [rough_state(bc, profile, flat=flat)]
            for _ in range(4):
                states.append(step(states[-1]))
            kept = [(s.h.copy(), s.q.copy(), s.velocity.copy(), s.max_wave_speed)
                    for s in states]
            state = states[-1]
            for _ in range(4):
                state = step(state)
            for s, (h, q, u, speed) in zip(states, kept):
                np.testing.assert_array_equal(s.h, h)
                np.testing.assert_array_equal(s.q, q)
                np.testing.assert_array_equal(s.velocity, u)
                assert s.max_wave_speed == speed
                fresh = dataclasses.replace(s)  # the same fields, nothing cached
                np.testing.assert_array_equal(fresh.velocity, u)
                assert fresh.max_wave_speed == speed

    @pytest.mark.parametrize("kind", STEP_KINDS)
    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_stepping_a_state_twice_gives_equal_results(self, profile, bc, kind):
        step = stepper(kind)
        for flat in (False, True):
            state = step(rough_state(bc, profile, flat=flat))
            first = step(state)
            step(step(first))  # the buffers now hold other states' values
            again = step(state)
            assert np.array_equal(first.h, again.h) and np.array_equal(first.q, again.q)
            assert not np.shares_memory(first.h, again.h)
            assert not np.shares_memory(first.q, again.q)

    def test_fields_and_arrays_cannot_be_changed(self):
        built = rough_state(BoundaryKind.REFLECTIVE_WALL, ChiProfile.SEMICIRCLE)
        stepped = sv_forward_step(built, sv_cfl(built, 0.0))
        for state in (built, stepped):
            for field in dataclasses.fields(SWState):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(state, field.name, getattr(state, field.name))
            # an array changed in place would leave the cached speeds stale
            for array in (state.h, state.q, state.z_b, state.velocity):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0

    def test_state_copies_the_arrays_it_is_given(self):
        h = np.ones(10)
        state = flat_state(h)
        h[0] = 2.0  # the caller's array stays writeable and apart
        assert state.h[0] == 1.0

    def test_replace_checks_the_new_state(self):
        state = sv_forward_step(flat_state(np.ones(10)), 1e-3)
        with pytest.raises(ValueError, match="water depth h"):
            dataclasses.replace(state, h=-state.h)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("nudged", [False, True])
    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_warm_step_allocates_only_its_result(self, profile, flat, nudged, k, monkeypatch):
        # a stack binds its step once: after the first step, a step of k rows
        # of n cells allocates its (3, k, n) result and no other buffer of n
        # or more elements (n bytes or more, a bool mask among them), before
        # the result or after it.  A ufunc's iterator may take buffers of up
        # to np.getbufsize() elements for each operand, which are not
        # arrays; the smallest buffer size keeps them below that
        n = 8000
        if flat:
            grid = wall_grid(n)
            states = [dam_break_state(grid, 2.0, 1.0, 0.5, profile),
                      dam_break_state(grid, 1.5, 1.5, 0.5, profile)]
        else:
            states = list(thacker_setup(1.0, 4.0, 0.5, n, profile))
        rows = _Rows.of(states[:k])
        stack = rows.bed.stack(k)
        assert rows.bed.flat == flat
        dt = [0.5 * min(sv_cfl(s, 10.0) for s in states)] * k
        lam, dh = None, None
        if nudged:  # each row toward its own mirrored depth
            lam, dh = [10.0] * k, np.array([s.h[::-1] - s.h for s in states[:k]])
        stack.step(rows.a, rows.speed, dt, lam, dh)  # warm
        peaks = []

        class Numpy:  # numpy, with np.empty (the result) noting the peak before it
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                peaks.append(tracemalloc.get_traced_memory()[1])
                out = np.empty(*args, **kwargs)
                tracemalloc.reset_peak()
                return out

        def numpy_bytes():
            domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
            traces = tracemalloc.take_snapshot().filter_traces([domain])
            return sum(stat.size for stat in traces.statistics("filename"))

        monkeypatch.setattr(shallow_water, "np", Numpy())
        bufsize = np.getbufsize()
        np.setbufsize(16)
        tracemalloc.start()
        try:
            held = numpy_bytes()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            new = stack.step(rows.a, rows.speed, dt, lam, dh)
            peak = tracemalloc.get_traced_memory()[1]
            kept = numpy_bytes() - held
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert len(peaks) == 1  # one array made by np.empty: the result
        assert new.a.shape == (3, k, n) and kept == new.a.nbytes
        assert peaks[0] - before < n
        assert peak - before - new.a.nbytes < n


class TestNonFiniteRefused:
    def test_state_rejects_nan_depth(self):
        # a negative depth fails the same check
        for bad in (np.nan, -1.0):
            h = np.ones(5)
            h[2] = bad
            with pytest.raises(ValueError, match="water depth h"):
                SWState(h, np.zeros(5), np.zeros(5), wall_grid(5))

    @pytest.mark.parametrize("g", [0.0, -9.81, math.nan, math.inf])
    def test_state_rejects_bad_gravity(self, g):
        # g = 0 divided by zero in the first step, g < 0 took a negative sqrt
        with pytest.raises(ValueError, match="g must be positive and finite"):
            SWState(np.ones(5), np.zeros(5), np.zeros(5), wall_grid(5), g=g)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, name", [("h", "water depth h"), ("q", "discharge q"),
                                             ("z_b", "bed elevation z_b")])
    def test_state_rejects_non_finite_arrays(self, field, name, bad):
        # a NaN discharge made sv_cfl return nan, an infinite bed made a step
        # return a NaN discharge, an infinite depth was kept as it was
        arrays = dict(h=np.ones(5), q=np.zeros(5), z_b=np.zeros(5))
        arrays[field][3] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite, got {bad} in cell 3"):
            SWState(arrays["h"], arrays["q"], arrays["z_b"], wall_grid(5))

    def test_settle_rejects_an_infinite_depth(self):
        # the floor -1e-13 max(1, max h) let +inf through as it was
        with pytest.raises(FloatingPointError, match="infinite depth after update"):
            _settle(np.array([[1.0, math.inf]]), np.zeros((1, 2)), np.empty((1, 2), bool))
        stack = np.array([[1.0, 2.0], [1.0, math.inf]])  # the second of two rows
        with pytest.raises(FloatingPointError, match="infinite depth after update"):
            _settle(stack, np.zeros((2, 2)), np.empty((2, 2), bool))

    def test_nan_time_step_fails_cfl_check(self):
        state = flat_state(np.ones(10))
        with pytest.raises(ValueError, match="CFL"):
            sv_forward_step(state, math.nan)

    def test_nan_depth_after_update_raises(self):
        state = flat_state(np.ones(10))
        dh = np.zeros(10)
        dh[4] = np.nan
        with pytest.raises(FloatingPointError, match="depth nan"):
            innovation_step(state, dh, 1.0, 0.5 * sv_cfl(state, 1.0))


class TestEnergyBudget:
    def test_still_unit_energy(self):
        state = flat_state(np.ones(4))
        budget = energy_budget(state)
        np.testing.assert_allclose(budget.zeta_hat, G / 2.0, rtol=1e-13)

    def test_dry_cell_zero(self):
        state = flat_state([1.0, 0.0, 1.0])
        assert energy_budget(state).zeta_hat[1] == 0.0

    def test_dam_break_total_energy_decays(self):
        grid = wall_grid(100)
        state = dam_break_state(grid, 2.0, 1.0, 0.5)
        prev = total_energy(state)
        for _ in range(150):
            state = sv_forward_step(state, sv_cfl(state, 0.0))
            now = total_energy(state)
            assert now <= prev + 1e-10
            prev = now

    def test_gibbs_energy_matches_kinetic_integral(self):
        # closed-form cell energy equals the xi-integral of e(f) per cell
        rng = np.random.default_rng(9)
        for profile in PROFILES:
            h = rng.uniform(0.1, 3.0)
            u = rng.uniform(-2.0, 2.0)
            c = math.sqrt(G * h / 2.0)
            k3 = chi_cube_integral(profile)

            def density(xi):
                return h / c * chi_profile_value(profile, (xi - u) / c)

            val, _ = quad(
                lambda xi: 0.5 * xi * xi * density(xi) + G**2 / (8.0 * k3) * density(xi) ** 3,
                u - 2.5 * c,
                u + 2.5 * c,
                limit=300,
            )
            state = flat_state([h, h], q_values=[h * u, h * u], profile=profile)
            assert cell_energy(state)[0] == pytest.approx(val, rel=1e-8)


class TestWettingDryingFuzz:
    def test_random_assimilated_states_stay_admissible(self):
        # random bathymetry, wet/dry initial states, clamped noisy depth
        # observations: depth stays nonnegative and finite throughout
        rng = np.random.default_rng(123)
        for trial in range(5):
            n = 60
            grid = wall_grid(n, 2.0)
            z_b = 0.4 * rng.random() * np.sin(
                2 * np.pi * rng.integers(1, 4) * grid.centers / 2.0
            ) + 0.2 * rng.random(n)
            eta = rng.uniform(0.1, 0.6)
            h = np.maximum(0.0, eta - z_b) * rng.uniform(0.5, 1.5, n)
            q = np.where(h > 0.05, rng.uniform(-0.2, 0.2, n) * h, 0.0)
            state = SWState(h, q, z_b, grid, ChiProfile.SEMICIRCLE)
            obs = np.maximum(0.0, h + rng.normal(0.0, 0.1, n))
            obs[rng.random(n) < 0.5] = np.nan  # partial mask
            lam = rng.uniform(0.0, 50.0)
            for _ in range(150):
                dt = sv_cfl(state, lam)
                state = sv_observer_step(state, obs, lam, dt)
                assert np.min(state.h) >= 0.0
                assert np.all(np.isfinite(state.h)) and np.all(np.isfinite(state.q))


class TestThackerSetup:
    def test_parameter_values(self):
        truth, observer = thacker_setup(1.0, 4.0, 0.5, 300)
        x = truth.grid.centers
        i_mid = np.argmin(np.abs(x - 2.0))
        # cell centers sit half a cell off x = 2; evaluate there
        assert observer.h[i_mid] == pytest.approx(0.5, abs=5e-3)
        assert truth.h[i_mid] == pytest.approx(
            0.5 * (1.0 - (x[i_mid] - 1.5) ** 2), abs=1e-12
        )
        assert truth.h[i_mid] == pytest.approx(0.375, abs=5e-3)

    def test_observer_mass_closed_form(self):
        _, observer = thacker_setup(1.0, 4.0, 0.5, 2000)
        # integral of the truncated parabola: (4/3) h_m a
        assert observer.mass() == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_null_velocities(self):
        truth, observer = thacker_setup(1.0, 4.0, 0.5, 100)
        assert np.all(truth.q == 0.0) and np.all(observer.q == 0.0)

    def test_truth_surface_planar_where_wet(self):
        truth, _ = thacker_setup(1.0, 4.0, 0.5, 400)
        wet = truth.h > 1e-6
        eta = truth.surface[wet]
        x = truth.grid.centers[wet]
        slope = np.polyfit(x, eta, 1)
        residual = eta - np.polyval(slope, x)
        assert np.max(np.abs(residual)) < 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            thacker_setup(1.0, 1.5, 0.5, 100)
        with pytest.raises(ValueError):
            thacker_setup(-1.0, 4.0, 0.5, 100)

    @pytest.mark.parametrize("a,h_m,message", [
        (0.0, 0.5, "half-width a must be positive"),
        (-1.0, 0.5, "half-width a must be positive"),
        (math.nan, 0.5, "half-width a must be positive"),
        (1.0, 0.0, "depth h_m must be positive"),
        (1.0, -0.5, "depth h_m must be positive"),
    ])
    def test_bowl_refuses_a_non_positive_parameter(self, a, h_m, message):
        # a = 0 divided by zero in the bed of a lake at rest
        with pytest.raises(ValueError, match=message):
            parabolic_bowl_bathymetry(wall_grid(10, 4.0), a, h_m)


class TestThackerExactSolution:
    """Forward solver against Thacker's planar-surface solution in a parabolic
    bowl (Thacker, JFM 1981; tabulated in SWASHES, Delestre et al., IJNMF
    2013), with the parameters ``thacker.cfg`` uses: a = 1, h0 = 0.5, L = 4.

    The water body is the bowl parabola translated by X(t) = X0 cos(omega t),
    omega = sqrt(2 g h0) / a, moving at the uniform velocity X'(t):

        h(t, x) = max(0, (h0 / a^2) (2 (x - L/2) X(t) - X(t)^2) - z(x)).

    ``thacker_setup`` starts it at X0 = -1/2.
    """

    A, LENGTH, H0, X0 = 1.0, 4.0, 0.5, -0.5

    def exact_depth(self, x, z_b, t):
        shift = self.X0 * math.cos(math.sqrt(2.0 * G * self.H0) / self.A * t)
        surface = (self.H0 / self.A**2) * (2.0 * (x - 0.5 * self.LENGTH) * shift - shift**2)
        return np.maximum(0.0, surface - z_b)

    def depth_l1_error(self, n, t_end):
        state, _ = thacker_setup(self.A, self.LENGTH, self.H0, n)
        x = state.grid.centers
        np.testing.assert_allclose(
            state.h, self.exact_depth(x, state.z_b, 0.0), rtol=0.0, atol=1e-14
        )
        t = 0.0
        while t < t_end * (1.0 - 1e-12):
            dt = min(sv_cfl(state, 0.0), t_end - t)
            state = sv_forward_step(state, dt)
            t += dt
        return float(np.sum(np.abs(state.h - self.exact_depth(x, state.z_b, t))) * state.grid.dx)

    def test_depth_converges_at_first_order(self):
        # a third of a period: the surface is tilted and the flow is moving
        t_end = 2.0 * math.pi * self.A / math.sqrt(2.0 * G * self.H0) / 3.0
        errors = [self.depth_l1_error(n, t_end) for n in (100, 200, 400)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        print(f"Thacker depth L1 at t={t_end:.3f}: {errors}, observed orders {orders}")
        assert errors[0] > errors[1] > errors[2]
        assert min(orders) > 0.8  # measured 0.94 and 0.97


class TestStokerDamBreak:
    """The flat-bed forward step against Stoker's dam break (Stoker 1957;
    tabulated in SWASHES, Delestre et al., IJNMF 2013): still water of depth
    2 left of x = 0.5 and 1 right of it, between walls, at t = 0.1, before
    either wave reaches a wall.  Its middle state is h_m = 1.4538,
    u_m = 1.3058 and the shock runs at 4.1831 (``oracles.stoker_middle_state``)."""

    def depth_l1_error(self, n, t_end=0.1):
        grid = Grid1D(n, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
        state = dam_break_state(grid, 2.0, 1.0, 0.5)
        t = 0.0
        while t < t_end * (1.0 - 1e-12):
            dt = min(sv_cfl(state, 0.0), t_end - t)
            state = sv_forward_step(state, dt)
            t += dt
        exact = stoker_depth_averages(grid, 2.0, 1.0, 0.5, t, state.g)
        return float(np.sum(np.abs(state.h - exact)) * grid.dx)

    def test_middle_state(self):
        h_m, u_m, speed = stoker_middle_state(2.0, 1.0, G)
        assert (round(h_m, 4), round(u_m, 4), round(speed, 4)) == (1.4538, 1.3058, 4.1831)

    def test_depth_converges(self):
        # measured 1.05e-2, 6.12e-3 and 3.55e-3 against the exact averages,
        # orders 0.78 and 0.78 (averages of 32 to 64 points a cell gave
        # 1.05e-2, 6.13e-3 and 3.56e-3); a shock and the corners of a
        # rarefaction cap a first-order scheme's L1 order below 1
        errors = [self.depth_l1_error(n) for n in (200, 400, 800)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        print(f"Stoker depth L1 at t=0.1: {errors}, observed orders {orders}")
        assert errors[0] > errors[1] > errors[2]
        assert min(orders) > 0.7
