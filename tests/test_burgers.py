import math
import re

import numpy as np
import pytest

from kinassim.burgers import (
    KineticField,
    burgers_cfl,
    engquist_osher_flux,
    step_collapse_macroscopic,
    step_kinetic_burgers,
    step_kinetic_linear,
    step_macroscopic_burgers,
)
from kinassim.grid import BoundaryKind, Grid1D, XiGrid
from oracles import (
    burgers_pulse_averages,
    cell_averaged_indicator,
    dense_collapse_step,
    exact_relaxation_solution,
    relaxed,
)


def make_grid(n=100, bc=BoundaryKind.PERIODIC):
    return Grid1D(n, 0.0, 1.0, bc)


class TestXiGrid:
    def test_weights_sum_to_span(self):
        xi = XiGrid(-1.0, 2.0, 48)
        assert float(np.sum(xi.weights)) == pytest.approx(3.0, rel=1e-14)
        assert np.allclose(np.diff(xi.nodes), xi.dxi)

    def test_spanning_straddles_zero(self):
        xi = XiGrid.spanning(0.2, 0.9, margin=0.5, n_xi=32)
        assert xi.xi_min < 0.0 < xi.xi_max

    @pytest.mark.parametrize("margin", [-0.1, math.nan, math.inf])
    def test_spanning_refuses_a_negative_or_non_finite_margin(self, margin):
        # a margin of -0.1 gave [0.1, 0.9]: a grid that neither contains zero
        # nor covers the values
        with pytest.raises(ValueError, match="margin must be finite and nonnegative"):
            XiGrid.spanning(0.0, 1.0, margin, 8)


class TestCfl:
    def test_pure_advection_limit(self):
        assert burgers_cfl(0.01, 2.0, safety=1.0) == pytest.approx(0.005)

    def test_gain_free(self):
        # the relaxation is exact, so a large gain no longer shortens the
        # step: every step accepts the transport bound
        grid = make_grid(100)
        xi = XiGrid(-1.0, 2.0, 16)
        dt = burgers_cfl(grid.dx, xi.speed_sup, safety=1.0)
        assert dt == pytest.approx(0.005)
        u = np.linspace(-0.5, 1.0, 100)
        obs = u[::-1].copy()
        f = KineticField.from_macroscopic(u, xi, grid)
        assert np.all(np.isfinite(relaxed(step_kinetic_burgers(f, dt), xi.indicator(obs),
                                          1e4, dt).values))
        for out in (
            step_collapse_macroscopic(u, obs, 1e4, dt, grid, xi),
            relaxed(step_macroscopic_burgers(u, dt, grid), obs, 1e4, dt),
            relaxed(step_kinetic_linear(u, 2.0, dt, grid), obs, 1e4, dt),
        ):
            np.testing.assert_allclose(out, obs, rtol=0.0, atol=1e-15)

    def test_safety_scaling(self):
        assert burgers_cfl(0.01, 2.0, safety=0.9) == pytest.approx(0.0045)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            burgers_cfl(-0.1, 1.0)
        with pytest.raises(ValueError):
            burgers_cfl(0.1, 0.0)
        with pytest.raises(ValueError):
            burgers_cfl(0.1, 1.0, safety=1.5)


@pytest.mark.parametrize("call, match", [
    # accepted before: dx = inf, and a dam break on such a grid had sv_cfl nan
    (lambda: Grid1D(10, 0.0, math.inf), "x_max must be finite, got inf"),
    (lambda: Grid1D(10, -math.inf, 1.0), "x_min must be finite, got -inf"),
    # refused before as "x_max must exceed x_min", which names no bad field
    (lambda: Grid1D(10, math.nan, 1.0), "x_min must be finite, got nan"),
    (lambda: Grid1D(10, 0.0, math.nan), "x_max must be finite, got nan"),
    # returned nan before
    (lambda: burgers_cfl(0.1, math.nan), "xi_sup must be finite, got nan"),
    (lambda: burgers_cfl(math.nan, 1.0), "dx must be finite, got nan"),
    (lambda: burgers_cfl(math.inf, 1.0), "dx must be finite, got inf"),
], ids=["x_max_inf", "x_min_neg_inf", "x_min_nan", "x_max_nan", "cfl_xi_sup_nan", "cfl_dx_nan",
        "cfl_dx_inf"])
def test_grid_and_cfl_refuse_non_finite_input_by_name(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: Grid1D(1, 0.0, 1.0), "n_cells must be >= 2, got 1"),
    (lambda: Grid1D(10, 1.0, 1.0), "x_max must exceed x_min, got x_min=1.0, x_max=1.0"),
    (lambda: Grid1D(10, 1.0, -1.0), "x_max must exceed x_min, got x_min=1.0, x_max=-1.0"),
    (lambda: XiGrid(1.0, 1.0, 8), "xi_max must exceed xi_min, got xi_min=1.0, xi_max=1.0"),
    (lambda: XiGrid(0.5, -0.5, 8), "xi_max must exceed xi_min, got xi_min=0.5, xi_max=-0.5"),
    (lambda: XiGrid(-1.0, 1.0, 0), "n_xi must be >= 1, got 0"),
], ids=["one_cell", "empty_interval", "reversed_interval", "empty_xi_interval",
        "reversed_xi_interval", "no_xi_cell"])
def test_grid_refusals_name_the_field_and_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: burgers_cfl(0.1, math.inf), "xi_sup must be finite, got inf"),
    (lambda: burgers_cfl(-math.inf, 1.0), "dx must be finite, got -inf"),
    (lambda: burgers_cfl(0.0, 1.0), "dx and xi_sup must be positive, got dx=0.0, xi_sup=1.0"),
    (lambda: burgers_cfl(0.1, -2.0), "dx and xi_sup must be positive, got dx=0.1, xi_sup=-2.0"),
    (lambda: burgers_cfl(0.1, 1.0, 1.5), "safety must lie in (0, 1], got 1.5"),
    (lambda: burgers_cfl(0.1, 1.0, 0.0), "safety must lie in (0, 1], got 0.0"),
], ids=["xi_sup_inf", "dx_neg_inf", "dx_zero", "xi_sup_negative", "safety_high", "safety_zero"])
def test_burgers_cfl_refusals_name_the_field_and_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestKineticStep:
    def test_constant_field_invariant(self):
        grid = make_grid()
        xi = XiGrid(-1.0, 2.0, 16)
        f = KineticField(np.full((100, 16), 0.3), xi, grid)
        out = step_kinetic_burgers(f, burgers_cfl(grid.dx, 2.0))
        np.testing.assert_allclose(out.values, f.values)

    def test_cfl_violation_rejected(self):
        grid = make_grid()
        xi = XiGrid(-1.0, 2.0, 16)
        f = KineticField(np.zeros((100, 16)), xi, grid)
        with pytest.raises(ValueError, match="CFL"):
            step_kinetic_burgers(f, 1.0)

    def test_single_node_transport_first_order(self):
        # square pulse advected at a single positive speed vs exact shift
        grid = make_grid(200)
        xi = XiGrid(0.5, 1.5, 1)  # single node at xi = 1
        speed = float(xi.nodes[0])
        x = grid.centers
        pulse = ((x > 0.2) & (x < 0.4)).astype(float)
        f = KineticField(pulse[:, None].copy(), xi, grid)
        dt = 0.4 * grid.dx / speed
        out = step_kinetic_burgers(f, dt)
        exact = ((np.mod(x - speed * dt, 1.0) > 0.2) & (np.mod(x - speed * dt, 1.0) < 0.4))
        err = np.sum(np.abs(out.values[:, 0] - exact.astype(float))) * grid.dx
        assert err <= 4.0 * grid.dx  # two smeared jumps, O(dx) each

    def test_uniform_relaxation_exact(self):
        grid = make_grid(50)
        xi = XiGrid(-1.0, 2.0, 32)
        f = KineticField(np.full((50, 32), 0.2), xi, grid)
        obs = np.full(50, 0.8)
        lam, dt = 10.0, 1e-3
        out = relaxed(step_kinetic_burgers(f, dt), xi.indicator(obs), lam, dt)
        target = cell_averaged_indicator(xi, obs)
        expected = f.values + (1.0 - math.exp(-lam * dt)) * (target - f.values)
        np.testing.assert_allclose(out.values, expected, atol=1e-15)

    def test_convex_combination_bounds(self):
        # under the CFL each output node value stays within the span of its
        # stencil inputs and the observation density
        rng = np.random.default_rng(0)
        grid = make_grid(60)
        xi = XiGrid(-2.0, 2.0, 24)
        vals = rng.uniform(-1.0, 1.0, (60, 24))
        f = KineticField(vals, xi, grid)
        obs = rng.uniform(-1.0, 1.0, 60)
        lam = 30.0
        dt = burgers_cfl(grid.dx, xi.speed_sup, safety=1.0)
        out = relaxed(step_kinetic_burgers(f, dt), xi.indicator(obs), lam, dt)
        target = cell_averaged_indicator(xi, obs)
        padded = np.vstack([vals[-1:], vals, vals[:1]])
        stacked = np.stack([padded[:-2], padded[1:-1], padded[2:], target])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        assert np.all(out.values >= lo - 1e-12)
        assert np.all(out.values <= hi + 1e-12)

    def test_periodic_mass_conserved(self):
        rng = np.random.default_rng(1)
        grid = make_grid(80)
        xi = XiGrid(-1.5, 1.5, 16)
        f = KineticField(rng.uniform(-1.0, 1.0, (80, 16)), xi, grid)
        dt = burgers_cfl(grid.dx, xi.speed_sup)
        mass0 = float(np.sum(f.macroscopic()) * grid.dx)
        for _ in range(20):
            f = step_kinetic_burgers(f, dt)
            assert abs(float(np.sum(f.macroscopic()) * grid.dx) - mass0) < 1e-12

    def test_masked_observation_rows_untouched(self):
        grid = make_grid(40)
        xi = XiGrid(-1.0, 1.0, 8)
        f = KineticField(np.full((40, 8), 0.1), xi, grid)
        obs = np.full(40, np.nan)
        obs[10:20] = 0.9
        out = relaxed(step_kinetic_burgers(f, 1e-3), xi.indicator(obs), 5.0, 1e-3)
        ref = step_kinetic_burgers(f, 1e-3)
        np.testing.assert_allclose(out.values[:10], ref.values[:10])
        assert not np.allclose(out.values[10:20], ref.values[10:20])


class TestExactRelaxationOracle:
    def test_zero_gain_is_pure_transport(self):
        grid = make_grid(64)
        xi = XiGrid(0.5, 1.5, 1)
        x = grid.centers
        f = KineticField(np.sin(2 * np.pi * x)[:, None], xi, grid)
        t = 17.0 * grid.dx / float(xi.nodes[0])  # lands between cells
        out = exact_relaxation_solution(f, lambda tt, xx, xxi: 0.0, 0.0, t)
        # piecewise-constant lookup of the shifted initial data
        shift_cells = int(np.floor(t * xi.nodes[0] / grid.dx))
        expected = np.roll(f.values[:, 0], shift_cells)
        np.testing.assert_allclose(out.values[:, 0], expected)

    def test_fixed_point(self):
        grid = make_grid(32)
        xi = XiGrid(-1.0, 1.0, 4)
        f = KineticField(np.full((32, 4), 0.7), xi, grid)
        out = exact_relaxation_solution(f, lambda tt, xx, xxi: 0.7, 3.0, 0.5)
        np.testing.assert_allclose(out.values, 0.7, atol=1e-8)

    @pytest.mark.parametrize("lam", [5.0, 20.0])
    def test_exponential_decay_rate(self, lam):
        # smooth transported target; initial error decays exactly as exp(-lam t)
        grid = make_grid(64)
        xi = XiGrid(0.75, 1.25, 1)
        speed = float(xi.nodes[0])
        x = grid.centers

        def target(t, xx, xxi):
            return np.sin(2 * np.pi * (xx - speed * t))

        m0 = target(0.0, x, speed)
        bump = 0.5 * np.cos(2 * np.pi * x) + 0.1
        f0 = KineticField((m0 + bump)[:, None], xi, grid)
        t = 32 * grid.dx / speed  # integer cell shift: lookup error vanishes
        out = exact_relaxation_solution(f0, target, lam, t)
        m_t = target(t, x, speed)
        err = np.sum(np.abs(out.values[:, 0] - m_t)) * grid.dx
        err0 = np.sum(np.abs(bump)) * grid.dx
        assert err == pytest.approx(err0 * np.exp(-lam * t), rel=1e-6)


class TestMacroscopicStep:
    def test_nonnegative_reduces_to_upwind(self):
        grid = make_grid(50, BoundaryKind.DIRICHLET_ZERO)
        u = np.linspace(0.1, 1.0, 50)
        dt = 0.3 * grid.dx
        out = step_macroscopic_burgers(u, dt, grid)
        up = np.concatenate([[0.0], u])
        flux = 0.5 * up * up
        expected = u - dt / grid.dx * (flux[1:] - flux[:-1])
        # interface flux uses the left state only when everything is >= 0
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_riemann_shock_speed(self):
        # data (1, 0): shock travels at 1/2
        grid = Grid1D(400, 0.0, 1.0, BoundaryKind.DIRICHLET_ZERO)
        x = grid.centers
        u = (x < 0.25).astype(float)
        dt = burgers_cfl(grid.dx, 1.0)
        for _ in range(100):
            u = step_macroscopic_burgers(u, dt, grid)
        t = 100 * dt
        front = x[np.nonzero(u > 0.5)[0][-1]]  # rightmost point above half height
        assert abs(front - (0.25 + 0.5 * t)) <= 1.5 * grid.dx

    def test_collapse_lane_is_moment_of_kinetic_step(self):
        # stepping the indicator field and integrating equals the moment
        # recursion: the field is the cell-averaged indicator, whose moment
        # is u itself, and flux and relaxation terms are identical
        rng = np.random.default_rng(10)
        grid = make_grid(40)
        xi = XiGrid(-1.5, 1.5, 48)
        u = rng.uniform(-0.6, 0.9, 40)
        obs = rng.uniform(-0.6, 0.9, 40)
        lam = 20.0
        dt = burgers_cfl(grid.dx, xi.speed_sup)
        f = KineticField.from_macroscopic(u, xi, grid)
        kin = relaxed(step_kinetic_burgers(f, dt), xi.indicator(obs), lam, dt).macroscopic()
        mom = step_collapse_macroscopic(u, obs, lam, dt, grid, xi)
        np.testing.assert_allclose(f.macroscopic(), u, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(kin, mom, rtol=0.0, atol=1e-13)

    def test_collapse_lane_matches_macroscopic_to_quadrature(self):
        rng = np.random.default_rng(2)
        grid = make_grid(60)
        u = rng.uniform(-0.8, 0.9, 60)
        xi = XiGrid(-2.0, 2.0, 512)
        dt = burgers_cfl(grid.dx, 2.0)
        coarse = step_collapse_macroscopic(u, None, 0.0, dt, grid, xi)
        exact = step_macroscopic_burgers(u, dt, grid)
        # one step differs by the xi-quadrature of the indicator flux: O(dxi)
        assert np.max(np.abs(coarse - exact)) <= 2.0 * (dt / grid.dx) * xi.dxi

    def test_cfl_enforced(self):
        grid = make_grid(50)
        u = np.full(50, 2.0)
        with pytest.raises(ValueError, match="CFL"):
            step_macroscopic_burgers(u, grid.dx, grid)

    def test_eo_flux_signs(self):
        assert engquist_osher_flux(np.array([2.0]), np.array([3.0]))[0] == 2.0
        assert engquist_osher_flux(np.array([-2.0]), np.array([-3.0]))[0] == 4.5
        assert engquist_osher_flux(np.array([-1.0]), np.array([1.0]))[0] == 0.0


class TestCollapseClosedForm:
    XI_GRIDS = [
        XiGrid(-1.5, 2.0, 48),
        XiGrid(-1.5, 1.5, 49),  # odd and symmetric: a node sits at xi = 0
        XiGrid(-1.0, 1.0, 1),  # one node, at xi = 0
        XiGrid(-0.5, 2.0, 1),  # one node, above zero
        XiGrid(0.0, 1.0, 16),  # no node below zero
    ]

    @staticmethod
    def values(rng, xi, n):
        """Random values over and past the grid, a fifth exactly on nodes,
        a tenth zero."""
        v = rng.uniform(1.2 * xi.xi_min - 0.1, 1.2 * xi.xi_max + 0.1, n)
        pick = rng.random(n)
        v[pick < 0.2] = rng.choice(xi.nodes, size=int(np.sum(pick < 0.2)))
        v[(pick >= 0.2) & (pick < 0.3)] = 0.0
        return v

    @pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.DIRICHLET_ZERO])
    @pytest.mark.parametrize("xi", XI_GRIDS, ids=lambda xi: f"{xi.xi_min:g}_{xi.xi_max:g}_{xi.n_xi}")
    @pytest.mark.parametrize("lam", [0.0, 30.0])
    def test_matches_dense_quadrature(self, bc, xi, lam):
        rng = np.random.default_rng(xi.n_xi + int(lam))
        grid = make_grid(60, bc)
        dt = burgers_cfl(grid.dx, xi.speed_sup)
        for _ in range(20):
            u = self.values(rng, xi, 60)
            obs = self.values(rng, xi, 60)
            obs[rng.random(60) < 0.15] = np.nan
            for target in (obs, None):
                np.testing.assert_allclose(
                    step_collapse_macroscopic(u, target, lam, dt, grid, xi),
                    dense_collapse_step(u, target, lam, dt, grid, xi),
                    rtol=0.0, atol=1e-13,
                )

    @pytest.mark.parametrize("n_xi", [1, 2, 7, 16])
    @pytest.mark.parametrize("lo,hi", [(-1.0, 0.0), (0.0, 1.0)])
    def test_edge_table_with_zero_at_an_end(self, lo, hi, n_xi):
        # the cell holding 0 is the first or the last one; values run past
        # both ends of the grid
        xi = XiGrid(lo, hi, n_xi)
        grid = make_grid(40, BoundaryKind.DIRICHLET_ZERO)
        dt = burgers_cfl(grid.dx, xi.speed_sup)
        u = np.linspace(lo - 0.5, hi + 0.5, 40)
        obs = u[::-1].copy()
        for lam in (0.0, 30.0):
            np.testing.assert_allclose(
                step_collapse_macroscopic(u, obs, lam, dt, grid, xi),
                dense_collapse_step(u, obs, lam, dt, grid, xi),
                rtol=0.0, atol=1e-13,
            )
        _, intercept, _ = xi.flux_table
        zero = 0 if lo == 0.0 else n_xi - 1
        assert np.all(intercept[:, zero] == 0.0)  # G(0) = 0 exactly

    def test_edge_table_needs_zero_on_the_grid(self):
        with pytest.raises(ValueError, match=r"needs 0 in \[xi_min, xi_max\]"):
            XiGrid(0.5, 1.5, 4).flux_table

    def test_tables_are_read_only(self):
        xi = XiGrid(-1.0, 2.0, 24)
        assert xi.flux_table is xi.flux_table  # built once per grid
        for table in xi.flux_table:
            with pytest.raises(ValueError):
                table[0] = 1.0


def step_data(rng, n, lo, hi):
    """Piecewise-constant values in [lo, hi]: a few plateaus, some at the
    ends of the range."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(1, 6), replace=False))
    levels = rng.uniform(lo, hi, len(cuts) + 1)
    levels[rng.random(len(levels)) < 0.3] = hi
    levels[rng.random(len(levels)) < 0.2] = lo
    return np.repeat(levels, np.diff(np.concatenate(([0], cuts, [n]))))


class TestCollapseMaxPrinciple:
    """Without a gain the collapse step stays inside the range of its data
    (and of the zero ghost cells under Dirichlet boundaries).  The staircase
    quadrature flux it replaced overshot by up to half a xi cell near CFL
    number 1."""

    @pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.DIRICHLET_ZERO])
    @pytest.mark.parametrize("margin", [0.0, 1.0])
    def test_top_hat(self, bc, margin):
        # the truth of the Burgers fixtures: a unit top hat on [1/8, 1/4]
        grid = make_grid(100, bc)
        x = grid.centers
        u = np.where((x >= 0.125) & (x <= 0.25), 1.0, 0.0)
        xi = XiGrid.spanning(0.0, 1.0, margin, 64)
        dt = burgers_cfl(grid.dx, xi.speed_sup, 0.95)
        for _ in range(400):
            u = step_collapse_macroscopic(u, None, 0.0, dt, grid, xi)
            assert u.max() <= 1.0 and u.min() >= 0.0

    @pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.DIRICHLET_ZERO])
    @pytest.mark.parametrize("margin", [0.0, 1.0])
    def test_random_steps(self, bc, margin):
        rng = np.random.default_rng(int(margin) + 2 * (bc is BoundaryKind.PERIODIC))
        grid = make_grid(60, bc)
        for _ in range(50):
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2))
            u = step_data(rng, 60, lo, hi)
            xi = XiGrid.spanning(lo, hi, margin, int(rng.integers(1, 65)))
            dt = burgers_cfl(grid.dx, xi.speed_sup, rng.uniform(0.5, 1.0))
            top, bottom = u.max(), u.min()
            if bc is BoundaryKind.DIRICHLET_ZERO:
                top, bottom = max(top, 0.0), min(bottom, 0.0)
            for _ in range(20):
                u = step_collapse_macroscopic(u, None, 0.0, dt, grid, xi)
                assert u.max() <= top and u.min() >= bottom


class TestDiscreteVsOracle:
    def test_refinement_first_order(self):
        # kinetic stepper on one node converges to the representation formula
        lam, speed = 4.0, 1.0
        errors = []
        for n in (50, 100, 200):
            grid = Grid1D(n, 0.0, 1.0, BoundaryKind.PERIODIC)
            xi = XiGrid(speed - 0.25, speed + 0.25, 1)
            x = grid.centers

            def target(t, xx, xxi):
                return np.sin(2 * np.pi * (xx - xi.nodes[0] * t))

            f = KineticField(np.zeros((n, 1)), xi, grid)
            dt = burgers_cfl(grid.dx, xi.speed_sup, safety=0.9)
            steps = 30
            for k in range(steps):
                obs = target((k + 1) * dt, x, None)  # the target at the step's end
                f = KineticField(
                    relaxed(step_kinetic_linear(f.values[:, 0], float(xi.nodes[0]), dt, grid),
                            obs, lam, dt)[:, None],
                    xi,
                    grid,
                )
            oracle = exact_relaxation_solution(
                KineticField(np.zeros((n, 1)), xi, grid), target, lam, steps * dt
            )
            errors.append(float(np.max(np.abs(f.values - oracle.values))))
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[2] > 2.5  # first-order-ish reduction over 4x


class TestBurgersExactSolution:
    """The collapse and Engquist-Osher lanes' transport against the exact
    solution (``oracles.burgers_pulse_averages``) of ``burgers_clean.cfg``'s
    truth, u = 1 on [0.125, 0.25] sampled at the cell centres as the fixture
    samples it: a rarefaction and a shock until t = 0.25, then a triangle up
    to a shock at 0.125 + 0.5 sqrt(t).  The collapse lane runs on the
    fixtures' xi grid, [-1, 2] (the data range with a margin of 1)."""

    def l1_error(self, n, lane, t_end, n_xi=64):
        grid = Grid1D(n, 0.0, 1.0, BoundaryKind.DIRICHLET_ZERO)
        x = grid.centers
        u = np.where((x >= 0.125) & (x <= 0.25), 1.0, 0.0)
        xi = XiGrid.spanning(0.0, 1.0, 1.0, n_xi)
        t = 0.0
        while t < t_end * (1.0 - 1e-12):
            if lane == "collapse":
                dt = min(burgers_cfl(grid.dx, xi.speed_sup, 0.95), t_end - t)
                u = step_collapse_macroscopic(u, None, 0.0, dt, grid, xi)
            else:
                dt = min(burgers_cfl(grid.dx, float(np.max(np.abs(u))), 0.95), t_end - t)
                u = step_macroscopic_burgers(u, dt, grid)
            t += dt
        return float(np.sum(np.abs(u - burgers_pulse_averages(grid, t))) * grid.dx)

    def test_oracle_keeps_the_mass(self):
        grid = Grid1D(1000, 0.0, 1.0, BoundaryKind.DIRICHLET_ZERO)
        for t in (0.1, 0.25, 0.5, 2.0):
            assert np.sum(burgers_pulse_averages(grid, t)) * grid.dx == pytest.approx(0.125)

    @pytest.mark.parametrize("lane", ["collapse", "engquist_osher"])
    def test_lane_converges(self, lane):
        # measured at n = 100, 200, 400, 800 and t = 0.5: collapse 1.65e-2,
        # 8.92e-3, 5.27e-3, 3.08e-3, orders 0.89, 0.76, 0.77; Engquist-Osher
        # 9.99e-3, 5.34e-3, 3.12e-3, 1.79e-3, orders 0.90, 0.78, 0.80.  A
        # shock and the corners of a rarefaction cap a first-order scheme's
        # L1 order below 1
        errors = [self.l1_error(n, lane, 0.5) for n in (100, 200, 400, 800)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        print(f"Burgers {lane} L1 at t=0.5: {errors}, observed orders {orders}")
        assert all(coarse > fine for coarse, fine in zip(errors, errors[1:]))
        assert min(orders) > 0.7

    def test_collapse_xi_floor(self):
        # at t = 2 the xi grid of 64 nodes sets a floor: measured 5.53e-3,
        # 5.28e-3 and 5.75e-3 at n = 400, 800 and 1 600, where 256 nodes give
        # 4.52e-3, 2.53e-3 and 1.44e-3 (orders 0.84 and 0.81), and the lane
        # converges as n_xi grows with n
        coarse = [self.l1_error(n, "collapse", 2.0) for n in (400, 800, 1600)]
        fine = [self.l1_error(n, "collapse", 2.0, n_xi=256) for n in (400, 800, 1600)]
        assert min(coarse) > 5e-3
        assert all(math.log2(a / b) > 0.75 for a, b in zip(fine, fine[1:]))


class TestLinearStep:
    def test_single_signed_error_contracts_exactly(self):
        # one-signed error under periodic transport, relaxed toward the
        # truth at the step's end: the L1 norm shrinks by exactly
        # exp(-lam dt) per step
        grid = make_grid(128)
        rng = np.random.default_rng(7)
        truth = rng.normal(size=128)
        err0 = rng.uniform(0.1, 0.5, 128)
        f = truth + err0
        lam, speed = 12.0, 1.0
        dt = 0.9 / (lam + speed / grid.dx)
        norm = float(np.sum(err0) * grid.dx)
        for _ in range(20):
            truth = step_kinetic_linear(truth, speed, dt, grid)
            f = relaxed(step_kinetic_linear(f, speed, dt, grid), truth, lam, dt)
            new_norm = float(np.sum(np.abs(f - truth)) * grid.dx)
            assert new_norm == pytest.approx(math.exp(-lam * dt) * norm, rel=1e-12)
            norm = new_norm

    def test_reflective_walls_rejected(self):
        grid = make_grid(16, BoundaryKind.REFLECTIVE_WALL)
        with pytest.raises(ValueError, match="not supported"):
            step_kinetic_linear(np.zeros(16), 1.0, 1e-4, grid)

    def test_masked_gain_field(self):
        grid = make_grid(50)
        f = np.zeros(50)
        obs = np.ones(50)
        lam_field = np.where(grid.centers > 0.5, 10.0, 0.0)
        out = relaxed(step_kinetic_linear(f, 1.0, 1e-3, grid), obs, lam_field, 1e-3)
        assert np.all(out[grid.centers <= 0.5] == 0.0)
        assert np.all(out[grid.centers > 0.5] > 0.0)


class TestPerRowDt:
    """The linear, Engquist-Osher and collapse steps take ``dt`` as a float
    or as a (k, 1) column, one step per row, each checked against its row's
    bound."""

    GRID = make_grid(40)
    XI = XiGrid(-1.5, 1.5, 24)

    def fields(self, rng, k):
        return rng.uniform(-1.0, 1.0, (k, self.GRID.n_cells))

    def steps(self):
        """name -> (step(u, dt), the largest dt of a row u)."""
        grid, xi = self.GRID, self.XI
        return {
            "linear": (lambda u, dt: step_kinetic_linear(u, -0.8, dt, grid),
                       lambda u: burgers_cfl(grid.dx, 0.8, safety=1.0)),
            "engquist_osher": (lambda u, dt: step_macroscopic_burgers(u, dt, grid),
                               lambda u: burgers_cfl(grid.dx, float(np.max(np.abs(u))), 1.0)),
            "collapse": (lambda u, dt: step_collapse_macroscopic(u, None, 0.0, dt, grid, xi),
                         lambda u: burgers_cfl(grid.dx, xi.speed_sup, safety=1.0)),
        }

    @pytest.mark.parametrize("name", ["linear", "engquist_osher", "collapse"])
    def test_a_column_steps_each_row_as_its_float_call(self, name):
        step, bound = self.steps()[name]
        rng = np.random.default_rng(31)
        for k in (1, 2, 7):
            u = self.fields(rng, k)
            dt = np.array([[rng.uniform(0.0, 1.0) * bound(row)] for row in u])
            dt[0] = 0.0  # a zero step leaves its row as it is
            out = step(u, dt)
            assert out.shape == u.shape
            for r in range(k):
                assert np.array_equal(out[r], step(u[r], float(dt[r, 0])))
            assert np.array_equal(out[0], u[0])

    @pytest.mark.parametrize("bad", [-1e-3, math.nan])
    @pytest.mark.parametrize("name", ["linear", "engquist_osher", "collapse"])
    def test_a_negative_or_nan_entry_is_refused(self, name, bad):
        step, bound = self.steps()[name]
        u = self.fields(np.random.default_rng(32), 3)
        dt = np.array([[0.5 * bound(row)] for row in u])
        step(u, dt)
        dt[1] = bad
        with pytest.raises(ValueError, match=rf"dt={bad:g} of row 1 violates the CFL bound"):
            step(u, dt)

    @pytest.mark.parametrize("name", ["linear", "engquist_osher", "collapse"])
    def test_an_entry_past_its_bound_is_refused(self, name):
        step, bound = self.steps()[name]
        u = self.fields(np.random.default_rng(33), 3)
        dt = np.array([[bound(row)] for row in u])
        step(u, dt)  # every row at its own bound
        dt[2] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="of row 2 violates the CFL bound"):
            step(u, dt)

    def test_an_engquist_osher_slow_row_takes_a_step_its_fast_neighbour_may_not(self):
        grid = self.GRID
        u = np.stack([np.full(grid.n_cells, 0.25), np.full(grid.n_cells, 2.0)])
        slow, fast = (burgers_cfl(grid.dx, v, safety=1.0) for v in (0.25, 2.0))
        out = step_macroscopic_burgers(u, np.array([[slow], [fast]]), grid)
        assert np.array_equal(out[0], step_macroscopic_burgers(u[0], slow, grid))
        # one float step for both rows is held to the fast row's bound
        with pytest.raises(ValueError, match=f"dt={slow:g} violates the CFL bound for the "
                                             "macroscopic step"):
            step_macroscopic_burgers(u, slow, grid)
        with pytest.raises(ValueError, match="of row 1 violates"):
            step_macroscopic_burgers(u, np.array([[slow], [slow]]), grid)

    @pytest.mark.parametrize("name, text", [
        ("linear", "linear"), ("engquist_osher", "macroscopic"), ("collapse", "collapsed")])
    def test_float_call_texts_are_unchanged(self, name, text):
        step, bound = self.steps()[name]
        u = self.fields(np.random.default_rng(34), 2)
        for dt in (-1e-3, math.nan, 2.0 * bound(u)):
            with pytest.raises(ValueError) as raised:
                step(u, dt)
            assert str(raised.value) == f"dt={dt:g} violates the CFL bound for the {text} step"
