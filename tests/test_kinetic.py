import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from kinassim.kinetic import (
    GRAVITY as G,
    UPWIND_SIDES,
    ChiProfile,
    _run,
    _upwind_moments,
    chi_cube_integral,
    chi_indicator,
    halfline_energy_moment,
    upwind_mass_momentum,
    upwind_power_moment,
)
from oracles import binomial_upwind_moments, chi_profile_value

PROFILES = [ChiProfile.RECTANGLE, ChiProfile.SEMICIRCLE]


def quad_profile(profile, fn, lo, hi):
    val, _ = quad(lambda z: fn(z) * chi_profile_value(profile, z), lo, hi,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


class TestChiProfiles:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_unit_moments(self, profile):
        w = profile.support_halfwidth
        assert abs(quad_profile(profile, lambda z: 1.0, -w, w) - 1.0) < 1e-12
        assert abs(quad_profile(profile, lambda z: z * z, -w, w) - 1.0) < 1e-12

    @pytest.mark.parametrize("profile", PROFILES)
    def test_even_nonnegative_compact(self, profile):
        w = profile.support_halfwidth
        z = np.linspace(-w, w, 257)
        vals = chi_profile_value(profile, z)
        assert np.all(vals >= 0.0)
        np.testing.assert_allclose(vals, chi_profile_value(profile, -z))
        assert chi_profile_value(profile, w + 0.1) == 0.0
        assert chi_profile_value(profile, -w - 0.1) == 0.0

    def test_pointwise_values(self):
        assert chi_profile_value(ChiProfile.RECTANGLE, 0.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(3.0)), abs=1e-15
        )
        assert chi_profile_value(ChiProfile.SEMICIRCLE, 0.0) == pytest.approx(
            1.0 / math.pi, abs=1e-15
        )
        assert chi_profile_value(ChiProfile.SEMICIRCLE, 3.0) == 0.0

    @pytest.mark.parametrize(
        "profile,expected",
        [(ChiProfile.RECTANGLE, 1.0 / 12.0), (ChiProfile.SEMICIRCLE, 3.0 / (4.0 * math.pi**2))],
    )
    def test_cube_integral_against_quadrature(self, profile, expected):
        w = profile.support_halfwidth
        oracle, _ = quad(lambda z: chi_profile_value(profile, z) ** 3, -w, w,
                         limit=200, epsabs=1e-13)
        assert chi_cube_integral(profile) == pytest.approx(expected, rel=1e-12)
        assert chi_cube_integral(profile) == pytest.approx(oracle, rel=1e-10)
        assert chi_cube_integral(profile) > 0.0


class TestChiIndicator:
    def test_signed_values(self):
        assert chi_indicator(0.5, 1.0) == 1.0
        assert chi_indicator(-0.5, -1.0) == -1.0
        assert chi_indicator(2.0, 1.0) == 0.0
        assert chi_indicator(0.0, 1.0) == 0.0  # open at the endpoints

    @pytest.mark.parametrize("u", [0.8, -1.3, 2.5])
    def test_midpoint_integral_first_order(self, u):
        # midpoint-rule integral of the indicator converges to u at O(dxi)
        errors = []
        for n in (64, 128, 256, 512):
            lo, hi = min(0.0, u) - 0.5, max(0.0, u) + 0.5
            dxi = (hi - lo) / n
            nodes = lo + (np.arange(n) + 0.5) * dxi
            integral = float(np.sum(chi_indicator(nodes, u)) * dxi)
            errors.append(abs(integral - u))
        for e, dxi in zip(errors, [(abs(u) + 1.0) / n for n in (64, 128, 256, 512)]):
            assert e <= 1.5 * dxi


# xi >= 0 and xi <= 0: summed, the two half-line moments of a column are its
# full-line moment
BOTH_SIDES = np.array([True, False])


class TestGibbsMoments:
    def test_still_unit_column_rectangle(self):
        c = math.sqrt(G / 2.0)
        mass, mom = (
            upwind_power_moment(ChiProfile.RECTANGLE, 1.0, 0.0, c, k, BOTH_SIDES).sum()
            for k in (0, 1)
        )
        assert mass == 1.0 and mom == 0.0

    def test_dry_column(self):
        profile = ChiProfile.SEMICIRCLE
        for power in (0, 1, 2):
            got = upwind_power_moment(profile, 0.0, 5.0, 0.0, power, BOTH_SIDES)
            np.testing.assert_array_equal(got, 0.0)
        np.testing.assert_array_equal(halfline_energy_moment(profile, 0.0, 5.0, G, BOTH_SIDES), 0.0)

    def test_moving_column_semicircle(self):
        c = math.sqrt(G * 2.0 / 2.0)
        mass, mom = (
            upwind_power_moment(ChiProfile.SEMICIRCLE, 2.0, 3.0, c, k, BOTH_SIDES).sum()
            for k in (0, 1)
        )
        assert (mass, mom) == (2.0, 6.0)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_moments_match_quadrature(self, profile):
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = rng.uniform(0.05, 10.0)
            u = rng.uniform(-5.0, 5.0)
            c, w = math.sqrt(G * h / 2.0), profile.support_halfwidth

            def density(xi):
                return h / c * chi_profile_value(profile, (xi - u) / c)

            lo, hi = u - w * c, u + w * c
            mass_q, _ = quad(density, lo, hi, limit=200)
            mom_q, _ = quad(lambda xi: xi * density(xi), lo, hi, limit=200)
            mass, mom = (
                upwind_power_moment(profile, h, u, c, k, BOTH_SIDES).sum() for k in (0, 1)
            )
            assert mass == pytest.approx(mass_q, rel=1e-9)
            assert mom == pytest.approx(mom_q, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_closed_form_identity(self, profile):
        # the two half-line energy moments sum to the Saint-Venant energy
        # flux u (h u^2 / 2 + g h^2)
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = rng.uniform(0.0, 10.0)
            u = rng.uniform(-5.0, 5.0)
            flux = halfline_energy_moment(profile, h, u, G, BOTH_SIDES).sum()
            expected = u * (0.5 * h * u * u + G * h * h)
            assert flux == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestHalflineFluxMoments:
    def test_still_rectangle_positive_side(self):
        c = math.sqrt(G / 2.0)
        expected = c * math.sqrt(3.0) / 4.0
        got = upwind_power_moment(ChiProfile.RECTANGLE, 1.0, 0.0, c, 1, True)
        assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_still_sides_cancel(self, profile):
        c = math.sqrt(G / 2.0)
        total = upwind_power_moment(profile, 1.0, 0.0, c, 1, BOTH_SIDES).sum()
        assert total == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_supercritical_full_support(self, profile):
        h = 1.0
        c = math.sqrt(G * h / 2.0)
        u = 10.0 * c
        got = upwind_power_moment(profile, h, u, c, 1, True)
        assert got == pytest.approx(h * u, rel=1e-13)
        assert upwind_power_moment(profile, h, u, c, 1, False) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_side_sums_are_full_moments(self, profile):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h = rng.uniform(0.01, 10.0)
            u = rng.uniform(-5.0, 5.0)
            c = math.sqrt(G * h / 2.0)
            s1, s2 = (m.sum() for m in upwind_mass_momentum(profile, h, u, c, BOTH_SIDES))
            assert s1 == pytest.approx(h * u, rel=1e-10, abs=1e-12)
            assert s2 == pytest.approx(h * u * u + G * h * h / 2.0, rel=1e-10)

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("power", [1, 2])
    def test_against_quadrature(self, profile, power):
        rng = np.random.default_rng(5)
        for _ in range(5):
            h = rng.uniform(0.05, 5.0)
            u = rng.uniform(-4.0, 4.0)
            c, w = math.sqrt(G * h / 2.0), profile.support_halfwidth
            hi = u + w * c
            oracle, _ = quad(
                lambda xi: xi**power * h / c * chi_profile_value(profile, (xi - u) / c),
                0.0,
                max(hi, 0.0),
                limit=300,
            )
            got = upwind_power_moment(profile, h, u, c, power, True)
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_dry_fluxes_vanish(self):
        profile = ChiProfile.SEMICIRCLE
        assert upwind_power_moment(profile, 0.0, 0.0, 0.0, 1, True) == 0.0
        assert halfline_energy_moment(profile, 0.0, 0.0, G, True) == 0.0


class TestHalflineEnergyFlux:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_against_quadrature(self, profile):
        # e(f) integrated as written, chi^3 and all, over the part of the
        # support on each half-line; the last entries lie wholly on one side
        # of xi = 0 (|u| > w c, the bound -u/c clipped)
        rng = np.random.default_rng(13)
        k3 = chi_cube_integral(profile)
        w = profile.support_halfwidth
        draws = [(rng.uniform(0.05, 5.0), rng.uniform(-4.0, 4.0)) for _ in range(5)]
        draws += [(h, sign * 1.5 * w * math.sqrt(G * h / 2.0))
                  for h in (0.3, 2.0) for sign in (1.0, -1.0)]
        for (h, u), positive in itertools.product(draws, (True, False)):
            c = math.sqrt(G * h / 2.0)

            def integrand(xi):
                f = h / c * chi_profile_value(profile, (xi - u) / c)
                return xi * (0.5 * xi * xi * f + G**2 / (8.0 * k3) * f**3)

            side = max if positive else min  # the support's part on the half-line
            lo, hi = (side(b, 0.0) for b in (u - w * c, u + w * c))
            oracle = quad(integrand, lo, hi, limit=300)[0] if hi > lo else 0.0
            got = halfline_energy_moment(profile, h, u, G, positive)
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_half_lines_sum_to_the_full_flux(self, profile):
        # entry by entry, on depths from 1e-14 to 10 with dry and clipped
        # entries and the side drawn per entry: u (h u^2 / 2 + g h^2)
        h, u, c = random_interfaces(profile)
        positive = np.random.default_rng(4).random(h.size) < 0.5
        with np.errstate(all="raise"):
            total = (halfline_energy_moment(profile, h, u, G, positive)
                     + halfline_energy_moment(profile, h, u, G, ~positive))
        scale = h * (np.abs(u) + profile.support_halfwidth * c) ** 3
        assert np.all(np.abs(total - (0.5 * h * u**3 + G * h * h * u)) <= 1e-14 * scale)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_still_fluxes_cancel(self, profile):
        total = halfline_energy_moment(profile, 2.0, 0.0, G, BOTH_SIDES).sum()
        assert total == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_stacked_sides_equal_separate_sides(self, profile):
        h, u, _ = interface_arrays(profile, n=300)
        h, u = h.reshape(2, -1), u.reshape(2, -1)
        stacked = halfline_energy_moment(profile, h, u, G, np.array([[True], [False]]))
        for row, positive in enumerate((True, False)):
            single = halfline_energy_moment(profile, h[row], u[row], G, positive)
            np.testing.assert_array_equal(stacked[row], single)


def interface_arrays(profile, n=400, seed=21):
    """Interface depths and velocities with dry entries, entries clipped at
    the support edge (|u|/c > w) and velocities of both signs."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.0, 2.0, n)
    h[rng.random(n) < 0.15] = 0.0
    c = np.sqrt(9.81 * h / 2.0)
    w = profile.support_halfwidth
    u = rng.uniform(-1.5, 1.5, n) * w * c
    u[::7] = 0.0
    u[h == 0.0] = rng.uniform(-1.0, 1.0, np.count_nonzero(h == 0.0))
    return h, u, c


class TestUpwindMassMomentum:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("positive", [True, False])
    def test_equals_single_power_moments(self, profile, positive):
        h, u, c = interface_arrays(profile)
        w = profile.support_halfwidth
        wet = h > 0.0
        # the fixture covers every regime of the closed forms
        assert np.any(~wet)
        assert np.any(wet & (np.abs(u) > w * c)) and np.any(wet & (np.abs(u) < w * c))
        assert np.any(wet & (u > 0.0)) and np.any(wet & (u < 0.0))
        mass, momentum = upwind_mass_momentum(profile, h, u, c, positive)
        np.testing.assert_array_equal(
            mass, upwind_power_moment(profile, h, u, c, 1, positive)
        )
        np.testing.assert_array_equal(
            momentum, upwind_power_moment(profile, h, u, c, 2, positive)
        )

    @pytest.mark.parametrize("profile", PROFILES)
    def test_stacked_sides_equal_separate_sides(self, profile):
        h, u, c = interface_arrays(profile, n=300)
        side = np.array([[True], [False]])
        stacked = upwind_mass_momentum(
            profile, h.reshape(2, -1), u.reshape(2, -1), c.reshape(2, -1), side
        )
        # the kernel bound once to its arrays, as a Saint-Venant step binds
        # it, and run twice: first on other values, then on these
        arrays = [np.empty((2, 150)) for _ in range(3)]
        calls, bound = _upwind_moments(profile, *arrays, (1, 2), UPWIND_SIDES)
        for values in ((h[::-1], u[::-1], c[::-1]), (h, u, c)):
            for array, value in zip(arrays, values):
                array[...] = value.reshape(2, -1)
            _run(calls)
        for row, positive in enumerate((True, False)):
            single = upwind_mass_momentum(
                profile, h.reshape(2, -1)[row], u.reshape(2, -1)[row],
                c.reshape(2, -1)[row], positive,
            )
            for got, kernel, want in zip(stacked, bound, single):
                np.testing.assert_array_equal(got[row], want)
                np.testing.assert_array_equal(kernel[row], want)


def random_interfaces(profile, n=2400, seed=16):
    """Interface states: a tenth dry (c = 0, any velocity), depths from 1e-14
    to 10, |u| from 0 to 3 w c of both signs, some exact zeros."""
    rng = np.random.default_rng(seed)
    h = 10.0 ** rng.uniform(-14.0, 1.0, n)
    h[rng.random(n) < 0.1] = 0.0
    c = np.sqrt(G * h / 2.0)
    u = rng.uniform(-3.0, 3.0, n) * profile.support_halfwidth * c
    u[::11] = 0.0
    dry = h == 0.0
    u[dry] = rng.uniform(-2.0, 2.0, np.count_nonzero(dry))
    return h, u, c


class TestAgainstBinomialOracle:
    """The moment recurrence against the term-by-term binomial sum."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_powers_and_sides(self, profile):
        h, u, c = random_interfaces(profile)
        n, w = h.size, profile.support_halfwidth
        assert np.count_nonzero(h == 0.0) >= n // 20 and h[h > 0.0].min() < 1e-13
        mixed = np.random.default_rng(3).random(n) < 0.5
        for positive in (True, False, mixed):
            with np.errstate(all="raise"):
                got = [upwind_power_moment(profile, h, u, c, k, positive) for k in range(4)]
                got.append(upwind_mass_momentum(profile, h, u, c, positive))
            want = binomial_upwind_moments(profile, h, u, c, range(4), positive)
            for k in range(4):
                scale = h * (np.abs(u) + w * c) ** k
                assert np.all(np.abs(got[k] - want[k]) <= 1e-14 * scale), (k, positive)
                np.testing.assert_array_equal(got[k][h == 0.0], 0.0)
            np.testing.assert_array_equal(got[4][0], got[1])
            np.testing.assert_array_equal(got[4][1], got[2])

    @pytest.mark.parametrize("profile", PROFILES)
    def test_row_sides(self, profile):
        # one side per row, as the Saint-Venant step asks
        h, u, c = (a.reshape(2, -1) for a in random_interfaces(profile, seed=17))
        side = np.array([[True], [False]])
        with np.errstate(all="raise"):
            got = upwind_mass_momentum(profile, h, u, c, side)
        want = binomial_upwind_moments(profile, h, u, c, (1, 2), side)
        for k, got_k, want_k in zip((1, 2), got, want):
            scale = h * (np.abs(u) + profile.support_halfwidth * c) ** k
            assert np.all(np.abs(got_k - want_k) <= 1e-14 * scale)
            np.testing.assert_array_equal(got_k[h == 0.0], 0.0)
