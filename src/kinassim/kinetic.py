"""Kinetic building blocks: shape profiles and vectorised half-line moments.

A scalar value u is represented kinetically by the signed indicator
``chi_indicator(xi, u)`` (+1 between 0 and u, -1 between u and 0); the
Burgers lanes use its averages over the cells of a xi grid
(``XiGrid.indicator``), which integrate to u exactly.  A
shallow-water state (H, u) is represented by the Gibbs density

    M(xi) = (H / c) * chi((xi - u) / c),      c = sqrt(g * H / 2),

where ``chi`` is an even, nonnegative, compactly supported profile with unit
zeroth and second moments.  Two profiles are provided: a rectangle on
[-sqrt(3), sqrt(3)] and a semicircle on [-2, 2] (the minimiser of the kinetic
energy functional among densities with prescribed mass and momentum).

The finite-volume fluxes are half-line moments of these densities, taken over
xi >= 0 or xi <= 0 and evaluated on whole arrays of interfaces at once:
``upwind_power_moment`` and ``upwind_mass_momentum`` give the moments of
xi^k M, ``halfline_energy_moment`` that of xi e(M).  A boolean array selects
the half-line entry by entry, so both sides of every interface go through one
call.  The moments are closed forms (polynomial for the rectangle,
trigonometric for the semicircle), so fluxes are bit-stable and independent
of any xi discretisation.
"""
from __future__ import annotations

import enum
import math

import numpy as np

GRAVITY = 9.81


class ChiProfile(enum.Enum):
    """Kinetic shape function kind."""

    RECTANGLE = "rectangle"
    SEMICIRCLE = "semicircle"

    @property
    def support_halfwidth(self) -> float:
        return math.sqrt(3.0) if self is ChiProfile.RECTANGLE else 2.0


def chi_indicator(xi, u):
    """Signed indicator density of a scalar value u.

    Returns +1 for 0 < xi < u, -1 for u < xi < 0 and 0 otherwise; its
    xi-integral is u.  Accepts scalars or broadcastable arrays.
    """
    xi = np.asarray(xi, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.zeros(np.broadcast(xi, u).shape)
    out = np.where((xi > 0.0) & (xi < u), 1.0, out)
    out = np.where((xi < 0.0) & (xi > u), -1.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def chi_cube_integral(profile: ChiProfile) -> float:
    """Integral of chi^3 over the real line (closed form)."""
    if profile is ChiProfile.RECTANGLE:
        return 1.0 / 12.0
    return 3.0 / (4.0 * math.pi**2)


# --- partial moments of the profiles -------------------------------------
#
# J_k(a)  = integral over z in [a, w] of z^k chi(z) dz        (k = 0..3)
# K_k(a)  = integral over z in [a, w] of z^k chi(z)^3 dz       (k = 0, 1)
#
# Complements over [-w, a] follow from the full-line values
# (1, 0, 1, 0) for J and (k3, 0) for K.

_J_FULL = (1.0, 0.0, 1.0, 0.0)


def _fresh_buffers(*arrays):
    """Supplier of fresh float arrays of the broadcast shape of ``arrays``:
    the buffers of a call that is not given a step's work buffers."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    return lambda: np.empty(shape)


def _power(a, e: int, out):
    """a ** e into ``out``, through the ufunc the ``**`` operator picks."""
    if e == 1:
        return np.positive(a, out=out)
    if e == 2:
        return np.square(a, out=out)
    return np.power(a, e, out=out)


def _rectangle_partial(a, kmax: int, take):
    w = math.sqrt(3.0)
    r = 1.0 / (2.0 * w)
    a = np.clip(a, -w, w, out=take())
    out = []
    for k in range(kmax + 1):
        p = _power(a, k + 1, take())
        np.subtract(w ** (k + 1), p, out=p)
        np.multiply(r, p, out=p)
        out.append(np.divide(p, k + 1, out=p))
    return out


def _rectangle_partial_cube(a):
    w = math.sqrt(3.0)
    r3 = (1.0 / (2.0 * w)) ** 3
    a = np.clip(np.asarray(a, dtype=float), -w, w)
    return [r3 * (w - a), r3 * (w * w - a * a) / 2.0]


def _semicircle_partial(a, kmax: int, take):
    # z = 2 sin(th): with s = sin(th) and c = cos(th) (c >= 0 on the clipped
    # range), sin(2 th)/2 = s c and sin(4 th)/4 = s c cos(2 th) = s c (1 - 2 s^2)
    s = np.maximum(a, -2.0, out=take())
    np.minimum(s, 2.0, out=s)
    np.multiply(s, 0.5, out=s)  # halving by * 0.5 is exact
    rest = np.arcsin(s, out=take())
    s2 = np.multiply(s, s, out=take())
    c = np.subtract(1.0, s2, out=take())
    np.sqrt(c, out=c)
    np.subtract(0.5 * math.pi, rest, out=rest)  # angle from the bound to the end of the support
    sc = np.multiply(s, c, out=take())
    j0 = np.subtract(rest, sc, out=take())
    out = [np.divide(j0, math.pi, out=j0)]
    if kmax >= 1:
        c3 = _power(c, 3, take())
        out.append(np.multiply(4.0 / (3.0 * math.pi), c3, out=c3 if kmax < 3 else take()))
    if kmax >= 2:
        j2 = np.multiply(2.0, s2, out=s2)
        np.subtract(1.0, j2, out=j2)
        np.multiply(sc, j2, out=j2)
        np.add(rest, j2, out=j2)
        out.append(np.divide(j2, math.pi, out=j2))
    if kmax >= 3:
        j3 = np.divide(c3, 3.0, out=c3)
        c5 = _power(c, 5, take())
        np.divide(c5, 5.0, out=c5)
        np.subtract(j3, c5, out=j3)
        out.append(np.multiply(16.0 / math.pi, j3, out=j3))
    return out


def _semicircle_partial_cube(a):
    a = np.clip(np.asarray(a, dtype=float), -2.0, 2.0)
    th = np.arcsin(a / 2.0)
    s, c = a / 2.0, np.sqrt(np.maximum(1.0 - a * a / 4.0, 0.0))
    sin2 = 2.0 * s * c
    cos2 = 1.0 - 2.0 * s * s
    sin4 = 2.0 * sin2 * cos2
    k0 = 2.0 / math.pi**3 * (3.0 * math.pi / 16.0 - (3.0 * th / 8.0 + sin2 / 4.0 + sin4 / 32.0))
    k1 = 4.0 / (5.0 * math.pi**3) * c**5
    return [k0, k1]


_PARTIAL = {ChiProfile.RECTANGLE: _rectangle_partial, ChiProfile.SEMICIRCLE: _semicircle_partial}


def profile_partial_cube_moments(profile: ChiProfile, a):
    """Moments of z^k chi(z)^3 over [a, support end], k = 0, 1 (vectorised in a)."""
    if profile is ChiProfile.RECTANGLE:
        return _rectangle_partial_cube(a)
    return _semicircle_partial_cube(a)


_BINOM = {0: (1.0,), 1: (1.0, 1.0), 2: (1.0, 2.0, 1.0), 3: (1.0, 3.0, 3.0, 1.0)}


def _upwind_moments(profile: ChiProfile, h, u, c, powers, positive, take=None):
    """[H * integral of (u + z c)^k chi(z) dz over a half-line, for k in powers].

    The partial moments J_0..J_max(powers) are evaluated once and shared by
    every power.  ``positive`` selects xi >= 0 (True) or xi <= 0 (False); a
    boolean array broadcasting against h selects the side entry by entry.
    Each binomial term C(k, j) u^(k-j) c^j J_j is the left-to-right product
    with its unit factors (C = 1, u^0, c^0) left out, which is exact.

    ``take`` supplies the buffers every intermediate and result is written
    into (a Saint-Venant step's work buffers, of the broadcast shape); by
    default each is a fresh array.
    """
    h = np.asarray(h, dtype=float)
    u = np.asarray(u, dtype=float)
    take = take or _fresh_buffers(h, u, c, positive)
    wet = h > 0.0
    dry = ~wet
    safe_c = take()
    safe_c[...] = c
    np.copyto(safe_c, 1.0, where=dry)
    kmax = max(powers)
    a = np.negative(u, out=take())
    np.divide(a, safe_c, out=a)
    mom = _PARTIAL[profile](a, kmax, take)
    negative = np.logical_not(positive)
    for full, p in zip(_J_FULL, mom):  # the complement on the negative half-line
        np.subtract(full, p, out=p, where=negative)
    u_pow = [None, u] + [_power(u, i, take()) for i in range(2, kmax + 1)]
    c_pow = [None, safe_c] + [_power(safe_c, i, take()) for i in range(2, kmax + 1)]
    out, term = [], take()
    for k in powers:
        acc = take()
        for j, coeff in enumerate(_BINOM[k]):
            into = term if j else acc
            prefix = None
            for factor in (None if coeff == 1.0 else coeff, u_pow[k - j], c_pow[j]):
                if factor is not None:
                    prefix = factor if prefix is None else np.multiply(prefix, factor, out=into)
            if prefix is None:
                np.copyto(into, mom[j])
            else:
                np.multiply(prefix, mom[j], out=into)
            if j:
                np.add(acc, into, out=acc)
        np.multiply(h, acc, out=acc)
        np.copyto(acc, 0.0, where=dry)
        out.append(acc)
    return out


def upwind_power_moment(profile: ChiProfile, h, u, c, power: int, positive: bool):
    """H * integral of (u + z c)^power chi(z) dz over the half-line xi >= 0
    (``positive``) or xi <= 0, vectorised over interface arrays.

    The integration bound z = -u/c is counted on the positive side; the choice
    is measure-zero and only fixes the clipped closed forms.  Dry entries
    (h = 0) contribute zero; c may hold any placeholder value there.
    """
    return _upwind_moments(profile, h, u, c, (power,), positive)[0]


def upwind_mass_momentum(profile: ChiProfile, h, u, c, positive, *, take=None):
    """``upwind_power_moment`` at powers 1 and 2 (the mass and momentum
    fluxes of one interface side) from one partial-moment evaluation.

    ``positive`` may be a boolean array, so both sides of every interface
    can be evaluated in one call on stacked arrays.  ``take`` supplies the
    buffers as in ``_upwind_moments``; the default returns fresh arrays.
    """
    return tuple(_upwind_moments(profile, h, u, c, (1, 2), positive, take))


def halfline_energy_moment(profile: ChiProfile, h, u, g: float, positive):
    """Half-line moment of xi * e(M) for Gibbs densities, vectorised over
    interface arrays, where e(f) = xi^2/2 f + g^2/(8 k3) f^3.

    This is the kinetic energy flux carried by particles of one sign of xi.
    ``positive`` selects the half-line as in ``upwind_mass_momentum``: a
    boolean array broadcasting against h selects it entry by entry.  Dry
    entries (h = 0) contribute zero.
    """
    h = np.asarray(h, dtype=float)
    u = np.asarray(u, dtype=float)
    wet = h > 0.0
    c = np.sqrt(g * np.where(wet, h, 1.0) / 2.0)
    cubic = upwind_power_moment(profile, h, u, c, 3, positive)
    k0_part, k1_part = profile_partial_cube_moments(profile, -u / c)
    k3 = chi_cube_integral(profile)
    k0 = np.where(positive, k0_part, k3 - k0_part)
    k1 = np.where(positive, k1_part, -k1_part)
    kappa = g**2 / (8.0 * k3)
    cube_term = kappa * h**3 / c**2 * (u * k0 + c * k1)
    return np.where(wet, 0.5 * cubic + cube_term, 0.0)
