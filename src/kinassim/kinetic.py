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
``upwind_power_moment`` and ``upwind_mass_momentum`` give the moments P_k of
xi^k M, ``halfline_energy_moment`` that of xi e(M), a combination of P_1,
P_2 and P_3.  A boolean array selects the half-line entry by entry, so both
sides of every interface go through one call.  The moments are closed forms
(polynomial for the rectangle, trigonometric for the semicircle), so fluxes
are bit-stable and independent of any xi discretisation.  One kernel
evaluates them all: the moment of xi^k M over xi >= 0 is H times the sum
over j of C(k, j) u^(k-j) c^j J_j, J_j the moment of z^j chi over [-u/c, w].
J_0..J_kmax are computed once, by products (no ``pow``), and complemented
(J_full - J) for xi <= 0; the recurrence T_j <- u T_j + c T_(j+1) then gives
power k as H T_0 after k rounds.
"""
from __future__ import annotations

import enum
import functools
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
# J_k(a) = integral over z in [a, w] of z^k chi(z) dz   (k = 0..3); the
# complement over [-w, a] follows from the full-line values (1, 0, 1, 0).

_J_FULL = (1.0, 0.0, 1.0, 0.0)


def _fresh_buffers(*arrays):
    """Supplier of fresh float arrays of the broadcast shape of ``arrays``:
    the buffers of a call that is not given a step's work buffers."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    return lambda: np.empty(shape)


# The partial moments of the profiles at the bound a = -ratio, j = 0..kmax,
# written into the rows of ``out`` (row j as out[j, ...]: an array even for
# one interface); the intermediates overwrite ``ratio`` or take buffers from
# ``take``.


def _rectangle_partial(ratio, kmax: int, take, out):
    # (w^(k+1) - a^(k+1)) / (2 w (k+1)), the powers of a as a running product
    w = math.sqrt(3.0)
    r = 1.0 / (2.0 * w)
    a = np.negative(ratio, out=ratio)
    np.maximum(a, -w, out=a)
    np.minimum(a, w, out=a)
    power = a
    for k in range(kmax + 1):
        if k:
            power = np.multiply(power, a, out=take() if k == 1 else power)
        j = np.subtract(w ** (k + 1), power, out=out[k, ...])
        np.multiply(r / (k + 1), j, out=j)


def _semicircle_partial(ratio, kmax: int, take, out):
    # z = 2 sin(th): with s = sin(th) and c = cos(th) (c >= 0 on the clipped
    # range), sin(2 th)/2 = s c and sin(4 th)/4 = s c cos(2 th) = s c (1 - 2 s^2);
    # cos^3 and cos^5 are products of c^2 = 1 - s^2 and c
    s = np.multiply(ratio, -0.5, out=ratio)  # a / 2; halving is exact
    np.maximum(s, -1.0, out=s)
    np.minimum(s, 1.0, out=s)
    rest = np.arccos(s, out=take())  # angle from the bound to the end of the support
    s2 = np.multiply(s, s, out=take())
    c2 = np.subtract(1.0, s2, out=take())
    c = np.sqrt(c2, out=take())
    sc = np.multiply(s, c, out=s)
    j0 = np.subtract(rest, sc, out=out[0, ...])
    np.divide(j0, math.pi, out=j0)
    if kmax >= 1:
        c3 = np.multiply(c2, c, out=c)
        np.multiply(4.0 / (3.0 * math.pi), c3, out=out[1, ...])
    if kmax >= 2:
        j2 = np.subtract(c2, s2, out=s2)  # 1 - 2 s^2
        np.multiply(sc, j2, out=j2)
        np.add(rest, j2, out=j2)
        np.divide(j2, math.pi, out=out[2, ...])
    if kmax >= 3:
        c5 = np.multiply(c3, c2, out=c2)
        np.divide(c5, 5.0, out=c5)
        j3 = np.divide(c3, 3.0, out=c3)
        np.subtract(j3, c5, out=j3)
        np.multiply(16.0 / math.pi, j3, out=out[3, ...])


_PARTIAL = {ChiProfile.RECTANGLE: _rectangle_partial, ChiProfile.SEMICIRCLE: _semicircle_partial}


# Both sides of every interface in one stack: row 0 on the positive
# half-line, row 1 on the negative one (the upwind split of a flux).
UPWIND_SIDES = np.array([[True], [False]])


@functools.cache
def _full(m: int, ndim: int) -> np.ndarray:
    """J_0..J_(m-1) over the whole support, shaped to broadcast against an
    (m, ...) stack of ``ndim`` dimensions (read-only: every call shares it)."""
    full = np.array(_J_FULL[:m]).reshape((m,) + (1,) * (ndim - 1))
    full.flags.writeable = False
    return full


def _complement(terms, positive):
    """J_full - J where ``positive`` is False, on the (m, ...) stack of
    partial moments J_0..J_(m-1): the negative half-line's.
    ``UPWIND_SIDES`` complements row 1 of every J and a plain bool all of
    them or none, without looking at the mask; any array mask goes through
    a masked subtract."""
    if positive is UPWIND_SIDES:
        parts = [terms[:, 1]]
    elif isinstance(positive, bool):
        parts = [] if positive else [terms]
    else:
        np.subtract(_full(len(terms), terms.ndim), terms, out=terms,
                    where=np.logical_not(positive))
        return
    for part in parts:
        np.subtract(_full(len(part), part.ndim), part, out=part)


def _upwind_moments(profile: ChiProfile, h, u, c, powers, positive, take=None, terms=None):
    """[H * integral of (u + z c)^k chi(z) dz over a half-line, for k in powers].

    The partial moments J_0..J_max(powers) are evaluated once and shared by
    every power.  ``positive`` selects xi >= 0 (True) or xi <= 0 (False); a
    boolean array broadcasting against h selects the side entry by entry, and
    ``UPWIND_SIDES`` xi >= 0 on row 0 and xi <= 0 on row 1 of any stack.
    The sums over j of C(k, j) u^(k-j) c^j J_j come from the recurrence
    T_j <- u T_j + c T_(j+1), started at T_j = J_j: after k rounds T_0 is
    power k's.  The J_j are the rows of one stack, so a round updates all of
    them in three calls.  Dry entries (h = 0) get c = 1, where every term is
    finite, and the factor h zeroes them.

    ``take`` supplies the buffers of every intermediate and result (a step's
    work buffers, of the broadcast shape), ``c`` among them: the call
    overwrites it, and h and u must then be float arrays, h of c's shape.  ``terms`` is then
    a (2 max(powers) + 1, ...) buffer of that shape for the recurrence.  By
    default the buffers are fresh and ``c`` is copied.
    """
    kmax = max(powers)
    if take is None:
        u = np.asarray(u, dtype=float)
        take = _fresh_buffers(h, u, c, positive)
        c = np.positive(c, out=take())  # a copy to overwrite
        h = np.broadcast_to(np.asarray(h, dtype=float), c.shape)  # as the mask of c
        terms = np.empty((2 * kmax + 1,) + c.shape)
    np.putmask(c, h <= 0.0, 1.0)
    m = kmax + 1
    t, scratch = terms[:m], terms[m:]
    _PARTIAL[profile](np.divide(u, c, out=take()), kmax, take, t)
    _complement(t, positive)
    out = []
    for k in range(m):
        if k:  # T_j <- u T_j + c T_(j+1), j < m - k, from the T_(j+1) before the round
            r = m - k
            term = np.multiply(c, t[1:r + 1], out=scratch[:r])
            np.multiply(u, t[:r], out=t[:r])
            np.add(t[:r], term, out=t[:r])
        if k in powers:
            out.append(np.multiply(h, t[0, ...], out=t[0, ...] if k == kmax else take()))
    return out


def upwind_power_moment(profile: ChiProfile, h, u, c, power: int, positive: bool):
    """H * integral of (u + z c)^power chi(z) dz over the half-line xi >= 0
    (``positive``) or xi <= 0, vectorised over interface arrays.

    The integration bound z = -u/c is counted on the positive side; the choice
    is measure-zero and only fixes the clipped closed forms.  Dry entries
    (h = 0) contribute zero; c may hold any placeholder value there.
    """
    return _upwind_moments(profile, h, u, c, (power,), positive)[0]


def upwind_mass_momentum(profile: ChiProfile, h, u, c, positive, *, take=None, terms=None):
    """``upwind_power_moment`` at powers 1 and 2 (the mass and momentum
    fluxes of one interface side) from one partial-moment evaluation.

    ``positive`` may be a boolean array, so both sides of every interface
    can be evaluated in one call on stacked arrays.  ``take`` supplies the
    buffers, ``c`` among them, and ``terms`` a (5, ...) buffer, as in
    ``_upwind_moments``.
    """
    return tuple(_upwind_moments(profile, h, u, c, (1, 2), positive, take, terms))


def halfline_energy_moment(profile: ChiProfile, h, u, g: float, positive):
    """Half-line moment of xi * e(M) for Gibbs densities, vectorised over
    interface arrays, where e(f) = xi^2/2 f + g^2/(8 k3) f^3.

    This is the kinetic energy flux carried by particles of one sign of xi.
    Since chi^2 is 1/12 on the rectangle and (4 - z^2)/(4 pi^2) on the
    semicircle, chi^3 = chi^2 chi makes the cube term a moment of M itself:
    with c^2 = g H/2 and P_k the half-line moment of xi^k M, the flux is
    P_3/2 + c^2 P_1/2 (rectangle) or (P_3 + u P_2)/3 + (2c^2/3 - u^2/6) P_1
    (semicircle), the P_k from one ``_upwind_moments`` evaluation.
    ``positive`` selects the half-line as in ``upwind_mass_momentum``: a
    boolean array broadcasting against h selects it entry by entry.  Dry
    entries (h = 0) contribute zero.
    """
    h = np.asarray(h, dtype=float)
    u = np.asarray(u, dtype=float)
    c2 = 0.5 * g * h
    p1, p2, p3 = _upwind_moments(profile, h, u, np.sqrt(c2), (1, 2, 3), positive)
    if profile is ChiProfile.RECTANGLE:
        return 0.5 * (p3 + c2 * p1)
    return (p3 + u * p2) / 3.0 + (2.0 * c2 / 3.0 - u * u / 6.0) * p1
