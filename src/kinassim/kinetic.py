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

The kernel (``_upwind_moments``) is bound to arrays of one shape: it
allocates its buffers and returns the numpy calls of one evaluation on
fixed views of them, with the arrays the moments land in.  A Saint-Venant
step binds it once and makes its calls on every step; the public functions
bind it to fresh buffers on each call (``_evaluate``).
"""
from __future__ import annotations

import enum
import functools
import math
from functools import partial

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


def _run(calls) -> None:
    """Make the numpy calls of a bound kernel or step, in order."""
    for call in calls:
        call()


def _scalar(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float array, for a bound call: a ufunc
    takes it faster than a Python float, and computes the same bits."""
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


# The calls that write the partial moments of the profiles at the bound
# a = -ratio, j = 0..kmax, into the rows of ``out`` (row j as out[j, ...]: an
# array even for one interface); the intermediates overwrite ``ratio`` or
# take buffers from ``spare``.


def _rectangle_partial(ratio, kmax: int, spare, out) -> list:
    # (w^(k+1) - a^(k+1)) / (2 w (k+1)), the powers of a as a running product
    w = math.sqrt(3.0)
    r = 1.0 / (2.0 * w)
    a = power = ratio
    calls = [partial(np.negative, ratio, a), partial(np.maximum, a, _scalar(-w), out=a),
             partial(np.minimum, a, _scalar(w), out=a)]
    for k in range(kmax + 1):
        if k == 1:
            power = spare()
            calls.append(partial(np.multiply, a, a, power))
        elif k:
            calls.append(partial(np.multiply, power, a, power))
        j = out[k, ...]
        calls += [partial(np.subtract, _scalar(w ** (k + 1)), power, j),
                  partial(np.multiply, _scalar(r / (k + 1)), j, j)]
    return calls


def _semicircle_partial(ratio, kmax: int, spare, out) -> list:
    # z = 2 sin(th): with s = sin(th) and c = cos(th) (c >= 0 on the clipped
    # range), sin(2 th)/2 = s c and sin(4 th)/4 = s c cos(2 th) = s c (1 - 2 s^2);
    # cos^3 and cos^5 are products of c^2 = 1 - s^2 and c
    s = sc = ratio  # a / 2 (halving is exact), then s c
    rest, s2, c2, c = spare(), spare(), spare(), spare()  # rest: angle from the bound to the end
    j0, one, pi = out[0, ...], _scalar(1.0), _scalar(math.pi)
    calls = [partial(np.multiply, ratio, _scalar(-0.5), s),
             partial(np.maximum, s, _scalar(-1.0), out=s), partial(np.minimum, s, one, out=s),
             partial(np.arccos, s, rest), partial(np.multiply, s, s, s2),
             partial(np.subtract, one, s2, c2), partial(np.sqrt, c2, c),
             partial(np.multiply, s, c, sc), partial(np.subtract, rest, sc, j0),
             partial(np.divide, j0, pi, j0)]
    c3 = c
    if kmax >= 1:
        calls += [partial(np.multiply, c2, c, c3),
                  partial(np.multiply, _scalar(4.0 / (3.0 * math.pi)), c3, out[1, ...])]
    if kmax >= 2:
        j2 = s2
        calls += [partial(np.subtract, c2, s2, j2),  # 1 - 2 s^2
                  partial(np.multiply, sc, j2, j2), partial(np.add, rest, j2, j2),
                  partial(np.divide, j2, pi, out[2, ...])]
    if kmax >= 3:
        c5, j3 = c2, c3
        calls += [partial(np.multiply, c3, c2, c5), partial(np.divide, c5, _scalar(5.0), c5),
                  partial(np.divide, c3, _scalar(3.0), j3), partial(np.subtract, j3, c5, j3),
                  partial(np.multiply, _scalar(16.0 / math.pi), j3, out[3, ...])]
    return calls


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


def _complement(terms, positive) -> list:
    """The calls that write J_full - J where ``positive`` is False, on the
    (m, ...) stack of partial moments J_0..J_(m-1): the negative half-line's.
    ``UPWIND_SIDES`` complements row 1 of every J and a plain bool all of
    them or none, without looking at the mask; any array mask goes through
    a masked subtract."""
    if positive is UPWIND_SIDES:
        part = terms[:, 1]
    elif isinstance(positive, bool):
        if positive:
            return []
        part = terms
    else:
        return [partial(np.subtract, _full(len(terms), terms.ndim), terms, terms,
                        where=np.logical_not(positive))]
    return [partial(np.subtract, _full(len(part), part.ndim), part, part)]


def _upwind_moments(profile: ChiProfile, h, u, c, powers, positive):
    """The kernel of [H * integral of (u + z c)^k chi(z) dz over a half-line,
    for k in powers], bound to the arrays h, u and c: (calls, moments).

    ``calls`` are the numpy calls of one evaluation, on views and buffers
    bound here, and ``moments`` the arrays they leave the moments in; each
    run of the calls (``_run``) reads h, u and c as they are then and
    overwrites c.  c is a float array of the kernel's shape, h a float array
    of that shape (a broadcast view will do) and u broadcasts against it.

    The partial moments J_0..J_max(powers) are evaluated once and shared by
    every power.  ``positive`` selects xi >= 0 (True) or xi <= 0 (False); a
    boolean array broadcasting against h selects the side entry by entry, and
    ``UPWIND_SIDES`` xi >= 0 on row 0 and xi <= 0 on row 1 of any stack.
    The sums over j of C(k, j) u^(k-j) c^j J_j come from the recurrence
    T_j <- u T_j + c T_(j+1), started at T_j = J_j: after k rounds T_0 is
    power k's.  A round updates T_0 first, so each T_(j+1) it reads is
    still the one before the round, and every operand of its calls has the
    kernel's shape (numpy's fast loop).  Dry entries (h = 0) get c = 1,
    where every term is finite, and the factor h zeroes them.
    """
    kmax = max(powers)
    m = kmax + 1

    def spare():
        return np.empty(c.shape)

    t, scratch = np.empty((m,) + c.shape), np.empty(c.shape)  # the recurrence's
    dry, ratio = np.empty(c.shape, dtype=bool), spare()
    calls = [partial(np.less_equal, h, _scalar(0.0), dry), partial(np.putmask, c, dry, 1.0),
             partial(np.divide, u, c, ratio)]
    calls += _PARTIAL[profile](ratio, kmax, spare, t)
    calls += _complement(t, positive)
    moments = []
    for k in range(m):
        for j in range(m - k if k else 0):  # round k: T_j for j < m - k
            row, below = t[j, ...], t[j + 1, ...]
            calls += [partial(np.multiply, c, below, scratch),
                      partial(np.multiply, u, row, row), partial(np.add, row, scratch, row)]
        if k in powers:
            moment = t[0, ...] if k == kmax else spare()
            calls.append(partial(np.multiply, h, t[0, ...], moment))
            moments.append(moment)
    return tuple(calls), moments


def _evaluate(profile: ChiProfile, h, u, c, powers, positive) -> list:
    """The moments of ``_upwind_moments`` for one call: the kernel bound to
    fresh buffers of the broadcast shape, c copied and h broadcast to it."""
    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(np.shape(h), u.shape, np.shape(c), np.shape(positive))
    c = np.positive(c, out=np.empty(shape))  # a copy to overwrite
    h = np.broadcast_to(np.asarray(h, dtype=float), shape)
    calls, moments = _upwind_moments(profile, h, u, c, powers, positive)
    _run(calls)
    return moments


def upwind_power_moment(profile: ChiProfile, h, u, c, power: int, positive: bool):
    """H * integral of (u + z c)^power chi(z) dz over the half-line xi >= 0
    (``positive``) or xi <= 0, vectorised over interface arrays.

    The integration bound z = -u/c is counted on the positive side; the choice
    is measure-zero and only fixes the clipped closed forms.  Dry entries
    (h = 0) contribute zero; c may hold any placeholder value there.
    """
    return _evaluate(profile, h, u, c, (power,), positive)[0]


def upwind_mass_momentum(profile: ChiProfile, h, u, c, positive):
    """``upwind_power_moment`` at powers 1 and 2 (the mass and momentum
    fluxes of one interface side) from one partial-moment evaluation.

    ``positive`` may be a boolean array, so both sides of every interface
    can be evaluated in one call on stacked arrays.
    """
    return tuple(_evaluate(profile, h, u, c, (1, 2), positive))


def halfline_energy_moment(profile: ChiProfile, h, u, g: float, positive):
    """Half-line moment of xi * e(M) for Gibbs densities, vectorised over
    interface arrays, where e(f) = xi^2/2 f + g^2/(8 k3) f^3.

    This is the kinetic energy flux carried by particles of one sign of xi.
    Since chi^2 is 1/12 on the rectangle and (4 - z^2)/(4 pi^2) on the
    semicircle, chi^3 = chi^2 chi makes the cube term a moment of M itself:
    with c^2 = g H/2 and P_k the half-line moment of xi^k M, the flux is
    P_3/2 + c^2 P_1/2 (rectangle) or (P_3 + u P_2)/3 + (2c^2/3 - u^2/6) P_1
    (semicircle), the P_k from one evaluation of the kernel.
    ``positive`` selects the half-line as in ``upwind_mass_momentum``: a
    boolean array broadcasting against h selects it entry by entry.  Dry
    entries (h = 0) contribute zero.
    """
    h = np.asarray(h, dtype=float)
    u = np.asarray(u, dtype=float)
    c2 = 0.5 * g * h
    p1, p2, p3 = _evaluate(profile, h, u, np.sqrt(c2), (1, 2, 3), positive)
    if profile is ChiProfile.RECTANGLE:
        return 0.5 * (p3 + c2 * p1)
    return (p3 + u * p2) / 3.0 + (2.0 * c2 / 3.0 - u * u / 6.0) * p1
