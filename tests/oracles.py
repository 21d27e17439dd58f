"""Closed-form oracles the tests check the library against.

They are independent of the solvers they check and are not part of the
library: ``exact_relaxation_solution`` is the representation formula of the
relaxation equation (scipy quadrature), ``chi_profile_value`` the pointwise
shape profile, ``noise_l2_closed_form`` the L2 norm of the oscillatory
observation noise, and ``dense_collapse_step`` the collapsed Burgers step
summed over dense arrays of cell-averaged indicators
(``cell_averaged_indicator``), ``relaxed`` a Burgers transport step's
output relaxed as a nudged lane relaxes it, and ``binomial_upwind_moments`` the
half-line moments of a Gibbs density summed term by term from the binomial
expansion, with libm ``pow`` and a masked complement on the negative
half-line.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from kinassim.burgers import KineticField, _relax
from kinassim.grid import BoundaryKind, Grid1D, XiGrid
from kinassim.kinetic import ChiProfile
from kinassim.observation import NoiseSpec


def exact_relaxation_solution(f0: KineticField, M, lam: float, t: float) -> KineticField:
    """Closed-form solution of  df/dt + xi df/dx = lam (M - f)  at time t.

    f(t, x, xi) = f0(x - xi t, xi) exp(-lam t)
                  + lam * integral_0^t exp(-lam s) M(t - s, x - xi s, xi) ds

    ``M`` is a callable M(t, x, xi); the memory integral is evaluated by
    adaptive quadrature (absolute/relative tolerance 1e-8).  f0 is looked up
    as a piecewise-constant cell field, wrapped periodically or extended by
    zero according to the grid's boundary kind.
    """
    grid, xig = f0.grid, f0.xi
    n, m = grid.n_cells, xig.n_xi
    centers, nodes = grid.centers, xig.nodes

    def lookup_f0(x: float, j: int) -> float:
        if grid.bc is BoundaryKind.PERIODIC:
            x = grid.x_min + (x - grid.x_min) % grid.length
        elif not (grid.x_min <= x <= grid.x_max):
            return 0.0
        idx = min(int((x - grid.x_min) / grid.dx), n - 1)
        return float(f0.values[idx, j])

    out = np.empty((n, m))
    decay = np.exp(-lam * t)
    for j in range(m):
        xi_j = nodes[j]
        for i in range(n):
            x_i = centers[i]
            base = lookup_f0(x_i - xi_j * t, j) * decay
            if lam > 0.0 and t > 0.0:
                mem, _ = quad(
                    lambda s: np.exp(-lam * s) * M(t - s, x_i - xi_j * s, xi_j),
                    0.0,
                    t,
                    epsabs=1e-8,
                    epsrel=1e-8,
                    limit=200,
                )
                base += lam * mem
            out[i, j] = base
    return replace(f0, values=out)


def relaxed(new, target, lam, dt):
    """The output ``new`` of a Burgers transport step (an array, or a
    KineticField whose values are relaxed) relaxed exactly toward ``target``
    over dt as ``_Lane.step`` composes them: ``burgers._relax`` on the gap
    target - new (NaN marks unobserved cells; target None leaves new as it
    is).  A kinetic target is a density, such as ``XiGrid.indicator`` of an
    observed field."""
    if isinstance(new, KineticField):
        return replace(new, values=relaxed(new.values, target, lam, dt))
    return _relax(new, None if target is None else target - new, lam, dt)


def chi_profile_value(profile: ChiProfile, z):
    """Pointwise value of the shape profile (zero outside its support)."""
    z = np.asarray(z, dtype=float)
    if profile is ChiProfile.RECTANGLE:
        w = math.sqrt(3.0)
        out = np.where(np.abs(z) <= w, 1.0 / (2.0 * w), 0.0)
    else:
        inside = 1.0 - z * z / 4.0
        out = np.where(np.abs(z) <= 2.0, np.sqrt(np.maximum(inside, 0.0)) / math.pi, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def noise_l2_closed_form(spec: NoiseSpec) -> float:
    """L2([0,1]) norm of the oscillatory noise, (eps^(r-a)/2) sqrt(2 + eps sin(2/eps))."""
    amp = spec.epsilon ** (spec.r - spec.alpha)
    return 0.5 * amp * math.sqrt(2.0 + spec.epsilon * math.sin(2.0 / spec.epsilon))


def cell_averaged_indicator(xi: XiGrid, u) -> np.ndarray:
    """(len(u), n_xi) averages of chi(., u) over the xi cells.

    chi(., u) is sign(u) on the interval between 0 and u, so its integral
    over a cell is sign(u) times the length of the cell's overlap with that
    interval; a value past the grid is cut off at its end.
    """
    edges = np.linspace(xi.xi_min, xi.xi_max, xi.n_xi + 1)
    u = np.asarray(u, dtype=float)[:, None]
    overlap = np.minimum(edges[1:], np.maximum(u, 0.0)) - np.maximum(edges[:-1], np.minimum(u, 0.0))
    return np.sign(u) * np.maximum(overlap, 0.0) / xi.dxi


def dense_collapse_step(u, obs_u, lam: float, dt: float, grid: Grid1D, xi: XiGrid) -> np.ndarray:
    """The collapse step as the xi-moment of a dense kinetic step from the
    cell-averaged indicator of u: upwind transport of the density of every
    node, then exact relaxation toward the cell-averaged indicator of obs_u
    (NaN marks unobserved cells).  The cell keeps its own value u as the base
    of the transport update, which is the moment of the indicator for u on
    the grid."""
    nodes, w = xi.nodes, xi.weights
    chi = cell_averaged_indicator(xi, u)
    if grid.bc is BoundaryKind.PERIODIC:
        chip = np.concatenate([chi[-1:], chi, chi[:1]])
    else:
        chip = np.concatenate([np.zeros((1, xi.n_xi)), chi, np.zeros((1, xi.n_xi))])
    flux = (np.where(nodes[None, :] >= 0.0, chip[:-1], chip[1:]) * nodes[None, :]) @ w
    new = u - (dt / grid.dx) * (flux[1:] - flux[:-1])
    if lam > 0.0 and obs_u is not None:
        observed = np.isfinite(obs_u)
        target = cell_averaged_indicator(xi, np.where(observed, obs_u, 0.0)) @ w
        new = np.where(observed, new + (1.0 - np.exp(-lam * dt)) * (target - new), new)
    return new


_BINOM = {0: (1.0,), 1: (1.0, 1.0), 2: (1.0, 2.0, 1.0), 3: (1.0, 3.0, 3.0, 1.0)}


def _oracle_partial_moments(profile: ChiProfile, a, kmax: int) -> list:
    """[integral of z^j chi(z) dz over [a, support end], j = 0..kmax], the
    powers through ``np.power``."""
    if profile is ChiProfile.RECTANGLE:
        w = math.sqrt(3.0)
        a = np.clip(a, -w, w)
        return [(1.0 / (2.0 * w)) * (w ** (k + 1) - np.power(a, k + 1)) / (k + 1)
                for k in range(kmax + 1)]
    s = np.clip(a, -2.0, 2.0) * 0.5
    rest = 0.5 * math.pi - np.arcsin(s)
    s2 = s * s
    c = np.sqrt(1.0 - s2)
    sc = s * c
    c3 = np.power(c, 3)
    return [
        (rest - sc) / math.pi,
        4.0 / (3.0 * math.pi) * c3,
        (rest + sc * (1.0 - 2.0 * s2)) / math.pi,
        16.0 / math.pi * (c3 / 3.0 - np.power(c, 5) / 5.0),
    ][: kmax + 1]


def binomial_upwind_moments(profile: ChiProfile, h, u, c, powers, positive) -> list:
    """[H * integral of (u + z c)^k chi(z) dz over a half-line, k in powers]
    as the binomial sum over j of C(k, j) u^(k-j) c^j J_j, the powers through
    ``np.power``.  The partial moments J_j are taken over [-u/c, support
    end] and complemented to the negative half-line by a masked subtract
    where ``positive`` (a bool or a boolean array) is False.  Dry entries
    (h = 0) are zero; c may hold any placeholder value there."""
    h, u, c = (np.asarray(a, dtype=float) for a in (h, u, c))
    shape = np.broadcast_shapes(h.shape, u.shape, c.shape, np.shape(positive))
    dry = np.broadcast_to(h <= 0.0, shape)
    safe_c = np.where(dry, 1.0, c)
    mom = [np.broadcast_to(p, shape).copy()
           for p in _oracle_partial_moments(profile, -u / safe_c, max(powers))]
    negative = np.broadcast_to(np.logical_not(positive), shape)
    for full, p in zip((1.0, 0.0, 1.0, 0.0), mom):
        np.subtract(full, p, out=p, where=negative)
    out = []
    for k in powers:
        acc = sum(coeff * np.power(u, k - j) * np.power(safe_c, j) * mom[j]
                  for j, coeff in enumerate(_BINOM[k]))
        out.append(np.where(dry, 0.0, h * acc))
    return out
