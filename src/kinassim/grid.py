"""Uniform 1D cell grids and kinetic-velocity grids."""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _check_count(name: str, value) -> None:
    """Refuse a count that is not an integer (a float, even a whole one), by
    name."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _refuse_infinite(name: str, obs) -> None:
    """Refuse an observed field holding +-inf, by name: NaN marks an
    unobserved cell, and an infinite value is no observation of a finite
    field."""
    obs = np.atleast_1d(obs)
    infinite = np.isinf(obs)
    if infinite.any():
        where = np.unravel_index(np.argmax(infinite), infinite.shape)
        raise ValueError(f"{name} must be finite or NaN (unobserved), got "
                         f"{float(obs[where])} in cell {where[-1]}")


class BoundaryKind(enum.Enum):
    DIRICHLET_ZERO = "dirichlet_zero"
    PERIODIC = "periodic"
    REFLECTIVE_WALL = "reflective_wall"


@dataclass(frozen=True)
class Grid1D:
    """Uniform partition of [x_min, x_max] into n_cells cells."""

    n_cells: int
    x_min: float = 0.0
    x_max: float = 1.0
    bc: BoundaryKind = BoundaryKind.PERIODIC

    def __post_init__(self):
        _check_count("n_cells", self.n_cells)
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")
        for name in ("x_min", "x_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def interval_mask(self, lo: float, hi: float) -> np.ndarray:
        """Boolean mask of cells whose center lies in [lo, hi]."""
        x = self.centers
        return (x >= lo) & (x <= hi)

    def refined(self, resolution_factor: int) -> "Grid1D":
        """The same interval cut into resolution_factor times as many cells."""
        _check_count("resolution_factor", resolution_factor)
        if resolution_factor < 1:
            raise ValueError(f"resolution_factor must be >= 1, got {resolution_factor!r}")
        return Grid1D(self.n_cells * resolution_factor, self.x_min, self.x_max, self.bc)


@dataclass(frozen=True)
class XiGrid:
    """Midpoint discretisation of a kinetic-velocity interval into n_xi
    cells of equal width dxi, one node at the centre of each.

    The Burgers lanes that read ``flux_table`` (the collapse lane and every
    Burgers truth on a xi grid) need 0 in [xi_min, xi_max], so that both
    upwind directions are represented; ``spanning`` builds such grids.
    """

    xi_min: float
    xi_max: float
    n_xi: int

    def __post_init__(self):
        for name in ("xi_min", "xi_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.xi_max > self.xi_min:
            raise ValueError("xi_max must exceed xi_min")
        _check_count("n_xi", self.n_xi)
        if self.n_xi < 1:
            raise ValueError("n_xi must be >= 1")

    @property
    def dxi(self) -> float:
        return (self.xi_max - self.xi_min) / self.n_xi

    @property
    def nodes(self) -> np.ndarray:
        return self.xi_min + (np.arange(self.n_xi) + 0.5) * self.dxi

    @property
    def edges(self) -> np.ndarray:
        """The n_xi + 1 cell edges, from xi_min to xi_max exactly."""
        return np.linspace(self.xi_min, self.xi_max, self.n_xi + 1)

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n_xi, self.dxi)

    def indicator(self, values) -> np.ndarray:
        """Cell averages of the indicator chi(xi, v) (+1 on (0, v), -1 on
        (v, 0)) over the xi cells, of shape values.shape + (n_xi,).

        The integral of chi(., v) over the cell [a, b] is
        clip(v, a, b) - clip(0, a, b), so the averages of a value on the grid
        integrate to the value itself; a value past the grid is cut off at
        its end, and NaN gives NaN.
        """
        edges = self.edges
        a, b = edges[:-1], edges[1:]
        v = np.asarray(values, dtype=float)[..., None]
        return (np.clip(v, a, b) - np.clip(0.0, a, b)) / self.dxi

    @property
    def speed_sup(self) -> float:
        return max(abs(self.xi_min), abs(self.xi_max))

    @cached_property
    def flux_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(inner_edges, intercept, slope)``: the upwind half-line fluxes
        of the cell-averaged indicator, tabulated once per grid.

        The cell averages chi_j(v) of the indicator (``indicator``) have the
        xi-integral v itself, and the quadrature flux sum_j w_j xi_j chi_j(v)
        over the nodes of one sign is

            G+(v) = integral_0^v xi_node(s) [xi_node(s) >= 0] ds,
            G-(v) = integral_0^v xi_node(s) [xi_node(s) < 0] ds,

        with xi_node(s) the node of the cell holding s: piecewise linear in
        v, with a kink at every cell edge.  For v in [xi_min, xi_max],
        j = searchsorted(inner_edges, v, "right") is its cell and
        G(v) = intercept[:, j] + slope[:, j] * v, row 0 holding G+ and
        row 1 G-.  The intercepts vanish in the cell holding 0, so
        G(0) = 0 exactly.  The arrays are read-only.
        """
        if not self.xi_min <= 0.0 <= self.xi_max:
            raise ValueError(
                f"the indicator flux needs 0 in [xi_min, xi_max], got "
                f"[{self.xi_min:g}, {self.xi_max:g}]"
            )
        edges = self.edges
        nodes = self.nodes
        slope = np.stack([np.where(nodes >= 0.0, nodes, 0.0), np.where(nodes < 0.0, nodes, 0.0)])
        # the antiderivative from xi_min at each cell's left edge, then
        # shifted so that it vanishes at 0
        left = np.concatenate(([[0.0], [0.0]], np.cumsum(slope * self.dxi, axis=1)[:, :-1]), axis=1)
        intercept = left - slope * edges[:-1]
        zero = int(np.searchsorted(edges[1:-1], 0.0, side="right"))
        intercept = intercept - intercept[:, zero : zero + 1]
        inner = edges[1:-1].copy()
        tables = (inner, intercept, slope)
        for table in tables:
            table.flags.writeable = False
        return tables

    @staticmethod
    def spanning(values_min: float, values_max: float, margin: float = 1.0,
                 n_xi: int = 64) -> "XiGrid":
        """Grid covering [min - margin, max + margin]; the margin keeps the
        indicator densities of transient states inside the grid.  The result
        contains zero so both upwind directions are represented.  The margin
        must be finite and nonnegative."""
        if not (math.isfinite(margin) and margin >= 0.0):
            raise ValueError(f"margin must be finite and nonnegative, got {margin!r}")
        lo = min(values_min - margin, -margin)
        hi = max(values_max + margin, margin)
        return XiGrid(lo, hi, n_xi)
