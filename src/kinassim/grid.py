"""Uniform 1D cell grids and kinetic-velocity grids."""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class BoundaryKind(enum.Enum):
    DIRICHLET_ZERO = "dirichlet_zero"
    PERIODIC = "periodic"
    REFLECTIVE_WALL = "reflective_wall"


@dataclass(frozen=True)
class Grid1D:
    """Uniform partition of [x_min, x_max] into n_cells cells."""

    n_cells: int
    x_min: float
    x_max: float
    bc: BoundaryKind = BoundaryKind.PERIODIC

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")
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

    def refined(self, factor: int) -> "Grid1D":
        return Grid1D(self.n_cells * factor, self.x_min, self.x_max, self.bc)


@dataclass(frozen=True)
class XiGrid:
    """Midpoint discretisation of a kinetic-velocity interval."""

    xi_min: float
    xi_max: float
    n_xi: int

    def __post_init__(self):
        if not self.xi_max > self.xi_min:
            raise ValueError("xi_max must exceed xi_min")
        if self.n_xi < 1:
            raise ValueError("n_xi must be >= 1")

    @property
    def dxi(self) -> float:
        return (self.xi_max - self.xi_min) / self.n_xi

    @property
    def nodes(self) -> np.ndarray:
        return self.xi_min + (np.arange(self.n_xi) + 0.5) * self.dxi

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n_xi, self.dxi)

    @property
    def speed_sup(self) -> float:
        return max(abs(self.xi_min), abs(self.xi_max))

    @cached_property
    def indicator_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(nodes, T0, T1)``: the quadrature moments of the indicator
        chi(xi, v) = +1 on (0, v), -1 on (v, 0), tabulated once per grid.

        The nodes are sorted with constant weight, so the nodes inside the
        support of chi(., v) form one index range: [p, kl) above zero and
        [kr, p0) below, where kl = searchsorted(nodes, v, "left"),
        kr = searchsorted(nodes, v, "right"), p is the first node > 0 and
        p0 the first node >= 0.  With the prefix sums C_m = cumsum(w xi^m)
        (leading 0), T_m[0, k] = C_m[max(k, p)] - C_m[p] and
        T_m[1, k] = C_m[min(k, p0)] - C_m[p0], so that

            sum_j w_j xi_j^m chi(xi_j, v) = T_m[0, kl] + T_m[1, kr].

        The arrays are read-only.
        """
        nodes = self.nodes
        k = np.arange(self.n_xi + 1)
        p = int(np.searchsorted(nodes, 0.0, side="right"))
        p0 = int(np.searchsorted(nodes, 0.0, side="left"))
        tables = [nodes]
        for c in (np.cumsum(self.weights), np.cumsum(self.weights * nodes)):
            c = np.concatenate(([0.0], c))
            tables.append(np.stack([c[np.maximum(k, p)] - c[p], c[np.minimum(k, p0)] - c[p0]]))
        for table in tables:
            table.flags.writeable = False
        return tuple(tables)

    @staticmethod
    def spanning(values_min: float, values_max: float, margin: float = 1.0,
                 n_xi: int = 64) -> "XiGrid":
        """Grid covering [min - margin, max + margin]; the margin keeps the
        indicator densities of transient states inside the grid.  The result
        straddles zero so both upwind directions are represented."""
        lo = min(values_min - margin, -margin)
        hi = max(values_max + margin, margin)
        return XiGrid(lo, hi, n_xi)
