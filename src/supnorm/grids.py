"""Dyadic grids and grid-sampled functions on [0, 1].

Every function in this package (truths, posterior draws, densities) is carried
as its values at the 2^J midpoints of a dyadic grid.  All inner products and
integrals are midpoint-rule quadratures on that grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridMismatchError(ValueError):
    """Two grid functions do not share the same dyadic grid."""


@dataclass(frozen=True)
class DyadicGrid:
    """Regular dyadic grid: the 2^J cells of [0, 1] and their midpoints."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("grid resolution J must be >= 1")

    @property
    def size(self) -> int:
        return 2 ** self.resolution

    @property
    def cell_width(self) -> float:
        return 2.0 ** (-self.resolution)

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.size) + 0.5) * self.cell_width


@dataclass(frozen=True)
class GridFunction:
    """A real function on [0, 1] represented by its values per grid cell."""

    grid: DyadicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    def quad(self) -> float:
        """Midpoint-rule integral over [0, 1]."""
        return float(self.values.mean())

    def to_csv(self, path) -> None:
        """Write two columns (midpoint, value) for plotting."""
        mids = self.grid.midpoints
        with open(path, "w") as fh:
            fh.write("midpoint,value\n")
            for m, v in zip(mids, self.values):
                fh.write(f"{float(m)!r},{float(v)!r}\n")
