"""Dyadic grids and grid-sampled functions on [0, 1].

Every function in this package (truths, posterior draws, densities) is carried
as its values at the 2^J midpoints of a dyadic grid.  All inner products and
integrals are midpoint-rule quadratures on that grid.

`check_number`, the package's one numeric argument check, lives here because
this module imports nothing else of the package.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def check_number(name: str, value, integer: bool = False, minimum=None) -> None:
    """Raise ValueError unless `value` is a finite real number (an integer if
    `integer`), not a bool, and at least `minimum` when one is given."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, kind)
            or not (integer or math.isfinite(value))):
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {what} (got {value!r})")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum} (got {value!r})")


class GridMismatchError(ValueError):
    """Two grid functions do not share the same dyadic grid."""


@dataclass(frozen=True)
class DyadicGrid:
    """Regular dyadic grid: the 2^J cells of [0, 1] and their midpoints."""

    resolution: int

    def __post_init__(self):
        check_number("grid resolution J", self.resolution, integer=True, minimum=1)

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
