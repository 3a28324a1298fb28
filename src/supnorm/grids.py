"""Functions on [0, 1] sampled on a dyadic grid.

Every function in this package (truths, posterior draws, densities) is carried
as its values at the 2^J midpoints of a dyadic grid; the grid is no object of
its own, J is log2 of the number of values.  All inner products and integrals
are midpoint-rule quadratures on that grid.

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
    """A grid function and a basis do not share the same dyadic grid."""


@dataclass(frozen=True)
class GridFunction:
    """A real function on [0, 1] represented by its values on the 2^J cells
    of a dyadic grid, J >= 1: the grid is the length of `values`."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        N = vals.size
        if vals.ndim != 1 or N < 2 or N & (N - 1):
            raise ValueError(
                f"values must be a 1-D array of 2^J cells, J >= 1 (got shape {vals.shape})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def resolution(self) -> int:
        """J, the level of the grid."""
        return self.values.size.bit_length() - 1

    def quad(self) -> float:
        """Midpoint-rule integral over [0, 1]."""
        return float(self.values.mean())

    def to_csv(self, path) -> None:
        """Write two columns (midpoint, value) for plotting."""
        mids = (np.arange(self.values.size) + 0.5) * 2.0 ** (-self.resolution)
        with open(path, "w") as fh:
            fh.write("midpoint,value\n")
            for m, v in zip(mids, self.values):
                fh.write(f"{float(m)!r},{float(v)!r}\n")
