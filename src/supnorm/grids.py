"""`check_number`, the package's one numeric argument check.

Every function on [0, 1] in the package (a truth, a basis function, a
density draw) is the 1-D float array of its values at the 2^J midpoints of
a dyadic grid, J >= 1, and every integral a midpoint-rule quadrature on
that grid; each reader checks the shape it needs.  This module imports
nothing else of the package.
"""
from __future__ import annotations

import math
import numbers

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
