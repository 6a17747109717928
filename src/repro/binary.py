"""The 0/1 check shared by every binary input boundary.

Weight matrices, weight columns and rows, and spike vectors all arrive
as arrays that must hold only 0 and 1.  Each boundary raises its own
:class:`~repro.errors.ConfigurationError` message; this module holds
the one test they share.
"""

from __future__ import annotations

import numpy as np


def is_binary(values: np.ndarray) -> bool:
    """True when ``values`` is boolean, or numeric holding only 0 and 1.

    One elementwise comparison pass, no sort: weight writes call it on
    every macro load.  NaN, strings, objects and complex numbers are
    not binary.
    """
    if values.dtype == np.bool_:
        return True
    return (values.dtype.kind in "iuf"
            and bool(((values == 0) | (values == 1)).all()))
