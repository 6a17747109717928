"""The 0/1 check shared by every binary input boundary.

Weight matrices, weight columns and rows, and spike vectors all arrive
as arrays that must hold only 0 and 1.  Each boundary raises its own
:class:`~repro.errors.ConfigurationError` message; this module holds
the one test they share.  A single spike row of one-byte dtype is the
exception: :func:`~repro.tile.network.validate_spikes` checks it with
``bytes`` methods, which must accept and reject exactly what
:func:`is_binary` does (the test suite checks every byte value).
"""

from __future__ import annotations

import numpy as np


def is_binary(values: np.ndarray) -> bool:
    """True when ``values`` is boolean, or numeric holding only 0 and 1.

    Every batch, macro load and wide-dtype spike row calls it, so it
    takes one pass: integers one ``max`` over their unsigned view (a
    negative value wraps to a large one), floats one elementwise test
    (NaN and 0.5 fail it).  Strings, objects and complex numbers are
    not binary.
    """
    kind = values.dtype.kind
    if kind == "b":
        return True
    if kind in "iu":
        unsigned = values.view(values.dtype.str.replace("i", "u"))
        return bool(unsigned.max(initial=0) <= 1)
    return kind == "f" and bool(((values == 0) | (values == 1)).all())
