"""Independent N=2 oracle for the section recursion: the block test on every
one of the 2^16 two-observer tables."""

from __future__ import annotations

import numpy as np

from bellfacets.fourier import _admissible, _table_bits


def exhaustive_two() -> list[int]:
    """Admissible two-observer tables in table order, by a scan of all 2^16."""
    return np.flatnonzero(_admissible(_table_bits(2, range(1 << 16)), 2)).tolist()
