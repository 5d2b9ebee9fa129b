"""Reading the three-setting inequalities as constraints on fuller data.

Substituting 1 for every observer's reference-setting outcome turns a vertex
into a *lifted vertex* (1, m1, m2) x ..., the +1-sign vertex K[v], row v of
``vertex_matrix``.  Its components are, in order of how many observers
participate: the normalization constant, every single observer's average, and
every correlation of two or more observers.  A three-setting facet therefore
doubles as an inequality on marginals plus two-setting correlations (a
CH-type constraint) whose coefficients are its own tensor: the constant is
the entry at (0, ..., 0), and observer i's marginals are the entries with
only axis i nonzero.  ``lift`` adds what the tensor does not state, the sharp
bounds over the 2^(2N) lifted vertices, found by brute force.  For a family
member they are the original (-2^(2N), 2^(2N)), since K[v] scores 2^(2N) s(v)
(the reconstruction identity), except that a constant s gives (c, c) with
c = +/-2^(2N); only coefficients outside the family can tighten a side.

Separately, the admissible functions that depend only on each observer's
first variable reproduce the complete two-setting family: there are exactly
2^(2^N) of them and their coefficient support stays inside settings {0, 1}.
"""

from __future__ import annotations

import numpy as np

from .fourier import SignFunction, _bit_tables, _pair_codes
from .polytope import BellInequality, _vertex_values, inequality_from_sign_function


def lift(ineq: BellInequality) -> tuple[int, int]:
    """The exact (min, max) of the tensor over the lifted vertices, each attained."""
    values = _vertex_values(ineq)
    return int(values.min()), int(values.max())


def two_setting_reduction(parties: int) -> list[BellInequality]:
    """Inequalities of every sign function of the first variables only.

    Such functions are admissible outright (no observer contributes a pair
    product) and their coefficients live on settings {0, 1}^N; the list has
    exactly 2^(2^N) members, covering the complete two-setting family.
    """
    if not 2 <= parties <= 3:
        raise ValueError(f"two-setting reduction is desk-scale for N in (2, 3), got {parties}")
    # bit k of a table is the bit of its code at assignment k's first variables
    first = (_pair_codes(parties) & 1) << np.arange(parties)
    codes = np.arange(1 << (1 << parties))[:, None]
    return [inequality_from_sign_function(SignFunction(parties, table))
            for table in _bit_tables(codes >> first.sum(axis=1) & 1)]
