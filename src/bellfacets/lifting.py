"""Reading the three-setting inequalities as constraints on fuller data.

Substituting 1 for every observer's reference-setting outcome turns a vertex
into a *lifted vertex* (1, m1, m2) x ..., the +1-sign vertex K[v], row v of
``vertex_matrix``.  Its components are, in order of how many observers
participate: the normalization constant, every single observer's average, and
every correlation of two or more observers.  A three-setting facet therefore
doubles as an inequality on marginals plus two-setting correlations (a
CH-type constraint); its sharp bounds over the 2^(2N) lifted vertices are
found by brute force.  For a family member they are the original
(-2^(2N), 2^(2N)), since K[v] scores 2^(2N) s(v) (the reconstruction
identity), except that a constant s gives (c, c) with c = +/-2^(2N); only
coefficients outside the family can tighten a side.

Separately, the admissible functions that depend only on each observer's
first variable reproduce the complete two-setting family: there are exactly
2^(2^N) of them and their coefficient support stays inside settings {0, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import SignFunction, _bit_tables, _pair_codes
from .polytope import BellInequality, _vertex_values, inequality_from_sign_function


@dataclass(frozen=True, eq=False)
class LiftedInequality:
    """A facet reread over lifted vertices: constant, marginals and bounds.

    ``marginal_coeffs[i]`` holds observer i's two marginal coefficients
    (settings 1 and 2); the correlations (two or more active observers) are
    the tensor's other nonzero entries.  ``bounds`` are the exact (min, max)
    over all lifted vertices, each attained; ``degenerate`` flags a constant
    expression.
    """

    constant: int
    marginal_coeffs: tuple[tuple[int, int], ...]
    bounds: tuple[int, int]
    degenerate: bool


def lift(ineq: BellInequality) -> LiftedInequality:
    """Reinterpret setting 0 as the substituted constant and re-bound."""
    parties = ineq.parties
    values = _vertex_values(ineq)
    low, high = int(values.min()), int(values.max())
    constant = int(ineq.coeffs[(0,) * parties])
    marginals = [tuple(int(c) for c in ineq.coeffs[(0,) * i + (slice(1, 3),) + (0,) * (parties - 1 - i)])
                 for i in range(parties)]
    return LiftedInequality(
        constant=constant,
        marginal_coeffs=tuple(marginals),
        bounds=(low, high),
        degenerate=low == high,
    )


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
