"""Reading the three-setting inequalities as constraints on fuller data.

Substituting 1 for every observer's reference-setting outcome turns a vertex
into a *lifted vertex* (1, m1, m2) x ..., the +1-sign vertex K[v], row v of
``vertex_matrix``.  Its components are, in order of how many observers
participate: the normalization constant, every single observer's average, and
every correlation of two or more observers.  A three-setting facet therefore
doubles as an inequality on marginals plus two-setting correlations (a
CH-type constraint); its sharp bounds over the 2^(2N) lifted vertices are
found by brute force and may be strictly inside the original +/-2^(2N).

Separately, the admissible functions that depend only on each observer's
first variable reproduce the complete two-setting family: there are exactly
2^(2^N) of them and their coefficient support stays inside settings {0, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import SignFunction, _bit_tables, _pair_codes, is_admissible
from .polytope import BellInequality, inequality_from_sign_function, vertex_matrix


@dataclass(frozen=True, eq=False)
class LiftedInequality:
    """A facet reread over lifted vertices: constant, marginals, correlations.

    ``marginal_coeffs[i]`` holds observer i's two marginal coefficients
    (settings 1 and 2); ``correlations`` lists the remaining nonzero entries
    (two or more active observers) as (settings tuple, coefficient) pairs.
    ``bounds`` are the exact (min, max) over all lifted vertices, each
    attained; ``degenerate`` flags a constant expression.
    """

    constant: int
    marginal_coeffs: tuple[tuple[int, int], ...]
    correlations: tuple[tuple[tuple[int, ...], int], ...]
    bounds: tuple[int, int]
    degenerate: bool


def lift(ineq: BellInequality) -> LiftedInequality:
    """Reinterpret setting 0 as the substituted constant and re-bound."""
    parties = ineq.parties
    values = vertex_matrix(parties) @ ineq.coeffs.ravel()
    low, high = int(values.min()), int(values.max())
    constant = int(ineq.coeffs[(0,) * parties])
    marginals = []
    for i in range(parties):
        pos = [0] * parties
        pair = []
        for n in (1, 2):
            pos[i] = n
            pair.append(int(ineq.coeffs[tuple(pos)]))
        marginals.append((pair[0], pair[1]))
    correlations = tuple(
        (tuple(int(x) for x in pos), int(ineq.coeffs[tuple(pos)]))
        for pos in np.argwhere(ineq.coeffs)
        if np.count_nonzero(pos) >= 2
    )
    return LiftedInequality(
        constant=constant,
        marginal_coeffs=tuple(marginals),
        correlations=correlations,
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
    out = []
    for table in _bit_tables(codes >> first.sum(axis=1) & 1):
        s = SignFunction(parties, table)
        if not is_admissible(s):
            raise RuntimeError(f"first-variable function {s.to_text()} is not admissible")
        out.append(inequality_from_sign_function(s))
    return out
