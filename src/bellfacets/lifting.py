"""Reading the three-setting inequalities as constraints on fuller data.

Substituting 1 for every observer's reference-setting outcome turns a vertex
into a *lifted vertex* (1, m1, m2) x ... whose components are, in order of
how many observers participate: the normalization constant, every single
observer's average, and every correlation of two or more observers.  A
three-setting facet therefore doubles as an inequality on marginals plus
two-setting correlations (a CH-type constraint); its sharp bounds over the
2^(2N) lifted vertices are found by brute force and may be strictly inside
the original +/-2^(2N).

Separately, the admissible functions that depend only on each observer's
first variable reproduce the complete two-setting family: there are exactly
2^(2^N) of them and their coefficient support stays inside settings {0, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .enumeration import UnsupportedSize
from .fourier import SignFunction, is_admissible, table_size
from .polytope import BellInequality, inequality_from_sign_function


@dataclass(frozen=True, eq=False)
class LiftedVertex:
    """Product tensor with each observer's first slot pinned to 1."""

    parties: int
    outcomes: tuple[tuple[int, int], ...]
    tensor: np.ndarray


@lru_cache(maxsize=None)
def lifted_vertices(parties: int) -> tuple[LiftedVertex, ...]:
    """All 2^(2N) lifted vertices, packed-bit order (bit 2i: m1_i = -1)."""
    out = []
    for bits in range(table_size(parties)):
        outcomes = tuple(
            (1 - 2 * (bits >> (2 * i) & 1), 1 - 2 * (bits >> (2 * i + 1) & 1))
            for i in range(parties)
        )
        factors = [np.array([1, m1, m2], dtype=np.int64) for m1, m2 in outcomes]
        tensor = reduce(np.multiply.outer, factors)
        tensor.setflags(write=False)
        out.append(LiftedVertex(parties, outcomes, tensor))
    return tuple(out)


@lru_cache(maxsize=None)
def lifted_matrix(parties: int) -> np.ndarray:
    mat = np.stack([v.tensor.ravel() for v in lifted_vertices(parties)])
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class LiftedInequality:
    """A facet reread over lifted vertices: constant, marginals, correlations.

    ``marginal_coeffs[i]`` holds observer i's two marginal coefficients
    (settings 1 and 2); ``correlations`` lists the remaining nonzero entries
    (two or more active observers) as (settings tuple, coefficient) pairs.
    ``bounds`` are the exact (min, max) over all lifted vertices, each
    attained; ``degenerate`` flags a constant expression.
    """

    source: BellInequality
    constant: int
    marginal_coeffs: tuple[tuple[int, int], ...]
    correlations: tuple[tuple[tuple[int, ...], int], ...]
    bounds: tuple[int, int]
    degenerate: bool


def lift(ineq: BellInequality) -> LiftedInequality:
    """Reinterpret setting 0 as the substituted constant and re-bound."""
    parties = ineq.parties
    values = lifted_matrix(parties) @ ineq.coeffs.ravel()
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
        source=ineq,
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
        raise UnsupportedSize(f"two-setting reduction is desk-scale for N in (2, 3), got {parties}")
    n = table_size(parties)
    first_index = [
        sum(((k >> (2 * i)) & 1) << i for i in range(parties)) for k in range(n)
    ]
    out = []
    for code in range(1 << (1 << parties)):
        table = 0
        for k in range(n):
            if code >> first_index[k] & 1:
                table |= 1 << k
        s = SignFunction(parties, table)
        if not is_admissible(s):
            raise RuntimeError(f"first-variable function {s.to_text()} is not admissible")
        out.append(inequality_from_sign_function(s))
    return out
