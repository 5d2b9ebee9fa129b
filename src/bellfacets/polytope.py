"""The local-realistic correlation polytope and its facet certificates.

A deterministic strategy fixes one +/-1 outcome per observer and setting; its
full-correlation tensor is the outer product of the per-observer outcome
triples.  Changing variables to the products with the reference setting shows
every such tensor equals a *vertex* x * (1, u_0, w_0) x ... x (1, u_{N-1},
w_{N-1}), so the polytope of locally modelable correlation tensors is the
convex hull of the 2^(2N+1) vertices +/-K[v], one pair per assignment v.
Entry j of K[v] is the character (-1)^|v & T_j| of the subset T_j addressing
settings tuple j.  Only K is stored, once per N: the vertex values K g and
the rows of every elimination come from it, and bounds and certificates
apply the sign.

An admissible sign function s induces the inequality |<g, E>| <= 2^(2N),
where g gathers at each settings tuple the spectrum coefficient of its
subset; admissibility makes every coefficient it leaves out zero.  Vertex
K[v] evaluates to exactly 2^(2N) s(v) against such a g (the reconstruction
identity K g = 2^(2N) s), which makes the bound classical and the saturating
half of the vertices span the whole space; sign_function_of inverts the map.

Tightness is certified with exact arithmetic, never floating point.  A vertex
and its negation span one line, so the rank is that of the rows K[v] of the
saturating assignment set.  The rows with every pair code below 3 are the
Kronecker power of M1 = [[1, 1, 1], [1, -1, 1], [1, 1, -1]] up to order, and
det M1 = 4, so a set holding them has rank 3^N: every family member's set
does (the reconstruction identity).  Any other set gets one fraction-free
(Bareiss) elimination, first modulo a prime p.  A minor nonzero mod p is a
nonzero integer, so the rank mod p never exceeds the rank over the
rationals, and when it reaches min(rows, cols) that is the rank.  Only a
rank-deficient set is eliminated again over the integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .fourier import (SignFunction, _bit_tables, _check_parties, _fwht, _pair_codes,
                      _setting_subsets, fourier_transform, is_admissible, table_size)


@lru_cache(maxsize=None)
def vertex_matrix(parties: int) -> np.ndarray:
    """The table K of 4^N flattened (3,)*N tensors: row v is
    K[v] = (1, u_0, w_0) x ... x (1, u_{N-1}, w_{N-1}) for assignment v.
    The polytope's vertices are +/-K[v].  Column j of K[v] is the character
    (-1)^|v & T_j| of the subset T_j addressing settings tuple j."""
    _check_parties(parties)
    subsets = _setting_subsets(parties)
    # the transform of the indicator of T_j is T_j's character over all v
    rows = _fwht(subsets[:, None] == np.arange(table_size(parties))).T
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class BellInequality:
    """Integer coefficient tensor over settings tuples with classical bound.

    ``coeffs[n_0, ..., n_{N-1}]`` is the unnormalized spectrum coefficient of
    the variable subset addressing that settings tuple; ``bound`` is 2^(2N) for
    inequalities generated from admissible sign functions.
    """

    parties: int
    coeffs: np.ndarray
    bound: int

    def __post_init__(self):
        _check_parties(self.parties)
        if not (isinstance(self.coeffs, np.ndarray) and self.coeffs.dtype.kind == "i"):
            kind = getattr(self.coeffs, "dtype", type(self.coeffs).__name__)
            raise ValueError(f"coeffs must be a signed-integer array, got {kind}")
        if self.coeffs.shape != (3,) * self.parties:
            raise ValueError(f"coeffs must have shape {(3,) * self.parties}")


def inequality_from_sign_function(s: SignFunction) -> BellInequality:
    """Place the spectrum of an admissible sign function on settings tuples."""
    if not is_admissible(s):
        raise ValueError(f"{s.to_text()} has a local-product Fourier component")
    coeffs = fourier_transform(s)[_setting_subsets(s.parties)].reshape((3,) * s.parties)
    coeffs.setflags(write=False)
    return BellInequality(s.parties, coeffs, table_size(s.parties))


def _vertex_values(ineq: BellInequality) -> np.ndarray:
    """K g, entry v the value of vertex K[v], from the cached table K
    (162 KiB at N = 4; it fits in memory through N = 6)."""
    return vertex_matrix(ineq.parties) @ ineq.coeffs.ravel()


def sign_function_of(ineq: BellInequality) -> SignFunction | None:
    """The s with K g = 2^(2N) s, or None if there is none: inverts inequality_from_sign_function."""
    values = _vertex_values(ineq)
    family = (np.abs(values) == table_size(ineq.parties)).all()
    return SignFunction(ineq.parties, _bit_tables(values < 0)[0]) if family else None


class LhvBounds(NamedTuple):
    maximum: int
    minimum: int


def lhv_max(ineq: BellInequality) -> LhvBounds:
    """Extremes of <coeffs, V> over all vertices V = +/-K[v] (brute force)."""
    top = int(np.abs(_vertex_values(ineq)).max())
    return LhvBounds(top, -top)


@lru_cache(maxsize=None)
def _strategy_matrix(parties: int) -> np.ndarray:
    """Flattened correlation tensors of all 2^(3N) deterministic strategies,
    built from the strategy bits, not from vertices: row b has observer i's
    outcome at setting n equal to 1 - 2 * (b >> (3i + n) & 1)."""
    bits = np.arange(1 << (3 * parties), dtype=np.int64)
    shifts = 3 * np.arange(parties)[:, None] + np.arange(3)
    outcomes = 1 - 2 * (bits[:, None, None] >> shifts & 1)  # (strategy, observer, setting)
    mat = outcomes[:, 0]
    for i in range(1, parties):
        mat = (mat[:, :, None] * outcomes[:, i, None, :]).reshape(len(bits), -1)
    mat.setflags(write=False)
    return mat


def lhv_max_by_strategies(ineq: BellInequality) -> LhvBounds:
    """Same extrema via deterministic strategies, an independent route that
    cross-checks the vertex scan: each strategy of the first N-1 observers
    leaves three coefficients c, and the last observer's best reply is +/-sum |c_n|."""
    replies = _strategy_matrix(ineq.parties - 1) @ ineq.coeffs.reshape(-1, 3)
    top = int(np.abs(replies).sum(axis=1).max())
    return LhvBounds(top, -top)


# The largest prime below 2^31: products of residues stay below 2^62 in int64.
_WITNESS_PRIME = 2147483629


def fraction_free_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer matrix rank by one fraction-free elimination, first
    modulo a prime p, then over the integers only if needed.

    The rank modulo p is a lower bound on the rank over the rationals (a
    minor nonzero mod p is a nonzero integer), and no rank exceeds
    min(rows, cols); so when the rank mod p reaches that, it is the rank.
    An entry that is not an integer (by operator.index) raises ValueError.
    """
    try:
        mat = [[operator.index(x) for x in row] for row in rows]
    except TypeError as exc:
        raise ValueError(f"matrix entries must be integers: {exc}") from exc
    res = np.array([[x % _WITNESS_PRIME for x in row] for row in mat], dtype=np.int64)
    if not res.size:
        return 0
    rank = _eliminate(res, _WITNESS_PRIME)
    return rank if rank == min(res.shape) else _eliminate(np.array(mat, dtype=object))


def _eliminate(res: np.ndarray, p: int | None = None) -> int:
    """Rank of res, which is overwritten, by fraction-free (Bareiss)
    elimination: each step swaps a nonzero pivot up and sets every row below
    it to pivot * row - row[col] * (pivot row).  With p given the rows are
    int64 residues below p, reduced mod p; with p None they are Python ints,
    divided exactly by the previous pivot."""
    rank, prev_pivot = 0, 1
    for col in range(res.shape[1]):
        nonzero = np.flatnonzero(res[rank:, col])
        if not nonzero.size:
            continue
        pivot_row = rank + int(nonzero[0])
        res[[rank, pivot_row]] = res[[pivot_row, rank]]
        pivot, top, below = res[rank, col], res[rank, col:], res[rank + 1:, col:]
        below[:] = pivot * below - below[:, :1] * top
        if p is not None:
            below %= p
        elif (below % prev_pivot).any():
            raise RuntimeError("fraction-free update must divide exactly")
        else:
            below //= prev_pivot
        prev_pivot = pivot
        rank += 1
    return rank


@dataclass(frozen=True)
class TightnessCertificate:
    tight: bool
    saturating_count: int
    rank: int


def certify_tightness(ineq: BellInequality) -> TightnessCertificate:
    """Collect the vertices saturating the bound and take their exact rank.

    The inequality is a facet (TIGHT) exactly when the saturating set spans
    all 3^N dimensions; the set lies in the affine hyperplane <g, E> = bound,
    so full linear rank is one more than the face's affine dimension.

    The vertices +K[v] and -K[v] span one line, so the rank depends only on
    which assignments v saturate with either sign.  A set holding every
    assignment whose pair codes are all below 3 holds the Kronecker minor
    and has rank 3^N; any other set is ranked by elimination of its rows
    K[v].  A bound no vertex attains leaves the set empty: rank 0, not tight.
    """
    values = _vertex_values(ineq)
    plus, minus = values == ineq.bound, values == -ineq.bound
    count = int(plus.sum() + minus.sum())
    chosen = plus | minus
    if chosen[(_pair_codes(ineq.parties) < 3).all(axis=1)].all():
        rank = 3 ** ineq.parties  # the Kronecker minor
    else:
        rank = fraction_free_rank(vertex_matrix(ineq.parties)[chosen].tolist())
    return TightnessCertificate(
        tight=rank == 3 ** ineq.parties,
        saturating_count=count,
        rank=rank,
    )
