"""The local-realistic correlation polytope and its facet certificates.

A deterministic strategy fixes one +/-1 outcome per observer and setting; its
full-correlation tensor is the outer product of the per-observer outcome
triples.  Changing variables to the products with the reference setting shows
every such tensor equals a *vertex* x * (1, u_0, w_0) x ... x (1, u_{N-1},
w_{N-1}), so the polytope of locally modelable correlation tensors is the
convex hull of the 2^(2N+1) vertices +/-K[v], one pair per assignment v.
Entry j of K[v] is the character (-1)^|v & T_j| of the subset T_j addressing
settings tuple j.  Only K is stored; bounds and certificates apply the sign.

An admissible sign function s induces the inequality |<g, E>| <= 2^(2N),
where g gathers at each settings tuple the spectrum coefficient of its
subset; admissibility makes every coefficient it leaves out zero.  Every
vertex evaluates to exactly +/-2^(2N) against such a g (the reconstruction
identity), which is what makes the bound classical and the saturating half
of the vertices span the whole space.

Tightness is certified with exact arithmetic, never floating point.  The
saturating vertices' rank is first taken modulo a prime p: a minor that is
nonzero mod p is a nonzero integer, so the rank mod p never exceeds the rank
over the rationals, and when it reaches min(rows, cols) that is the rank.
Only a rank-deficient set falls back to fraction-free (Bareiss) elimination
over the integers.  A vertex and its negation span one line, so the rank is
that of the rows K[v] of the saturating assignment set, memoised per set.
Every admissible inequality saturates one vertex of each assignment (the
reconstruction identity), so one elimination per observer count serves all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .fourier import (SignFunction, _check_parties, _fwht, _setting_subsets, fourier_transform,
                      is_admissible, table_size)


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
    provenance: SignFunction | None = None

    def __post_init__(self):
        if self.coeffs.shape != (3,) * self.parties:
            raise ValueError(f"coeffs must have shape {(3,) * self.parties}")


def inequality_from_sign_function(s: SignFunction) -> BellInequality:
    """Place the spectrum of an admissible sign function on settings tuples."""
    if not is_admissible(s):
        raise ValueError(f"{s.to_text()} has a local-product Fourier component")
    coeffs = fourier_transform(s)[_setting_subsets(s.parties)].reshape((3,) * s.parties)
    coeffs.setflags(write=False)
    return BellInequality(s.parties, coeffs, table_size(s.parties), provenance=s)


class LhvBounds(NamedTuple):
    maximum: int
    minimum: int


def lhv_max(ineq: BellInequality) -> LhvBounds:
    """Extremes of <coeffs, V> over all vertices V = +/-K[v] (brute force)."""
    top = int(np.abs(vertex_matrix(ineq.parties) @ ineq.coeffs.ravel()).max())
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
    """Same extrema via the 2^(3N) deterministic strategies; an independent
    route used to cross-check the vertex scan."""
    values = _strategy_matrix(ineq.parties) @ ineq.coeffs.ravel()
    return LhvBounds(int(values.max()), int(values.min()))


# The largest prime below 2^31: residues multiply without overflow in int64.
_WITNESS_PRIME = 2147483629


def fraction_free_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer matrix rank.

    The rank modulo a prime p is a lower bound on the rank over the
    rationals (a minor nonzero mod p is a nonzero integer), and no rank
    exceeds min(rows, cols); so when the rank mod p reaches that, it is the
    rank.  Otherwise fraction-free (Bareiss) elimination decides.
    """
    mat = [[int(x) for x in row] for row in rows]
    if mat:
        full = min(len(mat), len(mat[0]))
        if _rank_mod_prime(mat) == full:
            return full
    return _bareiss_rank(mat)


def _rank_mod_prime(mat: list[list[int]]) -> int:
    """Rank over GF(p) by row reduction on int64 residues below p."""
    p = _WITNESS_PRIME
    res = np.array([[x % p for x in row] for row in mat], dtype=np.int64)
    rank = 0
    for col in range(res.shape[1]):
        nonzero = np.flatnonzero(res[rank:, col])
        if not nonzero.size:
            continue
        pivot_row = rank + int(nonzero[0])
        res[[rank, pivot_row]] = res[[pivot_row, rank]]
        top = res[rank, col:] * pow(int(res[rank, col]), -1, p) % p
        below = res[rank + 1:, col:]
        below -= below[:, :1] * top  # products stay below p^2 < 2^62
        below %= p
        rank += 1
    return rank


def _bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer matrix rank by fraction-free (Bareiss) elimination."""
    mat = [[int(x) for x in row] for row in rows]
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        for r in range(rank + 1, n_rows):
            factor = mat[r][col]
            row = mat[r]
            top = mat[rank]
            for c in range(col, n_cols):
                value = pivot * row[c] - factor * top[c]
                q, rem = divmod(value, prev_pivot)
                if rem:
                    raise RuntimeError("fraction-free update must divide exactly")
                row[c] = q
        prev_pivot = pivot
        rank += 1
        if rank == min(n_rows, n_cols):
            break
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
    which assignments v saturate with either sign: it is taken on the rows
    K[v] of that set and memoised per set.  A bound no vertex attains leaves
    the set empty: rank 0, not tight.
    """
    values = vertex_matrix(ineq.parties) @ ineq.coeffs.ravel()
    plus, minus = values == ineq.bound, values == -ineq.bound
    count = int(plus.sum() + minus.sum())
    rank = _assignment_rank(ineq.parties, (plus | minus).tobytes())
    return TightnessCertificate(
        tight=rank == 3 ** ineq.parties,
        saturating_count=count,
        rank=rank,
    )


@lru_cache(maxsize=64)
def _assignment_rank(parties: int, assignments: bytes) -> int:
    """Exact rank of the rows K[v] of an assignment set, given as the bytes
    of its boolean mask over the 4^N assignments."""
    chosen = np.frombuffer(assignments, dtype=bool)
    return fraction_free_rank(vertex_matrix(parties)[chosen].tolist())


def chsh_pattern(ineq: BellInequality) -> bool:
    """True when the tensor is a CHSH block: four entries of equal magnitude
    2^(2N-1) on a 2x2 settings rectangle (all other observers pinned to one
    setting), with an odd number of negative signs."""
    support = np.argwhere(ineq.coeffs)
    if len(support) != 4:
        return False
    magnitudes = {abs(int(ineq.coeffs[tuple(pos)])) for pos in support}
    if magnitudes != {table_size(ineq.parties) // 2}:
        return False
    used = [sorted(set(support[:, i].tolist())) for i in range(ineq.parties)]
    sizes = sorted(len(u) for u in used)
    if sizes != [1] * (ineq.parties - 2) + [2, 2]:
        return False
    if len(support) != np.prod([len(u) for u in used]):
        return False
    negatives = sum(1 for pos in support if ineq.coeffs[tuple(pos)] < 0)
    return negatives % 2 == 1
