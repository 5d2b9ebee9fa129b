"""Per-element reference for the relabeling group, the oracle the library's
orbit routes (``orbit_words``, ``orbit_least``, ``canonicalize``) are held to.

It acts one element at a time by an explicit assignment map, independently of
the library's move table and dyadic shifts.  No ``assert`` here: helper
modules are not rewritten by pytest, so an assert would vanish under
``python -O``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from bellfacets import SignFunction, table_size
from bellfacets.fourier import _bit_tables, _table_bits


class SymmetryElement(NamedTuple):
    """One relabeling: party routing, per-party swaps/negations, global sign.

    ``party_permutation[i]`` is the observer receiving observer i's
    (negated, possibly swapped) variable pair.  Negations apply before the
    swap within each pair.
    """

    party_permutation: tuple[int, ...]
    swaps: tuple[bool, ...]
    negations: tuple[tuple[bool, bool], ...]
    flip_sign: bool

    def assignment_map(self) -> np.ndarray:
        """P, with P[v] the assignment v becomes as the element moves the
        variables (the global sign plays no part)."""
        idx = np.arange(table_size(len(self.party_permutation)))
        target = np.zeros_like(idx)
        for i, j in enumerate(self.party_permutation):
            u = (idx >> (2 * i) & 1) ^ int(self.negations[i][0])
            w = (idx >> (2 * i + 1) & 1) ^ int(self.negations[i][1])
            if self.swaps[i]:
                u, w = w, u
            target |= u << (2 * j) | w << (2 * j + 1)
        return target

    def apply(self, s: SignFunction) -> SignFunction:
        """Transformed sign function t with t(P(v)) = +/- s(v)."""
        moved = np.empty(table_size(s.parties), dtype=np.uint8)
        moved[self.assignment_map()] = _table_bits(s.parties, (s.table,))[0] ^ int(self.flip_sign)
        return SignFunction(s.parties, _bit_tables(moved)[0])


def symmetry_group(parties: int) -> list[SymmetryElement]:
    """All N! * 8^N * 2 relabelings, in a fixed deterministic order."""
    return [
        SymmetryElement(perm, swaps, negs, flip)
        for perm in itertools.permutations(range(parties))
        for swaps in itertools.product((False, True), repeat=parties)
        for negs in itertools.product(((False, False), (True, False), (False, True), (True, True)),
                                      repeat=parties)
        for flip in (False, True)
    ]
