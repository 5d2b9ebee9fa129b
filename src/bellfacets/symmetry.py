"""Relabeling symmetries acting on sign functions.

The natural equivalences of the N-observer, three-setting problem are:
permuting observers, exchanging an observer's two non-reference settings
(swapping its variable pair), flipping outcomes (negating either variable of
a pair), and negating the whole function (exchanging a bound's face with its
antiface).  Together these form a group of order N! * 8^N * 2 whose action
on packed tables is a bit permutation plus an optional complement.

Canonical forms are computed by explicit orbit scan: the canonical
representative is the orbit member with the least packed-table integer.
The orbit is built on the table as an array, one transpose per observer
permutation and one gather per observer, for every N (at most 196608
tables at N=4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fourier import SignFunction, _bit_tables, _table_bits, table_size


@dataclass(frozen=True)
class SymmetryElement:
    """One relabeling: party routing, per-party swaps/negations, global sign.

    ``party_permutation[i]`` is the observer receiving observer i's
    (negated, possibly swapped) variable pair.  Negations apply before the
    swap within each pair.
    """

    party_permutation: tuple[int, ...]
    swaps: tuple[bool, ...]
    negations: tuple[tuple[bool, bool], ...]
    flip_sign: bool

    @classmethod
    def identity(cls, parties: int) -> "SymmetryElement":
        return cls(
            tuple(range(parties)),
            (False,) * parties,
            ((False, False),) * parties,
            False,
        )

    @property
    def parties(self) -> int:
        return len(self.party_permutation)

    def assignment_map(self) -> np.ndarray:
        """Index map P with P[v] = transformed assignment of v."""
        n = table_size(self.parties)
        idx = np.arange(n)
        out = np.zeros(n, dtype=np.int64)
        for i in range(self.parties):
            u = (idx >> (2 * i)) & 1
            w = (idx >> (2 * i + 1)) & 1
            if self.negations[i][0]:
                u = u ^ 1
            if self.negations[i][1]:
                w = w ^ 1
            if self.swaps[i]:
                u, w = w, u
            j = self.party_permutation[i]
            out |= (u << (2 * j)) | (w << (2 * j + 1))
        return out

    def apply(self, s: SignFunction) -> SignFunction:
        """Transformed sign function t with t(P(v)) = +/- s(v)."""
        moved = np.empty(table_size(s.parties), dtype=np.uint8)
        moved[self.assignment_map()] = _table_bits(s.parties, (s.table,))[0]
        if self.flip_sign:
            moved ^= 1
        return SignFunction(s.parties, _bit_tables(moved)[0])

    def compose(self, other: "SymmetryElement") -> "SymmetryElement":
        """Element applying ``other`` first, then ``self``."""
        if self.parties != other.parties:
            raise ValueError("cannot compose elements for different party counts")
        perm = tuple(self.party_permutation[other.party_permutation[i]] for i in range(self.parties))
        swaps = []
        negs = []
        for i in range(self.parties):
            j = other.party_permutation[i]
            ng = self.negations[j]
            if other.swaps[i]:
                ng = (ng[1], ng[0])
            nh = other.negations[i]
            negs.append((ng[0] ^ nh[0], ng[1] ^ nh[1]))
            swaps.append(self.swaps[j] ^ other.swaps[i])
        return SymmetryElement(perm, tuple(swaps), tuple(negs), self.flip_sign ^ other.flip_sign)


def symmetry_group(parties: int) -> list[SymmetryElement]:
    """All N! * 8^N * 2 relabelings, in a fixed deterministic order."""
    elements = []
    for perm in itertools.permutations(range(parties)):
        for swaps in itertools.product((False, True), repeat=parties):
            for negs in itertools.product(
                ((False, False), (True, False), (False, True), (True, True)),
                repeat=parties,
            ):
                for flip in (False, True):
                    elements.append(SymmetryElement(perm, swaps, negs, flip))
    return elements


# Gather maps of the 8 sign-free relabelings of one observer's pair on the
# axis index a = u + 2w: negating u or w, then optionally swapping them.
_LOCAL_MAPS = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0],
                        [0, 2, 1, 3], [1, 3, 0, 2], [2, 0, 3, 1], [3, 1, 2, 0]])


def _sign_free_images(s: SignFunction) -> Iterator[list[int]]:
    """Packed tables of s under every sign-free relabeling, one list per
    observer permutation (repeats included).

    The table is a (4,)*N tensor with one axis per observer.  Each observer
    permutation is one transpose, and the 8^N local relabelings are one
    gather per axis.  Together they reach every sign-free element, each
    being a local relabeling after an observer permutation; gathering rather
    than scattering yields the inverses, the same set.
    """
    parties = s.parties
    n = table_size(parties)
    cube = _table_bits(parties, (s.table,)).reshape((4,) * parties)
    for perm in itertools.permutations(range(parties)):
        moved = cube.transpose(perm)
        for axis in range(parties):
            # axis `axis` of size 4 becomes (8, 4); the 8 stays in place
            moved = np.take(moved, _LOCAL_MAPS, axis=2 * axis)
        # (8, 4) * N -> (8,) * N + (4,) * N: one row per local relabeling
        rows = moved.transpose(tuple(range(0, 2 * parties, 2)) + tuple(range(1, 2 * parties, 2)))
        yield _bit_tables(rows.reshape(-1, n))


def orbit_tables(s: SignFunction) -> set[int]:
    """Packed tables of the full symmetry orbit of s (both signs)."""
    plain = set(itertools.chain.from_iterable(_sign_free_images(s)))
    full = (1 << table_size(s.parties)) - 1
    return plain | {t ^ full for t in plain}


def canonicalize(s: SignFunction) -> SignFunction:
    """Least packed table over the orbit of s; constant on orbits, idempotent.

    Streams the orbit instead of collecting it (196608 tables at N=4): the
    least complement is the complement of the largest sign-free image.
    """
    low = high = s.table
    for images in _sign_free_images(s):
        low, high = min(low, *images), max(high, *images)
    return SignFunction(s.parties, min(low, high ^ ((1 << table_size(s.parties)) - 1)))
