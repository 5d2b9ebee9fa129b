"""Relabeling symmetries acting on sign functions.

The natural equivalences of the N-observer, three-setting problem are:
permuting observers, exchanging an observer's two non-reference settings
(swapping its variable pair), flipping outcomes (negating either variable of
a pair), and negating the whole function (exchanging a bound's face with its
antiface).  Together these form a group of order N! * 8^N * 2 whose action
on packed tables is a bit permutation plus an optional complement.

The canonical representative is the orbit member with the least
packed-table integer.  Both orbit routes (the sorted orbit words the census
reads, and the streaming canonical form) read one image generator: per
observer permutation, a gather of the table's bits followed by one cached
flat gather map of the 8^N local relabelings, taken in blocks so that the
N=4 orbit (196608 tables) never materializes at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
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

# Image entries gathered per block: an N=3 observer permutation's 512 images
# are one block, an N=4 one's 4096 images are sixteen.
_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _local_gather(parties: int) -> np.ndarray:
    """Flat gather map of the 8^N local relabelings, shape (8^N, 4^N).

    The table is a (4,)*N tensor with one axis per observer; the map is
    that of one gather per axis, so row r reads the table under the r-th
    combination of per-observer relabelings.
    """
    n = table_size(parties)
    # intp spares a cast on every gather; the 1M-entry N=4 map stays uint8
    # (1 MB) and is cast a block at a time.
    index = np.arange(n, dtype=np.intp if parties < 4 else np.uint8).reshape((4,) * parties)
    for axis in range(parties):
        # axis `axis` of size 4 becomes (8, 4); the 8 stays in place
        index = np.take(index, _LOCAL_MAPS, axis=2 * axis)
    # (8, 4) * N -> (8,) * N + (4,) * N: one row per local relabeling
    evens, odds = tuple(range(0, 2 * parties, 2)), tuple(range(1, 2 * parties, 2))
    gather = index.transpose(evens + odds).reshape(-1, n)
    gather.setflags(write=False)
    return gather


def _sign_free_images(s: SignFunction) -> Iterator[np.ndarray]:
    """Bit rows of s under every sign-free relabeling (repeats included), a
    block of at most _BLOCK entries at a time.

    Every sign-free element is a local relabeling after an observer
    permutation, so one transpose per permutation followed by the cached
    local map reaches them all; gathering rather than scattering yields the
    inverses, the same set.
    """
    cube = _table_bits(s.parties, (s.table,))[0].reshape((4,) * s.parties)
    local = _local_gather(s.parties)
    step = max(1, _BLOCK // table_size(s.parties))
    for perm in itertools.permutations(range(s.parties)):
        moved = cube.transpose(perm).ravel()
        for start in range(0, len(local), step):
            yield moved[local[start:start + step]]


def orbit_words(s: SignFunction) -> np.ndarray:
    """Sorted packed tables of the full orbit of s, one machine word each
    (N <= 3); complementing a word is the global sign flip."""
    packed = np.packbits(np.concatenate(list(_sign_free_images(s))), axis=-1, bitorder="little")
    words = packed.view(f"<u{packed.shape[-1]}").ravel()
    orbit = np.sort(np.concatenate((words, ~words)))
    return orbit[np.insert(orbit[1:] != orbit[:-1], 0, True)]


def canonicalize(s: SignFunction) -> SignFunction:
    """Least packed table over the orbit of s; constant on orbits, idempotent.

    Streams the orbit instead of collecting it (196608 tables at N=4): the
    least complement is the complement of the largest sign-free image.  Each
    block is ordered on its packed words, most significant last, and only
    its least and largest images become integers.
    """
    low = high = s.table
    for rows in _sign_free_images(s):
        packed = np.packbits(rows, axis=-1, bitorder="little")
        order = np.lexsort(packed.view(f"<u{min(packed.shape[-1], 8)}").T)
        least, largest = _bit_tables(rows[order[[0, -1]]])
        low, high = min(low, least), max(high, largest)
    return SignFunction(s.parties, min(low, high ^ ((1 << table_size(s.parties)) - 1)))
