"""Relabeling symmetries acting on sign functions.

The natural equivalences of the N-observer, three-setting problem are:
permuting observers, exchanging an observer's two non-reference settings
(swapping its variable pair), flipping outcomes (negating either variable of
a pair), and negating the whole function (exchanging a bound's face with its
antiface).  Together these form a group of order N! * 8^N * 2 whose action
on packed tables is a bit permutation plus an optional complement.

The canonical representative is the orbit member with the least
packed-table integer.  This module is the only one that knows how the
group acts.  One image generator applies it: per observer permutation, a
gather of the table's bits followed by one cached flat gather map of the
8^N local relabelings, taken in blocks so that the N=4 orbit (196608
tables) never materializes at once.  It feeds the streaming canonical form
and the sorted orbit words, and one walk over the orbit words
(:func:`orbit_least`) serves both the census and ``reduce``'s canonical
flags.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

import numpy as np

from .fourier import SignFunction, _bit_tables, _table_bits, table_size


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


def orbit_least(parties: int, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least table of each table's orbit and the orbit's size (N <= 3).

    ``tables`` is a sorted uint64 array without repeats.  The first table
    whose orbit is not yet known has its orbit gathered whole, and every
    table of the set in that orbit is marked, so each orbit met is scanned
    once whether or not the set is closed under the group.
    """
    least = np.zeros_like(tables)
    size = np.zeros(len(tables), dtype=np.int64)
    unseen = np.ones(len(tables), dtype=bool)
    while unseen.any():
        orbit = orbit_words(SignFunction(parties, int(tables[unseen.argmax()])))
        at = np.minimum(np.searchsorted(tables, orbit), len(tables) - 1)
        at = at[tables[at] == orbit]
        least[at], size[at], unseen[at] = orbit[0], len(orbit), False
    return least, size


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
