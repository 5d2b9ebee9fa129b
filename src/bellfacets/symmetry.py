"""Relabeling symmetries acting on sign functions.

The natural equivalences of the N-observer, three-setting problem are:
permuting observers, exchanging an observer's two non-reference settings
(swapping its variable pair), flipping outcomes (negating either variable of
a pair), and negating the whole function (exchanging a bound's face with its
antiface).  Together these form a group of order N! * 8^N * 2.  Every
sign-free element acts on an assignment v of the 2N variables as
v -> move(v) XOR m: the move routes each observer's pair to an observer,
swapped or not, and the mask m holds the negated variables.

The canonical representative is the orbit member with the least
packed-table integer.  This module is the only one that knows how the
group acts.  One image generator applies it: the table's dyadic shifts
s(v XOR m), one row per mask, gathered once, then read through a cached
table of the N! * 2^N moves in blocks, so that the N=4 orbit (196608
tables) never materializes at once.  It feeds the streaming canonical form
and the sorted orbit words, and one walk over the orbit words
(:func:`orbit_least`, on tables in any order) serves both the census and
``reduce``'s canonical flags.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

import numpy as np

from .fourier import SignFunction, _bit_tables, _pair_codes, _table_bits, table_size

# Image entries gathered per block: the N=3 orbit is three blocks of 16
# moves, and each of the 384 N=4 moves is one block.
_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _moves(parties: int) -> np.ndarray:
    """Assignment index after each move, shape (N! * 2^N, 4^N): the row of
    observer permutation perm and one swap choice per pair maps v to the
    assignment whose observer i holds observer perm[i]'s pair code in v,
    its two variables exchanged where that pair is swapped."""
    codes = _pair_codes(parties)
    swapped = codes >> 1 | (codes & 1) << 1
    shifts = 2 * np.arange(parties)
    moves = np.array([(np.where(swaps, swapped, codes)[:, perm] << shifts).sum(axis=1)
                      for perm in itertools.permutations(range(parties))
                      for swaps in itertools.product((False, True), repeat=parties)])
    moves.setflags(write=False)
    return moves


def _sign_free_images(s: SignFunction) -> Iterator[np.ndarray]:
    """Bit rows of s under every sign-free relabeling (repeats included), a
    block of at most _BLOCK entries at a time.

    Row m of the shifts is s(v XOR m); gathering it through move k gives the
    image v -> s(move_k(v) XOR m), one row per (move, mask) pair.  Gathering
    rather than scattering yields the inverses, the same set.
    """
    n = table_size(s.parties)
    shifted = _table_bits(s.parties, (s.table,))[0][np.arange(n)[:, None] ^ np.arange(n)]
    moves = _moves(s.parties)
    step = max(1, _BLOCK // (n * n))
    for start in range(0, len(moves), step):
        yield np.take(shifted, moves[start:start + step], axis=1).reshape(-1, n)


def orbit_words(s: SignFunction) -> np.ndarray:
    """Sorted packed tables of the full orbit of s, one machine word each
    (N <= 3); complementing a word is the global sign flip."""
    if s.parties > 3:
        raise ValueError(f"orbit words hold tables of N <= 3 observers, got N={s.parties}")
    packed = np.packbits(np.concatenate(list(_sign_free_images(s))), axis=-1, bitorder="little")
    words = packed.view(f"<u{packed.shape[-1]}").ravel()
    orbit = np.sort(np.concatenate((words, ~words)))
    return orbit[np.insert(orbit[1:] != orbit[:-1], 0, True)]


def orbit_least(parties: int, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least table of each table's orbit and the orbit's size (N <= 3).

    ``tables`` is a uint64 array in any order, repeats allowed; the results
    are per input table.  The least distinct table whose orbit is not yet
    known has its orbit gathered whole, and every table of the set in that
    orbit is marked, so each orbit met is scanned once whether or not the
    set is closed under the group.
    """
    distinct, inverse = np.unique(tables, return_inverse=True)
    least = np.zeros_like(distinct)
    size = np.zeros(len(distinct), dtype=np.int64)
    unseen = np.ones(len(distinct), dtype=bool)
    while unseen.any():
        orbit = orbit_words(SignFunction(parties, int(distinct[unseen.argmax()])))
        at = np.minimum(np.searchsorted(distinct, orbit), len(distinct) - 1)
        at = at[distinct[at] == orbit]
        least[at], size[at], unseen[at] = orbit[0], len(orbit), False
    return least[inverse], size[inverse]


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
