"""Enumeration of admissible sign functions and their symmetry census.

An admissible N-observer table is four sections over the last observer's
variable pair, one per assignment of that pair, and every section is an
admissible (N-1)-observer table.  The last observer's block condition forces
section 3 pointwise from the other three, so the stream is one recursion over
section triples.  It starts from the constant tables +/-1 at zero observers,
and its first step gives the six valid one-observer blocks +/-1, +/-u and
+/-w; each step tests blocks of triples as arrays.  The tests hold it to an
independent scan of all 2^16 tables for two observers.

The census (:func:`classify`) groups the streamed tables by the least table
of their orbits, which the symmetry module's orbit walk supplies; each
canonical class is annotated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .fourier import SignFunction, _check_parties, is_factorable, table_size
from .symmetry import orbit_least


# Candidate (s0, s1, s2) triples tested per block: 12 blocks cover N=3, and at
# N=4 a block is one (s0, s1) pair against all 51678 s2, so the stream stays
# lazy and its transients stay small.
_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _admissible_tables(parties: int) -> np.ndarray:
    """Every admissible packed table, sorted, as read-only uint64 (memoized,
    N <= 3); N = 0 is the two constant tables +/-1."""
    if parties == 0:
        tables = np.array([0, 1], dtype=np.uint64)
    else:
        tables = np.sort(np.fromiter(_table_stream(parties), dtype=np.uint64))
    tables.setflags(write=False)
    return tables


def _table_stream(parties: int) -> Iterator[int]:
    # Sections over the last observer's four pair assignments.  Each section
    # must itself be admissible for the first N-1 observers; the last
    # observer's block condition forces section 3 pointwise from the first
    # three and is valid only where sections 1 and 2 agreeing forces section
    # 0 to agree as well.  Each block tests a run of (s0, s1) pairs against
    # every s2; hits come out in (s0, s1, s2) order, packed only then.
    prev = _admissible_tables(parties - 1)
    count = len(prev)
    m = table_size(parties - 1)
    mask = np.uint64((1 << m) - 1)
    step = max(1, _BLOCK // count)
    for start in range(0, count * count, step):
        pairs = np.arange(start, min(start + step, count * count))
        s0, s1 = prev[pairs // count, None], prev[pairs % count, None]
        row, col = np.nonzero((~(s1 ^ prev) & mask & (s0 ^ s1)) == 0)
        s0, s1, s2 = s0[row, 0], s1[row, 0], prev[col]
        s3 = s0 ^ s1 ^ s2
        hit = prev[np.minimum(np.searchsorted(prev, s3), count - 1)] == s3
        s0, s1, s2, s3 = s0[hit], s1[hit], s2[hit], s3[hit]
        if parties <= 3:  # the packed table fits one machine word
            yield from (s0 | s1 << m | s2 << (2 * m) | s3 << (3 * m)).tolist()
        else:  # four 64-bit sections, read one table at a time as a Python int
            raw = np.stack((s0, s1, s2, s3), axis=1).astype("<u8").tobytes()
            yield from (int.from_bytes(raw[i:i + 32], "little") for i in range(0, len(raw), 32))


def enumerate_admissible(parties: int) -> Iterator[SignFunction]:
    """Stream every admissible sign function exactly once, deterministically,
    by the section recursion."""
    _check_parties(parties)
    for table in _table_stream(parties):
        yield SignFunction(parties, table)


@dataclass(frozen=True)
class CanonicalClass:
    """One symmetry orbit: least-table representative, size, triviality."""

    representative: SignFunction
    orbit_size: int
    factorable: bool


@dataclass(frozen=True)
class EnumerationReport:
    parties: int
    total_admissible: int
    canonical_classes: tuple[CanonicalClass, ...]
    factorable_count: int


def classify(parties: int) -> EnumerationReport:
    """Group the admissible stream into canonical classes and annotate them."""
    if parties not in (2, 3):
        raise ValueError(f"census is desk-scale for 2 or 3 observers, got {parties}")
    tables = _admissible_tables(parties)
    least, size = orbit_least(parties, tables)
    reps, first, members = np.unique(least, return_index=True, return_counts=True)
    # a class holds every image of its orbit unless the orbit left the family
    if not np.array_equal(members, size[first]):
        raise RuntimeError("symmetry orbit left the admissible family")
    classes = []
    for table, orbit_size in zip(reps.tolist(), size[first].tolist()):
        rep = SignFunction(parties, table)
        classes.append(CanonicalClass(rep, orbit_size, is_factorable(rep)))
    factorable_count = sum(c.orbit_size for c in classes if c.factorable)
    return EnumerationReport(
        parties=parties,
        total_admissible=len(tables),
        canonical_classes=tuple(classes),
        factorable_count=factorable_count,
    )
