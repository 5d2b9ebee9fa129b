"""Enumeration of admissible sign functions and their symmetry census.

An admissible N-observer table is four sections over the last observer's
variable pair, one per assignment of that pair, and every section is an
admissible (N-1)-observer table.  The last observer's block condition forces
section 3 pointwise from the other three, so the stream is one recursion over
section triples, starting from the six valid one-observer blocks.  For two
observers an independent vectorized scan of all 2^16 tables
(``mode="exhaustive"``) cross-checks it.

The census (:func:`classify`) groups the stream into symmetry orbits via
explicit orbit scans and annotates each canonical class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .fourier import SignFunction, _table_bits, is_factorable, table_size
from .polytope import chsh_pattern, inequality_from_sign_function
from .symmetry import orbit_tables


class UnsupportedSize(ValueError):
    """Requested an enumeration outside the supported desk-scale range."""


# The six 4-entry patterns a single observer's block may take: value tables of
# +/-1, +/-u, +/-w on one variable pair (entry index bit 0 = first variable).
_VALID_BLOCKS = tuple(
    nib for nib in range(16)
    if ((nib >> 0 & 1) + (nib >> 3 & 1)) == ((nib >> 1 & 1) + (nib >> 2 & 1))
)


def _exhaustive_two() -> Iterator[int]:
    """Vectorized scan of all 2^16 tables via the local block test."""
    bits = _table_bits(2, range(1 << 16)).astype(np.int8)
    ok = np.ones(1 << 16, dtype=bool)
    for p, q in ((1, 2), (4, 8)):
        base = [k for k in range(16) if not k & (p | q)]
        for r in base:
            ok &= bits[:, r] + bits[:, r | p | q] == bits[:, r | p] + bits[:, r | q]
    return iter(int(t) for t in np.flatnonzero(ok))


@lru_cache(maxsize=None)
def _admissible_tables(parties: int) -> tuple[int, ...]:
    """Fully materialized admissible stream (memoized); N = 1 is the six blocks."""
    return _VALID_BLOCKS if parties == 1 else tuple(_table_stream(parties))


def _table_stream(parties: int) -> Iterator[int]:
    # Sections over the last observer's four pair assignments.  Each section
    # must itself be admissible for the first N-1 observers; the last
    # observer's block condition forces section 3 pointwise from the first
    # three and is valid only where sections 1 and 2 agreeing forces section
    # 0 to agree as well.
    prev = _admissible_tables(parties - 1)
    prev_set = frozenset(prev)
    m = table_size(parties - 1)
    mask = (1 << m) - 1
    for s0 in prev:
        for s1 in prev:
            d01 = s0 ^ s1
            for s2 in prev:
                agree = ~(s1 ^ s2) & mask
                if agree & d01:
                    continue
                s3 = s0 ^ (s1 ^ s2)
                if s3 in prev_set:
                    yield s0 | s1 << m | s2 << (2 * m) | s3 << (3 * m)


def enumerate_admissible(parties: int, mode: str = "backtracking") -> Iterator[SignFunction]:
    """Stream every admissible sign function exactly once, deterministically.

    ``mode`` is ``"backtracking"`` (the section recursion, any supported N)
    or ``"exhaustive"`` (N = 2 only, an independent scan of all 2^16 tables).
    """
    if not 2 <= parties <= 4:
        raise UnsupportedSize(f"enumeration supports 2 to 4 observers, got {parties}")
    if mode == "exhaustive":
        if parties != 2:
            raise UnsupportedSize("exhaustive mode scans 2^(2N) tables; only N=2 is viable")
        stream: Iterator[int] = _exhaustive_two()
    elif mode == "backtracking":
        stream = _table_stream(parties)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for table in stream:
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
    wall_time: float


def classify(parties: int) -> EnumerationReport:
    """Group the admissible stream into canonical classes and annotate them.

    For two observers every non-factorable class is verified to carry the
    CHSH coefficient pattern; a violation would falsify the construction and
    raises RuntimeError.
    """
    if parties not in (2, 3):
        raise UnsupportedSize(f"census is desk-scale for 2 or 3 observers, got {parties}")
    start = time.perf_counter()
    tables = _admissible_tables(parties)
    admissible = set(tables)
    seen: set[int] = set()
    classes: list[CanonicalClass] = []
    for t in tables:
        if t in seen:
            continue
        orb = orbit_tables(SignFunction(parties, t))
        if not orb <= admissible:
            raise RuntimeError("symmetry orbit left the admissible family")
        seen |= orb
        rep = SignFunction(parties, min(orb))
        classes.append(CanonicalClass(rep, len(orb), is_factorable(rep)))
    classes.sort(key=lambda c: c.representative.table)
    factorable_count = sum(c.orbit_size for c in classes if c.factorable)
    if parties == 2:
        for cls in classes:
            if not cls.factorable and not chsh_pattern(inequality_from_sign_function(cls.representative)):
                raise RuntimeError(
                    f"non-factorable class {cls.representative.to_text()} lacks the CHSH pattern"
                )
    return EnumerationReport(
        parties=parties,
        total_admissible=len(tables),
        canonical_classes=tuple(classes),
        factorable_count=factorable_count,
        wall_time=time.perf_counter() - start,
    )
