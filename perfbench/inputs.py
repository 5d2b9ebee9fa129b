"""Seeded workload inputs, built with the public bellfacets API only.

Every generator is a pure function of its seed: the same seed gives the same
tables and the same catalog bytes.  Candidate tables are drawn from sorted
lists, so a change in the library's enumeration order does not change them.
"""

from __future__ import annotations

import random

from bellfacets import (
    SignFunction,
    certify_tightness,
    classify,
    enumerate_admissible,
    inequality_from_sign_function,
    is_admissible,
)
from bellfacets.catalog import inequality_entry

# Three-observer parity (Mermin) facet; with the GHZ state its ratio is 2.
MERMIN = "N=3;table=fafa5f5ffafa5f5f"

# Fixed N=4 functions for the see-saw step of the n4 workload.  The number of
# see-saw iterations differs up to fivefold between random N=4 functions, so a
# seeded draw would make violate_s depend on the seed more than on the code.
# They are entries 7 and 1 of n4_sample(12345, 8), kept as text.
N4_SEESAW = (
    "N=4;table=33cc330055ff553355cc0c0c55ff0c3faaccf3c0aafff3f3ccccccccaaffaaff",
    "N=4;table=35ac35accccccccc35ac35accccccccc3a5c3a5c33aa33aa3a5c3a5c33aa33aa",
)


def entry_for(text: str, canonical: bool) -> dict:
    """Catalog entry with exact certificate fields, as the CLI writes them."""
    ineq = inequality_from_sign_function(SignFunction.from_text(text))
    return inequality_entry(ineq, certify_tightness(ineq), canonical=canonical)


def n4_sample(seed: int, count: int) -> list[str]:
    """``count`` distinct admissible N=4 tables, uniform over the family.

    An N=4 table is four sections over the last observer's pair,
    (s0, s1, s2, s0^s1^s2).  It is admissible exactly when every section is
    N=3-admissible and s0 agrees with s1 wherever s1 agrees with s2.  Drawing
    (s0, s1, s2) uniformly and rejecting the rest is uniform over the family;
    each accepted table is confirmed with ``is_admissible``.
    """
    sections = sorted(s.table for s in enumerate_admissible(3))
    members = frozenset(sections)
    width = 64
    mask = (1 << width) - 1
    rng = random.Random(seed)
    drawn: list[str] = []
    while len(drawn) < count:
        s0, s1, s2 = (sections[rng.randrange(len(sections))] for _ in range(3))
        if ~(s1 ^ s2) & mask & (s0 ^ s1):
            continue
        s3 = s0 ^ s1 ^ s2
        if s3 not in members:
            continue
        s = SignFunction(4, s0 | s1 << width | s2 << (2 * width) | s3 << (3 * width))
        if not is_admissible(s):
            raise RuntimeError(f"section rule produced a non-admissible table {s.to_text()}")
        text = s.to_text()
        if text not in drawn:
            drawn.append(text)
    return drawn


def seesaw3_subset(seed: int) -> list[str]:
    """The N=3 class representatives with one seeded dense class.

    The five dense 16-term classes take ~1000 see-saw iterations each; the
    other 71 converge within ten.  Keeping one dense class keeps both kinds.
    """
    texts = [c.representative.to_text() for c in classify(3).canonical_classes]
    dense = sorted(t for t in texts if _terms(t) == 16)
    keep = random.Random(seed).choice(dense)
    return [t for t in texts if t not in dense or t == keep]


def _terms(text: str) -> int:
    return int((inequality_from_sign_function(SignFunction.from_text(text)).coeffs != 0).sum())
