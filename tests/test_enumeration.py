from collections import Counter
from functools import cache
from itertools import islice

import numpy as np
import pytest

from bellfacets import (
    SignFunction,
    canonicalize,
    enumerate_admissible,
    inequality_from_sign_function,
    is_admissible,
    is_factorable,
)
from bellfacets import enumeration, symmetry
from bellfacets.enumeration import classify
from bellfacets.polytope import BellInequality
from chsh import chsh_pattern
from exhaustive import exhaustive_two

N2_ADMISSIBLE = 90      # established by the exhaustive 2^16 scan
N3_ADMISSIBLE = 51678   # established by the section recursion, cross-checked below
N2_FACTORABLE = 18
N3_FACTORABLE = 54


def test_exhaustive_matches_backtracking():
    exhaustive = exhaustive_two()
    backtracked = [s.table for s in enumerate_admissible(2)]
    assert exhaustive == sorted(backtracked)
    assert len(exhaustive) == N2_ADMISSIBLE


def _reference_stream(parties):
    """The section recursion as a plain triple loop over (s0, s1, s2), each
    section drawn from the sorted previous level, the order the stream keeps;
    one observer has the six valid blocks."""
    if parties == 1:
        yield from (b for b in range(16) if (b & 1) + (b >> 3 & 1) == (b >> 1 & 1) + (b >> 2 & 1))
        return
    prev = sorted(_reference_tables(parties - 1))
    members = frozenset(prev)
    m = 1 << (2 * (parties - 1))
    mask = (1 << m) - 1
    for s0 in prev:
        for s1 in prev:
            for s2 in prev:
                if ~(s1 ^ s2) & mask & (s0 ^ s1):
                    continue
                s3 = s0 ^ s1 ^ s2
                if s3 in members:
                    yield s0 | s1 << m | s2 << (2 * m) | s3 << (3 * m)


@cache
def _reference_tables(parties):
    return tuple(_reference_stream(parties))


def test_one_observer_blocks_match_the_nibble_predicate():
    # one step of the recursion from the constant tables 0 and 1 gives the blocks
    blocks = enumeration._admissible_tables(1)
    assert blocks.tolist() == list(_reference_tables(1)) == [0, 3, 5, 10, 12, 15]


@pytest.mark.parametrize("parties, count", [(0, 2), (1, 6), (2, N2_ADMISSIBLE), (3, N3_ADMISSIBLE)])
def test_every_level_is_sorted_read_only_and_repeat_free(parties, count):
    tables = enumeration._admissible_tables(parties)
    assert tables.dtype == np.uint64 and not tables.flags.writeable
    assert len(tables) == count and (tables[1:] > tables[:-1]).all()  # sorted, no repeats


@pytest.mark.parametrize("parties", [2, 3])
def test_stream_matches_triple_loop_reference(parties):
    assert [s.table for s in enumerate_admissible(parties)] == list(_reference_tables(parties))


def test_four_observer_stream_head_matches_reference():
    head = [s.table for s in islice(enumerate_admissible(4), 2000)]
    assert head == list(islice(_reference_stream(4), 2000))


def test_stream_is_deterministic():
    first = [s.table for s in enumerate_admissible(2)]
    second = [s.table for s in enumerate_admissible(2)]
    assert first == second


def test_stream_contains_chsh_and_its_variants(chsh_sign):
    tables = {s.table for s in enumerate_admissible(2)}
    assert chsh_sign.table in tables
    # all eight minus-position / global-sign variants on the same pair
    for pos in range(4):
        def f(a, b, c, d, pos=pos):
            return -1 if (a == -1) + 2 * (c == -1) == pos else 1

        s = SignFunction.from_function(2, f)
        assert s.table in tables and (s.table ^ 0xFFFF) in tables
    # and the variants using the other variable of each observer
    swapped = SignFunction.from_function(2, lambda a, b, c, d: -1 if b == d == -1 else 1)
    assert swapped.table in tables


def test_stream_factorable_count():
    stream = list(enumerate_admissible(2))
    assert sum(1 for s in stream if is_factorable(s)) == N2_FACTORABLE


def test_three_observer_count_against_pairing_oracle():
    """Independent count: sections 0 and 3 must pointwise-sum like 1 and 2,
    so the total is a sum of squared pair-class sizes over two-observer
    admissible tables."""
    tables = [s.table for s in enumerate_admissible(2)]
    pair_classes = Counter((a ^ b, a & b) for a in tables for b in tables)
    expected = sum(c * c for c in pair_classes.values())
    assert expected == N3_ADMISSIBLE
    stream = [s.table for s in enumerate_admissible(3)]
    assert len(stream) == N3_ADMISSIBLE
    assert len(set(stream)) == N3_ADMISSIBLE


def test_three_observer_stream_is_admissible_sample():
    rng = np.random.default_rng(2)
    stream = list(enumerate_admissible(3))
    for i in rng.integers(0, len(stream), size=200):
        assert is_admissible(stream[int(i)])


@pytest.mark.parametrize("parties", [5, 1])
def test_unsupported_sizes(parties):
    with pytest.raises(ValueError, match=r"parties must be in \[2, 4\]"):
        next(enumerate_admissible(parties))


def test_census_rejects_an_orbit_leaving_the_family(monkeypatch):
    real = symmetry.orbit_words
    # table 1 has a single -1 entry, which breaks a block condition
    monkeypatch.setattr(symmetry, "orbit_words", lambda s: np.append(real(s), 1))
    with pytest.raises(RuntimeError, match="left the admissible family"):
        classify(2)


def test_classify_rejects_four_observers():
    with pytest.raises(ValueError, match="desk-scale"):
        classify(4)


# ── census ──────────────────────────────────────────────────────────────────


def test_census_two_observers(census2):
    assert census2.parties == 2
    assert census2.total_admissible == N2_ADMISSIBLE
    assert census2.factorable_count == N2_FACTORABLE
    sizes = sorted(c.orbit_size for c in census2.canonical_classes)
    assert sizes == [2, 8, 8, 8, 32, 32]
    assert sum(c.orbit_size for c in census2.canonical_classes) == N2_ADMISSIBLE
    trivial = sorted(c.orbit_size for c in census2.canonical_classes if c.factorable)
    assert trivial == [2, 8, 8]


def test_census_representatives_are_canonical(census2):
    for cls in census2.canonical_classes:
        assert canonicalize(cls.representative) == cls.representative


def test_census_nontrivial_classes_are_chsh(census2):
    for cls in census2.canonical_classes:
        ineq = inequality_from_sign_function(cls.representative)
        assert chsh_pattern(ineq) == (not cls.factorable)


@pytest.mark.parametrize("coeffs, expected", [
    ([[8, 8, 0], [8, -8, 0], [0, 0, 0]], True),
    ([[8, 8, 0], [8, -16, 0], [0, 0, 0]], False),  # unequal magnitudes
    ([[8, 8, -8], [8, 0, 0], [0, 0, 0]], False),  # settings used per observer: 2 and 3
], ids=["chsh", "unequal-magnitudes", "spread-2-3"])
def test_chsh_pattern_rejects_near_misses(coeffs, expected):
    ineq = BellInequality(2, np.array(coeffs, dtype=np.int64), 16)
    assert chsh_pattern(ineq) is expected


def test_census_three_observers(census3):
    assert census3.total_admissible == N3_ADMISSIBLE
    assert census3.factorable_count == N3_FACTORABLE
    assert len(census3.canonical_classes) == 76
    assert sum(c.orbit_size for c in census3.canonical_classes) == N3_ADMISSIBLE


def test_census_three_observers_has_three_setting_class(census3):
    found = False
    for cls in census3.canonical_classes:
        coeffs = inequality_from_sign_function(cls.representative).coeffs
        support = np.argwhere(coeffs)
        for party in range(3):
            if len(set(support[:, party].tolist())) == 3:
                found = True
    assert found, "no canonical class uses three settings for any observer"

