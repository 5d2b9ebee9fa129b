from functools import cache
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellfacets import (
    SignFunction,
    canonicalize,
    enumerate_admissible,
    fourier_transform,
    is_admissible,
    sign_function_of,
    table_size,
    two_setting_reduction,
)
from bellfacets import symmetry
from bellfacets.fourier import _bit_tables
from bellfacets.symmetry import _sign_free_images, orbit_least, orbit_words
from relabel import SymmetryElement, symmetry_group


@pytest.fixture(scope="module")
def group2():
    return symmetry_group(2)


@pytest.fixture(scope="module")
def admissible2():
    return [s for s in enumerate_admissible(2)]


def test_group_order(group2):
    assert len(group2) == 2 * 4 * 16 * 2  # perms * swaps * negations * sign
    assert len(set(group2)) == len(group2)


def test_symmetries_preserve_admissibility(group2, admissible2):
    rng = np.random.default_rng(41)
    for _ in range(100):
        s = admissible2[int(rng.integers(0, len(admissible2)))]
        g = group2[int(rng.integers(0, len(group2)))]
        moved = g.apply(s)
        assert is_admissible(moved)
        assert canonicalize(moved) == canonicalize(s)


def test_canonicalize_idempotent(admissible2):
    rng = np.random.default_rng(43)
    picks = rng.integers(0, len(admissible2), size=1000)
    for i in picks:
        c = canonicalize(admissible2[int(i)])
        assert canonicalize(c) == c
        assert c.table <= admissible2[int(i)].table


def test_constant_orbit_is_the_sign_pair():
    plus = SignFunction(2, 0)
    assert orbit_words(plus).tolist() == [0, 0xFFFF]
    assert canonicalize(plus) == plus


def test_all_chsh_variants_share_one_canonical_form():
    # the eight tables on one variable pair: a single -1 value in any of the
    # four cells, or its global negation
    variants = []
    for pos in range(4):
        def f(a, b, c, d, pos=pos):
            cell = (a == -1) + 2 * (c == -1)
            return -1 if cell == pos else 1

        s = SignFunction.from_function(2, f)
        variants.append(s)
        variants.append(SignFunction(2, s.table ^ 0xFFFF))
    # swapping which variable each observer contributes gives more variants
    for swap_first, swap_second in ((True, False), (False, True), (True, True)):
        def g(a, b, c, d, sf=swap_first, ss=swap_second):
            u = b if sf else a
            v = d if ss else c
            return -1 if u == v == -1 else 1

        variants.append(SignFunction.from_function(2, g))
    reps = {canonicalize(s).table for s in variants}
    assert len(reps) == 1


def test_variable_swap_permutes_spectrum():
    # exchanging observer 0's pair must exchange the matching monomial bits
    rng = np.random.default_rng(59)
    swap0 = SymmetryElement((0, 1), (True, False), ((False, False),) * 2, False)
    for _ in range(25):
        s = SignFunction(2, int(rng.integers(0, 1 << 16)))
        before = fourier_transform(s)
        after = fourier_transform(swap0.apply(s))
        for subset in range(16):
            swapped = (subset & 0b1100) | ((subset & 1) << 1) | ((subset >> 1) & 1)
            assert after[swapped] == before[subset]


def test_variable_negation_flips_spectrum_signs():
    rng = np.random.default_rng(61)
    neg_a = SymmetryElement((0, 1), (False, False), (((True, False)), (False, False)), False)
    for _ in range(25):
        s = SignFunction(2, int(rng.integers(0, 1 << 16)))
        before = fourier_transform(s)
        after = fourier_transform(neg_a.apply(s))
        for subset in range(16):
            sign = -1 if subset & 1 else 1
            assert after[subset] == sign * before[subset]


# ── orbits against the per-element reference ───────────────────────────────


def _reference_orbit(s, group):
    return {g.apply(s).table for g in group}


def test_orbit_matches_reference_two_observers(group2, admissible2):
    rng = np.random.default_rng(71)
    randoms = [SignFunction(2, int(t)) for t in rng.integers(0, 1 << 16, size=20)]
    for s in admissible2 + randoms:
        reference = _reference_orbit(s, group2)
        assert set(orbit_words(s).tolist()) == reference
        assert canonicalize(s).table == min(reference)


def test_orbit_matches_reference_three_observers():
    rng = np.random.default_rng(73)
    group3 = symmetry_group(3)
    stream = [s for s in enumerate_admissible(3)]
    picks = [stream[int(i)] for i in rng.integers(0, len(stream), size=6)]
    randoms = [SignFunction(3, int.from_bytes(rng.bytes(8), "little")) for _ in range(2)]
    for s in picks + randoms:
        reference = _reference_orbit(s, group3)
        assert set(orbit_words(s).tolist()) == reference
        assert canonicalize(s).table == min(reference)


def _library_gather_maps(parties):
    """Every map v -> moves[k][v] XOR m the image generator reads s through,
    in its order: the images of coordinate function j (-1 where variable j
    is -1) hold bit j of each map's value."""
    bits = np.arange(table_size(parties)) >> np.arange(2 * parties)[:, None] & 1
    coordinates = [SignFunction(parties, t) for t in _bit_tables(bits.astype(np.uint8))]
    return sum(np.concatenate(list(_sign_free_images(c))).astype(np.int64) << j
               for j, c in enumerate(coordinates))


@pytest.mark.parametrize("parties", [2, 3])
def test_gather_maps_are_the_inverses_of_the_sign_free_group(parties):
    # the whole group, not orbits of samples: each sign-free element of the
    # reference once, as the inverse of its assignment map
    reference = set()
    for g in symmetry_group(parties):
        if not g.flip_sign:
            inverse = np.empty(table_size(parties), dtype=np.int64)
            inverse[g.assignment_map()] = np.arange(table_size(parties))
            reference.add(tuple(inverse.tolist()))
    maps = [tuple(row) for row in _library_gather_maps(parties).tolist()]
    assert len(reference) == factorial(parties) * 8 ** parties  # 128 and 3072
    assert len(maps) == len(set(maps)) == len(reference)
    assert set(maps) == reference


def test_orbit_least_on_a_set_not_closed_under_the_group(monkeypatch):
    # the 256 two-setting tables hold only part of the orbits they meet; a
    # few images of them add further members of those orbits
    rng = np.random.default_rng(83)
    reduced = [sign_function_of(ineq) for ineq in two_setting_reduction(3)]
    group3 = symmetry_group(3)
    images = [group3[int(i)].apply(reduced[int(k)])
              for i, k in zip(rng.integers(0, len(group3), size=8), rng.integers(0, 256, size=8))]
    tables = np.unique(np.array([s.table for s in reduced + images], dtype=np.uint64))
    assert len(tables) > 256
    # the same tables shuffled, with repeats: results are per input table
    shuffled = rng.permutation(np.concatenate((tables, rng.choice(tables, size=40))))
    assert len(set(shuffled.tolist())) < len(shuffled)
    scanned = []
    monkeypatch.setattr(symmetry, "orbit_words", lambda s: scanned.append(s.table) or orbit_words(s))
    least, size = orbit_least(3, tables)
    orbits = dict(zip(least.tolist(), size.tolist()))
    assert len(scanned) == len(orbits)
    assert len(tables) < sum(orbits.values())
    scanned.clear()
    shuffled_least, shuffled_size = orbit_least(3, shuffled)
    assert len(scanned) == len(orbits)
    expected = {}
    for table in tables.tolist():
        s = SignFunction(3, table)
        expected[table] = (canonicalize(s).table, len(orbit_words(s)))
    assert list(zip(least.tolist(), size.tolist())) == [expected[t] for t in tables.tolist()]
    shuffled_results = list(zip(shuffled_least.tolist(), shuffled_size.tolist()))
    assert shuffled_results == [expected[t] for t in shuffled.tolist()]


def test_orbit_walk_rejects_four_observers():
    s = SignFunction.from_text("N=4;table=33cc330055ff553355cc0c0c55ff0c3faaccf3c0aafff3f3ccccccccaaffaaff")
    message = r"orbit words hold tables of N <= 3 observers, got N=4"
    with pytest.raises(ValueError, match=message):
        orbit_words(s)
    with pytest.raises(ValueError, match=message):
        orbit_least(4, np.zeros(1, dtype=np.uint64))


def test_orbit_four_observers_contains_sampled_images():
    # the full 196608-element reference is too slow here; sample the group
    rng = np.random.default_rng(79)
    s = SignFunction(4, int.from_bytes(rng.bytes(32), "little"))
    plain = {t for rows in _sign_free_images(s) for t in _bit_tables(rows)}
    orbit = plain | {t ^ ((1 << 256) - 1) for t in plain}
    assert 196608 % len(orbit) == 0
    canonical = canonicalize(s)
    assert canonical.table == min(orbit)
    for _ in range(10):
        g = SymmetryElement(
            tuple(int(i) for i in rng.permutation(4)),
            tuple(bool(b) for b in rng.integers(0, 2, size=4)),
            tuple((bool(a), bool(b)) for a, b in rng.integers(0, 2, size=(4, 2))),
            bool(rng.integers(0, 2)),
        )
        moved = g.apply(s)
        assert moved.table in orbit
        assert canonicalize(moved) == canonical


# ── spectrum under relabeling ───────────────────────────────────────────────


@cache
def _admissible_tables(parties):
    return sorted(s.table for s in enumerate_admissible(parties))


@st.composite
def _admissible_and_element(draw):
    parties = draw(st.sampled_from((2, 3)))
    tables = _admissible_tables(parties)
    s = SignFunction(parties, tables[draw(st.integers(0, len(tables) - 1))])
    g = SymmetryElement(
        draw(st.permutations(range(parties)).map(tuple)),
        draw(st.tuples(*[st.booleans()] * parties)),
        draw(st.tuples(*[st.tuples(st.booleans(), st.booleans())] * parties)),
        draw(st.booleans()),
    )
    return s, g


@settings(max_examples=150, deadline=None)
@given(case=_admissible_and_element())
def test_spectrum_of_image_is_signed_permutation(case):
    """(g.s)^(Q T) = sign * (-1)^|T & n| * s^(T): Q routes observer i's pair,
    swapped if g swaps it, to observer g.party_permutation[i]; n holds the
    negated variables; sign is -1 when g flips the global sign."""
    s, g = case
    before, after = fourier_transform(s), fourier_transform(g.apply(s))
    negated = sum(nu << (2 * i) | nw << (2 * i + 1) for i, (nu, nw) in enumerate(g.negations))
    for subset in range(1 << (2 * s.parties)):
        routed = 0
        for i, j in enumerate(g.party_permutation):
            u, w = subset >> (2 * i) & 1, subset >> (2 * i + 1) & 1
            if g.swaps[i]:
                u, w = w, u
            routed |= u << (2 * j) | w << (2 * j + 1)
        sign = (-1) ** (bin(subset & negated).count("1") + g.flip_sign)
        assert after[routed] == sign * before[subset]
