import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellfacets import (
    SignFunction,
    fourier_transform,
    is_admissible,
    is_factorable,
    table_size,
)
from bellfacets.fourier import _admissible, _fwht, _pair_codes, _setting_subsets


def naive_spectrum(s):
    """Direct character sums, the independent oracle for the fast transform."""
    n = table_size(s.parties)
    vals = s.values()
    out = []
    for subset in range(n):
        acc = 0
        for v in range(n):
            sign = -1 if bin(subset & v).count("1") % 2 else 1
            acc += int(vals[v]) * sign
        out.append(acc)
    return out


def subset_settings(parties, subset):
    """Observer i's setting read off subset bits 2i and 2i+1 (absent -> 0,
    first -> 1, second -> 2); None for a local product (both bits set)."""
    settings = tuple((subset >> 2 * i & 1) + 2 * (subset >> 2 * i + 1 & 1) for i in range(parties))
    return None if 3 in settings else settings


def random_sign_function(parties, rng):
    return SignFunction(parties, int.from_bytes(rng.bytes(table_size(parties) // 8), "little"))


# ── variable assignments ────────────────────────────────────────────────────


def test_assignment_round_trip():
    for parties in (2, 3, 4):
        codes = _pair_codes(parties)
        assert codes.shape == (4 ** parties, parties) and not codes.flags.writeable
        packed = (codes << 2 * np.arange(parties)).sum(axis=1)
        assert (packed == np.arange(4 ** parties)).all()


def test_assignment_rejects_stray_bits():
    with pytest.raises(ValueError):
        SignFunction(2, 1 << 16)
    # a table must be a Python int: to_text needs int.to_bytes; True would read as table 1
    for table, kind in ((np.uint64(5), "uint64"), (5.0, "float"), (True, "bool")):
        with pytest.raises(ValueError, match=f"^table must be an int, got {kind}$"):
            SignFunction(2, table)
    for parties in (1, 5):
        with pytest.raises(ValueError):
            _pair_codes(parties)
        with pytest.raises(ValueError):
            SignFunction.from_function(parties, lambda *values: 1)


def test_assignment_values():
    seen = []
    SignFunction.from_function(2, lambda *values: seen.append(values) or 1)
    assert seen[0b1001] == (-1, 1, 1, -1)
    assert _pair_codes(2)[0b1001].tolist() == [1, 2]  # u_0 = -1; w_1 = -1


# ── monomials on settings tuples ────────────────────────────────────────────


def test_monomial_local_product():
    assert 0b0011 not in _setting_subsets(2)  # both variables of observer 0
    assert 0b0101 in _setting_subsets(2)
    for parties in (1, 2, 3, 4):
        kept = [t for t in range(table_size(parties)) if subset_settings(parties, t) is not None]
        assert sorted(_setting_subsets(parties).tolist()) == kept  # no code 3, each subset once


def test_monomial_settings_round_trip():
    for parties in (1, 2, 3, 4):
        subsets = _setting_subsets(parties)
        assert not subsets.flags.writeable
        # one-to-one onto the 3^N tuples, row-major with observer 0 slowest
        decoded = [subset_settings(parties, t) for t in subsets.tolist()]
        assert decoded == list(product(range(3), repeat=parties))


# ── forward transform ───────────────────────────────────────────────────────


def test_constant_function_spectrum():
    s = SignFunction(2, 0)
    spec = fourier_transform(s)
    assert spec[0] == 16
    assert all(spec[t] == 0 for t in range(1, 16))


def test_single_character_spectrum():
    s = SignFunction.from_function(2, lambda a, b, c, d: a)
    spec = fourier_transform(s)
    assert spec[0b0001] == 16
    assert np.abs(spec).sum() == 16


def test_chsh_spectrum(chsh_sign):
    spec = fourier_transform(chsh_sign)
    expected = {0b0000: 8, 0b0001: 8, 0b0100: 8, 0b0101: -8}
    assert {t: int(spec[t]) for t in np.flatnonzero(spec).tolist()} == expected
    assert naive_spectrum(chsh_sign) == spec.tolist()


def test_spectrum_is_a_read_only_int64_array():
    spec = fourier_transform(SignFunction(3, 0))
    assert spec.dtype == np.int64 and spec.shape == (64,)
    with pytest.raises(ValueError):
        spec[0] = 0


@pytest.mark.parametrize("parties,samples", [(2, 40), (3, 8)])
def test_transform_matches_naive_oracle(parties, samples):
    rng = np.random.default_rng(20240 + parties)
    for _ in range(samples):
        s = random_sign_function(parties, rng)
        assert fourier_transform(s).tolist() == naive_spectrum(s)


@pytest.mark.parametrize("parties", [2, 3, 4])
def test_parseval_evenness_and_bound(parties):
    rng = np.random.default_rng(7 + parties)
    n = table_size(parties)
    for _ in range(50):
        coeffs = fourier_transform(random_sign_function(parties, rng))
        assert (coeffs ** 2).sum() == n * n
        assert not np.any(coeffs % 2)
        assert np.abs(coeffs).max() <= n


def test_negation_covariance():
    rng = np.random.default_rng(99)
    for _ in range(25):
        s = random_sign_function(2, rng)
        neg = SignFunction(2, s.table ^ 0xFFFF)
        assert np.array_equal(-fourier_transform(s), fourier_transform(neg))


# ── reconstruction ──────────────────────────────────────────────────────────


def test_round_trip_on_random_functions():
    # the transform is its own inverse up to the factor 4^N
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        s = random_sign_function(2, rng)
        assert np.array_equal(_fwht(fourier_transform(s)), 16 * s.values())


# ── admissibility ───────────────────────────────────────────────────────────


def test_chsh_is_admissible(chsh_sign):
    assert is_admissible(chsh_sign)


def test_local_pair_product_not_admissible():
    s = SignFunction.from_function(2, lambda a, b, c, d: a * b)
    assert not is_admissible(s)


def _spectral_admissible(values, parties):
    """Admissibility via the spectrum, the defining criterion (batch-capable)."""
    spec = _fwht(values)
    ok = np.ones(spec.shape[:-1], dtype=bool)
    for subset in range(table_size(parties)):
        if subset_settings(parties, subset) is None:
            ok &= spec[..., subset] == 0
    return ok


def test_block_test_equals_spectral_definition_exhaustive_two_observers():
    bits = np.unpackbits(
        np.arange(1 << 16, dtype="<u2").view(np.uint8).reshape(-1, 2),
        axis=1,
        bitorder="little",
    )
    values = (1 - 2 * bits).astype(np.int64)
    by_blocks = _admissible(values, 2)
    by_spectrum = _spectral_admissible(values, 2)
    assert np.array_equal(by_blocks, by_spectrum)
    assert np.array_equal(_admissible(bits, 2), by_blocks)  # the test is linear: bits decide alike
    assert by_blocks.sum() == 90


def test_block_test_equals_spectral_definition_random_three_observers():
    rng = np.random.default_rng(31337)
    values = rng.choice(np.array([-1, 1], dtype=np.int8), size=(100_000, 64))
    assert np.array_equal(_admissible(values, 3), _spectral_admissible(values, 3))


# ── factorability ───────────────────────────────────────────────────────────


def test_single_cross_character_is_factorable():
    s = SignFunction.from_function(2, lambda a, b, c, d: a * c)
    assert is_admissible(s) and is_factorable(s)


def test_chsh_not_factorable(chsh_sign):
    assert not is_factorable(chsh_sign)


# ── textual ingestion ───────────────────────────────────────────────────────


def test_text_round_trip(chsh_sign):
    assert chsh_sign.to_text() == "N=2;table=a0a0"
    assert SignFunction.from_text(chsh_sign.to_text()) == chsh_sign


_MALFORMED_TEXTS = {
    "": "malformed sign-function text ''",
    "N=2": "malformed sign-function text 'N=2'",
    "N=2;table=a0": "table hex must have 4 digits for N=2",
    "N=2;table=a0a0a0": "table hex must have 4 digits for N=2",
    "N=9;table=a0a0": "parties must be in [2, 4], got 9",
    "table=a0a0;N=2": "malformed sign-function text 'table=a0a0;N=2'",
    "2;table=ff00": "malformed sign-function text '2;table=ff00'",
    "N=2;table=ffzz": "malformed sign-function text 'N=2;table=ffzz'",
    "N=3;table=ff ff ffffffffff": "malformed sign-function text 'N=3;table=ff ff ffffffffff'",
    "N=9;table=zz": "parties must be in [2, 4], got 9",
}


@pytest.mark.parametrize("text", list(_MALFORMED_TEXTS))
def test_text_rejects_malformed(text):
    with pytest.raises(ValueError, match=f"^{re.escape(_MALFORMED_TEXTS[text])}$"):
        SignFunction.from_text(text)


_near_texts = st.builds(
    "N={};table={}".format,
    st.one_of(st.integers(-3, 6).map(str), st.text(max_size=4)),
    st.one_of(st.text("0123456789abcdefABCDEF \t", max_size=70), st.text(max_size=8)),
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), _near_texts))
def test_text_parser_raises_only_value_error(text):
    try:
        s = SignFunction.from_text(text)
    except ValueError:
        return
    assert SignFunction.from_text(s.to_text()) == s


def test_from_values_rejects_non_sign():
    with pytest.raises(ValueError, match=r"table entry 15 is 2, not \+/-1"):
        SignFunction.from_values(2, [1] * 15 + [2])


def test_from_values_rejects_a_table_of_the_wrong_length():
    with pytest.raises(ValueError, match="^need 16 values, got 2$"):
        SignFunction.from_values(2, [1, 1])
