from collections import Counter
from fractions import Fraction
from functools import cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellfacets import (
    BellInequality,
    SignFunction,
    TightnessCertificate,
    certify_tightness,
    enumerate_admissible,
    fourier_transform,
    fraction_free_rank,
    inequality_from_sign_function,
    lhv_max,
    lhv_max_by_strategies,
    sign_function_of,
    two_setting_reduction,
    vertex_matrix,
)
from bellfacets import polytope
from bellfacets.polytope import _WITNESS_PRIME, _strategy_matrix, _vertex_values
from relabel import SymmetryElement


@pytest.fixture(scope="module")
def inequalities2():
    return [inequality_from_sign_function(s) for s in enumerate_admissible(2)]


# ── vertices ────────────────────────────────────────────────────────────────


def _vertex_row(parties, bits, sign):
    """Reference vertex: sign * (1, u_0, w_0) x ... x (1, u_{N-1}, w_{N-1}),
    with u_i, w_i read from bits 2i and 2i+1 of the assignment."""
    factors = [np.array([1, 1 - 2 * (bits >> 2 * i & 1), 1 - 2 * (bits >> 2 * i + 1 & 1)])
               for i in range(parties)]
    return sign * reduce(np.multiply.outer, factors).ravel()


def test_all_plus_vertex_tensor():
    row = vertex_matrix(2)[0]
    assert row.shape == (9,)
    assert (row == 1).all()


def test_single_flip_negates_one_row():
    tensor = vertex_matrix(2)[0b0001].reshape(3, 3)  # observer 0's first variable is -1
    assert (tensor[1, :] == -1).all()
    assert (tensor[[0, 2], :] == 1).all()


def test_vertex_normalization_entry_and_count():
    K = vertex_matrix(2)
    assert K.shape == (16, 9) and K.dtype == np.int64 and not K.flags.writeable
    mat = np.concatenate((K, -K))  # the vertices +K[v], then -K[v]
    assert len({row.tobytes() for row in mat}) == 32
    assert (mat[:, 0] == np.repeat([1, -1], 16)).all()  # the entry at settings (0, 0) is the sign
    assert set(np.unique(mat)) <= {-1, 1}


def test_vertex_rows_match_the_product_formula():
    rng = np.random.default_rng(13)
    for parties in (2, 3, 4):
        mat = vertex_matrix(parties)
        assert mat.shape == (4 ** parties, 3 ** parties)
        assert mat.dtype == np.int64 and not mat.flags.writeable
        for bits in rng.integers(0, 4 ** parties, size=12).tolist():
            assert np.array_equal(mat[bits], _vertex_row(parties, bits, 1))
            assert np.array_equal(-mat[bits], _vertex_row(parties, bits, -1))


@pytest.mark.parametrize("parties", [1, 5])
def test_vertex_matrix_rejects_unsupported_parties(parties):
    with pytest.raises(ValueError, match="parties must be in"):
        vertex_matrix(parties)
    with pytest.raises(ValueError, match="parties must be in"):
        BellInequality(parties, np.zeros((3,) * parties, dtype=np.int64), 1)


def test_inequality_rejects_a_tensor_of_the_wrong_shape(chsh_inequality):
    with pytest.raises(ValueError, match=r"^coeffs must have shape \(3, 3\)$"):
        BellInequality(2, np.zeros((3, 3, 3), dtype=np.int64), 16)
    # lhv_max would read 16 for this tensor, whose true maximum is 16.5
    shifted = chsh_inequality.coeffs.astype(float)
    shifted[0, 0] += 0.5
    with pytest.raises(ValueError, match="^coeffs must be a signed-integer array, got float64$"):
        BellInequality(2, shifted, 16)
    with pytest.raises(ValueError, match="^coeffs must be a signed-integer array, got list$"):
        BellInequality(2, chsh_inequality.coeffs.tolist(), 16)


@st.composite
def _integer_tensors(draw):
    parties = draw(st.sampled_from((2, 3, 4)))
    entries = st.one_of(st.integers(-4, 4), st.integers(-(2**40), 2**40))
    flat = draw(st.lists(entries, min_size=3 ** parties, max_size=3 ** parties))
    return BellInequality(parties, np.array(flat, dtype=np.int64).reshape((3,) * parties), 1)


@settings(max_examples=80, deadline=None)
@given(ineq=_integer_tensors())
def test_vertex_values_match_the_product_formula(ineq):
    # every v at N <= 3 and a seeded sample at N = 4, each summed in Python ints
    values = _vertex_values(ineq)
    assert values.dtype == np.int64 and values.shape == (4 ** ineq.parties,)
    flat = ineq.coeffs.ravel().tolist()
    if ineq.parties <= 3:
        sample = range(4 ** ineq.parties)
    else:
        sample = np.random.default_rng(31).choice(4 ** ineq.parties, size=24, replace=False).tolist()
    for bits in sample:
        row = _vertex_row(ineq.parties, bits, 1).tolist()
        assert int(values[bits]) == sum(k * c for k, c in zip(row, flat))


def test_vertex_values_stay_exact_at_the_catalog_limit():
    # every coefficient at +/- the largest magnitude a catalog entry may hold at N=4;
    # each entry of the int64 product sums 81 of them and must stay exact
    limit = (2**63 - 1) // 3**4
    K = vertex_matrix(4)
    rng = np.random.default_rng(29)
    for signs in (K[0], K[0b10_01_11_00], -K[255], rng.choice([-1, 1], size=81)):
        flat = [int(x) * limit for x in signs]
        ineq = BellInequality(4, np.array(flat, dtype=np.int64).reshape((3,) * 4), 1)
        exact = [sum(k * c for k, c in zip(row, flat)) for row in K.tolist()]
        assert _vertex_values(ineq).tolist() == exact
    assert 81 * limit > 2**62  # the score of a pattern K[v] at v: the three row patterns reach it


def test_unit_resolution_spot_checks():
    rng = np.random.default_rng(11)
    for parties, trials in ((2, 30), (3, 10)):
        mat = vertex_matrix(parties)  # the rows K[v]; the signs of +/-K[v] cancel pairwise
        for _ in range(trials):
            signs = rng.choice([-1, 1], size=len(mat)).astype(np.int64)
            signed = mat * signs[:, None]
            gram = signed.T @ signed
            assert (gram == (1 << (2 * parties)) * np.eye(3 ** parties, dtype=np.int64)).all()


# ── strategies ──────────────────────────────────────────────────────────────


def _strategy_outcomes(parties, bits):
    """Observer i's outcomes at settings 0, 1, 2: bits 3i, 3i+1, 3i+2 (set = -1)."""
    return [[1 - 2 * (bits >> (3 * i + n) & 1) for n in range(3)] for i in range(parties)]


def _strategy_vertex_row(parties, bits):
    """The vertex a strategy lands on, as (assignment, sign x): x = product of
    reference outcomes; u_i, w_i = reference outcome times setting-1/2 outcome."""
    sign, assignment = 1, 0
    for i, (m0, m1, m2) in enumerate(_strategy_outcomes(parties, bits)):
        sign *= m0
        assignment |= (m0 * m1 == -1) << 2 * i | (m0 * m2 == -1) << 2 * i + 1
    return assignment, sign


def test_all_plus_strategy_correlations():
    assert (_strategy_matrix(2)[0] == 1).all()


def test_strategy_change_of_variables():
    bits = 1 << 1 | 1 << 5
    assert _strategy_outcomes(2, bits) == [[1, -1, 1], [1, 1, -1]]
    assert _strategy_vertex_row(2, bits) == (0b1001, 1)  # u_0 = w_1 = -1, sign +1
    assert np.array_equal(_strategy_matrix(2)[bits], vertex_matrix(2)[0b1001])


def test_strategies_double_cover_vertices():
    for parties in (2, 3, 4):
        K = vertex_matrix(parties)
        row_of = {row.tobytes(): k for k, row in enumerate(np.concatenate((K, -K)))}
        hits = Counter(row_of[row.tobytes()] for row in _strategy_matrix(parties))
        assert len(hits) == 2 ** (2 * parties + 1)
        assert set(hits.values()) == {2 ** (parties - 1)}
    for bits, row in enumerate(_strategy_matrix(2)):
        assignment, sign = _strategy_vertex_row(2, bits)
        assert np.array_equal(row, sign * vertex_matrix(2)[assignment])


# ── inequality generation ───────────────────────────────────────────────────


def test_chsh_inequality_coefficients(chsh_inequality):
    expected = np.zeros((3, 3), dtype=np.int64)
    expected[0, 0] = expected[0, 1] = expected[1, 0] = 8
    expected[1, 1] = -8
    assert (chsh_inequality.coeffs == expected).all()
    assert chsh_inequality.bound == 16


def test_trivial_inequality_coefficients():
    ineq = inequality_from_sign_function(SignFunction(2, 0))
    assert ineq.coeffs[0, 0] == 16
    assert np.count_nonzero(ineq.coeffs) == 1


def test_inadmissible_function_is_rejected():
    with pytest.raises(ValueError, match="local-product Fourier component"):
        inequality_from_sign_function(SignFunction.from_function(2, lambda a, b, c, d: a * b))


def _reference_inequality_coeffs(s):
    """The spectrum placed monomial by monomial; None when a local product
    carries weight (the spectral definition of not admissible)."""
    coeffs = np.zeros((3,) * s.parties, dtype=np.int64)
    for subset, value in enumerate(fourier_transform(s).tolist()):
        # observer i's setting is its pair code u + 2w from bits 2i, 2i+1; 3 is a local product
        settings = tuple((subset >> 2 * i & 1) + 2 * (subset >> 2 * i + 1 & 1) for i in range(s.parties))
        if 3 in settings:
            if value:
                return None
            continue
        coeffs[settings] = value
    return coeffs


def _section_rule_tables4(seed, count):
    """Seeded admissible N=4 tables (s0, s1, s2, s0^s1^s2) from N=3 sections."""
    sections = _admissible_tables3()
    members = frozenset(sections)
    rng = np.random.default_rng(seed)
    drawn = []
    while len(drawn) < count:
        s0, s1, s2 = (sections[int(i)] for i in rng.integers(0, len(sections), size=3))
        if ~(s1 ^ s2) & ((1 << 64) - 1) & (s0 ^ s1) or s0 ^ s1 ^ s2 not in members:
            continue
        drawn.append(SignFunction(4, s0 | s1 << 64 | s2 << 128 | (s0 ^ s1 ^ s2) << 192))
    return drawn


def test_coefficient_placement_matches_monomial_reference(census3):
    functions = (list(enumerate_admissible(2))
                 + [c.representative for c in census3.canonical_classes]
                 + _section_rule_tables4(seed=5, count=6))
    for s in functions:
        ineq = inequality_from_sign_function(s)
        assert ineq.coeffs.dtype == np.int64 and not ineq.coeffs.flags.writeable
        assert np.array_equal(ineq.coeffs, _reference_inequality_coeffs(s))


def test_non_admissible_input_raises_like_the_reference():
    rng = np.random.default_rng(83)
    admissible = _admissible_tables3()
    samples = [SignFunction(3, int.from_bytes(rng.bytes(8), "little")) for _ in range(40)]
    # one flipped entry breaks a block condition of every observer
    samples += [SignFunction(3, admissible[int(i)] ^ 1 << int(k))
                for i, k in zip(rng.integers(0, len(admissible), 20), rng.integers(0, 64, 20))]
    samples.append(SignFunction(4, int.from_bytes(rng.bytes(32), "little")))
    for s in samples:
        assert _reference_inequality_coeffs(s) is None
        with pytest.raises(ValueError, match="local-product Fourier component"):
            inequality_from_sign_function(s)


# ── classical bounds ────────────────────────────────────────────────────────


def test_chsh_classical_bounds(chsh_inequality):
    assert lhv_max(chsh_inequality) == (16, -16)
    assert lhv_max_by_strategies(chsh_inequality) == (16, -16)


@pytest.mark.parametrize("parties", [2, 3, 4])
def test_strategy_matrix_rows_are_strategy_correlations(parties):
    rows = _strategy_matrix(parties)
    assert rows.shape == (1 << 3 * parties, 3 ** parties)
    for bits, row in enumerate(rows):
        triples = [np.array(t) for t in _strategy_outcomes(parties, bits)]
        assert np.array_equal(row, reduce(np.multiply.outer, triples).ravel())


def test_both_bound_routes_agree_on_all_two_observer_inequalities(inequalities2):
    for ineq in inequalities2:
        assert lhv_max(ineq) == lhv_max_by_strategies(ineq) == (16, -16)


def test_vertex_value_dichotomy(inequalities2):
    K = vertex_matrix(2)
    mat = np.concatenate((K, -K))
    for ineq in inequalities2:
        values = mat @ ineq.coeffs.ravel()
        assert set(values.tolist()) == {16, -16}
        assert (values == 16).sum() == 16 and (values == -16).sum() == 16


def test_convex_combinations_respect_bound(chsh_inequality):
    rng = np.random.default_rng(3)
    K = vertex_matrix(2)
    vertices = np.concatenate((K, -K))
    coeffs = [Fraction(int(c)) for c in chsh_inequality.coeffs.ravel()]
    for _ in range(100):
        picks = rng.integers(0, len(vertices), size=5)
        raw = [Fraction(int(w)) for w in rng.integers(1, 10, size=5)]
        total = sum(raw)
        weights = [w / total for w in raw]
        acc = [Fraction(0)] * 9
        for w, p in zip(weights, picks):
            flat = vertices[int(p)]
            for j in range(9):
                acc[j] += w * Fraction(int(flat[j]))
        value = sum(c * e for c, e in zip(coeffs, acc))
        assert abs(value) <= 16


# ── canonical expansion coefficients ────────────────────────────────────────


def _expansion_weights(s, E):
    """Weight of E on each basis vertex s(v) K[v]: s(v) <K[v], E> / 2^(2N)."""
    return s.values() * (vertex_matrix(s.parties) @ E.ravel()) / (1 << 2 * s.parties)


def test_canonical_coefficients_saturate_on_basis_vertices(chsh_sign):
    basis = int(chsh_sign.values()[5]) * vertex_matrix(2)[5].astype(float)
    assert _expansion_weights(chsh_sign, basis).sum() == pytest.approx(1.0, abs=1e-12)
    assert _expansion_weights(chsh_sign, -basis).sum() == pytest.approx(-1.0, abs=1e-12)


def test_canonical_coefficients_vanish_on_zero_tensor(chsh_sign):
    assert (_expansion_weights(chsh_sign, np.zeros((3, 3))) == 0.0).all()


def test_canonical_sum_equals_normalized_inequality_value(chsh_sign, chsh_inequality):
    rng = np.random.default_rng(8)
    E = rng.uniform(-1, 1, size=(3, 3))
    total = _expansion_weights(chsh_sign, E).sum()
    assert total == pytest.approx((chsh_inequality.coeffs * E).sum() / 16, abs=1e-12)


# ── tightness certificates ──────────────────────────────────────────────────


def test_chsh_certificate(chsh_inequality):
    cert = certify_tightness(chsh_inequality)
    assert cert.tight and cert.saturating_count == 16 and cert.rank == 9


def test_trivial_facet_certificate():
    cert = certify_tightness(inequality_from_sign_function(SignFunction(2, 0)))
    assert cert.tight and cert.saturating_count == 16 and cert.rank == 9


def test_sum_of_two_facets_is_not_tight(chsh_inequality):
    other = inequality_from_sign_function(
        SignFunction.from_function(2, lambda a, b, c, d: -1 if b == c == -1 else 1)
    )
    summed = BellInequality(2, chsh_inequality.coeffs + other.coeffs, 32)
    assert lhv_max(summed).maximum == 32
    cert = certify_tightness(summed)
    assert not cert.tight and cert.rank < 9


def test_unattained_bound_is_not_tight(chsh_inequality):
    loose = BellInequality(2, chsh_inequality.coeffs, 17)
    assert certify_tightness(loose) == TightnessCertificate(False, 0, 0)


# A bound-8 facet of the N=3 polytope outside the admissible family: it
# saturates 40 of the 128 vertices, not one of each of the 64 pairs.
_WITNESS3 = BellInequality(3, np.array([
    [[2, 0, -2], [1, 2, -1], [-1, 0, -1]],
    [[1, 2, -1], [0, -3, 1], [-1, 1, 0]],
    [[1, 0, 1], [1, -1, 0], [0, -1, -1]],
], dtype=np.int64), 8)


def test_facet_outside_the_family():
    assert lhv_max(_WITNESS3) == lhv_max_by_strategies(_WITNESS3) == (8, -8)
    assert certify_tightness(_WITNESS3) == TightnessCertificate(True, 40, 27)
    assert sign_function_of(_WITNESS3) is None  # |K g| takes the values 0 and 8


def _raw_certificate(ineq):
    """Reference: Bareiss on every saturating row, signs and all."""
    K = vertex_matrix(ineq.parties)
    matrix = np.concatenate((K, -K))
    rows = matrix[matrix @ ineq.coeffs.ravel() == ineq.bound]
    rank = fraction_free_rank(rows.tolist())
    return (rank == 3 ** ineq.parties, len(rows), rank)


def _as_tuple(cert):
    return (cert.tight, cert.saturating_count, cert.rank)


def test_certificate_matches_rank_of_raw_saturating_rows(census3, chsh_inequality):
    classes = [inequality_from_sign_function(c.representative) for c in census3.canonical_classes]
    for ineq in classes + two_setting_reduction(3):
        assert _as_tuple(certify_tightness(ineq)) == _raw_certificate(ineq) == (True, 64, 27)
    other = inequality_from_sign_function(
        SignFunction.from_function(2, lambda a, b, c, d: -1 if b == c == -1 else 1)
    )
    partial = BellInequality(2, chsh_inequality.coeffs + other.coeffs, 32)
    cert = certify_tightness(partial)
    assert _as_tuple(cert) == _raw_certificate(partial)
    assert cert.saturating_count < 16 and not cert.tight
    # saturated by 28 rows +K[v] and 12 rows -K[v]: tight on a mixed-sign set
    values = vertex_matrix(3) @ _WITNESS3.coeffs.ravel()
    assert ((values == 8).sum(), (values == -8).sum()) == (28, 12)
    assert _as_tuple(certify_tightness(_WITNESS3)) == _raw_certificate(_WITNESS3) == (True, 40, 27)


@st.composite
def _tensors_with_attained_bound(draw):
    """A random integer tensor, mostly off the family, with a bound drawn from
    its values over the deterministic strategies, so the face is not empty."""
    parties = draw(st.sampled_from((2, 3, 4)))
    flat = draw(st.lists(st.integers(-4, 4), min_size=3 ** parties, max_size=3 ** parties))
    coeffs = np.array(flat, dtype=np.int64).reshape((3,) * parties)
    values = sorted(set((_strategy_matrix(parties) @ coeffs.ravel()).tolist()))
    return BellInequality(parties, coeffs, draw(st.sampled_from(values)))


@settings(max_examples=40, deadline=None)
@given(ineq=_tensors_with_attained_bound())
def test_bound_routes_and_certificate_agree_off_the_family(ineq):
    assert lhv_max(ineq) == lhv_max_by_strategies(ineq)
    values = _strategy_matrix(ineq.parties) @ ineq.coeffs.ravel()  # every strategy, no best reply
    assert lhv_max_by_strategies(ineq) == (values.max(), values.min())
    assert _as_tuple(certify_tightness(ineq)) == _raw_certificate(ineq)


@cache
def _admissible_tables2():
    return sorted(s.table for s in enumerate_admissible(2))


@cache
def _admissible_tables3():
    return sorted(s.table for s in enumerate_admissible(3))


_elements3 = st.builds(
    SymmetryElement,
    st.permutations(range(3)).map(tuple),
    st.tuples(*[st.booleans()] * 3),
    st.tuples(*[st.tuples(st.booleans(), st.booleans())] * 3),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 51677), g=_elements3)
def test_certificate_and_bounds_are_symmetry_invariant(index, g):
    s = SignFunction(3, _admissible_tables3()[index])
    ineq = inequality_from_sign_function(s)
    image = inequality_from_sign_function(g.apply(s))
    assert certify_tightness(image) == certify_tightness(ineq)
    assert lhv_max(image) == lhv_max(ineq)


# ── the sign function read off the coefficients ─────────────────────────────


@st.composite
def _admissible_functions(draw):
    """An admissible sign function: N=2 and N=3 from the enumeration, N=4 by
    the section rule."""
    parties = draw(st.sampled_from((2, 3, 4)))
    if parties == 4:
        return _section_rule_tables4(seed=draw(st.integers(0, 2**32 - 1)), count=1)[0]
    tables = _admissible_tables3() if parties == 3 else _admissible_tables2()
    return SignFunction(parties, draw(st.sampled_from(tables)))


@settings(max_examples=60, deadline=None)
@given(s=_admissible_functions())
def test_read_off_inverts_the_induced_map(s):
    assert sign_function_of(inequality_from_sign_function(s)) == s


@settings(max_examples=40, deadline=None)
@given(ineq=_tensors_with_attained_bound(), scale=st.integers(-2, 2), index=st.integers(0, 51677))
def test_read_off_is_none_off_the_family(ineq, scale, index):
    # a member's squared norm is 4^(2N) (Parseval); entries within +/-4 fall short
    assert sign_function_of(ineq) is None
    if ineq.parties == 4:
        function = _section_rule_tables4(seed=index, count=1)[0]
    else:
        tables = _admissible_tables3() if ineq.parties == 3 else _admissible_tables2()
        function = SignFunction(ineq.parties, tables[index % len(tables)])
    member = inequality_from_sign_function(function)
    # scaled by -1 a member stays in the family, by 0 or +/-2 it leaves
    for coeffs in (scale * member.coeffs, member.coeffs + ineq.coeffs):
        s = sign_function_of(BellInequality(ineq.parties, coeffs, ineq.bound))
        values = vertex_matrix(ineq.parties) @ coeffs.ravel()
        assert (s is None) == bool((np.abs(values) != 4 ** ineq.parties).any())
        if s is not None:
            assert np.array_equal(inequality_from_sign_function(s).coeffs, coeffs)


# ── the Kronecker minor ─────────────────────────────────────────────────────

_M1 = np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1]])


@pytest.mark.parametrize("parties", [1, 2, 3, 4, 5])
def test_kronecker_power_has_full_rank(parties):
    power = reduce(np.kron, [_M1] * parties)
    assert power.shape == (3 ** parties, 3 ** parties)
    assert fraction_free_rank(power.tolist()) == 3 ** parties


@pytest.mark.parametrize("parties", [2, 3, 4])
def test_rows_without_a_code_3_are_the_kronecker_power(parties):
    codes = np.arange(4 ** parties)[:, None] >> 2 * np.arange(parties) & 3
    minor = vertex_matrix(parties)[(codes < 3).all(axis=1)]
    power = reduce(np.kron, [_M1] * parties)
    assert sorted(map(tuple, minor.tolist())) == sorted(map(tuple, power.tolist()))


def test_only_sets_without_the_minor_are_eliminated(census3, chsh_inequality, monkeypatch):
    eliminated = []
    rank = polytope.fraction_free_rank
    monkeypatch.setattr(polytope, "fraction_free_rank",
                        lambda rows: eliminated.append(len(rows)) or rank(rows))
    for cls in census3.canonical_classes:
        assert _as_tuple(certify_tightness(inequality_from_sign_function(cls.representative))) == (True, 64, 27)
    for s in _section_rule_tables4(seed=17, count=4):
        assert _as_tuple(certify_tightness(inequality_from_sign_function(s))) == (True, 256, 81)
    assert eliminated == []
    assert certify_tightness(_WITNESS3) == TightnessCertificate(True, 40, 27)
    assert eliminated == [40]
    other = inequality_from_sign_function(
        SignFunction.from_function(2, lambda a, b, c, d: -1 if b == c == -1 else 1)
    )
    cert = certify_tightness(BellInequality(2, chsh_inequality.coeffs + other.coeffs, 32))
    assert not cert.tight and cert.rank < 9 and len(eliminated) == 2
    # E_00 + E_02 <= 2 holds with equality where w_1 = +1: on every row whose pair codes
    # are below 2 (the two-setting minor), yet those rows span 6 of the 9 dimensions
    face = BellInequality(2, np.array([[1, 0, 1], [0, 0, 0], [0, 0, 0]]), 2)
    assert _as_tuple(certify_tightness(face)) == _raw_certificate(face) == (False, 8, 6)
    assert len(eliminated) == 3


# ── exact rank ──────────────────────────────────────────────────────────────


def _rational_rank(rows):
    """Reference rank: Gaussian elimination over the rationals (Fraction)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                factor = mat[r][col] / mat[rank][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_rank_known_cases():
    assert fraction_free_rank([]) == 0
    assert fraction_free_rank([[0, 0], [0, 0]]) == 0
    assert fraction_free_rank([[1, 2], [2, 4]]) == 1
    assert fraction_free_rank([[1, 2], [3, 4]]) == 2
    assert fraction_free_rank([[2, 0, 1], [0, 3, 1]]) == 2
    with pytest.raises(ValueError):
        fraction_free_rank([[1, 2], [3]])


def test_rank_rejects_non_integer_entries():
    # int() would truncate 0.5 to 0 and read "1" as 1, and report rank 1 for both
    for rows in ([[0.5, 0], [0, 1]], [["1", "2"], ["2", "4"]], [[np.float64(2.0)]]):
        with pytest.raises(ValueError, match="^matrix entries must be integers"):
            fraction_free_rank(rows)
    # numpy integers, as certify_tightness passes them, and int arrays are integers
    assert fraction_free_rank([[np.int64(1), np.int8(2)], [np.int32(3), np.int64(4)]]) == 2
    assert fraction_free_rank(np.array([[1, 2], [2, 4]])) == 1


def test_rank_matches_floating_oracle_on_random_small_matrices():
    rng = np.random.default_rng(77)
    for _ in range(200):
        rows, cols = rng.integers(1, 8, size=2)
        rank_target = int(rng.integers(0, min(rows, cols) + 1))
        left = rng.integers(-3, 4, size=(rows, rank_target))
        right = rng.integers(-3, 4, size=(rank_target, cols))
        mat = left @ right  # rank at most rank_target by construction
        assert fraction_free_rank(mat.tolist()) == np.linalg.matrix_rank(mat.astype(float))


@pytest.mark.parametrize(
    "rows",
    [[[_WITNESS_PRIME, 0], [0, 1]], [[1, 1], [1, 1 + _WITNESS_PRIME]]],
    ids=["pivot-divisible-by-p", "determinant-p"],
)
def test_rank_when_p_divides_a_minor(rows):
    # rank 1 modulo p, so the witness falls short and elimination over Q decides
    assert fraction_free_rank(rows) == _rational_rank(rows) == 2


_P = _WITNESS_PRIME


@pytest.mark.parametrize("rows, rank", [
    pytest.param([[_P - 1, _P - 2], [_P - 3, _P - 1]], 2, id="determinant-3p-5"),
    pytest.param([[_P - 1] * 3] * 3, 1, id="p-1-everywhere"),
    pytest.param([[_P - 1, _P - 2, 1], [_P - 3, _P - 1, 2], [_P - 2, _P - 1, _P - 1]], 3,
                 id="residues-near-p"),
])
def test_rank_of_residues_just_below_p(rows, rank):
    # residue products reach (p-1)^2, just below 2^62: int64 must not overflow
    assert fraction_free_rank(rows) == _rational_rank(rows) == rank


N4_SEESAW = (
    "N=4;table=33cc330055ff553355cc0c0c55ff0c3faaccf3c0aafff3f3ccccccccaaffaaff",
    "N=4;table=35ac35accccccccc35ac35accccccccc3a5c3a5c33aa33aa3a5c3a5c33aa33aa",
)


def test_rank_deficient_certificate_at_n4():
    # the sum of two N=4 facets saturates 142 assignments spanning 78 of 81 dimensions,
    # so its rank is decided over the integers
    first, second = (inequality_from_sign_function(SignFunction.from_text(t)) for t in N4_SEESAW)
    summed = BellInequality(4, first.coeffs + second.coeffs, 512)
    assert _as_tuple(certify_tightness(summed)) == (False, 142, 78)
    values = vertex_matrix(4) @ summed.coeffs.ravel()
    assert _rational_rank(vertex_matrix(4)[np.abs(values) == 512].tolist()) == 78


_entries = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


@st.composite
def _integer_matrices(draw):
    """Random integer matrices, a third of them products of thin factors
    (rank deficient), with entries beyond +/-2^63 among them."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if draw(st.integers(0, 2)):
        return draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    left = draw(st.lists(st.lists(_entries, min_size=inner, max_size=inner),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
    return [[sum(row[k] * right[k][j] for k in range(inner)) for j in range(cols)]
            for row in left]


@settings(max_examples=200, deadline=None)
@given(rows=_integer_matrices())
def test_rank_agrees_with_bareiss(rows):
    assert fraction_free_rank(rows) == _rational_rank(rows)
