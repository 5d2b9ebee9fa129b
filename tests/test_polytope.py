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
    two_setting_reduction,
    vertex_matrix,
)
from bellfacets.polytope import _WITNESS_PRIME, _bareiss_rank, _strategy_matrix
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
    parties = draw(st.sampled_from((2, 3)))
    flat = draw(st.lists(st.integers(-4, 4), min_size=3 ** parties, max_size=3 ** parties))
    coeffs = np.array(flat, dtype=np.int64).reshape((3,) * parties)
    values = sorted(set((_strategy_matrix(parties) @ coeffs.ravel()).tolist()))
    return BellInequality(parties, coeffs, draw(st.sampled_from(values)))


@settings(max_examples=40, deadline=None)
@given(ineq=_tensors_with_attained_bound())
def test_bound_routes_and_certificate_agree_off_the_family(ineq):
    assert lhv_max(ineq) == lhv_max_by_strategies(ineq)
    assert _as_tuple(certify_tightness(ineq)) == _raw_certificate(ineq)


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


# ── exact rank ──────────────────────────────────────────────────────────────


def test_rank_known_cases():
    assert fraction_free_rank([]) == 0
    assert fraction_free_rank([[0, 0], [0, 0]]) == 0
    assert fraction_free_rank([[1, 2], [2, 4]]) == 1
    assert fraction_free_rank([[1, 2], [3, 4]]) == 2
    assert fraction_free_rank([[2, 0, 1], [0, 3, 1]]) == 2


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
    assert fraction_free_rank(rows) == _bareiss_rank(rows) == 2


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
    assert fraction_free_rank(rows) == _bareiss_rank(rows)
