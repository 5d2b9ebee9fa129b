from collections import Counter
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellfacets import (
    BellInequality,
    SignFunction,
    canonicalize,
    certify_tightness,
    enumerate_admissible,
    inequality_from_sign_function,
    is_factorable,
    lift,
    sign_function_of,
    two_setting_reduction,
    vertex_matrix,
)
from bellfacets import polytope
from chsh import chsh_pattern


# ── lifted vertices ─────────────────────────────────────────────────────────


def test_lifted_vertex_count_and_normalization():
    lifted = vertex_matrix(2)
    assert len(lifted) == 16
    assert len({row.tobytes() for row in lifted}) == 16
    assert (lifted[:, 0] == 1).all()


def test_lifted_vertices_are_plain_vertices_with_positive_sign():
    # reference outcome 1: each observer contributes (1, m1, m2), bit 2i set <=> m1 = -1
    for bits, row in enumerate(vertex_matrix(2)):
        m = [1 - 2 * (bits >> j & 1) for j in range(4)]
        assert np.array_equal(row, np.outer([1, m[0], m[1]], [1, m[2], m[3]]).ravel())


def test_every_facet_holds_on_lifted_vertices():
    mat = vertex_matrix(2)
    for s in enumerate_admissible(2):
        values = mat @ inequality_from_sign_function(s).coeffs.ravel()
        assert np.abs(values).max() <= 16


# ── lifting ─────────────────────────────────────────────────────────────────


def test_lift_chsh(chsh_inequality):
    assert lift(chsh_inequality) == (-16, 16)
    # the CH reading's constant and marginals are entries of the tensor itself
    assert chsh_inequality.coeffs[0, 0] == 8
    assert chsh_inequality.coeffs[1:, 0].tolist() == [8, 0]
    assert chsh_inequality.coeffs[0, 1:].tolist() == [8, 0]
    values = vertex_matrix(2) @ chsh_inequality.coeffs.ravel()
    assert values.min() == -16 and values.max() == 16  # both bounds attained


def test_lift_of_constant_term_is_degenerate():
    assert lift(inequality_from_sign_function(SignFunction(2, 0))) == (16, 16)


def test_lift_returns_python_ints(chsh_inequality):
    assert all(type(b) is int for b in lift(chsh_inequality))


def test_uniform_mixture_leaves_only_the_constant(chsh_inequality):
    values = vertex_matrix(2) @ chsh_inequality.coeffs.ravel()
    assert values.mean() == chsh_inequality.coeffs[0, 0]


def test_lift_bounds_attained_for_all_canonical_classes(census2):
    for cls in census2.canonical_classes:
        ineq = inequality_from_sign_function(cls.representative)
        low, high = lift(ineq)
        values = vertex_matrix(2) @ ineq.coeffs.ravel()
        assert (low, high) == (int(values.min()), int(values.max()))
        assert -16 <= low <= high <= 16


def _brute_force_bounds(ineq):
    """(min, max) of the tensor over the 4^N lifted vertices (1, m1, m2) x ...,
    each built from its outcomes and summed in Python ints."""
    triples = [(1, m1, m2) for m1, m2 in product((1, -1), repeat=2)]
    flat = ineq.coeffs.ravel().tolist()
    values = [sum(c * prod(entry) for c, entry in zip(flat, product(*choice)))
              for choice in product(triples, repeat=ineq.parties)]
    return min(values), max(values)


@st.composite
def _integer_tensors(draw):
    # a constant-only tensor now and then, so equal and unequal bounds are both drawn
    parties = draw(st.sampled_from((2, 3)))
    entries = st.one_of(st.integers(-4, 4), st.integers(-(2**40), 2**40))
    flat = draw(st.lists(entries, min_size=3 ** parties, max_size=3 ** parties))
    if draw(st.booleans()):
        flat[1:] = [0] * (len(flat) - 1)
    return BellInequality(parties, np.array(flat, dtype=np.int64).reshape((3,) * parties), 1)


@settings(max_examples=60, deadline=None)
@given(ineq=_integer_tensors())
def test_lift_bounds_match_a_brute_force_off_the_family(ineq):
    low, high = _brute_force_bounds(ineq)
    assert lift(ineq) == (low, high)
    constant_only = not ineq.coeffs.ravel()[1:].any()
    assert (low == high) == constant_only


def test_family_members_lift_to_the_original_bounds(census2, census3):
    # K[v] g = 2^(2N) s(v): the lifted bounds are +/-2^(2N), or (c, c) for a constant s
    for census in (census2, census3):
        bounds = Counter(lift(inequality_from_sign_function(c.representative))
                         for c in census.canonical_classes)
        top = 4 ** census.parties
        assert bounds == {(-top, top): len(census.canonical_classes) - 1, (top, top): 1}


# ── two-setting reduction ───────────────────────────────────────────────────


def test_reduction_counts():
    assert len(two_setting_reduction(2)) == 16
    assert len(two_setting_reduction(3)) == 256


def test_reduction_tables_match_first_variable_loop():
    for parties in (2, 3):
        reference = []
        for code in range(1 << (1 << parties)):
            table = 0
            for k in range(1 << 2 * parties):
                first = sum((k >> 2 * i & 1) << i for i in range(parties))
                table |= (code >> first & 1) << k
            reference.append(table)
        assert [sign_function_of(i).table for i in two_setting_reduction(parties)] == reference


def test_reduction_rejects_large_sizes():
    with pytest.raises(ValueError, match="desk-scale"):
        two_setting_reduction(4)


def test_reduction_admissibility_check_is_explicit(monkeypatch):
    monkeypatch.setattr(polytope, "is_admissible", lambda s: False)
    with pytest.raises(ValueError, match="local-product Fourier component"):
        two_setting_reduction(2)


def test_reduction_support_stays_two_setting():
    for ineq in two_setting_reduction(2):
        support = np.argwhere(ineq.coeffs)
        assert support.size == 0 or support.max() <= 1


def test_reduction_two_observers_is_chsh_or_trivial():
    trivial = 0
    for ineq in two_setting_reduction(2):
        if is_factorable(sign_function_of(ineq)):
            trivial += 1
        else:
            assert chsh_pattern(ineq)
    assert trivial == 8  # +/- each of 1, a, c, ac


def test_reduction_contains_mermin(mermin_coeffs):
    found = [i for i in two_setting_reduction(3) if (i.coeffs == mermin_coeffs).all()]
    assert len(found) == 1


def test_reduced_inequalities_are_tight_in_the_full_space():
    for parties in (2, 3):
        for ineq in two_setting_reduction(parties):
            cert = certify_tightness(ineq)
            assert cert.tight
            assert cert.saturating_count == 1 << (2 * parties)
            assert cert.rank == 3 ** parties


def test_reduction_canonical_flags_are_consistent():
    reduced = two_setting_reduction(2)
    reps = {canonicalize(sign_function_of(i)).table for i in reduced}
    # the full census reaches every reduced orbit: constants, one-variable,
    # two-variable characters, and CHSH
    assert len(reps) == 4
