import numpy as np
import pytest

from bellfacets import (
    SignFunction,
    canonicalize,
    certify_tightness,
    chsh_pattern,
    enumerate_admissible,
    inequality_from_sign_function,
    is_factorable,
    lift,
    two_setting_reduction,
    vertex_matrix,
)
from bellfacets import lifting


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
    lifted = lift(chsh_inequality)
    assert lifted.bounds == (-16, 16)
    assert not lifted.degenerate
    assert lifted.constant == 8
    assert lifted.marginal_coeffs == ((8, 0), (8, 0))
    assert lifted.correlations == (((1, 1), -8),)
    values = vertex_matrix(2) @ chsh_inequality.coeffs.ravel()
    assert values.min() == -16 and values.max() == 16  # both bounds attained


def test_lift_of_constant_term_is_degenerate():
    ineq = inequality_from_sign_function(SignFunction(2, 0))
    lifted = lift(ineq)
    assert lifted.bounds == (16, 16)
    assert lifted.degenerate


def test_uniform_mixture_leaves_only_the_constant(chsh_inequality):
    values = vertex_matrix(2) @ chsh_inequality.coeffs.ravel()
    assert values.mean() == chsh_inequality.coeffs[0, 0]


def test_lift_bounds_attained_for_all_canonical_classes(census2):
    for cls in census2.canonical_classes:
        ineq = inequality_from_sign_function(cls.representative)
        lifted = lift(ineq)
        values = vertex_matrix(2) @ ineq.coeffs.ravel()
        assert lifted.bounds == (int(values.min()), int(values.max()))
        assert -16 <= lifted.bounds[0] <= lifted.bounds[1] <= 16


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
        assert [i.provenance.table for i in two_setting_reduction(parties)] == reference


def test_reduction_rejects_large_sizes():
    with pytest.raises(ValueError, match="desk-scale"):
        two_setting_reduction(4)


def test_reduction_admissibility_check_is_explicit(monkeypatch):
    monkeypatch.setattr(lifting, "is_admissible", lambda s: False)
    with pytest.raises(RuntimeError, match="not admissible"):
        two_setting_reduction(2)


def test_reduction_support_stays_two_setting():
    for ineq in two_setting_reduction(2):
        support = np.argwhere(ineq.coeffs)
        assert support.size == 0 or support.max() <= 1


def test_reduction_two_observers_is_chsh_or_trivial():
    trivial = 0
    for ineq in two_setting_reduction(2):
        if is_factorable(ineq.provenance):
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
    reps = {canonicalize(i.provenance).table for i in reduced}
    # the full census reaches every reduced orbit: constants, one-variable,
    # two-variable characters, and CHSH
    assert len(reps) == 4
