import dataclasses
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellfacets import quantum
from bellfacets import (
    BellInequality,
    ObservableDirection,
    SignFunction,
    algebraic_maximum,
    bell_operator,
    enumerate_admissible,
    evaluate_state,
    inequality_from_sign_function,
    seesaw_maximize,
)
from relabel import SymmetryElement

ROOT2 = np.sqrt(2.0)

# A dense 16-term three-observer class (algebraic ratio 4) and the first fixed
# four-observer function of the benchmark's n4 workload.
DENSE3 = "N=3;table=50facaca5533cf03"
N4_FIXED = "N=4;table=33cc330055ff553355cc0c0c55ff0c3faaccf3c0aafff3f3ccccccccaaffaaff"


def _dirs(party_settings):
    arr = np.array(party_settings, dtype=float)
    arr /= np.linalg.norm(arr, axis=2, keepdims=True)
    return ObservableDirection(arr)


@pytest.fixture(scope="module")
def trivial_inequality():
    return inequality_from_sign_function(SignFunction(2, 0))


@pytest.fixture(scope="module")
def chsh_optimal_dirs():
    x, z = (1, 0, 0), (0, 0, 1)
    diag, anti = (1, 0, 1), (1, 0, -1)
    return _dirs([[x, z, z], [diag, anti, z]])


# ── operator construction ───────────────────────────────────────────────────


def test_trivial_operator_is_scaled_zz(trivial_inequality):
    z = (0, 0, 1)
    dirs = _dirs([[z, z, z], [z, z, z]])
    op = bell_operator(trivial_inequality, dirs)
    zz = np.diag([1, -1, -1, 1]).astype(complex)
    assert np.allclose(op, 16 * zz)
    assert np.linalg.eigvalsh(op)[-1] == pytest.approx(16.0)


def test_chsh_operator_reaches_tsirelson_eigenvalue(chsh_inequality, chsh_optimal_dirs):
    top = np.linalg.eigvalsh(bell_operator(chsh_inequality, chsh_optimal_dirs))[-1]
    assert top == pytest.approx(16 * ROOT2, abs=1e-9)


def test_zero_tensor_gives_zero_operator():
    zero = BellInequality(2, np.zeros((3, 3), dtype=np.int64), 16)
    dirs = ObservableDirection.random(2, np.random.default_rng(0))
    assert np.allclose(bell_operator(zero, dirs), 0)


def test_directions_must_be_unit():
    bad = np.zeros((2, 3, 3))
    bad[:, :, 2] = 2.0
    with pytest.raises(ValueError):
        ObservableDirection(bad)


def test_nan_directions_are_not_unit():
    with pytest.raises(ValueError, match="unit vector"):
        ObservableDirection(np.full((2, 3, 3), np.nan))


# ── state evaluation ────────────────────────────────────────────────────────


def test_evaluate_state_requires_normalization(chsh_inequality, chsh_optimal_dirs):
    with pytest.raises(ValueError, match="unit norm"):
        evaluate_state(chsh_inequality, chsh_optimal_dirs, np.array([1.0, 0, 0, 1.0]))


def test_evaluate_state_rejects_a_nan_state(chsh_inequality, chsh_optimal_dirs):
    with pytest.raises(ValueError, match="unit norm"):
        evaluate_state(chsh_inequality, chsh_optimal_dirs, np.full(4, np.nan))


def test_product_state_respects_classical_bound(chsh_inequality, chsh_optimal_dirs):
    value = evaluate_state(chsh_inequality, chsh_optimal_dirs, np.array([1.0, 0, 0, 0]))
    assert value <= 16 + 1e-12


def test_ghz_reaches_twice_the_parity_bound(mermin_inequality):
    # equatorial Bloch angles: reference setting at 60 degrees, the other at
    # -30, so triples with two non-reference settings align and the
    # all-reference triple anti-aligns
    beta, alpha = np.pi / 3, -np.pi / 6
    ref = (np.cos(beta), np.sin(beta), 0)
    other = (np.cos(alpha), np.sin(alpha), 0)
    dirs = _dirs([[ref, other, other]] * 3)
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / ROOT2
    assert evaluate_state(mermin_inequality, dirs, ghz) == pytest.approx(128.0, abs=1e-9)


# ── see-saw ─────────────────────────────────────────────────────────────────


def test_seesaw_reproduces_tsirelson(chsh_inequality):
    report = seesaw_maximize(chsh_inequality, restarts=32, seed=7)
    assert report.quantum_max == pytest.approx(16 * ROOT2, abs=1e-6)
    assert report.violation_ratio == pytest.approx(ROOT2, abs=1e-6)
    assert report.converged
    assert report.quantum_violating


def test_seesaw_on_trivial_facet_finds_no_violation(trivial_inequality):
    report = seesaw_maximize(trivial_inequality, restarts=8, seed=5)
    assert report.quantum_max == pytest.approx(16.0, abs=1e-9)
    assert report.violation_ratio == pytest.approx(1.0, abs=1e-9)
    assert not report.quantum_violating


def test_seesaw_reaches_mermin_algebraic_maximum(mermin_inequality):
    report = seesaw_maximize(mermin_inequality, restarts=32, seed=7)
    assert report.violation_ratio == pytest.approx(2.0, abs=1e-6)
    assert report.quantum_max == pytest.approx(128.0, abs=1e-4)
    # the algebraic cap was hit, so later restarts were skipped
    assert report.restarts_used <= 32


def test_seesaw_traces_are_monotone(chsh_inequality, mermin_inequality):
    for ineq, seed in ((chsh_inequality, 1), (chsh_inequality, 2), (mermin_inequality, 3)):
        trace = seesaw_maximize(ineq, restarts=4, seed=seed).objective_trace
        assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))


def test_seesaw_is_deterministic(chsh_inequality):
    a = seesaw_maximize(chsh_inequality, restarts=6, seed=42)
    b = seesaw_maximize(chsh_inequality, restarts=6, seed=42)
    assert a.quantum_max == b.quantum_max
    assert a.objective_trace == b.objective_trace
    assert np.array_equal(a.state, b.state)
    assert np.array_equal(a.directions.directions, b.directions.directions)
    assert a.restarts_used == b.restarts_used


def test_seesaw_optimum_is_self_consistent(chsh_inequality):
    report = seesaw_maximize(chsh_inequality, restarts=8, seed=13)
    revalue = evaluate_state(chsh_inequality, report.directions, report.state)
    assert revalue == pytest.approx(report.quantum_max, abs=1e-9)


def test_seesaw_bounds_on_all_canonical_two_observer_inequalities(census2):
    for cls in census2.canonical_classes:
        ineq = inequality_from_sign_function(cls.representative)
        report = seesaw_maximize(ineq, restarts=8, seed=3)
        assert report.quantum_max >= 16 - 1e-9  # commuting observables reach the bound
        assert report.quantum_max <= algebraic_maximum(ineq) + 1e-9
        assert report.violation_ratio <= algebraic_maximum(ineq) / 16 + 1e-12


def test_seesaw_requires_a_restart():
    ineq = inequality_from_sign_function(SignFunction(2, 0))
    with pytest.raises(ValueError):
        seesaw_maximize(ineq, restarts=0)


@pytest.mark.parametrize("bound", [0, -16])
def test_seesaw_rejects_a_non_positive_bound_before_iterating(chsh_inequality, bound, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", None)  # any iteration would fail on this instead
    bad = BellInequality(2, chsh_inequality.coeffs, bound, chsh_inequality.provenance)
    with pytest.raises(ValueError, match=f"inequality 1 has non-positive bound {bound}"):
        quantum.seesaw_maximize_all([chsh_inequality, bad])


# ── per-term reference loops ────────────────────────────────────────────────
# The library contracts in Pauli coordinates; these loops build the same
# operator, scores and see-saw one term and one setting at a time, from the
# Pauli matrices written out here.

_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _observable(direction):
    """n . sigma for one Bloch vector n."""
    return np.tensordot(direction, _SIGMA, axes=(0, 0))


def _terms(ineq):
    return [(tuple(int(i) for i in pos), int(ineq.coeffs[tuple(pos)]))
            for pos in np.argwhere(ineq.coeffs)]


def _reference_operator(ineq, dirs):
    dim = 2 ** ineq.parties
    out = np.zeros((dim, dim), dtype=np.complex128)
    for settings, coeff in _terms(ineq):
        mats = [_observable(dirs.directions[i, settings[i]]) for i in range(ineq.parties)]
        out += coeff * reduce(np.kron, mats)
    return out


def _reference_direction_score(psi_tensor, terms, dirs, party, setting, parties):
    reduced = np.zeros((2, 2), dtype=np.complex128)
    for settings, coeff in terms:
        if settings[party] != setting:
            continue
        phi = psi_tensor
        for j in range(parties):
            if j == party:
                continue
            obs = _observable(dirs[j, settings[j]])
            phi = np.moveaxis(np.tensordot(obs, phi, axes=(1, j)), 0, j)
        phi = np.moveaxis(phi, party, -1).reshape(-1, 2)
        psi = np.moveaxis(psi_tensor, party, -1).reshape(-1, 2)
        reduced += coeff * phi.T @ np.conj(psi)
    return np.real(np.einsum("kqp,pq->k", _SIGMA, reduced))


def _reference_trial(dirs, before, rho):
    """normalize(dirs + rho / (1 - rho) (dirs - before)) per (observer, setting), or None
    when a step is shorter than 1e-12."""
    trial = np.empty_like(dirs)
    for party, setting in np.ndindex(dirs.shape[:2]):
        step = dirs[party, setting] + rho / (1 - rho) * (dirs[party, setting] - before[party, setting])
        norm = np.linalg.norm(step)
        if norm < 1e-12:
            return None
        trial[party, setting] = step / norm
    return trial


def _reference_seesaw(ineq, restarts, seed, improvement_threshold=1e-10, max_iterations=10_000,
                      extrapolate_every=5):
    """(best value, its trace, restarts used, trials accepted in all restarts), one
    (observer, setting) at a time."""
    parties = ineq.parties
    terms = _terms(ineq)
    used = [sorted({s[i] for s, _ in terms}) for i in range(parties)]
    scale, cap = float(ineq.bound), float(algebraic_maximum(ineq))
    best_value, best_trace, restarts_used, accepted = -np.inf, (), 0, 0
    for child in np.random.SeedSequence(seed).spawn(restarts):
        restarts_used += 1
        dirs = np.random.default_rng(child).normal(size=(parties, 3, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        trace, prev, last_gain = [], -np.inf, np.nan
        for iteration in range(1, max_iterations + 1):
            eigvals, eigvecs = np.linalg.eigh(_reference_operator(ineq, ObservableDirection(dirs.copy())))
            value = float(eigvals[-1])
            trace.append(value)
            psi_tensor = eigvecs[:, -1].reshape((2,) * parties)
            before = dirs.copy()
            for party in range(parties):
                for setting in used[party]:
                    score = _reference_direction_score(psi_tensor, terms, dirs, party, setting, parties)
                    norm = np.linalg.norm(score)
                    if norm < 1e-12:
                        continue
                    value += norm - float(dirs[party, setting] @ score)
                    dirs[party, setting] = score / norm
            trace.append(value)
            gain, prev = value - prev, value
            if gain < improvement_threshold * scale:
                break
            # Aitken's delta-squared trial on a shrinking pair of gains, kept only if higher
            if iteration < max_iterations and iteration % extrapolate_every == 0 and last_gain > gain > 0:
                trial = _reference_trial(dirs, before, gain / last_gain)
                if trial is not None:
                    top = float(np.linalg.eigvalsh(_reference_operator(ineq, ObservableDirection(trial)))[-1])
                    if top > prev:
                        dirs, prev, accepted = trial, top, accepted + 1
            last_gain = gain
        if prev > best_value:
            best_value, best_trace = prev, tuple(trace)
        if best_value >= cap - 1e-12 * max(1.0, cap):
            break
    return best_value, best_trace, restarts_used, accepted


@pytest.fixture(scope="module")
def reference_inequalities(census2, mermin_inequality):
    texts = (DENSE3, N4_FIXED)
    return (
        [inequality_from_sign_function(cls.representative) for cls in census2.canonical_classes]
        + [mermin_inequality]
        + [inequality_from_sign_function(SignFunction.from_text(t)) for t in texts]
    )


def test_bell_operator_matches_per_term_reference(reference_inequalities):
    rng = np.random.default_rng(11)
    assert len(reference_inequalities) == 9
    for ineq in reference_inequalities:
        tol = 1e-12 * algebraic_maximum(ineq)
        for _ in range(3):
            dirs = ObservableDirection.random(ineq.parties, rng)
            assert np.abs(bell_operator(ineq, dirs) - _reference_operator(ineq, dirs)).max() <= tol


def test_observer_scores_match_per_setting_reference(reference_inequalities):
    rng = np.random.default_rng(12)
    for ineq in reference_inequalities:
        parties, terms = ineq.parties, _terms(ineq)
        tol = 1e-12 * algebraic_maximum(ineq)
        for _ in range(3):
            dirs = ObservableDirection.random(parties, rng).directions
            state = rng.normal(size=2 ** parties) + 1j * rng.normal(size=2 ** parties)
            state /= np.linalg.norm(state)
            corr = quantum._correlations(state, parties)
            for party in range(parties):
                scores = quantum._observer_scores(ineq.coeffs, dirs, corr, party)
                for setting in range(3):
                    ref = _reference_direction_score(
                        state.reshape((2,) * parties), terms, dirs, party, setting, parties)
                    assert np.abs(scores[setting] - ref).max() <= tol


def test_seesaw_matches_reference_loop(chsh_inequality, mermin_inequality):
    dense, four = (inequality_from_sign_function(SignFunction.from_text(t)) for t in (DENSE3, N4_FIXED))
    accepted = 0
    # an accepted trial scales rounding differences by rho / (1 - rho), hundreds on the
    # dense tail, so the runs that take one agree to 1e-9 of the bound, as in the batch test
    for ineq, restarts, seed, tol in ((chsh_inequality, 4, 1, 1e-9), (chsh_inequality, 6, 42, 1e-9),
                                      (mermin_inequality, 4, 3, 1e-9), (mermin_inequality, 32, 7, 1e-9),
                                      (dense, 1, 1, 1e-9 * dense.bound), (four, 2, 7, 1e-9 * four.bound)):
        value, trace, restarts_used, trials = _reference_seesaw(ineq, restarts, seed)
        report = seesaw_maximize(ineq, restarts=restarts, seed=seed)
        assert len(report.objective_trace) == len(trace)
        assert report.quantum_max == pytest.approx(value, abs=tol)
        assert report.restarts_used == restarts_used
        accepted += trials
    assert accepted > 0  # the extrapolation step is exercised, not only skipped


def test_rejected_trials_leave_the_run_unchanged(monkeypatch):
    ineqs = [inequality_from_sign_function(SignFunction.from_text(t)) for t in (DENSE3, N4_FIXED)]
    trials = []

    def rejected(coeffs, dirs):
        trials.append(len(dirs))
        return np.full(len(dirs), -np.inf)

    monkeypatch.setattr(quantum, "_top_values", rejected)
    with_rejected = quantum.seesaw_maximize_all(ineqs, restarts=2, seed=1)
    assert trials
    monkeypatch.setattr(quantum, "_EXTRAPOLATE_EVERY", quantum._MAX_ITERATIONS + 1)
    without = quantum.seesaw_maximize_all(ineqs, restarts=2, seed=1)
    assert all(_same_report(a, b) for a, b in zip(with_rejected, without))


def test_extrapolation_shortens_the_dense_tail():
    # without trials this restart runs 982 iterations to ratio 1.9999999511...
    report = seesaw_maximize(inequality_from_sign_function(SignFunction.from_text(DENSE3)), restarts=1, seed=1)
    assert report.converged
    assert len(report.objective_trace) // 2 <= 100
    assert report.violation_ratio >= 1.9999999511


def test_seesaw_raises_when_a_step_decreases(chsh_inequality, monkeypatch):
    real_eigh = np.linalg.eigh
    calls = []

    def lowered_on_second_call(matrix):
        eigvals, eigvecs = real_eigh(matrix)
        calls.append(1)
        if len(calls) == 2:  # below -algebraic max, so below any first-iteration value
            eigvals = eigvals - 2 * algebraic_maximum(chsh_inequality)
        return eigvals, eigvecs

    monkeypatch.setattr(quantum.np.linalg, "eigh", lowered_on_second_call)
    with pytest.raises(RuntimeError, match="state step decreased"):
        seesaw_maximize(chsh_inequality, restarts=1, seed=1)
    assert len(calls) == 2


def test_seesaw_state_has_canonical_phase(chsh_inequality, mermin_inequality):
    for ineq in (chsh_inequality, mermin_inequality):
        report = seesaw_maximize(ineq, restarts=8, seed=7)
        lead = np.flatnonzero(np.abs(report.state) > 1e-12)[0]
        assert report.state[lead].imag == 0.0 and report.state[lead].real > 0.0
        for phase in np.exp(1j * np.linspace(0.1, 6.2, 7)):  # any phase eigh might return
            rephased = quantum._canonical_phase(report.state * phase)
            assert rephased[lead].imag == 0.0
            assert np.abs(rephased - report.state).max() < 1e-15
        revalue = evaluate_state(ineq, report.directions, report.state)
        assert revalue == pytest.approx(report.quantum_max, abs=1e-9)


# ── symmetry invariance of the see-saw value ────────────────────────────────

# The restart budget and seed are fixed; a relabeling moves the starting
# points, so the best ratio agrees within a tolerance, not bit for bit.
INVARIANCE_TOL = 1e-6


def _ratio(s):
    return seesaw_maximize(inequality_from_sign_function(s), restarts=4, seed=0).violation_ratio


_elements2 = st.builds(
    SymmetryElement,
    st.permutations(range(2)).map(tuple),
    st.tuples(*[st.booleans()] * 2),
    st.tuples(*[st.tuples(st.booleans(), st.booleans())] * 2),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 89), g=_elements2)
def test_seesaw_ratio_is_symmetry_invariant(index, g):
    s = sorted(enumerate_admissible(2), key=lambda f: f.table)[index]
    assert abs(_ratio(g.apply(s)) - _ratio(s)) <= INVARIANCE_TOL


def test_seesaw_ratio_is_symmetry_invariant_three_observers(census3):
    classes = [c.representative for c in census3.canonical_classes]
    dense = [k for k, s in enumerate(classes)
             if algebraic_maximum(inequality_from_sign_function(s)) == 4 * 64]
    assert len(classes) == 76 and len(dense) == 5
    rng = np.random.default_rng(29)
    picks = [int(rng.choice(dense))] + rng.choice(len(classes), size=2, replace=False).tolist()
    for index in picks:
        g = SymmetryElement(
            tuple(rng.permutation(3).tolist()),
            tuple(bool(b) for b in rng.integers(0, 2, size=3)),
            tuple((bool(a), bool(b)) for a, b in rng.integers(0, 2, size=(3, 2))),
            bool(rng.integers(0, 2)),
        )
        assert abs(_ratio(g.apply(classes[index])) - _ratio(classes[index])) <= INVARIANCE_TOL


# ── lockstep batch ──────────────────────────────────────────────────────────


def _same_report(a, b):
    return (a.quantum_max == b.quantum_max and a.violation_ratio == b.violation_ratio
            and a.restarts_used == b.restarts_used and a.converged == b.converged
            and a.objective_trace == b.objective_trace and np.array_equal(a.state, b.state)
            and np.array_equal(a.directions.directions, b.directions.directions))


def test_batch_equals_per_entry_calls_bit_for_bit(census3):
    # 152 rows: more than one row block, so rows are admitted as others finish
    ineqs = [inequality_from_sign_function(c.representative) for c in census3.canonical_classes]
    batch = quantum.seesaw_maximize_all(ineqs, restarts=2, seed=5)
    assert len(batch) == 76
    for ineq, report in zip(ineqs, batch):
        assert _same_report(report, seesaw_maximize(ineq, restarts=2, seed=5)), ineq.provenance.to_text()


def test_batch_matches_reference_loop(census2):
    two = [inequality_from_sign_function(cls.representative) for cls in census2.canonical_classes]
    four = inequality_from_sign_function(SignFunction.from_text(N4_FIXED))
    cases = list(zip(two, quantum.seesaw_maximize_all(two, restarts=32, seed=7), [32] * 6))
    cases.append((four, quantum.seesaw_maximize_all([four], restarts=2, seed=7)[0], 2))
    for ineq, report, restarts in cases:
        value, trace, restarts_used, _ = _reference_seesaw(ineq, restarts, 7)
        assert report.restarts_used == restarts_used
        assert abs(report.quantum_max - value) <= 1e-9 * ineq.bound


def test_mixed_batch_drops_later_restarts_at_the_cap(chsh_inequality, mermin_inequality):
    chsh, mermin = quantum.seesaw_maximize_all([chsh_inequality, mermin_inequality], restarts=32, seed=7)
    assert chsh.restarts_used == 32 and chsh.converged
    assert mermin.restarts_used == 1
    assert mermin.violation_ratio == pytest.approx(2.0, abs=1e-9)
    assert _same_report(chsh, seesaw_maximize(chsh_inequality, restarts=32, seed=7))
    assert _same_report(mermin, seesaw_maximize(mermin_inequality, restarts=32, seed=7))


def _start_from(monkeypatch, base, signs):
    """Make restart r of the see-saw start from signs[r] * base."""

    class Scripted:  # stands in for np.random.default_rng(child)
        def __init__(self, child):
            self.sign = signs[child.spawn_key[-1]]

        def normal(self, size):
            return self.sign * base

    monkeypatch.setattr(np.random, "default_rng", Scripted)


def test_a_tie_between_restarts_keeps_the_earliest(chsh_inequality, monkeypatch):
    # negating both observers' directions leaves every value the same to the bit,
    # but not the directions
    base = np.random.default_rng(3).normal(size=(2, 3, 3))
    _start_from(monkeypatch, base, (1.0, -1.0))
    one, two = (seesaw_maximize(chsh_inequality, restarts=n) for n in (1, 2))
    _start_from(monkeypatch, base, (-1.0,))
    later = seesaw_maximize(chsh_inequality, restarts=1)
    assert two.restarts_used == 2 and two.quantum_max == one.quantum_max == later.quantum_max
    assert np.array_equal(later.directions.directions, -one.directions.directions)
    assert _same_report(two, dataclasses.replace(one, restarts_used=2))


def test_decrease_in_one_row_of_a_stacked_state_step_raises(census2, monkeypatch):
    ineqs = [inequality_from_sign_function(cls.representative) for cls in census2.canonical_classes]
    real_eigh = np.linalg.eigh
    calls = []

    def lowered_row_on_second_call(matrices):
        eigvals, eigvecs = real_eigh(matrices)
        calls.append(len(matrices))
        if len(calls) == 2:  # row 1 only, below -algebraic max
            eigvals = eigvals.copy()
            eigvals[1] -= 2 * max(algebraic_maximum(i) for i in ineqs)
        return eigvals, eigvecs

    monkeypatch.setattr(quantum.np.linalg, "eigh", lowered_row_on_second_call)
    with pytest.raises(RuntimeError, match="state step decreased"):
        quantum.seesaw_maximize_all(ineqs, restarts=2, seed=1)
    assert calls == [12, 12]


def test_empty_batch_returns_no_reports():
    assert quantum.seesaw_maximize_all([], restarts=4, seed=0) == []
