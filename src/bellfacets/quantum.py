"""Maximal quantum values of the generated inequalities over qubit observables.

Each observer measures a +/-1 qubit observable n . sigma per setting, n a unit
Bloch vector.  Every term uses one setting per observer, so for directions
``dirs`` the Bell operator is sum_k T[k] sigma_k1 (x) ... (x) sigma_kN with
T[k] = sum_s g_s prod_i dirs[i, s_i, k_i], the inequality in Pauli
coordinates; its value in a state is <T, C>, where C[k] =
<psi| sigma_k1 (x) ... (x) sigma_kN |psi> is the state's correlation tensor.

The maximum over directions and states is lower-bounded by alternating
(see-saw) optimization.  The state step takes the operator's top eigenvector.
The direction step visits the observers in turn; no term holds two settings
of one observer, so one contraction of g, C and the other observers'
directions scores all its settings at once, and each takes its normalized
score.  Both steps are monotone; a decrease beyond rounding raises
RuntimeError.  The (inequality, restart) rows of one observer count advance
in lockstep, up to _ROW_BLOCK at a time: one stacked eigh per iteration and
batched contractions, none of which mixes rows.

Stop rule: a restart ends, converged, after the first iteration (a state
step, then every observer's direction step) that raises the objective by
less than _IMPROVEMENT_THRESHOLD = 1e-10 times the inequality's bound; one
that reaches _MAX_ITERATIONS = 10 000 iterations first ends there, not
converged.  A slow tail shrinks its gains by a near-constant ratio, so after
every _EXTRAPOLATE_EVERY = 5 iterations of a restart whose last two gains fall,
d_k < d_{k-1}, it tries Aitken's delta-squared step: each direction n moves to
normalize(n + rho/(1 - rho) (n - n_before)), rho = d_k/d_{k-1}, n_before its
value when the iteration began.  The trial is kept only if its operator's top
eigenvalue exceeds the objective; it is not an iteration and not in the trace.

See-saw yields lower bounds only.  Each report is the run of highest final
value among the restarts used (NaN never wins), the earliest on a tie, so the
order in which rows finish cannot change it.  The reported state's first
amplitude of modulus above 1e-12 is real and positive, fixing its phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .polytope import BellInequality

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_PAULI = np.stack([PAULI_X, PAULI_Y, PAULI_Z])

_DEGENERATE_NORM = 1e-12
_MONOTONE_SLACK = 1e-8
_IMPROVEMENT_THRESHOLD = 1e-10  # the stop rule (module docstring), relative to the bound
_MAX_ITERATIONS = 10_000
_ZERO_AMPLITUDE = 1e-12
_ROW_BLOCK = 64  # rows advanced together; bounds every stacked array
_EXTRAPOLATE_EVERY = 5  # iterations of a row between its extrapolation trials


@dataclass(frozen=True, eq=False)
class ObservableDirection:
    """Unit Bloch vectors, one per (observer, setting); shape (N, 3, 3)."""

    directions: np.ndarray

    def __post_init__(self):
        if self.directions.ndim != 3 or self.directions.shape[1:] != (3, 3):
            raise ValueError("directions must have shape (parties, 3 settings, 3 components)")
        norms = np.linalg.norm(self.directions, axis=2)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # NaN fails too
            raise ValueError("every direction must be a unit vector within 1e-12")

    @property
    def parties(self) -> int:
        return self.directions.shape[0]

    @classmethod
    def random(cls, parties: int, rng: np.random.Generator) -> "ObservableDirection":
        vecs = rng.normal(size=(parties, 3, 3))
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        return cls(vecs)


@cache
def _pauli_basis(parties: int) -> np.ndarray:
    """sigma_k1 (x) ... (x) sigma_kN for every k, observer 0 slowest: one read-only row per k
    of its 4^N complex entries as interleaved (re, im) floats, shape (3^N, 2 * 4^N)."""
    basis = np.ones((1, 1, 1), dtype=np.complex128)
    for _ in range(parties):
        dim = 2 * basis.shape[1]
        basis = np.einsum("aij,bkl->abikjl", basis, _PAULI).reshape(-1, dim, dim)
    basis = basis.reshape(len(basis), -1).view(np.float64)
    basis.setflags(write=False)
    return basis


def _operators(coeffs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Bell operators (..., 2^N, 2^N) of coefficient tensors (..., 3, ..., 3) under directions
    (..., N, 3, 3), in real arithmetic on the basis' (re, im) floats."""
    parties, lead = dirs.shape[-3], dirs.shape[:-3]
    coords = coeffs  # becomes T: each step turns the leading settings axis into a trailing component axis
    for party in range(parties):
        coords = coords.reshape(*lead, 3, -1).swapaxes(-1, -2) @ dirs[..., party, :, :]
    flat = coords.reshape(*lead, 1, -1) @ _pauli_basis(parties)
    return flat.view(np.complex128).reshape(*lead, 2 ** parties, 2 ** parties)


def _top_values(coeffs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each Bell operator: the objective of the directions under their best state."""
    return np.linalg.eigvalsh(_operators(coeffs, dirs))[:, -1]


def bell_operator(ineq: BellInequality, dirs: ObservableDirection) -> np.ndarray:
    """sum_n g_n  (x)_i (dirs[i][n_i] . sigma), Hermitian on 2^N dimensions."""
    if dirs.parties != ineq.parties:
        raise ValueError("direction set and inequality disagree on observer count")
    return _operators(ineq.coeffs, dirs.directions)


def _correlations(state: np.ndarray, parties: int) -> np.ndarray:
    """C[..., k] = <state| sigma_k1 (x) ... (x) sigma_kN |state> for states (..., 2^N),
    shape (...,) + (3,) * N; real, since every Pauli product is Hermitian."""
    outer = state[..., :, None] * np.conj(state)[..., None, :]  # conjugate of <psi|i><j|psi>
    flat = outer.reshape(*state.shape[:-1], 1, -1).view(np.float64) @ _pauli_basis(parties).T
    return flat.reshape(state.shape[:-1] + (3,) * parties)


def _observer_scores(coeffs: np.ndarray, dirs: np.ndarray, corr: np.ndarray, party: int) -> np.ndarray:
    """score[..., s, k]: the objective's linear coefficient on component k of this observer's
    setting-s direction, with the state and the other observers fixed (coeffs, corr:
    (...,) + (3,) * N; dirs: (..., N, 3, 3)).  With the other observers' directions as one
    Kronecker factor D, score = g D C^T, this observer's axis leading in g and C."""
    parties, lead = dirs.shape[-3], dirs.shape[:-3]
    others = [dirs[..., j, :, :] for j in range(parties) if j != party]
    kron = others[0]
    for d in others[1:]:
        kron = (kron[..., :, None, :, None] * d[..., None, :, None, :]).reshape(*lead, 3 * kron.shape[-1], -1)
    axes = list(range(coeffs.ndim))
    axes.insert(len(lead), axes.pop(len(lead) + party))
    g, c = (x.transpose(axes).reshape(*lead, 3, -1) for x in (coeffs, corr))
    return g @ kron @ c.swapaxes(-1, -2)


def _canonical_phase(state: np.ndarray) -> np.ndarray:
    """The state with its first amplitude of modulus > 1e-12 made real and positive."""
    lead = int(np.argmax(np.abs(state) > _ZERO_AMPLITUDE))
    modulus = abs(state[lead])
    state = state * (np.conj(state[lead]) / modulus)
    state[lead] = modulus  # the product can keep an imaginary part of one ulp
    return state


def evaluate_state(ineq: BellInequality, dirs: ObservableDirection, state: np.ndarray) -> float:
    """<state| bell_operator |state> on a normalized 2^N state vector."""
    state = np.asarray(state, dtype=np.complex128).ravel()
    if state.shape != (2 ** ineq.parties,):
        raise ValueError(f"state must have 2^{ineq.parties} amplitudes")
    if not abs(np.linalg.norm(state) - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("state vector must have unit norm within 1e-12")
    return float(np.real(np.conj(state) @ bell_operator(ineq, dirs) @ state))


def algebraic_maximum(ineq: BellInequality) -> int:
    """sum |g_n|, the value no quantum or other theory can exceed."""
    return int(np.abs(ineq.coeffs).sum())


@dataclass(frozen=True, eq=False)
class QuantumValueReport:
    """Best quantum value found by see-saw, on the integer coefficient scale."""

    quantum_max: float
    violation_ratio: float
    directions: ObservableDirection
    state: np.ndarray
    restarts_used: int
    converged: bool
    objective_trace: tuple[float, ...]

    @property
    def quantum_violating(self) -> bool:
        return self.violation_ratio > 1 + 1e-9


def seesaw_maximize(ineq: BellInequality, restarts: int = 32, seed: int = 0) -> QuantumValueReport:
    """seesaw_maximize_all on one inequality."""
    return seesaw_maximize_all([ineq], restarts, seed)[0]


def seesaw_maximize_all(ineqs: list[BellInequality], restarts: int = 32,
                        seed: int = 0) -> list[QuantumValueReport]:
    """Alternating maximization over state and observable directions, one report per
    inequality, in order.  Deterministic for a given seed and restart count: restart r of
    every inequality starts from the r-th spawn of the seed sequence, and ties between
    restarts keep the earliest.  An inequality stops after the first restart that reaches
    the algebraic maximum, since no later one could improve on it.  Each report depends on
    its own inequality alone.  A non-positive bound raises ValueError before any iteration."""
    if restarts < 1:
        raise ValueError("need at least one restart")
    for k, ineq in enumerate(ineqs):
        if ineq.bound <= 0:
            raise ValueError(f"inequality {k} has non-positive bound {ineq.bound}")
    reports = {}
    for parties in {ineq.parties for ineq in ineqs}:
        index = [k for k, ineq in enumerate(ineqs) if ineq.parties == parties]
        found = _lockstep([ineqs[k] for k in index], restarts, seed)
        reports.update(zip(index, found))
    return [reports[k] for k in range(len(ineqs))]


def _lockstep(ineqs, restarts, seed) -> list[QuantumValueReport]:
    """seesaw_maximize_all on inequalities of one observer count: rows are
    admitted in (inequality, restart) order, up to _ROW_BLOCK at a time."""
    parties = ineqs[0].parties
    starts = np.stack([ObservableDirection.random(parties, np.random.default_rng(child)).directions
                       for child in np.random.SeedSequence(seed).spawn(restarts)])
    coeffs = np.stack([ineq.coeffs for ineq in ineqs]).astype(np.float64)
    scales = np.array([float(ineq.bound) for ineq in ineqs])
    caps = np.array([float(algebraic_maximum(ineq)) for ineq in ineqs])
    used = np.full(len(ineqs), restarts)  # lowered to r + 1 once restart r reaches the cap
    runs = [[None] * restarts for _ in ineqs]  # runs[e][r]: (value, converged, trace, dirs, state)
    queue = ((e, r) for e in range(len(ineqs)) for r in range(restarts))
    owner = restart = count = np.zeros(0, np.intp)
    dirs, prev, last_gain, traces = starts[:0], np.zeros(0), np.zeros(0), []
    while True:
        admit = list(itertools.islice(((e, r) for e, r in queue if r < used[e]), _ROW_BLOCK - len(traces)))
        if admit:
            new_owner, new_restart = np.array(admit, dtype=np.intp).T
            owner, restart = np.append(owner, new_owner), np.append(restart, new_restart)
            count = np.append(count, np.zeros(len(admit), np.intp))
            dirs, prev = np.concatenate((dirs, starts[new_restart])), np.append(prev, [-np.inf] * len(admit))
            last_gain = np.append(last_gain, [np.nan] * len(admit))
            traces += [[] for _ in admit]
            g, tol = coeffs[owner], _IMPROVEMENT_THRESHOLD * scales[owner]
        if not traces:
            break

        eigvals, eigvecs = np.linalg.eigh(_operators(g, dirs))
        value = eigvals[:, -1]
        if (low := value < prev - _MONOTONE_SLACK).any():
            was, now = (float(x[np.argmax(low)]) for x in (prev, value))
            raise RuntimeError(f"state step decreased the objective from {was!r} to {now!r}")
        state = eigvecs[:, :, -1]
        corr = _correlations(state, parties)
        last_dirs, stepped = dirs.copy(), value
        for party, party_dirs in enumerate(dirs.transpose(1, 0, 2, 3)):
            score = _observer_scores(g, dirs, corr, party)
            norms = np.sqrt(np.add.reduce(score * score, 2, keepdims=True))
            live = norms >= _DEGENERATE_NORM  # a null coefficient slice keeps its direction
            gains = (norms - np.add.reduce(party_dirs * score, 2, keepdims=True)) * live
            if gains.min() < -_MONOTONE_SLACK:
                raise RuntimeError(f"direction step decreased the objective by {float(-gains.min())!r}")
            stepped = stepped + np.add.reduce(gains, (1, 2))
            np.divide(score, norms, out=party_dirs, where=live)

        for trace, before, after in zip(traces, value.tolist(), stepped.tolist()):
            trace += (before, after)
        count += 1
        gain, prev = stepped - prev, stepped
        converged = gain < tol
        finished = converged | (count >= _MAX_ITERATIONS)
        for i in np.flatnonzero(finished).tolist():
            e, r = owner[i], restart[i]
            runs[e][r] = (float(prev[i]), bool(converged[i]), np.array(traces[i]), dirs[i].copy(), state[i].copy())
            if prev[i] >= caps[e] - 1e-12 * max(1.0, caps[e]):
                used[e] = min(used[e], r + 1)

        # the extrapolation trial (module docstring), on rows that go on
        trial = np.flatnonzero(~finished & (count % _EXTRAPOLATE_EVERY == 0) & (last_gain > gain) & (gain > 0))
        if trial.size:
            rho = (gain[trial] / last_gain[trial])[:, None, None, None]
            step = dirs[trial] + rho / (1 - rho) * (dirs[trial] - last_dirs[trial])
            norms = np.sqrt(np.add.reduce(step * step, 3, keepdims=True))
            ok = (norms >= _DEGENERATE_NORM).all((1, 2, 3))
            trial, step = trial[ok], step[ok] / norms[ok]
            top = _top_values(g[trial], step)
            better = top > prev[trial]
            dirs[trial[better]], prev[trial[better]] = step[better], top[better]
        last_gain = gain
        if finished.any():
            keep = ~finished & (restart < used[owner])
            owner, restart, count, dirs, prev, last_gain, g, tol = (
                x[keep] for x in (owner, restart, count, dirs, prev, last_gain, g, tol))
            traces = [trace for trace, k in zip(traces, keep.tolist()) if k]

    reports = []
    for ineq, done, n, scale, cap in zip(ineqs, runs, used.tolist(), scales.tolist(), caps.tolist()):
        values = np.array([run[0] for run in done[:n]])
        best = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))  # earliest on a tie
        value, converged, trace, best_dirs, best_state = done[best]
        if not value > -np.inf:
            raise RuntimeError("see-saw found no finite objective value")
        reports.append(QuantumValueReport(
            value, min(value / scale, cap / scale), ObservableDirection(best_dirs),
            _canonical_phase(best_state), n, converged, tuple(trace.tolist())))
    return reports
