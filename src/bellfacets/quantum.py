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
RuntimeError.

See-saw yields lower bounds only; reports label the result as the best value
found over the requested restarts.  The reported state's first amplitude of
modulus above 1e-12 is real and positive, which fixes its global phase.
"""

from __future__ import annotations

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
_ZERO_AMPLITUDE = 1e-12


class NotNormalized(ValueError):
    """State vector norm is not 1 within 1e-12."""


@dataclass(frozen=True, eq=False)
class ObservableDirection:
    """Unit Bloch vectors, one per (observer, setting); shape (N, 3, 3)."""

    directions: np.ndarray

    def __post_init__(self):
        if self.directions.ndim != 3 or self.directions.shape[1:] != (3, 3):
            raise ValueError("directions must have shape (parties, 3 settings, 3 components)")
        norms = np.linalg.norm(self.directions, axis=2)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("every direction must be a unit vector within 1e-12")

    @property
    def parties(self) -> int:
        return self.directions.shape[0]

    @classmethod
    def random(cls, parties: int, rng: np.random.Generator) -> "ObservableDirection":
        vecs = rng.normal(size=(parties, 3, 3))
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        return cls(vecs)

    def observable(self, party: int, setting: int) -> np.ndarray:
        """The 2x2 observable n . sigma for one observer and setting."""
        return np.tensordot(self.directions[party, setting], _PAULI, axes=(0, 0))


@cache
def _pauli_basis(parties: int) -> np.ndarray:
    """sigma_k1 (x) ... (x) sigma_kN for every k, observer 0 slowest; read-only,
    shape (3^N, 2^N, 2^N)."""
    basis = np.ones((1, 1, 1), dtype=np.complex128)
    for _ in range(parties):
        dim = 2 * basis.shape[1]
        basis = np.einsum("aij,bkl->abikjl", basis, _PAULI).reshape(-1, dim, dim)
    basis.setflags(write=False)
    return basis


def bell_operator(ineq: BellInequality, dirs: ObservableDirection) -> np.ndarray:
    """sum_n g_n  (x)_i (dirs[i][n_i] . sigma), Hermitian on 2^N dimensions."""
    if dirs.parties != ineq.parties:
        raise ValueError("direction set and inequality disagree on observer count")
    coords = ineq.coeffs  # becomes T: each step turns one settings axis into components
    for party_dirs in dirs.directions:
        coords = np.tensordot(coords, party_dirs, axes=(0, 0))
    basis = _pauli_basis(ineq.parties)
    dim = basis.shape[1]
    return (coords.reshape(-1) @ basis.reshape(len(basis), -1)).reshape(dim, dim)


def _correlations(state: np.ndarray, parties: int) -> np.ndarray:
    """C[k] = <state| sigma_k1 (x) ... (x) sigma_kN |state>, shape (3,) * N; real,
    since every Pauli product is Hermitian."""
    return np.real(_pauli_basis(parties) @ state @ np.conj(state)).reshape((3,) * parties)


@cache
def _score_subscripts(parties: int, party: int) -> str:
    """einsum subscripts of g, the other observers' directions and C, leaving
    this observer's (setting, component) axes."""
    settings, comps = "abcdefgh"[:parties], "ijklmnop"[:parties]
    others = "".join(f",{settings[j]}{comps[j]}" for j in range(parties) if j != party)
    return f"{settings}{others},{comps}->{settings[party]}{comps[party]}"


def _observer_scores(
    coeffs: np.ndarray, dirs: np.ndarray, corr: np.ndarray, party: int
) -> np.ndarray:
    """score[s, k]: the objective's linear coefficient on component k of this
    observer's setting-s direction, with the state and the other observers fixed."""
    others = [d for j, d in enumerate(dirs) if j != party]
    return np.einsum(_score_subscripts(len(dirs), party), coeffs, *others, corr)


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
    if abs(np.linalg.norm(state) - 1.0) > 1e-12:
        raise NotNormalized("state vector must have unit norm within 1e-12")
    return float(np.real(np.conj(state) @ bell_operator(ineq, dirs) @ state))


def algebraic_maximum(ineq: BellInequality) -> int:
    """sum |g_n|, the value no quantum or other theory can exceed."""
    return int(np.abs(ineq.coeffs).sum())


@dataclass(frozen=True, eq=False)
class QuantumValueReport:
    """Best quantum value found by see-saw, on the integer coefficient scale."""

    inequality_id: str
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


def seesaw_maximize(
    ineq: BellInequality,
    restarts: int = 32,
    seed: int = 0,
    improvement_threshold: float = 1e-10,
    max_iterations: int = 10_000,
) -> QuantumValueReport:
    """Alternating maximization over state and observable directions.

    Deterministic for a given seed and restart count: restart r draws its
    initial directions from the r-th spawn of the seed sequence, and ties
    between restarts keep the earliest.  Stops early once the algebraic
    maximum is reached, since no later restart could improve on it.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    parties = ineq.parties
    scale = float(ineq.bound)
    cap = float(algebraic_maximum(ineq))

    best_value = -np.inf
    best_dirs: np.ndarray | None = None
    best_state: np.ndarray | None = None
    best_converged = False
    best_trace: tuple[float, ...] = ()
    restarts_used = 0

    for child in np.random.SeedSequence(seed).spawn(restarts):
        restarts_used += 1
        rng = np.random.default_rng(child)
        dirs = rng.normal(size=(parties, 3, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        trace: list[float] = []
        prev = -np.inf
        converged = False
        state = np.zeros(2 ** parties, dtype=np.complex128)
        for _ in range(max_iterations):
            operator = bell_operator(ineq, ObservableDirection(dirs.copy()))
            eigvals, eigvecs = np.linalg.eigh(operator)
            value = float(eigvals[-1])
            if value < prev - _MONOTONE_SLACK:
                raise RuntimeError(f"state step decreased the objective from {prev!r} to {value!r}")
            trace.append(value)
            state = eigvecs[:, -1]
            corr = _correlations(state, parties)

            for party in range(parties):
                score = _observer_scores(ineq.coeffs, dirs, corr, party)
                norms = np.linalg.norm(score, axis=1)
                live = norms >= _DEGENERATE_NORM  # a null coefficient slice keeps its direction
                gains = norms[live] - np.einsum("sk,sk->s", dirs[party, live], score[live])
                if np.any(gains < -_MONOTONE_SLACK):
                    raise RuntimeError(f"direction step decreased the objective by {-gains.min()!r}")
                value += float(gains.sum())
                dirs[party, live] = score[live] / norms[live, None]
            trace.append(value)

            if value - prev < improvement_threshold * scale:
                converged = True
                prev = value
                break
            prev = value

        if prev > best_value:
            best_value = prev
            best_dirs = dirs.copy()
            best_state = state.copy()
            best_converged = converged
            best_trace = tuple(trace)
        if best_value >= cap - 1e-12 * max(1.0, cap):
            break

    if best_dirs is None or best_state is None:
        raise RuntimeError("see-saw found no finite objective value")
    return QuantumValueReport(
        inequality_id=ineq.provenance.to_text() if ineq.provenance is not None else "",
        quantum_max=best_value,
        violation_ratio=min(best_value / scale, cap / scale),
        directions=ObservableDirection(best_dirs),
        state=_canonical_phase(best_state),
        restarts_used=restarts_used,
        converged=best_converged,
        objective_trace=best_trace,
    )
