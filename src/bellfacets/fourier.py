"""Sign functions of paired dichotomic variables and their exact Fourier spectra.

Every observer i in {0, ..., N-1} owns a pair of +/-1 product variables: the
products of its reference-setting outcome with its setting-1 and setting-2
outcomes.  An assignment of all 2N variables is packed into an integer: bit 2i
holds observer i's first variable, bit 2i+1 its second, with bit value 0
meaning +1 and 1 meaning -1.  A sign function assigns +/-1 to each of the
2^(2N) assignments and is stored as a packed bit table (bit k set means value
-1 at assignment k).

A spectrum is an int64 array indexed by variable subset T, packed like an
assignment (bit j set when variable j is in T).  It is kept unnormalized: the
coefficient on T is sum_v s(v) * prod_{j in T} v_j, an even integer of
magnitude at most 2^(2N).  This keeps all arithmetic exact; dividing by
2^(2N) recovers the conventional normalized expansion.

Observer i's bits 2i and 2i+1 form its pair code c = u + 2w.  In a subset,
code c = 0, 1, 2 addresses observer i's setting c and code 3, the local
product u*w, addresses none (:func:`_setting_subsets`).  A sign function is
*admissible* when its spectrum puts zero weight on every subset holding a
code 3; admissible functions generate the tight correlation inequalities
built in :mod:`bellfacets.polytope`.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

MIN_PARTIES = 2
MAX_PARTIES = 4


def table_size(parties: int) -> int:
    """Number of variable assignments, 2^(2N)."""
    return 1 << (2 * parties)


def _table_bits(parties: int, tables: Iterable[int]) -> np.ndarray:
    """Unpack packed tables into bit rows: row r, column k is bit k of tables[r]."""
    n = table_size(parties)
    raw = np.frombuffer(b"".join([t.to_bytes(n // 8, "little") for t in tables]), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").reshape(-1, n)


def _bit_tables(rows: np.ndarray) -> list[int]:
    """Pack bit rows (entry k in column k) into table integers, one per row."""
    packed = np.packbits(rows, axis=-1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[-1]
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def _check_parties(parties: int) -> None:
    if not MIN_PARTIES <= parties <= MAX_PARTIES:
        raise ValueError(f"parties must be in [{MIN_PARTIES}, {MAX_PARTIES}], got {parties}")


@lru_cache(maxsize=None)
def _pair_codes(parties: int) -> np.ndarray:
    """Observer i's pair code u + 2w (bits 2i and 2i+1) of every assignment,
    shape (2^(2N), N); bit u set means its first variable is -1."""
    _check_parties(parties)
    codes = np.arange(table_size(parties))[:, None] >> 2 * np.arange(parties) & 3
    codes.setflags(write=False)
    return codes


@dataclass(frozen=True)
class SignFunction:
    """A +/-1-valued function on all assignments, as a packed bit table."""

    parties: int
    table: int

    def __post_init__(self):
        _check_parties(self.parties)
        if not isinstance(self.table, int) or isinstance(self.table, bool):
            raise ValueError(f"table must be an int, got {type(self.table).__name__}")
        if not 0 <= self.table < (1 << table_size(self.parties)):
            raise ValueError(f"table has bits beyond 2^(2N) entries for N={self.parties}")

    @classmethod
    def from_values(cls, parties: int, values: Iterable[int]) -> "SignFunction":
        vals = list(values)
        if len(vals) != table_size(parties):
            raise ValueError(f"need {table_size(parties)} values, got {len(vals)}")
        table = 0
        for k, v in enumerate(vals):
            if v == -1:
                table |= 1 << k
            elif v != 1:
                raise ValueError(f"table entry {k} is {v}, not +/-1")
        return cls(parties, table)

    @classmethod
    def from_function(cls, parties: int, fn: Callable[..., int]) -> "SignFunction":
        """Build the table by evaluating fn on every assignment's variable values."""
        _check_parties(parties)
        bits = np.arange(table_size(parties))[:, None] >> np.arange(2 * parties) & 1
        return cls.from_values(parties, [fn(*row) for row in (1 - 2 * bits).tolist()])

    def values(self) -> np.ndarray:
        """The table as an int8 array of +/-1, index = packed assignment."""
        return 1 - 2 * _table_bits(self.parties, (self.table,))[0].astype(np.int8)

    def to_text(self) -> str:
        """Serialize as ``N=<n>;table=<hex>`` with little-endian bit order."""
        n = table_size(self.parties)
        return f"N={self.parties};table={self.table.to_bytes(n // 8, 'little').hex()}"

    @classmethod
    def from_text(cls, text: str) -> "SignFunction":
        try:
            n_part, t_part = text.strip().split(";")
            parties = int(n_part.removeprefix("N="))
            hexstr = t_part.removeprefix("table=")
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"malformed sign-function text {text!r}") from exc
        if not n_part.startswith("N=") or not t_part.startswith("table="):
            raise ValueError(f"malformed sign-function text {text!r}")
        _check_parties(parties)
        expected = table_size(parties) // 4
        if len(hexstr) != expected:
            raise ValueError(f"table hex must have {expected} digits for N={parties}")
        if not set(hexstr) <= set(string.hexdigits):  # bytes.fromhex would skip spaces
            raise ValueError(f"malformed sign-function text {text!r}")
        return cls(parties, int.from_bytes(bytes.fromhex(hexstr), "little"))


def _fwht(values: np.ndarray) -> np.ndarray:
    """Integer Walsh-Hadamard butterfly over the last axis (a new array)."""
    out = np.asarray(values, dtype=np.int64)
    shape = out.shape
    n = shape[-1]
    h = 1
    while h < n:
        # one stage: every block of 2h entries maps (a, b) to (a + b, a - b)
        pairs = out.reshape(shape[:-1] + (n // (2 * h), 2, h))
        a, b = pairs[..., 0, :], pairs[..., 1, :]
        out = np.stack((a + b, a - b), axis=-2).reshape(shape)
        h *= 2
    return out


@lru_cache(maxsize=None)
def _setting_subsets(parties: int) -> np.ndarray:
    """The subset addressing each settings tuple, tuples in row-major order
    (observer 0 slowest): observer i's setting n is code n at bits 2i."""
    subsets = sum(np.ix_(*(np.arange(3) << 2 * i for i in range(parties)))).ravel()
    subsets.setflags(write=False)
    return subsets


def fourier_transform(s: SignFunction) -> np.ndarray:
    """Exact integer spectrum of a sign function: a read-only int64 array of
    length 2^(2N), entry T the coefficient on packed variable subset T.

    Coefficient at subset T is sum_v s(v) * chi_T(v) with
    chi_T(v) = (-1)^popcount(T & v); computed by a fast Walsh-Hadamard
    transform in O(2^(2N) * 2N) integer operations.  The transform is its
    own inverse up to scale: _fwht(fourier_transform(s)) == 2^(2N) * s.values().
    """
    spectrum = _fwht(s.values())
    spectrum.setflags(write=False)
    return spectrum


@lru_cache(maxsize=None)
def _block_indices(parties: int) -> np.ndarray:
    """Entry indices of every observer's local blocks, shape (N, 4, 4^(N-1)):
    row i holds observer i's pair codes 0, 1, 2, 3 for each assignment of the
    other observers."""
    by_code = np.argsort(_pair_codes(parties).T, axis=1, kind="stable")  # ascending within a code
    index = by_code.reshape(parties, 4, -1)
    index.setflags(write=False)
    return index


def _admissible(tables: np.ndarray, parties: int) -> np.ndarray:
    """The block test, one verdict per table (..., 2^(2N)): for every observer and
    assignment r of the other variables, the code-3 character u*w sums to zero
    over the block: s(0, r) - s(1, r) - s(2, r) + s(3, r) = 0.
    It is linear, so tables may hold +/-1 values or their 0/1 bits."""
    block = tables[..., _block_indices(parties)]
    return np.all(block[..., 0, :] + block[..., 3, :] == block[..., 1, :] + block[..., 2, :], axis=(-2, -1))


def is_admissible(s: SignFunction) -> bool:
    """True when no observer's pair product survives in the spectrum, decided
    by the block test on the table's bits (no transform)."""
    return bool(_admissible(_table_bits(s.parties, (s.table,))[0], s.parties))


def is_factorable(s: SignFunction) -> bool:
    """True when s is +/- a single character, yielding a trivial inequality.

    Equivalent to the induced coefficient tensor having exactly one nonzero
    entry, necessarily of magnitude 2^(2N): by Parseval the squared spectrum
    of a +/-1 table sums to 2^(4N).
    """
    return bool(np.count_nonzero(fourier_transform(s)) == 1)
