"""Machine-readable catalogs: JSON and CSV serialization of results.

Catalog bytes are deterministic for a given computation: keys are sorted,
separators fixed, and no timestamps or timings are written.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from pathlib import Path
from typing import Any

import numpy as np

from .enumeration import EnumerationReport
from .fourier import MAX_PARTIES, MIN_PARTIES, SignFunction, is_admissible
from .polytope import BellInequality, TightnessCertificate, sign_function_of
from .quantum import QuantumValueReport


def settings_labels(parties: int) -> list[str]:
    """Column names for the row-major flattened coefficient tensor."""
    return ["E_" + "".join(map(str, digits)) for digits in itertools.product(range(3), repeat=parties)]


def inequality_entry(
    ineq: BellInequality, certificate: TightnessCertificate, canonical: bool
) -> dict[str, Any]:
    if (s := sign_function_of(ineq)) is None:
        raise ValueError("catalog entries need a generating sign function")
    return {  # in the CSV column order; JSON sorts the keys
        "parties": ineq.parties,
        "sign_function": s.to_text(),
        "bound": ineq.bound,
        "canonical": canonical,
        "tight": certificate.tight,
        "saturating_count": certificate.saturating_count,
        "rank": certificate.rank,
        "coeffs": [int(c) for c in ineq.coeffs.ravel()],
    }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def entry_inequality(entry: dict[str, Any]) -> BellInequality:
    """Rebuild the inequality exactly as stored (coefficients not recomputed).

    Each field is checked first; a malformed one, a non-positive bound or a
    non-admissible sign function among them, raises one ValueError naming it.
    """
    missing = [k for k in ("parties", "coeffs", "bound", "sign_function") if k not in entry]
    if missing:
        raise ValueError(f"lacks {', '.join(missing)}")
    parties, coeffs, bound = entry["parties"], entry["coeffs"], entry["bound"]
    if not _is_int(parties) or not MIN_PARTIES <= parties <= MAX_PARTIES:
        raise ValueError(
            f"parties must be an integer in [{MIN_PARTIES}, {MAX_PARTIES}], got {parties!r}"
        )
    # a vertex value sums 3^N products of +/-1 and a coefficient: exact in int64
    limit = (2**63 - 1) // 3**parties
    if not (
        isinstance(coeffs, list)
        and len(coeffs) == 3**parties
        and all(_is_int(c) and abs(c) <= limit for c in coeffs)
    ):
        raise ValueError(f"coeffs must be a list of {3**parties} integers within +/-{limit}")
    if not _is_int(bound) or abs(bound) > limit:
        raise ValueError(f"bound must be an integer within +/-{limit}, got {bound!r}")
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    s = SignFunction.from_text(entry["sign_function"])
    if s.parties != parties:
        raise ValueError(f"sign_function has N={s.parties}, parties is {parties}")
    if not is_admissible(s):
        raise ValueError(f"sign_function {s.to_text()} has a local-product Fourier component")
    array = np.array(coeffs, dtype=np.int64).reshape((3,) * parties)
    array.setflags(write=False)
    return BellInequality(parties=parties, coeffs=array, bound=bound)


def entry_certificate(entry: dict[str, Any]) -> TightnessCertificate:
    """The certificate an entry records; a missing or mistyped field raises
    one ValueError naming the field."""
    missing = [k for k in ("tight", "saturating_count", "rank") if k not in entry]
    if missing:
        raise ValueError(f"lacks {', '.join(missing)}")
    if not isinstance(entry["tight"], bool):
        raise ValueError(f"tight must be true or false, got {entry['tight']!r}")
    for key in ("saturating_count", "rank"):
        if not _is_int(entry[key]) or entry[key] < 0:
            raise ValueError(f"{key} must be a non-negative integer, got {entry[key]!r}")
    return TightnessCertificate(entry["tight"], entry["saturating_count"], entry["rank"])


def entry_lifted(entry: dict[str, Any]) -> tuple[int, int] | None:
    """The lifted bounds an entry records, or None when it holds no block; a
    malformed block raises one ValueError."""
    if "lifted" not in entry:
        return None
    if not isinstance(block := entry["lifted"], dict):
        raise ValueError(f"lifted must be an object, got {block!r}")
    bounds = block.get("bounds")
    if not (isinstance(bounds, list) and len(bounds) == 2 and all(map(_is_int, bounds))):
        raise ValueError(f"lifted bounds must be a list of two integers, got {bounds!r}")
    return bounds[0], bounds[1]


def quantum_block(report: QuantumValueReport, seed: int, restarts: int) -> dict[str, Any]:
    return {
        "max": float(report.quantum_max),
        "ratio": float(report.violation_ratio),
        "directions": [
            [[float(c) for c in setting] for setting in party]
            for party in report.directions.directions
        ],
        "state_re": [float(x) for x in np.real(report.state)],
        "state_im": [float(x) for x in np.imag(report.state)],
        "seed": seed,
        "restarts": restarts,
        "restarts_used": report.restarts_used,
        "converged": report.converged,
        "iterations": len(report.objective_trace) // 2,  # state steps of the reported restart
    }


def classification_dict(report: EnumerationReport) -> dict[str, Any]:
    """Census as a plain dict."""
    return {
        "parties": report.parties,
        "total_admissible": report.total_admissible,
        "factorable_count": report.factorable_count,
        "canonical_classes": [
            {
                "representative": c.representative.to_text(),
                "orbit_size": c.orbit_size,
                "factorable": c.factorable,
            }
            for c in report.canonical_classes
        ],
    }


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def read_json(path: str | Path) -> Any:
    """The parsed file; text that is not JSON, or nests too deeply to parse,
    raises ValueError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path} nests too deeply to parse as JSON") from None


def catalog_csv(rows: list[dict[str, Any]]) -> str:
    """Flat CSV export, one line per row, columns in the order the rows first
    name their keys (empty where a row lacks one); a coeffs list becomes the
    settings columns E_..."""
    if not rows:
        return ""
    keys = list(dict.fromkeys(k for row in rows for k in row))
    labels = settings_labels(int(rows[0]["parties"])) if "coeffs" in keys else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name for k in keys for name in (labels if k == "coeffs" else [k])])
    writer.writerows([v for k in keys for v in (row[k] if k == "coeffs" else [row.get(k)])] for row in rows)
    return buf.getvalue()


def write_catalog(path: str | Path, entries: list[dict[str, Any]], fmt: str = "json") -> None:
    if fmt == "json":
        write_json(path, entries)
    elif fmt == "csv":
        Path(path).write_text(catalog_csv(entries), encoding="utf-8")
    else:
        raise ValueError(f"unknown catalog format {fmt!r}")
