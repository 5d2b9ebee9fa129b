"""Checks on every output the benchmark counts.

Each ``*_problems`` function reads one output and returns a list of problems;
an empty list means the output passes.  None of them imports bellfacets: the
library is never asked to confirm its own output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ROOT2 = math.sqrt(2.0)


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def catalog_problems(path, parties, count):
    """Entry count, and every entry tight with rank 3^N on 2^(2N) saturating vertices."""
    entries = load(path)
    out = [] if len(entries) == count else [f"{len(entries)} entries, expected {count}"]
    for e in entries:
        if (e["parties"], e["bound"], len(e["coeffs"])) != (parties, 4 ** parties, 3 ** parties):
            out.append(f"{e['sign_function']}: wrong parties/bound/size")
        if (e["tight"], e["rank"], e["saturating_count"]) != (True, 3 ** parties, 4 ** parties):
            out.append(f"{e['sign_function']}: certificate {e['tight']}/{e['rank']}/{e['saturating_count']}")
    return out


def census_problems(path, parties, total, classes, factorable=None):
    census = load(path)
    got = (census["parties"], census["total_admissible"], len(census["canonical_classes"]))
    out = [] if got == (parties, total, classes) else [f"census {got}, expected {(parties, total, classes)}"]
    if factorable is not None and census["factorable_count"] != factorable:
        out.append(f"factorable {census['factorable_count']}, expected {factorable}")
    return out


def verify_problems(path, parties, count):
    rows = load(path)
    out = [] if len(rows) == count else [f"{len(rows)} rows, expected {count}"]
    bound = 4 ** parties
    for r in rows:
        got = (r["pass"], r["tight"], r["rank"], r["saturating_count"], r["lhv_max"], r["lhv_min"])
        if got != (True, True, 3 ** parties, bound, bound, -bound):
            out.append(f"{r['sign_function']}: verify row {got}")
    return out


def _strip(entries, key):
    return [{k: v for k, v in e.items() if k != key} for e in entries]


def lift_problems(source, path):
    src, entries = load(source), load(path)
    out = [] if _strip(entries, "lifted") == src else ["lift changed the source entries"]
    for e in entries:
        low, high = e["lifted"]["bounds"]
        if not -e["bound"] <= low <= high <= e["bound"]:
            out.append(f"{e['sign_function']}: lifted bounds {low}, {high}")
    return out


def _is_mermin(coeffs):
    want = {0: -32, 4: 32, 10: 32, 12: 32}
    return len(coeffs) == 27 and all(c == want.get(i, 0) for i, c in enumerate(coeffs))


def violate_problems(source, path):
    """Quantum blocks are well formed and inside [1, algebraic ratio]; CHSH
    classes reach sqrt(2), factorable ones 1, the Mermin facet 2."""
    src, entries = load(source), load(path)
    out = [] if _strip(entries, "quantum") == src else ["violate changed the source entries"]
    for e in entries:
        q, name = e["quantum"], e["sign_function"]
        ratio, terms = q["ratio"], sum(1 for c in e["coeffs"] if c)
        cap = sum(abs(c) for c in e["coeffs"]) / e["bound"]
        norm = sum(x * x for x in q["state_re"]) + sum(x * x for x in q["state_im"])
        if not 1 - 1e-9 <= ratio <= cap + 1e-9 or abs(ratio - min(q["max"] / e["bound"], cap)) > 1e-9:
            out.append(f"{name}: ratio {ratio!r} outside [1, {cap}] or off max/bound")
        if abs(norm - 1) > 1e-9:
            out.append(f"{name}: state norm {norm!r}")
        expected = 1.0 if terms == 1 else ROOT2 if e["parties"] == 2 else 2.0 if _is_mermin(e["coeffs"]) else None
        if expected is not None and abs(ratio - expected) > 1e-9:
            out.append(f"{name}: ratio {ratio!r}, expected {expected!r}")
    return out


def lib_problems(source, path, tables):
    """Stream counts, strategy extrema +/-2^(2N), and canonical forms: equal to
    the entry for canonical catalogs, else admissible and no larger."""
    src, result = load(source), load(path)
    got_tables = {int(k): v for k, v in result["tables"].items()}
    out = [] if got_tables == tables else [f"stream counts {got_tables}, expected {tables}"]
    for e, bounds in zip(src, result["strategies"]):
        if bounds != [e["bound"], -e["bound"]]:
            out.append(f"{e['sign_function']}: strategy extrema {bounds}")
    if len(result["strategies"]) != len(src):
        out.append("strategy cross-check skipped entries")
    for e, canon in zip(src, result["canonical"]):
        if e["canonical"]:
            ok = canon == e["sign_function"]
        else:
            ok = (canon.split(";")[0] == e["sign_function"].split(";")[0]
                  and _table(canon) <= _table(e["sign_function"]) and independent_admissible(canon))
        if not ok:
            out.append(f"{e['sign_function']}: canonical form {canon}")
    return out


def independent_admissible(text: str) -> bool:
    """Local block test on the bit table, written without the library.

    For every observer i and every assignment r of the other variables,
    s(r) + s(r^p^q) == s(r^p) + s(r^q) with p, q the bits of observer i's pair.
    """
    parties, table = int(text.split(";")[0].removeprefix("N=")), _table(text)

    def value(k: int) -> int:
        return 1 - 2 * (table >> k & 1)

    for i in range(parties):
        p, q = 1 << (2 * i), 1 << (2 * i + 1)
        for r in range(1 << (2 * parties)):
            if r & (p | q):
                continue
            if value(r) + value(r | p | q) != value(r | p) + value(r | q):
                return False
    return True


def _table(text):
    return int.from_bytes(bytes.fromhex(text.split("table=")[1]), "little")
