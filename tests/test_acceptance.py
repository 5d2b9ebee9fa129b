"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria sampling note: the three-observer family has exactly 76 canonical
classes, so the per-class checks cover all of them exhaustively.
"""

import json
import time

import numpy as np

from bellfacets import (
    SignFunction,
    certify_tightness,
    enumerate_admissible,
    inequality_from_sign_function,
    is_factorable,
    lhv_max,
    lhv_max_by_strategies,
    lift,
    seesaw_maximize,
    sign_function_of,
    two_setting_reduction,
    vertex_matrix,
)
from bellfacets.cli import EXIT_OK, main
from chsh import chsh_pattern
from exhaustive import exhaustive_two
from test_quantum import _reference_seesaw

ROOT2 = np.sqrt(2.0)


def _verdict(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _inequalities(parties, tables):
    return [inequality_from_sign_function(SignFunction(parties, t)) for t in tables]


def test_criterion_01_exhaustive_equals_backtracking_within_budget():
    start = time.perf_counter()
    exhaustive = exhaustive_two()
    elapsed = time.perf_counter() - start
    backtracked = [s.table for s in enumerate_admissible(2)]
    same = exhaustive == sorted(backtracked)
    _verdict(
        1,
        same and elapsed < 5.0,
        f"2^16 scan in {elapsed:.2f}s (< 5s), streams agree on {len(exhaustive)} functions",
    )


def test_criterion_02_factorable_count_is_18(census2):
    stream_count = sum(1 for s in enumerate_admissible(2) if is_factorable(s))
    ok = stream_count == 18 and census2.factorable_count == 18
    detail = f"exhaustive scan finds {stream_count} factorable admissible functions"
    if not ok:
        listing = [s.to_text() for s in enumerate_admissible(2) if is_factorable(s)]
        detail += f"; full list: {listing}"
    _verdict(2, ok, detail)


def test_criterion_03_nontrivial_classes_are_chsh(census2):
    nontrivial = [c for c in census2.canonical_classes if not c.factorable]
    ok = len(nontrivial) == 3 and all(
        chsh_pattern(inequality_from_sign_function(c.representative)) for c in nontrivial
    )
    _verdict(
        3,
        ok,
        f"{len(nontrivial)} nontrivial classes, all on a 2x2 block with equal "
        f"magnitude 8 and odd minus count",
    )


def test_criterion_04_unit_resolution():
    checked = 0
    for parties, trials, seed in ((2, 1000, 40), (3, 100, 41)):
        rng = np.random.default_rng(seed)
        base = vertex_matrix(parties)  # one row K[v] per assignment
        identity = (1 << (2 * parties)) * np.eye(3 ** parties, dtype=np.int64)
        for _ in range(trials):
            signs = rng.choice([-1, 1], size=len(base)).astype(np.int64)
            signed = base * signs[:, None]
            if not (signed.T @ signed == identity).all():
                _verdict(4, False, f"unit resolution failed for N={parties}")
            checked += 1
    _verdict(4, True, f"sum_v V V^T = 2^(2N) I exactly for {checked} random sign choices")


def test_criterion_05_vertex_value_dichotomy(census3):
    K2 = vertex_matrix(2)
    mat2 = np.concatenate((K2, -K2))
    for ineq in _inequalities(2, (s.table for s in enumerate_admissible(2))):
        values = set((mat2 @ ineq.coeffs.ravel()).tolist())
        if values != {16, -16}:
            _verdict(5, False, f"N=2 inequality {sign_function_of(ineq).to_text()} gave {values}")
    K3 = vertex_matrix(3)
    mat3 = np.concatenate((K3, -K3))
    classes = census3.canonical_classes
    for cls in classes:
        coeffs = inequality_from_sign_function(cls.representative).coeffs
        values = set((mat3 @ coeffs.ravel()).tolist())
        if values != {64, -64}:
            _verdict(5, False, f"N=3 class {cls.representative.to_text()} gave {values}")
    _verdict(
        5,
        True,
        f"<g, V> = +/-2^(2N) exactly: all 90 N=2 inequalities and all "
        f"{len(classes)} N=3 canonical classes (complete family; fewer than "
        f"1000 classes exist)",
    )


def test_criterion_06_tightness_certificates(census3):
    for ineq in _inequalities(2, (s.table for s in enumerate_admissible(2))):
        cert = certify_tightness(ineq)
        if not (cert.tight and cert.saturating_count == 16 and cert.rank == 9):
            _verdict(6, False, f"N=2 {sign_function_of(ineq).to_text()}: {cert}")
    findings = []
    for cls in census3.canonical_classes:
        cert = certify_tightness(inequality_from_sign_function(cls.representative))
        if not (cert.tight and cert.saturating_count == 64 and cert.rank == 27):
            findings.append((cls.representative.to_text(), cert))
    _verdict(
        6,
        not findings,
        "every N=2 inequality: 16 saturating vertices, rank 9; every N=3 "
        f"class: 64 saturating, rank 27 (findings: {findings or 'none'})",
    )


def test_criterion_07_lhv_cross_check(census3):
    ineqs2 = _inequalities(2, (s.table for s in enumerate_admissible(2)))
    lhv_max(ineqs2[0])
    lhv_max_by_strategies(ineqs2[0])  # warm the cached matrices before timing
    start = time.perf_counter()
    for ineq in ineqs2:
        if not lhv_max(ineq) == lhv_max_by_strategies(ineq) == (16, -16):
            _verdict(7, False, f"bound mismatch for {sign_function_of(ineq).to_text()}")
    per_inequality = (time.perf_counter() - start) / len(ineqs2)
    for cls in census3.canonical_classes:
        ineq = inequality_from_sign_function(cls.representative)
        if not lhv_max(ineq) == lhv_max_by_strategies(ineq) == (64, -64):
            _verdict(7, False, f"bound mismatch for {cls.representative.to_text()}")
    _verdict(
        7,
        per_inequality < 1e-3,
        f"strategy and vertex routes agree (bound 2^(2N)) on all inequalities; "
        f"{per_inequality * 1e6:.0f}us per N=2 inequality (< 1ms)",
    )


def test_criterion_08_two_setting_reduction_counts(mermin_coeffs):
    reduced2 = two_setting_reduction(2)
    reduced3 = two_setting_reduction(3)
    mermin_hits = sum(1 for i in reduced3 if (i.coeffs == mermin_coeffs).all())
    ok = len(reduced2) == 16 and len(reduced3) == 256 and mermin_hits == 1
    _verdict(
        8,
        ok,
        f"2^(2^N) reductions: {len(reduced2)} at N=2, {len(reduced3)} at N=3, "
        f"parity (Mermin) pattern present",
    )


def test_criterion_09_seesaw_reference_values(chsh_inequality, mermin_inequality):
    start = time.perf_counter()
    chsh_report = seesaw_maximize(chsh_inequality, restarts=32, seed=7)
    chsh_time = time.perf_counter() - start
    start = time.perf_counter()
    mermin_report = seesaw_maximize(mermin_inequality, restarts=32, seed=7)
    mermin_time = time.perf_counter() - start
    # the runs above check every step in code at 1e-8; the reference loop's trace of the
    # reported restart is held to the same bound
    monotone = True
    for ineq, report in ((chsh_inequality, chsh_report), (mermin_inequality, mermin_report)):
        trace = _reference_seesaw(ineq, 32, 7)[1]
        monotone &= len(trace) == 2 * report.iterations
        monotone &= all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))
    ok = (
        abs(chsh_report.violation_ratio - ROOT2) < 1e-6
        and chsh_time < 1.0
        and abs(mermin_report.violation_ratio - 2.0) < 1e-6
        and mermin_time < 10.0
        and monotone
    )
    _verdict(
        9,
        ok,
        f"CHSH ratio {chsh_report.violation_ratio:.9f} in {chsh_time:.2f}s, "
        f"three-observer parity ratio {mermin_report.violation_ratio:.9f} in "
        f"{mermin_time:.2f}s, traces monotone",
    )


def test_criterion_10_ch_lifting(chsh_inequality):
    bounds = lift(chsh_inequality)
    values = vertex_matrix(2) @ chsh_inequality.coeffs.ravel()
    attained = bounds == (int(values.min()), int(values.max()))
    subset_ok = all(
        np.abs(vertex_matrix(2) @ i.coeffs.ravel()).max() <= 16
        for i in _inequalities(2, (s.table for s in enumerate_admissible(2)))
    )
    low, high = lift(inequality_from_sign_function(SignFunction(2, 0)))
    ok = attained and subset_ok and low == high and bounds[0] != bounds[1]
    _verdict(
        10,
        ok,
        f"lifted CHSH bounds {bounds} attained; every facet holds on "
        f"lifted vertices; constant lift has equal bounds",
    )


def test_criterion_11_pipeline_byte_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        assert main(["enumerate", "--parties", "2", "--out", str(d / "catalog.json")]) == EXIT_OK
        assert main(["verify", "--in", str(d / "catalog.json"),
                     "--out", str(d / "verify.json")]) == EXIT_OK
        assert main(["violate", "--in", str(d / "catalog.json"), "--out", str(d / "violated.json"),
                     "--seed", "7", "--restarts", "8"]) == EXIT_OK
        assert main(["lift", "--in", str(d / "violated.json"),
                     "--out", str(d / "lifted.json")]) == EXIT_OK
        assert main(["verify", "--in", str(d / "lifted.json"),
                     "--out", str(d / "relifted.json")]) == EXIT_OK
        assert all(row["lifted_ok"] for row in json.loads((d / "relifted.json").read_text()))
        assert main(["classify", "--parties", "2", "--out", str(d / "census.json")]) == EXIT_OK
        assert main(["reduce", "--parties", "2", "--out", str(d / "reduced.json")]) == EXIT_OK
        outputs.append(
            {
                name: (d / name).read_bytes()
                for name in ("catalog.json", "verify.json", "violated.json",
                             "lifted.json", "census.json", "reduced.json")
            }
        )
    identical = outputs[0] == outputs[1]
    _verdict(11, identical, "full N=2 pipeline twice with seed 7: byte-identical outputs")
