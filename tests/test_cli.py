import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellfacets
from bellfacets import (
    BellInequality,
    LhvBounds,
    SignFunction,
    TightnessCertificate,
    canonicalize,
    certify_tightness,
    enumerate_admissible,
    inequality_from_sign_function,
)
from bellfacets import catalog as cat
from bellfacets import cli
from bellfacets.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, main
from bellfacets.symmetry import orbit_least
from relabel import symmetry_group

SRC = str(Path(bellfacets.__file__).resolve().parents[1])


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def catalog2(tmp_path):
    path = tmp_path / "catalog.json"
    assert run_cli("enumerate", "--parties", 2, "--out", path) == EXIT_OK
    return path


# ── enumerate ───────────────────────────────────────────────────────────────


def test_enumerate_writes_canonical_catalog(catalog2):
    entries = json.loads(catalog2.read_text())
    assert len(entries) == 6
    for entry in entries:
        assert entry["parties"] == 2
        assert entry["bound"] == 16
        assert entry["canonical"] is True
        assert entry["tight"] is True
        assert entry["saturating_count"] == 16
        assert entry["rank"] == 9
        assert len(entry["coeffs"]) == 9
        assert entry["sign_function"].startswith("N=2;table=")


def test_enumerate_csv_has_settings_header(tmp_path):
    path = tmp_path / "catalog.csv"
    assert run_cli("enumerate", "--parties", 2, "--out", path, "--format", "csv") == EXIT_OK
    header = path.read_text().splitlines()[0]
    assert header.endswith("E_00,E_01,E_02,E_10,E_11,E_12,E_20,E_21,E_22")


# ── verify ──────────────────────────────────────────────────────────────────


def test_verify_passes_on_fresh_catalog(catalog2, tmp_path):
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--in", catalog2, "--out", out) == EXIT_OK
    results = json.loads(out.read_text())
    assert len(results) == 6 and all(r["pass"] for r in results)


def test_verify_flags_tampered_bound(catalog2, tmp_path):
    entries = json.loads(catalog2.read_text())
    entries[0]["bound"] = 15
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(entries))
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--in", bad, "--out", out) == EXIT_FINDINGS
    results = json.loads(out.read_text())
    assert not results[0]["bound_ok"] and not results[0]["pass"]
    # no vertex reaches 15: an empty saturating set, not tight
    assert (results[0]["tight"], results[0]["saturating_count"], results[0]["rank"]) == (False, 0, 0)


def test_verify_flags_tampered_coefficients(catalog2, tmp_path):
    entries = json.loads(catalog2.read_text())
    entries[2]["coeffs"][0] += 8
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(entries))
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--in", bad, "--out", out) == EXIT_FINDINGS
    assert not json.loads(out.read_text())[2]["coeffs_ok"]


def test_verify_round_trips_certificates(catalog2, tmp_path):
    out = tmp_path / "verify.json"
    run_cli("verify", "--in", catalog2, "--out", out)
    stored = json.loads(catalog2.read_text())
    results = json.loads(out.read_text())
    for entry, result in zip(stored, results):
        assert result["saturating_count"] == entry["saturating_count"]
        assert result["rank"] == entry["rank"]
        assert result["certificate_ok"]


def test_verify_under_optimize_flag_writes_same_bytes(catalog2, tmp_path):
    plain, optimized = tmp_path / "plain.json", tmp_path / "optimized.json"
    assert run_cli("verify", "--in", catalog2, "--out", plain) == EXIT_OK
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "bellfacets.cli", "verify", "--in", str(catalog2),
         "--out", str(optimized)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert optimized.read_bytes() == plain.read_bytes()


# ── violate ─────────────────────────────────────────────────────────────────


def test_violate_appends_quantum_blocks(catalog2, tmp_path):
    out = tmp_path / "violated.json"
    assert run_cli("violate", "--in", catalog2, "--out", out,
                   "--seed", 7, "--restarts", 8) == EXIT_OK
    entries = json.loads(out.read_text())
    ratios = sorted(round(e["quantum"]["ratio"], 6) for e in entries)
    assert ratios == [1.0, 1.0, 1.0, 1.414214, 1.414214, 1.414214]
    block = entries[0]["quantum"]
    assert set(block) == {"max", "ratio", "directions", "state_re", "state_im", "seed", "restarts",
                          "restarts_used", "converged", "iterations"}
    assert block["seed"] == 7 and block["restarts"] == 8


def test_violate_is_byte_deterministic(catalog2, tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    run_cli("violate", "--in", catalog2, "--out", out1, "--seed", 3, "--restarts", 4)
    run_cli("violate", "--in", catalog2, "--out", out2, "--seed", 3, "--restarts", 4)
    assert out1.read_bytes() == out2.read_bytes()


def test_violate_reports_restarts_convergence_and_iterations(catalog2, mermin_inequality, tmp_path):
    entries = json.loads(catalog2.read_text())
    mermin = cat.inequality_entry(mermin_inequality, certify_tightness(mermin_inequality), canonical=False)
    source, out = tmp_path / "with_mermin.json", tmp_path / "violated.json"
    source.write_text(json.dumps(entries + [mermin]))
    assert run_cli("violate", "--in", source, "--out", out, "--seed", 7, "--restarts", 32) == EXIT_OK
    blocks = [e["quantum"] for e in json.loads(out.read_text())]
    for block in blocks:
        assert 1 <= block["restarts_used"] <= 32 and block["iterations"] >= 1
        assert isinstance(block["converged"], bool)
    chsh = [b for b in blocks[:6] if abs(b["ratio"] - 2 ** 0.5) < 1e-9]
    assert len(chsh) == 3
    assert all(b["converged"] and b["restarts_used"] == 32 for b in chsh)
    assert blocks[6]["ratio"] == pytest.approx(2.0, abs=1e-9)
    assert blocks[6]["restarts_used"] == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--restarts", 0, "--restarts must be at least 1"),
    ("--seed", -1, "--seed must be non-negative"),
])
@pytest.mark.parametrize("source", ["empty", "non-empty", "absent"])
def test_violate_rejects_bad_flag_before_reading_input(flag, value, message, source, catalog2,
                                                       tmp_path, capsys):
    path = {"empty": tmp_path / "empty.json", "non-empty": catalog2,
            "absent": tmp_path / "absent.json"}[source]
    if source == "empty":
        path.write_text("[]")
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run_cli("violate", "--in", path, "--out", out, flag, value) == EXIT_ERROR
    assert capsys.readouterr().err == f"bellfacets violate: {message}\n"
    assert not out.exists()


def test_no_command_loads_numpy_random(tmp_path):
    # the see-saw draws its starts with the standard library's random; importing
    # numpy.random adds about 6 MB to a process's peak memory (numpy 2.4)
    script = """
import sys
from bellfacets.cli import main
runs = [
    ["enumerate", "--parties", "2", "--out", "e.json"],
    ["classify", "--parties", "2", "--out", "c.json"],
    ["reduce", "--parties", "2", "--out", "r.json"],
    ["verify", "--in", "e.json", "--out", "v.json"],
    ["lift", "--in", "e.json", "--out", "l.json"],
    ["violate", "--in", "e.json", "--out", "q.json", "--restarts", "2"],
]
for argv in runs:
    print(argv[0], main(argv), "numpy.random" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [f"{command} 0 False" for command in (
        "enumerate", "classify", "reduce", "verify", "lift", "violate")] + [""]


# ── reduce / lift / classify ────────────────────────────────────────────────


def test_reduce_two_observers(tmp_path):
    out = tmp_path / "reduced.json"
    assert run_cli("reduce", "--parties", 2, "--out", out) == EXIT_OK
    entries = json.loads(out.read_text())
    assert len(entries) == 16
    assert all(e["tight"] for e in entries)


@pytest.mark.parametrize("command", ["enumerate", "reduce", "verify"])
@pytest.mark.parametrize("shift", [(1, 0), (0, 1)])
def test_lhv_bound_off_by_one_is_a_finding(command, shift, catalog2, tmp_path, monkeypatch, capsys):
    exact = cli.lhv_max
    monkeypatch.setattr(
        cli, "lhv_max",
        lambda ineq: LhvBounds(exact(ineq).maximum - shift[0], exact(ineq).minimum + shift[1]),
    )
    out = tmp_path / "out.json"
    source = ("--in", catalog2) if command == "verify" else ("--parties", 2)
    capsys.readouterr()
    assert run_cli(command, *source, "--out", out) == EXIT_FINDINGS
    written = json.loads(out.read_text())
    assert len(written) == {"enumerate": 6, "reduce": 16, "verify": 6}[command]
    assert capsys.readouterr().err.splitlines() == [
        f"bellfacets {command}: entry {k} ({e['sign_function']}) fails bound_ok" for k, e in enumerate(written)]


@pytest.mark.parametrize("command", ["enumerate", "reduce"])
def test_written_entry_that_is_not_tight_is_a_finding(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "certify_tightness", lambda ineq: TightnessCertificate(False, 0, 0))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run_cli(command, "--parties", 2, "--out", out) == EXIT_FINDINGS
    written = json.loads(out.read_text())
    assert written and not any(e["tight"] for e in written)
    assert capsys.readouterr().err.splitlines() == [
        f"bellfacets {command}: entry {k} ({e['sign_function']}) fails tight" for k, e in enumerate(written)]


def test_canonical_flags_match_canonicalize(census3):
    reps = [c.representative for c in census3.canonical_classes]
    images = [g.apply(s) for g, s in zip(symmetry_group(3)[1::97], reps)]
    for parties, functions in ((2, list(enumerate_admissible(2))), (3, reps + images)):
        tables = np.array([s.table for s in functions], dtype=np.uint64)
        flags = (orbit_least(parties, tables)[0] == tables).tolist()
        assert flags == [canonicalize(s) == s for s in functions]
        assert 1 < sum(flags) < len(functions)


def test_enumerate_three_observers(tmp_path):
    out = tmp_path / "catalog3.json"
    assert run_cli("enumerate", "--parties", 3, "--out", out) == EXIT_OK
    entries = json.loads(out.read_text())
    assert len(entries) == 76
    assert all(e["bound"] == 64 and e["tight"] and e["rank"] == 27 for e in entries)


def _reverify(path, tmp_path, capsys):
    """verify's exit status and stderr on a lift output, whose every row holds lifted_ok."""
    rows = tmp_path / "reverified.json"
    capsys.readouterr()
    code = run_cli("verify", "--in", path, "--out", rows)
    assert all(row["lifted_ok"] for row in json.loads(rows.read_text()))
    return code, capsys.readouterr().err


def test_lift_appends_blocks(catalog2, tmp_path, capsys):
    out = tmp_path / "lifted.json"
    assert run_cli("lift", "--in", catalog2, "--out", out) == EXIT_OK
    entries = json.loads(out.read_text())
    for entry in entries:
        block = entry["lifted"]
        assert set(block) == {"bounds"}
        low, high = block["bounds"]
        assert -16 <= low <= high <= 16
    # the constant class: its lifted bounds are equal
    assert [e["lifted"]["bounds"] for e in entries if not any(e["coeffs"][1:])] == [[16, 16]]
    assert _reverify(out, tmp_path, capsys) == (EXIT_OK, "")


def test_lift_reads_blocks_written_before_the_bounds_stood_alone(catalog2, tmp_path, capsys):
    # older blocks also hold constant, marginal_coeffs and degenerate; readers ignore them
    entries = json.loads(catalog2.read_text())
    for entry in entries:
        entry["lifted"] = {"bounds": [-16, 16], "constant": 0, "marginal_coeffs": [], "degenerate": False}
    entries[0]["lifted"]["bounds"] = [16, 16]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(entries))
    out = tmp_path / "relifted.json"
    capsys.readouterr()
    assert run_cli("lift", "--in", old, "--out", out) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert all(set(e["lifted"]) == {"bounds"} for e in json.loads(out.read_text()))


# a lifted block whose bounds are false is a finding; a malformed one is a malformed entry
_LIFTED_CASES = [
    pytest.param({"bounds": [-1, 1]}, EXIT_FINDINGS, "entry 2 (N=2;table=ff00) fails lifted_ok",
                 id="false-bounds"),
    pytest.param({"bounds": [1]}, EXIT_ERROR,
                 "catalog entry 2: lifted bounds must be a list of two integers, got [1]", id="one-bound"),
    pytest.param(5, EXIT_ERROR, "catalog entry 2: lifted must be an object, got 5", id="not-an-object"),
    pytest.param({}, EXIT_ERROR,
                 "catalog entry 2: lifted bounds must be a list of two integers, got None", id="no-bounds"),
    pytest.param({"bounds": [-16, True]}, EXIT_ERROR,
                 "catalog entry 2: lifted bounds must be a list of two integers, got [-16, True]",
                 id="bool-bound"),
    pytest.param({"bounds": [-16.0, 16]}, EXIT_ERROR,
                 "catalog entry 2: lifted bounds must be a list of two integers, got [-16.0, 16]",
                 id="float-bound"),
]


@pytest.mark.parametrize("command", ["verify", "lift", "violate"])
@pytest.mark.parametrize("block, code, line", _LIFTED_CASES)
def test_every_reader_judges_the_lifted_block(command, block, code, line, catalog2, tmp_path, capsys,
                                              monkeypatch):
    if code == EXIT_ERROR:
        monkeypatch.setattr(cli, "seesaw_maximize_all", _no_seesaw)
    lifted = tmp_path / "lifted.json"
    assert run_cli("lift", "--in", catalog2, "--out", lifted) == EXIT_OK
    entries = json.loads(lifted.read_text())
    entries[2]["lifted"] = block
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(entries))
    out = tmp_path / "out.json"
    extra = ("--restarts", 1) if command == "violate" else ()
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", out, *extra) == code
    assert capsys.readouterr().err == f"bellfacets {command}: {line}\n"
    assert out.exists() == (code == EXIT_FINDINGS)
    if code == EXIT_FINDINGS and command != "verify":
        # lift writes the true bounds in place of the false ones; violate copies the block
        stored = json.loads(out.read_text())[2]["lifted"]["bounds"]
        assert stored == ([-16, 16] if command == "lift" else [-1, 1])


def test_certificate_fields_are_read_before_the_lifted_block(catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    entries[2].update(rank="9", lifted=5)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli("verify", "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    assert capsys.readouterr().err == (
        "bellfacets verify: catalog entry 2: rank must be a non-negative integer, got '9'\n")


@pytest.mark.parametrize("holders, header_tail", [
    pytest.param({0}, ["certificate_ok", "lifted_ok", "pass"], id="only-first-holds-a-block"),
    pytest.param({1, 2, 3, 4, 5}, ["certificate_ok", "pass", "lifted_ok"], id="only-first-lacks-one"),
])
def test_verify_csv_of_a_partly_lifted_catalog(holders, header_tail, catalog2, tmp_path, capsys):
    # the columns are the union of the rows' keys in first-seen order, empty where a row lacks one
    lifted = tmp_path / "lifted.json"
    assert run_cli("lift", "--in", catalog2, "--out", lifted) == EXIT_OK
    entries = json.loads(lifted.read_text())
    for k, entry in enumerate(entries):
        if k not in holders:
            del entry["lifted"]
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(entries))
    out = tmp_path / "v.csv"
    capsys.readouterr()
    assert run_cli("verify", "--in", mixed, "--out", out, "--format", "csv") == EXIT_OK
    assert capsys.readouterr().err == ""
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header[-3:] == header_tail
    assert header[:-3] == ["sign_function", "coeffs_ok", "lhv_max", "lhv_min", "bound_ok", "tight",
                           "saturating_count", "rank"]
    column = header.index("lifted_ok")
    assert [row[column] for row in rows] == ["True" if k in holders else "" for k in range(6)]
    assert all(row[header.index("pass")] == "True" for row in rows)


def test_classify_output_and_determinism(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert run_cli("classify", "--parties", 2, "--out", out1) == EXIT_OK
    assert run_cli("classify", "--parties", 2, "--out", out2) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["total_admissible"] == 90
    assert report["factorable_count"] == 18
    assert len(report["canonical_classes"]) == 6
    assert "wall_time" not in report


# ── usage errors ────────────────────────────────────────────────────────────


def test_missing_out_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("enumerate", "--parties", 2)
    assert info.value.code == EXIT_ERROR


def test_unsupported_parties_is_usage_error(tmp_path, capsys):
    for command, parties in (("enumerate", 5), ("classify", 4), ("reduce", 1)):
        assert run_cli(command, "--parties", parties, "--out", tmp_path / "x.json") == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"bellfacets {command}: "), err
    assert not (tmp_path / "x.json").exists()


def test_checkpoint_flag_is_unknown(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli("enumerate", "--parties", 2, "--out", tmp_path / "x.json", "--checkpoint", "x")
    assert info.value.code == EXIT_ERROR


@pytest.mark.parametrize("command", ["verify", "violate", "lift"])
@pytest.mark.parametrize("text", ['{"a": 1}', '"x"', "[1]"])
def test_malformed_catalog_is_one_line_error(command, text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"bellfacets {command}: ")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["verify", "violate", "lift"])
@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("coeffs", None, id="coeffs-null"),
        pytest.param("coeffs", [16] * 8, id="coeffs-short"),
        pytest.param("coeffs", [16.5] + [0] * 8, id="coeffs-float"),
        pytest.param("coeffs", [True] + [0] * 8, id="coeffs-bool"),
        pytest.param("coeffs", [10 ** 30] + [0] * 8, id="coeffs-beyond-int64"),
        pytest.param("bound", [16], id="bound-list"),
        pytest.param("bound", 16.0, id="bound-float"),
        pytest.param("bound", "16", id="bound-text"),
        pytest.param("parties", 1, id="parties-1"),
        pytest.param("parties", 5, id="parties-5"),
        pytest.param("parties", "2", id="parties-text"),
        pytest.param("parties", 3, id="parties-disagree"),
        pytest.param("sign_function", 7, id="sign-function-number"),
        pytest.param("sign_function", None, id="sign-function-null"),
    ],
)
def test_malformed_entry_field_is_one_line_error(command, field, value, catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    entries[0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"bellfacets {command}: "), err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["verify", "violate", "lift"])
def test_missing_entry_field_is_one_line_error(command, catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    del entries[1]["coeffs"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    assert capsys.readouterr().err == f"bellfacets {command}: catalog entry 1: lacks coeffs\n"


@pytest.mark.parametrize("command", ["verify", "violate", "lift"])
def test_sign_function_of_another_observer_count_is_one_line_error(command, catalog2, tmp_path, capsys):
    # parties and coeffs agree on N=3, the N=2 sign function does not
    entries = json.loads(catalog2.read_text())
    entries[1].update(parties=3, coeffs=entries[1]["coeffs"] * 3)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    assert capsys.readouterr().err == (f"bellfacets {command}: catalog entry 1: "
                                       "sign_function has N=2, parties is 3\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["verify", "violate", "lift"])
def test_malformed_entry_error_names_its_index(command, catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    entries[4]["coeffs"] = entries[4]["coeffs"][:8]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"bellfacets {command}: catalog entry 4: coeffs must be ")


@pytest.mark.parametrize("command", ["verify", "violate", "lift"])
def test_first_malformed_entry_is_reported(command, catalog2, tmp_path, capsys):
    # each entry is read whole, inequality then certificate, before the next
    entries = json.loads(catalog2.read_text())
    entries[1]["tight"] = "yes"
    entries[3]["coeffs"] = entries[3]["coeffs"][:8]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"bellfacets {command}: catalog entry 1: tight must be true or false, got 'yes'\n"
    assert not (tmp_path / "out.json").exists()


_ABSENT = object()


def _no_seesaw(*args, **kwargs):
    raise AssertionError("the see-saw ran before the catalog was read")


_CERTIFICATE_CASES = [
    ("tight", _ABSENT, "tight-missing"),
    ("tight", 1, "tight-int"),
    ("tight", "true", "tight-text"),
    ("tight", None, "tight-null"),
    ("saturating_count", _ABSENT, "count-missing"),
    ("saturating_count", -16, "count-negative"),
    ("saturating_count", 16.0, "count-float"),
    ("saturating_count", True, "count-bool"),
    ("rank", _ABSENT, "rank-missing"),
    ("rank", "9", "rank-text"),
    ("rank", [9], "rank-list"),
    ("rank", False, "rank-bool"),
]


# every command that reads a catalog reads its certificate fields; verify's ids are unprefixed
@pytest.mark.parametrize("command, field, value", [
    pytest.param(command, field, value, id=case if command == "verify" else f"{command}-{case}")
    for command in ("verify", "lift", "violate") for field, value, case in _CERTIFICATE_CASES
])
def test_malformed_certificate_field_is_one_line_error(command, field, value, catalog2, tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(cli, "seesaw_maximize_all", _no_seesaw)
    entries = json.loads(catalog2.read_text())
    if value is _ABSENT:
        del entries[3][field]
    else:
        entries[3][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"bellfacets {command}: catalog entry 3: "), err
    assert field in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "command, extra, block",
    [("lift", (), "lifted"), ("violate", ("--restarts", 1), "quantum")],
)
def test_mismatched_coefficients_are_a_finding(command, extra, block, catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    entries[2]["coeffs"][0] += 8
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(entries))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", out, *extra) == EXIT_FINDINGS
    assert capsys.readouterr().err.startswith(f"bellfacets {command}: entry 2 ")
    written = json.loads(out.read_text())
    assert len(written) == 6 and all(block in e for e in written)


def _upper_hex(text):
    head, _, digits = text.rpartition("=")
    return f"{head}={digits.upper()}"


@pytest.mark.parametrize("command", ["verify", "lift", "violate"])
@pytest.mark.parametrize("tamper, failed", [
    pytest.param(lambda e: e["coeffs"].__setitem__(0, e["coeffs"][0] + 8),
                 "coeffs_ok, bound_ok, tight, certificate_ok", id="coeffs"),
    pytest.param(lambda e: e.update(bound=8), "bound_ok, tight, certificate_ok", id="bound-8"),
    pytest.param(lambda e: e.update(tight=False), "certificate_ok", id="tight-false"),
    pytest.param(lambda e: e.update(rank=8), "certificate_ok", id="rank-8"),
    pytest.param(lambda e: e.update(saturating_count=0), "certificate_ok", id="count-0"),
    # K g = 2^(2N+1) s: every check but the read-off passes, so equal magnitudes do not suffice
    pytest.param(lambda e: e.update(coeffs=[2 * c for c in e["coeffs"]], bound=2 * e["bound"]),
                 "coeffs_ok", id="coeffs-and-bound-doubled"),
    # text from_text accepts but to_text would not write: the line and the output name the canonical text
    pytest.param(lambda e: e.update(sign_function=f" {e['sign_function']}\n", bound=8),
                 "bound_ok, tight, certificate_ok", id="padded-text-bound-8"),
    pytest.param(lambda e: e.update(sign_function=_upper_hex(e["sign_function"]), bound=8),
                 "bound_ok, tight, certificate_ok", id="upper-case-text-bound-8"),
])
def test_every_reader_checks_every_claim(command, tamper, failed, catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    name = entries[2]["sign_function"]
    assert name == "N=2;table=ff00"
    tamper(entries[2])
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(entries))
    out = tmp_path / "out.json"
    extra = ("--restarts", 1) if command == "violate" else ()
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", out, *extra) == EXIT_FINDINGS
    assert capsys.readouterr().err == f"bellfacets {command}: entry 2 ({name}) fails {failed}\n"
    written = json.loads(out.read_text())
    assert len(written) == 6
    assert written[2]["sign_function"] == name
    if command == "lift":  # the block holds the stored coefficients' bounds: only the old claims fail
        assert _reverify(out, tmp_path, capsys) == (
            EXIT_FINDINGS, f"bellfacets verify: entry 2 ({name}) fails {failed}\n")


# a non-positive bound is malformed while reading, for every reader; violate's ids are unprefixed
@pytest.mark.parametrize("command, bound, code, names", [
    pytest.param(command, bound, code, names, id=case if command == "violate" else f"{command}-{case}")
    for command in ("violate", "verify", "lift") for bound, code, names, case in [
        (8, EXIT_FINDINGS, "entry 2 (", "bound-8"),
        (0, EXIT_ERROR, "catalog entry 2: bound must be positive, got 0\n", "bound-0"),
        (-16, EXIT_ERROR, "catalog entry 2: bound must be positive, got -16\n", "bound-negative"),
    ]
])
def test_violate_checks_the_stored_bound(command, bound, code, names, catalog2, tmp_path, capsys,
                                         monkeypatch):
    if code == EXIT_ERROR:
        monkeypatch.setattr(cli, "seesaw_maximize_all", _no_seesaw)
    entries = json.loads(catalog2.read_text())
    entries[2]["bound"] = bound
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(entries))
    out = tmp_path / "out.json"
    extra = ("--restarts", 1) if command == "violate" else ()
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", out, *extra) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"bellfacets {command}: {names}"), err
    assert out.exists() == (code == EXIT_FINDINGS)


@pytest.mark.parametrize("command", ["verify", "lift", "violate"])
def test_stored_sign_function_is_compared_as_a_function(command, catalog2, tmp_path, capsys):
    # any text from_text accepts names the function: upper-case hex passes, and every output
    # names each function by its canonical text
    entries = json.loads(catalog2.read_text())
    names = [entry["sign_function"] for entry in entries]
    for entry in entries:
        entry["sign_function"] = _upper_hex(entry["sign_function"])
    assert any(e["sign_function"] != e["sign_function"].lower() for e in entries)
    upper = tmp_path / "upper.json"
    upper.write_text(json.dumps(entries))
    out = tmp_path / "out.json"
    extra = ("--restarts", 1) if command == "violate" else ()
    capsys.readouterr()
    assert run_cli(command, "--in", upper, "--out", out, *extra) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert [row["sign_function"] for row in json.loads(out.read_text())] == names


# every coefficient at the validation limit: the see-saw's rounding grows with the terms
@pytest.mark.parametrize("command, extra", [
    pytest.param("verify", (), id="verify"), pytest.param("lift", (), id="lift"),
    pytest.param("violate", ("--restarts", 1), id="violate-restarts-1"),
    pytest.param("violate", ("--restarts", 32), id="violate-restarts-32"),
])
def test_limit_size_coefficients_are_a_finding(command, extra, catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    entries[2]["coeffs"] = [(2**63 - 1) // 9] * 9
    bad = tmp_path / "limit.json"
    bad.write_text(json.dumps(entries))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", out, *extra) == EXIT_FINDINGS
    assert capsys.readouterr().err == (f"bellfacets {command}: entry 2 (N=2;table=ff00) "
                                       "fails coeffs_ok, bound_ok, tight, certificate_ok\n")
    assert len(json.loads(out.read_text())) == 6


def test_lift_tests_each_entry_for_admissibility_once(catalog2, tmp_path, monkeypatch):
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("bellfacets") and hasattr(module, "is_admissible"):
            monkeypatch.setattr(module, "is_admissible",
                                lambda s, test=module.is_admissible: calls.append(s) or test(s))
    assert run_cli("lift", "--in", catalog2, "--out", tmp_path / "l.json") == EXIT_OK
    assert len(calls) == len(json.loads(catalog2.read_text())) == 6


@pytest.mark.parametrize("command, field, value", [
    ("verify", "parties", 9), ("lift", "parties", 9), ("violate", "parties", 9), ("verify", "tight", "yes"),
    ("violate", "bound", 0), ("violate", "sign_function", "N=2;table=0001"), ("lift", "lifted", 5),
])
def test_malformed_entry_after_a_finding_is_one_line_error(command, field, value, catalog2, tmp_path,
                                                           capsys):
    entries = json.loads(catalog2.read_text())
    entries[1]["coeffs"][0] += 8
    entries[3][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"bellfacets {command}: "), err
    assert str(value) in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["verify", "lift", "violate"])
def test_sign_function_outside_the_family_is_rejected_on_reading(command, catalog2, tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(cli, "seesaw_maximize_all", _no_seesaw)
    entries = json.loads(catalog2.read_text())
    entries[3]["sign_function"] = "N=2;table=0001"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == (f"bellfacets {command}: catalog entry 3: sign_function N=2;table=0001 "
                   "has a local-product Fourier component\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["verify", "lift", "violate"])
def test_non_hex_table_is_one_line_error(command, catalog2, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "seesaw_maximize_all", _no_seesaw)
    # the last two have as many characters as the table has digits, and bytes.fromhex
    # alone would skip their spaces and read N=2;table=ff00 and N=3;table=ffffffffffffff00
    for text in ("N=2;table=ffzz", "N=2;table=  ff", "N=3;table=ff ff ffffffffff"):
        entries = json.loads(catalog2.read_text())
        entries[3]["sign_function"] = text
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(entries))
        capsys.readouterr()
        assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
        assert capsys.readouterr().err == (f"bellfacets {command}: catalog entry 3: "
                                           f"malformed sign-function text {text!r}\n")
        assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command, extra, text", [
    ("verify", (), "[]\n"), ("verify", ("--format", "csv"), ""), ("lift", (), "[]\n"), ("violate", (), "[]\n"),
], ids=["verify-json", "verify-csv", "lift", "violate"])
def test_empty_catalog_passes(command, extra, text, tmp_path, capsys):
    empty, out = tmp_path / "empty.json", tmp_path / "out"
    empty.write_text("[]")
    capsys.readouterr()
    assert run_cli(command, "--in", empty, "--out", out, *extra) == EXIT_OK
    assert out.read_text() == text
    assert capsys.readouterr().err == ""


def test_missing_input_file_is_io_error(tmp_path):
    code = run_cli("verify", "--in", tmp_path / "absent.json", "--out", tmp_path / "v.json")
    assert code == EXIT_ERROR


@pytest.mark.parametrize("command", ["verify", "lift", "violate"])
def test_deeply_nested_input_is_one_line_error(command, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    capsys.readouterr()
    assert run_cli(command, "--in", deep, "--out", tmp_path / "out.json") == EXIT_ERROR
    assert capsys.readouterr().err == f"bellfacets {command}: {deep} nests too deeply to parse as JSON\n"
    assert not (tmp_path / "out.json").exists()


def test_csv_rejected_for_nested_outputs(catalog2, tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli("lift", "--in", catalog2, "--out", tmp_path / "x.csv", "--format", "csv")
    assert info.value.code == EXIT_ERROR


@pytest.mark.parametrize("argv", [
    ("enumerate", "--parties", 2, "--out", "e.json", "--restarts", 0),
    ("lift", "--in", "catalog.json", "--out", "l.json", "--seed", -3),
    ("verify", "--parties", 9, "--in", "catalog.json", "--out", "v.json"),
    ("enumerate", "--parties", 2, "--out", "e.json", "--in", "nowhere.json"),
], ids=["enumerate-restarts", "lift-seed", "verify-parties", "enumerate-in"])
def test_flag_a_command_does_not_read_is_a_usage_error(argv, catalog2, tmp_path, monkeypatch):
    monkeypatch.chdir(catalog2.parent)
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == EXIT_ERROR
    assert [p.name for p in tmp_path.iterdir()] == [catalog2.name]  # nothing written


# ── catalog rows ────────────────────────────────────────────────────────────


def test_catalog_entry_needs_a_generating_sign_function(chsh_inequality):
    doubled = BellInequality(2, 2 * chsh_inequality.coeffs, 32)
    with pytest.raises(ValueError, match="^catalog entries need a generating sign function$"):
        cat.inequality_entry(doubled, certify_tightness(doubled), canonical=False)


def test_unknown_catalog_format_is_rejected(catalog2, tmp_path):
    entries = json.loads(catalog2.read_text())
    with pytest.raises(ValueError, match="^unknown catalog format 'xml'$"):
        cat.write_catalog(tmp_path / "catalog.xml", entries, "xml")
    assert not (tmp_path / "catalog.xml").exists()


# ── N=4 smoke path ──────────────────────────────────────────────────────────

N4_TEXT = "N=4;table=33cc330055ff553355cc0c0c55ff0c3faaccf3c0aafff3f3ccccccccaaffaaff"
N4_SECOND_TEXT = "N=4;table=35ac35accccccccc35ac35accccccccc3a5c3a5c33aa33aa3a5c3a5c33aa33aa"


def test_four_observer_entry_through_verify_lift_violate(tmp_path, capsys):
    ineq = inequality_from_sign_function(SignFunction.from_text(N4_TEXT))
    entry = {
        "parties": 4,
        "bound": 256,
        "coeffs": [int(c) for c in ineq.coeffs.ravel()],
        "sign_function": N4_TEXT,
        "canonical": False,
        "tight": True,
        "saturating_count": 256,
        "rank": 81,
    }
    catalog = tmp_path / "catalog4.json"
    catalog.write_text(json.dumps([entry]))
    verified, lifted, violated = (tmp_path / f"{n}.json" for n in ("v", "l", "q"))
    assert run_cli("verify", "--in", catalog, "--out", verified) == EXIT_OK
    [row] = json.loads(verified.read_text())
    assert row["pass"] and row["rank"] == 81 and row["saturating_count"] == 256
    assert (row["lhv_max"], row["lhv_min"]) == (256, -256)
    assert run_cli("lift", "--in", catalog, "--out", lifted) == EXIT_OK
    low, high = json.loads(lifted.read_text())[0]["lifted"]["bounds"]
    assert -256 <= low <= high <= 256
    assert _reverify(lifted, tmp_path, capsys) == (EXIT_OK, "")
    assert run_cli("violate", "--in", catalog, "--out", violated,
                   "--restarts", 1, "--seed", 7) == EXIT_OK
    assert json.loads(violated.read_text())[0]["quantum"]["ratio"] >= 1


def test_four_observer_partial_set_through_verify(tmp_path, capsys):
    # the sum of two N=4 facets saturates a partial set: its rank comes from elimination
    first, second = (inequality_from_sign_function(SignFunction.from_text(t))
                     for t in (N4_TEXT, N4_SECOND_TEXT))
    entry = {
        "parties": 4,
        "bound": 512,
        "coeffs": [int(c) for c in (first.coeffs + second.coeffs).ravel()],
        "sign_function": N4_TEXT,
        "canonical": False,
        "tight": False,
        "saturating_count": 142,
        "rank": 78,
    }
    catalog = tmp_path / "summed4.json"
    catalog.write_text(json.dumps([entry]))
    verified = tmp_path / "v.json"
    capsys.readouterr()
    assert run_cli("verify", "--in", catalog, "--out", verified) == EXIT_FINDINGS
    assert capsys.readouterr().err == f"bellfacets verify: entry 0 ({N4_TEXT}) fails coeffs_ok, tight\n"
    [row] = json.loads(verified.read_text())
    assert (row["lhv_max"], row["lhv_min"], row["bound_ok"]) == (512, -512, True)
    assert (row["saturating_count"], row["rank"], row["certificate_ok"]) == (142, 78, True)
    assert not row["pass"]
