import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellfacets
from bellfacets import (
    LhvBounds,
    SignFunction,
    canonicalize,
    certify_tightness,
    enumerate_admissible,
    inequality_from_sign_function,
)
from bellfacets import catalog as cat
from bellfacets import cli
from bellfacets.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, _canonical_flags, main
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


# ── reduce / lift / classify ────────────────────────────────────────────────


def test_reduce_two_observers(tmp_path):
    out = tmp_path / "reduced.json"
    assert run_cli("reduce", "--parties", 2, "--out", out) == EXIT_OK
    entries = json.loads(out.read_text())
    assert len(entries) == 16
    assert all(e["tight"] for e in entries)


@pytest.mark.parametrize("command", ["enumerate", "reduce", "verify"])
@pytest.mark.parametrize("shift", [(1, 0), (0, 1)])
def test_lhv_bound_off_by_one_is_a_finding(command, shift, catalog2, tmp_path, monkeypatch):
    exact = cli.lhv_max
    monkeypatch.setattr(
        cli, "lhv_max",
        lambda ineq: LhvBounds(exact(ineq).maximum - shift[0], exact(ineq).minimum + shift[1]),
    )
    out = tmp_path / "out.json"
    source = ("--in", catalog2) if command == "verify" else ("--parties", 2)
    assert run_cli(command, *source, "--out", out) == EXIT_FINDINGS
    assert len(json.loads(out.read_text())) == {"enumerate": 6, "reduce": 16, "verify": 6}[command]


def test_canonical_flags_match_canonicalize(census3):
    reps = [c.representative for c in census3.canonical_classes]
    images = [g.apply(s) for g, s in zip(symmetry_group(3)[1::97], reps)]
    for functions in (list(enumerate_admissible(2)), reps + images):
        flags = _canonical_flags(functions)
        assert flags == [canonicalize(s) == s for s in functions]
        assert 1 < sum(flags) < len(functions)


def test_enumerate_three_observers(tmp_path):
    out = tmp_path / "catalog3.json"
    assert run_cli("enumerate", "--parties", 3, "--out", out) == EXIT_OK
    entries = json.loads(out.read_text())
    assert len(entries) == 76
    assert all(e["bound"] == 64 and e["tight"] and e["rank"] == 27 for e in entries)


def test_lift_appends_blocks(catalog2, tmp_path):
    out = tmp_path / "lifted.json"
    assert run_cli("lift", "--in", catalog2, "--out", out) == EXIT_OK
    entries = json.loads(out.read_text())
    for entry in entries:
        block = entry["lifted"]
        assert set(block) == {"constant", "marginal_coeffs", "bounds", "degenerate"}
        low, high = block["bounds"]
        assert -16 <= low <= high <= 16
    assert any(e["lifted"]["degenerate"] for e in entries)  # the constant class


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
def test_malformed_entry_error_names_its_index(command, catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    entries[4]["coeffs"] = entries[4]["coeffs"][:8]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli(command, "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"bellfacets {command}: catalog entry 4: coeffs must be ")


_ABSENT = object()


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("tight", _ABSENT, id="tight-missing"),
        pytest.param("tight", 1, id="tight-int"),
        pytest.param("tight", "true", id="tight-text"),
        pytest.param("tight", None, id="tight-null"),
        pytest.param("saturating_count", _ABSENT, id="count-missing"),
        pytest.param("saturating_count", -16, id="count-negative"),
        pytest.param("saturating_count", 16.0, id="count-float"),
        pytest.param("saturating_count", True, id="count-bool"),
        pytest.param("rank", _ABSENT, id="rank-missing"),
        pytest.param("rank", "9", id="rank-text"),
        pytest.param("rank", [9], id="rank-list"),
        pytest.param("rank", False, id="rank-bool"),
    ],
)
def test_malformed_certificate_field_is_one_line_error(field, value, catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    if value is _ABSENT:
        del entries[3][field]
    else:
        entries[3][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    capsys.readouterr()
    assert run_cli("verify", "--in", bad, "--out", tmp_path / "out.json") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bellfacets verify: catalog entry 3"), err
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


@pytest.mark.parametrize("bound, code, names", [
    (8, EXIT_FINDINGS, "entry 2 "), (0, EXIT_ERROR, "inequality 2 "), (-16, EXIT_ERROR, "inequality 2 "),
], ids=["bound-8", "bound-0", "bound-negative"])
def test_violate_checks_the_stored_bound(bound, code, names, catalog2, tmp_path, capsys):
    entries = json.loads(catalog2.read_text())
    entries[2]["bound"] = bound
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(entries))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run_cli("violate", "--in", bad, "--out", out, "--restarts", 1) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bellfacets violate: "), err
    assert names in err
    assert out.exists() == (code == EXIT_FINDINGS)


@pytest.mark.parametrize("command, field, value", [
    ("verify", "parties", 9), ("lift", "parties", 9), ("violate", "parties", 9), ("verify", "tight", "yes"),
    ("violate", "bound", 0), ("violate", "sign_function", "N=2;table=0001"),
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
    def no_seesaw(*args, **kwargs):
        raise AssertionError("the see-saw ran before the catalog was read")

    monkeypatch.setattr(cli, "seesaw_maximize_all", no_seesaw)
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


# ── N=4 smoke path ──────────────────────────────────────────────────────────

N4_TEXT = "N=4;table=33cc330055ff553355cc0c0c55ff0c3faaccf3c0aafff3f3ccccccccaaffaaff"


def test_four_observer_entry_through_verify_lift_violate(tmp_path):
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
    assert run_cli("violate", "--in", catalog, "--out", violated,
                   "--restarts", 1, "--seed", 7) == EXIT_OK
    assert json.loads(violated.read_text())[0]["quantum"]["ratio"] >= 1
