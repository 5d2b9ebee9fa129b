"""Tests of the benchmark itself; not part of the library's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py     (from the repository root)
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    return run.Bench("exact3", 0, 0, directory=tmp_path / "run")


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_gate_counts_a_flipped_coefficient_as_failed(bench, tmp_path):
    catalog, verified = tmp_path / "e2.json", tmp_path / "v2.json"
    bench.run_op("enumerate", ["cli", "enumerate", "--parties", "2", "--out", catalog],
                 check=lambda: gates.catalog_problems(catalog, 2, 6))
    assert (bench.attempted, bench.failed) == (1, 0)

    entries = json.loads(catalog.read_text())
    coeffs = entries[3]["coeffs"]
    k = next(i for i, c in enumerate(coeffs) if c)
    coeffs[k] = -coeffs[k]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(entries))
    op = bench.run_op("verify", ["cli", "verify", "--in", tampered, "--out", verified],
                      check=lambda: gates.verify_problems(verified, 2, 6))
    assert op.rc == 2
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "exit 2" in bench.problems[0]


def test_violate_gate_rejects_a_lowered_chsh_ratio(tmp_path):
    source = tmp_path / "in.json"
    out = tmp_path / "out.json"
    chsh = {"parties": 2, "bound": 16, "coeffs": [0, 0, 0, 0, 8, 8, 0, 8, -8],
            "sign_function": "N=2;table=a0a0", "canonical": True}
    source.write_text(json.dumps([chsh]))
    block = {"max": 16 * 1.4, "ratio": 1.4, "state_re": [1.0, 0, 0, 0], "state_im": [0.0] * 4}
    out.write_text(json.dumps([{**chsh, "quantum": block}]))
    assert any("expected 1.41421" in p for p in gates.violate_problems(source, out))


def test_n4_generator_is_deterministic_and_admissible():
    import inputs

    first = inputs.n4_sample(5, 3)
    assert first == inputs.n4_sample(5, 3)
    assert first != inputs.n4_sample(6, 3)
    assert len(set(first)) == 3
    assert all(t.startswith("N=4;") and gates.independent_admissible(t) for t in first)


def test_seesaw3_subset_keeps_one_dense_class():
    import inputs

    subset = inputs.seesaw3_subset(3)
    assert subset == inputs.seesaw3_subset(3)
    assert len(subset) == 72
    assert sum(1 for t in subset if inputs._terms(t) == 16) == 1


def test_independent_admissibility_check_rejects_a_local_product():
    assert gates.independent_admissible("N=2;table=a0a0")
    assert not gates.independent_admissible("N=2;table=6000")  # pair product on observer 0


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        {"id": 1, "parent": None, "name": "cli.verify", "start": 0, "end": 100},
        {"id": 2, "parent": 1, "name": "polytope.certify_tightness", "start": 10, "end": 40},
        {"id": 3, "parent": 2, "name": "polytope.fraction_free_rank", "start": 15, "end": 35},
        {"id": 4, "parent": 1, "name": "catalog.write_json", "start": 50, "end": 60},
        {"id": 5, "parent": 4, "name": "catalog.dump_json", "start": 50, "end": 60},
    ]
    own = tracing.self_times(spans)
    assert own == {1: 60, 2: 10, 3: 20, 4: 0, 5: 10}
    assert sum(own.values()) == 100  # self times of a proper tree add up to the root


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 1, "parent": None, "name": "a", "start": 0, "end": 100},
        {"id": 2, "parent": 1, "name": "b", "start": 10, "end": 50},
        {"id": 3, "parent": 1, "name": "c", "start": 30, "end": 70},
        {"id": 4, "parent": 1, "name": "d", "start": 90, "end": 120},  # clipped at the parent's end
    ]
    assert tracing.self_times(spans)[1] == 100 - 60 - 10


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(1, 101))) == {"p": 90, "value": 90}
    assert run.tail(list(range(1, 12))) == {"p": 9, "value": 1}


def test_traced_command_records_spans_in_every_namespace(bench, tmp_path):
    catalog, spans_file = tmp_path / "e2.json", tmp_path / "spans.json"
    op = bench.spawn("enumerate", ["cli", "enumerate", "--parties", "2", "--out", catalog], spans_file)
    assert op.rc == 0
    by_id = {s["id"]: s for s in op.spans}
    names = {s["name"] for s in op.spans}
    assert {"cli.main", "cli.run", "enumeration.classify", "polytope.certify_tightness",
            "polytope.fraction_free_rank", "catalog.write_catalog"} <= names
    certify = next(s for s in op.spans if s["name"] == "polytope.certify_tightness")
    assert certify["attrs"] == {"saturating": 16}
    assert by_id[certify["parent"]]["name"] == "cli.run"  # called from cli's own namespace
    assert all(op.start <= s["start"] <= s["end"] <= op.end for s in op.spans)
