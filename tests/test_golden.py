"""Exact outputs pinned to their bytes.

Each file the CLI writes at N=2 (and at N=3 the catalog, census, two-setting
reduction, the catalog's verify outputs in both formats and its lift output)
is checked against the sha256 of the bytes it had when the digests were
recorded, so a refactor that changes any exact output fails here, not only a
rerun diff.
"""

import hashlib
import json

import pytest

from bellfacets.cli import EXIT_OK, main

# output file -> (CLI arguments before --out, sha256 of the file)
GOLDEN = {
    "e2.json": (["enumerate", "--parties", "2"],
                "20ff6b2ec988db5af7bf4f58401656caafbbbd580c13a4fbc84ebafa816a9ce7"),
    "e2.csv": (["enumerate", "--parties", "2", "--format", "csv"],
               "cd33198ba72f231db863f088c9fdd08d671205a699c21d3a1b483a22e7dd8455"),
    "c2.json": (["classify", "--parties", "2"],
                "162bb822fb343d4ed18418ec12997bd20313e8590e27952668eeb62604dc5f82"),
    "r2.json": (["reduce", "--parties", "2"],
                "670dafe9f4b4691f02f53daa5a7c5e3913185eb960c03c989a1e565bea1f74d6"),
    "r2.csv": (["reduce", "--parties", "2", "--format", "csv"],
               "c3604eba93dfe64e95938cf081e0a840fc1b91f7d31a0076b812ccdde9c96630"),
    "v2.json": (["verify", "--in", "e2.json"],
                "a029243026fde0487f62338ac91e28e6c69ef56423d2d0f988dd7b286bb3659e"),
    "v2.csv": (["verify", "--in", "e2.json", "--format", "csv"],
               "72ccbdf64a93a56a91c50258a0510e2c36c814f97171fb23ebeaffd2da856223"),
    "l2.json": (["lift", "--in", "e2.json"],
                "6d76905a912e0b08d9791ad022dab970d905164aa541fd12d1b30b660fbfd3ba"),
    "e3.json": (["enumerate", "--parties", "3"],
                "5c71bf82a2e98dad3382aa057e4db4ac1d9de0d9306ce75852eefec7459bf7d4"),
    "e3.csv": (["enumerate", "--parties", "3", "--format", "csv"],
               "a55a9b9cbf0cbbfe2c497f80d29b4c27a424520a464689292d62329d169e11b3"),
    "c3.json": (["classify", "--parties", "3"],
                "8df544fc8a42bff20af8093879196c7ca166ca3d9caeb20cc0bcc4bfc602a0a7"),
    "r3.json": (["reduce", "--parties", "3"],
                "5aa024a94c11de6e54de069bcc3d9ec1aeaa1a7a9587b40a68674fe92a007f66"),
    "r3.csv": (["reduce", "--parties", "3", "--format", "csv"],
               "43c61cec4fbad85d4769f952f120482b243959e9b914772f8c35ff0e3bc096e0"),
    "v3.json": (["verify", "--in", "e3.json"],
                "f8e26dd99ea7cd79f84cdbbf30922f5dc9cca4e7b98eff38790e8f652823d716"),
    "v3.csv": (["verify", "--in", "e3.json", "--format", "csv"],
               "5e09be68ea10fad6e24bdc9c7ca159f78af6d4a5181aa51b5b0ceea15f820ab0"),
    "l3.json": (["lift", "--in", "e3.json"],
                "fad13b8da1f1248dc616f48c433ed90fa803bdc2f0020e7cec633774798d9357"),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once, in table order, so `verify`/`lift` read the
    catalog written above them."""
    out = tmp_path_factory.mktemp("golden")
    for name, (args, _) in GOLDEN.items():
        argv = [str(out / a) if a.endswith(".json") else a for a in args]
        assert main(argv + ["--out", str(out / name)]) == EXIT_OK
    return out


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_bytes_are_pinned(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name][1]


@pytest.mark.parametrize("name", ["l2.json", "l3.json"])
def test_verify_passes_on_lift_outputs(outputs, tmp_path, name):
    out = tmp_path / "v.json"
    assert main(["verify", "--in", str(outputs / name), "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert rows and all(row["lifted_ok"] and row["pass"] for row in rows)


def test_violate_and_lift_write_sorted_indented_json(outputs, tmp_path):
    # the see-saw outputs carry floats, so their bytes are not pinned above;
    # each file must still be the one layout json.dumps gives
    violated, lifted = tmp_path / "q3.json", tmp_path / "lq3.json"
    assert main(["violate", "--in", str(outputs / "e3.json"), "--out", str(violated),
                 "--restarts", "4", "--seed", "7"]) == EXIT_OK
    assert main(["lift", "--in", str(violated), "--out", str(lifted)]) == EXIT_OK
    for path in (violated, lifted):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
