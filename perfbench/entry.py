"""Child-process entry of the benchmark; every timed operation is one fresh interpreter.

    python3 perfbench/entry.py [--spans FILE] cli ARGS...
        run ``bellfacets.cli.main(ARGS)``
    python3 perfbench/entry.py [--spans FILE] lib --in CATALOG --out RESULT [--drain N] [--canonicalize K]
        the library calls no CLI command reaches: drain enumerate_admissible(N),
        canonicalize the first K entries (all by default), lhv_max_by_strategies on all
    python3 perfbench/entry.py setup --workload NAME --seed N --out DIR
        import bellfacets and write the workload's seeded inputs

With ``--spans`` the public library functions are wrapped first and the spans
are written to FILE when the operation ends.
"""

from __future__ import annotations

import sys
from pathlib import Path


def _lib(args: list[str]) -> int:
    import bellfacets
    from bellfacets import catalog

    opts = dict(zip(args[::2], args[1::2]))
    entries = catalog.read_json(opts["--in"])
    limit = int(opts.get("--canonicalize", len(entries)))
    result = {"tables": {}, "canonical": [], "strategies": []}
    if "--drain" in opts:
        count = sum(1 for _ in bellfacets.enumerate_admissible(int(opts["--drain"])))
        result["tables"][opts["--drain"]] = count
    for entry in entries[:limit]:
        s = bellfacets.SignFunction.from_text(entry["sign_function"])
        result["canonical"].append(bellfacets.canonicalize(s).to_text())
    for entry in entries:
        bounds = bellfacets.lhv_max_by_strategies(catalog.entry_inequality(entry))
        result["strategies"].append([bounds.maximum, bounds.minimum])
    catalog.write_json(opts["--out"], result)
    return 0


def _setup(args: list[str]) -> int:
    import inputs
    from bellfacets.catalog import write_json

    opts = dict(zip(args[::2], args[1::2]))
    workload, seed, out = opts["--workload"], int(opts["--seed"]), Path(opts["--out"])
    drawn: dict[str, list[str]] = {"ref": [inputs.MERMIN]}
    if workload == "seesaw3":
        drawn["seesaw3"] = inputs.seesaw3_subset(seed)
    elif workload == "n4":
        drawn["n4"] = inputs.n4_sample(seed, count=4)
        drawn["n4_seesaw"] = list(inputs.N4_SEESAW)
    for name, texts in drawn.items():
        canonical = name == "seesaw3"
        write_json(out / f"{name}.json", [inputs.entry_for(t, canonical) for t in texts])
    write_json(out / "drawn.json", drawn)
    return 0


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import bellfacets

    if Path(bellfacets.__file__).resolve().parent != (src / "bellfacets").resolve():
        print(f"entry: imported bellfacets from {bellfacets.__file__}, not {src}", file=sys.stderr)
        return 3
    recorder = None
    if spans is not None:
        import tracing

        recorder = tracing.install()
    try:
        if mode == "cli":
            import bellfacets.cli

            return bellfacets.cli.main(args)
        if mode == "lib":
            return _lib(args)
        if mode == "setup":
            return _setup(args)
        print(f"entry: unknown mode {mode!r}", file=sys.stderr)
        return 3
    finally:
        if recorder is not None:
            recorder.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
