"""Benchmark of the bellfacets command line and the library calls it does not reach.

    python3 perfbench/run.py --workload exact3|seesaw3|n4 --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``src/bellfacets`` from
there and exits 2 when that is missing.  One client runs a closed loop: each
operation starts when the previous one has ended, and every operation is a
fresh interpreter (``entry.py``), because users pay the import and the cache
fills on each command.  A pass is the workload's operations; ``exact3``
starts with the N=2 prelude (every command once at N=2, plus the library
step), and in a traced run every workload does.  Passes repeat for
``--seconds``, at least two, and every output is checked before it counts.
Set-up (importing bellfacets and writing the seeded inputs) runs three times
and its median is ``setup_s``.

``--trace 0`` reports the end-to-end metrics: the median over passes of each
pass's figure.  ``--trace 1`` alternates plain passes with passes whose child
processes wrap the library's public functions (see ``tracing.py``), and reports
the per-layer metrics of the traced passes and the tracing overhead.  The last
line of standard output is the JSON result; a per-run record (environment,
drawn inputs, per-pass figures, gate failures, accounting, spans) is written
under ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import tracing
from gates import (
    catalog_problems,
    census_problems,
    lib_problems,
    lift_problems,
    load,
    verify_problems,
    violate_problems,
)

HERE = Path(__file__).resolve().parent
ENTRY = HERE / "entry.py"
ROOT = Path.cwd()

COMMANDS = ("enumerate", "classify", "verify", "lift", "reduce", "violate")
SETUP_REPEATS = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # every run must end within 180 s
OP_SPAN_STRIDE = 10_000_000  # more than the spans one child records

# name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "ratio_sum": "ratio",
    "violating_entries": "count",
    "peak_rss_mb": "MB",
}

LAYER_MODULES = ("enumeration", "symmetry", "fourier", "polytope", "quantum", "lifting", "catalog")

PER_LAYER = {
    "enumeration.stream_s": "s",
    "enumeration.classify_s": "s",
    "enumeration.tables": "count",
    "enumeration.classes": "count",
    "symmetry.orbit_tables_us": "us",
    "symmetry.canonicalize_s": "s",
    "symmetry.orbit_calls": "count",
    "fourier.is_admissible_us": "us",
    "fourier.is_admissible_calls": "count",
    "fourier.transform_us": "us",
    "fourier.transform_calls": "count",
    "polytope.inequality_us": "us",
    "polytope.certify_ms": "ms",
    "polytope.rank_ms": "ms",
    "polytope.lhv_max_us": "us",
    "polytope.lhv_strategies_us": "us",
    "polytope.certificates": "count",
    "polytope.saturating_rows": "count",
    "quantum.seesaw_s": "s",
    "quantum.bell_operator_us": "us",
    "quantum.iteration_ms": "ms",
    "quantum.iterations": "count",
    "quantum.restarts_used": "count",
    "quantum.converged_share": "share",
    "lifting.lift_us": "us",
    "lifting.reduction_s": "s",
    "catalog.read_ms": "ms",
    "catalog.write_ms": "ms",
    "catalog.bytes": "B",
    **{f"{m}.self_s": "s" for m in LAYER_MODULES},
    **{f"cli.{c}_self_s": "s" for c in COMMANDS},
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# span name -> (metric, statistic, scale); statistic is "mean" per call, "total" or "count"
SPAN_METRICS = (
    ("enumeration.enumerate_admissible", "enumeration.stream_s", "total", 1e-9),
    ("enumeration.classify", "enumeration.classify_s", "total", 1e-9),
    ("symmetry.orbit_tables", "symmetry.orbit_tables_us", "mean", 1e-3),
    ("symmetry.canonicalize", "symmetry.canonicalize_s", "total", 1e-9),
    ("symmetry.orbit_tables", "symmetry.orbit_calls", "count", 1),
    ("fourier.is_admissible", "fourier.is_admissible_us", "mean", 1e-3),
    ("fourier.is_admissible", "fourier.is_admissible_calls", "count", 1),
    ("fourier.fourier_transform", "fourier.transform_us", "mean", 1e-3),
    ("fourier.fourier_transform", "fourier.transform_calls", "count", 1),
    ("polytope.inequality_from_sign_function", "polytope.inequality_us", "mean", 1e-3),
    ("polytope.certify_tightness", "polytope.certify_ms", "mean", 1e-6),
    ("polytope.fraction_free_rank", "polytope.rank_ms", "mean", 1e-6),
    ("polytope.lhv_max", "polytope.lhv_max_us", "mean", 1e-3),
    ("polytope.lhv_max_by_strategies", "polytope.lhv_strategies_us", "mean", 1e-3),
    ("polytope.certify_tightness", "polytope.certificates", "count", 1),
    ("quantum.seesaw_maximize", "quantum.seesaw_s", "total", 1e-9),
    ("quantum.bell_operator", "quantum.bell_operator_us", "mean", 1e-3),
    ("quantum.bell_operator", "quantum.iterations", "count", 1),
    ("lifting.lift", "lifting.lift_us", "mean", 1e-3),
    ("lifting.two_setting_reduction", "lifting.reduction_s", "total", 1e-9),
    ("catalog.read_json", "catalog.read_ms", "mean", 1e-6),
    ("catalog.write_json", "catalog.write_ms", "mean", 1e-6),
)


class Op:
    """One finished child process."""

    def __init__(self, label, rc, start, end, rss_mb, stderr, spans):
        self.label, self.rc, self.start, self.end = label, rc, start, end
        self.rss_mb, self.stderr, self.spans = rss_mb, stderr, spans
        self.command = "setup"
        self.ok = False

    @property
    def wall_s(self):
        return (self.end - self.start) * 1e-9


class Bench:
    def __init__(self, workload, seed, trace, directory=None):
        self.workload, self.seed, self.trace = workload, seed, trace
        stamp = time.strftime("%Y%m%dT%H%M%S")
        self.dir = directory or HERE / "_runs" / f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "BELLFACETS_WORKERS"}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, bytes] = {}
        self.op_count = 0
        self.inputs: Path | None = None

    def spawn(self, label, argv, spans_file=None) -> Op:
        """Run entry.py with argv; wall time covers spawn to reap."""
        self.op_count += 1
        stem = self.dir / "ops" / f"op{self.op_count:04d}"
        stem.parent.mkdir(exist_ok=True)
        cmd = [sys.executable, str(ENTRY)]
        if spans_file is not None:
            cmd += ["--spans", str(spans_file)]
        cmd += [str(a) for a in argv]
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(remaining, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = Path(f"{stem}.err").read_text(encoding="utf-8", errors="replace")
        spans = None
        if spans_file is not None and Path(spans_file).exists():
            spans = json.loads(Path(spans_file).read_text(encoding="utf-8"))
        return Op(label, proc.returncode, start, end, usage.ru_maxrss / 1024.0, stderr, spans)

    def run_op(self, label, argv, expect=0, check=None, exact=(), spans_file=None) -> Op:
        """Run one operation and gate it; a miss counts as one failed operation."""
        self.attempted += 1
        op = self.spawn(label, argv, spans_file)
        problems = []
        if op.rc != expect:
            problems.append(f"exit {op.rc}, expected {expect}: {op.stderr.strip()[-300:]}")
        elif "Traceback" in op.stderr:
            problems.append("traceback on stderr")
        else:
            try:
                problems += check() if check else []
                for path in exact:
                    data = Path(path).read_bytes()
                    first = self.reference.setdefault(Path(path).name, data)
                    if data != first:
                        problems.append(f"{Path(path).name} differs from the first pass")
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        op.ok = not problems
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
            for p in problems:
                print(f"GATE FAILED {label}: {p}", file=sys.stderr)
        return op


class Pass:
    """One pass of a workload: its operations, files and per-pass figures."""

    def __init__(self, bench: Bench, index: int, traced: bool):
        self.bench, self.traced = bench, traced
        self.span_base = index * 10**12  # span ids of this pass: base + op * OP_SPAN_STRIDE + child id
        self.dir = bench.dir / f"pass{index}"
        self.dir.mkdir()
        self.ops: list[Op] = []
        self.outputs: list[Path] = []
        self.command_s = defaultdict(float)
        self.ratios: list[float] = []

    def file(self, name) -> Path:
        return self.dir / name

    def _spans_file(self):
        return self.dir / f"spans{len(self.ops)}.json" if self.traced else None

    def cli(self, command, *args, check=None, exact=False):
        out = Path(args[args.index("--out") + 1])
        op = self.bench.run_op(f"{command} {out.name}", ["cli", command, *args], check=check,
                               exact=[out] if exact else (), spans_file=self._spans_file())
        op.command = command
        self.ops.append(op)
        self.outputs.append(out)
        self.command_s[command] += op.wall_s
        if command == "violate" and op.ok:
            self.ratios += [e["quantum"]["ratio"] for e in load(out)]
        return op

    def lib(self, catalog: Path, out: Path, check, drain=None, canonicalize=None):
        argv = ["lib", "--in", catalog, "--out", out]
        if drain is not None:
            argv += ["--drain", drain]
        if canonicalize is not None:
            argv += ["--canonicalize", canonicalize]
        op = self.bench.run_op(f"lib {out.name}", argv, check=check, spans_file=self._spans_file())
        op.command = "lib"
        self.ops.append(op)
        return op


# ---------------------------------------------------------------- workloads

def prelude(p: Pass):
    """Every command once at N=2, plus the library step; census 90/18/6, CHSH sqrt(2), Mermin 2."""
    e2, seed = p.file("e2.json"), str(p.bench.seed)
    p.cli("enumerate", "--parties", "2", "--out", e2, check=lambda: catalog_problems(e2, 2, 6), exact=True)
    c2 = p.file("c2.json")
    p.cli("classify", "--parties", "2", "--out", c2, check=lambda: census_problems(c2, 2, 90, 6, 18), exact=True)
    v2 = p.file("v2.json")
    p.cli("verify", "--in", e2, "--out", v2, check=lambda: verify_problems(v2, 2, 6), exact=True)
    l2 = p.file("l2.json")
    p.cli("lift", "--in", e2, "--out", l2, check=lambda: lift_problems(e2, l2), exact=True)
    r2 = p.file("r2.json")
    p.cli("reduce", "--parties", "2", "--out", r2, check=lambda: catalog_problems(r2, 2, 16), exact=True)
    q2_in, q2 = p.file("q2_in.json"), p.file("q2.json")
    try:
        entries = load(e2) + load(p.bench.inputs / "ref.json")
    except (OSError, ValueError):
        entries = []  # enumerate or set-up already counted as failed
    q2_in.write_text(json.dumps(entries))
    p.cli("violate", "--in", q2_in, "--out", q2, "--seed", seed, "--restarts", "1",
          check=lambda: violate_problems(q2_in, q2))
    lib2 = p.file("lib2.json")
    p.lib(e2, lib2, drain=2, check=lambda: lib_problems(e2, lib2, {2: 90}))


def exact3(p: Pass):
    """The N=2 prelude, then the exact N=3 pipeline: census 51678/76, 76 facets, 256 two-setting facets."""
    prelude(p)
    e3 = p.file("e3.json")
    p.cli("enumerate", "--parties", "3", "--out", e3, check=lambda: catalog_problems(e3, 3, 76), exact=True)
    c3 = p.file("c3.json")
    p.cli("classify", "--parties", "3", "--out", c3, check=lambda: census_problems(c3, 3, 51678, 76), exact=True)
    v3 = p.file("v3.json")
    p.cli("verify", "--in", e3, "--out", v3, check=lambda: verify_problems(v3, 3, 76), exact=True)
    l3 = p.file("l3.json")
    p.cli("lift", "--in", e3, "--out", l3, check=lambda: lift_problems(e3, l3), exact=True)
    r3 = p.file("r3.json")
    p.cli("reduce", "--parties", "3", "--out", r3, check=lambda: catalog_problems(r3, 3, 256), exact=True)
    lib3 = p.file("lib3.json")
    p.lib(e3, lib3, drain=3, check=lambda: lib_problems(e3, lib3, {3: 51678}))


# See-saw seed of seesaw3.  With it each of the five dense classes takes 960-983
# iterations; some other seeds let a dense class converge in a few, which would
# make the pass time depend on the workload seed more than on the code.
SEESAW3_SEESAW_SEED = "1"


def seesaw3(p: Pass):
    """violate on 71 fast N=3 classes and one seeded dense class, at a fixed see-saw seed;
    the library step confirms the input classes are canonical."""
    src, q3 = p.bench.inputs / "seesaw3.json", p.file("q3.json")
    p.cli("violate", "--in", src, "--out", q3, "--seed", SEESAW3_SEESAW_SEED, "--restarts", "1",
          check=lambda: violate_problems(src, q3))
    lib3 = p.file("lib3.json")
    p.lib(src, lib3, check=lambda: lib_problems(src, lib3, {}))


def n4(p: Pass):
    """Seeded N=4 sample: verify (Bareiss on 256x81), lift, canonicalize (98304-map
    streaming orbit), 4096-strategy cross-check; see-saw on two fixed N=4 functions."""
    sample = p.bench.inputs / "n4.json"
    v4 = p.file("v4.json")
    p.cli("verify", "--in", sample, "--out", v4, check=lambda: verify_problems(v4, 4, 4), exact=True)
    l4 = p.file("l4.json")
    p.cli("lift", "--in", sample, "--out", l4, check=lambda: lift_problems(sample, l4), exact=True)
    fixed, q4 = p.bench.inputs / "n4_seesaw.json", p.file("q4.json")
    p.cli("violate", "--in", fixed, "--out", q4, "--seed", "7", "--restarts", "2",
          check=lambda: violate_problems(fixed, q4))
    lib4 = p.file("lib4.json")
    p.lib(sample, lib4, canonicalize=1, check=lambda: lib_problems(sample, lib4, {}))


WORKLOADS = {"exact3": exact3, "seesaw3": seesaw3, "n4": n4}


# ---------------------------------------------------------------- metrics

def tail(samples):
    """Highest nearest-rank percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return {"p": p, "value": sorted(samples)[rank - 1]}


def summary(samples):
    return {"median": statistics.median(samples), "tail": tail(samples), "n": len(samples)}


def pass_figures(p: Pass, wall_s: float) -> dict:
    figures = {"pass_s": wall_s, **{f"cli.{c}_s": p.command_s[c] for c in COMMANDS}}
    figures["ratio_sum"] = sum(p.ratios)
    figures["violating_entries"] = sum(1 for r in p.ratios if r > 1 + 1e-9)
    figures["peak_rss_mb"] = max(op.rss_mb for op in p.ops)
    return figures


def trace_spans(p: Pass) -> list[dict]:
    """Stitch each operation's spans under a root span covering the whole child process."""
    spans = []
    for k, op in enumerate(p.ops):
        root = p.span_base + k * OP_SPAN_STRIDE
        name = f"cli.{op.command}" if op.command != "lib" else "lib.step"
        spans.append({"trace": root, "id": root, "parent": None, "name": name,
                      "start": op.start, "end": op.end})
        for s in op.spans or []:
            spans.append({**s, "trace": root, "id": root + s["id"],
                          "parent": root + s["parent"] if s["parent"] else root})
    return spans


def layer_figures(p: Pass, spans: list[dict], wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and its time accounting."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    figures = {}
    for span_name, metric, stat, scale in SPAN_METRICS:
        durations = [s["end"] - s["start"] for s in by_name.get(span_name, [])]
        if stat == "count":
            figures[metric] = len(durations)
        elif stat == "total":
            figures[metric] = sum(durations) * scale
        else:
            figures[metric] = statistics.fmean(durations) * scale if durations else 0.0

    def attr_sum(span_name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name.get(span_name, []))

    figures["enumeration.tables"] = attr_sum("enumeration.enumerate_admissible", "items")
    figures["enumeration.classes"] = attr_sum("enumeration.classify", "classes")
    figures["polytope.saturating_rows"] = attr_sum("polytope.certify_tightness", "saturating")
    seesaws = by_name.get("quantum.seesaw_maximize", [])
    figures["quantum.restarts_used"] = attr_sum("quantum.seesaw_maximize", "restarts_used")
    figures["quantum.converged_share"] = (
        attr_sum("quantum.seesaw_maximize", "converged") / len(seesaws) if seesaws else 0.0)
    iterations = figures["quantum.iterations"]
    figures["quantum.iteration_ms"] = figures["quantum.seesaw_s"] * 1e3 / iterations if iterations else 0.0
    figures["catalog.bytes"] = sum(out.stat().st_size for out in p.outputs if out.exists())

    own = tracing.self_times(spans)
    root_name = {s["id"]: s["name"] for s in spans if s["parent"] is None}
    layer_self = defaultdict(float)
    for s in spans:
        layer = tracing.layer_of(s["name"])
        key = root_name[s["trace"]] if layer == "cli" else layer  # cli self time per command
        layer_self[key] += own[s["id"]] * 1e-9
    for m in LAYER_MODULES:
        figures[f"{m}.self_s"] = layer_self[m]
    for c in COMMANDS:
        figures[f"cli.{c}_self_s"] = layer_self[f"cli.{c}"]
    figures["trace.pass_s"] = wall_s
    figures["trace.spans"] = len(spans)
    ops_s = sum(op.wall_s for op in p.ops)
    accounting = {"pass_s": wall_s, "driver_glue_s": wall_s - ops_s,
                  "self_s_by_layer": dict(sorted(layer_self.items())),
                  "self_s_total": sum(layer_self.values())}
    return figures, accounting


# ---------------------------------------------------------------- environment

def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "bellfacets_workers": "unset in child processes",
        "client": "closed loop, 1 client, each operation a fresh interpreter",
    }


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


# ---------------------------------------------------------------- main

def run_setup(bench: Bench) -> list[float]:
    """Set up SETUP_REPEATS times; the seeded inputs must come out byte-identical."""
    walls, first = [], None
    for i in range(SETUP_REPEATS):
        out = bench.dir / f"setup{i}"
        out.mkdir()
        files = {}

        def check():
            files.update({f.name: f.read_bytes() for f in sorted(out.iterdir())})
            return [] if first is None or files == first else ["set-up inputs differ between repeats"]

        op = bench.run_op(f"setup {i}", ["setup", "--workload", bench.workload,
                                         "--seed", bench.seed, "--out", out], check=check)
        walls.append(op.wall_s)
        first = first or files
    bench.inputs = bench.dir / "setup0"
    return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bellfacets" / "__init__.py").is_file():
        print(f"run.py: no src/bellfacets under {ROOT}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.trace)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    setup_walls = run_setup(bench)
    if bench.failed:
        print("run.py: set-up failed; no pass was run", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.attempted, "failed": bench.failed,
                          "metrics": {}}))
        return 1
    drawn = load(bench.inputs / "drawn.json") if (bench.inputs / "drawn.json").exists() else None

    plain, traced, layers, accountings, all_spans = [], [], [], [], []
    command_walls = defaultdict(list)
    loop_start = time.monotonic()
    index = 0
    while True:
        done = len(plain) + len(traced)
        elapsed = time.monotonic() - loop_start
        if done >= MIN_PASSES and (args.trace == 0 or traced):
            estimate = statistics.median(f["pass_s"] for f in plain + traced)
            if elapsed + estimate > args.seconds:
                break
        is_traced = bool(args.trace) and index % 2 == 1
        p = Pass(bench, index, is_traced)
        start = time.monotonic_ns()
        if args.trace and args.workload != "exact3":
            # Only for spans: every layer and command then has some on every workload.
            prelude(p)
        WORKLOADS[args.workload](p)
        wall_s = (time.monotonic_ns() - start) * 1e-9
        figures = pass_figures(p, wall_s)
        (traced if is_traced else plain).append(figures)
        for op in p.ops:
            command_walls[op.command].append(op.wall_s)
        if is_traced:
            spans = trace_spans(p)
            lf, acc = layer_figures(p, spans, wall_s)
            layers.append(lf)
            accountings.append(acc)
            all_spans += spans
        shutil.rmtree(p.dir)
        index += 1

    env["loadavg_after"] = os.getloadavg()
    samples = {name: [f[name] for f in plain] for name in plain[0]}
    samples["setup_s"] = setup_walls
    record = {
        "workload": args.workload, "why": " ".join(WORKLOADS[args.workload].__doc__.split()), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env, "drawn": drawn,
        "passes": {"plain": plain, "traced": traced},
        "summaries": {k: summary(v) for k, v in samples.items()},
        "command_invocations_s": {k: summary(v) for k, v in command_walls.items()},
        "problems": bench.problems,
    }
    if args.trace:
        metrics = {name: statistics.median(lf[name] for lf in layers) for name in PER_LAYER
                   if name in layers[0]}
        metrics.update({f"cli.{c}_s": record["summaries"][f"cli.{c}_s"]["median"] for c in COMMANDS})
        metrics["trace.overhead_s"] = (statistics.median(f["pass_s"] for f in traced)
                                       - statistics.median(f["pass_s"] for f in plain))
        units = PER_LAYER
        record["accounting"] = accountings
        record["per_layer"] = metrics
        record["per_call"] = _per_call(all_spans)
        with open(bench.dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in all_spans:
                fh.write(json.dumps(s) + "\n")
    else:
        metrics = {name: record["summaries"][name]["median"] for name in END_TO_END}
        units = END_TO_END
    (bench.dir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for child in bench.dir.iterdir():
        if child.is_dir():
            shutil.rmtree(child)

    _print_summary(bench, env, record, metrics, units, len(plain), len(traced))
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def _per_call(spans):
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append((s["end"] - s["start"]) * 1e-9)
    return {name: summary(v) for name, v in sorted(by_name.items())}


def _print_summary(bench, env, record, metrics, units, n_plain, n_traced):
    print(f"workload {bench.workload} seed {bench.seed}: {record['why']}")
    print(f"passes: {n_plain} plain, {n_traced} traced; operations {bench.attempted}, "
          f"failed {bench.failed} (failed_share {bench.failed / max(bench.attempted, 1):.4f})")
    print("environment " + json.dumps(env, default=str))
    for name in units:
        detail = record["summaries"].get(name) if not bench.trace else None
        extra = ""
        if detail:
            extra = f"  n={detail['n']}" + (f" p{detail['tail']['p']}={detail['tail']['value']:.6g}"
                                             if detail["tail"] else "")
        print(f"  {name:28s} {metrics[name]:14.6f} {units[name]}{extra}")
    if not bench.trace:
        print("commands, median seconds per pass: " + ", ".join(
            f"{c} {record['summaries'][f'cli.{c}_s']['median']:.3f}" for c in COMMANDS))
    if bench.trace and record.get("accounting"):
        acc = record["accounting"][0]
        print(f"accounting of the first traced pass: {acc['pass_s']:.3f} s = "
              f"{acc['self_s_total']:.3f} s self time of layers and command start-up "
              f"+ {acc['driver_glue_s']:.3f} s between operations; "
              f"tracing overhead {metrics['trace.overhead_s']:+.3f} s per pass")
    print(f"record: {bench.dir.relative_to(ROOT) if bench.dir.is_relative_to(ROOT) else bench.dir}")


if __name__ == "__main__":
    sys.exit(main())
