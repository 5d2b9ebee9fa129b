"""Command-line surface for reproducible batch runs.

Commands
--------
enumerate  write the canonical inequality catalog for N observers
classify   write the symmetry census (class representatives and counts)
verify     re-check bounds and tightness certificates of a catalog
violate    append see-saw quantum reports to a catalog
reduce     write the catalog of two-setting (first-variable) inequalities
lift       append lifted blocks (bounds over the lifted vertices) to a catalog

Every catalog entry a command writes (enumerate, reduce) or reads (verify,
lift, violate) is checked by one rule: its sign function is the one read
off its coefficients, its bound is the brute-force LHV maximum, its stored
certificate is the recomputed one, tight, and its lifted bounds, where it
holds a lifted block, are the recomputed ones.  verify writes these
verdicts; each command writes its output, then prints one line per failing
entry naming the failed checks.  Every output names each sign function by
its canonical text.

Exit status: 0 when all checks pass, 2 when an entry fails that rule, and 1
for usage or I/O errors and malformed catalog entries (a non-positive bound
or a sign function outside the admissible family among them; the first
malformed entry is reported).  Output bytes are fully determined by the
flags; re-running a command reproduces its files exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import catalog as cat
from .enumeration import classify
from .fourier import SignFunction
from .lifting import lift, two_setting_reduction
from .polytope import (
    BellInequality,
    TightnessCertificate,
    certify_tightness,
    inequality_from_sign_function,
    lhv_max,
    sign_function_of,
)
from .quantum import seesaw_maximize_all
from .symmetry import orbit_least

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2

# flag -> add_argument keywords; each command declares only the flags it reads
_ARGUMENTS = {
    "--parties": dict(type=int, required=True),
    "--in": dict(dest="input_path", type=Path, required=True),
    "--out": dict(dest="output_path", type=Path, required=True),
    "--seed": dict(type=int, default=0),
    "--restarts": dict(type=int, default=32),
    "--format": dict(choices=("json", "csv"), default="json"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit 1, findings own exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="bellfacets", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_ARGUMENTS[flag])
    return parser


# the verdict's checks, in row order: an entry passes when all of them hold
# (lifted_ok only in the rows of entries that hold a lifted block)
_CHECKS = ("coeffs_ok", "bound_ok", "tight", "certificate_ok", "lifted_ok")


def _verdict(entry: dict, ineq: BellInequality, stored: TightnessCertificate,
             lifted: tuple[int, int] | None = None) -> dict[str, Any]:
    """The row verify writes for one entry: its sign function, as canonical
    text, is the one read off its coefficients, its bound is the LHV maximum,
    its stored certificate is the recomputed one, tight, and its stored
    lifted bounds, if any, are the recomputed ones."""
    bounds, cert = lhv_max(ineq), certify_tightness(ineq)
    claimed = SignFunction.from_text(entry["sign_function"])
    row = {
        "sign_function": claimed.to_text(),
        "coeffs_ok": sign_function_of(ineq) == claimed,
        "lhv_max": bounds.maximum,
        "lhv_min": bounds.minimum,
        "bound_ok": bounds == (ineq.bound, -ineq.bound),
        "tight": cert.tight,
        "saturating_count": cert.saturating_count,
        "rank": cert.rank,
        "certificate_ok": cert == stored,
    }
    if lifted is not None:
        row["lifted_ok"] = lifted == lift(ineq)
    row["pass"] = all(row.get(key, True) for key in _CHECKS)
    return row


def _read_catalog(args: argparse.Namespace) -> tuple[list[dict], list[BellInequality], list[dict]]:
    """The entries of the --in catalog, each naming its sign function by its
    canonical text, their inequalities and their verdicts.  Every entry is
    validated before any is checked: a file that is not a JSON list of
    objects, or a malformed entry, raises ValueError naming the first."""
    entries = cat.read_json(args.input_path)
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{args.input_path} is not a catalog: expected a JSON list of objects")
    inequalities, stored, lifted = [], [], []
    for index, entry in enumerate(entries):
        try:
            inequalities.append(cat.entry_inequality(entry))
            stored.append(cat.entry_certificate(entry))
            lifted.append(cat.entry_lifted(entry))
        except ValueError as exc:
            raise ValueError(f"catalog entry {index}: {exc}") from None
    verdicts = [_verdict(*row) for row in zip(entries, inequalities, stored, lifted)]
    for entry, verdict in zip(entries, verdicts):
        entry["sign_function"] = verdict["sign_function"]
    return entries, inequalities, verdicts


def _findings(command: str, verdicts: list[dict]) -> int:
    """One stderr line per failing entry, naming its failed checks; the exit status."""
    for index, verdict in enumerate(verdicts):
        failed = [key for key in _CHECKS if not verdict.get(key, True)]
        if failed:
            print(f"bellfacets {command}: entry {index} ({verdict['sign_function']}) fails "
                  f"{', '.join(failed)}", file=sys.stderr)
    return EXIT_OK if all(v["pass"] for v in verdicts) else EXIT_FINDINGS


def _write_certified(args: argparse.Namespace, inequalities: list[BellInequality],
                     canonical: list[bool]) -> int:
    """Write the catalog, then judge each written entry by _verdict, as verify would."""
    certs = [certify_tightness(ineq) for ineq in inequalities]
    entries = [cat.inequality_entry(*row) for row in zip(inequalities, certs, canonical)]
    cat.write_catalog(args.output_path, entries, args.format)
    return _findings(args.command, [_verdict(*row) for row in zip(entries, inequalities, certs)])


def _cmd_enumerate(args: argparse.Namespace) -> int:
    reps = [inequality_from_sign_function(c.representative)
            for c in classify(args.parties).canonical_classes]
    return _write_certified(args, reps, [True] * len(reps))


def _cmd_classify(args: argparse.Namespace) -> int:
    cat.write_json(args.output_path, cat.classification_dict(classify(args.parties)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    _, _, verdicts = _read_catalog(args)
    cat.write_catalog(args.output_path, verdicts, args.format)
    return _findings(args.command, verdicts)


def _cmd_violate(args: argparse.Namespace) -> int:
    entries, inequalities, verdicts = _read_catalog(args)
    reports = seesaw_maximize_all(inequalities, restarts=args.restarts, seed=args.seed)
    for entry, report in zip(entries, reports):
        entry["quantum"] = cat.quantum_block(report, args.seed, args.restarts)
    cat.write_json(args.output_path, entries)
    return _findings(args.command, verdicts)


def _cmd_reduce(args: argparse.Namespace) -> int:
    reduction = two_setting_reduction(args.parties)
    tables = np.array([sign_function_of(ineq).table for ineq in reduction], dtype=np.uint64)
    return _write_certified(args, reduction, (orbit_least(args.parties, tables)[0] == tables).tolist())


def _cmd_lift(args: argparse.Namespace) -> int:
    entries, inequalities, verdicts = _read_catalog(args)
    for entry, ineq in zip(entries, inequalities):
        entry["lifted"] = {"bounds": list(lift(ineq))}
    cat.write_json(args.output_path, entries)
    return _findings(args.command, verdicts)


# command -> (handler, the flags it reads)
_COMMANDS = {
    "enumerate": (_cmd_enumerate, ("--parties", "--out", "--format")),
    "classify": (_cmd_classify, ("--parties", "--out")),
    "verify": (_cmd_verify, ("--in", "--out", "--format")),
    "violate": (_cmd_violate, ("--in", "--out", "--seed", "--restarts")),
    "reduce": (_cmd_reduce, ("--parties", "--out", "--format")),
    "lift": (_cmd_lift, ("--in", "--out")),
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line (see build_parser); returns the
    process exit status."""
    try:
        # out-of-range flag values, checked before any input is read; the
        # library itself rejects an unsupported --parties
        if "restarts" in args and args.restarts < 1:
            raise ValueError("--restarts must be at least 1")
        if "seed" in args and args.seed < 0:
            raise ValueError("--seed must be non-negative")
        return _COMMANDS[args.command][0](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bellfacets {args.command}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
