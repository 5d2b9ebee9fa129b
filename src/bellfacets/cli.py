"""Command-line surface for reproducible batch runs.

Commands
--------
enumerate  write the canonical inequality catalog for N observers
classify   write the symmetry census (class representatives and counts)
verify     re-check bounds and tightness certificates of a catalog
violate    append see-saw quantum reports to a catalog
reduce     write the catalog of two-setting (first-variable) inequalities
lift       append lifted (marginal + correlation) blocks to a catalog

Exit status: 0 when all checks pass, 2 when a finding is recorded (an entry
that is not tight, whose bound does not match the brute-force value, or whose
coefficients are not those its sign function induces; violate also flags a
stored bound other than the induced 2^(2N)), and 1 for usage or I/O errors
and malformed catalog entries (a sign function outside the admissible family
among them).  Output bytes are fully determined by the flags; re-running a
command reproduces its files exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import catalog as cat
from .enumeration import classify
from .fourier import SignFunction, table_size
from .lifting import lift, two_setting_reduction
from .polytope import (
    BellInequality,
    LhvBounds,
    TightnessCertificate,
    certify_tightness,
    inequality_from_sign_function,
    lhv_max,
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


def _read_entries(read: Callable[[dict], Any], entries: list[dict]) -> list:
    """read(entry) for every entry; a malformed one raises a ValueError that
    names the entry's index."""
    out = []
    for index, entry in enumerate(entries):
        try:
            out.append(read(entry))
        except ValueError as exc:
            raise ValueError(f"catalog entry {index}: {exc}") from None
    return out


def _read_catalog(args: argparse.Namespace) -> tuple[list[dict], list[BellInequality]]:
    """The entries of the --in catalog and their inequalities, every entry
    validated before any is checked: a file that is not a JSON list of
    objects, or a malformed entry, raises ValueError."""
    entries = cat.read_json(args.input_path)
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{args.input_path} is not a catalog: expected a JSON list of objects")
    return entries, _read_entries(cat.entry_inequality, entries)


def _induced_ok(command: str, inequalities: list[BellInequality]) -> list[bool]:
    """Whether each entry's stored coefficients are those its sign function
    induces; each mismatch is reported on stderr."""
    flags = [bool((inequality_from_sign_function(ineq.provenance).coeffs == ineq.coeffs).all())
             for ineq in inequalities]
    for index, (ineq, ok) in enumerate(zip(inequalities, flags)):
        if not ok:
            print(f"bellfacets {command}: entry {index} ({ineq.provenance.to_text()}) has "
                  "coefficients its sign function does not induce", file=sys.stderr)
    return flags


def _certify(ineq: BellInequality) -> tuple[LhvBounds, TightnessCertificate, bool]:
    """The LHV extremes, the tightness certificate and whether the inequality
    is certified: tight, with LHV maximum and minimum +/- its bound."""
    bounds, cert = lhv_max(ineq), certify_tightness(ineq)
    return bounds, cert, cert.tight and bounds == (ineq.bound, -ineq.bound)


def _write_certified(args: argparse.Namespace, inequalities: list[BellInequality],
                     canonical: list[bool]) -> int:
    """Write the catalog of certified entries; a finding unless all are certified."""
    entries, certified = [], True
    for ineq, flag in zip(inequalities, canonical):
        _, cert, ok = _certify(ineq)
        entries.append(cat.inequality_entry(ineq, cert, canonical=flag))
        certified = certified and ok
    cat.write_catalog(args.output_path, entries, args.format)
    return EXIT_OK if certified else EXIT_FINDINGS


def _canonical_flags(functions: list[SignFunction]) -> list[bool]:
    """Whether each function (all of one observer count, N <= 3) is the least
    table of its orbit, as canonicalize would say, scanning each orbit once."""
    tables = sorted({s.table for s in functions})
    least, _ = orbit_least(functions[0].parties, np.array(tables, dtype=np.uint64))
    lookup = dict(zip(tables, least.tolist()))
    return [lookup[s.table] == s.table for s in functions]


def _cmd_enumerate(args: argparse.Namespace) -> int:
    reps = [inequality_from_sign_function(c.representative)
            for c in classify(args.parties).canonical_classes]
    return _write_certified(args, reps, [True] * len(reps))


def _cmd_classify(args: argparse.Namespace) -> int:
    cat.write_json(args.output_path, cat.classification_dict(classify(args.parties)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    entries, inequalities = _read_catalog(args)
    stored = _read_entries(cat.entry_certificate, entries)
    coeffs_ok = _induced_ok(args.command, inequalities)
    results = []
    for entry, ineq, expected, induced in zip(entries, inequalities, stored, coeffs_ok):
        bounds, cert, certified = _certify(ineq)
        results.append(
            {
                "sign_function": entry["sign_function"],
                "coeffs_ok": induced,
                "lhv_max": bounds.maximum,
                "lhv_min": bounds.minimum,
                "bound_ok": bounds == (ineq.bound, -ineq.bound),
                "tight": cert.tight,
                "saturating_count": cert.saturating_count,
                "rank": cert.rank,
                "certificate_ok": cert == expected,
                "pass": induced and certified and cert == expected,
            }
        )
    cat.write_catalog(args.output_path, results, args.format)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_FINDINGS


def _cmd_violate(args: argparse.Namespace) -> int:
    entries, inequalities = _read_catalog(args)
    reports = seesaw_maximize_all(inequalities, restarts=args.restarts, seed=args.seed)
    coeffs_ok = _induced_ok(args.command, inequalities)
    wrong_bound = [(k, ineq) for k, ineq in enumerate(inequalities) if ineq.bound != table_size(ineq.parties)]
    for index, ineq in wrong_bound:
        print(f"bellfacets violate: entry {index} ({ineq.provenance.to_text()}) has bound {ineq.bound}, "
              f"not the {table_size(ineq.parties)} its sign function induces", file=sys.stderr)
    for entry, report in zip(entries, reports):
        entry["quantum"] = cat.quantum_block(report, args.seed, args.restarts)
    cat.write_json(args.output_path, entries)
    return EXIT_OK if all(coeffs_ok) and not wrong_bound else EXIT_FINDINGS


def _cmd_reduce(args: argparse.Namespace) -> int:
    reduction = two_setting_reduction(args.parties)
    return _write_certified(args, reduction, _canonical_flags([ineq.provenance for ineq in reduction]))


def _cmd_lift(args: argparse.Namespace) -> int:
    entries, inequalities = _read_catalog(args)
    coeffs_ok = _induced_ok(args.command, inequalities)
    for entry, ineq in zip(entries, inequalities):
        entry["lifted"] = cat.lifted_block(lift(ineq))
    cat.write_json(args.output_path, entries)
    return EXIT_OK if all(coeffs_ok) else EXIT_FINDINGS


# command -> (handler, the flags it reads)
_COMMANDS = {
    "enumerate": (_cmd_enumerate, ("--parties", "--out", "--format")),
    "classify": (_cmd_classify, ("--parties", "--out")),
    "verify": (_cmd_verify, ("--in", "--out", "--format")),
    "violate": (_cmd_violate, ("--in", "--out", "--seed", "--restarts")),
    "reduce": (_cmd_reduce, ("--parties", "--out", "--format")),
    "lift": (_cmd_lift, ("--in", "--out")),
}


def _usage_error(args: argparse.Namespace) -> str | None:
    """The first out-of-range flag value, checked before any input is read;
    the library itself rejects an unsupported --parties."""
    if "restarts" in args and args.restarts < 1:
        return "--restarts must be at least 1"
    if "seed" in args and args.seed < 0:
        return "--seed must be non-negative"
    return None


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line (see build_parser); returns the
    process exit status."""
    usage = _usage_error(args)
    if usage is not None:
        print(f"bellfacets {args.command}: {usage}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return _COMMANDS[args.command][0](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bellfacets {args.command}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
