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
coefficients are not those its sign function induces), and 1 for usage or
I/O errors and malformed catalog entries.  Output bytes are fully determined
by the flags; re-running a command reproduces its files exactly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import catalog as cat
from .enumeration import UnsupportedSize, classify
from .fourier import SignFunction
from .lifting import lift, two_setting_reduction
from .polytope import (
    BellInequality,
    BoundNotAttained,
    TightnessCertificate,
    certify_tightness,
    inequality_from_sign_function,
    lhv_max,
)
from .quantum import seesaw_maximize
from .symmetry import orbit_tables

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2

_PARTIES_RANGE = {
    "enumerate": (2, 3),
    "classify": (2, 3),
    "reduce": (2, 3),
    "verify": (2, 4),
    "violate": (2, 4),
    "lift": (2, 4),
}


@dataclass
class RunConfig:
    """One batch run; the flags fully determine the output bytes."""

    command: str
    parties: int | None = None
    input_path: Path | None = None
    output_path: Path | None = None
    seed: int = 0
    restarts: int = 32
    format: str = "json"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit 1, findings own exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="bellfacets", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("enumerate", "classify", "verify", "violate", "reduce", "lift"):
        p = sub.add_parser(name)
        p.add_argument("--parties", type=int, default=None)
        p.add_argument("--in", dest="input_path", type=Path, default=None)
        p.add_argument("--out", dest="output_path", type=Path, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=32)
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _catalog_entries(parties: int) -> tuple[list[dict], bool]:
    """Canonical catalog entries plus a findings flag."""
    report = classify(parties)
    entries = []
    findings = False
    for cls in report.canonical_classes:
        ineq = inequality_from_sign_function(cls.representative)
        cert = certify_tightness(ineq)
        bounds = lhv_max(ineq)
        entries.append(cat.inequality_entry(ineq, cert, canonical=True))
        if not cert.tight or bounds.maximum != ineq.bound or bounds.minimum != -ineq.bound:
            findings = True
    return entries, findings


def _read_entries(path: Path) -> list[dict]:
    """Catalog entries from a JSON file: a list of objects, else ValueError."""
    entries = cat.read_json(path)
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{path} is not a catalog: expected a JSON list of objects")
    return entries


def _coeffs_ok(command: str, index: int, ineq: BellInequality) -> bool:
    """Whether the stored coefficients are those the sign function induces;
    a mismatch is reported on stderr."""
    regenerated = inequality_from_sign_function(ineq.provenance)
    if (regenerated.coeffs == ineq.coeffs).all():
        return True
    print(
        f"bellfacets {command}: entry {index} ({ineq.provenance.to_text()}) has "
        "coefficients its sign function does not induce",
        file=sys.stderr,
    )
    return False


def _canonical_flags(functions: list[SignFunction]) -> list[bool]:
    """Whether each function (all of one observer count) is the least table
    of its orbit, as canonicalize would say, scanning each orbit once."""
    tables = {s.table for s in functions}
    least = {}  # table among `functions` -> least table of its orbit
    for s in functions:
        if s.table not in least:
            orbit = orbit_tables(s)
            least.update(dict.fromkeys(orbit & tables, min(orbit)))
    return [least[s.table] == s.table for s in functions]


def _cmd_enumerate(config: RunConfig) -> int:
    entries, findings = _catalog_entries(config.parties)
    cat.write_catalog(config.output_path, entries, config.format)
    return EXIT_FINDINGS if findings else EXIT_OK


def _cmd_classify(config: RunConfig) -> int:
    report = classify(config.parties)
    cat.write_json(config.output_path, cat.classification_dict(report))
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    entries = _read_entries(config.input_path)
    results = []
    findings = False
    for index, entry in enumerate(entries):
        ineq = cat.entry_inequality(entry)
        stored = cat.entry_certificate(entry, index)
        coeffs_ok = _coeffs_ok(config.command, index, ineq)
        bounds = lhv_max(ineq)
        bound_ok = bounds.maximum == entry["bound"] and bounds.minimum == -entry["bound"]
        try:
            cert = certify_tightness(ineq)
        except BoundNotAttained:
            cert = TightnessCertificate(tight=False, saturating_count=0, rank=0)
        cert_ok = cert == stored
        ok = coeffs_ok and bound_ok and cert.tight and cert_ok
        findings = findings or not ok
        results.append(
            {
                "sign_function": entry["sign_function"],
                "coeffs_ok": coeffs_ok,
                "lhv_max": bounds.maximum,
                "lhv_min": bounds.minimum,
                "bound_ok": bound_ok,
                "tight": cert.tight,
                "saturating_count": cert.saturating_count,
                "rank": cert.rank,
                "certificate_ok": cert_ok,
                "pass": ok,
            }
        )
    if config.format == "csv":
        config.output_path.write_text(cat.records_csv(results), encoding="utf-8")
    else:
        cat.write_json(config.output_path, results)
    return EXIT_FINDINGS if findings else EXIT_OK


def _cmd_violate(config: RunConfig) -> int:
    entries = _read_entries(config.input_path)
    findings = False
    for index, entry in enumerate(entries):
        ineq = cat.entry_inequality(entry)
        if not _coeffs_ok(config.command, index, ineq):
            findings = True
        report = seesaw_maximize(ineq, restarts=config.restarts, seed=config.seed)
        entry["quantum"] = cat.quantum_block(report, config.seed, config.restarts)
    cat.write_json(config.output_path, entries)
    return EXIT_FINDINGS if findings else EXIT_OK


def _cmd_reduce(config: RunConfig) -> int:
    reduction = two_setting_reduction(config.parties)
    flags = _canonical_flags([ineq.provenance for ineq in reduction])
    entries = []
    findings = False
    for ineq, canonical in zip(reduction, flags):
        cert = certify_tightness(ineq)
        bounds = lhv_max(ineq)
        entries.append(cat.inequality_entry(ineq, cert, canonical=canonical))
        if not cert.tight or bounds.maximum != ineq.bound:
            findings = True
    cat.write_catalog(config.output_path, entries, config.format)
    return EXIT_FINDINGS if findings else EXIT_OK


def _cmd_lift(config: RunConfig) -> int:
    entries = _read_entries(config.input_path)
    findings = False
    for index, entry in enumerate(entries):
        ineq = cat.entry_inequality(entry)
        if not _coeffs_ok(config.command, index, ineq):
            findings = True
        entry["lifted"] = cat.lifted_block(lift(ineq))
    cat.write_json(config.output_path, entries)
    return EXIT_FINDINGS if findings else EXIT_OK


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "violate": _cmd_violate,
    "reduce": _cmd_reduce,
    "lift": _cmd_lift,
}

_NEEDS_PARTIES = ("enumerate", "classify", "reduce")
_NEEDS_INPUT = ("verify", "violate", "lift")
_CSV_CAPABLE = ("enumerate", "reduce", "verify")


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    if config.command in _NEEDS_PARTIES:
        low, high = _PARTIES_RANGE[config.command]
        if config.parties is None or not low <= config.parties <= high:
            print(
                f"bellfacets {config.command}: --parties must be in [{low}, {high}]",
                file=sys.stderr,
            )
            return EXIT_ERROR
    if config.command in _NEEDS_INPUT and config.input_path is None:
        print(f"bellfacets {config.command}: --in is required", file=sys.stderr)
        return EXIT_ERROR
    if config.format == "csv" and config.command not in _CSV_CAPABLE:
        print(f"bellfacets {config.command}: csv format is not supported", file=sys.stderr)
        return EXIT_ERROR
    try:
        return _COMMANDS[config.command](config)
    except (OSError, ValueError, UnsupportedSize, KeyError) as exc:
        print(f"bellfacets {config.command}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        parties=args.parties,
        input_path=args.input_path,
        output_path=args.output_path,
        seed=args.seed,
        restarts=args.restarts,
        format=args.format,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
