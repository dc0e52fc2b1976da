"""Command-line interface: extract, analyze, plotdata.

Exit codes: 0 success, 1 usage error, 2 data error, 3 partial failure
(extraction or analysis finished but its errors sidecar is nonempty).
"""

from __future__ import annotations

import argparse
import glob
import sys

from . import RadrepError
from .pipeline import (ANALYSIS_ERRORS, EXTRACTION_ERRORS, analyze_run,
                       extract_run, load_manifest, plotdata_run)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA_ERROR = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a whole number of at least 1, got {text!r}")
    return value


def _finish(paths, failures, noun: str, sidecar: str) -> int:
    """Print the paths, report any failures, and return the exit code."""
    for path in paths:
        print(path)
    if failures:
        print(f"{len(failures)} {noun} failure(s); see {sidecar}",
              file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radrep",
                     description="Radiomics extraction and test-retest "
                                 "repeatability analysis")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("extract", help="run the extraction matrix")
    cmd.add_argument("--manifest", required=True, help="run manifest JSON")
    cmd.add_argument("--out", required=True, help="output directory for CSVs")
    cmd.add_argument("--jobs", type=_at_least_one, default=1,
                     help="most worker processes to fork (capped by entries "
                          "and CPUs), each holding one image")

    cmd = commands.add_parser("analyze", help="compute repeatability reports")
    cmd.add_argument("--in", dest="inputs", required=True,
                     help="glob of extraction CSVs")
    cmd.add_argument("--out", required=True, help="report directory")
    cmd.add_argument("--compare", nargs=2, metavar=("STEM_A", "STEM_B"),
                     default=None,
                     help="emit a config-delta report between two CSV stems")
    cmd.add_argument("--timepoint-map", default=None,
                     help="JSON mapping study -> [subject, timepoint] for "
                          "CSVs whose study column is not '<subject>_tp<N>'")

    cmd = commands.add_parser("plotdata", help="emit plot-ready CSVs")
    cmd.add_argument("--in", dest="inputs", required=True,
                     help="analysis report directory")
    cmd.add_argument("--out", required=True, help="plot-data directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        if args.command == "extract":
            manifest = load_manifest(args.manifest)
            return _finish(*extract_run(manifest, args.out, args.jobs),
                           "extraction", EXTRACTION_ERRORS)

        if args.command == "analyze":
            paths = sorted(glob.glob(args.inputs))
            if not paths:
                print(f"no input CSVs match {args.inputs!r}", file=sys.stderr)
                return EXIT_DATA_ERROR
            return _finish(*analyze_run(
                paths, args.out,
                compare=tuple(args.compare) if args.compare else None,
                timepoint_map_path=args.timepoint_map),
                "analysis", ANALYSIS_ERRORS)

        if args.command == "plotdata":
            for path in plotdata_run(args.inputs, args.out):
                print(path)
            return EXIT_OK
    except RadrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
