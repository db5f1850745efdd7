"""Command-line interface for reproducible batch workflows.

Every invocation is a deterministic batch run: identical inputs, flags, and
seed produce byte-identical outputs. Each subcommand accepts only the flags
it reads. When writing to a file via --out, a .manifest.json sidecar records
the subcommand, its flag values, input file digests, and the tool version so
any result can be re-derived.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from . import __version__, model, ssa
from .names import csv_text, normalize_name

if TYPE_CHECKING:
    from . import corpus, shifts

# corpus, trend, sampling and shifts are imported by the commands that use
# them, so that each command loads only what it runs.

TABLE_FORMAT = ssa.SNAPSHOT_MAGIC.lstrip("# ")
# The values of trend.Estimator and shifts.DEFAULT_SAMPLE_YEARS, spelled out
# so that building the parser imports neither module.
ESTIMATORS = ("weighted-mean", "classified-share")
SAMPLE_YEARS = (1900, 1925, 1950, 1975, 2000)


def _sha256(path: Path) -> str:
    """The digest of the file, read in chunks of 1 MiB so that hashing a
    large corpus does not hold it in memory."""
    import hashlib  # only manifests need it

    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def build_manifest(args: argparse.Namespace, inputs: list[Path | None]) -> dict:
    options = {key: str(val) if isinstance(val, Path) else val
               for key, val in vars(args).items() if key != "func"}
    return {
        "tool": "namecohort",
        "version": __version__,
        "subcommand": args.subcommand,
        "table_format": TABLE_FORMAT,
        "seed": vars(args).get("seed"),
        "options": options,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
    }


def _write_manifest(out: Path, manifest: dict) -> None:
    sidecar = Path(str(out) + ".manifest.json")
    sidecar.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")


def _write_output(args: argparse.Namespace, data: bytes,
                  manifest: Callable[[], dict]) -> None:
    """Write data to --out with its manifest, or to stdout; the manifest
    (which hashes every input) is built only for --out."""
    if args.out:
        Path(args.out).write_bytes(data)
        _write_manifest(args.out, manifest())
    else:
        sys.stdout.write(data.decode("utf-8"))


def _load_table(args: argparse.Namespace) -> ssa.NameYearTable:
    if args.table:
        return ssa.read_snapshot(args.table)
    return ssa.load_fixture()


def _model_config(args: argparse.Namespace) -> model.ModelConfig:
    return model.ModelConfig(year_shift=args.shift,
                             max_fallback_distance=args.max_fallback)


def _load_corpus(args: argparse.Namespace) -> Iterator[corpus.Row]:
    """The corpus rows, as the parser reads them, once the ledger is read; an
    error in the ledger ends the run before the corpus is opened. Once the
    rows are used up, and so before any output, the skip count goes to stderr
    and the unmatched ledger entries are warned about. A byte-order mark at
    the start of a CSV corpus or ledger is dropped."""
    from . import corpus

    path = args.corpus
    fmt = args.corpus_format
    if fmt == "auto":
        fmt = "dblp" if path.suffix.lower() == ".xml" else "csv"
    ledger = None
    if args.overrides:
        with open(args.overrides, encoding="utf-8-sig", newline="") as stream:
            ledger = corpus.read_override_ledger(stream)
    result = corpus.CorpusParseResult()
    if fmt == "dblp":
        with open(path, "rb") as stream:
            yield from corpus._parse_dblp(stream, args.strict, ledger, result)
    else:
        with open(path, encoding="utf-8-sig", newline="") as stream:
            yield from corpus._parse_csv(stream, args.strict, ledger, result)
    if result.skipped:
        print(f"skipped {result.skipped} malformed entries in {path}", file=sys.stderr)
    corpus.warn_unmatched(result.unmatched)


def cmd_ingest(args: argparse.Namespace) -> int:
    if not args.out:
        print("error: ingest requires --out for the table snapshot", file=sys.stderr)
        return 1
    year_files = [path for _, path in ssa.iter_year_files(Path(args.ssa_dir))]
    table = ssa.load_directory(Path(args.ssa_dir))
    if table.year_range is None:
        print(f"error: year files in {args.ssa_dir} contained no records",
              file=sys.stderr)
        return 1
    ssa.write_snapshot(table, args.out)
    _write_manifest(args.out, build_manifest(args, year_files))
    lo, hi = table.year_range
    print(f"ingested {len(year_files)} year files: years {lo}-{hi}, "
          f"{len(table.names())} names, {len(table)} entries")
    return 0


def cmd_pf(args: argparse.Namespace) -> int:
    table = _load_table(args)
    payload: dict = {"name": normalize_name(args.name)}
    if args.pub_year is not None:
        estimate = model.shifted_lookup(table, args.name, args.pub_year,
                                        _model_config(args))
        payload["publication_year"] = args.pub_year
        payload["year_shift"] = args.shift
    else:
        estimate = model.p_female(table, args.name, args.year, args.max_fallback)
    payload.update({
        "p_female": estimate.p_female,
        "female_count": estimate.female_count,
        "male_count": estimate.male_count,
        "lookup_year": estimate.lookup_year,
        "fallback_distance": estimate.fallback_distance,
    })
    data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    _write_output(args, data, lambda: build_manifest(args, [args.table]))
    return 0


def _shift_records_csv(records: list[shifts.ShiftRecord]) -> bytes:
    rows = [(r.name, r.p_start, r.p_end, r.delta, r.weight) for r in records]
    return csv_text([("name", "p_start", "p_end", "delta", "weight"), *rows]).encode("utf-8")


def cmd_shifts(args: argparse.Namespace) -> int:
    from . import shifts

    table = _load_table(args)
    y1, y2 = args.from_year, args.to_year
    modes = [bool(args.name), args.top is not None, args.unstable]
    if sum(modes) != 1:
        print("error: choose exactly one of --name, --top, --unstable", file=sys.stderr)
        return 1
    if args.top is not None:
        records = shifts.top_shift_names(table, y1, y2, k=args.top,
                                         weighted=args.weighted,
                                         max_fallback_distance=args.max_fallback)
    else:
        if args.unstable:
            config = shifts.InstabilityConfig(
                sample_years=tuple(args.sample_years),
                range_threshold=args.range_threshold,
                min_total_births=args.min_births,
            )
            names = shifts.find_unstable(table, config, args.max_fallback)
        else:
            names = args.name
        records = []
        for name in names:
            try:
                records.append(shifts.gender_shift(table, name, y1, y2,
                                                   args.max_fallback))
            except shifts.EndpointMissingError as exc:
                if args.name:  # explicit names must resolve
                    raise
                print(f"skipping {exc}", file=sys.stderr)
    if args.net:
        value = shifts.net_shift(records)
        payload = {"from_year": y1, "to_year": y2,
                   "names": [r.name for r in records], "net_female_shift": value}
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    elif args.format == "json":
        payload = [dataclasses.asdict(r) for r in records]
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    else:
        data = _shift_records_csv(records)
    _write_output(args, data, lambda: build_manifest(args, [args.table]))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    from . import sampling

    ids: list[str] | None = None
    if args.ids_file:
        if args.seed is None:
            print("error: --seed is required when drawing from --ids-file", file=sys.stderr)
            return 1
        ids = [line.strip() for line in
               Path(args.ids_file).read_text(encoding="utf-8-sig").splitlines()
               if line.strip()]
    population = args.population_size if args.population_size is not None else (
        len(ids) if ids is not None else None)
    if population is None:
        print("error: provide --population-size or --ids-file", file=sys.stderr)
        return 1
    spec = sampling.sample_size(population, args.margin, args.confidence)
    manifest = build_manifest(args, [args.ids_file])
    header = {"spec": dataclasses.asdict(spec), "manifest": manifest}
    lines = [json.dumps(header, sort_keys=True)]
    if ids is not None:
        n = args.size if args.size is not None else spec.computed_n
        lines.extend(sampling.draw_sample(ids, n, args.seed))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    _write_output(args, data, lambda: manifest)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import trend

    config = trend.EstimatorConfig(
        estimator=trend.Estimator(args.estimator),
        unknown_value=args.unknown_value,
        display_encoding=trend.DisplayEncoding() if args.display_encoding else None,
        bin_width=args.bin_width,
        group_by_venue=args.group_by_venue,
    )
    thresholds = model.Thresholds(tau_female=args.tau_female, tau_male=args.tau_male)
    model_config = _model_config(args)
    table = _load_table(args)
    points = trend.annual_share(_load_corpus(args), table, model_config, thresholds, config)
    data = trend.emit_series(points, args.format)
    _write_output(args, data,
                  lambda: build_manifest(args, [args.corpus, args.table, args.overrides]))
    return 0


def cmd_bias_report(args: argparse.Namespace) -> int:
    from . import trend

    model_config = _model_config(args)
    table = _load_table(args)
    report = trend.present_bias_report(_load_corpus(args), table, model_config,
                                       args.reference_year)
    data = trend.emit_series(report, args.format)
    _write_output(args, data,
                  lambda: build_manifest(args, [args.corpus, args.table, args.overrides]))
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


_MODE_OPTIONS = "_mode_options"


class _ModeOption(argparse.Action):
    """Store an option that only one mode of its command reads (store_true
    when nargs=0), noting that it was given so the parser can check the mode."""

    def __init__(self, option_strings, dest, mode: str, nargs=None, **kwargs):
        self.mode = mode
        super().__init__(option_strings, dest, nargs=nargs,
                         const=True if nargs == 0 else None, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        vars(namespace).setdefault(_MODE_OPTIONS, []).append((self, parser))


class _Parser(argparse.ArgumentParser):
    """Once every argument is parsed, refuse a mode option given outside its
    mode, with the usage of the command that declares it."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for action, command in vars(namespace).pop(_MODE_OPTIONS, ()):
            if getattr(namespace, action.mode.lstrip("-").replace("-", "_")) in (None, False):
                command.error(f"{action.option_strings[0]} is read only with {action.mode}")
        return namespace, extras


_SHIFT_HELP = "years subtracted from a publication year to reach the birth cohort"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="namecohort",
        description="Year-aware name-gender estimation and longitudinal "
                    "author-trend analysis.",
    )
    parser.add_argument("--version", action="version",
                        version=f"namecohort {__version__}")

    out_arg = argparse.ArgumentParser(add_help=False)
    out_arg.add_argument("--out", type=Path, default=None,
                         help="write output to this file plus a .manifest.json "
                              "sidecar (default: stdout)")

    table_args = argparse.ArgumentParser(add_help=False)
    table_args.add_argument("--table", type=Path, default=None,
                            help="table snapshot written by 'ingest' "
                                 "(default: bundled fixture table)")
    table_args.add_argument("--max-fallback", type=int, default=model.DEFAULT_MAX_FALLBACK,
                            help="farthest nearby year to borrow counts from when "
                                 "the exact year has none")

    shift_arg = argparse.ArgumentParser(add_help=False)
    shift_arg.add_argument("--shift", type=int, default=model.DEFAULT_YEAR_SHIFT,
                           help=_SHIFT_HELP)

    format_arg = argparse.ArgumentParser(add_help=False)
    format_arg.add_argument("--format", choices=["csv", "json"], default="csv",
                            help="output format for tabular results")

    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("ingest", parents=[out_arg], formatter_class=fmt,
                       help="parse a directory of yobYYYY.txt files into a table snapshot")
    p.add_argument("ssa_dir", type=Path, help="directory of yobYYYY.txt files")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pf", parents=[table_args, out_arg], formatter_class=fmt,
                       help="look up the female probability of a name")
    p.add_argument("--shift", action=_ModeOption, mode="--pub-year", type=int,
                   default=model.DEFAULT_YEAR_SHIFT, help=_SHIFT_HELP)
    p.add_argument("name", help="first name to look up")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--year", type=int, help="birth year to query directly")
    group.add_argument("--pub-year", type=int,
                       help="publication year; the lookup shifts back to the birth cohort")
    p.set_defaults(func=cmd_pf)

    p = sub.add_parser("shifts", parents=[table_args, format_arg, out_arg],
                       formatter_class=fmt,
                       help="quantify gender-association movement between two years")
    p.add_argument("--from", dest="from_year", type=int, required=True,
                   help="start year")
    p.add_argument("--to", dest="to_year", type=int, required=True,
                   help="end year")
    p.add_argument("--name", action="append", default=[],
                   help="name to analyze (repeatable)")
    p.add_argument("--top", type=int, default=None,
                   help="rank the k largest movers instead of naming them")
    p.add_argument("--weighted", action=_ModeOption, mode="--top", nargs=0, default=False,
                   help="rank by |delta| x births weight rather than |delta| alone")
    p.add_argument("--unstable", action="store_true",
                   help="analyze the names flagged unstable across the sample years")
    p.add_argument("--net", action="store_true",
                   help="print the weight-normalized net female shift instead of rows")
    p.add_argument("--sample-years", action=_ModeOption, mode="--unstable", type=_int_list,
                   default=SAMPLE_YEARS,
                   help="comma-separated years for instability detection")
    p.add_argument("--range-threshold", action=_ModeOption, mode="--unstable", type=float,
                   default=0.3,
                   help="minimum p(F) range across sample years to count as unstable")
    p.add_argument("--min-births", action=_ModeOption, mode="--unstable", type=int,
                   default=500,
                   help="minimum total births across sample years to count as unstable")
    p.set_defaults(func=cmd_shifts)

    p = sub.add_parser("sample", parents=[out_arg], formatter_class=fmt,
                       help="compute a sample size and optionally draw ids")
    p.add_argument("--seed", action=_ModeOption, mode="--ids-file", type=int, default=None,
                   help="seed for the draw from --ids-file")
    p.add_argument("--population-size", type=int, default=None,
                   help="population size N (default: count of ids in --ids-file)")
    p.add_argument("--margin", type=float, default=0.05,
                   help="margin of error as a proportion")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="confidence level as a proportion")
    p.add_argument("--ids-file", type=Path, default=None,
                   help="file of ids, one per line, to draw from")
    p.add_argument("--size", action=_ModeOption, mode="--ids-file", type=int, default=None,
                   help="draw exactly this many ids (e.g. a deliberate oversize "
                        "sample) instead of the computed minimum")
    p.set_defaults(func=cmd_sample)

    corpus_args = argparse.ArgumentParser(
        add_help=False, parents=[table_args, shift_arg, format_arg, out_arg])
    corpus_args.add_argument("--corpus", type=Path, required=True,
                             help="corpus file (CSV or DBLP-style XML)")
    corpus_args.add_argument("--corpus-format", choices=["auto", "csv", "dblp"],
                             default="auto",
                             help="corpus file format (auto: by extension)")
    corpus_args.add_argument("--overrides", type=Path, default=None,
                             help="override ledger CSV of qualitative identifications")
    corpus_args.add_argument("--strict", action="store_true",
                             help="abort on malformed corpus rows instead of "
                                  "skipping and tallying them")

    p = sub.add_parser("analyze", parents=[corpus_args], formatter_class=fmt,
                       help="aggregate a corpus into a women's-share series")
    p.add_argument("--estimator", choices=ESTIMATORS, default=ESTIMATORS[0],
                   help="aggregation convention")
    p.add_argument("--unknown-value", type=float, default=0.5,
                   help="contribution of an unidentified author under weighted-mean")
    p.add_argument("--display-encoding", action="store_true",
                   help="map classified mentions to 0.95/0.05/0.5 before averaging")
    p.add_argument("--bin-width", type=int, default=1, help="bin width in years")
    p.add_argument("--group-by-venue", action="store_true",
                   help="emit one series per venue")
    p.add_argument("--tau-female", type=float, default=0.8,
                   help="classify Female at or above this p(F)")
    p.add_argument("--tau-male", type=float, default=0.2,
                   help="classify Male at or below this p(F)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bias-report", parents=[corpus_args], formatter_class=fmt,
                       help="compare cohort-shifted shares against a static "
                            "reference-year predictor")
    p.add_argument("--reference-year", type=int, required=True,
                   help="year the static predictor pins every lookup to")
    p.set_defaults(func=cmd_bias_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
