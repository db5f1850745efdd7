"""Command-line interface for reproducible batch workflows.

Every invocation is a deterministic batch run: identical inputs, flags, and
seed produce byte-identical outputs. When writing to a file via --out, a
.manifest.json sidecar records the subcommand, all flag values, input file
digests, and the tool version so any result can be re-derived.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, corpus, model, sampling, shifts, ssa, trend
from .names import normalize_name

TABLE_FORMAT = ssa.SNAPSHOT_MAGIC.lstrip("# ")


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def build_manifest(args: argparse.Namespace, inputs: list[Path]) -> dict:
    options = {key: _jsonable(val) for key, val in vars(args).items() if key != "func"}
    return {
        "tool": "namecohort",
        "version": __version__,
        "subcommand": args.subcommand,
        "table_format": TABLE_FORMAT,
        "seed": args.seed,
        "options": options,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
    }


def _write_manifest(out: Path, manifest: dict) -> None:
    sidecar = Path(str(out) + ".manifest.json")
    sidecar.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")


def _write_output(args: argparse.Namespace, data: bytes, manifest: dict) -> None:
    if args.out:
        Path(args.out).write_bytes(data)
        _write_manifest(args.out, manifest)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _load_table(args: argparse.Namespace) -> ssa.NameYearTable:
    if args.table:
        return ssa.read_snapshot(args.table)
    return ssa.load_fixture()


def _model_config(args: argparse.Namespace) -> model.ModelConfig:
    return model.ModelConfig(year_shift=args.shift,
                             max_fallback_distance=args.max_fallback)


def _load_corpus(args: argparse.Namespace) -> list[corpus.CorpusRecord]:
    path = Path(args.corpus)
    fmt = args.corpus_format
    if fmt == "auto":
        fmt = "dblp" if path.suffix.lower() == ".xml" else "csv"
    if fmt == "dblp":
        with open(path, "rb") as stream:
            result = corpus.parse_dblp_subset(stream)
    else:
        with open(path, encoding="utf-8", newline="") as stream:
            result = corpus.parse_corpus_csv(stream, strict=args.strict)
    if result.skipped:
        print(f"skipped {result.skipped} malformed entries in {path}", file=sys.stderr)
    records = result.records
    if getattr(args, "overrides", None):
        with open(args.overrides, encoding="utf-8", newline="") as stream:
            ledger = corpus.read_override_ledger(stream)
        records = corpus.apply_overrides(records, ledger)
    return records


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
    _write_output(args, data, build_manifest(args, [args.table]))
    return 0


def _shift_records_csv(records: list[shifts.ShiftRecord]) -> bytes:
    lines = ["name,p_start,p_end,delta,weight"]
    lines += [f"{r.name},{r.p_start!r},{r.p_end!r},{r.delta!r},{r.weight!r}"
              for r in records]
    return ("\n".join(lines) + "\n").encode("utf-8")


def cmd_shifts(args: argparse.Namespace) -> int:
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
        value = shifts.net_female_shift(table, [r.name for r in records], y1, y2,
                                        args.max_fallback)
        payload = {"from_year": y1, "to_year": y2,
                   "names": [r.name for r in records], "net_female_shift": value}
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    elif args.format == "json":
        payload = [dataclasses.asdict(r) for r in records]
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    else:
        data = _shift_records_csv(records)
    _write_output(args, data, build_manifest(args, [args.table]))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    ids: list[str] | None = None
    if args.ids_file:
        ids = [line.strip() for line in
               Path(args.ids_file).read_text(encoding="utf-8").splitlines()
               if line.strip()]
    population = args.population_size if args.population_size else (
        len(ids) if ids is not None else None)
    if population is None:
        print("error: provide --population-size or --ids-file", file=sys.stderr)
        return 1
    spec = sampling.sample_size(population, args.margin, args.confidence)
    manifest = build_manifest(args, [Path(args.ids_file)] if args.ids_file else [])
    header = {"spec": dataclasses.asdict(spec), "manifest": manifest}
    lines = [json.dumps(header, sort_keys=True)]
    if ids is not None:
        if args.seed is None:
            print("error: --seed is required when drawing from --ids-file",
                  file=sys.stderr)
            return 1
        n = args.size if args.size is not None else spec.computed_n
        lines.extend(sampling.draw_sample(ids, n, args.seed))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    _write_output(args, data, manifest)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    table = _load_table(args)
    records = _load_corpus(args)
    config = trend.EstimatorConfig(
        estimator=trend.Estimator(args.estimator),
        unknown_value=args.unknown_value,
        display_encoding=trend.DisplayEncoding() if args.display_encoding else None,
        bin_width=args.bin_width,
        group_by_venue=args.group_by_venue,
    )
    thresholds = model.Thresholds(tau_female=args.tau_female, tau_male=args.tau_male)
    points = trend.annual_share(records, table, _model_config(args), thresholds, config)
    data = trend.emit_series(points, args.format)
    inputs = [Path(args.corpus), args.table,
              Path(args.overrides) if args.overrides else None]
    _write_output(args, data, build_manifest(args, inputs))
    return 0


def cmd_bias_report(args: argparse.Namespace) -> int:
    table = _load_table(args)
    records = _load_corpus(args)
    report = trend.present_bias_report(records, table, _model_config(args),
                                       reference_year=args.reference_year)
    data = trend.emit_series(report, args.format)
    inputs = [Path(args.corpus), args.table,
              Path(args.overrides) if args.overrides else None]
    _write_output(args, data, build_manifest(args, inputs))
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="namecohort",
        description="Year-aware name-gender estimation and longitudinal "
                    "author-trend analysis.",
    )
    parser.add_argument("--version", action="version",
                        version=f"namecohort {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", type=Path, default=None,
                        help="table snapshot written by 'ingest' "
                             "(default: bundled fixture table)")
    common.add_argument("--out", type=Path, default=None,
                        help="write output to this file plus a .manifest.json "
                             "sidecar (default: stdout)")
    common.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="output format for tabular results")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for any randomized step")
    common.add_argument("--strict", action="store_true",
                        help="abort on malformed corpus rows instead of "
                             "skipping and tallying them")

    lookup = argparse.ArgumentParser(add_help=False)
    lookup.add_argument("--shift", type=int, default=model.DEFAULT_YEAR_SHIFT,
                        help="years subtracted from a publication year to reach "
                             "the birth cohort")
    lookup.add_argument("--max-fallback", type=int, default=model.DEFAULT_MAX_FALLBACK,
                        help="farthest nearby year to borrow counts from when the "
                             "exact year has none")

    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("ingest", parents=[common], formatter_class=fmt,
                       help="parse a directory of yobYYYY.txt files into a table snapshot")
    p.add_argument("ssa_dir", type=Path, help="directory of yobYYYY.txt files")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pf", parents=[common, lookup], formatter_class=fmt,
                       help="look up the female probability of a name")
    p.add_argument("name", help="first name to look up")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--year", type=int, help="birth year to query directly")
    group.add_argument("--pub-year", type=int,
                       help="publication year; the lookup shifts back to the birth cohort")
    p.set_defaults(func=cmd_pf)

    p = sub.add_parser("shifts", parents=[common, lookup], formatter_class=fmt,
                       help="quantify gender-association movement between two years")
    p.add_argument("--from", dest="from_year", type=int, required=True,
                   help="start year")
    p.add_argument("--to", dest="to_year", type=int, required=True,
                   help="end year")
    p.add_argument("--name", action="append", default=[],
                   help="name to analyze (repeatable)")
    p.add_argument("--top", type=int, default=None,
                   help="rank the k largest movers instead of naming them")
    p.add_argument("--weighted", action="store_true",
                   help="rank by |delta| x births weight rather than |delta| alone")
    p.add_argument("--unstable", action="store_true",
                   help="analyze the names flagged unstable across the sample years")
    p.add_argument("--net", action="store_true",
                   help="print the weight-normalized net female shift instead of rows")
    p.add_argument("--sample-years", type=_int_list,
                   default=shifts.DEFAULT_SAMPLE_YEARS,
                   help="comma-separated years for instability detection")
    p.add_argument("--range-threshold", type=float, default=0.3,
                   help="minimum p(F) range across sample years to count as unstable")
    p.add_argument("--min-births", type=int, default=500,
                   help="minimum total births across sample years to count as unstable")
    p.set_defaults(func=cmd_shifts)

    p = sub.add_parser("sample", parents=[common], formatter_class=fmt,
                       help="compute a sample size and optionally draw ids")
    p.add_argument("--population-size", type=int, default=None,
                   help="population size N (default: count of ids in --ids-file)")
    p.add_argument("--margin", type=float, default=0.05,
                   help="margin of error as a proportion")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="confidence level as a proportion")
    p.add_argument("--ids-file", type=Path, default=None,
                   help="file of ids, one per line, to draw from")
    p.add_argument("--size", type=int, default=None,
                   help="draw exactly this many ids (e.g. a deliberate oversize "
                        "sample) instead of the computed minimum")
    p.set_defaults(func=cmd_sample)

    corpus_args = argparse.ArgumentParser(add_help=False)
    corpus_args.add_argument("--corpus", type=Path, required=True,
                             help="corpus file (CSV or DBLP-style XML)")
    corpus_args.add_argument("--corpus-format", choices=["auto", "csv", "dblp"],
                             default="auto",
                             help="corpus file format (auto: by extension)")
    corpus_args.add_argument("--overrides", type=Path, default=None,
                             help="override ledger CSV of qualitative identifications")

    p = sub.add_parser("analyze", parents=[common, lookup, corpus_args],
                       formatter_class=fmt,
                       help="aggregate a corpus into a women's-share series")
    p.add_argument("--estimator", choices=[e.value for e in trend.Estimator],
                   default=trend.Estimator.WEIGHTED_MEAN.value,
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

    p = sub.add_parser("bias-report", parents=[common, lookup, corpus_args],
                       formatter_class=fmt,
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
