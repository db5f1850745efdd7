"""Command-line interface for reproducible batch workflows.

Every invocation is a deterministic batch run: identical inputs, flags, and
seed produce byte-identical outputs. Each subcommand accepts only the flags
it reads. When writing to a file via --out, a .manifest.json sidecar records
the subcommand, its flag values, input file digests, and the tool version so
any result can be re-derived.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable

from . import __version__, model, ssa
from .names import csv_text, normalize_name

# corpus, trend, sampling, shifts and json are imported by the commands that
# use them, so that each command loads only what it runs.

TABLE_FORMAT = ssa.SNAPSHOT_MAGIC.lstrip("# ")
# The values of trend.Estimator and shifts.DEFAULT_SAMPLE_YEARS, spelled out
# so that building the parser imports neither module.
ESTIMATORS = ("weighted-mean", "classified-share")
SAMPLE_YEARS = (1900, 1925, 1950, 1975, 2000)


def _sha256(path: Path) -> str:
    """The digest of the file, read into one buffer of at most 1 MiB so that
    hashing a large corpus does not hold it in memory; a smaller file gets a
    buffer of its own size, which costs less to allocate."""
    import hashlib  # only manifests need it

    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as stream:
        # A pipe's size reads 0: it gets the whole 1 MiB.
        file_size = os.fstat(stream.fileno()).st_size
        buffer = memoryview(bytearray(min(file_size, 1 << 20) or 1 << 20))
        while size := stream.readinto(buffer):
            digest.update(buffer[:size])
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
    import json

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


def _check_out(args: argparse.Namespace, inputs: list[Path | None]) -> None:
    """Refuse an --out that is one of the inputs, by the same path or by
    another path, symlink or hard link, before any input is read: writing
    the output would replace that input."""
    if args.out and os.path.exists(args.out):
        for path in inputs:
            if path is not None and os.path.exists(path) and os.path.samefile(args.out, path):
                raise ValueError(f"--out {args.out} would overwrite the input {path}")


# The most characters of a path that a status or error line about a whole
# input shows: more than an input value's excerpt, so that the absolute path
# of a temporary file shows whole, and few enough that the line stays under
# 200 characters.
_PATH_ECHO = 120


def _load_table(args: argparse.Namespace) -> ssa.NameYearTable:
    if args.table:
        return ssa.read_snapshot(args.table)
    return ssa.load_fixture()


def _model_config(args: argparse.Namespace) -> model.ModelConfig:
    return model.ModelConfig(year_shift=args.shift,
                             max_fallback_distance=args.max_fallback)


def cmd_ingest(args: argparse.Namespace) -> int:
    if not args.out:
        print("error: ingest requires --out for the table snapshot", file=sys.stderr)
        return 1
    year_files = list(ssa.iter_year_files(args.ssa_dir))
    paths = [path for _, path in year_files]
    _check_out(args, paths)
    table = ssa._load_year_files(args.ssa_dir, year_files)
    if table.year_range is None:
        print(f"error: year files in {ssa._excerpt(args.ssa_dir, limit=_PATH_ECHO)} "
              "contained no records", file=sys.stderr)
        return 1
    ssa.write_snapshot(table, args.out)
    _write_manifest(args.out, build_manifest(args, paths))
    lo, hi = table.year_range
    print(f"ingested {len(year_files)} year files: years {lo}-{hi}, "
          f"{len(table.names())} names, {len(table)} entries")
    return 0


def cmd_pf(args: argparse.Namespace) -> int:
    import json

    config = _model_config(args)
    _check_out(args, [args.table])
    table = _load_table(args)
    payload: dict = {"name": normalize_name(args.name)}
    if args.pub_year is not None:
        estimate = model.shifted_lookup(table, args.name, args.pub_year, config)
        payload["publication_year"] = args.pub_year
        payload["year_shift"] = args.shift
    else:
        estimate = model.p_female(table, args.name, args.year, args.max_fallback)
    payload.update(estimate._asdict())
    data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    _write_output(args, data, lambda: build_manifest(args, [args.table]))
    return 0


def cmd_shifts(args: argparse.Namespace) -> int:
    import json

    from . import shifts

    y1, y2 = args.from_year, args.to_year
    modes = [bool(args.name), args.top is not None, args.unstable]
    if sum(modes) != 1:
        print("error: choose exactly one of --name, --top, --unstable", file=sys.stderr)
        return 1
    if args.top is not None:
        shifts._check_top(args.top)
    if args.unstable:
        config = shifts.InstabilityConfig(tuple(args.sample_years), args.range_threshold,
                                          args.min_births)
    model._check_max_fallback(args.max_fallback)
    shifts._check_years(y1, y2)
    _check_out(args, [args.table])
    table = _load_table(args)
    if args.top is not None:
        records = shifts.top_shift_names(table, y1, y2, k=args.top,
                                         weighted=args.weighted,
                                         max_fallback_distance=args.max_fallback)
    else:
        names = (shifts.find_unstable(table, config, args.max_fallback) if args.unstable
                 else args.name)
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
        payload = [r._asdict() for r in records]
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    else:
        rows = [r._asdict().values() for r in records]
        data = csv_text([shifts.ShiftRecord.__slots__, *rows]).encode("utf-8")
    _write_output(args, data, lambda: build_manifest(args, [args.table]))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    import json

    from . import sampling

    sampling._check_settings(args.population_size, args.margin, args.confidence)
    ids: list[str] | None = None
    if args.ids_file:
        if args.seed is None:
            print("error: --seed is required when drawing from --ids-file", file=sys.stderr)
            return 1
        _check_out(args, [args.ids_file])
        try:
            text = Path(args.ids_file).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            line = ssa._undecodable_line(args.ids_file)
            raise ValueError(f"{args.ids_file}:{line}: not UTF-8 ({exc.reason})") from None
        ids = [line.strip() for line in text.splitlines() if line.strip()]
    population = args.population_size if args.population_size is not None else (
        len(ids) if ids is not None else None)
    if population is None:
        print("error: provide --population-size or --ids-file", file=sys.stderr)
        return 1
    spec = sampling.sample_size(population, args.margin, args.confidence)
    manifest = build_manifest(args, [args.ids_file])
    header = {"spec": spec._asdict(), "manifest": manifest}
    lines = [json.dumps(header, sort_keys=True)]
    if ids is not None:
        n = args.size if args.size is not None else spec.computed_n
        lines.extend(sampling.draw_sample(ids, n, args.seed))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    _write_output(args, data, lambda: manifest)
    return 0


def _corpus_command(args: argparse.Namespace, report: Callable[..., object]) -> int:
    """Run a corpus command whose own settings are checked: the model
    settings, the --out check, the table, the ledger, then the corpus rows, streamed into
    report(rows, table, model_config), then the skip line, the unmatched
    ledger warnings and the output. The first fault ends the run, so a bad
    ledger costs no corpus read. A byte-order mark that starts a CSV corpus
    or ledger is dropped."""
    from . import corpus, trend

    model_config = _model_config(args)
    inputs = [args.corpus, args.table, args.overrides]
    _check_out(args, inputs)
    table = _load_table(args)
    ledger = None
    if args.overrides:
        with open(args.overrides, encoding="utf-8-sig", newline="") as stream:
            ledger = corpus.read_override_ledger(stream)
    path, fmt = args.corpus, args.corpus_format
    if fmt == "dblp" or (fmt == "auto" and path.suffix.lower() == ".xml"):
        parse, mode = corpus._parse_dblp, {"mode": "rb"}
    else:
        parse, mode = corpus._parse_csv, {"encoding": "utf-8-sig", "newline": ""}
    result = corpus.CorpusParseResult()
    with open(path, **mode) as stream:
        output = report(parse(stream, args.strict, ledger, result), table, model_config)
    if result.skipped:
        print(f"skipped {result.skipped} malformed entries in "
              f"{ssa._excerpt(path, limit=_PATH_ECHO)}", file=sys.stderr)
    corpus.warn_unmatched(result.unmatched)
    _write_output(args, trend.emit_series(output, args.format),
                  lambda: build_manifest(args, inputs))
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
    return _corpus_command(args, lambda rows, table, model_config: trend.annual_share(
        rows, table, model_config, thresholds, config))


def cmd_bias_report(args: argparse.Namespace) -> int:
    from . import trend

    return _corpus_command(args, lambda rows, table, model_config: trend.present_bias_report(
        rows, table, model_config, args.reference_year))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


_MODE_OPTIONS = "_mode_options"


class _ModeOption(argparse.Action):
    """Store an option that only one mode of its command reads (store_true
    when nargs=0), noting that it was given so the parser can check the mode.
    The mode is the flag that must also be given, or, with reads, a text
    naming the setting for which reads(namespace) is true."""

    def __init__(self, option_strings, dest, mode: str, reads=None, nargs=None, **kwargs):
        flag = mode.lstrip("-").replace("-", "_")
        self.mode = mode
        self.reads = reads or (lambda namespace: getattr(namespace, flag) not in (None, False))
        super().__init__(option_strings, dest, nargs=nargs,
                         const=True if nargs == 0 else None, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        vars(namespace).setdefault(_MODE_OPTIONS, []).append((self, parser))


def _bounded(error: argparse.ArgumentError, value: object) -> argparse.ArgumentError:
    """The error, with its echo of the value cut as ssa._excerpt cuts it."""
    error.message = error.message.replace(repr(value), ssa._excerpt(value))
    return error


class _Parser(argparse.ArgumentParser):
    """Once every argument is parsed, refuse a mode option given outside its
    mode, with the usage of the command that declares it. An error about a
    value that a flag's type or choices refuse shows at most the value's
    first 40 characters, as every other input error does, and so does the
    error about an argument that no flag or command takes."""

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: "
                       + " ".join(ssa._excerpt(extra, quote=False) for extra in extras))
        return namespace

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for action, command in vars(namespace).pop(_MODE_OPTIONS, ()):
            if not action.reads(namespace):
                command.error(f"{action.option_strings[0]} is read only with {action.mode}")
        return namespace, extras

    def _get_value(self, action, arg_string):
        try:
            return super()._get_value(action, arg_string)
        except argparse.ArgumentError as exc:
            raise _bounded(exc, arg_string) from None

    def _check_value(self, action, value):
        try:
            super()._check_value(action, value)
        except argparse.ArgumentError as exc:
            raise _bounded(exc, value) from None


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

    p = sub.add_parser("shifts", parents=[table_args, out_arg], formatter_class=fmt,
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
    p.add_argument("--format", action=_ModeOption,
                   mode="--name, --top or --unstable without --net", reads=lambda a: not a.net,
                   choices=["csv", "json"], default="csv", help="output format for the rows")
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
    p.add_argument("--unknown-value", action=_ModeOption,
                   mode=f"--estimator {ESTIMATORS[0]} without --display-encoding",
                   reads=lambda a: a.estimator == ESTIMATORS[0] and not a.display_encoding,
                   type=float, default=0.5,
                   help="contribution of an unidentified author under weighted-mean")
    p.add_argument("--display-encoding", action=_ModeOption, nargs=0,
                   mode=f"--estimator {ESTIMATORS[0]}",
                   reads=lambda a: a.estimator == ESTIMATORS[0], default=False,
                   help="map classified mentions to 0.95/0.05/0.5 before averaging")
    p.add_argument("--bin-width", type=int, default=1, help="bin width in years")
    p.add_argument("--group-by-venue", action="store_true",
                   help="emit one series per venue")
    classifies = dict(mode=f"--estimator {ESTIMATORS[1]} or --display-encoding",
                      reads=lambda a: a.estimator == ESTIMATORS[1] or a.display_encoding)
    p.add_argument("--tau-female", action=_ModeOption, **classifies, type=float, default=0.8,
                   help="classify Female at or above this p(F)")
    p.add_argument("--tau-male", action=_ModeOption, **classifies, type=float, default=0.2,
                   help="classify Male at or below this p(F)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bias-report", parents=[corpus_args], formatter_class=fmt,
                       help="compare cohort-shifted shares against a static "
                            "reference-year predictor")
    p.add_argument("--reference-year", type=int, required=True,
                   help="year the static predictor pins every lookup to")
    p.set_defaults(func=cmd_bias_report)

    return parser


def _report(exc: ValueError | OSError) -> int:
    """Print the error line that ends a failed run, and give its exit code, 1."""
    message = str(exc)
    if isinstance(exc, OSError) and exc.filename is not None:
        # As OSError words it, with each path cut as ssa._excerpt cuts it.
        paths = (ssa._excerpt(path) for path in (exc.filename, exc.filename2)
                 if path is not None)
        message = f"[Errno {exc.errno}] {exc.strerror}: {' -> '.join(paths)}"
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _report(exc)


def entrypoint() -> None:
    """Run main(), flush stdout and stderr, and end the process at once with
    main()'s exit code: the interpreter's teardown, which frees every object
    the run made, took about a tenth of a short command's CPU time. A stdout
    that cannot be flushed ends the run as a failed write does in a command:
    an error line and exit code 1. A usage error exits through argparse's
    SystemExit, with the teardown."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = _report(exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
