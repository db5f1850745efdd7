"""The traced pass: each CLI command's pipeline driven through the modules'
public functions, with one span per call into a layer.

A span records its name, start, end, parent span and run id. A layer is
the part of a span name before the first dot (``ssa.read_snapshot`` belongs
to ``ssa``); the command spans (``cli.analyze`` and so on) are the parents
of the layer calls made for that command. A hot per-item function is timed
as one bulk span with a count, never one span per item. Spans stay in
memory until the pass ends.
"""

from __future__ import annotations

import io
import json
import random
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, count: int | None = None):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": perf_counter(), "end": None, "count": count}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's self time: its duration minus its children's.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and their durations add up to the time they cover.
    """
    own = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


class TracedPass:
    """One traced run of every command of a workload, plus the probes.

    ``w`` is the workload's inputs (see run.Workload); ``nc`` is the
    imported ``namecohort`` package with its submodules.
    """

    def __init__(self, tracer: Tracer, w, nc):
        self.t = tracer
        self.w = w
        self.nc = nc
        self.table = None      # the table the last command loaded
        self.records = []      # the corpus records the last command parsed
        self.counts: dict[str, float] = {}
        self.outputs: dict[str, bytes] = {}

    # ---- table ------------------------------------------------------------

    def _load_table(self):
        ssa = self.nc.ssa
        if self.w.uses_snapshot:
            with self.t.span("ssa.read_snapshot"):
                self.table = ssa.read_snapshot(self.w.snapshot)
        else:
            ssa.load_fixture.cache_clear()  # each CLI process loads it afresh
            with self.t.span("ssa.load_fixture"):
                self.table = ssa.load_fixture()
        return self.table

    def ingest(self, out: Path) -> None:
        ssa, cli = self.nc.ssa, self.nc.cli
        with self.t.span("cli.ingest"):
            args = cli.build_parser().parse_args(["ingest", str(self.w.year_dir),
                                                  "--out", str(out)])
            year_files = list(ssa.iter_year_files(self.w.year_dir))
            with self.t.span("ssa.parse_year_files") as span:
                records = []
                for year, path in year_files:
                    with open(path, encoding="utf-8") as stream:
                        records.extend(ssa.parse_year_file(stream, year, str(path)))
                span["count"] = len(records)
            with self.t.span("ssa.build_table"):
                table = ssa.build_table(records)
            with self.t.span("ssa.write_snapshot"):
                ssa.write_snapshot(table, out)
            with self.t.span("cli.build_manifest"):
                cli.build_manifest(args, [p for _, p in year_files])
        self.counts.update({"ssa.rows": len(records), "ssa.entries": len(table),
                            "ssa.names": len(table.names()),
                            "ssa.snapshot_bytes": out.stat().st_size})

    def pf(self, name: str, pub_year: int) -> dict:
        model, cli = self.nc.model, self.nc.cli
        with self.t.span("cli.pf"):
            args = cli.build_parser().parse_args(["pf", name, "--pub-year", str(pub_year)]
                                                 + self.w.table_args)
            table = self._load_table()
            with self.t.span("model.shifted_lookup", count=1):
                est = model.shifted_lookup(table, name, pub_year, model.ModelConfig())
            with self.t.span("cli.build_manifest"):
                cli.build_manifest(args, [args.table])
        return {"p_female": est.p_female, "female_count": est.female_count,
                "male_count": est.male_count, "lookup_year": est.lookup_year,
                "fallback_distance": est.fallback_distance}

    def shifts_top(self):
        shifts, cli = self.nc.shifts, self.nc.cli
        with self.t.span("cli.shifts_top"):
            args = cli.build_parser().parse_args(
                ["shifts", "--from", "1925", "--to", "1975", "--top", "24",
                 "--weighted"] + self.w.table_args)
            table = self._load_table()
            with self.t.span("shifts.top_shift_names", count=len(table.names())):
                records = shifts.top_shift_names(table, 1925, 1975, k=24, weighted=True)
            with self.t.span("cli.build_manifest"):
                cli.build_manifest(args, [args.table])
        self.counts["shifts.names_scanned"] = len(table.names())
        return records

    def shifts_unstable(self):
        shifts, cli = self.nc.shifts, self.nc.cli
        with self.t.span("cli.shifts_unstable"):
            args = cli.build_parser().parse_args(
                ["shifts", "--from", "1925", "--to", "1975", "--unstable", "--net"]
                + self.w.table_args)
            table = self._load_table()
            with self.t.span("shifts.find_unstable", count=len(table.names())):
                names = shifts.find_unstable(table, shifts.InstabilityConfig())
            with self.t.span("shifts.gender_shift", count=len(names)):
                records = []
                for name in names:
                    try:
                        records.append(shifts.gender_shift(table, name, 1925, 1975))
                    except shifts.EndpointMissingError:
                        pass
            kept = [r.name for r in records]
            with self.t.span("shifts.net_female_shift", count=len(kept)):
                net = shifts.net_female_shift(table, kept, 1925, 1975)
            with self.t.span("cli.build_manifest"):
                cli.build_manifest(args, [args.table])
        self.counts["shifts.unstable_names"] = len(names)
        return kept, net

    # ---- corpus -----------------------------------------------------------

    def _parse_corpus(self):
        corpus = self.nc.corpus
        path = self.w.corpus.path
        if path.suffix == ".xml":
            with self.t.span("corpus.parse_dblp") as span, open(path, "rb") as stream:
                result = corpus.parse_dblp_subset(stream)
                span["count"] = path.stat().st_size
        else:
            with self.t.span("corpus.parse_csv") as span, \
                    open(path, encoding="utf-8", newline="") as stream:
                result = corpus.parse_corpus_csv(stream, strict=False)
                span["count"] = len(result.records)
        return result

    def _apply_ledger(self, records, ledger_path: Path):
        corpus = self.nc.corpus
        with self.t.span("corpus.apply_overrides", count=len(records)):
            with open(ledger_path, encoding="utf-8", newline="") as stream:
                ledger = corpus.read_override_ledger(stream)
            return corpus.apply_overrides(records, ledger)

    def _corpus_command(self, key: str, argv: list[str], ledger: Path | None):
        cli, trend, model = self.nc.cli, self.nc.trend, self.nc.model
        with self.t.span(f"cli.{key}"):
            args = cli.build_parser().parse_args(argv + self.w.table_args)
            table = self._load_table()
            result = self._parse_corpus()
            records = result.records
            if ledger is not None:
                records = self._apply_ledger(records, ledger)
            if key == "bias_report":
                with self.t.span("trend.present_bias_report"):
                    series = trend.present_bias_report(records, table, model.ModelConfig(),
                                                       reference_year=2000)
            else:
                config = trend.EstimatorConfig(estimator=trend.Estimator(args.estimator))
                name = "trend.annual_share" + ("_classified" if key.endswith("classified")
                                               else "")
                with self.t.span(name):
                    series = trend.annual_share(records, table, model.ModelConfig(),
                                                model.Thresholds(), config)
            with self.t.span("trend.emit_series"):
                data = trend.emit_series(series, "csv")
            inputs = [Path(args.corpus), args.table,
                      Path(args.overrides) if args.overrides else None]
            with self.t.span("cli.build_manifest"):
                cli.build_manifest(args, inputs)
        self.outputs[key] = data
        return result, records

    def corpus_commands(self) -> None:
        corpus = str(self.w.corpus.path)
        ledger = self.w.corpus.ledger_path
        result, records = self._corpus_command(
            "analyze", ["analyze", "--corpus", corpus]
            + (["--overrides", str(ledger)] if ledger else []), ledger)
        self._corpus_command("analyze_classified",
                             ["analyze", "--corpus", corpus,
                              "--estimator", "classified-share"], None)
        self._corpus_command("bias_report", ["bias-report", "--corpus", corpus,
                                             "--reference-year", "2000"], None)
        mentions = [m for r in records for m in r.authors]
        self.counts.update({
            "corpus.records": len(result.records),
            "corpus.mentions": len(mentions),
            "corpus.skipped": result.skipped,
            "corpus.initial_only": sum(m.first_name is None for m in mentions),
            "corpus.overrides_matched": sum(m.override_gender is not None
                                            for m in mentions),
        })
        self.records = result.records

    # ---- probes: layer stages outside the commands' own pipelines ---------

    def probes(self, snapshot: Path, rng: random.Random) -> None:
        """Stages a workload's commands do not reach run on that workload's
        input of their kind (the snapshot its ingest wrote, its corpus),
        or on empty input when it has none, so every layer metric is a
        measurement on every workload."""
        nc, t = self.nc, self.t
        ssa, corpus, names, model, sampling = (nc.ssa, nc.corpus, nc.names,
                                               nc.model, nc.sampling)
        if self.w.uses_snapshot:
            ssa.load_fixture.cache_clear()
            with t.span("ssa.load_fixture"):
                ssa.load_fixture()
        else:
            with t.span("ssa.read_snapshot"):
                ssa.read_snapshot(snapshot)
        if self.w.corpus.path.suffix == ".xml":
            with t.span("corpus.parse_csv"):
                corpus.parse_corpus_csv(io.StringIO(",".join(corpus.CSV_HEADER) + "\n"),
                                        strict=False)
        else:
            with t.span("corpus.parse_dblp", count=0):
                corpus.parse_dblp_subset(io.BytesIO(b""))
        if self.w.corpus.ledger_path is None:
            empty = io.StringIO(",".join(corpus.LEDGER_HEADER) + "\n")
            with t.span("corpus.apply_overrides", count=len(self.records)):
                corpus.apply_overrides(self.records, corpus.read_override_ledger(empty))

        raws = [m.raw for r in self.records for m in r.authors]
        with t.span("names.extract_first_name", count=len(raws)):
            for raw in raws:
                names.extract_first_name(raw)
        with t.span("names.normalize_full_name", count=len(raws)):
            for raw in raws:
                names.normalize_full_name(raw)

        table = self.table
        keys = [(m.first_name, r.publication_year) for r in self.records
                for m in r.authors if m.first_name is not None]
        config = model.ModelConfig()
        with t.span("model.resolve", count=len(keys)):
            estimates = [model.shifted_lookup(table, n, y, config) for n, y in keys]
        first = table.year_range[0]
        outcome = {"exact": 0, "fallback": 0, "clamped": 0, "unknown": 0}
        for (_, year), est in zip(keys, estimates):
            if not est.known:
                outcome["unknown"] += 1
            elif year - config.year_shift < first:
                outcome["clamped"] += 1
            else:
                outcome["exact" if est.fallback_distance == 0 else "fallback"] += 1
        distinct = len(set(keys))
        self.counts.update({f"model.{k}": v for k, v in outcome.items()})
        self.counts.update({"model.mentions_resolved": len(keys),
                            "model.distinct_keys": distinct,
                            "model.key_reuse": len(keys) / distinct if distinct else 0.0})
        self._p_female_probe(table, keys, rng)

        with t.span("sampling.dedup_authors", count=len(raws)):
            ids = sampling.dedup_authors(raws)
        n = sampling.sample_size(max(1, len(ids))).computed_n if ids else 0
        with t.span("sampling.draw_sample", count=min(n, len(ids))):
            sampling.draw_sample(ids, min(n, len(ids)), seed=7)

    def _p_female_probe(self, table, mention_keys, rng: random.Random) -> None:
        """Per-call p_female time by outcome, over sampled lookup keys: the
        corpus's cohort keys and every name at both shift endpoints."""
        model = self.nc.model
        keys = {(n, max(y - 30, table.year_range[0])) for n, y in mention_keys}
        keys.update((n, y) for n in table.names() for y in (1925, 1975))
        groups: dict[str, list] = {"exact": [], "fallback": [], "unknown": []}
        for name, year in sorted(keys):
            if table.counts(name, year) is not None:
                groups["exact"].append((name, year))
            elif model.p_female(table, name, year).known:
                groups["fallback"].append((name, year))
            else:
                groups["unknown"].append((name, year))
        for kind, pool in groups.items():
            sample = rng.sample(pool, min(2000, len(pool)))
            with self.t.span(f"model.p_female_{kind}", count=len(sample)):
                for name, year in sample:
                    model.p_female(table, name, year)


SPAN_METRICS = [
    "ssa.parse_year_files", "ssa.build_table", "ssa.write_snapshot",
    "ssa.read_snapshot", "ssa.load_fixture",
    "names.extract_first_name", "names.normalize_full_name",
    "corpus.parse_csv", "corpus.apply_overrides", "corpus.parse_dblp",
    "model.resolve",
    "trend.annual_share", "trend.annual_share_classified",
    "trend.present_bias_report", "trend.emit_series",
    "shifts.top_shift_names", "shifts.find_unstable", "shifts.net_female_shift",
    "sampling.dedup_authors", "sampling.draw_sample",
    "cli.build_manifest",
]
LAYERS = ["ssa", "names", "corpus", "model", "shifts", "sampling", "trend", "cli"]
COMMANDS = ["ingest", "pf", "shifts_top", "shifts_unstable", "analyze",
            "analyze_classified", "bias_report"]


def layer_metrics(spans: list[dict], passes: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics from the spans of all passes.

    A span metric is the median duration of that span over every call in
    every pass. p_female per-call means and self times are per pass, then
    the median over passes.
    """
    out: dict[str, float] = {}
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(duration(s))
    for name in SPAN_METRICS:
        out[f"{name}_s"] = statistics.median(by_name.get(name, [0.0]))
    dblp = [s for s in spans if s["name"] == "corpus.parse_dblp"]
    out["corpus.dblp_mb_per_s"] = statistics.median(
        (s["count"] or 0) / 1e6 / duration(s) for s in dblp)
    own = self_times(spans)
    per_pass: dict[str, list[float]] = {}
    for lo, hi in passes:
        totals: dict[str, float] = {}
        calls: dict[str, list[float]] = {}
        for s, t in zip(spans[lo:hi], own[lo:hi]):
            layer = s["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + t
            if s["name"].startswith("model.p_female_"):
                slot = calls.setdefault(s["name"], [0.0, 0])
                slot[0] += duration(s)
                slot[1] += s["count"]
        for layer in LAYERS:
            per_pass.setdefault(f"{layer}.self_s", []).append(totals.get(layer, 0.0))
        for name, (total, count) in calls.items():
            per_pass.setdefault(f"{name}_us", []).append(total * 1e6 / max(1, count))
    for name, values in per_pass.items():
        out[name] = statistics.median(values)
    return out


def command_totals(spans: list[dict], lo: int, hi: int) -> dict[str, float]:
    """Summed duration of each command's root span within one pass."""
    out: dict[str, float] = {}
    for s in spans[lo:hi]:
        if s["parent"] is None and s["name"].startswith("cli.") \
                and s["name"][4:] in COMMANDS:
            out[s["name"][4:]] = out.get(s["name"][4:], 0.0) + duration(s)
    return out
