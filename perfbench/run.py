"""Seeded end-to-end benchmark of the namecohort CLI, with a traced per-layer pass.

    python3 perfbench/run.py --workload corpus-zipf --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

One client runs CLI commands one after another (a closed loop) as
subprocesses of this process, against inputs generated from --seed under a
work directory in the checkout. Every output is checked against the
brute-force reference in reference.py. With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics: for each command, the
median over the run of its CPU time (user plus system, from os.wait4)
relative to the yardstick runs on either side of it, in seconds at the
yardstick's reference speed (see e2e_pass), and the peak RSS read from the
same rusage. With --trace 1 the same pipelines run in-process through the
modules' public functions with spans recorded (spans.py), and the last line
carries the per-layer metrics. The line before the last gives each
metric's wall and CPU samples, medians, sample counts and tail
percentiles, the yardstick's samples, the failure ratio and the machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import generate
import reference
from generate import Corpus, Table
from reference import Truth

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE_DIR = SRC / "namecohort" / "data" / "ssa_fixture"

WORKLOADS = ("corpus-zipf", "dblp-fixture")
# At 0.03 of the ROADMAP's real shape every command takes about a
# second, so a 55-second loop samples each one about ten times or more.
DEFAULT_SCALE = 0.03
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s", "pf_s": "s", "shifts_top_s": "s", "shifts_unstable_s": "s",
    "analyze_s": "s", "analyze_classified_s": "s", "bias_report_s": "s",
    "peak_rss_mb": "MB",
}
PF_OUTCOMES = ("exact", "fallback", "clamped", "unknown")
YARDSTICK_S = 0.15
YARDSTICK_OUT = b"15000 8998.0\n"
SHIFT_ARGS = ["--from", "1925", "--to", "1975"]


# --------------------------------------------------------------------------
# Workload inputs
# --------------------------------------------------------------------------

@dataclass
class Workload:
    year_dir: Path
    table: Table
    truth: Truth
    snapshot: Path
    uses_snapshot: bool
    corpus: Corpus
    pf_queries: dict[str, list[tuple[str, int]]]

    @property
    def table_args(self) -> list[str]:
        return ["--table", str(self.snapshot)] if self.uses_snapshot else []


def build_workload(name: str, seed: int, scale: float, work: Path) -> Workload:
    """Generate the workload's inputs from the seed and its ground truth."""
    rng = random.Random(f"{name}:{seed}")
    sizes = generate.scaled(scale)
    work.mkdir(parents=True, exist_ok=True)
    if name == "dblp-fixture":
        year_dir = FIXTURE_DIR
        table = generate.read_year_files(FIXTURE_DIR)
        corpus = generate.generate_dblp_corpus(rng, table, sizes["records"],
                                               sizes["unknown_pool"], work / "dblp.xml")
    else:
        year_dir = work / "names"
        table = generate.generate_table(rng, sizes["names"], year_dir)
        corpus = generate.generate_csv_corpus(rng, table, sizes["records"], sizes["ledger"],
                                              work / "pubs.csv", work / "ledger.csv")
    truth = Truth(table)
    return Workload(year_dir=year_dir, table=table, truth=truth,
                    snapshot=work / "table.csv", uses_snapshot=name != "dblp-fixture",
                    corpus=corpus, pf_queries=pf_queries(truth, rng))


def pf_queries(truth: Truth, rng: random.Random, n: int = 8) -> dict[str, list]:
    """n (name, publication year) lookups of each outcome; unknown ones use
    names absent from the table."""
    names = sorted(truth.by_name)
    found: dict[str, list] = {kind: [] for kind in PF_OUTCOMES}
    found["unknown"] = [(w, rng.randint(1950, 2023))
                        for w in generate.unique_words(rng, n, set(names))]
    lo = truth.first_year + reference.SHIFT - 25
    for _ in range(200_000):
        if all(len(v) >= n for v in found.values()):
            break
        name = rng.choice(names)
        pub = rng.randint(lo, generate.LAST_YEAR)
        kind = truth.outcome(name, pub)
        if kind != "unknown" and len(found[kind]) < n:
            found[kind].append((name, pub))
    return found


# --------------------------------------------------------------------------
# Running and checking CLI commands
# --------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_rows(text: str, header: str, expected: list[tuple], what: str) -> None:
    """CSV rows of an analyze, bias-report or shifts output against the
    reference rows; names and integers exactly, floats to 1e-9."""
    lines = text.splitlines()
    _expect(bool(lines) and lines[0] == header, f"{what}: header {lines[:1]}")
    _expect(len(lines) - 1 == len(expected),
            f"{what}: {len(lines) - 1} rows, reference has {len(expected)}")
    for line, want in zip(lines[1:], expected):
        cells = line.split(",")
        _expect(len(cells) == len(want), f"{what}: row {line!r}, reference {want!r}")
        for cell, value in zip(cells, want):
            if isinstance(value, str):
                ok = cell == value
            elif isinstance(value, int):
                ok = cell == str(value)
            else:
                ok = _close(_float(cell), value)
            _expect(ok, f"{what}: row {line!r}, reference {want!r}")


def check_pf(text: str, want: dict) -> None:
    got = json.loads(text)
    _expect(set(got) == set(want), f"pf: keys {sorted(got)}")
    for key, value in want.items():
        ok = _close(got[key], value) if key == "p_female" else got[key] == value
        _expect(ok, f"pf {want['name']} {want['publication_year']}: {key}="
                    f"{got[key]!r}, reference {value!r}")


def check_unstable(text: str, want: dict) -> None:
    got = json.loads(text)
    _expect(got["names"] == want["names"] and got["from_year"] == want["from_year"]
            and got["to_year"] == want["to_year"], "unstable: names differ")
    _expect(_close(got["net_female_shift"], want["net_female_shift"]),
            f"unstable: net {got['net_female_shift']!r}, "
            f"reference {want['net_female_shift']!r}")


def check_skips(stderr: str, planted: int) -> None:
    """The lenient parser must skip exactly the malformed entries planted."""
    skipped = 0
    for line in stderr.splitlines():
        if line.startswith("skipped ") and " malformed entries in " in line:
            skipped = int(line.split()[1])
    _expect(skipped == planted, f"skipped {skipped} entries, {planted} planted")


class Expected:
    """Every answer the workload's commands must give, from the reference."""

    def __init__(self, w: Workload):
        t = w.truth
        self.pf = {(n, y): reference.pf(t, n, y)
                   for queries in w.pf_queries.values() for n, y in queries}
        self.top = reference.top_shifts(t, 1925, 1975, 24, weighted=True)
        self.unstable = reference.unstable_net(t, 1925, 1975)
        ledger = w.corpus.ledger
        self.analyze = reference.analyze(t, w.corpus, ledger, classified=False)
        self.classified = reference.analyze(t, w.corpus, [], classified=True)
        self.bias = reference.bias_report(t, w.corpus, 2000)
        self.ingest = (f"ingested {w.table.files} year files: years "
                       f"{t.first_year}-{t.last_year}, {len(t.by_name)} names, "
                       f"{len(t.counts)} entries")


ANALYZE_HEADER = "bin,share_female,n_authors,n_identified,n_unidentified,estimator"
BIAS_HEADER = "bin,temporal_share,static_share,gap"
TOP_HEADER = "name,p_start,p_end,delta,weight"


def commands(w: Workload, x: Expected) -> dict[str, tuple[list[str], object]]:
    """metric -> (CLI arguments, check(stdout, stderr)) for one loop cycle,
    except pf, whose lookups rotate (see pf_command)."""
    corpus = str(w.corpus.path)
    ledger = w.corpus.ledger_path
    planted = w.corpus.malformed

    def series(expected, header, label, est=None):
        rows = [(*r, est) for r in expected] if est else expected

        def check(out, err):
            check_skips(err, planted)
            check_rows(out, header, rows, label)
        return check

    return {
        "shifts_top_s": (["shifts", *SHIFT_ARGS, "--top", "24", "--weighted"]
                         + w.table_args,
                         lambda out, err: check_rows(out, TOP_HEADER, x.top, "shifts --top")),
        "shifts_unstable_s": (["shifts", *SHIFT_ARGS, "--unstable", "--net"] + w.table_args,
                              lambda out, err: check_unstable(out, x.unstable)),
        "analyze_s": (["analyze", "--corpus", corpus] + w.table_args
                      + (["--overrides", str(ledger)] if ledger else []),
                      series(x.analyze, ANALYZE_HEADER, "analyze", "weighted-mean")),
        "analyze_classified_s": (["analyze", "--corpus", corpus, "--estimator",
                                  "classified-share"] + w.table_args,
                                 series(x.classified, ANALYZE_HEADER,
                                        "analyze classified", "classified-share")),
        "bias_report_s": (["bias-report", "--corpus", corpus, "--reference-year", "2000"]
                          + w.table_args, series(x.bias, BIAS_HEADER, "bias-report")),
    }


def pf_command(w: Workload, x: Expected, n: int):
    """The n-th pf lookup: outcomes rotate exact, fallback, clamped, unknown."""
    queries = w.pf_queries[PF_OUTCOMES[n % len(PF_OUTCOMES)]]
    name, year = queries[n // len(PF_OUTCOMES) % len(queries)]
    return (["pf", name.capitalize(), "--pub-year", str(year)] + w.table_args,
            lambda out, err: check_pf(out, x.pf[(name, year)]))


def ingest_command(w: Workload, x: Expected, snapshot: Path):
    def check(out, err):
        _expect(out.strip() == x.ingest, f"ingest: {out.strip()!r}, reference {x.ingest!r}")
        _expect(snapshot.is_file(), "ingest wrote no snapshot")
    return ["ingest", str(w.year_dir), "--out", str(snapshot)], check


class Cli:
    """Runs `python -m namecohort.cli` from the checkout's src/, one process
    at a time, timing each and reading its peak RSS from os.wait4."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: dict[str, list[float]] = {}
        self.cpu_samples: dict[str, list[float]] = {}
        self.yardstick_samples: list[float] = []
        self.ratios: dict[str, list[float]] = {}
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, metric: str, argv: list[str], check=None) -> tuple[float, str, float] | None:
        """Run one command; record its wall and CPU times under metric unless
        it fails. Returns (wall time, stdout, CPU time)."""
        self.attempted += 1
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        timeout = max(1.0, self.deadline - perf_counter())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "namecohort.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.work, env=self.env)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        try:
            _expect(proc.returncode == 0, f"exit {proc.returncode}: {stderr[-300:]!r}")
            _expect("Traceback" not in stderr, f"traceback: {stderr[-300:]!r}")
            if check is not None:
                check(stdout, stderr)
        except (CheckFailed, ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"{metric} {' '.join(argv[:2])}: {exc}")
            return None
        cpu = usage.ru_utime + usage.ru_stime
        self.samples.setdefault(metric, []).append(wall)
        self.cpu_samples.setdefault(metric, []).append(cpu)
        return wall, stdout, cpu

    def yardstick(self) -> float:
        """CPU time of one run of yardstick.py, which does the same work on
        every machine and run. It is not an operation of the program: it
        counts in neither `attempted` nor the peak RSS."""
        proc = subprocess.Popen([sys.executable, str(BENCH / "yardstick.py")],
                                stdout=subprocess.PIPE, cwd=self.work)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.stdout.close()
        if os.waitstatus_to_exitcode(status) != 0 or out != YARDSTICK_OUT:
            raise RuntimeError(f"yardstick.py failed: {out!r}")
        cpu = usage.ru_utime + usage.ru_stime
        self.yardstick_samples.append(cpu)
        return cpu

    def out_of_time(self) -> bool:
        return perf_counter() > self.deadline


def tail(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (nearest rank), when there is one."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "values": values}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = ordered[max(0, math.ceil(pct / 100 * n) - 1)]
            break
    return out


# --------------------------------------------------------------------------
# The two passes
# --------------------------------------------------------------------------

def startup(cli: Cli, repeats: int) -> list[float]:
    """`namecohort --version`: the interpreter and import floor under every
    command. The first calls also fill the bytecode cache."""
    times = []
    for _ in range(repeats):
        result = cli.run("cli.startup_s", ["--version"])
        if result:
            times.append(result[0])
    return times


def e2e_pass(cli: Cli, w: Workload, x: Expected, seconds: float) -> dict[str, float]:
    startup(cli, 2)
    cli.samples.pop("cli.startup_s", None)
    cli.cpu_samples.pop("cli.startup_s", None)
    cli.run("setup_s", *ingest_command(w, x, w.snapshot))
    # Set-up repeats inside the loop, into a second snapshot, so that its
    # samples spread over the window like every other command's.
    cycle = ([("setup_s", ingest_command(w, x, w.snapshot.with_name("again.csv")))]
             + [("pf_s", None)] * 2 + list(commands(w, x).items()))
    end = perf_counter() + seconds
    # One full cycle at least, then stop at the first command due after the
    # window closes, so a run overshoots the window by at most one command.
    i = lookups = 0
    # Each command does the same work every time. Its wall time also counts
    # the time its process waited for a CPU; its CPU time does not, but the
    # host's speed moves it by up to 1.5x, in phases of about a second whose
    # mix shifts over minutes. So every command runs between two runs of
    # the yardstick, and its CPU time is taken relative to their mean; the
    # median ratio over the run is given in seconds at the speed at which
    # the yardstick takes YARDSTICK_S.
    before = cli.yardstick()
    while not cli.out_of_time() and (i < len(cycle) or perf_counter() < end):
        metric, what = cycle[i % len(cycle)]
        if metric == "pf_s":
            what = pf_command(w, x, lookups)
            lookups += 1
        result = cli.run(metric, *what)
        after = cli.yardstick()
        if result:
            cli.ratios.setdefault(metric, []).append(2 * result[2] / (before + after))
        before = after
        i += 1
    metrics = {m: statistics.median(cli.ratios[m]) * YARDSTICK_S
               for m in END_TO_END if m in cli.ratios}
    metrics["peak_rss_mb"] = cli.peak_rss_mb
    return metrics


def import_namecohort():
    sys.path.insert(0, str(SRC))
    # unmatched-override warnings are expected on the generated ledgers
    logging.getLogger("namecohort").addHandler(logging.NullHandler())
    import namecohort
    from namecohort import cli, corpus, model, names, sampling, shifts, ssa, trend
    if Path(namecohort.__file__).resolve().parent != (SRC / "namecohort").resolve():
        raise ImportError(f"namecohort imported from {namecohort.__file__}, not {SRC}")
    for module in (cli, corpus, model, names, sampling, shifts, ssa, trend):
        setattr(namecohort, module.__name__.rsplit(".", 1)[1], module)
    return namecohort


def trace_pass(cli: Cli, w: Workload, x: Expected, seconds: float,
               work: Path, run_id: str) -> dict[str, float]:
    """Untraced CLI commands once each, then traced in-process passes of the
    same pipelines until the time is up. Returns the per-layer metrics."""
    import spans as sp

    nc = import_namecohort()
    startup_s = statistics.median(startup(cli, 5))
    cli.run("setup_s", *ingest_command(w, x, w.snapshot))
    cli_walls: dict[str, float] = {"ingest": statistics.median(cli.samples["setup_s"])}
    cli_out: dict[str, str] = {}
    for n in range(len(PF_OUTCOMES)):
        result = cli.run("pf_s", *pf_command(w, x, n))
        cli_walls["pf"] = cli_walls.get("pf", 0.0) + (result[0] if result else 0.0)
    for metric, (argv, check) in commands(w, x).items():
        result = cli.run(metric, argv, check)
        key = metric[:-2]
        cli_walls[key] = result[0] if result else 0.0
        cli_out[key] = result[1] if result else ""

    # The generated inputs and their truth stay alive for the whole run; keep
    # them out of the collector's way so they do not slow the traced calls.
    gc.freeze()
    tracer = sp.Tracer(run_id)
    rng = random.Random(run_id)
    passes: list[tuple[int, int]] = []
    overheads: list[float] = []
    end = perf_counter() + seconds
    counts: dict[str, float] = {}
    while not cli.out_of_time():
        lo = len(tracer.spans)
        tp = sp.TracedPass(tracer, w, nc)
        tp.ingest(work / "traced_table.csv")
        for kind in PF_OUTCOMES:
            name, year = w.pf_queries[kind][0]
            got = tp.pf(name.capitalize(), year)
            want = x.pf[(name, year)]
            traced_check(cli, f"traced pf {name}", all(
                _close(got[k], want[k]) if k == "p_female" else got[k] == want[k]
                for k in got))
        top = tp.shifts_top()
        traced_check(cli, "traced shifts --top", [r.name for r in top]
                     == [r[0] for r in x.top])
        kept, net = tp.shifts_unstable()
        traced_check(cli, "traced shifts --unstable", kept == x.unstable["names"]
                     and _close(net, x.unstable["net_female_shift"]))
        tp.corpus_commands()
        for key, data in tp.outputs.items():
            traced_check(cli, f"traced {key}", data.decode("utf-8") == cli_out.get(key))
        tp.probes(work / "traced_table.csv", rng)
        hi = len(tracer.spans)
        passes.append((lo, hi))
        totals = sp.command_totals(tracer.spans, lo, hi)
        overheads.append(sum(totals[c] - (cli_walls[c] - startup_s * (4 if c == "pf" else 1))
                             for c in totals))
        counts = tp.counts
        if perf_counter() >= end:
            break
    traced_check(cli, "traced corpus counts", (
        counts["corpus.records"], counts["corpus.skipped"], counts["corpus.overrides_matched"])
        == (len(w.corpus.records), w.corpus.malformed,
            reference.overrides_matched(w.corpus, w.corpus.ledger)))
    tracer.write(ROOT / ".perfbench_out" / f"spans-{run_id}.json")
    metrics = sp.layer_metrics(tracer.spans, passes)
    metrics.update(counts)
    metrics["cli.startup_s"] = startup_s
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.spans_per_pass"] = (passes[-1][1] - passes[-1][0]) if passes else 0
    return metrics


def traced_check(cli: Cli, what: str, ok: bool) -> None:
    cli.attempted += 1
    if not ok:
        cli.failures.append(f"{what}: differs from the reference")


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> tuple[dict, dict]:
    """One run; returns (result line, detail line)."""
    started = perf_counter()
    run_id = f"{name}-seed{seed}-trace{int(trace)}"
    work = ROOT / ".perfbench_work" / f"{run_id}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        w = build_workload(name, seed, scale, work)
        x = Expected(w)
        cli = Cli(work, started + RUN_LIMIT_S)
        if trace:
            values = trace_pass(cli, w, x, seconds, work, run_id)
            units = per_layer_units()
        else:
            values = e2e_pass(cli, w, x, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        cli.failures.append(f"metrics not measured: {missing}")
    metrics = {m: {"value": values.get(m, 0.0), "unit": unit} for m, unit in units.items()}
    failed = len(cli.failures)
    result = {"correct": failed == 0, "attempted": cli.attempted, "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "scale": scale,
        "sizes": generate.scaled(scale), "python": platform.python_version(),
        "nproc": os.cpu_count(), "wall_s": perf_counter() - started,
        "fail_ratio": failed / max(1, cli.attempted),
        "samples": {m: tail(v) for m, v in cli.samples.items()},
        "cpu_samples": {m: tail(v) for m, v in cli.cpu_samples.items()},
        "yardstick_cpu": tail(cli.yardstick_samples) if cli.yardstick_samples else None,
        "ratios": cli.ratios,
        "failures": cli.failures[:10],
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="input size relative to the real shape (1.0: about "
                             "2M name rows, 600k author mentions)")
    args = parser.parse_args(argv)
    if not (SRC / "namecohort" / "cli.py").is_file():
        print(f"error: no namecohort source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      args.scale)
        print(json.dumps(detail, sort_keys=True))
        if args.workload == "all":
            print(json.dumps(result))
            for metric, value in result["metrics"].items():
                print(f"{name:14} {metric:34} {value['value']:.6g} {value['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {(f"{name}.{m}" if args.workload == "all" else m): v
             for m, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
