"""Self-tests of the benchmark at a tiny scale: seeded inputs, the reference
against the program, planted malformed entries, and the output contract.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from run import CheckFailed

TINY = 0.005
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    for label, seed in (("a", 1), ("b", 1), ("c", 2)):
        run.build_workload(workload, seed, TINY, tmp_path / label)
    first, again, other = (_files(tmp_path / x) for x in "abc")
    assert first and first == again
    assert first != other


def _bench(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args,
                           "--seed", "3", "--seconds", "0", "--scale", str(TINY)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _results(lines: list[str]) -> dict[str, dict]:
    """Per-workload result and detail lines of a `--workload all` run."""
    out = {}
    for detail, result in zip(lines, lines[1:]):
        if detail.startswith("{") and result.startswith('{"correct"'):
            out[json.loads(detail)["workload"]] = json.loads(result)
    return out


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_program_matches_reference_and_reports_every_metric(trace, kind):
    lines = _bench("--workload", "all", "--trace", trace)
    results = _results(lines)
    assert sorted(results) == sorted(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, (workload, result)
        assert result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == units
        if kind == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


@pytest.mark.parametrize("workload", ["corpus-zipf", "dblp-fixture"])
def test_planted_malformed_entries_are_the_skips(tmp_path, workload):
    nc = run.import_namecohort()
    for seed in range(1, 50):
        w = run.build_workload(workload, seed, TINY, tmp_path / str(seed))
        if w.corpus.malformed:
            break
    assert w.corpus.malformed > 0
    path = w.corpus.path
    if path.suffix == ".xml":
        with open(path, "rb") as stream:
            parsed = nc.corpus.parse_dblp_subset(stream)
    else:
        with open(path, encoding="utf-8", newline="") as stream:
            parsed = nc.corpus.parse_corpus_csv(stream, strict=False)
    assert parsed.skipped == w.corpus.malformed
    assert len(parsed.records) == len(w.corpus.records)
    run.check_skips(f"skipped {parsed.skipped} malformed entries in {path}\n",
                    w.corpus.malformed)
    with pytest.raises(CheckFailed):
        run.check_skips("", w.corpus.malformed)


def test_checks_reject_outputs_that_differ_from_the_reference(tmp_path):
    w = run.build_workload("corpus-zipf", 4, TINY, tmp_path)
    x = run.Expected(w)
    top = "\n".join([run.TOP_HEADER] + [",".join(repr(v) if isinstance(v, float) else v
                                                 for v in row) for row in x.top])
    run.check_rows(top, run.TOP_HEADER, x.top, "top")
    with pytest.raises(CheckFailed):
        run.check_rows(top.replace(",", ",9", 1), run.TOP_HEADER, x.top, "top")
    with pytest.raises(CheckFailed):
        run.check_rows("\n".join(top.splitlines()[:-1]), run.TOP_HEADER, x.top, "top")
    (name, year), want = next(iter(x.pf.items()))
    good = json.dumps(want)
    run.check_pf(good, want)
    with pytest.raises(CheckFailed):
        run.check_pf(good.replace(f'"lookup_year": {want["lookup_year"]}',
                                  f'"lookup_year": {want["lookup_year"] + 1}'), want)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero and prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dblp-fixture",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_needs_ten_samples_beyond():
    assert "p50" not in run.tail([1.0] * 19)
    assert run.tail([float(i) for i in range(20)])["p50"] == 9.0
    assert run.tail([float(i) for i in range(1000)])["p99"] == 989.0
    assert run.tail([2.0, 1.0, 3.0]) == {"median": 2.0, "n": 3, "values": [2.0, 1.0, 3.0]}

