"""Seeded malformed-input fuzz of the corpus CSV and the override ledger.

Valid files are truncated, have single bytes flipped, have `,`, `|`, `"`
and line breaks injected, and have one cell made larger than the csv
module's field size limit. Parsing the mutated text may raise only
CorpusFormatError, and `namecohort analyze` on the mutated file must exit 0
or 1, never with a traceback.
"""

from __future__ import annotations

import csv
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import namecohort as nc
from namecohort.cli import main
from namecohort.corpus import CorpusFormatError
from test_names import ledger_csv, random_author, random_ledger

OVERSIZED = csv.field_size_limit() + 1


def corpus_csv(rng: random.Random, pool: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["record_id", "venue", "year", "authors"])
    writer.writerows([f"r{i}", rng.choice(["SIGX", "Conf, A"]), rng.randint(1950, 2010),
                      "|".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))]
                     for i in range(30))
    return buffer.getvalue()


def inputs(seed: int) -> tuple[bytes, bytes]:
    """A valid corpus CSV and a valid ledger over the same authors."""
    rng = random.Random(seed)
    pool = [author for author in (random_author(rng) for _ in range(40))
            if author.strip() and "|" not in author]
    return (corpus_csv(rng, pool).encode("utf-8"),
            ledger_csv(random_ledger(rng, pool)).encode("utf-8"))


CSV_JUNK = (b",", b"|", b'"', b"\n", b"\r", b"\r\n", b'",', b'"\n')


def mutations(data: bytes, rng: random.Random, count: int, junk: tuple[bytes, ...] = CSV_JUNK):
    """Mutated copies of data: truncations, byte flips, injected junk (by
    default delimiters, quotes and line breaks), a repeated line, and one
    oversized cell."""
    for _ in range(count):
        at = rng.randrange(len(data))
        yield data[:at]
        flip = rng.randrange(len(data))
        yield data[:flip] + bytes([data[flip] ^ rng.randrange(1, 256)]) + data[flip + 1:]
        yield data[:at] + rng.choice(junk) + data[at:]
    lines = data.splitlines(keepends=True)
    yield b"".join(lines + lines[-1:])
    at = rng.randrange(len(lines[0]), len(data) + 1)
    yield data[:at] + b"x" * OVERSIZED + data[at:]


def parsed_or_rejected(parse, data: bytes):
    """parse() of the decoded text, or None when it raises CorpusFormatError."""
    try:
        return parse(io.StringIO(data.decode("utf-8", errors="replace"), newline=""))
    except CorpusFormatError:
        return None


def test_mutated_corpus_and_ledger_raise_only_corpus_format_error():
    outcomes = []
    for seed in range(6):
        corpus_bytes, ledger_bytes = inputs(seed)
        ledger = parsed_or_rejected(nc.read_override_ledger, ledger_bytes)
        records = parsed_or_rejected(nc.parse_corpus_csv, corpus_bytes).records
        rng = random.Random(seed)
        for data in mutations(corpus_bytes, rng, 40):
            for strict in (True, False):
                result = parsed_or_rejected(
                    lambda stream: nc.parse_corpus_csv(stream, strict), data)
                outcomes.append(result is None)
                if result is not None:
                    nc.apply_overrides(result.records, ledger)
        for data in mutations(ledger_bytes, rng, 40):
            mutated = parsed_or_rejected(nc.read_override_ledger, data)
            outcomes.append(mutated is None)
            if mutated is not None:
                nc.apply_overrides(records, mutated)
    assert set(outcomes) == {False, True}


@pytest.mark.parametrize("seed", range(3))
def test_analyze_on_mutated_files_exits_0_or_1(tmp_path, capsys, seed):
    corpus_bytes, ledger_bytes = inputs(seed)
    corpus, ledger = tmp_path / "corpus.csv", tmp_path / "ledger.csv"
    rng = random.Random(100 + seed)
    codes = set()
    for target, original in ((corpus, corpus_bytes), (ledger, ledger_bytes)):
        for data in mutations(original, rng, 15):
            corpus.write_bytes(corpus_bytes)
            ledger.write_bytes(ledger_bytes)
            target.write_bytes(data)
            for strict in ([], ["--strict"]):
                codes.add(main(["analyze", "--corpus", str(corpus),
                                "--overrides", str(ledger), *strict]))
                capsys.readouterr()
    assert codes == {0, 1}


@pytest.mark.parametrize("which", ["corpus", "ledger"])
def test_analyze_subprocess_on_oversized_cell_reports_line_without_traceback(tmp_path,
                                                                             which):
    corpus_bytes, ledger_bytes = inputs(0)
    corpus, ledger = tmp_path / "corpus.csv", tmp_path / "ledger.csv"
    corpus.write_bytes(corpus_bytes)
    ledger.write_bytes(ledger_bytes)
    target = corpus if which == "corpus" else ledger
    lines = target.read_bytes().split(b"\n")
    lines[1] = lines[1] + b"x" * OVERSIZED
    target.write_bytes(b"\n".join(lines))
    proc = subprocess.run(
        [sys.executable, "-m", "namecohort.cli", "analyze", "--corpus", str(corpus),
         "--overrides", str(ledger)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(nc.__file__).parent.parent)))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 2: field larger than field limit")
    assert "Traceback" not in proc.stderr
