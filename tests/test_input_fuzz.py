"""Seeded malformed-input fuzz of year-file directories and DBLP XML.

Valid inputs are mutated as the corpus fuzz mutates them (truncation, byte
flips, injected `,` `<` `&` `"` and line breaks, a repeated line, an
oversized cell), and further: a year file gets a count too large for the
table's count column, and an XML document gets another declared encoding,
known or not, or a year too large for any int. Loading a mutated directory
may raise only SsaFormatError or DuplicateEntryError, parsing mutated XML
only DblpParseError, and `namecohort ingest` and `analyze` on them must
exit 0 or 1, never with a traceback.
"""

from __future__ import annotations

import io
import random
import re
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

import namecohort as nc
from namecohort.cli import main
from namecohort.corpus import DblpParseError
from namecohort.ssa import DuplicateEntryError, SsaFormatError
from test_corpus_fuzz import mutations
from test_names import random_author

JUNK = (b",", b"<", b"&", b'"', b"\n", b"\r", b"\r\n", b"&uuml;", b"&nosuch;", b"<a>")
# Distinct after normalization, so that no valid year file repeats a key.
YEAR_FILE_NAMES = ["Ada", "Bea", "Cal", "Dee", "Eli", "Fay", "Gus", "Hal", "Ivy", "Jo",
                   "Zoë", "José", "Ærin", "Łukasz"]
OVERSIZED_COUNTS = [str(2**32).encode("ascii"), b"9" * 30, b"1" * 5000]
ENCODINGS = ["bogus", "rot13", "hex", "big5", "idna", "utf-16", "UTF-8", "ascii", "cp1252",
             "utf-7", "x-mac-nonesuch"]
OVERSIZED_YEARS = [b"9" * 30, b"1" * 5000, b"-1990", b"1990.0"]


def year_files(rng: random.Random) -> dict[str, bytes]:
    """Three valid year files, by file name."""
    files = {}
    for year in rng.sample(range(1900, 2001), 3):
        rows = [f"{name},{sex},{rng.randint(5, 5000)}\n"
                for name in rng.sample(YEAR_FILE_NAMES, 8)
                for sex in rng.sample("FM", rng.randint(1, 2))]
        files[f"yob{year}.txt"] = "".join(rows).encode("utf-8")
    return files


def year_file_mutations(data: bytes, rng: random.Random, count: int):
    yield from mutations(data, rng, count, JUNK)
    counts = list(re.finditer(rb",(\d+)\n", data))
    for oversized in OVERSIZED_COUNTS:
        at = rng.choice(counts).span(1)
        yield data[:at[0]] + oversized + data[at[1]:]


def write_directory(directory: Path, files: dict[str, bytes]) -> None:
    for path in directory.glob("yob*.txt"):
        path.unlink()
    for name, data in files.items():
        (directory / name).write_bytes(data)


def mutated_directories(seed: int):
    """Copies of a valid set of year files, each with one file mutated."""
    rng = random.Random(seed)
    files = year_files(rng)
    for name, data in files.items():
        for mutated in year_file_mutations(data, rng, 8):
            yield {**files, name: mutated}


def dblp_document(rng: random.Random) -> bytes:
    """A valid DBLP document with an XML declaration and an external DTD,
    whose named entities the parser resolves as HTML entities."""
    encoding = rng.choice(["ISO-8859-1", "UTF-8"])
    publications = []
    for i in range(12):
        tag = rng.choice(["article", "inproceedings"])
        authors = "".join(f"<author>{escape(random_author(rng))}</author>"
                          for _ in range(rng.randint(1, 3)))
        venue = rng.choice(["J", "Conf, A", "Z&ouml;ol. &amp; Bot."])
        publications.append(f'<{tag} key="k/{i}">{authors}<title>T{i}</title>'
                            f"<year>{rng.randint(1950, 2010)}</year>"
                            f"<journal>{venue}</journal></{tag}>\n")
    return (f'<?xml version="1.0" encoding="{encoding}"?>\n'
            f'<!DOCTYPE dblp SYSTEM "dblp.dtd">\n<dblp>\n{"".join(publications)}</dblp>\n'
            ).encode(encoding, "xmlcharrefreplace")


def dblp_mutations(data: bytes, rng: random.Random, count: int):
    yield from mutations(data, rng, count, JUNK)
    declared = re.search(rb'encoding="([^"]*)"', data).span(1)
    for encoding in ENCODINGS:
        yield data[:declared[0]] + encoding.encode("ascii") + data[declared[1]:]
    years = list(re.finditer(rb"<year>(\d+)</year>", data))
    for oversized in OVERSIZED_YEARS:
        at = rng.choice(years).span(1)
        yield data[:at[0]] + oversized + data[at[1]:]


def mutated_documents(seed: int):
    rng = random.Random(seed)
    yield from dblp_mutations(dblp_document(rng), rng, 25)


def test_mutated_year_files_raise_only_documented_errors(tmp_path):
    outcomes = []
    for seed in range(4):
        for files in mutated_directories(seed):
            write_directory(tmp_path, files)
            try:
                nc.load_directory(tmp_path)
                outcomes.append(None)
            except (SsaFormatError, DuplicateEntryError) as exc:
                outcomes.append(type(exc))
    assert set(outcomes) == {None, SsaFormatError, DuplicateEntryError}


def test_mutated_dblp_raises_only_dblp_parse_error():
    outcomes = []
    for seed in range(6):
        for data in mutated_documents(seed):
            for strict in (True, False):
                try:
                    nc.parse_dblp_subset(io.BytesIO(data), strict)
                    outcomes.append(True)
                except DblpParseError:
                    outcomes.append(False)
    assert set(outcomes) == {False, True}


@pytest.mark.parametrize("seed", range(2))
def test_ingest_and_analyze_on_mutated_inputs_exit_0_or_1(tmp_path, capsys, seed):
    years, snapshot, corpus = tmp_path / "years", tmp_path / "t.bin", tmp_path / "c.xml"
    years.mkdir()
    codes = {"ingest": set(), "analyze": set()}
    for files in mutated_directories(100 + seed):
        write_directory(years, files)
        codes["ingest"].add(main(["ingest", str(years), "--out", str(snapshot)]))
        capsys.readouterr()
    for data in mutated_documents(100 + seed):
        corpus.write_bytes(data)
        for strict in ([], ["--strict"]):
            codes["analyze"].add(main(["analyze", "--corpus", str(corpus), *strict]))
            capsys.readouterr()
    assert codes == {"ingest": {0, 1}, "analyze": {0, 1}}
