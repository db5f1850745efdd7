import argparse
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import zlib
from importlib import resources
from pathlib import Path

import pytest

import namecohort as nc
from namecohort import corpus as corpus_module
from namecohort import names, shifts, ssa
from namecohort.cli import _sha256, build_parser, main

FIXTURE_DIR = str(resources.files("namecohort") / "data" / "ssa_fixture")

ALL_INITIAL_CORPUS = (
    "record_id,venue,year,authors\n"
    "a1,X,1975,B. Liskov|R.C. Archibald\n"
    "a2,X,1976,J. Q.\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_ingest_fixture_dir(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        code, stdout, _ = run(capsys, "ingest", FIXTURE_DIR, "--out", str(out))
        assert code == 0
        assert "years 1900-2000" in stdout
        table = nc.read_snapshot(out)
        assert table.counts("johnnie", 1960) == (405, 1131)
        assert (out.parent / "table.csv.manifest.json").exists()

    def test_ingest_lists_the_directory_once_and_hashes_what_it_loads(
            self, capsys, tmp_path, monkeypatch):
        for name, text in (("yob1980.txt", "Ada,F,10\n"), ("yob1981.txt", "Ada,M,5\n"),
                           ("yob19.txt", "Bo,F,5\n"), ("notes.txt", "")):
            (tmp_path / name).write_text(text)
        listings, opened = [], []
        listdir, open_ = os.listdir, open
        monkeypatch.setattr(os, "listdir", lambda path: listings.append(path) or listdir(path))
        monkeypatch.setattr(ssa, "open", lambda path, *args, **kwargs:
                            opened.append(str(path)) or open_(path, *args, **kwargs),
                            raising=False)
        out = tmp_path / "out" / "t.snap"
        out.parent.mkdir()
        code, _, _ = run(capsys, "ingest", str(tmp_path), "--out", str(out))
        assert code == 0 and len(listings) == 1
        manifest = json.loads((out.parent / "t.snap.manifest.json").read_text())
        loaded = [path for path in opened if path != str(out)]
        assert list(manifest["inputs"]) == loaded == [str(tmp_path / "yob1980.txt"),
                                                      str(tmp_path / "yob1981.txt")]

    def test_ingest_empty_dir_errors(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "ingest", str(tmp_path),
                              "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "no yobYYYY.txt year files" in stderr

    @pytest.mark.parametrize("directory", ["fixture", "missing"])
    def test_ingest_without_out_is_refused_before_any_directory_read(self, capsys, tmp_path,
                                                                     directory):
        path = FIXTURE_DIR if directory == "fixture" else str(tmp_path / "missing")
        assert run(capsys, "ingest", path) == (
            1, "", "error: ingest requires --out for the table snapshot\n")

    def test_ingest_corrupt_line_reports_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "yob1980.txt"
        bad.write_text("Ada,F,10\nAda,Q,5\n")
        code, _, stderr = run(capsys, "ingest", str(tmp_path),
                              "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "yob1980.txt" in stderr and "2" in stderr


class TestPf:
    def test_year_lookup(self, capsys):
        code, stdout, _ = run(capsys, "pf", "Johnnie", "--year", "1960")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["p_female"] == pytest.approx(0.2637, abs=0.0005)
        assert payload["female_count"] == 405
        assert payload["male_count"] == 1131
        assert payload["fallback_distance"] == 0

    def test_pub_year_lookup_matches_direct(self, capsys):
        _, direct, _ = run(capsys, "pf", "Johnnie", "--year", "1960")
        _, shifted, _ = run(capsys, "pf", "Johnnie", "--pub-year", "1990")
        direct_payload = json.loads(direct)
        shifted_payload = json.loads(shifted)
        for key in ("p_female", "female_count", "male_count", "lookup_year"):
            assert shifted_payload[key] == direct_payload[key]
        assert shifted_payload["publication_year"] == 1990
        assert shifted_payload["year_shift"] == 30

    def test_unknown_name_exits_zero(self, capsys):
        code, stdout, _ = run(capsys, "pf", "Zzyzx", "--year", "1960")
        assert code == 0
        assert json.loads(stdout)["p_female"] is None

    def test_table_snapshot_flag(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        run(capsys, "ingest", FIXTURE_DIR, "--out", str(out))
        code, stdout, _ = run(capsys, "pf", "Johnnie", "--year", "1960",
                              "--table", str(out))
        assert code == 0
        assert json.loads(stdout)["p_female"] == 405 / 1536

    @pytest.mark.parametrize("year", [("--year", "1960"), ("--pub-year", "1990")])
    def test_negative_max_fallback_is_refused(self, capsys, year):
        code, stdout, stderr = run(capsys, "pf", "Leslie", *year, "--max-fallback", "-1")
        assert (code, stdout) == (1, "")
        assert stderr == "error: max_fallback_distance must be >= 0\n"

    def test_stale_snapshot_fails_loudly(self, capsys, tmp_path):
        stale = tmp_path / "t.csv"
        stale.write_text("name,year,female_count,male_count\n")
        code, _, stderr = run(capsys, "pf", "Johnnie", "--year", "1960",
                              "--table", str(stale))
        assert code == 1
        assert "unsupported table snapshot" in stderr


class TestShifts:
    def test_single_name_csv(self, capsys):
        code, stdout, _ = run(capsys, "shifts", "--from", "1900", "--to", "2000",
                              "--name", "Leslie")
        assert code == 0
        header, row = stdout.splitlines()
        assert header == "name,p_start,p_end,delta,weight"
        fields = row.split(",")
        assert fields[0] == "leslie"
        assert float(fields[3]) == pytest.approx(0.88, abs=0.001)

    def test_top_mode_ranked(self, capsys):
        code, stdout, _ = run(capsys, "shifts", "--from", "1925", "--to", "1975",
                              "--top", "3")
        rows = stdout.splitlines()[1:]
        assert code == 0 and len(rows) == 3
        deltas = [abs(float(r.split(",")[3])) for r in rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_unstable_mode_matches_library(self, capsys, fixture_table):
        code, stdout, _ = run(capsys, "shifts", "--from", "1925", "--to", "1975",
                              "--unstable")
        names = [row.split(",")[0] for row in stdout.splitlines()[1:]]
        assert code == 0
        assert names == nc.find_unstable(fixture_table)

    def test_table_name_holding_a_quote_is_one_quoted_cell(self, capsys, tmp_path):
        (tmp_path / "yob1925.txt").write_text('"Ann,F,50\n"Ann,M,50\n')
        (tmp_path / "yob1975.txt").write_text('"Ann,F,90\n"Ann,M,10\n')
        table = tmp_path / "table.bin"
        assert run(capsys, "ingest", str(tmp_path), "--out", str(table))[0] == 0
        code, stdout, _ = run(capsys, "shifts", "--table", str(table), "--from", "1925",
                              "--to", "1975", "--top", "3")
        assert code == 0
        assert stdout.splitlines()[1] == '"""ann",0.5,0.9,0.4,100.0'
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows == [["name", "p_start", "p_end", "delta", "weight"],
                        ['"ann', "0.5", "0.9", "0.4", "100.0"]]

    def test_net_mode(self, capsys):
        code, stdout, _ = run(capsys, "shifts", "--from", "1925", "--to", "1975",
                              "--unstable", "--net")
        payload = json.loads(stdout)
        assert code == 0
        assert payload["net_female_shift"] > 0

    def test_net_mode_reuses_the_shift_records(self, capsys, monkeypatch):
        calls = []
        lookup = shifts.lookup
        monkeypatch.setattr(shifts, "lookup", lambda *a: calls.append(a) or lookup(*a))
        argv = ("shifts", "--from", "1925", "--to", "1975", "--unstable")
        assert run(capsys, *argv)[0] == 0
        rows_calls = len(calls)
        calls.clear()
        assert run(capsys, *argv, "--net")[0] == 0
        assert rows_calls > 0
        assert len(calls) <= rows_calls

    def test_max_fallback_applies_to_top(self, capsys):
        # no fixture year lies within 0 of 1930, so no name is eligible
        code, stdout, _ = run(capsys, "shifts", "--from", "1930", "--to", "1975",
                              "--top", "3", "--max-fallback", "0")
        assert code == 0
        assert stdout.splitlines() == ["name,p_start,p_end,delta,weight"]

    def test_max_fallback_applies_to_unstable(self, capsys, fixture_table):
        off_grid = ("--from", "1925", "--to", "1975", "--unstable",
                    "--sample-years", "1930,1955,1980")
        code, stdout, _ = run(capsys, "shifts", *off_grid)
        assert code == 0 and len(stdout.splitlines()) > 1
        code, stdout, _ = run(capsys, "shifts", *off_grid, "--max-fallback", "0")
        assert code == 0
        assert stdout.splitlines() == ["name,p_start,p_end,delta,weight"]

    def test_max_fallback_applies_to_net(self, capsys, fixture_table):
        # 1912 is 12 years from the nearest fixture year (1900)
        code, stdout, _ = run(capsys, "shifts", "--from", "1912", "--to", "1975",
                              "--name", "Leslie", "--net", "--max-fallback", "20")
        assert code == 0
        assert json.loads(stdout)["net_female_shift"] == nc.net_female_shift(
            fixture_table, ["leslie"], 1912, 1975, max_fallback_distance=20)

    @pytest.mark.parametrize("mode", [("--top", "3"), ("--unstable",), ("--name", "Leslie"),
                                      ("--name", "Leslie", "--net"), ("--unstable", "--net")])
    def test_negative_max_fallback_is_refused(self, capsys, mode):
        code, stdout, stderr = run(capsys, "shifts", "--from", "1925", "--to", "1975", *mode,
                                   "--max-fallback", "-1")
        assert (code, stdout) == (1, "")
        assert stderr == "error: max_fallback_distance must be >= 0\n"

    def test_requires_exactly_one_mode(self, capsys):
        code, _, stderr = run(capsys, "shifts", "--from", "1900", "--to", "2000")
        assert code == 1
        assert "choose exactly one" in stderr

    def test_negative_min_births_is_refused_before_the_table_is_read(self, capsys, tmp_path):
        code, stdout, stderr = run(capsys, "shifts", "--from", "1925", "--to", "1975",
                                   "--unstable", "--min-births", "-1",
                                   "--table", str(tmp_path / "missing.snap"))
        assert (code, stdout, stderr) == (1, "", "error: min_total_births must be >= 0\n")

    @pytest.mark.parametrize("net", [[], ["--net"]])
    def test_inverted_year_pair_is_refused_when_no_name_is_read(self, capsys, net):
        code, stdout, stderr = run(capsys, "shifts", "--from", "1975", "--to", "1925",
                                   "--unstable", "--min-births", "1000000000", *net)
        assert (code, stdout, stderr) == (1, "", "error: require y1 < y2\n")

    def test_json_rows_equal_the_csv_rows(self, capsys):
        argv = ("shifts", "--from", "1925", "--to", "1975", "--top", "5", "--weighted")
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO(stdout)))
        code, stdout, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        json_rows = json.loads(stdout)
        assert len(json_rows) == len(csv_rows) == 5
        for got, want in zip(json_rows, csv_rows):
            assert {key: str(value) for key, value in got.items()} == want

    def test_unstable_names_without_usable_counts_are_skipped(self, capsys, fixture_table):
        code, stdout, stderr = run(capsys, "shifts", "--from", "1901", "--to", "1999",
                                   "--unstable", "--max-fallback", "0")
        assert (code, stdout) == (0, "name,p_start,p_end,delta,weight\n")
        unstable = nc.find_unstable(fixture_table, max_fallback_distance=0)
        assert "madison" in unstable
        assert "skipping no usable counts for 'madison' at year 1901\n" in stderr
        assert stderr.splitlines() == [
            f"skipping no usable counts for {name!r} at year 1901" for name in unstable]

    def test_net_shift_over_only_skipped_names_is_null(self, capsys, fixture_table):
        code, stdout, stderr = run(capsys, "shifts", "--from", "1901", "--to", "1999",
                                   "--unstable", "--max-fallback", "0", "--net")
        assert code == 0
        assert json.loads(stdout) == {"from_year": 1901, "to_year": 1999, "names": [],
                                      "net_female_shift": None}
        unstable = nc.find_unstable(fixture_table, max_fallback_distance=0)
        assert stderr.splitlines() == [
            f"skipping no usable counts for {name!r} at year 1901" for name in unstable]

    def test_unresolvable_explicit_name_errors(self, capsys):
        code, _, stderr = run(capsys, "shifts", "--from", "1950", "--to", "1975",
                              "--name", "Gertrude")
        assert code == 1
        assert "1975" in stderr


class TestSample:
    def test_spec_only_header(self, capsys):
        code, stdout, _ = run(capsys, "sample", "--population-size", "600",
                              "--margin", "0.05", "--confidence", "0.95")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["spec"]["computed_n"] == 235
        assert payload["manifest"]["subcommand"] == "sample"

    @pytest.mark.parametrize("margin", ["1e-300", "1e-160"])
    def test_vanishing_margin_sizes_the_whole_population(self, capsys, margin):
        code, stdout, stderr = run(capsys, "sample", "--population-size", "10",
                                   "--margin", margin)
        assert (code, stderr) == (0, "")
        assert json.loads(stdout)["spec"]["computed_n"] == 10

    def test_draw_from_ids_file(self, capsys, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("".join(f"id{i}\n" for i in range(50)))
        code, stdout, _ = run(capsys, "sample", "--ids-file", str(ids),
                              "--seed", "7", "--size", "5")
        assert code == 0
        lines = stdout.splitlines()
        assert json.loads(lines[0])["spec"]["population_size"] == 50
        assert len(lines[1:]) == 5
        assert set(lines[1:]) <= {f"id{i}" for i in range(50)}

    def test_draw_requires_seed(self, capsys, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("a\nb\n")
        code, _, stderr = run(capsys, "sample", "--ids-file", str(ids))
        assert code == 1
        assert "--seed" in stderr

    def test_seed_is_required_before_the_ids_file_is_read(self, capsys, tmp_path):
        code, stdout, stderr = run(capsys, "sample", "--ids-file", str(tmp_path / "missing"))
        assert (code, stdout) == (1, "")
        assert stderr == "error: --seed is required when drawing from --ids-file\n"

    def test_ids_file_bytes_that_are_not_utf8_name_the_line(self, capsys, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_bytes(b"".join(b"id%d\n" % i for i in range(3000)) + b"id\xff3\nid4\n")
        code, stdout, stderr = run(capsys, "sample", "--ids-file", str(ids), "--seed", "1")
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {ids}:3001: not UTF-8 (invalid start byte)\n"

    def test_ids_file_byte_order_mark_is_dropped(self, capsys, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_bytes(b"\xef\xbb\xbfa\nb\nc\n")
        code, stdout, _ = run(capsys, "sample", "--ids-file", str(ids), "--seed", "1",
                              "--size", "3")
        assert code == 0
        assert sorted(stdout.splitlines()[1:]) == ["a", "b", "c"]

    @pytest.mark.parametrize("with_ids", [False, True])
    def test_population_size_zero_is_refused(self, capsys, tmp_path, with_ids):
        ids = tmp_path / "ids.txt"
        ids.write_text("a\nb\nc\n")
        extra = ("--ids-file", str(ids), "--seed", "1") if with_ids else ()
        code, stdout, stderr = run(capsys, "sample", "--population-size", "0", *extra)
        assert (code, stdout) == (1, "")
        assert stderr == "error: population_size must be >= 1\n"

    @pytest.mark.parametrize("setting, message", [
        (("--margin", "2"), "margin must be in (0, 0.5]"),
        (("--confidence", "1.5"), "confidence must be in (0.5, 1)"),
        (("--population-size", "0"), "population_size must be >= 1"),
        (("--confidence", "0.9999999999999999"), "confidence must be in (0.5, 1)"),
    ], ids=["margin", "confidence", "population-size", "confidence-near-1"])
    def test_settings_are_checked_before_the_ids_file_is_read(self, capsys, tmp_path,
                                                              setting, message):
        code, stdout, stderr = run(capsys, "sample", "--ids-file", str(tmp_path / "missing.txt"),
                                   "--seed", "1", *setting)
        assert (code, stdout, stderr) == (1, "", f"error: {message}\n")

    def test_requires_population_or_ids(self, capsys):
        code, _, stderr = run(capsys, "sample")
        assert code == 1
        assert "population" in stderr


class TestAnalyze:
    def test_all_initial_corpus_gives_half(self, capsys, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text(ALL_INITIAL_CORPUS)
        code, stdout, _ = run(capsys, "analyze", "--corpus", str(corpus),
                              "--estimator", "weighted-mean")
        assert code == 0
        rows = stdout.splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[1] == "0.5" for row in rows)

    def test_json_format_round_trips(self, capsys, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A|George B\n")
        code, stdout, _ = run(capsys, "analyze", "--corpus", str(corpus),
                              "--format", "json")
        assert code == 0
        [point] = json.loads(stdout)
        assert point["n_authors"] == 2

    def test_overrides_and_display_encoding(self, capsys, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text("record_id,venue,year,authors\n"
                          "a1,X,1970,Leslie One|Leslie Two\n")
        ledger = tmp_path / "l.csv"
        ledger.write_text("key,gender,year_from,year_to,venue,source_note\n"
                          "leslie one,F,,,,bio\nleslie two,M,,,,obit\n")
        code, stdout, _ = run(capsys, "analyze", "--corpus", str(corpus),
                              "--overrides", str(ledger), "--display-encoding")
        assert code == 0
        assert stdout.splitlines()[1].split(",")[1] == "0.5"

    def test_venue_with_comma_is_one_quoted_cell(self, capsys, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text('record_id,venue,year,authors\n'
                          'a1,"Proc. A, Vol 1",1990,Mary A|George B\n'
                          'a2,"The ""Best"" Conf",1990,Mary C\n'
                          'a3,Plain,1990,Mary D\n')
        code, stdout, _ = run(capsys, "analyze", "--corpus", str(corpus),
                              "--group-by-venue")
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert all(len(row) == len(rows[0]) == 6 for row in rows)
        assert [row[0] for row in rows[1:]] == [
            "Plain:1990", "Proc. A, Vol 1:1990", 'The "Best" Conf:1990']
        assert stdout.splitlines()[1].startswith("Plain:1990,")

    def test_venue_with_bare_carriage_return_is_one_quoted_cell(self, capsys, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_bytes(b'record_id,venue,year,authors\n'
                           b'a1,"A\rB",1990,Mary A\n'
                           b'a2,"C\r\nD",1990,Mary B\n'
                           b'a3,Plain,1990,Mary C\n')
        code, stdout, _ = run(capsys, "analyze", "--corpus", str(corpus),
                              "--group-by-venue")
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout, newline="")))
        assert [row[0] for row in rows[1:]] == ["A\rB:1990", "C\r\nD:1990", "Plain:1990"]
        assert all(len(row) == 6 for row in rows)
        assert '"A\rB:1990",' in stdout

    def test_strict_mode_aborts_lenient_tallies(self, capsys, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text("record_id,venue,year,authors\n"
                          "a1,X,80,Bad\n"
                          "a2,X,1980,Mary A\n")
        code, stdout, stderr = run(capsys, "analyze", "--corpus", str(corpus))
        assert code == 0
        assert "skipped 1" in stderr
        assert len(stdout.splitlines()) == 2
        code, _, stderr = run(capsys, "analyze", "--corpus", str(corpus), "--strict")
        assert code == 1
        assert "line 2" in stderr

    @pytest.mark.parametrize("which", ["corpus", "ledger"])
    def test_bytes_that_are_not_utf8_name_the_line(self, capsys, tmp_path, which):
        corpus, ledger = tmp_path / "c.csv", tmp_path / "ledger.csv"
        corpus.write_bytes(b"record_id,venue,year,authors\na1,X,1980,Mary A\n")
        ledger.write_bytes(b"key,gender,year_from,year_to,venue,source_note\n"
                           b"mary a,F,,,,bio\n")
        target = corpus if which == "corpus" else ledger
        target.write_bytes(target.read_bytes() + b"a2,M\xffry,,,,\n")
        for strict in ([], ["--strict"]):
            code, _, stderr = run(capsys, "analyze", "--corpus", str(corpus),
                                  "--overrides", str(ledger), *strict)
            assert code == 1
            assert stderr.startswith("error: line 3: not UTF-8")

    def test_overrides_tokenize_each_author_string_once(self, capsys, tmp_path, monkeypatch):
        corpus = tmp_path / "c.csv"
        corpus.write_text("record_id,venue,year,authors\n"
                          "a1,X,1970,Leslie One|Leslie Two|B. Liskov\n"
                          "a2,X,1971,\"One, Leslie\"|Dr. Ann Other\n")
        ledger = tmp_path / "l.csv"
        ledger.write_text("key,gender,year_from,year_to,venue,source_note\n"
                          "leslie one,F,,,,bio\nb liskov,F,,,,bio\nann other,M,,,,obit\n")
        calls, tokens = [], names._author_tokens

        def author_tokens(raw):
            calls.append(raw)
            return tokens(raw)

        monkeypatch.setattr(names, "_author_tokens", author_tokens)
        monkeypatch.setattr(corpus_module, "_author_tokens", author_tokens)
        code, stdout, _ = run(capsys, "analyze", "--corpus", str(corpus),
                              "--overrides", str(ledger), "--estimator", "classified-share")
        assert code == 0
        keys = ["leslie one", "b liskov", "ann other"]  # read once each with the ledger
        assert sorted(calls) == sorted(["Leslie One", "Leslie Two", "B. Liskov",
                                        "One, Leslie", "Dr. Ann Other", *keys])
        assert stdout.splitlines()[1:] == ["1970,1.0,3,2,1,classified-share",
                                           "1971,0.5,2,2,0,classified-share"]

    def test_skipped_line_comes_before_unmatched_ledger_warnings(self, tmp_path):
        csv_corpus = tmp_path / "c.csv"
        csv_corpus.write_text("record_id,venue,year,authors\n"
                              "a1,X,80,Jean Bartik\n"
                              "a2,X,1980,Mary A\n")
        xml_corpus = tmp_path / "c.xml"
        xml_corpus.write_text('<dblp><article key="a1"><author>Jean Bartik</author>'
                              '<year>80</year></article><article key="a2">'
                              '<author>Mary A</author><year>1980</year></article></dblp>')
        ledger = tmp_path / "l.csv"
        ledger.write_text("key,gender,year_from,year_to,venue,source_note\n"
                          "jean bartik,F,,,,bio\nmary a,F,,,,bio\nann b,M,,,,obit\n")
        for corpus in (csv_corpus, xml_corpus):
            for command in (["analyze"], ["bias-report", "--reference-year", "2000"]):
                proc = subprocess.run(
                    [sys.executable, "-m", "namecohort.cli", *command, "--corpus", str(corpus),
                     "--overrides", str(ledger)],
                    capture_output=True, text=True, check=True,
                    env=dict(os.environ, PYTHONPATH=str(Path(nc.__file__).parent.parent)))
                assert proc.stderr.splitlines() == [
                    f"skipped 1 malformed entries in {corpus}",
                    "override entry never matched: 'jean bartik' (scope venue=None "
                    "years=None-None)",
                    "override entry never matched: 'ann b' (scope venue=None years=None-None)",
                ]

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_ledger_error_wins_over_corpus_error(self, capsys, tmp_path, strict):
        ledger = tmp_path / "l.csv"
        ledger.write_text("key,gender,year_from,year_to,venue,source_note\n"
                          "mary a,Q,,,,bio\n")
        bad_header = tmp_path / "c.csv"
        bad_header.write_text("id,venue,year,authors\na1,X,1980,Mary A\n")
        bad_xml = tmp_path / "c.xml"
        bad_xml.write_bytes(b'<dblp><article key="a"><author>Mary A</author>')
        for corpus in (bad_header, bad_xml):
            # ... and a bad setting wins over both
            for command, error in (
                    (["analyze"], "error: line 2: invalid gender 'Q'\n"),
                    (["analyze", "--bin-width", "0"], "error: bin_width must be >= 1\n"),
                    (["bias-report", "--reference-year", "2000", "--shift", "-1"],
                     "error: year_shift must be >= 0\n")):
                code, stdout, stderr = run(capsys, *command, "--corpus", str(corpus),
                                           "--overrides", str(ledger), *strict)
                assert (code, stdout, stderr) == (1, "", error)

    def test_ledger_error_comes_before_the_corpus_is_read(self, capsys, tmp_path):
        csv_corpus = tmp_path / "c.csv"
        csv_corpus.write_text("record_id,venue,year,authors\na1,X,80,Bad\na2,X,1980,Mary A\n")
        xml_corpus = tmp_path / "c.xml"
        xml_corpus.write_text('<dblp><article key="a1"><author>Bad</author><year>80</year>'
                              '</article><article key="a2"><author>Mary A</author>'
                              '<year>1980</year></article></dblp>')
        ledger = tmp_path / "l.csv"
        ledger.write_text("key,gender,year_from,year_to,venue,source_note\n"
                          "mary a,Q,,,,bio\n")
        for corpus in (csv_corpus, xml_corpus):
            for command, error in (
                    (["analyze"], "error: line 2: invalid gender 'Q'"),
                    (["bias-report", "--reference-year", "2000"],
                     "error: line 2: invalid gender 'Q'"),
                    (["analyze", "--bin-width", "0"], "error: bin_width must be >= 1")):
                code, stdout, stderr = run(capsys, *command, "--corpus", str(corpus),
                                           "--overrides", str(ledger))
                assert (code, stdout) == (1, "")
                assert stderr.splitlines() == [error]  # no "skipped" line

    def test_bad_setting_or_ledger_is_reported_when_the_corpus_is_missing(self, capsys,
                                                                          tmp_path):
        missing = str(tmp_path / "missing.csv")
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("key,gender,year_from,year_to,venue,source_note\nmary a,F,,,,bio\n")
        bad.write_text("key,gender,year_from,year_to,venue,source_note\nmary a,Q,,,,bio\n")
        for argv, error in (
                (["analyze", "--bin-width", "0", "--overrides", str(good)],
                 "error: bin_width must be >= 1\n"),
                (["analyze", "--estimator", "classified-share", "--tau-female", "0.1"],
                 "error: require 0 <= tau_male < tau_female <= 1\n"),
                (["bias-report", "--reference-year", "2000", "--max-fallback", "-1"],
                 "error: max_fallback_distance must be >= 0\n"),
                (["analyze", "--overrides", str(bad)], "error: line 2: invalid gender 'Q'\n"),
                (["bias-report", "--reference-year", "2000", "--overrides", str(bad)],
                 "error: line 2: invalid gender 'Q'\n")):
            code, stdout, stderr = run(capsys, *argv, "--corpus", missing)
            assert (code, stdout, stderr) == (1, "", error)
        code, _, stderr = run(capsys, "analyze", "--overrides", str(good), "--corpus", missing)
        assert code == 1 and stderr.startswith("error: [Errno 2]")

    @pytest.mark.parametrize("which", ["corpus", "ledger"])
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, which):
        corpus, ledger = tmp_path / "c.csv", tmp_path / "l.csv"
        corpus.write_text("record_id,venue,year,authors\na1,X,1970,Leslie One|Mary A\n")
        ledger.write_text("key,gender,year_from,year_to,venue,source_note\n"
                          "leslie one,M,,,,bio\n")
        target = corpus if which == "corpus" else ledger
        target.write_bytes(b"\xef\xbb\xbf" + target.read_bytes())
        code, stdout, stderr = run(capsys, "analyze", "--corpus", str(corpus),
                                   "--overrides", str(ledger), "--estimator", "classified-share")
        assert (code, stderr) == (0, "")
        assert stdout.splitlines()[1] == "1970,0.5,2,2,0,classified-share"

    def test_strict_mode_aborts_on_dblp_publication(self, capsys, tmp_path):
        xml = tmp_path / "c.xml"
        body = (b'<dblp><article key="a"><author>Mary A</author><year>1980</year></article>'
                b'<article key="b"><author>Ann B</author><year>80</year></article></dblp>')
        xml.write_bytes(body)
        code, _, stderr = run(capsys, "analyze", "--corpus", str(xml))
        assert code == 0
        assert "skipped 1" in stderr
        code, _, stderr = run(capsys, "analyze", "--corpus", str(xml), "--strict")
        assert code == 1
        offset = body.index(b'<article key="b"')
        assert f"byte {offset}: b: year 80 out of range" in stderr

    def test_dblp_corpus_autodetected(self, capsys, tmp_path):
        xml = tmp_path / "c.xml"
        xml.write_bytes(b'<dblp><article key="a"><author>Mary A</author>'
                        b'<year>1980</year></article></dblp>')
        code, stdout, _ = run(capsys, "analyze", "--corpus", str(xml))
        assert code == 0
        assert stdout.splitlines()[1].startswith("1980,")

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    @pytest.mark.parametrize("command", [["analyze"], ["bias-report", "--reference-year", "2000"]])
    def test_corpus_format_flag_picks_the_parser_whatever_the_extension(self, capsys, tmp_path,
                                                                        command, strict):
        # Each kind of corpus holds one good and one malformed entry, so a
        # lenient run prints a skip line and a strict run fails.
        bodies = {"dblp": '<dblp><article key="a"><author>Mary A</author><year>1980</year>'
                          '</article><article key="b"><author>Ann B</author><year>80</year>'
                          '</article></dblp>',
                  "csv": "record_id,venue,year,authors\na,X,1980,Mary A\nb,X,80,Ann B\n"}

        def outcome(kind, name, fmt):
            path = tmp_path / name
            path.write_text(bodies[kind])
            code, stdout, stderr = run(capsys, *command, "--corpus", str(path),
                                       "--corpus-format", fmt, *strict)
            return code, stdout, stderr.replace(str(path), "CORPUS")

        for kind, name, fmt in [("dblp", "c.txt", "dblp"), ("dblp", "c.xml", "dblp"),
                                ("dblp", "c.XML", "auto"), ("csv", "c.xml", "csv"),
                                ("csv", "c.csv", "csv")]:
            expected = outcome(kind, f"auto.{'xml' if kind == 'dblp' else 'csv'}", "auto")
            assert expected[0] == (1 if strict else 0)
            assert outcome(kind, name, fmt) == expected, (kind, name, fmt)
        # by its extension alone, the DBLP file named .txt is read as CSV
        assert outcome("dblp", "c.txt", "auto")[2].startswith("error: line 1: expected header")


class TestBiasReport:
    def test_reference_year_report(self, capsys, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text("record_id,venue,year,authors\n"
                          "a1,X,1955,Madison Q|Leslie R\n")
        code, stdout, _ = run(capsys, "bias-report", "--corpus", str(corpus),
                              "--reference-year", "2000")
        assert code == 0
        header, row = stdout.splitlines()
        assert header == "bin,temporal_share,static_share,gap"
        assert float(row.split(",")[3]) > 0

    def test_empty_corpus_reports_null_gaps(self, capsys, tmp_path):
        """An aggregate over nothing is null in JSON; the CSV stays header-only."""
        corpus = tmp_path / "empty.csv"
        corpus.write_text("record_id,venue,year,authors\n")
        argv = ("bias-report", "--corpus", str(corpus), "--reference-year", "2000")
        code, stdout, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert stdout == '{"bins":[],"max_gap":null,"mean_gap":null,"reference_year":2000}\n'
        code, stdout, _ = run(capsys, *argv)
        assert (code, stdout) == (0, "bin,temporal_share,static_share,gap\n")


class TestCliContracts:
    def test_unknown_flag_exits_nonzero(self, capsys):
        for argv in (["pf", "Johnnie", "--year", "1960", "--bogus"],
                     ["sample", "--population-size", "600", "--frobnicate"],
                     ["shifts", "--from", "1900", "--to", "2000", "--nope"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            capsys.readouterr()

    def test_help_lists_spec_defaults(self, capsys):
        expectations = {
            "pf": ["default: 30", "default: 10"],
            "sample": ["default: 0.05", "default: 0.95"],
            "analyze": ["default: 0.8", "default: 0.2", "default: 0.5",
                        "default: 1", "default: weighted-mean"],
            "shifts": ["default: 0.3", "default: 500",
                       "default: (1900, 1925, 1950, 1975, 2000)"],
        }
        for command, fragments in expectations.items():
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            stdout = capsys.readouterr().out
            for fragment in fragments:
                assert fragment in stdout, (command, fragment)

    def test_outputs_are_byte_identical_across_runs(self, capsys, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text("record_id,venue,year,authors\n"
                          "a1,X,1955,Madison Q|Sidney R|B. Liskov\n"
                          "a2,X,1960,Mary A|Johnnie B\n")
        outputs = []
        for run_dir in ("one", "two"):
            out = tmp_path / run_dir
            out.mkdir()
            target = out / "series.csv"
            code = main(["analyze", "--corpus", str(corpus), "--out", str(target)])
            capsys.readouterr()
            assert code == 0
            outputs.append((target.read_bytes(),
                            (out / "series.csv.manifest.json").read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        # manifests differ only in the --out path they record
        first = json.loads(outputs[0][1])
        second = json.loads(outputs[1][1])
        first["options"].pop("out")
        second["options"].pop("out")
        assert first == second


def test_manifest_digest_is_hashed_in_bounded_memory(tmp_path):
    data = os.urandom(1 << 20) * 12
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    want = "sha256:" + hashlib.sha256(data).hexdigest()
    del data
    tracemalloc.start()
    try:
        digest = _sha256(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == want
    assert peak < 3 << 19  # one 1 MiB buffer, not the 12 MiB file or a chunk per read


def test_manifest_digest_of_small_files_and_of_a_pipe(tmp_path):
    # A buffer sized to the file must still read all of an empty file, a
    # one-byte file and a pipe, whose size reads 0.
    for i, data in enumerate([b"", b"a", b"id1\nid2\n"]):
        path = tmp_path / f"small{i}.txt"
        path.write_bytes(data)
        assert _sha256(path) == "sha256:" + hashlib.sha256(data).hexdigest()
    read_end, write_end = os.pipe()
    os.write(write_end, b"x" * 5000)
    os.close(write_end)
    try:
        assert _sha256(f"/dev/fd/{read_end}") == "sha256:" + hashlib.sha256(b"x" * 5000).hexdigest()
    finally:
        os.close(read_end)


def test_analyze_bin_width(capsys, tmp_path):
    corpus = tmp_path / "c.csv"
    corpus.write_text("record_id,venue,year,authors\n"
                      "a1,X,1951,Mary A\na2,X,1958,Mary B\na3,X,1962,Mary C\n")
    code = main(["analyze", "--corpus", str(corpus), "--bin-width", "10"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert [row.split(",")[0] for row in stdout.splitlines()[1:]] == ["1950", "1960"]


def test_ingest_year_files_with_no_records(capsys, tmp_path):
    (tmp_path / "yob1980.txt").write_text("")
    code, _, stderr = run(capsys, "ingest", str(tmp_path),
                          "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert "contained no records" in stderr


CORPUS_KEYS = {"subcommand", "table", "max_fallback", "shift", "format", "out",
               "corpus", "corpus_format", "overrides", "strict"}
# For each command: the argv after the command name, the manifest's options
# keys, and the flags it must reject because no run of the command reads them.
COMMAND_FLAGS = {
    "ingest": ([FIXTURE_DIR], {"subcommand", "ssa_dir", "out"},
               [["--table", "t.csv"], ["--format", "json"], ["--seed", "3"], ["--strict"]]),
    "pf": (["Johnnie", "--year", "1960"],
           {"subcommand", "name", "year", "pub_year", "table", "max_fallback", "shift",
            "out"},
           [["--format", "json"], ["--seed", "3"], ["--strict"]]),
    "shifts": (["--from", "1925", "--to", "1975", "--top", "3"],
               {"subcommand", "table", "max_fallback", "format", "out", "from_year",
                "to_year", "name", "top", "weighted", "unstable", "net", "sample_years",
                "range_threshold", "min_births"},
               [["--seed", "3"], ["--strict"], ["--shift", "20"]]),
    "sample": (["--population-size", "600"],
               {"subcommand", "out", "seed", "population_size", "margin", "confidence",
                "ids_file", "size"},
               [["--table", "t.csv"], ["--format", "json"], ["--strict"]]),
    "analyze": (["--corpus", "{corpus}"],
                CORPUS_KEYS | {"estimator", "unknown_value", "display_encoding",
                               "bin_width", "group_by_venue", "tau_female", "tau_male"},
                [["--seed", "3"]]),
    "bias-report": (["--corpus", "{corpus}", "--reference-year", "2000"],
                    CORPUS_KEYS | {"reference_year"}, [["--seed", "3"]]),
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_command_accepts_and_records_only_the_flags_it_reads(capsys, tmp_path, command):
    corpus = tmp_path / "c.csv"
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A|George B\n")
    args, keys, removed = COMMAND_FLAGS[command]
    argv = [command, *(arg.format(corpus=corpus) for arg in args)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert set(manifest["options"]) == keys
    assert manifest["seed"] is None
    for flag in removed:
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *flag])
        assert excinfo.value.code == 2, flag
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


SHIFTS = ["shifts", "--from", "1925", "--to", "1975"]
# Flags that only one mode of their command reads, keyed by the flag (and,
# after a "+", what the refused command line gives): a command line in a mode
# that does not read the flag, the flag with a value and (where it takes
# one) at its default, the mode that reads it, and a command line in that mode
# ({ids} is a file of ten ids, {corpus} a one-row corpus).
MODE_FLAGS = {
    "shift": (["pf", "Johnnie", "--year", "1960"], [["--shift", "5"], ["--shift", "30"]],
              "--pub-year", ["pf", "Johnnie", "--pub-year", "1990"]),
    "weighted": ([*SHIFTS, "--name", "Leslie"], [["--weighted"]], "--top",
                 [*SHIFTS, "--top", "3"]),
    "sample-years": ([*SHIFTS, "--name", "Leslie"],
                     [["--sample-years", "1930,1955"],
                      ["--sample-years", "1900,1925,1950,1975,2000"]],
                     "--unstable", [*SHIFTS, "--unstable"]),
    "range-threshold": ([*SHIFTS, "--top", "3"],
                        [["--range-threshold", "0.5"], ["--range-threshold", "0.3"]],
                        "--unstable", [*SHIFTS, "--unstable"]),
    "min-births": ([*SHIFTS, "--name", "Leslie"], [["--min-births", "9"], ["--min-births", "500"]],
                   "--unstable", [*SHIFTS, "--unstable"]),
    "format+net": ([*SHIFTS, "--top", "3", "--net"], [["--format", "json"], ["--format", "csv"]],
                   "--name, --top or --unstable without --net", [*SHIFTS, "--top", "3"]),
    "seed": (["sample", "--population-size", "600"], [["--seed", "3"]], "--ids-file",
             ["sample", "--ids-file", "{ids}", "--seed", "1"]),
    "size": (["sample", "--population-size", "600"], [["--size", "5"]], "--ids-file",
             ["sample", "--ids-file", "{ids}", "--seed", "1"]),
    "display-encoding": (["analyze", "--corpus", "{corpus}", "--estimator", "classified-share"],
                         [["--display-encoding"]], "--estimator weighted-mean",
                         ["analyze", "--corpus", "{corpus}"]),
    "unknown-value+display-encoding": (
        ["analyze", "--corpus", "{corpus}", "--display-encoding"],
        [["--unknown-value", "0.3"], ["--unknown-value", "0.5"]],
        "--estimator weighted-mean without --display-encoding",
        ["analyze", "--corpus", "{corpus}"]),
    "unknown-value+classified-share": (
        ["analyze", "--corpus", "{corpus}", "--estimator", "classified-share"],
        [["--unknown-value", "0.3"], ["--unknown-value", "0.5"]],
        "--estimator weighted-mean without --display-encoding",
        ["analyze", "--corpus", "{corpus}"]),
    "tau-female": (["analyze", "--corpus", "{corpus}"],
                   [["--tau-female", "0.7"], ["--tau-female", "0.8"]],
                   "--estimator classified-share or --display-encoding",
                   ["analyze", "--corpus", "{corpus}", "--estimator", "classified-share"]),
    "tau-male": (["analyze", "--corpus", "{corpus}", "--estimator", "weighted-mean"],
                 [["--tau-male", "0.1"], ["--tau-male", "0.2"]],
                 "--estimator classified-share or --display-encoding",
                 ["analyze", "--corpus", "{corpus}", "--display-encoding"]),
}


@pytest.mark.parametrize("flag", MODE_FLAGS)
def test_mode_specific_flag_is_rejected_outside_its_mode(capsys, tmp_path, flag):
    argv, variants, mode, in_mode = MODE_FLAGS[flag]
    ids, corpus = tmp_path / "ids.txt", tmp_path / "c.csv"
    ids.write_text("".join(f"id{i}\n" for i in range(10)))
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A|George B\n")
    argv, in_mode = ([arg.format(ids=ids, corpus=corpus) for arg in args]
                     for args in (argv, in_mode))
    out = tmp_path / "out"
    for given in variants:
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *given, "--out", str(out)])
        assert excinfo.value.code == 2, given
        assert f"{given[0]} is read only with {mode}" in capsys.readouterr().err
        assert not out.exists()
    # the mode that reads the flag accepts it and records its value
    recorded = []
    for extra in ([], variants[0]):
        assert main([*in_mode, *extra, "--out", str(out)]) == 0
        options = json.loads(Path(f"{out}.manifest.json").read_text())["options"]
        recorded.append(options[variants[0][0].lstrip("-").replace("-", "_")])
    assert recorded[0] != recorded[1]


@pytest.mark.parametrize("argv, error", [
    (["pf", "Mary", "--year", "1950", "--max-fallback", "-1"],
     "max_fallback_distance must be >= 0"),
    (["shifts", "--from", "1975", "--to", "1925", "--top", "3"], "require y1 < y2"),
    (["shifts", "--from", "1925", "--to", "1975", "--top", "0"], "k must be >= 1"),
    (["shifts", "--from", "1925", "--to", "1975"],
     "choose exactly one of --name, --top, --unstable"),
    (["shifts", "--from", "1925", "--to", "1975", "--unstable", "--sample-years", "2000,1900"],
     "sample_years must be strictly increasing"),
])
def test_table_command_reports_a_bad_setting_before_reading_the_table(capsys, tmp_path,
                                                                       argv, error):
    code, stdout, stderr = run(capsys, *argv, "--table", str(tmp_path / "missing.bin"))
    assert (code, stdout, stderr) == (1, "", f"error: {error}\n")


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("namecohort ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_readme_library_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "pubs.csv").write_text(
        "record_id,venue,year,authors\n"
        "a1,X,1970,Leslie One|Mary Smith\n"
        "a2,Y,1990,\"Smith, Mary\"|J. Doe\n")
    (tmp_path / "ledger.csv").write_text(
        "key,gender,year_from,year_to,venue,source_note\n"
        "mary smith,F,,,,biography\n"
        "ann nobody,F,,,,stale\n")
    monkeypatch.chdir(tmp_path)
    namespace = {"ids": [f"id{i:04d}" for i in range(7358)]}
    exec(compile(block, "README.md", "exec"), namespace)
    est, spec = namespace["est"], namespace["spec"]
    assert est.p_female == pytest.approx(0.08)
    assert nc.classify(est) is nc.Gender.MALE
    assert spec.computed_n == 366
    assert len(namespace["subset"]) == 366
    assert [m.override_gender for r in namespace["records"] for m in r.authors] == [
        None, nc.Gender.FEMALE, nc.Gender.FEMALE, None]
    assert [e.key for e in namespace["result"].unmatched] == ["ann nobody"]


def int_flags():
    """(command, flag) for every option of every command that build_parser
    reads with type=int."""
    parser = build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return [(command, action.option_strings[0])
            for command, sub in commands.choices.items()
            for action in sub._actions if action.type is int]


# For each command, the command lines that a flag's value is tried on: the first
# that gives the flag, with its value replaced, or else the first, with the
# flag added ({ids} is a file of ten ids, {corpus} a one-row corpus).
INT_FLAG_RUNS = {
    "pf": [["pf", "Leslie", "--year", "1950"],
           ["pf", "Leslie", "--pub-year", "1990", "--shift", "30"]],
    "shifts": [[*SHIFTS, "--name", "Leslie"], [*SHIFTS, "--top", "3"],
               [*SHIFTS, "--unstable", "--min-births", "500"]],
    "sample": [["sample", "--population-size", "600"],
               ["sample", "--ids-file", "{ids}", "--seed", "1", "--size", "5"]],
    "analyze": [["analyze", "--corpus", "{corpus}", "--bin-width", "5"]],
    "bias-report": [["bias-report", "--corpus", "{corpus}", "--reference-year", "2000"]],
}


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["plus", "minus"])
@pytest.mark.parametrize("command, flag", [pytest.param(*pair, id=" ".join(pair))
                                           for pair in int_flags()])
def test_an_int_flag_far_out_of_range_ends_without_a_traceback(capsys, tmp_path, command, flag,
                                                               value):
    ids, corpus = tmp_path / "ids.txt", tmp_path / "c.csv"
    ids.write_text("".join(f"id{i}\n" for i in range(10)))
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A|George B\n")
    runs = INT_FLAG_RUNS[command]
    argv = next((run for run in runs if flag in run), [*runs[0], flag, "0"])
    argv = [arg.format(ids=ids, corpus=corpus) for arg in argv]
    argv[argv.index(flag) + 1] = str(value)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
    stderr = capsys.readouterr().err
    assert all(len(line) < 200 for line in stderr.splitlines()), stderr[:400]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("venue", ["", "V:"], ids=["all-venues", "group-by-venue"])
def test_analyze_orders_bins_by_start_year(capsys, tmp_path, fmt, venue):
    corpus = tmp_path / "c.csv"
    corpus.write_text("record_id,venue,year,authors\na1,V,2000,Mary A\na2,V,1990,Mary B\n")
    argv = ["analyze", "--corpus", str(corpus), "--bin-width", "999", "--format", fmt]
    code, stdout, _ = run(capsys, *argv, *(["--group-by-venue"] if venue else []))
    assert code == 0
    bins = ([str(row["bin"]) for row in json.loads(stdout)] if fmt == "json"
            else [row.split(",")[0] for row in stdout.splitlines()[1:]])
    assert bins == [f"{venue}999", f"{venue}1998"]


def refusable_flags():
    """(command, flag) for every option of every command that build_parser
    declares with choices or with a type that can refuse a value (a Path
    takes any text)."""
    parser = build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return [(command, action.option_strings[0])
            for command, sub in commands.choices.items() for action in sub._actions
            if action.option_strings and (action.choices is not None
                                          or action.type not in (None, Path))]


@pytest.mark.parametrize("command, flag", [pytest.param(*pair, id=" ".join(pair))
                                           for pair in refusable_flags()])
def test_a_refused_flag_value_is_echoed_in_part(capsys, tmp_path, command, flag):
    runs = INT_FLAG_RUNS[command]
    argv = next((run for run in runs if flag in run), [*runs[0], flag, "0"])
    argv = [arg.format(ids=tmp_path / "ids.txt", corpus=tmp_path / "c.csv") for arg in argv]
    argv[argv.index(flag) + 1] = "x" * 5000
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    stderr = capsys.readouterr().err
    assert f"{'x' * 40!r}… (5000 characters)" in stderr
    assert all(len(line) < 200 for line in stderr.splitlines()), stderr[:400]


def test_an_unknown_command_is_echoed_in_part(capsys):
    for name, echo in (("x" * 40, repr("x" * 40)), ("x" * 5000, f"{'x' * 40!r}… (5000 characters)")):
        with pytest.raises(SystemExit) as excinfo:
            main([name])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert f"invalid choice: {echo} (choose from" in stderr
        assert all(len(line) < 200 for line in stderr.splitlines())


# One command line per command, with {ids}, {corpus} and {dir} as in INT_FLAG_RUNS
# ({dir} is a directory of year files).
COMMAND_RUNS = {**{command: runs[0] for command, runs in INT_FLAG_RUNS.items()},
                "sample": INT_FLAG_RUNS["sample"][1], "ingest": ["ingest", "{dir}", "--out", "t.bin"]}


def command_line(tmp_path, argv):
    """argv with its inputs written under tmp_path and named in place."""
    ids, corpus, year_dir = tmp_path / "ids.txt", tmp_path / "c.csv", tmp_path / "years"
    ids.write_text("".join(f"id{i}\n" for i in range(10)))
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A|George B\n")
    year_dir.mkdir(exist_ok=True)
    (year_dir / "yob1980.txt").write_text("Mary,F,10\n")
    return [arg.format(ids=ids, corpus=corpus, dir=year_dir) for arg in argv]


@pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
def test_a_stray_argument_is_echoed_in_part(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    argv = command_line(tmp_path, COMMAND_RUNS[command])
    for stray, echo in (("y" * 40, "y" * 40), ("y" * 5000, f"{'y' * 40}… (5000 characters)")):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, stray, "zz"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.endswith(f": error: unrecognized arguments: {echo} zz\n")
        assert all(len(line) < 200 for line in stderr.splitlines()), stderr[:400]


def path_flags():
    """(command, flag) for every option of every command that build_parser
    declares with type=Path, and "ssa_dir" for ingest's directory."""
    parser = build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return [(command, action.option_strings[0] if action.option_strings else action.dest)
            for command, sub in commands.choices.items() for action in sub._actions
            if action.type is Path]


@pytest.mark.parametrize("command, flag", [pytest.param(*pair, id=" ".join(pair))
                                           for pair in path_flags()])
def test_a_missing_path_is_echoed_in_part(capsys, tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    argv = command_line(tmp_path, COMMAND_RUNS[command])
    if flag == "ssa_dir":
        argv[1] = "{path}"
    elif flag in argv:
        argv[argv.index(flag) + 1] = "{path}"
    else:
        argv += [flag, "{path}"]
    # Each path is in a missing directory, so an --out fails as it is written.
    for path, echo in (("d/" + "m" * 38, repr("d/" + "m" * 38)),
                       ("d" * 200 + "/" + "m" * 199, f"{'d' * 40!r}… (400 characters)")):
        code, stdout, stderr = run(capsys, *[arg.format(path=path) for arg in argv])
        assert (code, stdout) == (1, "")
        assert stderr.endswith(f"No such file or directory: {echo}\n"), stderr
        assert all(len(line) < 200 for line in stderr.splitlines()), stderr[:400]


def test_a_skip_line_and_an_empty_ingest_echo_their_path_in_part(capsys, tmp_path,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    malformed = "record_id,venue,year,authors\na1,X,19x0,Mary A\na2,X,1980,Mary B\n"
    # A path of up to 120 characters shows whole, as every shorter one did.
    for directory, echo in (("d", "d/c.csv"), ("d" * 114, f"{'d' * 114}/c.csv"),
                            ("d" * 115, f"{'d' * 115}/c.cs… (121 characters)"),
                            ("d" * 250, f"{'d' * 120}… (256 characters)")):
        Path(directory).mkdir(exist_ok=True)
        corpus = Path(directory) / "c.csv"
        corpus.write_text(malformed)
        code, stdout, stderr = run(capsys, "analyze", "--corpus", str(corpus))
        assert code == 0 and stdout.startswith("bin,")
        assert stderr == f"skipped 1 malformed entries in {echo}\n"
        assert all(len(line) < 200 for line in stderr.splitlines()), stderr[:400]
    empty = Path("e" * 250)
    empty.mkdir()
    (empty / "yob1980.txt").write_text("")
    code, stdout, stderr = run(capsys, "ingest", str(empty), "--out", "t.bin")
    assert (code, stdout) == (1, "")
    assert stderr == f"error: year files in {'e' * 120}… (250 characters) contained no records\n"
    assert all(len(line) < 200 for line in stderr.splitlines()), stderr[:400]


def test_an_unusable_dblp_entity_or_encoding_is_echoed_in_part(capsys, tmp_path):
    dtd = '<!DOCTYPE dblp SYSTEM "dblp.dtd">'
    entity, encoding = tmp_path / "entity.xml", tmp_path / "encoding.xml"
    entity.write_text(f'<?xml version="1.0"?>{dtd}<dblp><article key="a">'
                      f'<author>Ann &{"x" * 5000};</author><year>1990</year></article></dblp>')
    encoding.write_text(f'<?xml version="1.0" encoding="{"x" * 5000}"?><dblp></dblp>')
    for corpus, problem in ((entity, "undefined entity &"), (encoding, "unknown encoding: ")):
        code, stdout, stderr = run(capsys, "analyze", "--corpus", str(corpus))
        assert (code, stdout) == (1, "")
        assert f"{problem}{'x' * 40}… (5000 characters)" in stderr
        assert all(len(line) < 200 for line in stderr.splitlines()), stderr[:400]


def test_an_unmatched_ledger_warning_echoes_its_entry_in_part(tmp_path):
    corpus, ledger = tmp_path / "c.csv", tmp_path / "l.csv"
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A\n")
    ledger.write_text("key,gender,year_from,year_to,venue,source_note\n"
                      f"{'k' * 5000},F,{'1' * 4000},,{'v' * 3000},bio\nann b,M,,,,obit\n")
    proc = subprocess.run(
        [sys.executable, "-m", "namecohort.cli", "analyze", "--corpus", str(corpus),
         "--overrides", str(ledger)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(nc.__file__).parent.parent)))
    assert proc.stderr.splitlines() == [
        f"override entry never matched: {'k' * 40!r}… (5000 characters) (scope venue="
        f"{'v' * 40!r}… (3000 characters) years={'1' * 40}… (4000 characters)-None)",
        "override entry never matched: 'ann b' (scope venue=None years=None-None)",
    ]


def test_a_snapshot_name_is_echoed_in_part(capsys, tmp_path):
    table = tmp_path / "t.bin"
    ssa.write_snapshot(nc.NameYearTable({("x" * 5000, 1950): (1, 0)}), table)
    data = table.read_bytes().replace(b"x" * 5000, b"X" * 5000)
    body = len(ssa.SNAPSHOT_MAGIC) + 1 + ssa._HEADER.size
    header = list(ssa._HEADER.unpack_from(data, body - ssa._HEADER.size))
    header[3] = zlib.crc32(data[body:])  # reseal, so that the name check is reached
    table.write_bytes(data[:body - ssa._HEADER.size] + ssa._HEADER.pack(*header) + data[body:])
    code, stdout, stderr = run(capsys, "pf", "Xx", "--year", "1950", "--table", str(table))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {table}: name {'X' * 40!r}… (5000 characters) is not normalized\n"


# For each command, a command line whose --out names one of its inputs: how
# it names it ({tmp} is the directory of the inputs) and the input it names.
OUT_OVER_INPUT = {
    "ingest": (["ingest", "{tmp}/yd", "--out", "{tmp}/yd/yob2000.txt"], "yd/yob2000.txt"),
    "pf": (["pf", "Leslie", "--year", "1950", "--table", "{tmp}/t.bin", "--out",
            "{tmp}/./t.bin"], "t.bin"),
    "shifts": ([*SHIFTS, "--top", "3", "--table", "{tmp}/t.bin", "--out", "{tmp}/symlink"],
               "t.bin"),
    "sample": (["sample", "--ids-file", "{tmp}/ids.txt", "--seed", "1", "--out",
                "{tmp}/hardlink"], "ids.txt"),
    "analyze": (["analyze", "--corpus", "{tmp}/c.csv", "--out", "{tmp}/c.csv"], "c.csv"),
    "analyze overrides": (["analyze", "--corpus", "{tmp}/c.csv", "--overrides", "{tmp}/l.csv",
                           "--out", "{tmp}/l.csv"], "l.csv"),
    "bias-report": (["bias-report", "--corpus", "{tmp}/c.csv", "--reference-year", "2000",
                     "--table", "{tmp}/t.bin", "--out", "{tmp}/t.bin"], "t.bin"),
}


@pytest.mark.parametrize("case", OUT_OVER_INPUT)
def test_an_out_that_names_an_input_is_refused_before_any_input_is_read(capsys, tmp_path,
                                                                          case):
    (tmp_path / "yd").mkdir()
    for year in (1990, 2000):
        (tmp_path / "yd" / f"yob{year}.txt").write_text("Ann,F,5\n")
    ssa.write_snapshot(nc.load_fixture(), tmp_path / "t.bin")
    (tmp_path / "symlink").symlink_to(tmp_path / "t.bin")
    (tmp_path / "ids.txt").write_text("".join(f"id{i}\n" for i in range(10)))
    os.link(tmp_path / "ids.txt", tmp_path / "hardlink")
    (tmp_path / "c.csv").write_text("record_id,venue,year,authors\na1,X,1980,Mary A\n")
    (tmp_path / "l.csv").write_text("key,gender,year_from,year_to,venue,source_note\n"
                                    "mary a,F,,,,bio\n")
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    argv, name = OUT_OVER_INPUT[case]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert stderr == (f"error: --out {Path(argv[-1])} would overwrite the input "
                      f"{tmp_path / name}\n")
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before
    # a bad setting is still reported first
    if case in ("pf", "bias-report"):
        code, _, stderr = run(capsys, *argv, "--max-fallback", "-1")
        assert (code, stderr) == (1, "error: max_fallback_distance must be >= 0\n")
