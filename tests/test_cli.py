import json
from importlib import resources

import pytest

import namecohort as nc
from namecohort.cli import main

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

    def test_ingest_empty_dir_errors(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "ingest", str(tmp_path),
                              "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "no yobYYYY.txt year files" in stderr

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

    def test_net_mode(self, capsys):
        code, stdout, _ = run(capsys, "shifts", "--from", "1925", "--to", "1975",
                              "--unstable", "--net")
        payload = json.loads(stdout)
        assert code == 0
        assert payload["net_female_shift"] > 0

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

    def test_requires_exactly_one_mode(self, capsys):
        code, _, stderr = run(capsys, "shifts", "--from", "1900", "--to", "2000")
        assert code == 1
        assert "choose exactly one" in stderr

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
        [point] = nc.parse_series_json(stdout)
        assert point.n_authors == 2

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

    def test_dblp_corpus_autodetected(self, capsys, tmp_path):
        xml = tmp_path / "c.xml"
        xml.write_bytes(b'<dblp><article key="a"><author>Mary A</author>'
                        b'<year>1980</year></article></dblp>')
        code, stdout, _ = run(capsys, "analyze", "--corpus", str(xml))
        assert code == 0
        assert stdout.splitlines()[1].startswith("1980,")


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
