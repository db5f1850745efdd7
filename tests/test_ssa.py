import io
import random

import pytest

import namecohort as nc
from namecohort.ssa import (
    SNAPSHOT_MAGIC,
    DuplicateEntryError,
    SnapshotFormatError,
    SsaFormatError,
)


def test_parse_year_file_attaches_year():
    records = nc.parse_year_file(io.StringIO("Johnnie,F,405\nJohnnie,M,1131\n"), 1960)
    assert records == [
        nc.NameCountRecord("johnnie", "F", 405, 1960),
        nc.NameCountRecord("johnnie", "M", 1131, 1960),
    ]


def test_parse_year_file_empty_stream_is_empty_list():
    assert nc.parse_year_file(io.StringIO(""), 1900) == []


@pytest.mark.parametrize("line, fragment", [
    ("Mary,X,10", "invalid sex code"),
    ("Mary,F", "expected 3"),
    ("Mary,F,10,extra", "expected 3"),
    ("Mary,F,ten", "invalid count"),
    ("Mary,F,-3", "invalid count"),
    ("Mary,F,0", "count must be >= 1"),
    (",F,10", "empty name"),
])
def test_parse_year_file_rejects_malformed_lines(line, fragment):
    with pytest.raises(SsaFormatError) as excinfo:
        nc.parse_year_file([line], 1950)
    assert excinfo.value.lineno == 1
    assert fragment in str(excinfo.value)


def test_parse_error_reports_correct_line_number():
    stream = io.StringIO("Mary,F,10\nJohn,M,20\nBad,Q,5\n")
    with pytest.raises(SsaFormatError) as excinfo:
        nc.parse_year_file(stream, 1950)
    assert excinfo.value.lineno == 3


def test_parsed_counts_equal_source_literals():
    records = nc.parse_year_file(["Ann,F,007", "Bea,F,2147483648"], 1950)
    assert [r.count for r in records] == [7, 2147483648]


def test_build_table_merges_sexes_per_entry():
    table = nc.build_table([
        nc.NameCountRecord("johnnie", "F", 405, 1960),
        nc.NameCountRecord("johnnie", "M", 1131, 1960),
    ])
    assert table.counts("Johnnie", 1960) == (405, 1131)
    assert table.year_range == (1960, 1960)


def test_build_table_empty_input():
    table = nc.build_table([])
    assert len(table) == 0
    assert table.year_range is None
    assert table.names() == ()


def test_build_table_missing_sex_stored_as_zero():
    table = nc.build_table([nc.NameCountRecord("gertrude", "F", 300, 1950)])
    assert table.counts("gertrude", 1950) == (300, 0)


def test_build_table_rejects_duplicate_triple():
    records = [
        nc.NameCountRecord("a", "F", 5, 1950),
        nc.NameCountRecord("a", "F", 6, 1950),
    ]
    with pytest.raises(DuplicateEntryError) as excinfo:
        nc.build_table(records)
    assert excinfo.value.triple == ("a", "F", 1950)


def test_build_table_is_order_independent(fixture_table):
    lines = []
    for year, text in nc.serialize_table(fixture_table).items():
        lines.extend((line, year) for line in text.splitlines())
    rng = random.Random(42)
    for _ in range(5):
        rng.shuffle(lines)
        records = [nc.parse_year_file([line], year)[0] for line, year in lines]
        assert nc.build_table(records) == fixture_table


def test_serialize_parse_round_trip(fixture_table):
    rebuilt = nc.build_table(
        record
        for year, text in nc.serialize_table(fixture_table).items()
        for record in nc.parse_year_file(io.StringIO(text), year)
    )
    assert rebuilt == fixture_table


def test_table_lookup_normalizes_queried_name(fixture_table):
    assert fixture_table.counts("LESLIE", 1900) == fixture_table.counts("leslie", 1900)
    assert ("Leslie", 1900) in fixture_table


def test_table_rejects_empty_and_negative_entries():
    with pytest.raises(ValueError):
        nc.NameYearTable({("a", 1950): (0, 0)})
    with pytest.raises(ValueError):
        nc.NameYearTable({("a", 1950): (-1, 5)})


def test_fixture_pins_reference_counts(fixture_table):
    assert fixture_table.counts("Johnnie", 1960) == (405, 1131)
    assert nc.p_female(fixture_table, "Leslie", 1900).p_female == pytest.approx(0.08)
    assert nc.p_female(fixture_table, "Leslie", 2000).p_female >= 0.96
    assert nc.p_female(fixture_table, "Mary", 1950).p_female >= 0.99
    assert nc.p_female(fixture_table, "George", 1950).p_female <= 0.01
    for year in (1900, 1925, 1950, 1975, 2000):
        assert fixture_table.counts("George", year) is not None
        assert fixture_table.counts("Mary", year) is not None


def test_fixture_shift_names_cross_half_between_1930_and_2000(fixture_table):
    for name in ("addison", "jan", "kendall", "madison", "morgan", "sidney"):
        ps = [nc.p_female(fixture_table, name, y).p_female for y in (1950, 1975, 2000)]
        assert (min(ps) < 0.5 < max(ps)), name


def test_load_directory_reads_year_from_filename(tmp_path):
    (tmp_path / "yob1980.txt").write_text("Ada,F,100\n")
    (tmp_path / "yob1981.txt").write_text("Ada,F,120\nAda,M,5\n")
    (tmp_path / "notes.txt").write_text("ignored\n")
    table = nc.load_directory(tmp_path)
    assert table.counts("ada", 1980) == (100, 0)
    assert table.counts("ada", 1981) == (120, 5)
    assert table.year_range == (1980, 1981)


def test_load_directory_without_year_files_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="no yobYYYY.txt year files"):
        nc.load_directory(tmp_path)


def test_load_directory_reports_file_and_line(tmp_path):
    (tmp_path / "yob1980.txt").write_text("Ada,F,100\nAda,Q,5\n")
    with pytest.raises(SsaFormatError) as excinfo:
        nc.load_directory(tmp_path)
    assert "yob1980.txt" in str(excinfo.value)
    assert excinfo.value.lineno == 2


def test_snapshot_round_trip(tmp_path, fixture_table):
    path = tmp_path / "table.csv"
    nc.write_snapshot(fixture_table, path)
    assert path.read_text().startswith(SNAPSHOT_MAGIC)
    assert nc.read_snapshot(path) == fixture_table


def test_snapshot_rejects_unversioned_file(tmp_path):
    path = tmp_path / "stale.csv"
    path.write_text("name,year,female_count,male_count\nada,1980,1,2\n")
    with pytest.raises(SnapshotFormatError):
        nc.read_snapshot(path)


def test_snapshot_of_empty_table_round_trips(tmp_path):
    path = tmp_path / "empty.csv"
    empty = nc.build_table([])
    nc.write_snapshot(empty, path)
    assert nc.read_snapshot(path) == empty


def test_record_invariants_enforced():
    with pytest.raises(ValueError):
        nc.NameCountRecord("ada", "X", 5, 1950)
    with pytest.raises(ValueError):
        nc.NameCountRecord("ada", "F", 0, 1950)
    with pytest.raises(ValueError):
        nc.NameCountRecord("", "F", 5, 1950)


def test_snapshot_rejects_corrupt_numeric_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"{SNAPSHOT_MAGIC}\nname,year,female_count,male_count\n"
                    "ada,198x,1,2\n")
    with pytest.raises(SnapshotFormatError, match="non-integer"):
        nc.read_snapshot(path)


def test_table_rejects_keys_that_normalize_alike():
    with pytest.raises(DuplicateEntryError) as excinfo:
        nc.NameYearTable({("Leslie", 1900): (1, 2), ("leslie", 1900): (3, 4)})
    assert excinfo.value.triple == ("leslie", None, 1900)


def test_snapshot_rejects_repeated_row_naming_its_line(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(f"{SNAPSHOT_MAGIC}\nname,year,female_count,male_count\n"
                    "ada,1980,1,2\nbob,1980,0,4\nada,1980,5,6\n")
    with pytest.raises(DuplicateEntryError, match=r"dup\.csv:5: .*\(ada, 1980\)"):
        nc.read_snapshot(path)
