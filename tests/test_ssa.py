import io
import itertools
import random
import tracemalloc

import pytest

import namecohort as nc
from namecohort import ssa
from namecohort.ssa import (
    SNAPSHOT_MAGIC,
    DuplicateEntryError,
    SnapshotFormatError,
    SsaFormatError,
)
from oracles import (
    EXTRA_YEARS,
    SAMPLE_YEARS,
    oracle_p,
    oracle_snapshot,
    oracle_snapshot_rows,
    random_counts,
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


@pytest.mark.parametrize("count", ["1" * 5000, "\uff15", "1\u0661", str(2**32)],
                         ids=["5000-digits", "fullwidth-5", "arabic-indic-1", "above-4-bytes"])
def test_count_that_is_not_plain_ascii_digits_or_too_long_names_path_and_line(tmp_path, count):
    (tmp_path / "yob1980.txt").write_text(f"Ada,F,100\nBea,F,{count}\n", encoding="utf-8")
    with pytest.raises(SsaFormatError, match=r"yob1980\.txt:2: invalid count") as excinfo:
        nc.load_directory(tmp_path)
    assert excinfo.value.lineno == 2


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


@pytest.mark.parametrize("name", ["yob\uff11\uff19\uff18\uff10.txt", "yob1980.txt\n"],
                         ids=["fullwidth-digits", "trailing-newline"])
def test_only_an_ascii_year_file_name_is_a_year_file(tmp_path, name):
    (tmp_path / name).write_text("Ada,F,7\n")
    with pytest.raises(FileNotFoundError, match="no yobYYYY.txt year files"):
        nc.load_directory(tmp_path)
    (tmp_path / "yob1980.txt").write_text("Ada,F,100\n")
    assert [path.name for _, path in ssa.iter_year_files(tmp_path)] == ["yob1980.txt"]
    assert nc.load_directory(tmp_path).counts("ada", 1980) == (100, 0)


def test_load_directory_reports_file_and_line(tmp_path):
    (tmp_path / "yob1980.txt").write_text("Ada,F,100\nAda,Q,5\n")
    with pytest.raises(SsaFormatError) as excinfo:
        nc.load_directory(tmp_path)
    assert "yob1980.txt" in str(excinfo.value)
    assert excinfo.value.lineno == 2


def test_load_directory_rejects_a_repeated_row_naming_the_repeat(tmp_path):
    (tmp_path / "yob1980.txt").write_text("Ada,F,100\nBea,F,50\nAda,F,7\n")
    with pytest.raises(DuplicateEntryError, match=r"yob1980\.txt:3: .*\(ada, F, 1980\)"):
        nc.load_directory(tmp_path)


def test_load_directory_rejects_rows_that_normalize_alike(tmp_path):
    # Each file holds one year, so only rows of one file can share a year.
    (tmp_path / "yob1980.txt").write_text("Jose,M,100\n")
    (tmp_path / "yob1981.txt").write_text("Jose,M,90\nJOS\u00c9,M,12\n", encoding="utf-8")
    with pytest.raises(DuplicateEntryError,
                       match=r"yob1981\.txt:2: .*\(jose, M, 1981\)") as excinfo:
        nc.load_directory(tmp_path)
    assert excinfo.value.triple == ("jose", "M", 1981)


@pytest.mark.parametrize("later", [b"Ada,F,100\nAda,X,5\n", b"Ada,F,100\nAd\xff,F,5\n"],
                         ids=["malformed", "not-utf8"])
def test_load_directory_reports_a_duplicate_before_a_bad_later_file(tmp_path, later):
    (tmp_path / "yob1980.txt").write_text("Ada,F,100\nAda,F,100\n")
    (tmp_path / "yob1990.txt").write_bytes(later)
    with pytest.raises(DuplicateEntryError, match=r"yob1980\.txt:2: .*\(ada, F, 1980\)"):
        nc.load_directory(tmp_path)


def test_load_directory_drops_a_byte_order_mark(tmp_path):
    (tmp_path / "yob1980.txt").write_bytes(b"\xef\xbb\xbfMary,F,100\n")
    table = nc.load_directory(tmp_path)
    assert table.names() == ("mary",)
    assert table.counts("mary", 1980) == (100, 0)


def test_load_directory_f_and_m_rows_of_one_name_and_year_are_one_entry(tmp_path):
    (tmp_path / "yob1980.txt").write_text("Ada,F,100\nBea,F,40\nAda,M,9\n")
    table = nc.load_directory(tmp_path)
    assert table.counts("ada", 1980) == (100, 9)
    assert len(table) == 2


# Enough valid rows that the bad byte lies past the first chunk a text stream decodes.
VALID_NAMES = ["".join(letters) for letters in itertools.product("abcdefghij", repeat=4)][:3000]


def test_year_file_bytes_that_are_not_utf8_name_file_and_line(tmp_path):
    path = tmp_path / "yob1980.txt"
    rows = "".join(f"{name},F,{i + 5}\n" for i, name in enumerate(VALID_NAMES))
    path.write_bytes(rows.encode() + b"Ad\xff,F,4\nZed,M,5\n")
    with pytest.raises(SsaFormatError, match=r"yob1980\.txt:3001: not UTF-8") as excinfo:
        nc.load_directory(tmp_path)
    assert excinfo.value.lineno == 3001
    with open(path, encoding="utf-8") as stream:
        with pytest.raises(SsaFormatError, match=r"yob1980\.txt:3001: not UTF-8"):
            nc.parse_year_file(stream, 1980, str(path))


def test_undecodable_line_matches_the_whole_file_decode(tmp_path, monkeypatch):
    # Chunks of a few bytes split multibyte characters, and bad bytes, across
    # chunk edges.
    monkeypatch.setattr(ssa, "_CHUNK_SIZE", 5)
    pieces = [b"a", b"\n", "\u00e9".encode(), "\u20ac".encode(), "\U0001d11e".encode()]
    bad = [b"\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80", b"\x80"]
    path = tmp_path / "data.txt"
    for seed in range(300):
        rng = random.Random(seed)
        data = b"".join(rng.choice(pieces) for _ in range(rng.randint(0, 40)))
        k = rng.randint(0, len(data))
        data = data[:k] + rng.choice(bad) + data[k:]
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as excinfo:
            data.decode("utf-8")
        assert ssa._undecodable_line(path) == data.count(b"\n", 0, excinfo.value.start) + 1


def test_undecodable_line_of_a_file_that_is_utf8_is_an_error(tmp_path):
    path = tmp_path / "data.txt"
    path.write_bytes("Jos\u00e9,M,5\n".encode())
    with pytest.raises(ValueError, match="changed while it was read"):
        ssa._undecodable_line(path)


def test_undecodable_line_reads_in_bounded_memory(tmp_path):
    path = tmp_path / "big.txt"
    path.write_bytes(b"abcdefghi\n" * (12 * 2**20 // 10) + b"Ad\xff,F,5\n")
    tracemalloc.start()
    try:
        line = ssa._undecodable_line(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert line == 12 * 2**20 // 10 + 1
    assert peak < 3 << 20  # a few chunks, not the 12 MiB file


def test_snapshot_round_trip(tmp_path, fixture_table):
    path = tmp_path / "table.bin"
    nc.write_snapshot(fixture_table, path)
    assert path.read_bytes().startswith(SNAPSHOT_MAGIC.encode() + b"\n")
    assert nc.read_snapshot(path) == fixture_table


def table_counts(table):
    """A table's {(name, year): (female, male)} read through its public columns."""
    counts = {}
    for name in table.names():
        lo, hi = table.key_span(name)
        for year, female, male in zip(table.years[lo:hi], table.females[lo:hi],
                                      table.males[lo:hi]):
            counts[(name, year)] = (female, male)
    return counts


def test_snapshot_bytes_follow_the_documented_layout(tmp_path, fixture_table):
    rng = random.Random(11)
    for i, table in enumerate([fixture_table, nc.build_table([])]
                              + [nc.NameYearTable(random_counts(rng, 6)) for _ in range(5)]):
        path = tmp_path / f"table{i}.bin"
        nc.write_snapshot(table, path)
        assert path.read_bytes() == oracle_snapshot(oracle_snapshot_rows(table_counts(table)))


def test_snapshot_columns_are_little_endian_on_either_byte_order(tmp_path, fixture_table,
                                                                  monkeypatch):
    # A machine of the other byte order swaps each column on the way out and in.
    path = tmp_path / "table.bin"
    nc.write_snapshot(fixture_table, path)
    monkeypatch.setattr(ssa, "_SWAP", True)
    swapped = tmp_path / "swapped.bin"
    nc.write_snapshot(fixture_table, swapped)
    assert swapped.read_bytes() != path.read_bytes()
    assert nc.read_snapshot(swapped) == fixture_table


def test_snapshot_rejects_unversioned_file(tmp_path):
    path = tmp_path / "stale.csv"
    path.write_text("name,year,female_count,male_count\nada,1980,1,2\n")
    with pytest.raises(SnapshotFormatError):
        nc.read_snapshot(path)


def test_snapshot_of_empty_table_round_trips(tmp_path):
    path = tmp_path / "empty.bin"
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


def test_table_rejects_keys_that_normalize_alike():
    with pytest.raises(DuplicateEntryError) as excinfo:
        nc.NameYearTable({("Leslie", 1900): (1, 2), ("leslie", 1900): (3, 4)})
    assert excinfo.value.triple == ("leslie", None, 1900)


@pytest.mark.parametrize("counts, fragment", [
    ({("ada", 65536): (1, 2)}, "outside the table's range"),
    ({("ada", -1): (1, 2)}, "outside the table's range"),
    ({("ada", 1980): (2**32, 2)}, "outside the table's range"),
    ({("a\nb", 1980): (1, 2)}, "empty or holds a line break"),
    ({("", 1980): (1, 2)}, "empty or holds a line break"),
], ids=["year-too-large", "negative-year", "count-too-large", "line-break", "empty-name"])
def test_table_rejects_what_its_columns_cannot_hold(counts, fragment):
    with pytest.raises(ValueError, match=fragment):
        nc.NameYearTable(counts)


def test_largest_column_values_round_trip(tmp_path):
    table = nc.NameYearTable({("ada", 0): (2**32 - 1, 0), ("ada", 65535): (0, 2**32 - 1)})
    path = tmp_path / "table.bin"
    nc.write_snapshot(table, path)
    assert nc.read_snapshot(path) == table
    assert table.counts("ada", 65535) == (0, 2**32 - 1)


def test_snapshot_rejects_repeated_row_naming_its_line(tmp_path):
    # The snapshot has no lines; the error names the file and the entry.
    path = tmp_path / "dup.bin"
    path.write_bytes(oracle_snapshot([("ada", [(1980, 1, 2)]), ("ada", [(1980, 5, 6)]),
                                      ("bob", [(1980, 0, 4)])]))
    with pytest.raises(DuplicateEntryError, match=r"dup\.bin: .*\(ada, 1980\)"):
        nc.read_snapshot(path)


def test_snapshot_round_trip_preserves_every_lookup(tmp_path):
    rng = random.Random(7)
    cases = [{}] + [random_counts(rng, max_names=4) for _ in range(10)]
    years = SAMPLE_YEARS + EXTRA_YEARS + (1850, 1880, 2020, 2040)
    for i, counts in enumerate(cases):
        table = nc.NameYearTable(counts)
        path = tmp_path / f"table{i}.bin"
        nc.write_snapshot(table, path)
        loaded = nc.read_snapshot(path)
        assert loaded == table and len(loaded) == len(counts)
        assert table_counts(loaded) == counts
        first_year = min((year for _, year in counts), default=None)
        names = sorted({name for name, _ in counts}) + ["absent"]
        for cap in range(31):
            config = nc.ModelConfig(year_shift=30, max_fallback_distance=cap)
            for name in names:
                for year in years:
                    estimate = nc.p_female(loaded, name, year, cap)
                    assert (estimate.p_female, estimate.total) == oracle_p(counts, name, year, cap)
                    shifted = nc.shifted_lookup(loaded, name, year + 30, config)
                    target = year if first_year is None else max(year, first_year)
                    assert shifted.p_female == oracle_p(counts, name, target, cap)[0]


def test_snapshot_rejects_v1_file(tmp_path):
    path = tmp_path / "v1.csv"
    path.write_text("# namecohort-table v1\nname,year,female_count,male_count\n"
                    "ada,1980,1,2\n")
    with pytest.raises(SnapshotFormatError,
                       match=r"unsupported table snapshot.*re-run `namecohort ingest`"):
        nc.read_snapshot(path)


def test_snapshot_rejects_v2_file(tmp_path):
    path = tmp_path / "v2.csv"
    path.write_text("# namecohort-table v2\nname,years,female_counts,male_counts\n"
                    "ada,1980 1981,1 2,3 4\n")
    with pytest.raises(SnapshotFormatError,
                       match=r"unsupported table snapshot.*re-run `namecohort ingest`"):
        nc.read_snapshot(path)


ADA = ("ada", [(1980, 1, 2)])


@pytest.mark.parametrize("rows, header, error, fragment", [
    ([ADA, ("bob", [])], {}, SnapshotFormatError, "name 'bob' has no years"),
    ([ADA, ("bob", [(1980, 1, 3)])], {"offsets": [0, 1, 3]}, SnapshotFormatError,
     "name offsets run 0-3, not over the 2 entries"),
    ([ADA, ("bob", [(1981, 1, 3), (1980, 2, 4)])], {}, SnapshotFormatError,
     r"years of 'bob' out of order \(1981 before 1980\)"),
    ([ADA, ("bob", [(1980, 1, 3), (1980, 2, 4)])], {}, DuplicateEntryError, r"\(bob, 1980\)"),
    ([ADA, ("ada", [(1990, 1, 2)])], {}, DuplicateEntryError, r"\(ada, 1990\)"),
    ([("ADA", [(1990, 1, 2)]), ADA], {}, DuplicateEntryError, r"\(ada, 1990\)"),
    ([ADA, ("bob", [(1980, 1, 3), (1981, 0, 0)])], {}, SnapshotFormatError,
     r"empty entry for \(bob, 1981\)"),
    ([("bob", [(1980, 1, 3)]), ADA], {}, SnapshotFormatError,
     r"names out of order \('bob' before 'ada'\)"),
    ([("Bob", [(1980, 1, 3)]), ADA], {}, SnapshotFormatError, "name 'Bob' is not normalized"),
    ([("", [(1980, 1, 3)]), ADA], {}, SnapshotFormatError, "name 1 is empty"),
    ([ADA, ("bob", [(1980, 1, 3)])], {"offsets": [1, 1, 2]}, SnapshotFormatError,
     "name offsets run 1-2"),
    ([ADA, ("bob", [(1980, 1, 3)])], {"n_names": 3, "offsets": [0, 1, 2, 2]},
     SnapshotFormatError, "name block holds 2 names, header says 3"),
    ([ADA, ("bob", [(1980, 1, 3)])], {"n_entries": 3}, SnapshotFormatError,
     "but its header describes"),
    ([ADA, ("bob", [(1980, 1, 3)])], {"n_entries": 2**63}, SnapshotFormatError,
     "but its header describes"),
    ([ADA, ("bob", [(1980, 1, 3)])], {"block_size": 2**64 - 1}, SnapshotFormatError,
     "but its header describes"),
    ([ADA, ("bob", [(1980, 1, 3)])], {"checksum": 0}, SnapshotFormatError,
     "checksum mismatch"),
], ids=["no-years", "ragged", "out-of-order", "repeated-year", "repeated-name",
        "names-normalize-alike", "zero-entry", "names-out-of-order", "not-normalized",
        "empty-name", "offsets", "name-count", "length", "huge-count", "huge-block",
        "checksum"])
def test_snapshot_rejects_corrupt_row_naming_its_line(tmp_path, rows, header, error, fragment):
    # Each error names the file and the offending name or entry.
    path = tmp_path / "bad.bin"
    path.write_bytes(oracle_snapshot(rows, **header))
    with pytest.raises(error, match=rf"bad\.bin: .*{fragment}"):
        nc.read_snapshot(path)


def test_truncated_snapshot_is_rejected(tmp_path, fixture_table):
    path = tmp_path / "table.bin"
    nc.write_snapshot(fixture_table, path)
    data = path.read_bytes()
    for size in (0, 10, len(SNAPSHOT_MAGIC) + 1, len(SNAPSHOT_MAGIC) + 20, len(data) // 2,
                 len(data) - 1):
        path.write_bytes(data[:size])
        with pytest.raises(SnapshotFormatError, match=r"table\.bin: "):
            nc.read_snapshot(path)


def test_snapshot_bytes_that_are_not_utf8_name_file_and_line(tmp_path):
    path = tmp_path / "bad.bin"
    rows = [(name, [(1980, 1, 2)]) for name in VALID_NAMES]
    path.write_bytes(oracle_snapshot(rows + [(b"zz\xffz", [(1980, 0, 7)]),
                                             ("zzz", [(1980, 0, 5)])]))
    with pytest.raises(SnapshotFormatError,
                       match=r"bad\.bin: name 3001 of the name block is not UTF-8"):
        nc.read_snapshot(path)
