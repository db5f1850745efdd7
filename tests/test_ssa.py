import io
import itertools
import random
import tracemalloc
from array import array
from importlib import resources

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
    oracle_first_empty,
    oracle_first_fall,
    oracle_p,
    oracle_snapshot,
    oracle_snapshot_rows,
    random_counts,
)

FIXTURE_DIR = resources.files("namecohort") / "data" / "ssa_fixture"


def test_parse_year_file_attaches_year():
    rows = nc.parse_year_file(io.StringIO("Johnnie,F,405\nJohnnie,M,1131\n"), 1960)
    assert rows == [("johnnie", "F", 405, 1960), ("johnnie", "M", 1131, 1960)]


def test_parse_year_file_empty_stream_is_empty_list():
    assert nc.parse_year_file(io.StringIO(""), 1900) == []


ENTRY_POINTS = ("parse_year_file", "load_directory")


def on_both_entry_points(argnames, cases, ids, plain):
    """Parametrize over each case read through both entry points, as "entry"
    plus argnames: the run through the entry point named plain keeps the
    case's id, and the other run's id ends in that entry point's name."""
    return pytest.mark.parametrize("entry, " + argnames, [
        pytest.param(entry, *case, id=case_id if entry == plain else f"{case_id}-{entry}")
        for entry in ENTRY_POINTS for case, case_id in zip(cases, ids)])


def read_year_file(entry, directory, data, year=1980):
    """Write data as the directory's year file and read it through the entry
    point: the table load_directory builds, or the rows of parse_year_file
    over the file opened as load_directory opens it."""
    path = directory / f"yob{year}.txt"
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    if entry == "load_directory":
        return nc.load_directory(directory)
    with open(path, encoding="utf-8-sig") as stream:
        return nc.parse_year_file(stream, year, str(path))


MALFORMED_LINES = [
    ("Mary,X,10", "invalid sex code"),
    ("Mary,F", "expected 3"),
    ("Mary,F,10,extra", "expected 3"),
    ("Mary,F,ten", "invalid count"),
    ("Mary,F,-3", "invalid count"),
    ("Mary,F,0", "count must be >= 1"),
    (",F,10", "empty name"),
]


@on_both_entry_points("line, fragment", MALFORMED_LINES,
                      ids=["-".join(case) for case in MALFORMED_LINES], plain="parse_year_file")
def test_parse_year_file_rejects_malformed_lines(tmp_path, entry, line, fragment):
    with pytest.raises(SsaFormatError) as excinfo:
        read_year_file(entry, tmp_path, f"Ada,F,100\n\n{line}\nBea,F,5\n", 1950)
    assert excinfo.value.lineno == 3
    assert str(excinfo.value).startswith(f"{tmp_path / 'yob1950.txt'}:3: ")
    assert fragment in str(excinfo.value)


@on_both_entry_points("count", [("1" * 5000,), ("\uff15",), ("1\u0661",), (str(2**32),)],
                      ids=["5000-digits", "fullwidth-5", "arabic-indic-1", "above-4-bytes"],
                      plain="load_directory")
def test_count_that_is_not_plain_ascii_digits_or_too_long_names_path_and_line(tmp_path, entry,
                                                                              count):
    with pytest.raises(SsaFormatError, match=r"yob1980\.txt:2: invalid count") as excinfo:
        read_year_file(entry, tmp_path, f"Ada,F,100\nBea,F,{count}\n")
    assert excinfo.value.lineno == 2


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_name_and_sex_repeated_within_one_file_is_refused_at_its_line(tmp_path, entry):
    # The male row of the same name is no repeat; the second female row is.
    data = "Ada,F,100\nAda,M,9\nBea,F,40\n\nADA,F,7\nCy,M,5\n"
    with pytest.raises(DuplicateEntryError, match=r"yob1980\.txt:5: duplicate record for "
                                                  r"\(ada, F, 1980\)$") as excinfo:
        read_year_file(entry, tmp_path, data)
    assert excinfo.value.triple == ("ada", "F", 1980)


def test_parse_year_file_without_a_path_names_the_line_of_a_repeat():
    with pytest.raises(DuplicateEntryError, match=r"^line 3: duplicate record for "
                                                  r"\(bo, M, 1950\)$"):
        nc.parse_year_file(["Bo,M,5", "Al,F,6", "bo,M,7"], 1950)


def test_parse_year_file_gives_females_then_males_in_file_order():
    rows = nc.parse_year_file(["Zed,M,9", "Bea,F,40", "Ada,M,5", "Ada,F,100"], 1950)
    assert [(name, sex) for name, sex, _, _ in rows] == [
        ("bea", "F"), ("ada", "F"), ("zed", "M"), ("ada", "M")]


def test_parse_error_reports_correct_line_number():
    stream = io.StringIO("Mary,F,10\nJohn,M,20\nBad,Q,5\n")
    with pytest.raises(SsaFormatError) as excinfo:
        nc.parse_year_file(stream, 1950)
    assert excinfo.value.lineno == 3


def test_parsed_counts_equal_source_literals():
    rows = nc.parse_year_file(["Ann,F,007", "Bea,F,2147483648"], 1950)
    assert [count for _, _, count, _ in rows] == [7, 2147483648]


def test_build_table_merges_sexes_per_entry():
    table = nc.build_table([("johnnie", "F", 405, 1960), ("johnnie", "M", 1131, 1960)])
    assert table.counts("Johnnie", 1960) == (405, 1131)
    assert table.year_range == (1960, 1960)


def test_build_table_empty_input():
    table = nc.build_table([])
    assert len(table) == 0
    assert table.year_range is None
    assert table.names() == ()


def test_build_table_missing_sex_stored_as_zero():
    table = nc.build_table([("gertrude", "F", 300, 1950)])
    assert table.counts("gertrude", 1950) == (300, 0)


def test_build_table_rejects_duplicate_triple():
    with pytest.raises(DuplicateEntryError) as excinfo:
        nc.build_table([("a", "F", 5, 1950), ("a", "F", 6, 1950)])
    assert excinfo.value.triple == ("a", "F", 1950)


def test_build_table_is_order_independent(fixture_table):
    lines = []
    for year, path in ssa.iter_year_files(FIXTURE_DIR):
        lines.extend((line, year) for line in path.read_text(encoding="utf-8").splitlines())
    rng = random.Random(42)
    for _ in range(5):
        rng.shuffle(lines)
        rows = [row for line, year in lines for row in nc.parse_year_file([line], year)]
        assert nc.build_table(rows) == fixture_table


def test_table_lookup_normalizes_queried_name(fixture_table):
    assert fixture_table.counts("LESLIE", 1900) == fixture_table.counts("leslie", 1900)
    assert ("Leslie", 1900) in fixture_table


def test_an_absent_year_of_a_present_name_has_no_counts(fixture_table):
    assert fixture_table.counts("leslie", 1900) is not None
    assert fixture_table.counts("leslie", 1901) is None
    assert ("leslie", 1901) not in fixture_table


def test_a_table_never_equals_another_type(fixture_table):
    assert (fixture_table == object()) is False


def test_repr_gives_entries_and_year_range(fixture_table):
    assert repr(fixture_table) == "NameYearTable(71 entries, years 1900-2000)"
    assert repr(nc.NameYearTable({})) == "NameYearTable(0 entries, years empty)"


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


def random_year_files(rng, directory):
    """Write seeded year files and return their {(name, year): (female, male)}.

    Names carry F rows only, M rows only or both, in spellings that vary by
    row but normalize alike; each file interleaves its F and M rows, holds
    blank lines, and ends its lines in LF or CRLF, and some start with a
    byte-order mark. The mapping keys each entry by one of its raw spellings.
    """
    spellings = [str.lower, str.capitalize, str.upper, lambda w: w.replace("a", "\u00e1")]
    names = rng.sample(VALID_NAMES, rng.randint(3, 40))
    counts = {}
    for k, year in enumerate(sorted(rng.sample(range(1880, 2024), rng.randint(2, 8)))):
        rows = []
        for i, name in enumerate(names):
            if rng.random() < 0.3:
                continue
            # by i % 3: F rows only, M rows only, both
            female = rng.randint(5, 5000) if i % 3 != 1 else 0
            male = rng.randint(5, 5000) if i % 3 != 0 else 0
            female_raw, male_raw = (rng.choice(spellings)(name) for _ in range(2))
            if female:
                rows.append(f"{female_raw},F,{female}")
            if male:
                rows.append(f"{male_raw},M,{male}")
            counts[(female_raw, year)] = (female, male)
        rng.shuffle(rows)
        for _ in range(rng.randint(0, 3)):
            rows.insert(rng.randint(0, len(rows)), rng.choice(["", "  "]))
        end = "\r\n" if k % 2 else "\n"
        bom = "\ufeff" if k % 3 == 0 else ""
        (directory / f"yob{year}.txt").write_bytes((bom + end.join(rows) + end).encode())
    return counts


@pytest.mark.parametrize("seed", range(8))
def test_table_build_entry_points_agree(tmp_path, seed):
    counts = random_year_files(random.Random(seed), tmp_path)
    loaded = nc.load_directory(tmp_path)
    rows = []
    for year, path in ssa.iter_year_files(tmp_path):
        with open(path, encoding="utf-8-sig") as stream:
            rows.extend(nc.parse_year_file(stream, year, str(path)))
    tables = [loaded, nc.build_table(rows), nc.NameYearTable(counts)]
    assert tables[0] == tables[1] == tables[2]
    assert table_counts(loaded) == {(nc.normalize_name(name), year): value
                                    for (name, year), value in counts.items()}
    snapshots = []
    for i, table in enumerate(tables):
        nc.write_snapshot(table, tmp_path / f"table{i}.bin")
        snapshots.append((tmp_path / f"table{i}.bin").read_bytes())
    assert snapshots[0] == snapshots[1] == snapshots[2]


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
        nc.build_table([("ada", "X", 5, 1950)])
    with pytest.raises(ValueError):
        nc.build_table([("ada", "F", 0, 1950)])
    with pytest.raises(ValueError):
        nc.build_table([("", "F", 5, 1950)])


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


# Years and counts at the edges of a lane's low bits and of its range.
EDGE_YEARS = (0, 1, 32766, 32767, 32768, 32769, 65534, 65535)
EDGE_COUNTS = (0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1)


def random_columns(rng: random.Random, n_names: int, faults: float):
    """Offsets and the years, female and male columns of n_names names of
    one to seven entries, drawn half from the edge values. A name's years
    rise, except that with probability faults they are left unsorted or get
    a repeat; an entry's counts are both 0 with probability faults."""
    offsets, years = array(ssa._U32, [0]), array(ssa._YEAR)
    females, males = array(ssa._U32), array(ssa._U32)
    for _ in range(n_names):
        drawn = [rng.choice(EDGE_YEARS) if rng.random() < 0.5 else rng.randrange(2**16)
                 for _ in range(rng.randint(1, 7))]
        shape = rng.random()
        name_years = (sorted(set(drawn)) if shape >= faults else drawn if shape < faults / 2
                      else sorted(drawn + drawn[:1]))
        years.extend(name_years)
        offsets.append(len(years))
        for _ in name_years:
            female, male = (rng.choice(EDGE_COUNTS) if rng.random() < 0.5
                            else rng.randrange(2**32) for _ in "fm")
            if rng.random() < faults:
                female = male = 0
            elif not (female or male):
                female = rng.choice(EDGE_COUNTS[1:])
            females.append(female)
            males.append(male)
    return offsets, years, females, males


@pytest.mark.parametrize("block", [1, 2, 3, 8, 64, ssa._CHECK_BLOCK])
def test_lane_checks_agree_with_the_per_entry_checks(monkeypatch, block):
    monkeypatch.setattr(ssa, "_CHECK_BLOCK", block)
    rng = random.Random(block)
    outcomes, later = set(), set()
    for _ in range(400):
        offsets, years, females, males = random_columns(rng, rng.randint(0, 40),
                                                        rng.choice((0, 0.01, 0.1, 0.5)))
        fall, empty = oracle_first_fall(years, offsets), oracle_first_empty(females, males)
        assert ssa._first_fall(years, offsets) == fall, (list(offsets), list(years))
        assert ssa._first_empty(females, males) == empty, (list(females), list(males))
        outcomes.add((fall >= 0, empty >= 0))
        later |= {kind for kind, k in (("fall", fall), ("empty", empty)) if k >= block}
    # Clean and faulty columns, and with small blocks faults of both kinds
    # found past the first block.
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}
    assert later == {"fall", "empty"} or block > 8


@pytest.mark.parametrize("block", [1, 2, 5, ssa._CHECK_BLOCK])
def test_lane_checks_compare_every_pair_of_edge_values(monkeypatch, block):
    # Each edge pair sits between neighbours that fill every bit of their lanes,
    # and in a name of its own next to names of extreme years.
    monkeypatch.setattr(ssa, "_CHECK_BLOCK", block)
    for a, b in itertools.product(EDGE_YEARS, repeat=2):
        years = array(ssa._YEAR, [65535, 0, a, b, 65535, 0])
        for offsets in ([0, 1, 2, 4, 5, 6], [0, 2, 4, 6], [0, 6]):
            offsets = array(ssa._U32, offsets)
            assert ssa._first_fall(years, offsets) == oracle_first_fall(years, offsets), \
                (a, b, list(offsets))
    for female, male in itertools.product(EDGE_COUNTS, repeat=2):
        for neighbour in (0, 2**31, 2**32 - 1):
            females = array(ssa._U32, [neighbour, female, neighbour])
            males = array(ssa._U32, [neighbour, male, neighbour])
            assert ssa._first_empty(females, males) == oracle_first_empty(females, males), \
                (female, male, neighbour)
