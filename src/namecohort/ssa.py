"""Parsing of per-year baby-name count files and the immutable lookup table.

Input files follow the public birth-registration distribution: one file per
year named ``yobYYYY.txt``, each line exactly ``Name,Sex,Count`` with Sex in
{F, M} and no header. Counts under 5 are absent from the source files; the
table stores such absences as 0 and downstream code treats a 0/0 total as
unknown rather than inventing a prior.
"""

from __future__ import annotations

import codecs
import functools
import os
import re
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from operator import eq, lt, or_, truth
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

from .names import normalize_name

_YEAR_FILE_RE = re.compile(r"yob([0-9]{4})\.txt")

SNAPSHOT_MAGIC = "# namecohort-table v3"
_MAGIC_LINE = SNAPSHOT_MAGIC.encode("ascii") + b"\n"
# Names, entries, name-block bytes and the CRC-32 of the rest, after the
# magic line.
_HEADER = struct.Struct("<QQQI")
# Snapshot columns are little-endian whatever the machine's byte order.
_SWAP = sys.byteorder == "big"


class SsaFormatError(ValueError):
    """A malformed line in a year file; carries the 1-based line number."""

    def __init__(self, message: str, lineno: int, path: str | None = None):
        self.lineno = lineno
        self.path = path
        where = f"{path}:{lineno}" if path else f"line {lineno}"
        super().__init__(f"{where}: {message}")


class DuplicateEntryError(ValueError):
    """The same (name, sex, year) triple, or the same (name, year) table entry
    (sex None), appeared twice; input is corrupt."""

    def __init__(self, name: str, sex: str | None, year: int, where: str | None = None):
        self.triple = (name, sex, year)
        key = f"({name}, {year})" if sex is None else f"({name}, {sex}, {year})"
        prefix = f"{where}: " if where else ""
        super().__init__(f"{prefix}duplicate record for {key}")


class SnapshotFormatError(ValueError):
    """A table snapshot has an unsupported version or breaks a table invariant."""


@dataclass(frozen=True, slots=True)
class NameCountRecord:
    """One name's birth count for one sex in one year."""

    name: str
    sex: str  # "F" or "M"
    count: int
    year: int

    def __post_init__(self):
        if self.sex not in ("F", "M"):
            raise ValueError(f"sex must be F or M, got {self.sex!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not self.name:
            raise ValueError("name must be non-empty")


# Column types: years fit two bytes, counts, and the snapshot's name offsets,
# four.
_YEAR = "H"
_U32 = "I" if array("I").itemsize == 4 else "L"
if array(_YEAR).itemsize != 2 or array(_U32).itemsize != 4:
    raise ImportError("namecohort needs 2-byte 'H' and 4-byte unsigned array types")
_MAX_COUNT = 2**32 - 1
_NO_SPAN = (0, 0)
# The builders' merge state: {name: {year: count}} for females, then males.
_Slots = tuple[dict[str, dict[int, int]], dict[str, dict[int, int]]]
# A table's sorted names and its (offsets, years, females, males) columns.
_Columns = tuple[list[str], array, array, array, array]


class NameYearTable:
    """Immutable map from (name, year) to (female_count, male_count), stored by name.

    Three flat columns of equal length hold every entry: ``years`` (ascending
    within each name) and the ``females`` and ``males`` count for each year.
    Each normalized name owns the slice ``[lo, hi)`` of the columns that
    :meth:`span` returns; names own consecutive slices in sorted order. The
    columns are shared with every reader and must not be modified. Lookups
    normalize the queried name, so table consumers may pass raw-cased names.
    Two keys that normalize to the same (name, year) raise
    DuplicateEntryError.
    """

    __slots__ = ("years", "females", "males", "_offsets", "_names", "_spans", "_year_range")

    def __init__(self, counts: Mapping[tuple[str, int], tuple[int, int]]):
        normalize = functools.cache(normalize_name)
        females: dict[str, dict[int, int]] = {}
        males: dict[str, dict[int, int]] = {}
        for (raw_name, year), (female, male) in counts.items():
            if female < 0 or male < 0:
                raise ValueError(f"negative count for ({raw_name}, {year})")
            if female == 0 and male == 0:
                raise ValueError(f"empty entry for ({raw_name}, {year})")
            name = normalize(raw_name)
            female_years = females.setdefault(name, {})
            male_years = males.setdefault(name, {})
            if year in female_years or year in male_years:
                raise DuplicateEntryError(name, None, year)
            if female:
                female_years[year] = female
            if male:
                male_years[year] = male
        self._set_columns(*_grouped((females, males)))

    @classmethod
    def _from_columns(cls, names: list[str], offsets: array, years: array, females: array,
                      males: array) -> NameYearTable:
        """A table over columns that are already normalized, sorted and checked."""
        table = cls.__new__(cls)
        table._set_columns(names, offsets, years, females, males)
        return table

    def _set_columns(self, names: list[str], offsets: array, years: array, females: array,
                     males: array) -> None:
        self._names = tuple(names)
        self._offsets = offsets
        self.years, self.females, self.males = years, females, males
        self._spans = dict(zip(self._names, zip(offsets, offsets[1:])))
        self._year_range = (
            (min(map(years.__getitem__, offsets[:-1])),
             max(years[hi - 1] for hi in offsets[1:]))
            if names else None
        )

    @property
    def year_range(self) -> tuple[int, int] | None:
        """(min_year, max_year) with data, or None for an empty table."""
        return self._year_range

    def span(self, name: str) -> tuple[int, int]:
        """The name's slice ``(lo, hi)`` of the columns; ``(0, 0)`` when absent."""
        return self.key_span(normalize_name(name))

    def key_span(self, key: str) -> tuple[int, int]:
        """:meth:`span` for a key that is already normalized, such as one of
        :meth:`names`; the key is not normalized again."""
        return self._spans.get(key, _NO_SPAN)

    def counts(self, name: str, year: int) -> tuple[int, int] | None:
        """Exact-year (female, male) counts, or None when absent."""
        lo, hi = self.span(name)
        i = bisect_left(self.years, year, lo, hi)
        if i < hi and self.years[i] == year:
            return self.females[i], self.males[i]
        return None

    def names(self) -> tuple[str, ...]:
        """All names in the table, sorted."""
        return self._names

    def __len__(self) -> int:
        return len(self.years)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return self.counts(*key) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameYearTable):
            return NotImplemented
        return (self._names == other._names and self._offsets == other._offsets
                and self.years == other.years and self.females == other.females
                and self.males == other.males)

    def __repr__(self) -> str:
        span = f"{self._year_range[0]}-{self._year_range[1]}" if self._year_range else "empty"
        return f"NameYearTable({len(self)} entries, years {span})"


def _grouped(slots: _Slots) -> _Columns:
    """The sorted names and the (offsets, years, females, males) columns of
    the slots; a year missing for one sex counts 0 there.

    Raises ValueError for a name that is empty or holds a line break (the
    snapshot's name block could not hold it), and for a year or count
    outside its column's range.
    """
    females, males = slots
    names = sorted(females.keys() | males.keys())
    offsets, years = array(_U32, [0]), array(_YEAR)
    female_column, male_column = array(_U32), array(_U32)
    empty: dict[int, int] = {}
    for name in names:
        if not name or "\n" in name:
            raise ValueError(f"table name {name!r} is empty or holds a line break")
        female, male = females.get(name, empty), males.get(name, empty)
        name_years = sorted(female.keys() | male.keys())
        try:
            years.extend(name_years)
            female_column.extend(map(female.get, name_years, repeat(0)))
            male_column.extend(map(male.get, name_years, repeat(0)))
        except OverflowError:
            raise ValueError(f"a year or count of {name!r} is outside the table's range "
                             f"(years 0-{2**16 - 1}, counts 0-{_MAX_COUNT})") from None
        offsets.append(len(years))
    return names, offsets, years, female_column, male_column


_CHUNK_SIZE = 1 << 20


def _undecodable_line(path: str | Path) -> int:
    """The 1-based line of the file's first byte that is not UTF-8 (a text
    stream decodes in chunks, so its decode error does not say). The file
    is decoded in chunks of _CHUNK_SIZE bytes, so it is never held whole."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line = 1
    with open(path, "rb") as stream:
        while True:
            chunk = stream.read(_CHUNK_SIZE)
            # The bytes of a character split at the last chunk's end, which
            # the decoder still holds; they hold no line break.
            held = len(decoder.getstate()[0])
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                return line + chunk.count(b"\n", 0, max(exc.start - held, 0))
            if not chunk:
                raise ValueError(f"{path}: changed while it was read")
            line += chunk.count(b"\n")


def _rows(stream: IO[str] | Iterable[str], path: str | None,
          normalize: Callable[[str], str]) -> Iterator[tuple[int, str, str, int]]:
    """(line number, normalized name, sex, count) for each row of a year file.

    Raises SsaFormatError on the first malformed line (wrong field count,
    sex outside {F, M}, a count that is not ASCII digits, has more digits
    than int() converts or lies outside 1-_MAX_COUNT, empty name, or, when
    the path is given, bytes that are not UTF-8). Blank lines are skipped.
    """
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise SsaFormatError(f"expected 3 comma-separated fields, got {len(fields)}",
                                     lineno, path)
            raw_name, sex, raw_count = fields
            if sex != "F" and sex != "M":
                raise SsaFormatError(f"invalid sex code {sex!r}", lineno, path)
            if not (raw_count.isascii() and raw_count.isdecimal()):
                raise SsaFormatError(f"invalid count {raw_count!r}", lineno, path)
            try:
                count = int(raw_count)
            except ValueError:  # more digits than int() converts
                raise SsaFormatError("invalid count: too many digits", lineno, path) from None
            if not 0 < count <= _MAX_COUNT:
                raise SsaFormatError(f"invalid count: count must be >= 1 and <= {_MAX_COUNT}",
                                     lineno, path)
            name = normalize(raw_name)
            if not name:
                raise SsaFormatError("empty name", lineno, path)
            yield lineno, name, sex, count
    except UnicodeDecodeError as exc:
        if path is None:
            raise
        raise SsaFormatError(f"not UTF-8 ({exc.reason})", _undecodable_line(path), path) from None


def _fill(slots: _Slots, year: int, rows: Iterable[tuple[int | None, str, str, int]],
          path: str | None = None) -> None:
    """Put each (line number, name, sex, count) row of one year into its slot:
    ``slots[sex][name][year] = count``.

    A slot that is already filled is a repeated (name, sex, year) triple,
    which the source never has: DuplicateEntryError is raised at the first
    such row, naming its path and line when the path is given.
    """
    females, males = slots
    for lineno, name, sex, count in rows:
        side = females if sex == "F" else males
        by_year = side.get(name)
        if by_year is None:
            side[name] = {year: count}
        elif year not in by_year:
            by_year[year] = count
        else:
            raise DuplicateEntryError(name, sex, year, f"{path}:{lineno}" if path else None)


def parse_year_file(stream: IO[str] | Iterable[str], year: int,
                    path: str | None = None) -> list[NameCountRecord]:
    """Parse one year file into records, attaching the given year.

    Raises SsaFormatError on the first malformed line (wrong field count,
    sex outside {F, M}, a count that is not an integer or lies outside the
    count column's range 1-4294967295, empty name, or, when the stream was
    opened from path, bytes that are not UTF-8). An empty stream yields an
    empty list.
    """
    return [NameCountRecord(name, sex, count, year)
            for _, name, sex, count in _rows(stream, path, normalize_name)]


def build_table(records: Iterable[NameCountRecord]) -> NameYearTable:
    """Merge per-sex records into a table; order of the input is irrelevant.

    Raises DuplicateEntryError if a (name, sex, year) triple repeats: the
    source distribution never repeats a triple, so duplication signals
    corrupted input rather than data to be summed.
    """
    normalize = functools.cache(normalize_name)
    slots: _Slots = ({}, {})
    for record in records:
        _fill(slots, record.year, [(None, normalize(record.name), record.sex, record.count)])
    return NameYearTable._from_columns(*_grouped(slots))


def serialize_table(table: NameYearTable) -> dict[int, str]:
    """Render the table back to per-year file texts in the source format.

    Female rows come first (descending count, then name), then male rows,
    matching the layout of the public distribution. Zero counts are
    omitted, so serialize -> parse -> build round-trips exactly.
    """
    by_year: dict[int, list[tuple[str, str, int]]] = {}
    for name in table.names():
        lo, hi = table.key_span(name)
        for year, female, male in zip(table.years[lo:hi], table.females[lo:hi],
                                      table.males[lo:hi]):
            if female:
                by_year.setdefault(year, []).append((name, "F", female))
            if male:
                by_year.setdefault(year, []).append((name, "M", male))
    texts = {}
    for year, rows in by_year.items():
        rows.sort(key=lambda r: (r[1], -r[2], r[0]))
        texts[year] = "".join(f"{name},{sex},{count}\n" for name, sex, count in rows)
    return texts


def iter_year_files(directory: Path) -> Iterator[tuple[int, Path]]:
    """Yield (year, path) for every yobYYYY.txt in the directory, sorted."""
    for path in sorted(Path(directory).iterdir()):
        match = _YEAR_FILE_RE.fullmatch(path.name)
        if match:
            yield int(match.group(1)), path


def load_directory(directory: Path) -> NameYearTable:
    """Parse every year file in a directory and build the merged table.

    One pass puts each row into its (name, sex, year) slot, normalizing each
    distinct raw name once; a byte-order mark at the start of a file is
    dropped. The files are read in name order and the first fault ends the
    load, so no later line is read: FileNotFoundError when the directory
    holds no year files, SsaFormatError at the first malformed line and
    DuplicateEntryError at the first repeated (name, sex, year) row.
    """
    normalize = functools.cache(normalize_name)
    slots: _Slots = ({}, {})
    found = False
    for year, path in iter_year_files(Path(directory)):
        found = True
        with open(path, encoding="utf-8-sig") as stream:
            _fill(slots, year, _rows(stream, str(path), normalize), str(path))
    if not found:
        raise FileNotFoundError(f"no yobYYYY.txt year files found in {directory}")
    return NameYearTable._from_columns(*_grouped(slots))


@functools.lru_cache(maxsize=1)
def load_fixture() -> NameYearTable:
    """Load the bundled miniature table used by tests, docs, and CLI defaults.

    The fixture pins a handful of well-known trajectories: names whose
    gender association drifted over the century (leslie, johnnie, addison,
    jan, kendall, madison, morgan, sidney, arie), stable anchors (george,
    mary, john, elizabeth), and a name that died out mid-century
    (gertrude, female-only rows).
    """
    return load_directory(resources.files("namecohort") / "data" / "ssa_fixture")


def write_snapshot(table: NameYearTable, path: Path) -> None:
    """Write a versioned binary snapshot of the table.

    After the magic line comes a header of three unsigned 64-bit counts
    (names, entries, bytes of the name block) and the CRC-32 of everything
    after the header. Then come the sorted names joined by newlines in
    UTF-8, the name offsets (names + 1 unsigned 32-bit values; name k owns
    entries offsets[k] to offsets[k + 1]), the years (unsigned 16-bit), and
    the female and male counts (unsigned 32-bit). Every number is
    little-endian.
    """
    block = "\n".join(table.names()).encode("utf-8")
    columns = [table._offsets, table.years, table.females, table.males]
    if _SWAP:
        columns = [array(column.typecode, column) for column in columns]
        for column in columns:
            column.byteswap()
    checksum = _checksum(block, columns)
    with open(path, "wb") as stream:
        stream.write(_MAGIC_LINE)
        stream.write(_HEADER.pack(len(table.names()), len(table), len(block), checksum))
        stream.write(block)
        for column in columns:
            column.tofile(stream)


def _read_column(stream: IO[bytes], typecode: str, n: int) -> array:
    column = array(typecode)
    column.fromfile(stream, n)
    return column


def _checksum(block: bytes, columns: list[array]) -> int:
    """The CRC-32 of the name block and then of the columns' stored bytes."""
    crc = zlib.crc32(block)
    for column in columns:
        crc = zlib.crc32(column, crc)
    return crc


def _first_false(values: Iterable[object]) -> int:
    """The index of the first false value, or -1 when every value is true."""
    return bytearray(map(truth, values)).find(0)


def read_snapshot(path: Path) -> NameYearTable:
    """Load a snapshot written by :func:`write_snapshot`.

    The whole file is checked before the table is returned, so a corrupt
    entry fails the load even for a name nobody looks up. A missing or
    different magic line, v1 and v2 snapshots included, raises
    SnapshotFormatError asking for a re-ingest, so a stale snapshot can never
    silently mis-answer. SnapshotFormatError is also raised for a file
    whose length differs from the one its header describes or whose
    contents do not match the header's checksum, and for a name block
    that is not UTF-8 or holds another number of names, an empty or
    unnormalized name, names out of order, offsets that do not cover the
    entries or give a name no years, years out of order within a name, and a
    0/0 entry. A repeated year within a name, or a name that repeats or
    normalizes like another, raises DuplicateEntryError. Each error names
    the path and the offending name or entry.
    """
    with open(path, "rb") as stream:
        size = os.fstat(stream.fileno()).st_size
        if stream.read(len(_MAGIC_LINE)) != _MAGIC_LINE:
            raise SnapshotFormatError(
                f"{path}: unsupported table snapshot (expected {SNAPSHOT_MAGIC!r}); "
                "re-run `namecohort ingest` to rebuild it")
        header = stream.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise SnapshotFormatError(f"{path}: truncated snapshot header")
        n_names, n_entries, block_size, checksum = _HEADER.unpack(header)
        expected = (len(_MAGIC_LINE) + _HEADER.size + block_size + 4 * (n_names + 1)
                    + 10 * n_entries)
        if size != expected:
            raise SnapshotFormatError(
                f"{path}: {size} bytes, but its header describes {expected} "
                f"({n_names} names, {n_entries} entries, {block_size}-byte name block)")
        block = stream.read(block_size)
        columns = [_read_column(stream, typecode, n)
                   for typecode, n in ((_U32, n_names + 1), (_YEAR, n_entries),
                                       (_U32, n_entries), (_U32, n_entries))]
    if _checksum(block, columns) != checksum:
        raise SnapshotFormatError(f"{path}: checksum mismatch; the snapshot is corrupt")
    if _SWAP:
        for column in columns:
            column.byteswap()
    offsets, years, females, males = columns
    try:
        names = block.decode("utf-8").split("\n") if block else []
    except UnicodeDecodeError as exc:
        line = block.count(b"\n", 0, exc.start) + 1
        raise SnapshotFormatError(
            f"{path}: name {line} of the name block is not UTF-8 ({exc.reason})") from None
    if len(names) != n_names:
        raise SnapshotFormatError(
            f"{path}: name block holds {len(names)} names, header says {n_names}")
    _check_columns(str(path), names, offsets, years, females, males)
    return NameYearTable._from_columns(names, offsets, years, females, males)


def _check_columns(where: str, names: list[str], offsets: array, years: array,
                   females: array, males: array) -> None:
    """Raise for decoded snapshot columns that :func:`write_snapshot` cannot
    write; each check is one pass over a whole column."""
    if offsets[0] != 0 or offsets[-1] != len(years):
        raise SnapshotFormatError(
            f"{where}: name offsets run {offsets[0]}-{offsets[-1]}, "
            f"not over the {len(years)} entries")
    k = _first_false(map(lt, offsets, offsets[1:]))
    if k >= 0:
        problem = "has no years" if offsets[k] == offsets[k + 1] else "has a negative span"
        raise SnapshotFormatError(f"{where}: name {names[k]!r} {problem}")
    k = _first_false(names)
    if k >= 0:
        raise SnapshotFormatError(f"{where}: name {k + 1} is empty")
    k = _first_false(map(lt, names, names[1:]))
    if k >= 0:
        name = names[k + 1]
        if name == names[k]:
            raise DuplicateEntryError(name, None, years[offsets[k + 1]], where=where)
        raise SnapshotFormatError(f"{where}: names out of order ({names[k]!r} before {name!r})")
    k = _first_false(map(eq, names, map(normalize_name, names)))
    if k >= 0:
        name, key = names[k], normalize_name(names[k])
        if key in names:
            raise DuplicateEntryError(key, None, years[offsets[k]], where=where)
        raise SnapshotFormatError(f"{where}: name {name!r} is not normalized")
    rising = bytearray(map(lt, years, years[1:]))
    for end in offsets[1:-1]:
        rising[end - 1] = True  # the next entry starts another name
    k = rising.find(0)
    if k >= 0:
        name = names[bisect_right(offsets, k) - 1]
        before, year = years[k], years[k + 1]
        if before == year:
            raise DuplicateEntryError(name, None, year, where=where)
        raise SnapshotFormatError(f"{where}: years of {name!r} out of order "
                                  f"({before} before {year})")
    if 0 in map(or_, females, males):
        k = _first_false(map(or_, females, males))
        name = names[bisect_right(offsets, k) - 1]
        raise SnapshotFormatError(f"{where}: empty entry for ({name}, {years[k]})")
