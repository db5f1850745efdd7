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
from itertools import repeat
from operator import eq, lt, truth
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

from .names import normalize_name

_YEAR_FILE_RE = re.compile(r"yob([0-9]{4})\.txt")

SNAPSHOT_MAGIC = "# namecohort-table v3"
_MAGIC_LINE = SNAPSHOT_MAGIC.encode("ascii") + b"\n"
# Names, entries, name-block bytes and the CRC-32 of the rest, after the
# magic line.
_HEADER = struct.Struct("<QQQI")
# Snapshot columns are little-endian whatever the machine's byte order.
_SWAP = sys.byteorder == "big"


_EXCERPT = 40  # the most characters of an input value that an error message shows


def _excerpt(value: object, quote: bool = True, limit: int = _EXCERPT) -> str:
    """The value as an error message shows it: a string by repr() when
    quote is set, anything else by str(). A value whose text runs over
    limit characters shows only its first limit, then its length."""
    text = str(value)
    show = repr if quote and isinstance(value, str) else str
    if len(text) > limit:
        return f"{show(text[:limit])}… ({len(text)} characters)"
    return show(text)


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
        name = _excerpt(name, quote=False)
        key = f"({name}, {year})" if sex is None else f"({name}, {sex}, {year})"
        prefix = f"{where}: " if where else ""
        super().__init__(f"{prefix}duplicate record for {key}")


class SnapshotFormatError(ValueError):
    """A table snapshot has an unsupported version or breaks a table invariant."""


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

    __slots__ = ("years", "females", "males", "_offsets", "_spans", "_year_range")

    def __init__(self, counts: Mapping[tuple[str, int], tuple[int, int]]):
        normalize = functools.cache(normalize_name)
        females: dict[str, dict[int, int]] = {}
        males: dict[str, dict[int, int]] = {}
        for (raw_name, year), (female, male) in counts.items():
            if female < 0 or male < 0:
                raise ValueError(f"negative count for ({_excerpt(raw_name, quote=False)}, "
                                 f"{_excerpt(year, quote=False)})")
            if female == 0 and male == 0:
                raise ValueError(f"empty entry for ({_excerpt(raw_name, quote=False)}, "
                                 f"{_excerpt(year, quote=False)})")
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
        self._offsets = offsets
        self.years, self.females, self.males = years, females, males
        self._spans = dict(zip(names, zip(offsets, offsets[1:])))
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
        return tuple(self._spans)

    def __len__(self) -> int:
        return len(self.years)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return self.counts(*key) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameYearTable):
            return NotImplemented
        return (self._spans == other._spans and self.years == other.years
                and self.females == other.females and self.males == other.males)

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
            raise ValueError(f"table name {_excerpt(name)} is empty or holds a line break")
        female, male = females.get(name, empty), males.get(name, empty)
        if female and male:
            name_years = sorted(female.keys() | male.keys())
            female_counts = map(female.get, name_years, repeat(0))
            male_counts = map(male.get, name_years, repeat(0))
        else:  # most names carry one sex: no key-set union, no get per year
            one = female or male
            name_years = sorted(one)
            counts, zeros = map(one.__getitem__, name_years), repeat(0, len(name_years))
            female_counts, male_counts = (counts, zeros) if female else (zeros, counts)
        try:
            years.extend(name_years)
            female_column.extend(female_counts)
            male_column.extend(male_counts)
        except OverflowError:
            raise ValueError(f"a year or count of {_excerpt(name)} is outside the table's range "
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


def _fill_year(slots: _Slots, by_raw: _Slots, year: int, stream: IO[str] | Iterable[str],
               path: str | None) -> None:
    """Put each row of one year file into its slot: ``slots[sex][name][year] = count``.

    by_raw maps each raw name met so far, per sex, to its slot, so a raw name
    is normalized once per sex across the files that share by_raw. Blank
    lines are skipped. The first fault raises, naming the path (when given)
    and the line: SsaFormatError for a malformed line (wrong field count,
    sex outside {F, M}, a count that is not ASCII digits, has more digits
    than int() converts or lies outside 1-_MAX_COUNT, empty name, or, when
    the path is given, bytes that are not UTF-8) and DuplicateEntryError for
    a repeated (name, sex, year) triple, which the source never has.
    """
    females, males = slots
    female_raw, male_raw = by_raw
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
            if sex == "F":
                side, raw_side = females, female_raw
            elif sex == "M":
                side, raw_side = males, male_raw
            else:
                raise SsaFormatError(f"invalid sex code {_excerpt(sex)}", lineno, path)
            if not (raw_count.isascii() and raw_count.isdecimal()):
                raise SsaFormatError(f"invalid count {_excerpt(raw_count)}", lineno, path)
            try:
                count = int(raw_count)
            except ValueError:  # more digits than int() converts
                raise SsaFormatError("invalid count: too many digits", lineno, path) from None
            if not 0 < count <= _MAX_COUNT:
                raise SsaFormatError(f"invalid count: count must be >= 1 and <= {_MAX_COUNT}",
                                     lineno, path)
            by_year = raw_side.get(raw_name)
            if by_year is None:
                name = normalize_name(raw_name)
                if not name:
                    raise SsaFormatError("empty name", lineno, path)
                by_year = raw_side[raw_name] = side.setdefault(name, {})
            if year in by_year:
                raise DuplicateEntryError(normalize_name(raw_name), sex, year,
                                          f"{path}:{lineno}" if path else f"line {lineno}")
            by_year[year] = count
    except UnicodeDecodeError as exc:
        if path is None:
            raise
        raise SsaFormatError(f"not UTF-8 ({exc.reason})", _undecodable_line(path), path) from None


def parse_year_file(stream: IO[str] | Iterable[str], year: int,
                    path: str | None = None) -> list[tuple[str, str, int, int]]:
    """Parse one year file into rows ``(name, sex, count, year)``, attaching
    the given year: the female rows first, then the male rows, each in file
    order.

    Raises SsaFormatError on the first malformed line (wrong field count,
    sex outside {F, M}, a count that is not an integer or lies outside the
    count column's range 1-4294967295, empty name, or, when the stream was
    opened from path, bytes that are not UTF-8), and DuplicateEntryError on
    the first row whose (name, sex) repeats an earlier row's. An empty
    stream yields an empty list.
    """
    slots: _Slots = ({}, {})
    _fill_year(slots, ({}, {}), year, stream, path)
    return [(name, sex, by_year[year], year)
            for sex, side in zip("FM", slots) for name, by_year in side.items()]


def build_table(rows: Iterable[tuple[str, str, int, int]]) -> NameYearTable:
    """Merge per-sex rows ``(name, sex, count, year)`` into a table; order of
    the input is irrelevant.

    Raises ValueError for a row whose sex is not F or M, whose count is
    below 1 or whose name is empty, and DuplicateEntryError if a (name, sex,
    year) triple repeats: the source distribution never repeats a triple, so
    duplication signals corrupted input rather than data to be summed.
    """
    normalize = functools.cache(normalize_name)
    females, males = slots = ({}, {})
    for raw_name, sex, count, year in rows:
        if sex not in ("F", "M"):
            raise ValueError(f"sex must be F or M, got {_excerpt(sex)}")
        if count < 1:
            raise ValueError("count must be >= 1")
        if not raw_name:
            raise ValueError("name must be non-empty")
        name = normalize(raw_name)
        by_year = (females if sex == "F" else males).setdefault(name, {})
        if year in by_year:
            raise DuplicateEntryError(name, sex, year)
        by_year[year] = count
    return NameYearTable._from_columns(*_grouped(slots))


def iter_year_files(directory: Path) -> Iterator[tuple[int, Path]]:
    """Yield (year, path) for every yobYYYY.txt in the directory, sorted."""
    directory = Path(directory)
    for name in sorted(os.listdir(directory)):
        match = _YEAR_FILE_RE.fullmatch(name)
        if match:
            yield int(match.group(1)), directory / name


def load_directory(directory: Path) -> NameYearTable:
    """Parse every year file in a directory and build the merged table.

    One pass puts each row into its (name, sex, year) slot, normalizing each
    distinct raw name once per sex; a byte-order mark at the start of a file
    is dropped. The files are read in name order and the first fault ends
    the load, so no later line is read: FileNotFoundError when the directory
    holds no year files, SsaFormatError at the first malformed line and
    DuplicateEntryError at the first repeated (name, sex, year) row.
    """
    return _load_year_files(directory, list(iter_year_files(directory)))


def _load_year_files(directory: Path, year_files: list[tuple[int, Path]]) -> NameYearTable:
    """:func:`load_directory` over year_files, the (year, path) pairs that
    :func:`iter_year_files` listed from directory."""
    if not year_files:
        raise FileNotFoundError(f"no yobYYYY.txt year files found in {directory}")
    slots: _Slots = ({}, {})
    by_raw: _Slots = ({}, {})
    for year, path in year_files:
        with open(path, encoding="utf-8-sig") as stream:
            _fill_year(slots, by_raw, year, stream, str(path))
    del by_raw  # the columns are the load's peak; the raw names are not in them
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
    from importlib import resources  # only the bundled fixture is a package resource

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
    write. The offset and name checks are one pass each over their column;
    the years and counts are checked lane by lane in blocks."""
    if offsets[0] != 0 or offsets[-1] != len(years):
        raise SnapshotFormatError(
            f"{where}: name offsets run {offsets[0]}-{offsets[-1]}, "
            f"not over the {len(years)} entries")
    k = _first_false(map(lt, offsets, offsets[1:]))
    if k >= 0:
        problem = "has no years" if offsets[k] == offsets[k + 1] else "has a negative span"
        raise SnapshotFormatError(f"{where}: name {_excerpt(names[k])} {problem}")
    k = _first_false(names)
    if k >= 0:
        raise SnapshotFormatError(f"{where}: name {k + 1} is empty")
    k = _first_false(map(lt, names, names[1:]))
    if k >= 0:
        name = names[k + 1]
        if name == names[k]:
            raise DuplicateEntryError(name, None, years[offsets[k + 1]], where=where)
        raise SnapshotFormatError(f"{where}: names out of order "
                                  f"({_excerpt(names[k])} before {_excerpt(name)})")
    k = _first_false(map(eq, names, map(normalize_name, names)))
    if k >= 0:
        name, key = names[k], normalize_name(names[k])
        if key in names:
            raise DuplicateEntryError(key, None, years[offsets[k]], where=where)
        raise SnapshotFormatError(f"{where}: name {_excerpt(name)} is not normalized")
    k = _first_fall(years, offsets)
    if k >= 0:
        name = names[bisect_right(offsets, k) - 1]
        before, year = years[k], years[k + 1]
        if before == year:
            raise DuplicateEntryError(name, None, year, where=where)
        raise SnapshotFormatError(f"{where}: years of {_excerpt(name)} out of order "
                                  f"({before} before {year})")
    k = _first_empty(females, males)
    if k >= 0:
        name = names[bisect_right(offsets, k) - 1]
        raise SnapshotFormatError(
            f"{where}: empty entry for ({_excerpt(name, quote=False)}, {years[k]})")


# The year and count checks read a column _CHECK_BLOCK entries at a time as
# one integer with a lane of the column's width per entry, and test every
# lane at once with integer arithmetic that never carries from one lane into
# the next. Integers of whole columns, with their temporaries, would take
# more memory than the table itself.
_CHECK_BLOCK = 1 << 15


@functools.lru_cache(maxsize=4)
def _lane_masks(width: int, count: int) -> tuple[int, int, int]:
    """For count lanes of width bits: every lane's low width - 1 bits, every
    lane's top bit, and 1 in every lane."""
    ones = int.from_bytes((1).to_bytes(width // 8, "little") * count, "little")
    top = ones << (width - 1)
    return top - ones, top, ones


def _blocks(n: int, width: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Each block of n lanes of width bits: its bounds lo and hi, at most
    _CHECK_BLOCK apart, and its :func:`_lane_masks`."""
    for lo in range(0, n, _CHECK_BLOCK):
        hi = min(lo + _CHECK_BLOCK, n)
        yield lo, hi, *_lane_masks(width, hi - lo)


def _lanes(column: array, lo: int, hi: int) -> int:
    """Entries lo to hi of the column as one integer, a lane per entry."""
    return int.from_bytes(memoryview(column)[lo:hi], sys.byteorder)


def _first_clear(lanes: int, top: int, width: int) -> int:
    """The index of the first lane whose top bit lanes leaves clear, or -1
    when it sets every one. lanes holds top bits only, top holds every
    lane's, and a lane is width bits."""
    clear = top ^ lanes
    return ((clear & -clear).bit_length() - 1) // width if clear else -1


def _first_fall(years: array, offsets: array) -> int:
    """The first entry whose year is not below the next entry's year within
    its name, or -1 when every name's years rise."""
    for lo, hi, low, top, ones in _blocks(len(years) - 1, 16):
        a, b = _lanes(years, lo, hi), _lanes(years, lo + 1, hi + 1)
        # b > a lane by lane: the top bits differ and b's is set, or they
        # agree and b's low bits are greater, which sets the top bit of
        # (b's low bits + 0x8000) - (a's low bits + 1).
        greater = (((b & low) | top) - ((a & low) + ones)) & top
        rises = ((b & (top ^ a)) | (greater & (top ^ a ^ b))) & top
        # A name's last entry is followed by the next name's first, whose
        # year may be lower: count it as rising.
        ends = array(_YEAR, bytes(2 * (hi - lo)))
        for end in offsets[bisect_right(offsets, lo):bisect_right(offsets, hi)]:
            ends[end - 1 - lo] = 0x8000
        k = _first_clear(rises | _lanes(ends, 0, hi - lo), top, 16)
        if k >= 0:
            return lo + k
    return -1


def _first_empty(females: array, males: array) -> int:
    """The first entry whose female and male counts are both 0, or -1 when
    none is."""
    for lo, hi, low, top, _ in _blocks(len(females), 32):
        counts = _lanes(females, lo, hi) | _lanes(males, lo, hi)
        # A lane's top bit is set, or its low bits + 0x7FFFFFFF set it,
        # exactly when the lane is not 0.
        k = _first_clear((((counts & low) + low) | counts) & top, top, 32)
        if k >= 0:
            return lo + k
    return -1
