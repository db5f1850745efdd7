"""Parsing of per-year baby-name count files and the immutable lookup table.

Input files follow the public birth-registration distribution: one file per
year named ``yobYYYY.txt``, each line exactly ``Name,Sex,Count`` with Sex in
{F, M} and no header. Counts under 5 are absent from the source files; the
table stores such absences as 0 and downstream code treats a 0/0 total as
unknown rather than inventing a prior.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from operator import add, lt
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

from .names import normalize_name

_YEAR_FILE_RE = re.compile(r"^yob(\d{4})\.txt$")

SNAPSHOT_MAGIC = "# namecohort-table v2"
SNAPSHOT_HEADER = "name,years,female_counts,male_counts"


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
    """A table snapshot has an unsupported version or a malformed line."""


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


# One name's years, ascending, with the female and male count for each.
Columns = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_NO_COLUMNS: Columns = ((), (), ())
# The loader's merge state: {name: {year: count}} for females, then males.
_Slots = tuple[dict[str, dict[int, int]], dict[str, dict[int, int]]]


class NameYearTable:
    """Immutable map from (name, year) to (female_count, male_count), stored by name.

    Each normalized name holds three tuples of equal length: its years
    ascending, and the female and male count for each year. The mapping
    constructor groups its input into that layout; the year-file loader and
    :func:`read_snapshot` build it directly. Afterwards the table is safe for
    unlimited concurrent readers. Lookups normalize the queried name, so
    table consumers may pass raw-cased names. Two keys that normalize to the
    same (name, year) raise DuplicateEntryError.
    """

    __slots__ = ("_columns", "_names", "_len", "_year_range")

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
        self._set_columns(_group((females, males)))

    @classmethod
    def _from_columns(cls, columns: dict[str, Columns]) -> NameYearTable:
        """A table over columns that are already normalized, sorted and checked."""
        table = cls.__new__(cls)
        table._set_columns(columns)
        return table

    def _set_columns(self, columns: dict[str, Columns]) -> None:
        self._columns = columns
        self._names = tuple(sorted(columns))
        self._len = sum(len(years) for years, _, _ in columns.values())
        self._year_range = (
            (min(years[0] for years, _, _ in columns.values()),
             max(years[-1] for years, _, _ in columns.values()))
            if columns else None
        )

    @property
    def year_range(self) -> tuple[int, int] | None:
        """(min_year, max_year) with data, or None for an empty table."""
        return self._year_range

    def columns(self, name: str) -> Columns:
        """(years, female_counts, male_counts) for the name; empty tuples when absent."""
        return self.key_columns(normalize_name(name))

    def key_columns(self, key: str) -> Columns:
        """:meth:`columns` for a key that is already normalized, such as one of
        :meth:`names`; the key is not normalized again."""
        return self._columns.get(key, _NO_COLUMNS)

    def counts(self, name: str, year: int) -> tuple[int, int] | None:
        """Exact-year (female, male) counts, or None when absent."""
        years, females, males = self.columns(name)
        i = bisect_left(years, year)
        if i < len(years) and years[i] == year:
            return females[i], males[i]
        return None

    def years_for(self, name: str) -> tuple[int, ...]:
        """All years with data for the name, ascending."""
        return self.columns(name)[0]

    def names(self) -> tuple[str, ...]:
        """All names in the table, sorted."""
        return self._names

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: tuple[str, int]) -> bool:
        return self.counts(*key) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameYearTable):
            return NotImplemented
        return self._columns == other._columns

    def __repr__(self) -> str:
        span = f"{self._year_range[0]}-{self._year_range[1]}" if self._year_range else "empty"
        return f"NameYearTable({self._len} entries, years {span})"


def _group(slots: _Slots) -> dict[str, Columns]:
    """Turn per-sex {name: {year: count}} slots into sorted per-name columns;
    a year missing for one sex counts 0 there."""
    females, males = slots
    columns = {}
    for name in females.keys() | males.keys():
        female, male = females.get(name, {}), males.get(name, {})
        years = tuple(sorted(female.keys() | male.keys()))
        columns[name] = (years, tuple(map(female.get, years, repeat(0))),
                         tuple(map(male.get, years, repeat(0))))
    return columns


def _undecodable_line(path: str | Path) -> int:
    """The 1-based line of the file's first byte that is not UTF-8 (a text
    stream decodes in chunks, so its decode error does not say)."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    raise ValueError(f"{path}: changed while it was read")


def _rows(stream: IO[str] | Iterable[str], path: str | None,
          normalize: Callable[[str], str]) -> Iterator[tuple[int, str, str, int]]:
    """(line number, normalized name, sex, count) for each row of a year file.

    Raises SsaFormatError on the first malformed line (wrong field count,
    sex outside {F, M}, non-integer or zero count, empty name, or, when the
    path is given, bytes that are not UTF-8). Blank lines are skipped.
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
            if not raw_count.isdecimal():
                raise SsaFormatError(f"invalid count {raw_count!r}", lineno, path)
            count = int(raw_count)
            if count < 1:
                raise SsaFormatError("count must be >= 1", lineno, path)
            name = normalize(raw_name)
            if not name:
                raise SsaFormatError("empty name", lineno, path)
            yield lineno, name, sex, count
    except UnicodeDecodeError as exc:
        if path is None:
            raise
        raise SsaFormatError(f"not UTF-8 ({exc.reason})", _undecodable_line(path), path) from None


def _fill(slots: _Slots, year: int, rows: Iterable[tuple[int | None, str, str, int]]
          ) -> tuple[int | None, str, str, int] | None:
    """Put each (line number, name, sex, count) row of one year into its slot:
    ``slots[sex][name][year] = count``.

    A slot that is already filled is a repeated (name, sex, year) triple,
    which the source never has: the slot keeps its count and the first such
    row is returned. Returns None otherwise.
    """
    females, males = slots
    repeated = None
    for row in rows:
        _, name, sex, count = row
        side = females if sex == "F" else males
        by_year = side.get(name)
        if by_year is None:
            side[name] = {year: count}
        elif year not in by_year:
            by_year[year] = count
        elif repeated is None:
            repeated = row
    return repeated


def parse_year_file(stream: IO[str] | Iterable[str], year: int,
                    path: str | None = None) -> list[NameCountRecord]:
    """Parse one year file into records, attaching the given year.

    Raises SsaFormatError on the first malformed line (wrong field count,
    sex outside {F, M}, non-integer or zero count, empty name, or, when the
    stream was opened from path, bytes that are not UTF-8). An empty stream
    yields an empty list.
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
        name = normalize(record.name)
        if _fill(slots, record.year, [(None, name, record.sex, record.count)]):
            raise DuplicateEntryError(name, record.sex, record.year)
    return NameYearTable._from_columns(_group(slots))


def serialize_table(table: NameYearTable) -> dict[int, str]:
    """Render the table back to per-year file texts in the source format.

    Female rows come first (descending count, then name), then male rows,
    matching the layout of the public distribution. Zero counts are
    omitted, so serialize -> parse -> build round-trips exactly.
    """
    by_year: dict[int, list[tuple[str, str, int]]] = {}
    for name in table.names():
        for year, female, male in zip(*table.columns(name)):
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
        match = _YEAR_FILE_RE.match(path.name)
        if match:
            yield int(match.group(1)), path


def load_directory(directory: Path) -> NameYearTable:
    """Parse every year file in a directory and build the merged table.

    One pass puts each row into its (name, sex, year) slot, normalizing each
    distinct raw name once. Files may be parsed in any order; the merge is
    deterministic. Raises FileNotFoundError when the directory holds no
    year files, SsaFormatError on the first malformed line, and, when every
    line parses, DuplicateEntryError naming the first repeated (name, sex,
    year) row.
    """
    normalize = functools.cache(normalize_name)
    slots: _Slots = ({}, {})
    duplicate: DuplicateEntryError | None = None
    found = False
    for year, path in iter_year_files(Path(directory)):
        found = True
        with open(path, encoding="utf-8") as stream:
            repeated = _fill(slots, year, _rows(stream, str(path), normalize))
        if repeated and duplicate is None:
            lineno, name, sex, _ = repeated
            duplicate = DuplicateEntryError(name, sex, year, where=f"{path}:{lineno}")
    if not found:
        raise FileNotFoundError(f"no yobYYYY.txt year files found in {directory}")
    if duplicate is not None:
        raise duplicate
    return NameYearTable._from_columns(_group(slots))


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
    """Write a versioned snapshot of the table, one line per name.

    Names are sorted; each line is ``name,years,female_counts,male_counts``
    with the three columns as space-separated integers, years ascending.
    """
    lines = [SNAPSHOT_MAGIC, SNAPSHOT_HEADER]
    for name in table.names():
        lines.append(",".join([name, *(" ".join(map(str, column))
                                       for column in table.columns(name))]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_row(name: str, years: tuple[int, ...], females: tuple[int, ...],
               males: tuple[int, ...], where: str) -> None:
    """Raise for a decoded snapshot row that :func:`write_snapshot` cannot write."""
    if not years:
        raise SnapshotFormatError(f"{where}: row has no years")
    if not len(years) == len(females) == len(males):
        raise SnapshotFormatError(
            f"{where}: ragged row: {len(years)} years, {len(females)} female counts, "
            f"{len(males)} male counts")
    if not all(map(lt, years, years[1:])):
        before, year = next((a, b) for a, b in zip(years, years[1:]) if a >= b)
        if before == year:
            raise DuplicateEntryError(name, None, year, where=where)
        raise SnapshotFormatError(f"{where}: years out of order ({before} before {year})")
    if min(females) < 0 or min(males) < 0:
        year = next(y for y, f, m in zip(years, females, males) if f < 0 or m < 0)
        raise SnapshotFormatError(f"{where}: negative count for ({name}, {year})")
    if 0 in map(add, females, males):
        year = next(y for y, f, m in zip(years, females, males) if f == m == 0)
        raise SnapshotFormatError(f"{where}: empty entry for ({name}, {year})")


def read_snapshot(path: Path) -> NameYearTable:
    """Load a snapshot written by :func:`write_snapshot`.

    Every line is decoded and checked before the table is returned, so a
    corrupt row fails the load even for a name nobody looks up. A missing
    or different version line, a v1 snapshot included, raises
    SnapshotFormatError asking for a re-ingest, so a stale snapshot can
    never silently mis-answer. A malformed row (field count, non-integer
    cell, no years, ragged columns, years out of order, negative counts, a
    0/0 entry, bytes that are not UTF-8) raises SnapshotFormatError; a
    repeated year, or a name that repeats or normalizes like an earlier one,
    raises DuplicateEntryError (for the repeated line, its first year). Each
    error names ``path:line``.
    """
    try:
        with open(path, encoding="utf-8") as stream:
            magic = stream.readline().strip()
            if magic != SNAPSHOT_MAGIC:
                raise SnapshotFormatError(
                    f"{path}: unsupported table snapshot (expected {SNAPSHOT_MAGIC!r}); "
                    "re-run `namecohort ingest` to rebuild it"
                )
            header = stream.readline().strip()
            if header != SNAPSHOT_HEADER:
                raise SnapshotFormatError(f"{path}: unexpected snapshot header {header!r}")
            # Years and small counts repeat across names: decode each cell text once
            # and share the resulting int objects.
            number = functools.cache(int)
            columns: dict[str, Columns] = {}
            for lineno, line in enumerate(stream, start=3):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != 4:
                    raise SnapshotFormatError(f"{path}:{lineno}: malformed snapshot row")
                try:
                    years, females, males = (tuple(map(number, cell.split()))
                                             for cell in fields[1:])
                except ValueError:
                    raise SnapshotFormatError(
                        f"{path}:{lineno}: non-integer snapshot cell") from None
                name = normalize_name(fields[0])
                _check_row(name, years, females, males, f"{path}:{lineno}")
                if name in columns:
                    raise DuplicateEntryError(name, None, years[0], where=f"{path}:{lineno}")
                columns[name] = (years, females, males)
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(
            f"{path}:{_undecodable_line(path)}: not UTF-8 ({exc.reason})") from None
    return NameYearTable._from_columns(columns)
