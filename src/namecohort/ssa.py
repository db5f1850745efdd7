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
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

from .names import normalize_name

_YEAR_FILE_RE = re.compile(r"^yob(\d{4})\.txt$")

SNAPSHOT_MAGIC = "# namecohort-table v1"


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
    """A table snapshot file is missing or has an unsupported version."""


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


class NameYearTable:
    """Immutable map from (name, year) to (female_count, male_count).

    Built once via :func:`build_table`; afterwards safe for unlimited
    concurrent readers. Lookups normalize the queried name, so table
    consumers may pass raw-cased names. Two keys that normalize to the same
    (name, year) raise DuplicateEntryError.
    """

    __slots__ = ("_counts", "_years_by_name", "_year_range")

    def __init__(self, counts: Mapping[tuple[str, int], tuple[int, int]]):
        normalized: dict[tuple[str, int], tuple[int, int]] = {}
        for (name, year), (female, male) in counts.items():
            if female < 0 or male < 0:
                raise ValueError(f"negative count for ({name}, {year})")
            if female == 0 and male == 0:
                raise ValueError(f"empty entry for ({name}, {year})")
            key = (normalize_name(name), year)
            if key in normalized:
                raise DuplicateEntryError(key[0], None, year)
            normalized[key] = (female, male)
        self._counts = normalized
        years_by_name: dict[str, list[int]] = {}
        for name, year in normalized:
            years_by_name.setdefault(name, []).append(year)
        self._years_by_name = {n: tuple(sorted(ys)) for n, ys in years_by_name.items()}
        all_years = [year for _, year in normalized]
        self._year_range = (min(all_years), max(all_years)) if all_years else None

    @property
    def year_range(self) -> tuple[int, int] | None:
        """(min_year, max_year) with data, or None for an empty table."""
        return self._year_range

    def counts(self, name: str, year: int) -> tuple[int, int] | None:
        """Exact-year (female, male) counts, or None when absent."""
        return self._counts.get((normalize_name(name), year))

    def years_for(self, name: str) -> tuple[int, ...]:
        """All years with data for the name, ascending."""
        return self._years_by_name.get(normalize_name(name), ())

    def names(self) -> tuple[str, ...]:
        """All names in the table, sorted."""
        return tuple(sorted(self._years_by_name))

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: tuple[str, int]) -> bool:
        name, year = key
        return (normalize_name(name), year) in self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameYearTable):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        span = f"{self._year_range[0]}-{self._year_range[1]}" if self._year_range else "empty"
        return f"NameYearTable({len(self._counts)} entries, years {span})"


def parse_year_file(stream: IO[str] | Iterable[str], year: int,
                    path: str | None = None) -> list[NameCountRecord]:
    """Parse one year file into records, attaching the given year.

    Raises SsaFormatError on the first malformed line (wrong field count,
    sex outside {F, M}, non-integer or zero count, empty name). An empty
    stream yields an empty list.
    """
    records = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise SsaFormatError(f"expected 3 comma-separated fields, got {len(fields)}",
                                 lineno, path)
        raw_name, sex, raw_count = fields
        if sex not in ("F", "M"):
            raise SsaFormatError(f"invalid sex code {sex!r}", lineno, path)
        if not raw_count.isdigit():
            raise SsaFormatError(f"invalid count {raw_count!r}", lineno, path)
        count = int(raw_count)
        if count < 1:
            raise SsaFormatError("count must be >= 1", lineno, path)
        name = normalize_name(raw_name)
        if not name:
            raise SsaFormatError("empty name", lineno, path)
        records.append(NameCountRecord(name=name, sex=sex, count=count, year=year))
    return records


def build_table(records: Iterable[NameCountRecord]) -> NameYearTable:
    """Merge per-sex records into a table; order of the input is irrelevant.

    Raises DuplicateEntryError if a (name, sex, year) triple repeats: the
    source distribution never repeats a triple, so duplication signals
    corrupted input rather than data to be summed.
    """
    counts: dict[tuple[str, int], list[int]] = {}
    seen: set[tuple[str, str, int]] = set()
    for record in records:
        name = normalize_name(record.name)
        triple = (name, record.sex, record.year)
        if triple in seen:
            raise DuplicateEntryError(name, record.sex, record.year)
        seen.add(triple)
        entry = counts.setdefault((name, record.year), [0, 0])
        entry[0 if record.sex == "F" else 1] += record.count
    return NameYearTable({key: (f, m) for key, (f, m) in counts.items()})


def serialize_table(table: NameYearTable) -> dict[int, str]:
    """Render the table back to per-year file texts in the source format.

    Female rows come first (descending count, then name), then male rows,
    matching the layout of the public distribution. Zero counts are
    omitted, so serialize -> parse -> build round-trips exactly.
    """
    by_year: dict[int, list[tuple[str, str, int]]] = {}
    for name in table.names():
        for year in table.years_for(name):
            female, male = table.counts(name, year)  # type: ignore[misc]
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

    Files may be parsed in any order; the merge is deterministic. Raises
    FileNotFoundError when the directory holds no year files.
    """
    records: list[NameCountRecord] = []
    found = False
    for year, path in iter_year_files(Path(directory)):
        found = True
        with open(path, encoding="utf-8") as stream:
            records.extend(parse_year_file(stream, year, path=str(path)))
    if not found:
        raise FileNotFoundError(f"no yobYYYY.txt year files found in {directory}")
    return build_table(records)


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
    """Write a versioned CSV snapshot of the table."""
    lines = [SNAPSHOT_MAGIC, "name,year,female_count,male_count"]
    entries = sorted(
        (name, year) for name in table.names() for year in table.years_for(name)
    )
    for name, year in entries:
        female, male = table.counts(name, year)  # type: ignore[misc]
        lines.append(f"{name},{year},{female},{male}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_snapshot(path: Path) -> NameYearTable:
    """Load a snapshot written by :func:`write_snapshot`.

    Fails loudly on a missing or mismatched version line so a stale
    snapshot can never silently mis-answer, and on a repeated (name, year)
    row (DuplicateEntryError naming the line).
    """
    with open(path, encoding="utf-8") as stream:
        magic = stream.readline().strip()
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(
                f"{path}: unsupported table snapshot (expected {SNAPSHOT_MAGIC!r})"
            )
        header = stream.readline().strip()
        if header != "name,year,female_count,male_count":
            raise SnapshotFormatError(f"{path}: unexpected snapshot header {header!r}")
        counts: dict[tuple[str, int], tuple[int, int]] = {}
        for lineno, line in enumerate(stream, start=3):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise SnapshotFormatError(f"{path}:{lineno}: malformed snapshot row")
            name, year, female, male = fields
            try:
                key, value = (name, int(year)), (int(female), int(male))
            except ValueError:
                raise SnapshotFormatError(
                    f"{path}:{lineno}: non-integer snapshot cell") from None
            if key in counts:
                raise DuplicateEntryError(name, None, key[1], where=f"{path}:{lineno}")
            counts[key] = value
    return NameYearTable(counts)
