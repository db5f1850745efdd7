"""Bibliographic corpus ingestion, author-name extraction, and overrides.

Two input shapes are supported: a simple CSV (one row per publication,
pipe-separated author strings) and a streaming subset of the DBLP XML
format. Qualitative per-person identifications arrive as an override
ledger; an override always outranks any statistical estimate downstream.
"""

from __future__ import annotations

import csv
import logging
import xml.parsers.expat
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Sequence

from .model import Gender
from .names import extract_first_name, normalize_full_name

__all__ = [
    "AuthorMention", "CorpusRecord", "CorpusParseResult", "CorpusFormatError",
    "DblpParseError", "OverrideEntry", "OverrideLedger", "apply_overrides",
    "extract_first_name", "parse_corpus_csv", "parse_dblp_subset",
    "read_override_ledger", "serialize_corpus_csv",
]

logger = logging.getLogger(__name__)

MIN_PLAUSIBLE_YEAR = 1900
MAX_PLAUSIBLE_YEAR = 2100

CSV_HEADER = ["record_id", "venue", "year", "authors"]
LEDGER_HEADER = ["key", "gender", "year_from", "year_to", "venue", "source_note"]


class CorpusFormatError(ValueError):
    """A malformed corpus row; carries the 1-based line number."""

    def __init__(self, message: str, lineno: int):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class DblpParseError(ValueError):
    """Malformed XML input; carries the approximate byte offset."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"byte {offset}: {message}")


@dataclass(frozen=True, slots=True)
class AuthorMention:
    """One author string on one publication.

    first_name is the normalized given name, or None when the given name is
    initial-only (and therefore never reaches the statistical layer).
    override_gender, when set, is a qualitative identification that
    outranks any table estimate.
    """

    raw: str
    first_name: str | None
    override_gender: Gender | None = None

    @property
    def initial_only(self) -> bool:
        return self.first_name is None


def make_mention(raw: str) -> AuthorMention:
    return AuthorMention(raw=raw, first_name=extract_first_name(raw))


@dataclass(frozen=True, slots=True)
class CorpusRecord:
    """One publication: id, venue, year, and its authors in printed order."""

    record_id: str
    venue: str
    publication_year: int
    authors: tuple[AuthorMention, ...]

    def __post_init__(self):
        if not self.authors:
            raise ValueError(f"record {self.record_id!r} has no authors")
        if not (MIN_PLAUSIBLE_YEAR <= self.publication_year <= MAX_PLAUSIBLE_YEAR):
            raise ValueError(
                f"record {self.record_id!r} year {self.publication_year} outside "
                f"{MIN_PLAUSIBLE_YEAR}-{MAX_PLAUSIBLE_YEAR}"
            )


@dataclass(slots=True)
class CorpusParseResult:
    """Parsed records plus a tally of rows or elements skipped in lenient mode."""

    records: list[CorpusRecord] = field(default_factory=list)
    skipped: int = 0
    problems: list[str] = field(default_factory=list)


def _check_csv_row(row: list[str], lineno: int) -> CorpusRecord:
    if len(row) != 4:
        raise CorpusFormatError(f"expected 4 columns, got {len(row)}", lineno)
    record_id, venue, raw_year, raw_authors = row
    try:
        year = int(raw_year)
    except ValueError:
        raise CorpusFormatError(f"invalid year {raw_year!r}", lineno) from None
    if not (MIN_PLAUSIBLE_YEAR <= year <= MAX_PLAUSIBLE_YEAR):
        raise CorpusFormatError(f"year {year} out of range "
                                f"{MIN_PLAUSIBLE_YEAR}-{MAX_PLAUSIBLE_YEAR}", lineno)
    if not raw_authors:
        raise CorpusFormatError("empty authors field", lineno)
    authors = raw_authors.split("|")
    if any(not a.strip() for a in authors):
        raise CorpusFormatError("empty author name in authors field", lineno)
    return CorpusRecord(record_id=record_id, venue=venue, publication_year=year,
                        authors=tuple(make_mention(a) for a in authors))


def parse_corpus_csv(stream: IO[str] | Iterable[str], strict: bool = True) -> CorpusParseResult:
    """Parse the corpus CSV format: header record_id,venue,year,authors with
    pipe-separated author strings, order preserved.

    In strict mode the first bad row aborts with its line number; in lenient
    mode bad rows are skipped and tallied in the result.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or header != CSV_HEADER:
        raise CorpusFormatError(f"expected header {','.join(CSV_HEADER)!r}", 1)
    result = CorpusParseResult()
    for row in reader:
        if not row:
            continue
        try:
            result.records.append(_check_csv_row(row, reader.line_num))
        except CorpusFormatError as exc:
            if strict:
                raise
            result.skipped += 1
            result.problems.append(str(exc))
    return result


def serialize_corpus_csv(records: Sequence[CorpusRecord]) -> str:
    """Render records back to the corpus CSV format (raw author strings kept)."""
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow([record.record_id, record.venue, record.publication_year,
                         "|".join(m.raw for m in record.authors)])
    return buffer.getvalue()


_PUBLICATION_TAGS = frozenset({"article", "inproceedings"})
_TEXT_TAGS = frozenset({"author", "year", "booktitle", "journal"})
_STREAM_WRAPPER_OPEN = b"<namecohort-stream>"
_STREAM_WRAPPER_CLOSE = b"</namecohort-stream>"
_CHUNK_SIZE = 1 << 16


class _DblpHandler:
    """Expat callbacks holding at most one publication element in memory.

    Depth is tracked inside the active publication so only direct children
    are captured and a stray nested publication tag cannot close the outer
    element early.
    """

    def __init__(self, result: CorpusParseResult):
        self.result = result
        self._current: dict | None = None
        self._depth = 0
        self._text_tag: str | None = None
        self._chunks: list[str] = []

    def start_element(self, tag: str, attrs: dict[str, str]) -> None:
        if self._current is None:
            if tag in _PUBLICATION_TAGS:
                self._current = {"tag": tag, "key": attrs.get("key"),
                                 "authors": [], "year": None, "venue": ""}
                self._depth = 0
        else:
            self._depth += 1
            if self._depth == 1 and tag in _TEXT_TAGS:
                self._text_tag = tag
                self._chunks = []

    def characters(self, data: str) -> None:
        if self._text_tag is not None:
            self._chunks.append(data)

    def end_element(self, tag: str) -> None:
        if self._current is None:
            return
        if self._depth == 0:
            self._finish()
            return
        if self._depth == 1 and tag == self._text_tag:
            text = "".join(self._chunks).strip()
            if tag == "author":
                self._current["authors"].append(text)
            elif tag == "year":
                self._current["year"] = text
            else:  # booktitle / journal
                self._current["venue"] = text
            self._text_tag = None
            self._chunks = []
        self._depth -= 1

    def _finish(self) -> None:
        pub = self._current
        self._current = None
        self._text_tag = None
        self._chunks = []
        key = pub["key"]
        if not key:
            self._skip(f"<{pub['tag']}> without key attribute")
            return
        raw_year = pub["year"]
        if raw_year is None:
            self._skip(f"{key}: missing year")
            return
        try:
            year = int(raw_year)
        except ValueError:
            self._skip(f"{key}: invalid year {raw_year!r}")
            return
        if not (MIN_PLAUSIBLE_YEAR <= year <= MAX_PLAUSIBLE_YEAR):
            self._skip(f"{key}: year {year} out of range")
            return
        authors = [a for a in pub["authors"] if a]
        if not authors:
            self._skip(f"{key}: no authors")
            return
        self.result.records.append(CorpusRecord(
            record_id=key, venue=pub["venue"], publication_year=year,
            authors=tuple(make_mention(a) for a in authors),
        ))

    def _skip(self, problem: str) -> None:
        self.result.skipped += 1
        self.result.problems.append(problem)


def parse_dblp_subset(stream: IO[bytes] | IO[str]) -> CorpusParseResult:
    """Stream-parse DBLP-style XML: article/inproceedings elements with a key
    attribute, repeated author children, a year, and an optional venue
    (booktitle or journal). Everything else is ignored.

    Memory stays bounded by a single publication element regardless of file
    size. Publications missing a key, a usable year, or any author are
    skipped and tallied. Malformed XML (including entities beyond the XML
    built-ins) raises DblpParseError with the byte offset. The input may be
    a whole document or a root-less fragment stream.
    """
    result = CorpusParseResult()
    handler = _DblpHandler(result)
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    parser.SetParamEntityParsing(xml.parsers.expat.XML_PARAM_ENTITY_PARSING_NEVER)
    parser.StartElementHandler = handler.start_element
    parser.EndElementHandler = handler.end_element
    parser.CharacterDataHandler = handler.characters

    def reject_entity_decl(*_args):
        raise DblpParseError("entity declarations are not supported",
                             max(0, parser.CurrentByteIndex - len(_STREAM_WRAPPER_OPEN)))

    parser.EntityDeclHandler = reject_entity_decl
    parser.ExternalEntityRefHandler = lambda *a: 0

    try:
        parser.Parse(_STREAM_WRAPPER_OPEN, False)
        while True:
            chunk = stream.read(_CHUNK_SIZE)
            if not chunk:
                break
            if isinstance(chunk, str):
                chunk = chunk.encode("utf-8")
            parser.Parse(chunk, False)
        parser.Parse(_STREAM_WRAPPER_CLOSE, True)
    except xml.parsers.expat.ExpatError as exc:
        offset = max(0, parser.ErrorByteIndex - len(_STREAM_WRAPPER_OPEN))
        raise DblpParseError(xml.parsers.expat.errors.messages[exc.code], offset) from None
    return result


@dataclass(frozen=True, slots=True)
class OverrideEntry:
    """One qualitative identification: a normalized full-name key, optionally
    scoped to a venue and/or an inclusive year range, with its source."""

    key: str
    gender: Gender
    year_from: int | None = None
    year_to: int | None = None
    venue: str | None = None
    source_note: str = ""

    def __post_init__(self):
        if (self.year_from is not None and self.year_to is not None
                and self.year_from > self.year_to):
            raise ValueError(f"override for {self.key!r} has year_from {self.year_from} "
                             f"after year_to {self.year_to}")

    def applies_to(self, venue: str, year: int) -> bool:
        if self.year_from is not None and year < self.year_from:
            return False
        if self.year_to is not None and year > self.year_to:
            return False
        if self.venue is not None and venue.lower() != self.venue.lower():
            return False
        return True


class OverrideLedger:
    """An ordered set of override entries with unique (key, scope) tuples."""

    def __init__(self, entries: Iterable[OverrideEntry]):
        self._entries = tuple(entries)
        self._by_key: dict[str, list[OverrideEntry]] = {}
        seen = set()
        for entry in self._entries:
            if not entry.source_note.strip():
                raise ValueError(f"override for {entry.key!r} lacks a source note")
            scope = (entry.key, entry.year_from, entry.year_to, entry.venue)
            if scope in seen:
                raise ValueError(f"duplicate override key/scope {scope}")
            seen.add(scope)
            self._by_key.setdefault(entry.key, []).append(entry)

    @property
    def entries(self) -> tuple[OverrideEntry, ...]:
        return self._entries

    def match(self, full_name_key: str, venue: str, year: int) -> OverrideEntry | None:
        """First entry (in ledger order) matching the key within scope."""
        for entry in self._by_key.get(full_name_key, []):
            if entry.applies_to(venue, year):
                return entry
        return None

    def __len__(self) -> int:
        return len(self._entries)


def read_override_ledger(stream: IO[str] | Iterable[str]) -> OverrideLedger:
    """Parse the override CSV: key,gender,year_from,year_to,venue,source_note.

    Empty scope cells mean unscoped; gender must be F, M, or U; a year scope
    needs year_from <= year_to; every entry must carry a source note. Keys
    are normalized on load.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or header != LEDGER_HEADER:
        raise CorpusFormatError(f"expected header {','.join(LEDGER_HEADER)!r}", 1)
    entries = []
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num
        if len(row) != 6:
            raise CorpusFormatError(f"expected 6 columns, got {len(row)}", lineno)
        key, raw_gender, year_from, year_to, venue, note = row
        if raw_gender not in ("F", "M", "U"):
            raise CorpusFormatError(f"invalid gender {raw_gender!r}", lineno)
        if not note.strip():
            raise CorpusFormatError(f"override for {key!r} lacks a source note", lineno)
        try:
            entries.append(OverrideEntry(
                key=normalize_full_name(key),
                gender=Gender(raw_gender),
                year_from=int(year_from) if year_from.strip() else None,
                year_to=int(year_to) if year_to.strip() else None,
                venue=venue.strip() or None,
                source_note=note.strip(),
            ))
        except ValueError as exc:
            if isinstance(exc, CorpusFormatError):
                raise
            raise CorpusFormatError(str(exc), lineno) from None
    return OverrideLedger(entries)


def apply_overrides(records: Sequence[CorpusRecord],
                    ledger: OverrideLedger) -> list[CorpusRecord]:
    """Stamp override genders onto matching mentions; order is preserved.

    A mention matches when its normalized full name equals a ledger key and
    the record falls inside the entry's venue/year scope. Ledger entries
    that never matched anything are reported as warnings, since a stale key
    usually means a normalization mismatch.
    """
    used: set[OverrideEntry] = set()
    out = []
    for record in records:
        new_authors = []
        changed = False
        for mention in record.authors:
            entry = ledger.match(normalize_full_name(mention.raw),
                                 record.venue, record.publication_year)
            if entry is not None:
                used.add(entry)
                new_authors.append(replace(mention, override_gender=entry.gender))
                changed = True
            else:
                new_authors.append(mention)
        out.append(replace(record, authors=tuple(new_authors)) if changed else record)
    for entry in ledger.entries:
        if entry not in used:
            logger.warning("override entry never matched: %r (scope venue=%r years=%s-%s)",
                           entry.key, entry.venue, entry.year_from, entry.year_to)
    return out
