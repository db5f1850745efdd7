"""Bibliographic corpus ingestion, author-name extraction, and overrides.

Two input shapes are supported: a simple CSV (one row per publication,
pipe-separated author strings) and a streaming subset of the DBLP XML
format. Qualitative per-person identifications arrive as an override
ledger; an override always outranks any statistical estimate downstream.
"""

from __future__ import annotations

import csv
import functools
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

from .model import Gender
from .names import (_author_tokens, _first_name, _full_key, _key_part, csv_text,
                    extract_first_name, full_name_normalizer)
from .ssa import _undecodable_line

__all__ = [
    "AuthorMention", "CorpusRecord", "CorpusParseResult", "CorpusFormatError",
    "DblpParseError", "OverrideEntry", "OverrideLedger", "apply_overrides",
    "extract_first_name", "parse_corpus_csv", "parse_dblp_subset",
    "read_override_ledger", "serialize_corpus_csv", "warn_unmatched",
]

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

    def __iter__(self) -> Iterator:
        return iter((self.raw, self.first_name, self.override_gender))


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

    def __iter__(self) -> Iterator:
        return iter((self.record_id, self.venue, self.publication_year, self.authors))


# A parsed publication as the corpus commands pass it on, with no per-row
# objects: (record_id, venue, year, mentions), each mention a tuple
# (raw, first_name, override_gender) of the fields of an AuthorMention.
# A CorpusRecord and its AuthorMentions unpack the same way.
Mention = tuple[str, str | None, Gender | None]
Row = tuple[str, str, int, list[Mention]]


def _records(rows: Iterable[Row]) -> list[CorpusRecord]:
    """The records of rows, validated as CorpusRecord validates them."""
    return [CorpusRecord(record_id, venue, year,
                         tuple([AuthorMention(*mention) for mention in mentions]))
            for record_id, venue, year, mentions in rows]


def _year(text: str) -> int | None:
    """The year written in text as ASCII digits, white space around them
    allowed; None for any other text (int() would also take signs,
    underscores and other scripts' digits)."""
    digits = text.strip()
    return int(digits) if digits.isascii() and digits.isdigit() else None


@dataclass(slots=True)
class CorpusParseResult:
    """Parsed records plus a tally of rows or elements skipped in lenient
    mode and, when a ledger was applied, its entries that matched nothing."""

    records: list[CorpusRecord] = field(default_factory=list)
    skipped: int = 0
    problems: list[str] = field(default_factory=list)
    unmatched: list[OverrideEntry] = field(default_factory=list)


def _csv_rows(stream: IO[str] | Iterable[str],
              header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) for each non-blank row after the header line. A
    wrong header, a row the csv module refuses (such as one with a cell over
    its field size limit), or bytes that are not UTF-8 in a stream opened
    from a named file raise CorpusFormatError naming the line."""
    reader = csv.reader(stream)
    try:
        if next(reader, None) != header:
            raise CorpusFormatError(f"expected header {','.join(header)!r}", 1)
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        raise CorpusFormatError(str(exc), reader.line_num) from None
    except UnicodeDecodeError as exc:
        path = getattr(stream, "name", None)
        if not isinstance(path, str):
            raise
        raise CorpusFormatError(f"not UTF-8 ({exc.reason})", _undecodable_line(path)) from None


def _check_csv_row(row: list[str], lineno: int, mentions: _Mentions) -> Row:
    if len(row) != 4:
        raise CorpusFormatError(f"expected 4 columns, got {len(row)}", lineno)
    record_id, venue, raw_year, raw_authors = row
    year = _year(raw_year)
    if year is None:
        raise CorpusFormatError(f"invalid year {raw_year!r}", lineno)
    if not (MIN_PLAUSIBLE_YEAR <= year <= MAX_PLAUSIBLE_YEAR):
        raise CorpusFormatError(f"year {year} out of range "
                                f"{MIN_PLAUSIBLE_YEAR}-{MAX_PLAUSIBLE_YEAR}", lineno)
    if not raw_authors:
        raise CorpusFormatError("empty authors field", lineno)
    authors = raw_authors.split("|")
    if any(not a.strip() for a in authors):
        raise CorpusFormatError("empty author name in authors field", lineno)
    return record_id, venue, year, [mentions.mention(a, venue, year) for a in authors]


def _parse_csv(stream: IO[str] | Iterable[str], strict: bool, ledger: OverrideLedger | None,
               result: CorpusParseResult) -> Iterator[Row]:
    """The rows of :func:`parse_corpus_csv`, one per good CSV row as it is
    read; skips are tallied in result as they happen, and the ledger's
    unmatched entries stored in it once the stream is used up."""
    mentions = _Mentions(ledger)
    for lineno, cells in _csv_rows(stream, CSV_HEADER):
        try:
            row = _check_csv_row(cells, lineno, mentions)
        except CorpusFormatError as exc:
            if strict:
                raise
            result.skipped += 1
            result.problems.append(str(exc))
            continue
        yield row
    result.unmatched = mentions.unmatched()


def parse_corpus_csv(stream: IO[str] | Iterable[str], strict: bool = True,
                     ledger: OverrideLedger | None = None) -> CorpusParseResult:
    """Parse the corpus CSV format: header record_id,venue,year,authors with
    pipe-separated author strings, order preserved. A year is ASCII digits,
    white space around them allowed.

    In strict mode the first bad row aborts with its line number; in lenient
    mode bad rows are skipped and tallied in the result; a row the csv
    module refuses aborts in either mode. Each author string is tokenized
    once, and each distinct token normalized once per call. A ledger, if
    given, is applied as :func:`apply_overrides` applies it, except that
    its unmatched entries are returned in the result, not logged.
    """
    result = CorpusParseResult()
    result.records = _records(_parse_csv(stream, strict, ledger, result))
    return result


def serialize_corpus_csv(records: Sequence[CorpusRecord]) -> str:
    """Render records back to the corpus CSV format (raw author strings kept),
    with cells quoted as :func:`names.csv_text` quotes them. The format has
    no escape for the "|" that separates authors, so an author string
    holding one raises ValueError."""
    rows: list[list] = [CSV_HEADER]
    for record in records:
        for mention in record.authors:
            if "|" in mention.raw:
                raise ValueError(f"record {record.record_id!r}: author {mention.raw!r} holds "
                                 f"'|', which the corpus CSV format cannot escape")
        rows.append([record.record_id, record.venue, record.publication_year,
                     "|".join(m.raw for m in record.authors)])
    return csv_text(rows)


_PUBLICATION_TAGS = frozenset({"article", "inproceedings"})
_TEXT_TAGS = frozenset({"author", "year", "booktitle", "journal"})
# Everything that may come before a document's root element: a byte-order
# mark, then white space, comments, processing instructions (the XML
# declaration among them) and a DOCTYPE, whose internal subset, if any, holds
# no "]".
_PROLOG_RE = re.compile(rb"(?:\xef\xbb\xbf)?(?:\s+|<!--.*?-->|<\?.*?\?>"
                        rb"|<!DOCTYPE\s[^\[>]*(?:\[[^\]]*\]\s*)?>)*", re.S)
_STREAM_WRAPPER_OPEN = b"<namecohort-stream>"
_STREAM_WRAPPER_CLOSE = b"</namecohort-stream>"
_CHUNK_SIZE = 1 << 16


def parse_dblp_subset(stream: IO[bytes] | IO[str], strict: bool = False,
                      ledger: OverrideLedger | None = None) -> CorpusParseResult:
    """Stream-parse DBLP-style XML: article/inproceedings elements with a key
    attribute, repeated author children, a year, and an optional venue
    (booktitle or journal). Everything else is ignored.

    Besides the records returned, memory holds at most one publication's
    text (character data is dropped where an author, year or venue child
    starts and at every element start outside a publication) and one memo
    entry per distinct name token in this call (each is normalized once),
    regardless of file size. A ledger, if given, is
    applied as :func:`parse_corpus_csv` applies it. Publications missing a
    key, a usable year (ASCII digits, white space around them allowed), or
    any author are skipped and tallied; in strict
    mode the first of them raises DblpParseError with the byte offset of
    its start tag. Malformed XML raises DblpParseError with the byte offset. The input
    may be a whole document or a root-less fragment stream. A document's
    XML declaration and DOCTYPE are read as such, within the first 64 KiB:
    a byte stream is decoded by the declared encoding (a text stream is
    already decoded), and when the DOCTYPE names an external DTD, which is
    never fetched, a named entity it would declare, such as ``&uuml;``, is
    resolved as the HTML entity of that name. Entity declarations, other
    entities beyond the XML built-ins, and a declared encoding that Python
    does not know or cannot decode byte by byte (such as big5), and a text
    stream holding a lone surrogate, raise DblpParseError.
    """
    result = CorpusParseResult()
    result.records = _records(_parse_dblp(stream, strict, ledger, result))
    return result


def _parse_dblp(stream: IO[bytes] | IO[str], strict: bool, ledger: OverrideLedger | None,
                result: CorpusParseResult) -> Iterator[Row]:
    """The rows of :func:`parse_dblp_subset`, those finished in each 64 KiB
    chunk once it is parsed; skips are tallied in result as they happen,
    and the ledger's unmatched entries stored in it once the stream is
    used up.

    The expat handlers are closures over this call's state. depth is 0
    outside a publication, 1 at its start tag and 2 in its direct children
    (more below them), so only direct children are captured and a nested
    publication tag cannot close the outer element early. All character
    data goes straight into chunks, which is cleared where a text tag
    starts and at every element start outside a publication, so it never
    holds more than one publication's text.
    """
    import xml.parsers.expat

    mentions = _Mentions(ledger)
    mention = mentions.mention
    head = stream.read(_CHUNK_SIZE)
    text_mode = isinstance(head, str)
    if text_mode:
        # A lone surrogate passes into the bytes, where expat rejects it.
        head = head.encode("utf-8", "surrogatepass")
    parser = xml.parsers.expat.ParserCreate("UTF-8" if text_mode else None)
    # The wrapper element follows the prolog, since a declaration must start
    # the document and a DOCTYPE must precede its root.
    prolog = _PROLOG_RE.match(head).end()

    def input_offset(index: int) -> int:
        """The input's byte offset at the parser's index, wrapper excluded."""
        return index if index < prolog else max(prolog, index - len(_STREAM_WRAPPER_OPEN))

    rows: list[Row] = []  # finished since the caller last took them
    chunks: list[str] = []
    authors: list[str] = []
    depth = 0
    tag = key = year = None
    venue = ""
    start = 0  # the parser's byte index at the current publication's start tag

    def start_element(name: str, attrs: dict[str, str]) -> None:
        nonlocal depth, tag, key, year, venue, start
        if depth:
            depth += 1
            if depth == 2 and name in _TEXT_TAGS:
                chunks.clear()
            return
        chunks.clear()
        if name in _PUBLICATION_TAGS:
            depth = 1
            tag, key, year, venue, start = name, attrs.get("key"), None, "", parser.CurrentByteIndex
            authors.clear()

    def end_element(name: str) -> None:
        nonlocal depth, year, venue
        if depth == 2:
            depth = 1
            if name in _TEXT_TAGS:
                text = "".join(chunks).strip()
                if name == "author":
                    authors.append(text)
                elif name == "year":
                    year = text
                else:  # booktitle / journal
                    venue = text
        elif depth > 2:
            depth -= 1
        elif depth:
            depth = 0
            finish()

    def finish() -> None:
        number = None if year is None else _year(year)
        names = [a for a in authors if a]
        if not key:
            problem = f"<{tag}> without key attribute"
        elif year is None:
            problem = f"{key}: missing year"
        elif number is None:
            problem = f"{key}: invalid year {year!r}"
        elif not (MIN_PLAUSIBLE_YEAR <= number <= MAX_PLAUSIBLE_YEAR):
            problem = f"{key}: year {number} out of range"
        elif not names:
            problem = f"{key}: no authors"
        else:
            rows.append((key, venue, number, [mention(a, venue, number) for a in names]))
            return
        if strict:
            raise DblpParseError(problem, input_offset(start))
        result.skipped += 1
        result.problems.append(problem)

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        """A reference to an entity the unread external DTD would declare:
        its text is that of the HTML named entity."""
        import html.entities

        text = html.entities.html5.get(f"{name};")
        if is_parameter_entity or text is None:
            raise DblpParseError(f"undefined entity &{name};",
                                 input_offset(parser.CurrentByteIndex))
        chunks.append(text)

    def reject_entity_decl(*_args):
        raise DblpParseError("entity declarations are not supported",
                             input_offset(parser.CurrentByteIndex))

    parser.buffer_text = True
    parser.SetParamEntityParsing(xml.parsers.expat.XML_PARAM_ENTITY_PARSING_NEVER)
    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = chunks.append
    parser.SkippedEntityHandler = skipped_entity
    parser.EntityDeclHandler = reject_entity_decl
    parser.ExternalEntityRefHandler = lambda *a: 0

    try:
        parser.Parse(head[:prolog], False)
        parser.Parse(_STREAM_WRAPPER_OPEN, False)
        chunk = head[prolog:]
        while chunk:
            parser.Parse(chunk, False)
            yield from rows
            rows.clear()
            chunk = stream.read(_CHUNK_SIZE)
            if isinstance(chunk, str):
                chunk = chunk.encode("utf-8", "surrogatepass")
        parser.Parse(_STREAM_WRAPPER_CLOSE, True)
        yield from rows
    except xml.parsers.expat.ExpatError as exc:
        raise DblpParseError(xml.parsers.expat.errors.messages[exc.code],
                             input_offset(parser.ErrorByteIndex)) from None
    except DblpParseError:
        raise
    except (LookupError, ValueError) as exc:
        # Raised, UnicodeError among them, when the declared encoding is
        # one that Python's codecs cannot give expat as a one-byte table.
        raise DblpParseError(f"unusable encoding ({exc})",
                             input_offset(parser.ErrorByteIndex)) from None
    result.unmatched = mentions.unmatched()


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
        if not self.key:  # it would match every honorific-only author
            raise ValueError("override with an empty key")
        if not self.source_note.strip():
            raise ValueError(f"override for {self.key!r} lacks a source note")
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
        self._entries: list[OverrideEntry] = []
        self._by_key: dict[str, list[OverrideEntry]] = {}
        self._scopes: set[tuple] = set()
        for entry in entries:
            self._add(entry)

    def _add(self, entry: OverrideEntry) -> None:
        """Append an entry; a repeated (key, scope) raises ValueError."""
        scope = (entry.key, entry.year_from, entry.year_to, entry.venue)
        if scope in self._scopes:
            raise ValueError(f"duplicate override key/scope {scope}")
        self._scopes.add(scope)
        self._entries.append(entry)
        self._by_key.setdefault(entry.key, []).append(entry)

    @property
    def entries(self) -> tuple[OverrideEntry, ...]:
        return tuple(self._entries)

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

    Empty scope cells mean unscoped; gender must be F, M, or U; a year is
    ASCII digits, white space around them allowed, and a year scope needs
    year_from <= year_to; every entry must carry a source note; keys,
    normalized on load, may not be empty or repeat within one scope. Each
    error is a CorpusFormatError naming its line.
    """
    full_name = full_name_normalizer()
    ledger = OverrideLedger(())
    for lineno, row in _csv_rows(stream, LEDGER_HEADER):
        if len(row) != 6:
            raise CorpusFormatError(f"expected 6 columns, got {len(row)}", lineno)
        key, raw_gender, year_from, year_to, venue, note = row
        if raw_gender not in ("F", "M", "U"):
            raise CorpusFormatError(f"invalid gender {raw_gender!r}", lineno)
        scope = []
        for column, text in (("year_from", year_from), ("year_to", year_to)):
            scope.append(_year(text))
            if scope[-1] is None and text.strip():
                raise CorpusFormatError(f"invalid {column} {text!r}", lineno)
        try:
            ledger._add(OverrideEntry(
                key=full_name(key),
                gender=Gender(raw_gender),
                year_from=scope[0],
                year_to=scope[1],
                venue=venue.strip() or None,
                source_note=note.strip(),
            ))
        except ValueError as exc:
            raise CorpusFormatError(str(exc), lineno) from None
    return ledger


class _Mentions:
    """One call's author mentions, each built from one tokenization of its
    author string: the first token gives the given name and, with a ledger,
    the tokens give the override. Each distinct token is normalized once.

    A mention builds its full-name key only when the key can equal a ledger
    key: the key joins the non-empty key parts, so it ends in the last word
    of the last token's part, which must then end some ledger key; when that
    part is empty, the key is built.
    """

    def __init__(self, ledger: OverrideLedger | None):
        self._ledger = ledger
        self._first_name = functools.cache(_first_name)
        self._key_part = functools.cache(_key_part)
        self._entries = ledger.entries if ledger else ()
        surnames = {entry.key.rpartition(" ")[2] for entry in self._entries}

        @functools.cache
        def may_end_key(token: str) -> bool:
            part = _key_part(token)
            return not part or part.rpartition(" ")[2] in surnames

        self._may_end_key = may_end_key
        self._used: set[OverrideEntry] = set()

    def mention(self, raw: str, venue: str, year: int) -> Mention:
        """The mention of raw in a record of this venue and year, carrying
        the gender of the first ledger entry whose key is its full-name key
        and whose scope holds the venue and year."""
        tokens = _author_tokens(raw)
        first_name = self._first_name(tokens[0]) if tokens else None
        gender = None
        if self._ledger is not None and tokens and self._may_end_key(tokens[-1]):
            entry = self._ledger.match(_full_key(tokens, self._key_part), venue, year)
            if entry is not None:
                self._used.add(entry)
                gender = entry.gender
        return raw, first_name, gender

    def unmatched(self) -> list[OverrideEntry]:
        """The ledger's entries that no mention matched, in ledger order."""
        return [entry for entry in self._entries if entry not in self._used]


def warn_unmatched(entries: Iterable[OverrideEntry]) -> None:
    """Log a warning for each ledger entry that never matched, since a stale
    key usually means a normalization mismatch."""
    for entry in entries:
        import logging  # loaded only when there is something to warn about

        logging.getLogger(__name__).warning(
            "override entry never matched: %r (scope venue=%r years=%s-%s)",
            entry.key, entry.venue, entry.year_from, entry.year_to)


def apply_overrides(records: Sequence[CorpusRecord],
                    ledger: OverrideLedger) -> list[CorpusRecord]:
    """Stamp override genders onto matching mentions; order is preserved.

    A mention matches when its normalized full name equals a ledger key and
    the record falls inside the entry's venue/year scope; a mention that
    matches nothing keeps the override it had. Ledger entries that never
    matched anything are reported by :func:`warn_unmatched`. Each distinct
    name token is folded once per call.
    """
    mentions = _Mentions(ledger)
    out = _records(
        (record_id, venue, year,
         [(raw, first_name, mentions.mention(raw, venue, year)[2] or gender)
          for raw, first_name, gender in authors])
        for record_id, venue, year, authors in records)
    warn_unmatched(mentions.unmatched())
    return out
