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
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .model import Gender
from .names import (Value, _author_tokens, _first_name, _full_key, _key_part, csv_text,
                    extract_first_name, normalize_full_name)
from .ssa import _excerpt, _undecodable_line

if TYPE_CHECKING:
    from .records import CorpusRecord

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


# A parsed publication as the corpus commands pass it on, with no per-row
# objects: (record_id, venue, year, mentions), each mention a tuple
# (raw, first_name, override_gender) of the fields of an AuthorMention.
# A CorpusRecord and its AuthorMentions unpack the same way.
Mention = tuple[str, str | None, Gender | None]
Row = tuple[str, str, int, list[Mention]]


def __getattr__(name: str):
    """AuthorMention, CorpusRecord and make_mention, imported from
    :mod:`namecohort.records` on first use (PEP 562): the corpus commands
    build no record, so they never load that module or dataclasses."""
    if name not in ("AuthorMention", "CorpusRecord", "make_mention"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import records

    value = globals()[name] = getattr(records, name)
    return value


def _year(text: str) -> int | None:
    """The year written in text as ASCII digits, white space around them
    allowed; None for any other text (int() would also take signs,
    underscores and other scripts' digits) and for more digits than int()
    converts."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        return None


class CorpusParseResult:
    """Parsed records, the count of rows or elements skipped in lenient mode
    (a strict parse gives a skip's reason), and, when a ledger was applied,
    its entries that matched nothing."""

    __slots__ = ("records", "skipped", "unmatched")

    def __init__(self):
        self.records: list[CorpusRecord] = []
        self.skipped = 0
        self.unmatched: list[OverrideEntry] = []


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


def _check_csv_row(row: list[str], lineno: int, mention: Callable[..., Mention]) -> Row:
    if len(row) != 4:
        raise CorpusFormatError(f"expected 4 columns, got {len(row)}", lineno)
    record_id, venue, raw_year, raw_authors = row
    year = _year(raw_year)
    if year is None:
        raise CorpusFormatError(f"invalid year {_excerpt(raw_year)}", lineno)
    if not (MIN_PLAUSIBLE_YEAR <= year <= MAX_PLAUSIBLE_YEAR):
        raise CorpusFormatError(f"year {_excerpt(year)} out of range "
                                f"{MIN_PLAUSIBLE_YEAR}-{MAX_PLAUSIBLE_YEAR}", lineno)
    if not raw_authors:
        raise CorpusFormatError("empty authors field", lineno)
    authors = raw_authors.split("|")
    if "" in map(str.strip, authors):
        raise CorpusFormatError("empty author name in authors field", lineno)
    return record_id, venue, year, [mention(a, venue, year) for a in authors]


def _parse_csv(stream: IO[str] | Iterable[str], strict: bool, ledger: OverrideLedger | None,
               result: CorpusParseResult) -> Iterator[Row]:
    """The rows of :func:`parse_corpus_csv`, one per good CSV row as it is
    read; skips are counted in result.skipped as they happen, and the
    ledger's unmatched entries stored in result once the stream is used up."""
    mention, unmatched = _mentions(ledger)
    for lineno, cells in _csv_rows(stream, CSV_HEADER):
        try:
            row = _check_csv_row(cells, lineno, mention)
        except CorpusFormatError:
            if strict:
                raise
            result.skipped += 1
            continue
        yield row
    result.unmatched = unmatched()


def parse_corpus_csv(stream: IO[str] | Iterable[str], strict: bool = True,
                     ledger: OverrideLedger | None = None) -> CorpusParseResult:
    """Parse the corpus CSV format: header record_id,venue,year,authors with
    pipe-separated author strings, order preserved. A year is ASCII digits,
    white space around them allowed.

    In strict mode the first bad row aborts with its line number and reason;
    in lenient mode bad rows are skipped and only counted, in the result's
    skipped; a row the csv module refuses aborts in either mode. Each author
    string is tokenized once. The call caches two things per distinct token:
    the given name of each given-name token and, with a ledger, whether each
    last token can end a ledger key. A ledger, if given, is applied as
    :func:`apply_overrides` applies it, except that its unmatched entries
    are returned in the result, not logged.
    """
    from .records import _records

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
                raise ValueError(f"record {_excerpt(record.record_id)}: author "
                                 f"{_excerpt(mention.raw)} holds '|', which the corpus CSV "
                                 "format cannot escape")
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
_UNKNOWN_ENCODING = "unknown encoding: "  # how codecs.lookup refuses a name


def parse_dblp_subset(stream: IO[bytes] | IO[str], strict: bool = False,
                      ledger: OverrideLedger | None = None) -> CorpusParseResult:
    """Stream-parse DBLP-style XML: article/inproceedings elements with a key
    attribute, repeated author children, a year, and an optional venue
    (booktitle or journal). Everything else is ignored.

    Besides the records returned, memory holds at most one publication's
    text (character data is dropped where an author, year or venue child
    starts and at every element start outside a publication), whatever the
    file size, and the call's cache entries: one per distinct given-name
    token and, with a ledger, one per distinct last token, each normalized
    once. A ledger, if given, is applied as :func:`parse_corpus_csv` applies
    it. Publications missing a key, a usable year (ASCII digits, white space
    around them allowed), or any author are skipped and only counted, in the
    result's skipped; in strict mode the first of them raises DblpParseError
    with its reason and the byte offset of its start tag. Malformed XML
    raises DblpParseError with the byte offset. The input may be a whole
    document or a root-less fragment stream. A document's
    XML declaration and DOCTYPE are read as such, within the first 64 KiB:
    a byte stream is decoded by the declared encoding (a text stream is
    already decoded), and when the DOCTYPE names an external DTD, which is
    never fetched, a named entity it would declare, such as ``&uuml;``, is
    resolved as the HTML entity of that name. Entity declarations, other
    entities beyond the XML built-ins, and a declared encoding that Python
    does not know or cannot decode byte by byte (such as big5), and a text
    stream holding a lone surrogate, raise DblpParseError.
    """
    from .records import _records

    result = CorpusParseResult()
    result.records = _records(_parse_dblp(stream, strict, ledger, result))
    return result


def _parse_dblp(stream: IO[bytes] | IO[str], strict: bool, ledger: OverrideLedger | None,
                result: CorpusParseResult) -> Iterator[Row]:
    """The rows of :func:`parse_dblp_subset`, those finished in each 64 KiB
    chunk once it is parsed; skips are counted in result.skipped as they
    happen, and the ledger's unmatched entries stored in result once the
    stream is used up.

    The expat handlers are closures over this call's state. depth is 0
    outside a publication, 1 at its start tag and 2 in its direct children
    (more below them), so only direct children are captured and a nested
    publication tag cannot close the outer element early. All character
    data goes straight into chunks, which is cleared where a text tag
    starts and at every element start outside a publication, so it never
    holds more than one publication's text.
    """
    import xml.parsers.expat

    mention, unmatched = _mentions(ledger)
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
            problem = "missing year"
        elif number is None:
            problem = f"invalid year {_excerpt(year)}"
        elif not (MIN_PLAUSIBLE_YEAR <= number <= MAX_PLAUSIBLE_YEAR):
            problem = f"year {_excerpt(number)} out of range"
        elif not names:
            problem = "no authors"
        else:
            rows.append((key, venue, number, [mention(a, venue, number) for a in names]))
            return
        if strict:
            if key:
                problem = f"{_excerpt(key, quote=False)}: {problem}"
            raise DblpParseError(problem, input_offset(start))
        result.skipped += 1

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        """A reference to an entity the unread external DTD would declare:
        its text is that of the HTML named entity."""
        import html.entities

        text = html.entities.html5.get(f"{name};")
        if is_parameter_entity or text is None:
            raise DblpParseError(f"undefined entity &{_excerpt(name, quote=False)};",
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
        # Only an unknown encoding's message holds the declared name.
        reason = str(exc)
        if reason.startswith(_UNKNOWN_ENCODING):
            reason = _UNKNOWN_ENCODING + _excerpt(reason[len(_UNKNOWN_ENCODING):], quote=False)
        raise DblpParseError(f"unusable encoding ({reason})",
                             input_offset(parser.ErrorByteIndex)) from None
    result.unmatched = unmatched()


class OverrideEntry(Value):
    """One qualitative identification: a normalized full-name key, optionally
    scoped to a venue and/or an inclusive year range, with its source."""

    __slots__ = ("key", "gender", "year_from", "year_to", "venue", "source_note")

    def __init__(self, key: str, gender: Gender, year_from: int | None = None,
                 year_to: int | None = None, venue: str | None = None, source_note: str = ""):
        if not key:  # it would match every honorific-only author
            raise ValueError("override with an empty key")
        if not source_note.strip():
            raise ValueError(f"override for {_excerpt(key)} lacks a source note")
        if year_from is not None and year_to is not None and year_from > year_to:
            raise ValueError(f"override for {_excerpt(key)} has year_from "
                             f"{_excerpt(year_from)} after year_to {_excerpt(year_to)}")
        super().__init__(key, gender, year_from, year_to, venue, source_note)

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
        self._by_scope: dict[tuple, OverrideEntry] = {}  # in ledger order
        self._by_key: dict[str, list[OverrideEntry]] = {}
        for entry in entries:
            self._add(entry)

    def _add(self, entry: OverrideEntry) -> None:
        """Append an entry; a repeated (key, scope) raises ValueError."""
        scope = (entry.key, entry.year_from, entry.year_to, entry.venue)
        if scope in self._by_scope:
            raise ValueError(f"duplicate override key/scope ({', '.join(map(_excerpt, scope))})")
        self._by_scope[scope] = entry
        self._by_key.setdefault(entry.key, []).append(entry)

    @property
    def entries(self) -> tuple[OverrideEntry, ...]:
        return tuple(self._by_scope.values())

    def match(self, full_name_key: str, venue: str, year: int) -> OverrideEntry | None:
        """First entry (in ledger order) matching the key within scope."""
        for entry in self._by_key.get(full_name_key, []):
            if entry.applies_to(venue, year):
                return entry
        return None

    def __len__(self) -> int:
        return len(self._by_scope)


def read_override_ledger(stream: IO[str] | Iterable[str]) -> OverrideLedger:
    """Parse the override CSV: key,gender,year_from,year_to,venue,source_note.

    Empty scope cells mean unscoped; gender must be F, M, or U; a year is
    ASCII digits, white space around them allowed, and a year scope needs
    year_from <= year_to; every entry must carry a source note; keys,
    normalized on load, may not be empty or repeat within one scope. Each
    error is a CorpusFormatError naming its line.
    """
    ledger = OverrideLedger(())
    for lineno, row in _csv_rows(stream, LEDGER_HEADER):
        if len(row) != 6:
            raise CorpusFormatError(f"expected 6 columns, got {len(row)}", lineno)
        key, raw_gender, year_from, year_to, venue, note = row
        if raw_gender not in ("F", "M", "U"):
            raise CorpusFormatError(f"invalid gender {_excerpt(raw_gender)}", lineno)
        scope = []
        for column, text in (("year_from", year_from), ("year_to", year_to)):
            scope.append(_year(text))
            if scope[-1] is None and text.strip():
                raise CorpusFormatError(f"invalid {column} {_excerpt(text)}", lineno)
        try:
            ledger._add(OverrideEntry(
                key=normalize_full_name(key),
                gender=Gender(raw_gender),
                year_from=scope[0],
                year_to=scope[1],
                venue=venue.strip() or None,
                source_note=note.strip(),
            ))
        except ValueError as exc:
            raise CorpusFormatError(str(exc), lineno) from None
    return ledger


def _mentions(ledger: OverrideLedger | None) -> tuple[Callable[..., Mention], Callable]:
    """One call's mention(raw, venue, year) and unmatched() closures. Each
    mention is built from one tokenization of its author string: the first
    token gives the given name and, with a ledger, the tokens give the
    override. Each distinct given-name token, and with a ledger each
    distinct last token, is normalized once.

    A mention builds its full-name key only when the key can equal a ledger
    key: the key joins the non-empty key parts, so it ends in the last word
    of the last token's part, which must then end some ledger key; when that
    part is empty, the key is built.
    """
    first_name = functools.cache(_first_name)
    entries = ledger.entries if ledger else ()
    surnames = {entry.key.rpartition(" ")[2] for entry in entries}
    used: set[OverrideEntry] = set()

    @functools.cache
    def may_end_key(token: str) -> bool:
        part = _key_part(token)
        return not part or part.rpartition(" ")[2] in surnames

    def mention(raw: str, venue: str, year: int) -> Mention:
        """The mention of raw in a record of this venue and year, carrying
        the gender of the first ledger entry whose key is its full-name key
        and whose scope holds the venue and year."""
        tokens = _author_tokens(raw)
        gender = None
        if ledger is not None and tokens and may_end_key(tokens[-1]):
            entry = ledger.match(_full_key(tokens), venue, year)
            if entry is not None:
                used.add(entry)
                gender = entry.gender
        return raw, first_name(tokens[0]) if tokens else None, gender

    def unmatched() -> list[OverrideEntry]:
        """The ledger's entries that no mention matched, in ledger order."""
        return [entry for entry in entries if entry not in used]

    return mention, unmatched


def warn_unmatched(entries: Iterable[OverrideEntry]) -> None:
    """Log a warning for each ledger entry that never matched, since a stale
    key usually means a normalization mismatch."""
    for entry in entries:
        import logging  # loaded only when there is something to warn about

        logging.getLogger(__name__).warning(
            "override entry never matched: %s (scope venue=%s years=%s-%s)",
            *map(_excerpt, (entry.key, entry.venue, entry.year_from, entry.year_to)))


def apply_overrides(records: Sequence[CorpusRecord],
                    ledger: OverrideLedger) -> list[CorpusRecord]:
    """Stamp override genders onto matching mentions; order is preserved.

    A mention matches when its normalized full name equals a ledger key and
    the record falls inside the entry's venue/year scope; a mention that
    matches nothing keeps the override it had. Ledger entries that never
    matched anything are reported by :func:`warn_unmatched`. Each distinct
    last token is folded once per call.
    """
    from .records import _records

    mention, unmatched = _mentions(ledger)
    out = _records(
        (record_id, venue, year,
         [(raw, first_name, mention(raw, venue, year)[2] or gender)
          for raw, first_name, gender in authors])
        for record_id, venue, year, authors in records)
    warn_unmatched(unmatched())
    return out
