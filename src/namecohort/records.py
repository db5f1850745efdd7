"""The corpus record API: a publication and its author mentions as frozen
dataclasses, which ``dataclasses.replace`` and ``dataclasses.asdict`` accept.

The corpus commands pass rows on and build no record, so they never import
this module, nor ``dataclasses`` and ``inspect`` with it; :mod:`corpus`
loads it where a record is first built or named.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .corpus import MAX_PLAUSIBLE_YEAR, MIN_PLAUSIBLE_YEAR
from .model import Gender
from .names import extract_first_name
from .ssa import _excerpt

if TYPE_CHECKING:
    from .corpus import Row


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
            raise ValueError(f"record {_excerpt(self.record_id)} has no authors")
        if not (MIN_PLAUSIBLE_YEAR <= self.publication_year <= MAX_PLAUSIBLE_YEAR):
            raise ValueError(
                f"record {_excerpt(self.record_id)} year {_excerpt(self.publication_year)} "
                f"outside {MIN_PLAUSIBLE_YEAR}-{MAX_PLAUSIBLE_YEAR}"
            )

    def __iter__(self) -> Iterator:
        return iter((self.record_id, self.venue, self.publication_year, self.authors))


def _records(rows: Iterable[Row]) -> list[CorpusRecord]:
    """The records of rows, validated as CorpusRecord validates them."""
    return [CorpusRecord(record_id, venue, year,
                         tuple([AuthorMention(*mention) for mention in mentions]))
            for record_id, venue, year, mentions in rows]
