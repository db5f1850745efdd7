"""Name-string normalization shared by table lookups, corpus parsing, and dedup.

All gender lookups key on the normalized form produced here: diacritics are
folded to their nearest ASCII letter (the birth-registration corpus is ASCII),
case is dropped, and honorifics are stripped. Raw author strings are never
mutated by callers; normalization happens at comparison time. Every CSV the
package writes, whose cells hold names, is written by :func:`csv_text`.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from typing import Callable, Iterable

# Letters that do not decompose under NFKD; mapped to their conventional
# basic-letter transliterations.
_CHAR_MAP = str.maketrans(
    {
        "ø": "o", "Ø": "O",
        "ł": "l", "Ł": "L",
        "đ": "d", "Đ": "D",
        "ð": "d", "Ð": "D",
        "þ": "th", "Þ": "Th",
        "ß": "ss",
        "æ": "ae", "Æ": "Ae",
        "œ": "oe", "Œ": "Oe",
    }
)

_HONORIFICS = {"mr", "mrs", "miss", "prof", "dr"}

# One or more single letters, each optionally followed by a period: "J",
# "B.", "R.C.". Two adjacent letters ("RC") do not count as an initial.
_INITIAL_RE = re.compile(r"^([a-z]\.)*[a-z]\.?$")

_PUNCT_RE = re.compile(r"[.,;:()\[\]{}\"']+")


def strip_diacritics(text: str) -> str:
    """Fold accented characters to their base letters."""
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text.translate(_CHAR_MAP))
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_name(name: str) -> str:
    """Canonical lowercase diacritic-free key for a single name token."""
    return strip_diacritics(name).strip().lower()


def _author_tokens(raw: str) -> list[str]:
    """An author string's tokens, given name first: "Surname, Given[, suffix]"
    flips and its suffix drops, other commas split, leading honorifics drop."""
    if "," in raw:
        parts = [part.strip() for part in raw.split(",")]
        raw = f"{parts[1]} {parts[0]}" if parts[0] and parts[1] else " ".join(parts)
    tokens = raw.split()
    while tokens and tokens[0].rstrip(".").lower() in _HONORIFICS:
        del tokens[0]
    return tokens


def _first_name(token: str) -> str | None:
    """The normalized first name of a given-name token; None when initial-only."""
    first = normalize_name(token)
    if not first or _INITIAL_RE.match(first):
        return None
    return first.strip(".,;:") or None


def _key_part(token: str) -> str:
    """A token's part of the full-name key: folded, lowercased, punctuation
    turned into spaces, whitespace collapsed."""
    return " ".join(_PUNCT_RE.sub(" ", strip_diacritics(token).lower()).split())


def extract_first_name(raw: str) -> str | None:
    """Extract the normalized given name from a raw author string.

    Returns None when the given name is initial-only (a bare letter or a
    run of single letters such as "R.C."), or when nothing survives
    honorific stripping. "Surname, Given" order is detected via the comma
    and flipped; hyphenated given names are kept whole.
    """
    tokens = _author_tokens(raw)
    return _first_name(tokens[0]) if tokens else None


def _full_key(tokens: list[str], key_part: Callable[[str], str] = _key_part) -> str:
    """The full-name key of an author's tokens: their non-empty key parts
    joined by single spaces."""
    return " ".join(filter(None, map(key_part, tokens)))


def normalize_full_name(raw: str) -> str:
    """Canonical full-name key: given-name-first, folded, punctuation-free.

    Used for dedup and for matching qualitative override entries, so that
    "Bartik, Jean", "Jean  Bartik " and "jean bartik" all collide. It joins
    the non-empty key part of each token.
    """
    return _full_key(_author_tokens(raw))


def full_name_normalizer() -> Callable[[str], str]:
    """:func:`normalize_full_name` for one pass: each distinct token is folded once."""
    key_part = functools.cache(_key_part)
    return lambda raw: _full_key(_author_tokens(raw), key_part)


_QUOTED = frozenset(',"\n\r')


def _csv_cell(value: object) -> str:
    text = "" if value is None else str(value)
    if _QUOTED.intersection(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(rows: Iterable[Iterable[object]]) -> str:
    """Rows as CSV text, each ending in a newline. A cell is empty for None
    and str() of anything else (a float's round-trip repr); it is quoted,
    with its double quotes doubled, only when it holds a comma, a double
    quote, a newline or a carriage return."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
