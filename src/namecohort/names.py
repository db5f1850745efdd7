"""Name-string normalization shared by table lookups, corpus parsing, and dedup.

All gender lookups key on the normalized form produced here: diacritics are
folded to their nearest ASCII letter (the birth-registration corpus is ASCII),
case is dropped, and honorifics are stripped. Raw author strings are never
mutated by callers; normalization happens at comparison time. Every CSV the
package writes, whose cells hold names, is written by :func:`csv_text`.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Iterable

# Lowercase letters that NFKD leaves whole; mapped to their conventional
# basic-letter transliterations.
_CHAR_MAP = str.maketrans({"ø": "o", "ł": "l", "đ": "d", "ð": "d", "þ": "th", "ß": "ss",
                           "æ": "ae", "œ": "oe"})

_HONORIFICS = {"mr", "mrs", "miss", "prof", "dr"}

# One or more single letters, each optionally followed by a period: "J",
# "B.", "R.C.". Two adjacent letters ("RC") do not count as an initial.
_INITIAL_RE = re.compile(r"^([a-z]\.)*[a-z]\.?$")

_PUNCT_RE = re.compile(r"[.,;:()\[\]{}\"']+")


def _fold(text: str) -> str:
    """Fold text for a key: NFKD, combining marks dropped, lowercased, then
    the letters NFKD leaves whole mapped. In this order a folded text folds
    to itself."""
    if text.isascii():
        return text.lower()
    decomposed = unicodedata.normalize("NFKD", text)
    kept = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return kept.lower().translate(_CHAR_MAP)


def normalize_name(name: str) -> str:
    """Canonical lowercase diacritic-free key for a single name token."""
    return _fold(name).strip()


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
    """The normalized first name of a given-name token; None when initial-only.
    White space is stripped again after the punctuation, since a fold can
    put a space next to it ("¨" folds to " "), and only then is the name
    checked for an initial ("J¨." gives None, not "j")."""
    first = normalize_name(token).strip(".,;:").strip()
    return None if not first or _INITIAL_RE.match(first) else first


def _key_part(token: str) -> str:
    """A token's part of the full-name key: folded, punctuation turned into
    spaces, whitespace collapsed."""
    return " ".join(_PUNCT_RE.sub(" ", _fold(token)).split())


def extract_first_name(raw: str) -> str | None:
    """Extract the normalized given name from a raw author string.

    Returns None when the given name is initial-only (a bare letter or a
    run of single letters such as "R.C."), or when nothing survives
    honorific stripping. "Surname, Given" order is detected via the comma
    and flipped; hyphenated given names are kept whole.
    """
    tokens = _author_tokens(raw)
    return _first_name(tokens[0]) if tokens else None


def _full_key(tokens: list[str]) -> str:
    """The full-name key of an author's tokens: their non-empty key parts
    joined by single spaces."""
    return " ".join(filter(None, map(_key_part, tokens)))


def normalize_full_name(raw: str) -> str:
    """Canonical full-name key: given-name-first, folded, punctuation-free.

    Used for dedup and for matching qualitative override entries, so that
    "Bartik, Jean", "Jean  Bartik " and "jean bartik" all collide. It joins
    the non-empty key part of each token.
    """
    return _full_key(_author_tokens(raw))


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


class Value:
    """The package's record and config types: frozen, with their __slots__ as
    fields, and equal, hashed and shown as a frozen dataclass is. A subclass's
    __init__ checks its arguments, then passes its fields in slot order to
    Value.__init__. (Defined here because every command imports this module.)"""

    __slots__ = ()

    def __init__(self, *fields):
        for name, field in zip(self.__slots__, fields):
            object.__setattr__(self, name, field)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        same_class = other.__class__ is self.__class__
        return self._asdict() == other._asdict() if same_class else NotImplemented

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={field!r}" for name, field in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, so re-check
        return type(self), tuple(self._asdict().values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
