"""Name-string normalization shared by table lookups, corpus parsing, and dedup.

All gender lookups key on the normalized form produced here: diacritics are
folded to their nearest ASCII letter (the birth-registration corpus is ASCII),
case is dropped, and honorifics are stripped. Raw author strings are never
mutated by callers; normalization happens at comparison time.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from typing import Callable

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
_WS_RE = re.compile(r"\s+")


def strip_diacritics(text: str) -> str:
    """Fold accented characters to their base letters."""
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text.translate(_CHAR_MAP))
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_name(name: str) -> str:
    """Canonical lowercase diacritic-free key for a single name token."""
    return strip_diacritics(name).strip().lower()


def _flip_comma_form(raw: str) -> str:
    """Turn "Surname, Given[, suffix]" into "Given Surname"; suffixes drop."""
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) >= 2 and parts[0] and parts[1]:
        return f"{parts[1]} {parts[0]}"
    return raw.replace(",", " ")


def _drop_honorifics(tokens: list[str]) -> list[str]:
    while tokens and tokens[0].rstrip(".").lower() in _HONORIFICS:
        tokens = tokens[1:]
    return tokens


def _given_token(raw: str) -> str | None:
    """The raw given-name token: the first token after any "Surname, Given"
    flip and honorific stripping, or None when nothing survives."""
    if "," in raw:
        raw = _flip_comma_form(raw)
    for token in raw.split():
        if token.rstrip(".").lower() not in _HONORIFICS:
            return token
    return None


def _first_name(token: str) -> str | None:
    """The normalized first name of a given-name token; None when initial-only."""
    first = normalize_name(token)
    if not first or _INITIAL_RE.match(first):
        return None
    return first.strip(".,;:") or None


def extract_first_name(raw: str) -> str | None:
    """Extract the normalized given name from a raw author string.

    Returns None when the given name is initial-only (a bare letter or a
    run of single letters such as "R.C."), or when nothing survives
    honorific stripping. "Surname, Given" order is detected via the comma
    and flipped; hyphenated given names are kept whole.
    """
    token = _given_token(raw)
    return None if token is None else _first_name(token)


def first_name_extractor() -> Callable[[str], str | None]:
    """:func:`extract_first_name` for one parse: it normalizes each distinct
    given-name token once, however many author strings carry it."""
    first_name = functools.cache(_first_name)

    def extract(raw: str) -> str | None:
        token = _given_token(raw)
        return None if token is None else first_name(token)

    return extract


def normalize_full_name(raw: str) -> str:
    """Canonical full-name key: given-name-first, folded, punctuation-free.

    Used for dedup and for matching qualitative override entries, so that
    "Bartik, Jean", "Jean  Bartik " and "jean bartik" all collide.
    """
    text = raw.strip()
    if "," in text:
        text = _flip_comma_form(text)
    tokens = _drop_honorifics(text.split())
    folded = strip_diacritics(" ".join(tokens)).lower()
    folded = _PUNCT_RE.sub(" ", folded)
    return _WS_RE.sub(" ", folded).strip()
