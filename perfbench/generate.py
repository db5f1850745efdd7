"""Seeded input generators for the benchmark, with their ground truth.

Every generator takes a ``random.Random`` and returns both the bytes it
wrote (through the files it creates) and the ground truth the reference in
``reference.py`` needs: the (name, year) -> (female, male) counts the year
files encode, each corpus record's normalized name keys, the override
ledger as data, and the number of malformed entries planted. Nothing here
imports ``namecohort``: the truth comes from how the inputs were built.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

FIRST_YEAR, LAST_YEAR = 1880, 2023
CORPUS_YEARS = (1950, 2023)

# Sizes at scale 1.0, the ROADMAP's "real shape": the national name files
# hold about 2M rows over about 100k names; the bibliography about 200k
# records and 600k mentions.
FULL_SCALE = {
    "names": 100_000,
    "records": 200_000,
    "ledger": 1_000,
    "unknown_pool": 100_000,
}

_ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "ch", "cl", "dr", "gr", "kr", "sh",
           "st", "th", "tr", "fl", "sl"]
_VOWELS = ["a", "e", "i", "o", "u", "ae", "ai", "ei", "ia", "io", "ou", "y"]
_CODAS = ["", "", "", "n", "l", "r", "s", "th", "x", "nd", "rt", "m"]
_HONORIFIC_WORDS = {"mr", "mrs", "miss", "prof", "dr"}
_HONORIFICS = ["Dr.", "Prof.", "Mrs.", "Mr.", "Miss"]

# Accented forms that fold back to the ASCII letter under NFKD (or the
# package's explicit transliteration map, for o -> ø and l -> ł).
_GIVEN_ACCENTS = {"a": "áàä", "e": "éèë", "i": "íï", "o": "óö", "u": "úü",
                  "n": "ñ", "c": "ç"}
_SURNAME_ACCENTS = dict(_GIVEN_ACCENTS, o="óöø", l="ł")

_VENUES = [f"{kind} {topic}" for kind in ("Proc. Conf.", "J.", "Trans.", "Symp.")
           for topic in ("Algorithms", "Systems", "Databases", "Networks",
                         "Graphics", "Learning", "Languages", "Theory",
                         "Security", "Robotics", "HCI", "Vision")]


def scaled(scale: float) -> dict[str, int]:
    """Input sizes at a given scale relative to FULL_SCALE (at least 1 each)."""
    return {key: max(1, round(value * scale)) for key, value in FULL_SCALE.items()}


def _word(rng: random.Random, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(_ONSETS) + rng.choice(_VOWELS))
    return "".join(parts) + rng.choice(_CODAS)


def unique_words(rng: random.Random, n: int, exclude: set[str]) -> list[str]:
    """n distinct lowercase pronounceable words, none in exclude."""
    out: list[str] = []
    seen = set(exclude) | _HONORIFIC_WORDS
    while len(out) < n:
        word = _word(rng, rng.choice((2, 2, 3, 3, 4)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _accent(rng: random.Random, word: str, accents: dict[str, str]) -> str:
    spots = [i for i, ch in enumerate(word) if ch.lower() in accents]
    if not spots:
        return word
    i = rng.choice(spots)
    variant = rng.choice(accents[word[i].lower()])
    return word[:i] + (variant.upper() if word[i].isupper() else variant) + word[i + 1:]


# --------------------------------------------------------------------------
# Year files
# --------------------------------------------------------------------------

@dataclass
class Table:
    """Ground truth of a generated name table."""

    counts: dict[tuple[str, int], tuple[int, int]]
    names: list[str]            # all names, by descending popularity
    rows: int                   # year-file rows written
    files: int


def _drifting_share(rng: random.Random, lo: float, hi: float):
    """Female share moving across the century, like leslie or madison."""
    start = rng.choice((rng.uniform(0.0, 0.15), rng.uniform(0.85, 1.0)))
    end = 1.0 - rng.uniform(0.0, 0.2) if start < 0.5 else rng.uniform(0.0, 0.2)
    mid = rng.uniform(max(lo, 1900), min(hi, 2000))
    width = rng.uniform(4, 15)
    return lambda y: start + (end - start) / (1 + math.exp(-(y - mid) / width))


def _steady_share(rng: random.Random):
    """Female share fixed over time: mostly one-sex, a few unisex names."""
    kind = rng.random()
    if kind < 0.47:
        share = 1.0 - rng.random() * 0.004
        return lambda y: share
    if kind < 0.94:
        share = rng.random() * 0.004
    else:
        share = rng.uniform(0.2, 0.8)
    return lambda y: share


def generate_table(rng: random.Random, n_names: int, directory: Path) -> Table:
    """Write yobYYYY.txt files for 1880-2023 in the public files' shape.

    Name popularity is Zipf in rank, each name rises and fades around its
    own peak year, counts carry noise, and rows under 5 are absent. Rank is
    measured on the full-scale name list, so a smaller table is a thinned
    copy of the full one with the same rows per name.
    """
    thin = FULL_SCALE["names"] / n_names
    names = unique_words(rng, n_names, set())
    counts: dict[tuple[str, int], tuple[int, int]] = {}
    by_year: dict[int, list[tuple[str, str, int]]] = {}
    for rank, name in enumerate(names):
        peak = 60_000.0 / ((rank + 0.5) * thin) ** 0.8
        if peak < 5:
            continue
        # Popular names live long and drift more often. Drifting names span
        # the middle of the century, and three of the top names always
        # drift, so even a tiny table has names `shifts --unstable` finds.
        popular = peak / (peak + 2000)
        drifts = rank in (2, 7, 12) or rng.random() < 0.03 + 0.5 * popular
        if drifts:
            center, width = rng.uniform(1920, 1980), rng.uniform(30, 60)
        else:
            center, width = rng.uniform(1850, 2060), rng.uniform(2, 20) + 60 * popular
        reach = width * math.sqrt(2 * math.log(peak / 3.0))
        lo = max(FIRST_YEAR, math.floor(center - reach))
        hi = min(LAST_YEAR, math.ceil(center + reach))
        share = _drifting_share(rng, lo, hi) if drifts else _steady_share(rng)
        display = name.capitalize()
        for year in range(lo, hi + 1):
            total = peak * math.exp(-0.5 * ((year - center) / width) ** 2)
            total *= math.exp(rng.gauss(0.0, 0.2))
            p = share(year)
            female = round(total * p)
            male = round(total * (1 - p))
            female = female if female >= 5 else 0
            male = male if male >= 5 else 0
            if not (female or male):
                continue
            counts[(name, year)] = (female, male)
            rows = by_year.setdefault(year, [])
            if female:
                rows.append((display, "F", female))
            if male:
                rows.append((display, "M", male))
    directory.mkdir(parents=True, exist_ok=True)
    n_rows = 0
    for year, rows in sorted(by_year.items()):
        rows.sort(key=lambda r: (r[1], -r[2], r[0]))
        n_rows += len(rows)
        (directory / f"yob{year}.txt").write_text(
            "".join(f"{n},{s},{c}\n" for n, s, c in rows), encoding="utf-8")
    present = {name for name, _ in counts}
    return Table(counts=counts, names=[n for n in names if n in present],
                 rows=n_rows, files=len(by_year))


def read_year_files(directory: Path) -> Table:
    """Ground truth of an existing year-file directory (the bundled fixture)."""
    counts: dict[tuple[str, int], list[int]] = {}
    rows = files = 0
    for path in sorted(directory.glob("yob*.txt")):
        files += 1
        year = int(path.stem[3:])
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            name, sex, count = line.strip().split(",")
            rows += 1
            slot = counts.setdefault((name.lower(), year), [0, 0])
            slot[0 if sex == "F" else 1] += int(count)
    totals: dict[str, int] = {}
    for (name, _), (f, m) in counts.items():
        totals[name] = totals.get(name, 0) + f + m
    names = sorted(totals, key=lambda n: (-totals[n], n))
    return Table(counts={k: (f, m) for k, (f, m) in counts.items()},
                 names=names, rows=rows, files=files)


# --------------------------------------------------------------------------
# Corpora
# --------------------------------------------------------------------------

@dataclass
class Mention:
    raw: str
    first: str | None   # normalized given name; None when initial-only
    full: str           # normalized full-name key


@dataclass
class Record:
    record_id: str
    venue: str
    year: int
    mentions: list[Mention]


@dataclass
class LedgerEntry:
    key: str
    gender: str
    year_from: int | None
    year_to: int | None
    venue: str | None


@dataclass
class Corpus:
    path: Path
    records: list[Record]           # the well-formed records, in file order
    malformed: int                  # entries planted to be skipped
    ledger: list[LedgerEntry] = field(default_factory=list)
    ledger_path: Path | None = None  # None: the corpus has no override ledger


def _zipf_sampler(rng: random.Random, items: list[str]):
    """Draws items[i] with weight 1 / (i + 1)."""
    cum = list(itertools.accumulate(1.0 / (i + 1) for i in range(len(items))))
    return lambda: rng.choices(items, cum_weights=cum, k=1)[0]


def _initials(rng: random.Random) -> tuple[str, str]:
    """(printed initials, full-key prefix): "R.C." -> "r c"."""
    letters = rng.sample("ABCDEFGHJKLMNPRSTW", rng.choice((1, 1, 1, 2)))
    style = rng.random()
    if style < 0.6:
        printed = "".join(f"{ch}." for ch in letters)
    elif style < 0.8 or len(letters) == 1:
        printed = " ".join(letters)
    else:
        printed = " ".join(f"{ch}." for ch in letters)
    return printed, " ".join(ch.lower() for ch in letters)


def _author(rng: random.Random, given: str, surname: str, csv_forms: bool) -> Mention:
    """Render one author string in a real-world form, with its keys."""
    surname_text = surname.capitalize()
    surname_key = surname
    if rng.random() < 0.04:
        other = surname[::-1]
        surname_text = f"{surname_text}-{other.capitalize()}"
        surname_key = f"{surname}-{other}"
    elif rng.random() < 0.08:
        surname_text = _accent(rng, surname_text, _SURNAME_ACCENTS)
    if rng.random() < 0.15:
        printed, prefix = _initials(rng)
        if csv_forms and rng.random() < 0.3:
            raw = f"{surname_text}, {printed}"
        else:
            raw = f"{printed} {surname_text}"
        return Mention(raw=raw, first=None, full=f"{prefix} {surname_key}")
    given_text = given.capitalize()
    if rng.random() < 0.1:
        given_text = _accent(rng, given_text, _GIVEN_ACCENTS)
    full = f"{given} {surname_key}"
    style = rng.random()
    if csv_forms and style < 0.15:
        raw = f"{surname_text}, {given_text}"
    elif style < 0.25:
        raw = f"{rng.choice(_HONORIFICS)} {given_text} {surname_text}"
    else:
        raw = f"{given_text} {surname_text}"
    return Mention(raw=raw, first=given, full=full)


def _authors_per_record(rng: random.Random) -> int:
    return rng.choices((1, 2, 3, 4, 5), weights=(12, 20, 30, 23, 15), k=1)[0]


def _pub_year(rng: random.Random) -> int:
    # bibliographies grow over time: the density rises linearly from 1950
    lo, hi = CORPUS_YEARS
    return lo + int((hi - lo + 1) * math.sqrt(rng.random()))


def generate_csv_corpus(rng: random.Random, table: Table, n_records: int,
                        n_ledger: int, path: Path, ledger_path: Path) -> Corpus:
    """A quoted corpus CSV with Zipf given names over the table's popular
    names, initials, honorifics, comma forms and diacritics, plus planted
    malformed rows and a scoped override ledger."""
    # authors are born 1920-1993, so their names are the ones popular then
    births: dict[str, int] = {}
    for (name, year), (f, m) in table.counts.items():
        if CORPUS_YEARS[0] - 30 <= year <= CORPUS_YEARS[1] - 30:
            births[name] = births.get(name, 0) + f + m
    popular = sorted(births, key=lambda n: (-births[n], n))[:max(50, len(births) // 8)]
    given_pick = _zipf_sampler(rng, popular)
    foreign = unique_words(rng, max(20, len(table.names) // 20), set(table.names))
    surnames = unique_words(rng, max(200, n_records // 4), set())
    records: list[Record] = []
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["record_id", "venue", "year", "authors"])
    malformed = 0
    for i in range(n_records):
        mentions = []
        for _ in range(_authors_per_record(rng)):
            given = rng.choice(foreign) if rng.random() < 0.03 else given_pick()
            mentions.append(_author(rng, given, rng.choice(surnames), csv_forms=True))
        record = Record(record_id=f"rec{i:07d}", venue=rng.choice(_VENUES),
                        year=_pub_year(rng), mentions=mentions)
        records.append(record)
        writer.writerow([record.record_id, record.venue, record.year,
                         "|".join(m.raw for m in mentions)])
        if rng.random() < 0.002:
            malformed += 1
            out.write(_malformed_csv_row(rng, i, surnames))
    path.write_text(out.getvalue(), encoding="utf-8")
    ledger = _ledger(rng, records, n_ledger)
    _write_ledger(ledger, ledger_path)
    return Corpus(records=records, malformed=malformed, path=path,
                  ledger=ledger, ledger_path=ledger_path)


def _malformed_csv_row(rng: random.Random, i: int, surnames: list[str]) -> str:
    """One row the lenient parser must skip and tally."""
    who = rng.choice(surnames).capitalize()
    kind = rng.randrange(5)
    if kind == 0:   # comma-form author left unquoted: extra columns
        return f"bad{i:07d},J. Systems,1999,{who}, Jean|Other, Ann\n"
    if kind == 1:
        return f"bad{i:07d},J. Systems,n/a,Jean {who}\n"
    if kind == 2:
        return f"bad{i:07d},J. Systems,1850,Jean {who}\n"
    if kind == 3:
        return f"bad{i:07d},J. Systems,1999,\n"
    return f"bad{i:07d},J. Systems,1999,Jean {who}||Ann {who}\n"


def _ledger(rng: random.Random, records: list[Record], n: int) -> list[LedgerEntry]:
    """Scoped override entries: most name authors of the corpus,
    a few are stale keys that never match."""
    entries: list[LedgerEntry] = []
    scopes_seen: set[tuple] = set()
    attempts = 0
    while len(entries) < n and attempts < n * 20:
        attempts += 1
        if rng.random() < 0.05:
            key = f"nobody {rng.randrange(10**9)}"
            record = None
        else:
            record = rng.choice(records)
            key = rng.choice(record.mentions).full
        kind = rng.random()
        year_from = year_to = venue = None
        if record is not None and kind < 0.35:
            year_from = record.year - rng.randrange(0, 6)
            year_to = record.year + rng.randrange(0, 6)
        elif record is not None and kind < 0.6:
            venue = record.venue
        elif record is not None and kind < 0.7:
            year_from = record.year
        scope = (key, year_from, year_to, venue)
        if scope in scopes_seen:
            continue
        scopes_seen.add(scope)
        entries.append(LedgerEntry(key=key, gender=rng.choice("FFMMU"),
                                   year_from=year_from, year_to=year_to, venue=venue))
    return entries


def _write_ledger(entries: list[LedgerEntry], path: Path) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "gender", "year_from", "year_to", "venue", "source_note"])
    for e in entries:
        writer.writerow([e.key, e.gender,
                         "" if e.year_from is None else e.year_from,
                         "" if e.year_to is None else e.year_to,
                         e.venue or "", "faculty page"])
    path.write_text(out.getvalue(), encoding="utf-8")


def _xml_text(text: str) -> str:
    """Escape for XML, writing non-ASCII as numeric character references."""
    text = (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("'", "&apos;"))
    return "".join(ch if ord(ch) < 128 else f"&#{ord(ch)};" for ch in text)


def generate_dblp_corpus(rng: random.Random, fixture: Table, n_records: int,
                         n_unknown: int, path: Path) -> Corpus:
    """DBLP-shaped XML: half the given names from the fixture's names, half
    from a large pool absent from it; ignored <www> and <proceedings> bulk,
    built-in entities, and planted publications the parser must skip."""
    pool = unique_words(rng, n_unknown, set(fixture.names))
    surnames = unique_words(rng, max(200, n_records // 4), set())
    records: list[Record] = []
    malformed = 0
    parts = ["<dblp>\n"]
    for i in range(n_records):
        mentions = []
        for _ in range(_authors_per_record(rng)):
            given = rng.choice(fixture.names) if rng.random() < 0.5 else rng.choice(pool)
            surname = rng.choice(surnames)
            if rng.random() < 0.03:
                surname = "o'" + surname
            mentions.append(_author(rng, given, surname, csv_forms=False))
        for m in mentions:
            # the apostrophe is punctuation to the full-name key
            m.full = m.full.replace("'", " ")
        tag, venue_tag = (("article", "journal") if rng.random() < 0.5
                          else ("inproceedings", "booktitle"))
        record = Record(record_id=f"{'journals' if tag == 'article' else 'conf'}/x/P{i}",
                        venue=rng.choice(_VENUES), year=_pub_year(rng),
                        mentions=mentions)
        records.append(record)
        authors = "".join(f"<author>{_xml_text(m.raw)}</author>" for m in mentions)
        parts.append(f'<{tag} key="{record.record_id}" mdate="2020-01-01">{authors}'
                     f"<title>On {_xml_text(rng.choice(surnames))} &amp; "
                     f"Bounds &lt;n&gt;</title><pages>1-{rng.randrange(2, 40)}</pages>"
                     f"<year>{record.year}</year><{venue_tag}>{_xml_text(record.venue)}"
                     f"</{venue_tag}></{tag}>\n")
        roll = rng.random()
        if roll < 0.10:
            who = rng.choice(surnames).capitalize()
            parts.append(f'<www key="homepages/{i}"><author>Jean {who}</author>'
                         f"<title>Home Page</title><url>https://x.org/{i}</url></www>\n")
        elif roll < 0.12:
            parts.append(f'<proceedings key="conf/x/{i}"><editor>Ann B</editor>'
                         f"<title>Proceedings &quot;{i}&quot;</title><year>1999</year>"
                         "</proceedings>\n")
        if rng.random() < 0.002:
            malformed += 1
            parts.append(_malformed_dblp_element(rng, i))
    parts.append("</dblp>\n")
    path.write_text("".join(parts), encoding="utf-8")
    return Corpus(records=records, malformed=malformed, path=path)


def _malformed_dblp_element(rng: random.Random, i: int) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return "<article><author>Ann Bee</author><year>1999</year></article>\n"
    if kind == 1:
        return f'<article key="bad/{i}"><author>Ann Bee</author></article>\n'
    if kind == 2:
        return f'<article key="bad/{i}"><author>Ann Bee</author><year>19x9</year></article>\n'
    return f'<inproceedings key="bad/{i}"><title>T</title><year>1999</year></inproceedings>\n'
