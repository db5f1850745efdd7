"""Brute-force reference implementations for the shift and trend analytics.

These work straight off a plain {(name, year): (female, male)} dict with
exhaustive scans, independent of the library's table and search code, so
agreement is meaningful. Trend oracles take the corpus as plain tuples:
[(venue, publication_year, [(first_name or None, "F"/"M"/"U" or None), ...])].
The snapshot oracle packs the v3 table snapshot byte by byte with struct,
and the column-check oracles test a snapshot's years and counts entry by
entry, as read_snapshot did before it checked them lane by lane.
The name-key oracles normalize an author string as a whole and match an
override ledger by scanning every entry for every mention. The DBLP oracle
reads a whole document into an ElementTree and walks it.
"""

from __future__ import annotations

import html.entities
import itertools
import random
import re
import struct
import unicodedata
import xml.etree.ElementTree as ET
import zlib
from fractions import Fraction
from operator import lt, or_, truth

NAME_POOL = [f"name{i:02d}" for i in range(60)]

SAMPLE_YEARS = (1900, 1925, 1950, 1975, 2000)

# Off-grid years force the nearest-year fallback, including exact ties
# (1972/1978 are equidistant from 1975; ties must resolve to the earlier).
EXTRA_YEARS = (1903, 1912, 1920, 1930, 1947, 1953, 1968, 1972, 1978, 1994, 2006)


def oracle_p(counts: dict, name: str, year: int, max_fallback: int = 10):
    """(p_female, total_births) at the nearest usable year, or (None, 0)."""
    by_year = {y: fm for (n, y), fm in counts.items() if n == name}
    if year in by_year:
        f, m = by_year[year]
        return f / (f + m), f + m
    candidates = [y for y in by_year if abs(y - year) <= max_fallback]
    if not candidates:
        return None, 0
    best = min(candidates, key=lambda y: (abs(y - year), y))
    f, m = by_year[best]
    return f / (f + m), f + m


def oracle_find_unstable(counts: dict, sample_years=SAMPLE_YEARS,
                         range_threshold: float = 0.3,
                         min_total_births: int = 500,
                         max_fallback: int = 10) -> list[str]:
    names = sorted({n for n, _ in counts})
    qualifying = []
    for name in names:
        ps = []
        births = 0
        for year in sample_years:
            p, total = oracle_p(counts, name, year, max_fallback)
            if p is not None:
                ps.append(p)
                births += total
        if len(ps) < 2 or births < min_total_births:
            continue
        p_range = max(ps) - min(ps)
        if p_range >= range_threshold:
            qualifying.append((p_range, name))
    qualifying.sort(key=lambda item: (-item[0], item[1]))
    return [name for _, name in qualifying]


def oracle_shift(counts: dict, name: str, y1: int, y2: int, max_fallback: int = 10):
    """(p_start, p_end, delta, weight) or None when an endpoint is missing."""
    p1, t1 = oracle_p(counts, name, y1, max_fallback)
    p2, t2 = oracle_p(counts, name, y2, max_fallback)
    if p1 is None or p2 is None:
        return None
    return p1, p2, p2 - p1, (t1 + t2) / 2


def oracle_top_shifts(counts: dict, y1: int, y2: int, k: int, weighted: bool,
                      max_fallback: int = 10):
    rows = []
    for name in sorted({n for n, _ in counts}):
        shift = oracle_shift(counts, name, y1, y2, max_fallback)
        if shift is not None:
            rows.append((name, *shift))
    if weighted:
        rows.sort(key=lambda r: (-(abs(r[3]) * r[4]), r[0]))
    else:
        rows.sort(key=lambda r: (-abs(r[3]), r[0]))
    return rows[:k]


def oracle_net(counts: dict, names: list[str], y1: int, y2: int,
               max_fallback: int = 10) -> float:
    deltas = []
    weights = []
    for name in names:
        _, _, delta, weight = oracle_shift(counts, name, y1, y2, max_fallback)
        deltas.append(delta)
        weights.append(weight)
    return sum(d * w for d, w in zip(deltas, weights)) / sum(weights)


def _mean(values: list[float]) -> float:
    """Exactly rounded sum, then one division: the trend layer's mean."""
    return float(sum(Fraction(v) for v in values)) / len(values)


def _cohort_p(counts: dict, name: str, year: int, year_shift: int,
              max_fallback: int):
    """p(F) at the birth cohort, clamped to the table's first year."""
    target = year - year_shift
    if counts:
        target = max(target, min(y for _, y in counts))
    return oracle_p(counts, name, target, max_fallback)[0]


def _classify(p, tau_female: float, tau_male: float):
    if p is None:
        return "U"
    if p >= tau_female:
        return "F"
    if p <= tau_male:
        return "M"
    return "U"


def oracle_annual_share(counts: dict, corpus: list, estimator: str = "weighted-mean",
                        unknown_value: float = 0.5, encoding=None, bin_width: int = 1,
                        group_by_venue: bool = False, year_shift: int = 30,
                        max_fallback: int = 10, tau_female: float = 0.8,
                        tau_male: float = 0.2) -> list[tuple]:
    """[(bin, share, n_authors, n_identified, n_unidentified)] in bin order.

    encoding is a (female, male, unknown) triple; like the library, the
    classified-share estimator ignores it.
    """
    bins: dict[tuple[str, int], list[tuple[str | None, str | None, int]]] = {}
    for venue, year, mentions in corpus:
        key = (venue if group_by_venue else "", year - year % bin_width)
        bins.setdefault(key, []).extend((first, override, year)
                                        for first, override in mentions)
    rows = []
    for venue, start in sorted(bins):
        values = []
        identified = 0
        for first, override, year in bins[(venue, start)]:
            p = None if first is None else _cohort_p(counts, first, year,
                                                     year_shift, max_fallback)
            gender = override or _classify(p, tau_female, tau_male)
            if estimator == "classified-share":
                if gender != "U":
                    values.append(1.0 if gender == "F" else 0.0)
                    identified += 1
            elif encoding is not None:
                values.append({"F": encoding[0], "M": encoding[1]}.get(gender, encoding[2]))
                identified += gender != "U"
            elif override in ("F", "M"):
                values.append(1.0 if override == "F" else 0.0)
                identified += 1
            elif override is None and p is not None:
                values.append(p)
                identified += 1
            else:
                values.append(unknown_value)
        n_authors = len(bins[(venue, start)])
        if estimator == "classified-share":
            share = values.count(1.0) / identified if identified else None
        else:
            share = _mean(values)
        label = f"{venue}:{start}" if group_by_venue else start
        rows.append((label, share, n_authors, identified, n_authors - identified))
    return rows


def oracle_bias_report(counts: dict, corpus: list, reference_year: int,
                       year_shift: int = 30, max_fallback: int = 10):
    """([(year, temporal, static, gap)], mean_gap, max_gap); both gaps are
    None over no years."""
    by_year: dict[int, list[tuple[float, float]]] = {}
    for _, year, mentions in corpus:
        for first, override in mentions:
            if override in ("F", "M"):
                value = 1.0 if override == "F" else 0.0
                pair = (value, value)
            elif override == "U" or first is None:
                pair = (0.5, 0.5)
            else:
                temporal = _cohort_p(counts, first, year, year_shift, max_fallback)
                static = oracle_p(counts, first, reference_year, max_fallback)[0]
                pair = (0.5 if temporal is None else temporal,
                        0.5 if static is None else static)
            by_year.setdefault(year, []).append(pair)
    points = []
    for year in sorted(by_year):
        temporal = _mean([t for t, _ in by_year[year]])
        static = _mean([s for _, s in by_year[year]])
        points.append((year, temporal, static, static - temporal))
    gaps = [gap for *_, gap in points]
    mean_gap = _mean(gaps) if gaps else None
    max_gap = None
    for gap in gaps:
        if max_gap is None or abs(gap) > abs(max_gap):
            max_gap = gap
    return points, mean_gap, max_gap


def random_counts(rng: random.Random, max_names: int = 50) -> dict:
    """A random sparse counts dict over up to max_names names."""
    names = rng.sample(NAME_POOL, rng.randint(1, max_names))
    counts = {}
    for name in names:
        for year in SAMPLE_YEARS + EXTRA_YEARS:
            if rng.random() < 0.5:
                continue
            female = rng.randint(0, 800)
            male = rng.randint(0, 800)
            if female == 0 and male == 0:
                female = rng.randint(1, 800)
            counts[(name, year)] = (female, male)
    return counts


SNAPSHOT_HEADER = struct.Struct("<QQQI")


def oracle_snapshot(rows: list, magic: bytes = b"# namecohort-table v3\n", *,
                    n_names: int | None = None, n_entries: int | None = None,
                    block_size: int | None = None, offsets: list[int] | None = None,
                    checksum: int | None = None) -> bytes:
    """The v3 snapshot of rows [(name, [(year, female, male), ...]), ...], in
    the order given: the magic line; the little-endian name, entry and
    name-block byte counts and the CRC-32 of the rest; the newline-joined
    names (str, or bytes taken as they are); the offsets of each name's
    first entry plus the entry count as u32; then the years (u16) and the
    female and male counts (u32). The keywords replace a header field or
    the offsets, to build corrupt snapshots.
    """
    block = b"\n".join(name if isinstance(name, bytes) else name.encode("utf-8")
                       for name, _ in rows)
    entries = [entry for _, name_entries in rows for entry in name_entries]
    if offsets is None:
        offsets = list(itertools.accumulate([len(name_entries) for _, name_entries in rows],
                                            initial=0))
    years, females, males = zip(*entries) if entries else ((), (), ())
    body = (block + struct.pack(f"<{len(offsets)}I", *offsets)
            + struct.pack(f"<{len(years)}H", *years)
            + struct.pack(f"<{len(females)}I", *females)
            + struct.pack(f"<{len(males)}I", *males))
    header = SNAPSHOT_HEADER.pack(
        len(rows) if n_names is None else n_names,
        len(entries) if n_entries is None else n_entries,
        len(block) if block_size is None else block_size,
        zlib.crc32(body) if checksum is None else checksum)
    return magic + header + body


def oracle_first_fall(years, offsets) -> int:
    """The first entry whose year is not below the next entry's within its
    name (offsets[k] is name k's first entry, offsets[-1] the entry count),
    or -1: one comparison per pair of entries, with those across a name
    boundary counted as rising."""
    rising = bytearray(map(lt, years, years[1:]))
    for end in offsets[1:-1]:
        rising[end - 1] = True  # the next entry starts another name
    return rising.find(0)


def oracle_first_empty(females, males) -> int:
    """The first entry whose female and male counts are both 0, or -1."""
    return bytearray(map(truth, map(or_, females, males))).find(0)


def oracle_snapshot_rows(counts: dict) -> list:
    """A counts dict as :func:`oracle_snapshot` rows: names sorted, years ascending."""
    by_name: dict[str, list] = {}
    for (name, year), (female, male) in sorted(counts.items()):
        by_name.setdefault(name, []).append((year, female, male))
    return list(by_name.items())


_FOLD = str.maketrans({"ø": "o", "ł": "l", "đ": "d", "ð": "d", "þ": "th", "ß": "ss",
                       "æ": "ae", "œ": "oe"})
_KEY_PUNCT = re.compile(r"[.,;:()\[\]{}\"']+")


def oracle_normalize_full_name(raw: str) -> str:
    """The full-name key, built from the whole string at once: flip
    "Surname, Given[, suffix]", drop leading honorifics, then over the
    joined text decompose (NFKD), drop combining marks, lowercase, map the
    letters that do not decompose, turn punctuation into spaces and collapse
    whitespace."""
    text = raw.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) >= 2 and parts[0] and parts[1]:
            text = f"{parts[1]} {parts[0]}"
        else:
            text = text.replace(",", " ")
    tokens = text.split()
    while tokens and tokens[0].rstrip(".").lower() in {"mr", "mrs", "miss", "prof", "dr"}:
        tokens = tokens[1:]
    decomposed = unicodedata.normalize("NFKD", " ".join(tokens))
    folded = "".join(ch for ch in decomposed if not unicodedata.combining(ch)).lower()
    folded = folded.translate(_FOLD)
    return re.sub(r"\s+", " ", _KEY_PUNCT.sub(" ", folded)).strip()


def oracle_apply_overrides(corpus: list, ledger: list) -> tuple[list, list]:
    """Stamp overrides by brute force.

    corpus is [(venue, year, [raw author, ...])] and ledger is
    [(raw key, "F"/"M"/"U", year_from or None, year_to or None, venue or None)]
    in ledger order. Each mention takes the first entry whose key matches its
    full-name key and whose scope holds the record (venues compared without
    case). Returns the corpus as [(venue, year, [(raw, gender or None), ...])]
    and the (key, venue, year_from, year_to) of every entry that matched
    nothing, in ledger order.
    """
    keyed = [(oracle_normalize_full_name(key), *rest) for key, *rest in ledger]
    used = set()
    out = []
    for venue, year, raws in corpus:
        mentions = []
        for raw in raws:
            gender = None
            for i, (key, sex, year_from, year_to, scope) in enumerate(keyed):
                if (key == oracle_normalize_full_name(raw)
                        and (year_from is None or year >= year_from)
                        and (year_to is None or year <= year_to)
                        and (scope is None or scope.lower() == venue.lower())):
                    used.add(i)
                    gender = sex
                    break
            mentions.append((raw, gender))
        out.append((venue, year, mentions))
    unmatched = [(key, scope, year_from, year_to)
                 for i, (key, _, year_from, year_to, scope) in enumerate(keyed)
                 if i not in used]
    return out, unmatched


_HTML_ENTITIES = {name[:-1]: text for name, text in html.entities.html5.items()
                  if name.endswith(";")}


def oracle_dblp(document: bytes) -> list:
    """The publications of a whole DBLP document, by ElementTree.

    A publication is an article or inproceedings element with no such
    element above it. Its direct author, year, booktitle and journal
    children give their whole text, nested elements' included, stripped;
    the last year and the last venue count. Named entities resolve as HTML
    entities. Returns, for each publication in document order, either
    (key, venue, year, [raw author, ...]) or, when it is skipped, its
    problem as a string.
    """
    parser = ET.XMLParser()
    parser.entity.update(_HTML_ENTITIES)
    parser.feed(document)
    publications = []

    def visit(element):
        if element.tag not in ("article", "inproceedings"):
            for child in element:
                visit(child)
            return
        key, authors, year, venue = element.get("key"), [], None, ""
        for child in element:
            text = "".join(child.itertext()).strip()
            if child.tag == "author":
                authors.append(text)
            elif child.tag == "year":
                year = text
            elif child.tag in ("booktitle", "journal"):
                venue = text
        authors = [author for author in authors if author]
        if not key:
            publications.append(f"<{element.tag}> without key attribute")
        elif year is None:
            publications.append(f"{key}: missing year")
        elif not re.fullmatch("[0-9]+", year):
            publications.append(f"{key}: invalid year {year!r}")
        elif not 1900 <= int(year) <= 2100:
            publications.append(f"{key}: year {int(year)} out of range")
        elif not authors:
            publications.append(f"{key}: no authors")
        else:
            publications.append((key, venue, int(year), authors))

    visit(parser.close())
    return publications
