"""Brute-force answers from the generators' ground truth.

Everything here works off the plain {(name, year): (female, male)} counts
and the corpus records the generators return, with exhaustive scans and no
import of ``namecohort``, so agreement with the program is meaningful. The
conventions (30-year cohort shift, 10-year nearest-year fallback with ties
to the earlier year, clamping to the first table year, unknown = 0.5, the
0.8 / 0.2 thresholds) are the ones the README documents.
"""

from __future__ import annotations

import math

from generate import Corpus, LedgerEntry, Table

SHIFT = 30
MAX_FALLBACK = 10
SAMPLE_YEARS = (1900, 1925, 1950, 1975, 2000)
TAU_FEMALE, TAU_MALE = 0.8, 0.2


class Truth:
    """The ground-truth table with the lookups the reference needs."""

    def __init__(self, table: Table):
        self.counts = table.counts
        self.by_name: dict[str, dict[int, tuple[int, int]]] = {}
        for (name, year), fm in table.counts.items():
            self.by_name.setdefault(name, {})[year] = fm
        self.first_year = min(year for _, year in table.counts)
        self.last_year = max(year for _, year in table.counts)

    def lookup(self, name: str, year: int) -> tuple[int, int, int] | None:
        """(female, male, year used) at the nearest usable year, or None."""
        years = self.by_name.get(name, {})
        if year in years:
            return (*years[year], year)
        candidates = [y for y in years if abs(y - year) <= MAX_FALLBACK]
        if not candidates:
            return None
        best = min(candidates, key=lambda y: (abs(y - year), y))
        return (*years[best], best)

    def p(self, name: str, year: int) -> tuple[float | None, int]:
        hit = self.lookup(name, year)
        if hit is None:
            return None, 0
        female, male, _ = hit
        return female / (female + male), female + male

    def cohort_p(self, name: str, pub_year: int) -> float | None:
        return self.p(name, max(pub_year - SHIFT, self.first_year))[0]

    def outcome(self, name: str, pub_year: int) -> str:
        """exact, fallback, clamped or unknown for a cohort-shifted lookup."""
        target = pub_year - SHIFT
        clamped = target < self.first_year
        hit = self.lookup(name, max(target, self.first_year))
        if hit is None:
            return "unknown"
        if clamped:
            return "clamped"
        return "exact" if hit[2] == target else "fallback"


def pf(truth: Truth, name: str, pub_year: int) -> dict:
    """The `pf NAME --pub-year Y` JSON payload."""
    target = pub_year - SHIFT
    clamp = max(0, truth.first_year - target)
    target += clamp
    hit = truth.lookup(name, target)
    payload = {"name": name, "publication_year": pub_year, "year_shift": SHIFT}
    if hit is None:
        payload.update(p_female=None, female_count=0, male_count=0,
                       lookup_year=target, fallback_distance=0)
    else:
        female, male, used = hit
        payload.update(p_female=female / (female + male), female_count=female,
                       male_count=male, lookup_year=used,
                       fallback_distance=abs(used - target) + clamp)
    return payload


def _shift(truth: Truth, name: str, y1: int, y2: int):
    p1, t1 = truth.p(name, y1)
    p2, t2 = truth.p(name, y2)
    if p1 is None or p2 is None:
        return None
    return (name, p1, p2, p2 - p1, (t1 + t2) / 2)


def top_shifts(truth: Truth, y1: int, y2: int, k: int, weighted: bool) -> list[tuple]:
    """Rows (name, p_start, p_end, delta, weight) of `shifts --top k`."""
    rows = [r for r in (_shift(truth, n, y1, y2) for n in sorted(truth.by_name)) if r]
    if weighted:
        rows.sort(key=lambda r: (-(abs(r[3]) * r[4]), r[0]))
    else:
        rows.sort(key=lambda r: (-abs(r[3]), r[0]))
    return rows[:k]


def unstable_net(truth: Truth, y1: int, y2: int) -> dict:
    """The `shifts --unstable --net` JSON payload."""
    qualifying = []
    for name in sorted(truth.by_name):
        ps, births = [], 0
        for year in SAMPLE_YEARS:
            p, total = truth.p(name, year)
            if p is not None:
                ps.append(p)
                births += total
        if len(ps) >= 2 and births >= 500 and max(ps) - min(ps) >= 0.3:
            qualifying.append((max(ps) - min(ps), name))
    qualifying.sort(key=lambda item: (-item[0], item[1]))
    rows = [r for r in (_shift(truth, n, y1, y2) for _, n in qualifying) if r]
    net = sum(r[3] * r[4] for r in rows) / sum(r[4] for r in rows)
    return {"from_year": y1, "to_year": y2, "names": [r[0] for r in rows],
            "net_female_shift": net}


def _override(entries: list[LedgerEntry], venue: str, year: int) -> str | None:
    """The gender of the first entry (in ledger order) whose scope holds."""
    for entry in entries:
        if entry.year_from is not None and year < entry.year_from:
            continue
        if entry.year_to is not None and year > entry.year_to:
            continue
        if entry.venue is not None and venue.lower() != entry.venue.lower():
            continue
        return entry.gender
    return None


def _mentions(corpus: Corpus, ledger: list[LedgerEntry]):
    """(record, mention, override gender or None) for every mention."""
    by_key: dict[str, list[LedgerEntry]] = {}
    for entry in ledger:
        by_key.setdefault(entry.key, []).append(entry)
    for record in corpus.records:
        for m in record.mentions:
            yield record, m, _override(by_key.get(m.full, []), record.venue, record.year)


def overrides_matched(corpus: Corpus, ledger: list[LedgerEntry]) -> int:
    return sum(1 for _, _, g in _mentions(corpus, ledger) if g is not None)


def analyze(truth: Truth, corpus: Corpus, ledger: list[LedgerEntry],
            classified: bool) -> list[tuple]:
    """Rows (bin, share, n_authors, n_identified, n_unidentified) of `analyze`
    under weighted-mean (unknown = 0.5) or classified-share."""
    bins: dict[int, list] = {}
    for record, m, gender in _mentions(corpus, ledger):
        p = truth.cohort_p(m.first, record.year) if m.first is not None else None
        bins.setdefault(record.year, []).append((gender, p))
    rows = []
    for year in sorted(bins):
        items = bins[year]
        if classified:
            females = males = 0
            for gender, p in items:
                if gender is None and p is not None:
                    gender = "F" if p >= TAU_FEMALE else "M" if p <= TAU_MALE else "U"
                females += gender == "F"
                males += gender == "M"
            identified = females + males
            share = females / identified if identified else None
        else:
            values, identified = [], 0
            for gender, p in items:
                if gender is not None:
                    values.append({"F": 1.0, "M": 0.0, "U": 0.5}[gender])
                    identified += gender != "U"
                elif p is not None:
                    values.append(p)
                    identified += 1
                else:
                    values.append(0.5)
            share = math.fsum(values) / len(items)
        rows.append((year, share, len(items), identified, len(items) - identified))
    return rows


def bias_report(truth: Truth, corpus: Corpus, reference_year: int) -> list[tuple]:
    """Rows (bin, temporal_share, static_share, gap) of `bias-report`."""
    bins: dict[int, list[tuple[float, float]]] = {}
    for record, m, _ in _mentions(corpus, []):
        temporal = static = None
        if m.first is not None:
            temporal = truth.cohort_p(m.first, record.year)
            static = truth.p(m.first, reference_year)[0]
        bins.setdefault(record.year, []).append(
            (0.5 if temporal is None else temporal, 0.5 if static is None else static))
    rows = []
    for year in sorted(bins):
        pairs = bins[year]
        t = math.fsum(a for a, _ in pairs) / len(pairs)
        s = math.fsum(b for _, b in pairs) / len(pairs)
        rows.append((year, t, s, s - t))
    return rows
