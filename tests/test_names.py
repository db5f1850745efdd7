"""The author-name keys against the whole-string oracles in tests/oracles.py.

Seeded author strings mix diacritics, NBSP, U+00A8 (whose NFKD form starts
with a space), Greek capital sigma, dotted capital I, ligatures, brackets,
quotes, "Surname, Given" forms with suffixes, honorifics and initials, and
surnames whose key part is empty ("(.)", "¨") or several words
("O'Neil-Smith").
"""

from __future__ import annotations

import csv
import io
import logging
import random
from xml.sax.saxutils import escape

import namecohort as nc
from namecohort.corpus import CSV_HEADER, make_mention
from namecohort.names import csv_text, full_name_normalizer
from oracles import oracle_apply_overrides, oracle_normalize_full_name

GIVEN = ["José", "ΣΟΦΙΑ", "Σοφια", "İlkay", "Jürgen", "ﬁona", "Æsa", "Ørjan", "Łukasz",
         "Þóra", "Zoë", "Ma¨ry", "J.", "R.C.", "B", "Anne-Marie", "O'Neil", "ada"]
SURNAMES = ["Smith", "de la Cruz", "Núñez", "Straße", "ΟΔΥΣΣΕΑΣ", "Yıldız", "O'Brien",
            "(Lee)", '"Kim"', "[Wu]", "Smith-Jones", "ΑΣ", "O'Neil-Smith", "(.)",
            "¨"]
HONORIFICS = ["", "", "Dr. ", "Prof ", "Mrs. ", "Mr ", "Dr. Prof. ", "MISS ", "dr."]
SUFFIXES = ["Jr.", "III", "PhD", ""]
SPACES = [" ", "  ", "\u00a0", "\t", " \u00a0"]
SOUP = list("aAzZ éÉñüÖ,.;:()[]{}\"'-|") + [
    "¨", "Σ", "σ", "İ", "ß", "Æ", "ﬁ", "\u00a0", "\u0301", "\t", "ø", "Ł", "þ",
    "Dr. ", "Prof ", "mrs.", "MISS ", "Jr."]
VENUES = ["SIGX", "sigx", "Conf, A", "J"]


def random_author(rng: random.Random) -> str:
    given, surname = rng.choice(GIVEN), rng.choice(SURNAMES)
    space, honorific = rng.choice(SPACES), rng.choice(HONORIFICS)
    return rng.choice([
        f"{honorific}{given}{space}{surname}",
        f"{honorific}{given}{space}{rng.choice(GIVEN)}{space}{surname}",
        f"{surname},{space}{given}",
        f"{surname}, {honorific}{given}, {rng.choice(SUFFIXES)}",
        f" {surname} ,{given},",
        f"{surname},",
        f",{given}",
        honorific.strip() or given,
        "".join(rng.choice(SOUP) for _ in range(rng.randint(0, 14))),
    ])


def test_normalize_full_name_matches_whole_string_oracle():
    rng = random.Random(7)
    raws = [random_author(rng) for _ in range(20_000)]
    expected = [oracle_normalize_full_name(raw) for raw in raws]
    assert [nc.normalize_full_name(raw) for raw in raws] == expected
    full_name = full_name_normalizer()
    assert [full_name(raw) for raw in raws] == expected


def test_dedup_authors_matches_whole_string_oracle():
    rng = random.Random(8)
    for _ in range(20):
        raws = [random_author(rng) for _ in range(rng.randint(0, 200))]
        keys = {oracle_normalize_full_name(raw) for raw in raws} - {""}
        assert nc.dedup_authors(raws) == sorted(keys)


def random_ledger(rng: random.Random, pool: list[str]) -> list[tuple]:
    """Entries keyed by corpus authors, variants of them and strangers, with
    random year and venue scopes; no two share a key and scope, and no key
    normalizes to nothing."""
    entries, scopes = [], set()
    for _ in range(rng.randint(0, 25)):
        raw = rng.choice(pool)
        key = rng.choice([raw, raw.upper(), f"Dr. {raw}", random_author(rng)])
        year_from = rng.choice([None, None, 1960, 1980])
        year_to = rng.choice([None, None, 1979, 2000])
        if year_from is not None and year_to is not None and year_from > year_to:
            year_from, year_to = year_to, year_from
        venue = rng.choice([None, None, *VENUES])
        scope = (oracle_normalize_full_name(key), year_from, year_to, venue)
        if scope[0] and scope not in scopes:
            scopes.add(scope)
            entries.append((key, rng.choice("FMU"), year_from, year_to, venue))
    return entries


def ledger_csv(entries: list[tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "gender", "year_from", "year_to", "venue", "source_note"])
    writer.writerows([key, gender, "" if year_from is None else year_from,
                      "" if year_to is None else year_to, venue or "", "note"]
                     for key, gender, year_from, year_to, venue in entries)
    return buffer.getvalue()


def seeded_cases():
    """(corpus, ledger entries) pairs: corpus is [(venue, year, [raw author, ...])]."""
    rng = random.Random(9)
    for _ in range(40):
        pool = [random_author(rng) for _ in range(rng.randint(1, 30))]
        corpus = [(rng.choice(VENUES), rng.randint(1950, 2010),
                   [rng.choice(pool) for _ in range(rng.randint(1, 4))])
                  for _ in range(rng.randint(1, 40))]
        yield corpus, random_ledger(rng, pool)


def stamped_genders(records: list[nc.CorpusRecord]) -> list:
    return [(record.venue, record.publication_year,
             [(m.raw, m.override_gender and m.override_gender.value) for m in record.authors])
            for record in records]


def test_apply_overrides_matches_brute_force_oracle(caplog):
    matched = 0
    for corpus, entries in seeded_cases():
        records = [nc.CorpusRecord(record_id=f"r{i}", venue=venue, publication_year=year,
                                   authors=tuple(make_mention(raw) for raw in raws))
                   for i, (venue, year, raws) in enumerate(corpus)]
        ledger = nc.read_override_ledger(io.StringIO(ledger_csv(entries), newline=""))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="namecohort.corpus"):
            stamped = nc.apply_overrides(records, ledger)
        expected, unmatched = oracle_apply_overrides(corpus, entries)
        assert stamped_genders(stamped) == expected
        assert [record.args for record in caplog.records] == unmatched
        matched += sum(gender is not None for *_, mentions in expected
                       for _, gender in mentions)
    assert matched > 100


def dblp_xml(corpus: list) -> bytes:
    return ("<dblp>" + "".join(
        f'<article key="r{i}">' + "".join(f"<author>{escape(raw)}</author>" for raw in raws)
        + f"<year>{year}</year><journal>{escape(venue)}</journal></article>"
        for i, (venue, year, raws) in enumerate(corpus)) + "</dblp>").encode("utf-8")


def corpus_csv(corpus: list) -> str:
    """The corpus CSV of corpus, its authors joined by "|" as they are, so an
    author string holding "|" reads back as several authors."""
    return csv_text([CSV_HEADER, *([f"r{i}", venue, year, "|".join(raws)]
                                   for i, (venue, year, raws) in enumerate(corpus))])


def test_parsers_apply_a_ledger_like_the_oracle():
    """Both parsers, given the ledger, stamp what the oracle stamps on the
    author strings they parse, and return the entries it leaves unmatched.
    CSV rows holding an empty author are skipped."""
    matched = kept = 0
    for corpus, entries in seeded_cases():
        ledger = nc.read_override_ledger(io.StringIO(ledger_csv(entries), newline=""))
        for result in (nc.parse_corpus_csv(io.StringIO(corpus_csv(corpus), newline=""),
                                           strict=False, ledger=ledger),
                       nc.parse_dblp_subset(io.BytesIO(dblp_xml(corpus)), ledger=ledger)):
            parsed = [(r.venue, r.publication_year, [m.raw for m in r.authors])
                      for r in result.records]
            expected, unmatched = oracle_apply_overrides(parsed, entries)
            assert stamped_genders(result.records) == expected
            assert [(e.key, e.venue, e.year_from, e.year_to)
                    for e in result.unmatched] == unmatched
            kept += len(parsed)
            matched += sum(gender is not None for *_, mentions in expected
                           for _, gender in mentions)
    assert matched > 200 and kept > 1000
