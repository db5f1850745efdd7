"""The name fold's properties, and the author-name keys against the
whole-string oracles in tests/oracles.py.

Seeded author strings mix diacritics, NBSP, U+00A8 (whose NFKD form starts
with a space), Greek capital sigma, dotted capital I, ligatures, letters
that decompose to a letter NFKD leaves whole (Ǿ, ǽ) or lowercase to one
(ẞ), brackets, quotes, "Surname, Given" forms with suffixes, honorifics and
initials, and surnames whose key part is empty ("(.)", "¨") or several
words ("O'Neil-Smith").
"""

from __future__ import annotations

import csv
import io
import json
import logging
import random
import sys
import unicodedata
from xml.sax.saxutils import escape

import pytest

import namecohort as nc
from namecohort.cli import main
from namecohort.corpus import CSV_HEADER, make_mention
from namecohort.names import _CHAR_MAP, _INITIAL_RE, _first_name, csv_text
from oracles import oracle_apply_overrides, oracle_normalize_full_name

GIVEN = ["José", "ΣΟΦΙΑ", "Σοφια", "İlkay", "Jürgen", "ﬁona", "Æsa", "Ørjan", "Łukasz",
         "Þóra", "Zoë", "Ma¨ry", "J.", "R.C.", "B", "Anne-Marie", "O'Neil", "ada",
         "Ǿrjan", "ǽlfrida", "ẞenta"]
SURNAMES = ["Smith", "de la Cruz", "Núñez", "Straße", "ΟΔΥΣΣΕΑΣ", "Yıldız", "O'Brien",
            "(Lee)", '"Kim"', "[Wu]", "Smith-Jones", "ΑΣ", "O'Neil-Smith", "(.)",
            "¨", "Ǿstby", "Sǽther", "ẞtrauss"]
HONORIFICS = ["", "", "Dr. ", "Prof ", "Mrs. ", "Mr ", "Dr. Prof. ", "MISS ", "dr."]
SUFFIXES = ["Jr.", "III", "PhD", ""]
SPACES = [" ", "  ", "\u00a0", "\t", " \u00a0"]
SOUP = list("aAzZ éÉñüÖ,.;:()[]{}\"'-|") + [
    "¨", "Σ", "σ", "İ", "ß", "Æ", "ﬁ", "\u00a0", "\u0301", "\t", "ø", "Ł", "þ",
    "Ǿ", "ǽ", "ẞ", "Dr. ", "Prof ", "mrs.", "MISS ", "Jr."]

# The code points whose key the map-first fold (below) left unfolded: each
# decomposes to, or lowercases to, a letter of the map.
REFOLDED = list("ǢǣǼǽǾǿẞᴭᶞꟹ") + ["\U00010783", "\U000107a2"]

_MAP_FIRST = str.maketrans({"ø": "o", "Ø": "O", "ł": "l", "Ł": "L", "đ": "d", "Đ": "D",
                            "ð": "d", "Ð": "D", "þ": "th", "Þ": "Th", "ß": "ss",
                            "æ": "ae", "Æ": "Ae", "œ": "oe", "Œ": "Oe"})


def map_first_normalize_name(name: str) -> str:
    """normalize_name in the earlier fold order, frozen here: map both cases
    of the letters NFKD leaves whole, then NFKD, drop combining marks,
    strip and lowercase."""
    decomposed = unicodedata.normalize("NFKD", name.translate(_MAP_FIRST))
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch)).strip().lower()


def foldable() -> list[str]:
    """Every code point that the fold can change: those with a decomposition,
    a case mapping or a map entry. The fold keeps any other code point as it
    is, or drops it as a combining mark, so its keys fold to themselves."""
    return [ch for ch in map(chr, range(sys.maxunicode + 1))
            if unicodedata.decomposition(ch) or ch.lower() != ch or ch.upper() != ch
            or ord(ch) in _CHAR_MAP]


def test_normalize_name_folds_to_itself():
    for ch in foldable():
        for text in (ch, f"a{ch}z"):
            key = nc.normalize_name(text)
            assert nc.normalize_name(key) == key, (hex(ord(ch)), key)


def test_normalize_name_keeps_every_fixed_point_of_the_map_first_fold():
    """Where the earlier fold gave a key that folds to itself, the key is
    unchanged; it changes only for the twelve code points it left unfolded."""
    changed = set()
    for ch in foldable():
        for text in (ch, f"a{ch}z"):
            earlier = map_first_normalize_name(text)
            if map_first_normalize_name(earlier) == earlier:
                assert nc.normalize_name(text) == earlier, hex(ord(ch))
            else:
                changed.add(ch)
    assert sorted(changed) == sorted(REFOLDED)


def earlier_first_name(token: str) -> str | None:
    """_first_name as it was before it stripped white space again after the
    punctuation, frozen here (over today's fold)."""
    first = nc.normalize_name(token)
    if not first or _INITIAL_RE.match(first):
        return None
    return first.strip(".,;:") or None


def assigned() -> list[str]:
    """Every code point but the unassigned, private-use and surrogate ones.
    Those have no decomposition, case mapping or combining class and are
    not white space, so the fold keeps each of them as it is."""
    return [ch for ch in map(chr, range(sys.maxunicode + 1))
            if unicodedata.category(ch) not in ("Cn", "Co", "Cs")]


def test_a_given_name_folds_to_itself():
    """The given name of a token is a key: normalize_name keeps it. Where
    the earlier given name was a key, it is unchanged; elsewhere a fold had
    put white space next to the punctuation ("mary¨." gave "mary "). Such
    white space does not hide an initial either: "J¨." is initial-only."""
    changed = set()
    for ch in assigned():
        for token in (f"mary{ch}.", f".{ch}mary"):
            first, earlier = _first_name(token), earlier_first_name(token)
            if earlier is None or nc.normalize_name(earlier) == earlier:
                assert first == earlier, (hex(ord(ch)), token)
            else:
                changed.add(ch)
                assert first is not None and nc.normalize_name(first) == first, hex(ord(ch))
    assert set("¨¯´¸˘˙˚˛˜˝ͺ΄΅᾽᾿\u00a0\u2003") <= changed
    for ch in changed:
        assert _first_name(f"J{ch}.") is None, hex(ord(ch))
        assert _first_name(f"j{ch}.") is None, hex(ord(ch))


@pytest.mark.parametrize("ch", REFOLDED)
def test_a_refolded_name_ingests_and_answers_pf(capsys, tmp_path, ch):
    (tmp_path / "yob1950.txt").write_text(f"{ch}rjan,F,10\nẞenta,F,7\n", encoding="utf-8")
    snapshot = str(tmp_path / "t.snap")
    assert main(["ingest", str(tmp_path), "--out", snapshot]) == 0
    for name, female in ((f"{ch}rjan", 10), ("ẞenta", 7)):
        capsys.readouterr()
        assert main(["pf", name, "--year", "1950", "--table", snapshot]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["female_count"], payload["male_count"]) == (female, 0)


@pytest.mark.parametrize("ch", REFOLDED)
def test_a_table_answers_for_the_earlier_key_of_a_refolded_name(ch):
    table = nc.NameYearTable({(f"{ch}rjan", 1950): (10, 0)})
    earlier = map_first_normalize_name(f"{ch}rjan")
    assert nc.p_female(table, earlier, 1950).p_female == 1.0


@pytest.mark.parametrize("ch", REFOLDED)
def test_annual_share_identifies_a_refolded_name(ch):
    table = nc.NameYearTable({(f"{ch}rjan", 1950): (10, 0), ("ada", 1950): (0, 3)})
    record = nc.CorpusRecord(record_id="r1", venue="V", publication_year=1980,
                             authors=(make_mention(f"{ch}rjan Smith"),
                                      make_mention("Ada Jones")))
    [point] = nc.annual_share([record], table)
    assert (point.n_identified, point.share_female) == (2, 0.5)


@pytest.mark.parametrize("ch", REFOLDED)
def test_a_ledger_key_stamps_a_refolded_author(ch):
    key = f"{map_first_normalize_name(ch).upper()}rjan Smith"
    ledger_text = ledger_csv([(key, "F", None, None, None)])
    corpus = [("V", 1980, [f"{ch}rjan Smith"])]
    for parse, data in ((nc.parse_corpus_csv, io.StringIO(corpus_csv(corpus), newline="")),
                        (nc.parse_dblp_subset, io.BytesIO(dblp_xml(corpus)))):
        ledger = nc.read_override_ledger(io.StringIO(ledger_text, newline=""))
        result = parse(data, ledger=ledger)
        [record] = result.records
        assert record.authors[0].override_gender == nc.Gender.FEMALE, parse.__name__
        assert result.unmatched == []
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
        assert [record.getMessage() for record in caplog.records] == [
            "override entry never matched: %r (scope venue=%r years=%s-%s)" % entry
            for entry in unmatched]
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
