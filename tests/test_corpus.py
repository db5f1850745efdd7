import io
import logging

import pytest

import namecohort as nc
from namecohort.corpus import (
    CorpusFormatError,
    DblpParseError,
    OverrideEntry,
    OverrideLedger,
    make_mention,
)
from namecohort.model import Gender

CSV_SAMPLE = (
    "record_id,venue,year,authors\n"
    "a1,SIGPLAN,1980,Jean Sammet|B. Liskov\n"
)


class TestExtractFirstName:
    @pytest.mark.parametrize("raw, expected", [
        ("Jean Bartik", "jean"),
        ("Leslie Pack Kaelbling", "leslie"),
        ("Prof. R.C. Archibald", None),
        ("B. Liskov", None),
        ("J Doe", None),
        ("Mrs. Gertrude Blanch", "gertrude"),
        ("Dr. Mary Shaw", "mary"),
        ("Jean-Pierre Dupont", "jean-pierre"),
        ("Bartik, Jean", "jean"),
        ("Andrews, Thomas B., Jr.", "thomas"),
        ("José Álvarez", "jose"),
        ("  ", None),
        ("Prof.", None),
    ])
    def test_examples(self, raw, expected):
        assert nc.extract_first_name(raw) == expected

    def test_idempotent_on_own_output(self):
        for raw in ("Jean Bartik", "José Álvarez", "Jean-Pierre Dupont",
                    "Bartik, Jean", "madison"):
            first = nc.extract_first_name(raw)
            if first is not None:
                assert nc.extract_first_name(first) == first


class TestCorpusCsv:
    def test_parses_rows_and_flags_initials(self):
        result = nc.parse_corpus_csv(io.StringIO(CSV_SAMPLE))
        [record] = result.records
        assert record.record_id == "a1"
        assert record.venue == "SIGPLAN"
        assert record.publication_year == 1980
        assert [m.first_name for m in record.authors] == ["jean", None]
        assert record.authors[1].initial_only

    def test_header_only_yields_empty_list(self):
        result = nc.parse_corpus_csv(io.StringIO("record_id,venue,year,authors\n"))
        assert result.records == []
        assert result.skipped == 0

    def test_missing_or_wrong_header_rejected(self):
        with pytest.raises(CorpusFormatError):
            nc.parse_corpus_csv(io.StringIO(""))
        with pytest.raises(CorpusFormatError):
            nc.parse_corpus_csv(io.StringIO("id,venue,year,authors\n"))

    @pytest.mark.parametrize("row, fragment", [
        ("a2,X,80,Y", "out of range"),
        ("a2,X,none,Y", "invalid year"),
        ("a2,X,1980", "expected 4 columns"),
        ("a2,X,1980,", "empty authors"),
        ("a2,X,1980,Ann| |Bob", "empty author name"),
    ])
    def test_strict_mode_aborts_with_line_number(self, row, fragment):
        stream = io.StringIO(f"record_id,venue,year,authors\n{row}\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            nc.parse_corpus_csv(stream)
        assert excinfo.value.lineno == 2
        assert fragment in str(excinfo.value)

    def test_lenient_mode_skips_and_tallies(self):
        stream = io.StringIO(
            "record_id,venue,year,authors\n"
            "a1,X,1980,Ann\n"
            "a2,X,80,Bob\n"
            "a3,X,1990,Cee\n"
        )
        result = nc.parse_corpus_csv(stream, strict=False)
        assert [r.record_id for r in result.records] == ["a1", "a3"]
        assert result.skipped == 1
        assert "line 3" in result.problems[0]

    def test_round_trip_is_identity(self):
        text = (
            "record_id,venue,year,authors\n"
            "a1,SIGPLAN,1980,Jean Sammet|B. Liskov\n"
            'a2,"Conf, The",1990,Ada One\n'
        )
        first = nc.parse_corpus_csv(io.StringIO(text)).records
        second = nc.parse_corpus_csv(io.StringIO(nc.serialize_corpus_csv(first))).records
        assert first == second

    def test_author_order_preserved(self):
        stream = io.StringIO("record_id,venue,year,authors\na1,X,1980,Zoe A|Amy B|Mia C\n")
        [record] = nc.parse_corpus_csv(stream).records
        assert [m.raw for m in record.authors] == ["Zoe A", "Amy B", "Mia C"]


DBLP_SAMPLE = b"""<dblp>
<inproceedings key="conf/x/1">
  <author>Ada One</author><author>Bea Two</author><author>Cal Three</author>
  <title>Ignored Title</title>
  <year>1980</year>
  <booktitle>CONF</booktitle>
</inproceedings>
<article key="journals/y/2"><author>Dee Four</author><year>1981</year><journal>J</journal></article>
<phdthesis key="thesis/z"><author>Eli Five</author><year>1982</year></phdthesis>
</dblp>
"""


class TestDblpSubset:
    def test_parses_publication_elements(self):
        result = nc.parse_dblp_subset(io.BytesIO(DBLP_SAMPLE))
        assert len(result.records) == 2  # phdthesis is not a publication element
        first, second = result.records
        assert first.record_id == "conf/x/1"
        assert len(first.authors) == 3
        assert first.venue == "CONF"
        assert first.publication_year == 1980
        assert second.venue == "J"
        assert result.skipped == 0

    def test_missing_year_skipped_and_tallied(self):
        xml = b'<dblp><article key="a"><author>Ann</author></article></dblp>'
        result = nc.parse_dblp_subset(io.BytesIO(xml))
        assert result.records == []
        assert result.skipped == 1
        assert "missing year" in result.problems[0]

    def test_missing_key_or_authors_skipped(self):
        xml = (b'<dblp>'
               b'<article><author>Ann</author><year>1980</year></article>'
               b'<article key="b"><year>1980</year></article>'
               b'</dblp>')
        result = nc.parse_dblp_subset(io.BytesIO(xml))
        assert result.records == []
        assert result.skipped == 2

    def test_malformed_xml_reports_byte_offset(self):
        xml = b'<dblp><article key="a"><author>Ann</author?></article></dblp>'
        with pytest.raises(DblpParseError) as excinfo:
            nc.parse_dblp_subset(io.BytesIO(xml))
        assert excinfo.value.offset == xml.index(b"?")

    def test_rootless_fragment_stream_accepted(self):
        xml = (b'<article key="a"><author>Ann</author><year>1980</year></article>'
               b'<article key="b"><author>Bob</author><year>1981</year></article>')
        result = nc.parse_dblp_subset(io.BytesIO(xml))
        assert [r.record_id for r in result.records] == ["a", "b"]

    def test_split_streams_concatenate_identically(self):
        whole = nc.parse_dblp_subset(io.BytesIO(DBLP_SAMPLE)).records
        part1 = (b"<dblp>"
                 + DBLP_SAMPLE.split(b"</inproceedings>")[0].split(b"<dblp>")[1]
                 + b"</inproceedings></dblp>")
        part2 = (b"<dblp>"
                 + DBLP_SAMPLE.split(b"</inproceedings>")[1].split(b"</dblp>")[0]
                 + b"</dblp>")
        combined = (nc.parse_dblp_subset(io.BytesIO(part1)).records
                    + nc.parse_dblp_subset(io.BytesIO(part2)).records)
        assert combined == whole

    def test_nonbuiltin_entities_rejected(self):
        xml = b'<dblp><article key="a"><author>M&uuml;ller</author><year>1980</year></article></dblp>'
        with pytest.raises(DblpParseError):
            nc.parse_dblp_subset(io.BytesIO(xml))
        declared = (b'<?xml version="1.0"?><!DOCTYPE dblp [<!ENTITY uuml "u">]>'
                    b'<dblp><article key="a"><author>M&uuml;ller</author>'
                    b'<year>1980</year></article></dblp>')
        with pytest.raises(DblpParseError):
            nc.parse_dblp_subset(io.BytesIO(declared))

    def test_builtin_entities_accepted(self):
        xml = b'<dblp><article key="a"><author>Ann &amp; Bob</author><year>1980</year></article></dblp>'
        result = nc.parse_dblp_subset(io.BytesIO(xml))
        assert result.records[0].authors[0].raw == "Ann & Bob"


def make_record(record_id="r1", venue="SIGX", year=1975, authors=("Jean Sammet",)):
    return nc.CorpusRecord(record_id=record_id, venue=venue, publication_year=year,
                           authors=tuple(make_mention(a) for a in authors))


class TestOverrides:
    def test_ledger_csv_round_trip_fields(self):
        stream = io.StringIO(
            "key,gender,year_from,year_to,venue,source_note\n"
            "jean sammet,F,,,,biographical dictionary\n"
            "lee kim,M,1970,2020,SIGX,alumni list\n"
        )
        ledger = nc.read_override_ledger(stream)
        assert len(ledger) == 2
        assert ledger.entries[0].gender is Gender.FEMALE
        assert ledger.entries[0].year_from is None
        assert ledger.entries[1].venue == "SIGX"

    def test_ledger_requires_source_note_and_valid_gender(self):
        with pytest.raises(CorpusFormatError, match="source note"):
            nc.read_override_ledger(io.StringIO(
                "key,gender,year_from,year_to,venue,source_note\nx y,F,,,,\n"))
        with pytest.raises(CorpusFormatError, match="invalid gender"):
            nc.read_override_ledger(io.StringIO(
                "key,gender,year_from,year_to,venue,source_note\nx y,Q,,,,note\n"))

    def test_ledger_rejects_inverted_year_scope(self):
        with pytest.raises(ValueError, match="year_from"):
            OverrideEntry("a b", Gender.FEMALE, year_from=1980, year_to=1979,
                          source_note="n")
        assert OverrideEntry("a b", Gender.FEMALE, year_from=1980, year_to=1980,
                             source_note="n").applies_to("V", 1980)
        with pytest.raises(CorpusFormatError, match="line 3: .*year_from") as excinfo:
            nc.read_override_ledger(io.StringIO(
                "key,gender,year_from,year_to,venue,source_note\n"
                "x y,F,1970,1980,,note\n"
                "x y,M,1990,1985,,note\n"))
        assert excinfo.value.lineno == 3

    def test_ledger_rejects_duplicate_scoped_key(self):
        entries = [
            OverrideEntry("a b", Gender.FEMALE, source_note="n1"),
            OverrideEntry("a b", Gender.MALE, source_note="n2"),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            OverrideLedger(entries)

    def test_override_takes_precedence(self):
        ledger = OverrideLedger([OverrideEntry("jean sammet", Gender.FEMALE,
                                               source_note="bio")])
        [record] = nc.apply_overrides([make_record()], ledger)
        assert record.authors[0].override_gender is Gender.FEMALE

    def test_empty_ledger_leaves_records_unchanged(self):
        records = [make_record()]
        assert nc.apply_overrides(records, OverrideLedger([])) == records

    def test_scope_miss_leaves_mention_alone(self):
        ledger = OverrideLedger([OverrideEntry("jean sammet", Gender.FEMALE,
                                               year_from=1970, year_to=2020,
                                               source_note="bio")])
        [record] = nc.apply_overrides([make_record(year=1960)], ledger)
        assert record.authors[0].override_gender is None
        [record] = nc.apply_overrides([make_record(year=1975)], ledger)
        assert record.authors[0].override_gender is Gender.FEMALE

    def test_venue_scope_is_case_insensitive(self):
        ledger = OverrideLedger([OverrideEntry("jean sammet", Gender.FEMALE,
                                               venue="sigx", source_note="bio")])
        [record] = nc.apply_overrides([make_record(venue="SIGX")], ledger)
        assert record.authors[0].override_gender is Gender.FEMALE

    def test_surname_first_mention_matches_given_first_key(self):
        ledger = OverrideLedger([OverrideEntry("jean sammet", Gender.FEMALE,
                                               source_note="bio")])
        [record] = nc.apply_overrides([make_record(authors=("Sammet, Jean",))], ledger)
        assert record.authors[0].override_gender is Gender.FEMALE

    def test_unmatched_entries_warned(self, caplog):
        ledger = OverrideLedger([OverrideEntry("never matches", Gender.MALE,
                                               source_note="x")])
        with caplog.at_level(logging.WARNING, logger="namecohort.corpus"):
            nc.apply_overrides([make_record()], ledger)
        assert any("never matched" in message for message in caplog.messages)

    def test_author_order_preserved_everywhere(self):
        record = make_record(authors=("Zoe A", "Jean Sammet", "Mia C"))
        ledger = OverrideLedger([OverrideEntry("jean sammet", Gender.FEMALE,
                                               source_note="bio")])
        [result] = nc.apply_overrides([record], ledger)
        assert [m.raw for m in result.authors] == ["Zoe A", "Jean Sammet", "Mia C"]


def test_corpus_record_validation():
    with pytest.raises(ValueError):
        nc.CorpusRecord("r", "v", 1980, ())
    with pytest.raises(ValueError):
        make_record(year=1850)


def test_dblp_utf8_author_folds_for_lookup():
    xml = ('<dblp><article key="a"><author>José Álvarez</author>'
           '<year>1980</year></article></dblp>').encode("utf-8")
    import io as _io
    [record] = nc.parse_dblp_subset(_io.BytesIO(xml)).records
    assert record.authors[0].raw == "José Álvarez"
    assert record.authors[0].first_name == "jose"


def test_dblp_accepts_text_mode_stream():
    import io as _io
    stream = _io.StringIO('<dblp><article key="a"><author>Ann B</author>'
                          '<year>1980</year></article></dblp>')
    assert len(nc.parse_dblp_subset(stream).records) == 1


def test_dblp_nested_publication_tag_does_not_truncate():
    import io as _io
    xml = (b'<dblp><article key="outer"><author>Ann B</author>'
           b'<article key="inner"><author>Ignored</author></article>'
           b'<year>1980</year></article></dblp>')
    result = nc.parse_dblp_subset(_io.BytesIO(xml))
    [record] = result.records
    assert record.record_id == "outer"
    assert record.publication_year == 1980
    assert [m.raw for m in record.authors] == ["Ann B"]


def test_dblp_only_direct_children_captured():
    import io as _io
    xml = (b'<dblp><article key="a"><author>Ann B</author>'
           b'<cite><author>Referenced Person</author><year>1955</year></cite>'
           b'<year>1980</year></article></dblp>')
    [record] = nc.parse_dblp_subset(_io.BytesIO(xml)).records
    assert [m.raw for m in record.authors] == ["Ann B"]
    assert record.publication_year == 1980


def test_dblp_mixed_content_author_concatenates():
    import io as _io
    xml = (b'<dblp><article key="a"><author>Jean <i>S</i>ammet</author>'
           b'<year>1980</year></article></dblp>')
    [record] = nc.parse_dblp_subset(_io.BytesIO(xml)).records
    assert record.authors[0].raw == "Jean Sammet"
