import csv
import io
import logging
import os
import random
from array import array
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

import namecohort as nc
from namecohort import ssa
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


GIVEN = ["José", "JOSÉ", "jose", "Jose,", "Ørjan", "Łukasz", "Zoë", "Þóra", "Jean-Luc",
         "Anne-Marie", "anne-marie", "J.", "J", "R.C.", "B", "Ada", "ada", "Günther",
         "Françoise", "Mary;", "Ærø"]
HONORIFICS = ["", "", "Dr. ", "Prof ", "Mrs. ", "Mr ", "Dr. Prof. ", "MISS "]
SURNAMES = ["Smith", "de la Cruz", "O'Brien", "Núñez", "Liskov", "Smith-Jones"]


def random_author(rng):
    """An author string in one of the printed forms: honorifics, "Surname,
    Given" with or without a suffix, middle names, or an honorific alone."""
    given, surname = rng.choice(GIVEN), rng.choice(SURNAMES)
    honorific = rng.choice(HONORIFICS)
    return rng.choice([
        f"{honorific}{given} {surname}",
        f"{honorific}{given} {rng.choice(GIVEN)} {surname}",
        f"{surname}, {given}",
        f"{surname}, {honorific}{given}",
        f"{surname}, {given}, Jr.",
        f"{surname},",
        honorific.strip() or given,
    ])


def test_parsers_extract_each_first_name_like_extract_first_name():
    rng = random.Random(5)
    for _ in range(20):
        records = [[random_author(rng) for _ in range(rng.randint(1, 4))]
                   for _ in range(rng.randint(1, 40))]
        raws = [raw for authors in records for raw in authors]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["record_id", "venue", "year", "authors"])
        writer.writerows([f"r{i}", "V", 1990, "|".join(authors)]
                         for i, authors in enumerate(records))
        xml = "".join(f'<article key="r{i}">'
                      + "".join(f"<author>{escape(raw)}</author>" for raw in authors)
                      + "<year>1990</year></article>"
                      for i, authors in enumerate(records))
        for result in (nc.parse_corpus_csv(io.StringIO(buffer.getvalue())),
                       nc.parse_dblp_subset(io.BytesIO(xml.encode("utf-8")))):
            mentions = [m for record in result.records for m in record.authors]
            assert [m.raw for m in mentions] == raws
            assert [m.first_name for m in mentions] == \
                [nc.extract_first_name(raw) for raw in raws]


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
        text = (
            "record_id,venue,year,authors\n"
            "a1,X,1980,Ann\n"
            "a2,X,80,Bob\n"
            "a3,X,1990,Cee\n"
        )
        result = nc.parse_corpus_csv(io.StringIO(text), strict=False)
        assert [r.record_id for r in result.records] == ["a1", "a3"]
        assert result.skipped == 1
        with pytest.raises(CorpusFormatError, match="^line 3: year 80 out of range"):
            nc.parse_corpus_csv(io.StringIO(text))

    def test_round_trip_is_identity(self):
        text = (
            "record_id,venue,year,authors\n"
            "a1,SIGPLAN,1980,Jean Sammet|B. Liskov\n"
            'a2,"Conf, The",1990,Ada One\n'
        )
        first = nc.parse_corpus_csv(io.StringIO(text)).records
        second = nc.parse_corpus_csv(io.StringIO(nc.serialize_corpus_csv(first))).records
        assert first == second

    def test_serialized_cells_with_carriage_returns_are_quoted(self):
        text = ('record_id,venue,year,authors\n'
                'a1,"A\rB",1980,Ada One\n'
                'a2,"C\r\nD",1990,"Ann ""Q"" Lee|Bo\rCe"\n')
        first = nc.parse_corpus_csv(io.StringIO(text, newline="")).records
        serialized = nc.serialize_corpus_csv(first)
        assert serialized == text
        assert nc.parse_corpus_csv(io.StringIO(serialized, newline="")).records == first

    def test_author_order_preserved(self):
        stream = io.StringIO("record_id,venue,year,authors\na1,X,1980,Zoe A|Amy B|Mia C\n")
        [record] = nc.parse_corpus_csv(stream).records
        assert [m.raw for m in record.authors] == ["Zoe A", "Amy B", "Mia C"]

    @pytest.mark.parametrize("strict", [True, False])
    def test_oversized_field_raises_format_error_naming_its_line(self, strict):
        stream = io.StringIO("record_id,venue,year,authors\n"
                             "a1,X,1980,Ann B\n"
                             f"a2,X,1980,{'A' * 200_000} B\n")
        with pytest.raises(CorpusFormatError, match="line 3: .*field larger") as excinfo:
            nc.parse_corpus_csv(stream, strict=strict)
        assert excinfo.value.lineno == 3


# Enough valid rows that the bad byte lies past the first chunk a text stream decodes.
VALID_ROWS = "".join(f"a{i},X,1980,Ann B{i}\n" for i in range(3000))
VALID_LEDGER_ROWS = "".join(f"ann b{i},F,,,,note\n" for i in range(3000))


class TestBytesThatAreNotUtf8:
    @pytest.mark.parametrize("strict", [True, False])
    def test_corpus_csv_names_the_line(self, tmp_path, strict):
        path = tmp_path / "c.csv"
        path.write_bytes(("record_id,venue,year,authors\n" + VALID_ROWS).encode()
                         + b"z1,X,1980,Ad\xff B\nz2,X,1980,Ann C\n")
        with open(path, encoding="utf-8", newline="") as stream:
            with pytest.raises(CorpusFormatError, match="line 3002: not UTF-8") as excinfo:
                nc.parse_corpus_csv(stream, strict=strict)
        assert excinfo.value.lineno == 3002

    def test_ledger_names_the_line(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_bytes((",".join(nc.corpus.LEDGER_HEADER) + "\n"
                          + VALID_LEDGER_ROWS).encode() + b"zed q,F,,,,n\xffote\n")
        with open(path, encoding="utf-8", newline="") as stream:
            with pytest.raises(CorpusFormatError, match="line 3002: not UTF-8") as excinfo:
                nc.read_override_ledger(stream)
        assert excinfo.value.lineno == 3002


DBLP_DUMP_HEADER = (b'<?xml version="1.0" encoding="ISO-8859-1"?>\n'
                    b'<!DOCTYPE dblp SYSTEM "dblp.dtd">\n')

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
        with pytest.raises(DblpParseError) as excinfo:
            nc.parse_dblp_subset(io.BytesIO(xml), strict=True)
        assert str(excinfo.value) == f"byte {xml.index(b'<article')}: a: missing year"

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

    def test_real_dump_header_parses_with_its_encoding_and_entities(self):
        # A dblp.xml dump opens with an XML declaration naming ISO-8859-1 and
        # a DOCTYPE whose DTD declares the HTML named entities.
        xml = (DBLP_DUMP_HEADER
               + b'<dblp>\n<article key="a/1"><author>J&uuml;rgen M\xfcller</author>'
               b'<year>1990</year><journal>Z&ouml;ol. &amp; Bot.</journal></article>\n'
               b'</dblp>\n')
        [record] = nc.parse_dblp_subset(io.BytesIO(xml)).records
        assert record.authors[0].raw == "J\u00fcrgen M\u00fcller"
        assert record.authors[0].first_name == "jurgen"
        assert record.venue == "Z\u00f6ol. & Bot."

    @pytest.mark.parametrize("encoding", ["bogus", "rot13", "hex", "big5", "idna"])
    def test_declared_encoding_python_cannot_use_raises_with_its_offset(self, encoding):
        header = DBLP_DUMP_HEADER.replace(b"ISO-8859-1", encoding.encode("ascii"))
        xml = header + b'<dblp><article key="a"><author>Ann</author><year>1990</year></article></dblp>'
        with pytest.raises(DblpParseError, match="encoding") as excinfo:
            nc.parse_dblp_subset(io.BytesIO(xml))
        assert excinfo.value.offset == xml.index(encoding.encode("ascii"))

    def test_dump_header_keeps_byte_offsets(self):
        xml = (DBLP_DUMP_HEADER + b'<dblp>\n<article key="a/1"><author>Ann</author>'
               b'<year>1990</year></article>\n<article key="a/2"><author>Bo</author>'
               b'</article>\n</dblp>\n')
        with pytest.raises(DblpParseError) as excinfo:
            nc.parse_dblp_subset(io.BytesIO(xml), strict=True)
        assert excinfo.value.offset == xml.index(b'<article key="a/2"')
        bad = xml.replace(b"</author>", b"</author?>", 1)
        with pytest.raises(DblpParseError) as excinfo:
            nc.parse_dblp_subset(io.BytesIO(bad))
        assert excinfo.value.offset == bad.index(b"</author?>") + len(b"</author")

    def test_dump_header_still_rejects_entity_declarations_and_unknown_entities(self):
        declared = DBLP_DUMP_HEADER.replace(b'"dblp.dtd">', b'"dblp.dtd" [<!ENTITY x "y">]>')
        with pytest.raises(DblpParseError, match="entity declarations"):
            nc.parse_dblp_subset(io.BytesIO(
                declared + b'<dblp><article key="a"><author>Ann &x;</author>'
                b'<year>1990</year></article></dblp>'))
        with pytest.raises(DblpParseError, match="undefined entity &nosuch;"):
            nc.parse_dblp_subset(io.BytesIO(
                DBLP_DUMP_HEADER + b'<dblp><article key="a"><author>Ann &nosuch;</author>'
                b'<year>1990</year></article></dblp>'))

    def test_text_stream_ignores_a_declared_byte_encoding(self):
        text = (DBLP_DUMP_HEADER.decode("ascii") + '<dblp><article key="a">'
                '<author>Zo\u00eb M&uuml;ller</author><year>1990</year></article></dblp>')
        [record] = nc.parse_dblp_subset(io.StringIO(text)).records
        assert record.authors[0].raw == "Zo\u00eb M\u00fcller"

    def test_builtin_entities_accepted(self):
        xml = b'<dblp><article key="a"><author>Ann &amp; Bob</author><year>1980</year></article></dblp>'
        result = nc.parse_dblp_subset(io.BytesIO(xml))
        assert result.records[0].authors[0].raw == "Ann & Bob"

    @pytest.mark.parametrize("padding", [0, 70_000], ids=["first-chunk", "later-chunk"])
    def test_text_stream_holding_a_lone_surrogate_names_its_offset(self, padding):
        text = ("<dblp><!--" + "p" * padding + '--><article key="a">'
                "<author>A\ud800 B</author><year>1980</year></article></dblp>")
        with pytest.raises(DblpParseError) as excinfo:
            nc.parse_dblp_subset(io.StringIO(text))
        assert excinfo.value.offset == text.index("\ud800")
        assert "not well-formed" in str(excinfo.value)


def test_analyze_subprocess_on_unusable_declared_encoding_exits_1_without_traceback(tmp_path):
    corpus = tmp_path / "bogus.xml"
    corpus.write_bytes(b'<?xml version="1.0" encoding="bogus"?>\n<dblp><article key="a">'
                       b'<author>Ann B</author><year>1990</year></article></dblp>\n')
    proc = subprocess.run(
        [sys.executable, "-m", "namecohort.cli", "analyze", "--corpus", str(corpus)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(nc.__file__).parent.parent)))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: byte 30: ")
    assert "Traceback" not in proc.stderr


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

    def test_ledger_oversized_field_raises_format_error_naming_its_line(self):
        stream = io.StringIO("key,gender,year_from,year_to,venue,source_note\n"
                             "x y,F,,,,note\n"
                             f"x z,F,,,,{'n' * 200_000}\n")
        with pytest.raises(CorpusFormatError, match="line 3: .*field larger") as excinfo:
            nc.read_override_ledger(stream)
        assert excinfo.value.lineno == 3

    @pytest.mark.parametrize("key", ["", "  ", "Prof.", ",", "Dr. Mrs.", "..."])
    def test_ledger_rejects_key_that_normalizes_to_nothing(self, key):
        with pytest.raises(CorpusFormatError, match="line 3: .*empty key") as excinfo:
            nc.read_override_ledger(io.StringIO(
                "key,gender,year_from,year_to,venue,source_note\n"
                "x y,F,,,,note\n"
                f'"{key}",F,,,,note\n'))
        assert excinfo.value.lineno == 3

    def test_ledger_file_rejects_duplicate_scoped_key_naming_its_line(self):
        with pytest.raises(CorpusFormatError, match="line 4: duplicate") as excinfo:
            nc.read_override_ledger(io.StringIO(
                "key,gender,year_from,year_to,venue,source_note\n"
                "x y,F,,,,note\n"
                "x y,F,1970,,,note\n"
                "X  Y,M,,,,other note\n"))
        assert excinfo.value.lineno == 4

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

    def test_parsers_take_a_ledger_and_return_its_unmatched_entries(self):
        ledger = nc.read_override_ledger(io.StringIO(
            "key,gender,year_from,year_to,venue,source_note\n"
            "jean sammet,F,,,,bio\nb liskov,F,,,,bio\nada (.),F,,,,bio\nnobody,M,,,,x\n"))
        csv_result = nc.parse_corpus_csv(io.StringIO(
            "record_id,venue,year,authors\n"
            "a1,SIGX,1980,Jean Sammet|Ada (.)|Jean Other\n"
            "a2,SIGX,80,B. Liskov\n"), strict=False, ledger=ledger)
        dblp_result = nc.parse_dblp_subset(io.BytesIO(
            b'<dblp><article key="a1"><author>Jean Sammet</author><author>Ada (.)</author>'
            b'<author>Jean Other</author><year>1980</year><journal>SIGX</journal></article>'
            b'<article key="a2"><author>B. Liskov</author><year>80</year></article></dblp>'),
            ledger=ledger)
        for result in (csv_result, dblp_result):
            assert result.skipped == 1  # the row naming b liskov matches nothing
            [record] = result.records
            assert [m.override_gender for m in record.authors] == [Gender.FEMALE,
                                                                   Gender.FEMALE, None]
            assert [m.first_name for m in record.authors] == ["jean", "ada", "jean"]
            assert [e.key for e in result.unmatched] == ["b liskov", "nobody"]
        plain = nc.parse_corpus_csv(io.StringIO("record_id,venue,year,authors\n"
                                                "a1,SIGX,1980,Jean Sammet\n"))
        assert plain.unmatched == []
        assert plain.records[0].authors[0].override_gender is None

    def test_dblp_homonym_number_stays_in_the_full_name_key(self):
        # DBLP numbers homonyms ("Wei Wang 0001"): the number marks a distinct
        # person, so it stays in the key and a key without it does not match.
        assert nc.normalize_full_name("Wei Wang 0001") == "wei wang 0001"
        ledger = nc.read_override_ledger(io.StringIO(
            "key,gender,year_from,year_to,venue,source_note\n"
            "Wei Wang 0001,F,,,,homepage\nWei Wang,M,,,,other\n"))
        result = nc.parse_dblp_subset(io.BytesIO(
            b'<dblp><article key="a"><author>Wei Wang 0001</author><author>Wei Wang 0002'
            b'</author><year>2010</year></article></dblp>'), ledger=ledger)
        [record] = result.records
        assert [(m.first_name, m.override_gender) for m in record.authors] == [
            ("wei", Gender.FEMALE), ("wei", None)]
        assert [e.key for e in result.unmatched] == ["wei wang"]

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


def test_serialize_rejects_an_author_holding_the_separator():
    xml = b'<dblp><article key="k"><author>Ann|Bo Lee</author><year>1990</year></article></dblp>'
    records = nc.parse_dblp_subset(io.BytesIO(xml)).records
    assert [m.raw for m in records[0].authors] == ["Ann|Bo Lee"]
    with pytest.raises(ValueError, match=r"record 'k': author 'Ann\|Bo Lee'"):
        nc.serialize_corpus_csv(records)


# int() takes each of these as 1990 (or -1990), except the last, which has
# more digits than int() converts; a year cell takes only ASCII digits.
NOT_ASCII_DIGIT_YEARS = ["1_990", "+1990", "-1990", "١٩٩٠",
                         "１９９０", "¹990", pytest.param("1" * 5000, id="5000-digits")]


@pytest.mark.parametrize("year", NOT_ASCII_DIGIT_YEARS)
def test_corpus_year_cells_take_only_ascii_digits(year):
    csv_text = f"record_id,venue,year,authors\na1,X,1990,Ann Lee\na2,X,{year},Bo Lee\n"
    xml = (f'<dblp><article key="a1"><author>Ann Lee</author><year>1990</year></article>'
           f'<article key="a2"><author>Bo Lee</author><year>{year}</year></article>'
           f'</dblp>').encode("utf-8")
    for result in (nc.parse_corpus_csv(io.StringIO(csv_text), strict=False),
                   nc.parse_dblp_subset(io.BytesIO(xml))):
        assert [r.record_id for r in result.records] == ["a1"]
        assert result.skipped == 1
    # an error message shows at most 40 characters of the value
    echo = repr(year) if len(year) <= 40 else f"{year[:40]!r}… ({len(year)} characters)"
    with pytest.raises(CorpusFormatError) as excinfo:
        nc.parse_corpus_csv(io.StringIO(csv_text))
    assert str(excinfo.value) == f"line 3: invalid year {echo}"
    with pytest.raises(DblpParseError) as excinfo:
        nc.parse_dblp_subset(io.BytesIO(xml), strict=True)
    offset = xml.index(b'<article key="a2"')
    assert str(excinfo.value) == f"byte {offset}: a2: invalid year {echo}"
    header = "key,gender,year_from,year_to,venue,source_note\nann lee,F,,,,note\n"
    for row, column in ((f"bo lee,F,{year},,,note", "year_from"),
                        (f"bo lee,F,,{year},,note", "year_to")):
        with pytest.raises(CorpusFormatError, match=f"line 3: invalid {column}") as excinfo:
            nc.read_override_ledger(io.StringIO(f"{header}{row}\n"))
        assert excinfo.value.lineno == 3


def _csv_parse(year):
    text = f"record_id,venue,year,authors\na1,X,{year},Ann Lee\n"
    return lambda strict: nc.parse_corpus_csv(io.StringIO(text), strict=strict)


def _dblp_parse(key, year):
    xml = f'<dblp><article key="{key}"><author>Ann Lee</author>{year}</article></dblp>'
    return lambda strict: nc.parse_dblp_subset(io.BytesIO(xml.encode()), strict=strict)


def _ledger_parse(*rows):
    text = "".join(f"{row}\n" for row in ("key,gender,year_from,year_to,venue,source_note",
                                           *rows))
    return lambda strict: nc.read_override_ledger(io.StringIO(text))


def _year_file_parse(line):
    return lambda strict: nc.parse_year_file(io.StringIO(f"{line}\n"), 1990)


def _serialize(record_id, author):
    return lambda strict: nc.serialize_corpus_csv(
        [nc.CorpusRecord(record_id, "X", 1990, (make_mention(author),))])


def _snapshot_check(names, offsets, years, females, males):
    """The check of decoded snapshot columns, over these column values."""
    columns = [array(typecode, values) for typecode, values in
               ((ssa._U32, offsets), (ssa._YEAR, years), (ssa._U32, females), (ssa._U32, males))]
    return lambda strict: ssa._check_columns("t.bin", names, *columns)


# Each input value that an error message echoes: the character the value is
# made of, and the call (a parse, strict or not, or a build, serialization,
# shift or draw that ignores strict) that fails on it. The corpus parses skip
# the row when lenient; the others have no lenient mode. A year or size of
# digits is echoed as the int that it is, at most 4,300 digits.
ECHOED_VALUES = {
    "csv year": ("x", _csv_parse),
    "csv year out of range": ("9", _csv_parse),
    "dblp key": ("x", lambda v: _dblp_parse(v, "")),
    "dblp year": ("x", lambda v: _dblp_parse("k", f"<year>{v}</year>")),
    "dblp year out of range": ("9", lambda v: _dblp_parse("k", f"<year>{v}</year>")),
    "ledger key without a note": ("x", lambda v: _ledger_parse(f"{v},F,,,,")),
    "ledger key with years out of order": ("x", lambda v: _ledger_parse(f"{v},F,1990,1980,,n")),
    "ledger year_from after year_to": ("9", lambda v: _ledger_parse(f"a,F,{v},1980,,n")),
    "ledger scope": ("x", lambda v: _ledger_parse(f"a,F,,,{v},n", f"a,F,,,{v},n")),
    "ledger gender": ("x", lambda v: _ledger_parse(f"a,{v},,,,n")),
    "ledger year_from": ("x", lambda v: _ledger_parse(f"a,F,{v},,,n")),
    "ledger year_to": ("x", lambda v: _ledger_parse(f"a,F,,{v},,n")),
    "year-file sex": ("x", lambda v: _year_file_parse(f"Ann,{v},5")),
    "year-file count": ("x", lambda v: _year_file_parse(f"Ann,F,{v}")),
    "year-file repeated name": ("x", lambda v: _year_file_parse(f"{v},F,5\n{v},F,6")),
    "name-count record sex": ("x", lambda v: lambda strict: nc.build_table([("a", v, 5, 1990)])),
    "record id without authors": ("x", lambda v: lambda strict: nc.CorpusRecord(v, "X", 1990, ())),
    "record year out of range": ("9", lambda v: lambda strict: nc.CorpusRecord(
        "a", "X", int(v), (make_mention("Ann Lee"),))),
    "serialized record id": ("x", lambda v: _serialize(v, "Ann|Lee")),
    "serialized author": ("|", lambda v: _serialize("a", v)),
    "shift endpoint name": ("x", lambda v: lambda strict: nc.gender_shift(
        nc.load_fixture(), v, 1900, 2000)),
    "shift endpoint year": ("9", lambda v: lambda strict: nc.gender_shift(
        nc.load_fixture(), "mary", 1900, int(v))),
    "draw size": ("9", lambda v: lambda strict: nc.draw_sample(["a"], int(v), 1)),
    "table name out of range": ("x", lambda v: lambda strict: nc.NameYearTable(
        {(v, 70000): (1, 0)})),
    "table negative count": ("x", lambda v: lambda strict: nc.NameYearTable({(v, 1990): (-1, 0)})),
    "table empty entry": ("x", lambda v: lambda strict: nc.NameYearTable({(v, 1990): (0, 0)})),
    "snapshot name without years": ("x", lambda v: _snapshot_check([v], [0, 0], [], [], [])),
    "snapshot names out of order": ("x", lambda v: _snapshot_check(
        [v, "a"], [0, 1, 2], [1990, 1990], [1, 1], [0, 0])),
    "snapshot name not normalized": ("X", lambda v: _snapshot_check([v], [0, 1], [1990], [1], [0])),
    "snapshot years out of order": ("x", lambda v: _snapshot_check(
        [v], [0, 2], [1991, 1990], [1, 1], [0, 0])),
    "snapshot empty entry": ("x", lambda v: _snapshot_check([v], [0, 1], [1990], [0], [0])),
}


@pytest.mark.parametrize("site", ECHOED_VALUES)
def test_an_error_message_shows_at_most_40_characters_of_a_value(site):
    char, parse_of = ECHOED_VALUES[site]
    length = 4300 if char == "9" else 100_000  # int() converts at most 4,300 digits
    for value in (char * 40, char * length):
        parse = parse_of(value)
        with pytest.raises(ValueError) as excinfo:
            parse(True)
        message = str(excinfo.value)
        assert char * 40 in message and char * 41 not in message
        if len(value) > 40:
            assert len(message) < 200 and f"… ({length} characters)" in message
        else:
            assert "characters)" not in message
        if site.startswith(("csv", "dblp")):
            result = parse(False)
            assert (result.records, result.skipped) == ([], 1)


def test_a_table_name_with_a_line_break_is_echoed_in_part():
    for name in ("Ann\nLee", "x" * 5000 + "\n"):
        with pytest.raises(ValueError, match="is empty or holds a line break") as excinfo:
            ssa._grouped(({name: {1990: 1}}, {}))
        assert len(str(excinfo.value)) < 200
    assert str(excinfo.value).startswith(f"table name {'x' * 40!r}… (5001 characters)")


def test_year_cells_allow_white_space_around_the_digits():
    [record] = nc.parse_corpus_csv(io.StringIO(
        "record_id,venue,year,authors\na1,X,\t1990 ,Ann Lee\n")).records
    assert record.publication_year == 1990
    [record] = nc.parse_dblp_subset(io.BytesIO(
        b'<dblp><article key="a"><author>Ann Lee</author><year>\n1990 </year></article>'
        b'</dblp>')).records
    assert record.publication_year == 1990
    [entry] = nc.read_override_ledger(io.StringIO(
        "key,gender,year_from,year_to,venue,source_note\nann lee,F, 1980,1990 ,,note\n")
    ).entries
    assert (entry.year_from, entry.year_to) == (1980, 1990)


class _CountingReader(io.BytesIO):
    """A byte stream that notes how far it has been read."""

    def read(self, size=-1):
        data = super().read(size)
        self.read_to = self.tell()
        return data


def test_dblp_rows_stream_out_chunk_by_chunk():
    from namecohort.corpus import CorpusParseResult, _parse_dblp

    article = b'<article key="k"><author>Ann Lee</author><year>1990</year></article>'
    xml = b"<dblp>" + article * 4000 + b"</dblp>"
    assert len(xml) > 4 * (1 << 16)
    stream = _CountingReader(xml)
    rows = _parse_dblp(stream, False, None, CorpusParseResult())
    assert next(rows) == ("k", "", 1990, [("Ann Lee", "ann", None)])
    assert stream.read_to <= 2 * (1 << 16)
    assert 1 + sum(1 for _ in rows) == 4000


def test_records_and_mentions_unpack_in_row_order():
    ledger = OverrideLedger([OverrideEntry("jean sammet", Gender.FEMALE, source_note="memoir")])
    [record] = nc.parse_corpus_csv(io.StringIO(CSV_SAMPLE), ledger=ledger).records
    sammet, liskov = record.authors
    assert list(record) == ["a1", "SIGPLAN", 1980, (sammet, liskov)]
    assert list(sammet) == ["Jean Sammet", "jean", Gender.FEMALE]
    assert list(liskov) == ["B. Liskov", None, None]
    # the rows the corpus commands stream unpack to the same fields
    result = nc.CorpusParseResult()
    [row] = nc.corpus._parse_csv(io.StringIO(CSV_SAMPLE), True, ledger, result)
    record_id, venue, year, mentions = record
    assert (record_id, venue, year, [tuple(m) for m in mentions]) == row
