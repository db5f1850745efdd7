"""The DBLP row parse against the ElementTree reference in tests/oracles.py.

Seeded valid documents hold publications whose authors are mixed content
(inline elements, nested author tags, comments, processing instructions,
CDATA sections and, under an external DTD, HTML named entities), with text
between children, publication tags nested in publications and in `<www>`
elements, `<www>` and `<proceedings>` bulk holding authors of its own, and
every kind of skip: no key, an empty key, no year, a year that is not
ASCII digits or is out of range, and no author left once blank ones drop.
Long titles and comments make publications straddle the parser's 64 KiB
chunk boundary.
"""

from __future__ import annotations

import io
import random
from xml.sax.saxutils import escape

import pytest

import namecohort as nc
from namecohort.corpus import _CHUNK_SIZE, CorpusParseResult, DblpParseError, _parse_dblp
from oracles import oracle_dblp
from test_names import random_author

DUMP_HEADER = '<?xml version="1.0" encoding="{}"?>\n<!DOCTYPE dblp SYSTEM "dblp.dtd">\n'
ENTITIES = ["&uuml;", "&eacute;", "&Ouml;", "&szlig;", "&amp;", "&lt;"]
YEARS = ["1990", "1990", "2004", " 1985 ", "\n1972\n", "80", "1899", "2101", "19x0",
         "+1990", "１９９０", "", "0001950"]
VENUES = ["J", "Conf, A", "SIGX", "  Proc. B  ", ""]


def mixed(rng: random.Random, text: str, entities: bool) -> str:
    """text as XML content cut at random places into escaped text, CDATA
    sections and inline elements, with comments, processing instructions,
    character references and, when entities is set, named entities between
    the pieces."""
    cuts = sorted(rng.sample(range(len(text) + 1), min(len(text) + 1, rng.randint(0, 3))))
    pieces = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]
    out = []
    for piece in pieces:
        out.append(rng.choice([escape(piece), escape(piece), f"<![CDATA[{piece}]]>",
                               f"<i>{escape(piece)}</i>", f"<i><sub>{escape(piece)}</sub></i>",
                               f"<author>{escape(piece)}</author>"]))
        out.append(rng.choice(["", "", "", "<!-- c -->", "<?pi x?>", "&#233;",
                               rng.choice(ENTITIES) if entities else "&amp;"]))
    return "".join(out)


def publication(rng: random.Random, key: str, entities: bool) -> str:
    """One publication element."""
    tag = rng.choice(["article", "inproceedings"])
    children = [f"<author>{mixed(rng, random_author(rng), entities)}</author>"
                for _ in range(rng.choice([0, 1, 1, 2, 3, 4]))]
    children += [f"<year>{mixed(rng, rng.choice(YEARS), entities)}</year>"
                 for _ in range(rng.choice([0, 1, 1, 1, 1, 1, 2]))]
    for _ in range(rng.choice([0, 1, 1, 2])):
        venue_tag = rng.choice(["booktitle", "journal"])
        children.append(f"<{venue_tag}>{mixed(rng, rng.choice(VENUES), entities)}</{venue_tag}>")
    if rng.random() < 0.3:
        children.append(f"<title>On {mixed(rng, random_author(rng), entities)}"
                        f"<sub>2</sub> and <author>Not Direct</author></title>")
    if rng.random() < 0.2:
        children.append(f"<title>{'p' * rng.randint(4_000, 30_000)}</title>")
    if rng.random() < 0.1:
        children.append('<article key="nested"><author>Inner Author</author>'
                        "<year>1999</year></article>")
    rng.shuffle(children)
    between = rng.choice(["", "\n  ", " stray text ", "<!-- between -->",
                          "&eacute;" if entities else "&#10;"])
    attributes = rng.choice([f' key="{key}"'] * 6 + ["", ' key=""', f' mdate="2020" key="{key}"'])
    return f"<{tag}{attributes}>" + between.join(children) + f"</{tag}>\n"


def document(seed: int) -> tuple[bytes, list[tuple[int, int]]]:
    """A valid document and the byte span of each publication in document
    order, from its start tag's offset to the end of its end tag."""
    rng = random.Random(seed)
    encoding = rng.choice(["UTF-8", "ISO-8859-1", None])
    entities = encoding is not None
    out, spans = bytearray(), []

    def emit(text: str) -> None:
        out.extend(text.encode(encoding or "UTF-8", "xmlcharrefreplace"))

    def emit_publication(i: int) -> None:
        start = len(out)
        emit(publication(rng, f"k/{i}", entities))
        spans.append((start, len(out)))

    if encoding is not None:
        emit(DUMP_HEADER.format(encoding))
    emit("<dblp>\n")
    for i in range(rng.randint(10, 60)):
        kind = rng.random()
        if kind < 0.1:
            emit(f'<www key="homepages/{i}"><author>{mixed(rng, random_author(rng), entities)}'
                 f"</author><title>Home Page</title></www>\n")
        elif kind < 0.15:
            emit(f'<proceedings key="conf/{i}"><editor>Ed Itor</editor>'
                 f"<author>{escape(random_author(rng))}</author><year>1990</year>"
                 f"<booktitle>P</booktitle></proceedings>\n")
        elif kind < 0.2:
            emit("<www>")
            emit_publication(i)
            emit("</www>\n")
        elif kind < 0.25:
            emit(f"<!-- {'c' * rng.randint(1_000, 40_000)} -->\n")
        else:
            emit_publication(i)
    emit("</dblp>\n")
    return bytes(out), spans


def parsed(stream, strict: bool) -> tuple[list, CorpusParseResult]:
    result = CorpusParseResult()
    return list(_parse_dblp(stream, strict, None, result)), result


def encoding(data: bytes) -> str:
    return "ISO-8859-1" if data.startswith(DUMP_HEADER.format("ISO-8859-1").encode()) else "UTF-8"


SEEDS = range(24)


@pytest.mark.parametrize("seed", SEEDS)
def test_dblp_rows_match_the_element_tree_oracle(seed):
    data, spans = document(seed)
    publications = oracle_dblp(data)
    assert len(publications) == len(spans)
    skips = [(span, p) for span, p in zip(spans, publications) if isinstance(p, str)]
    expected = [(key, venue, year, [(raw, nc.extract_first_name(raw), None) for raw in authors])
                for key, venue, year, authors in (p for p in publications if isinstance(p, tuple))]
    for stream in (io.BytesIO(data), io.StringIO(data.decode(encoding(data)))):
        rows, result = parsed(stream, strict=False)
        assert rows == expected
        assert result.skipped == len(skips)
    # A strict parse stops at the first skip left in the document. Blanking
    # each skipped publication in turn, with spaces of its byte length, moves
    # it on to the next one and keeps every byte offset. A text stream's
    # offsets count the bytes of its UTF-8 encoding.
    def streams(doc: bytes):
        yield io.BytesIO(doc), lambda start: start
        yield (io.StringIO(doc.decode(encoding(data))),
               lambda start: len(doc[:start].decode(encoding(data)).encode()))

    blanked = bytearray(data)
    for (start, end), problem in skips:
        for stream, offset in streams(bytes(blanked)):
            with pytest.raises(DblpParseError) as excinfo:
                parsed(stream, strict=True)
            assert str(excinfo.value) == f"byte {offset(start)}: {problem}"
        blanked[start:end] = b" " * (end - start)
    for stream, _ in streams(bytes(blanked)):
        assert parsed(stream, strict=True)[0] == expected


def test_dblp_documents_cover_every_case():
    cases = [document(seed) for seed in SEEDS]
    assert any(start // _CHUNK_SIZE != (end - 1) // _CHUNK_SIZE
               for _, spans in cases for start, end in spans)
    outcomes = [p if isinstance(p, str) else "row"
                for data, _ in cases for p in oracle_dblp(data)]
    for outcome in ("row", "<article> without key", "<inproceedings> without key",
                    "missing year", "invalid year", "out of range", "no authors"):
        assert any(outcome in o for o in outcomes), outcome
