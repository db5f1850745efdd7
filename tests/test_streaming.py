"""The corpus commands pass the parser's rows straight into the aggregation.

Their output must equal that of the library path, which builds the
CorpusRecords that parse_corpus_csv and parse_dblp_subset return and runs
annual_share or present_bias_report over them, and they must build no
CorpusRecord or AuthorMention on the way.
"""

from __future__ import annotations

import collections
import io
import random

import pytest

import namecohort as nc
from namecohort import corpus as corpus_module
from namecohort.cli import main
from test_names import VENUES, corpus_csv, dblp_xml, ledger_csv, random_author, random_ledger

# Initial-only, comma and suffix forms, and names the fixture table holds.
KNOWN_AUTHORS = ["B. Liskov", "Sammet, Jean", "Hopper, Grace M., Jr.", "Madison Q",
                 "Leslie R", "Dr. Mary Shaw", "R.C. Archibald", "Johnnie B"]
# Entries both parsers skip in lenient mode: bad or implausible years, no authors.
MALFORMED = [("X", "19x9", ["Ann Lee"]), ("X", "1850", ["Bo Lee"]), ("X", "1990", [])]

COMMANDS = [
    (["analyze"], {}),
    (["analyze", "--estimator", "classified-share", "--tau-female", "0.7"],
     {"estimator": "classified-share", "tau_female": 0.7}),
    (["analyze", "--display-encoding", "--bin-width", "5"],
     {"display_encoding": True, "bin_width": 5}),
    (["analyze", "--group-by-venue", "--format", "json"], {"group_by_venue": True}),
    (["bias-report", "--reference-year", "2000"], {"reference_year": 2000}),
    (["bias-report", "--reference-year", "1960", "--format", "json"],
     {"reference_year": 1960}),
]


def seeded_corpus(seed: int, malformed: bool) -> tuple[list, list]:
    """(corpus, ledger entries) as test_names draws them, with the known
    authors in the pool and, if asked, the malformed entries mixed in."""
    rng = random.Random(seed)
    pool = [random_author(rng) for _ in range(30)] + KNOWN_AUTHORS
    corpus = [(rng.choice(VENUES), rng.randint(1950, 2010),
               [rng.choice(pool) for _ in range(rng.randint(1, 4))]) for _ in range(150)]
    if malformed:
        for entry in MALFORMED:
            corpus.insert(rng.randrange(len(corpus)), entry)
    return corpus, random_ledger(rng, pool)


def library_output(path, data: bytes, ledger_text: str | None, strict: bool,
                   command: list[str], options: dict, table) -> tuple[int, str, list[str]]:
    """(exit code, stdout, the skip and error lines of stderr) of the library
    path."""
    ledger = nc.read_override_ledger(io.StringIO(ledger_text)) if ledger_text else None
    try:
        if path.suffix == ".csv":
            result = nc.parse_corpus_csv(io.StringIO(data.decode("utf-8"), newline=""),
                                         strict=strict, ledger=ledger)
        else:
            result = nc.parse_dblp_subset(io.BytesIO(data), strict=strict, ledger=ledger)
    except ValueError as exc:
        return 1, "", [f"error: {exc}"]
    fmt_out = "json" if "json" in command else "csv"
    if command[0] == "bias-report":
        series = nc.present_bias_report(result.records, table,
                                        reference_year=options["reference_year"])
    else:
        config = nc.EstimatorConfig(
            estimator=nc.Estimator(options.get("estimator", "weighted-mean")),
            display_encoding=nc.DisplayEncoding() if options.get("display_encoding") else None,
            bin_width=options.get("bin_width", 1),
            group_by_venue=options.get("group_by_venue", False))
        thresholds = nc.Thresholds(tau_female=options.get("tau_female", 0.8))
        series = nc.annual_share(result.records, table, nc.ModelConfig(), thresholds, config)
    skipped = [f"skipped {result.skipped} malformed entries in {path}"] if result.skipped else []
    return 0, nc.emit_series(series, fmt_out).decode("utf-8"), skipped


@pytest.mark.parametrize("seed, malformed", [(1, False), (2, True), (3, True)])
def test_streamed_commands_match_the_library_path(capsys, tmp_path, fixture_table,
                                                  seed, malformed):
    corpus, entries = seeded_corpus(seed, malformed)
    ledger_text = ledger_csv(entries)
    ledger_path = tmp_path / "ledger.csv"
    ledger_path.write_text(ledger_text, encoding="utf-8")
    inputs = {"corpus.csv": corpus_csv(corpus).encode("utf-8"), "corpus.xml": dblp_xml(corpus)}
    outcomes = collections.Counter()
    for name, data in inputs.items():
        path = tmp_path / name
        path.write_bytes(data)
        for with_ledger in (False, True):
            for strict in (False, True):
                for command, options in COMMANDS:
                    argv = [*command, "--corpus", str(path)]
                    argv += ["--overrides", str(ledger_path)] if with_ledger else []
                    argv += ["--strict"] if strict else []
                    code = main(argv)
                    captured = capsys.readouterr()
                    expected = library_output(path, data, ledger_text if with_ledger else None,
                                              strict, command, options, fixture_table)
                    stderr = [line for line in captured.err.splitlines()
                              if line.startswith(("skipped ", "error:"))]
                    assert (code, captured.out, stderr) == expected, argv
                    outcomes[code, bool(stderr)] += 1
    if malformed:  # every strict run fails, and every lenient one reports skips
        assert outcomes == {(0, True): 24, (1, True): 24}
    else:
        assert outcomes[0, False] > 0 and outcomes[1, True] == 0


def test_corpus_commands_build_no_records_or_mentions(capsys, tmp_path, monkeypatch):
    built = collections.Counter()
    for cls in (corpus_module.CorpusRecord, corpus_module.AuthorMention):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    corpus, entries = seeded_corpus(4, malformed=True)
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(ledger_csv(entries), encoding="utf-8")
    csv_path, xml_path = tmp_path / "c.csv", tmp_path / "c.xml"
    csv_path.write_text(corpus_csv(corpus), encoding="utf-8", newline="")
    xml_path.write_bytes(dblp_xml(corpus))
    for path in (csv_path, xml_path):
        for command in (["analyze"], ["bias-report", "--reference-year", "2000"]):
            assert main([*command, "--corpus", str(path), "--overrides", str(ledger)]) == 0
            capsys.readouterr()
    assert built == {}
    # The library path builds one of each per kept record and mention.
    with open(csv_path, encoding="utf-8", newline="") as stream:
        records = nc.parse_corpus_csv(stream, strict=False).records
    assert built == {"CorpusRecord": len(records),
                     "AuthorMention": sum(len(r.authors) for r in records)}
    assert len(records) > 100
