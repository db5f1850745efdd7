"""The package loads its modules lazily: a command imports only what it uses."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import namecohort as nc
from namecohort import cli

SRC = str(Path(nc.__file__).parent.parent)
FIXTURE_DIR = str(resources.files("namecohort") / "data" / "ssa_fixture")

# Every name namecohort/__init__.py exported when it imported all its modules,
# less the record class and the two serializers since deleted.
EXPORTED = [
    "AuthorMention", "CorpusParseResult", "CorpusRecord", "OverrideEntry", "OverrideLedger",
    "apply_overrides", "extract_first_name", "parse_corpus_csv", "parse_dblp_subset",
    "read_override_ledger", "serialize_corpus_csv",
    "Gender", "GenderEstimate", "ModelConfig", "Thresholds", "classify", "p_female",
    "shifted_lookup",
    "normalize_full_name", "normalize_name",
    "SampleSpec", "Tier", "TierRecommendation", "dedup_authors", "draw_sample", "sample_size",
    "tier_recommendation",
    "InstabilityConfig", "ShiftRecord", "find_unstable", "gender_shift", "net_female_shift",
    "top_shift_names",
    "NameYearTable", "build_table", "load_directory", "load_fixture", "parse_year_file",
    "read_snapshot", "write_snapshot",
    "BiasPoint", "BiasReport", "DisplayEncoding", "Estimator", "EstimatorConfig", "TrendPoint",
    "annual_share", "emit_series", "present_bias_report",
    "__version__",
]
SUBMODULES = ["cli", "corpus", "model", "names", "sampling", "shifts", "ssa", "trend"]


def modules_after(tmp_path: Path, argv: list[str],
                  prefix: str | tuple[str, ...] = "namecohort") -> set[str]:
    """The modules under prefix (or any of several) loaded by a fresh interpreter
    that ran the CLI on argv. The probe itself loads nothing more, so that it
    can see json too."""
    script = ("import sys\nfrom namecohort.cli import main\n"
              f"code = main({argv!r})\n"
              "print([code, sorted(m for m in sys.modules"
              f" if m.startswith({prefix!r}))])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    code, modules = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


TABLE_MODULES = {"namecohort", "namecohort.cli", "namecohort.model", "namecohort.names",
                 "namecohort.ssa"}


@pytest.mark.parametrize("argv, extra", [
    (["ingest", FIXTURE_DIR, "--out", "table.bin"], set()),
    (["pf", "Leslie", "--year", "1950", "--out", "pf.json"], set()),
    (["shifts", "--from", "1925", "--to", "1975", "--top", "3", "--out", "top.csv"],
     {"namecohort.shifts"}),
    (["shifts", "--from", "1925", "--to", "1975", "--unstable", "--net", "--out", "net.json"],
     {"namecohort.shifts"}),
], ids=["ingest", "pf", "shifts-top", "shifts-unstable"])
def test_table_commands_load_neither_corpus_nor_trend_nor_sampling(tmp_path, argv, extra):
    assert modules_after(tmp_path, argv) == TABLE_MODULES | extra


@pytest.mark.parametrize("argv", [
    ["ingest", FIXTURE_DIR, "--out", "table.bin"],
    ["pf", "Leslie", "--year", "1950", "--out", "pf.json"],
    ["shifts", "--from", "1925", "--to", "1975", "--name", "Leslie", "--format", "json"],
    ["shifts", "--from", "1925", "--to", "1975", "--top", "3", "--format", "json"],
    ["shifts", "--from", "1925", "--to", "1975", "--unstable", "--net"],
    ["sample", "--population-size", "600", "--out", "spec.json"],
    ["analyze", "--corpus", "c.csv", "--overrides", "ledger.csv", "--out", "s.csv"],
    ["analyze", "--corpus", "c.xml", "--out", "s.csv"],
    ["analyze", "--corpus", "c.csv", "--strict", "--format", "json"],
    ["analyze", "--corpus", "c.csv", "--estimator", "classified-share"],
    ["bias-report", "--corpus", "c.xml", "--reference-year", "2000", "--overrides",
     "ledger.csv", "--out", "bias.json"],
], ids=["ingest", "pf", "shifts-name", "shifts-top", "shifts-unstable", "sample",
        "analyze-csv-ledger", "analyze-dblp", "analyze-strict", "analyze-classified",
        "bias-report"])
def test_table_and_sample_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    (tmp_path / "c.csv").write_text("record_id,venue,year,authors\na1,X,1980,Mary A|Jo Li\n")
    (tmp_path / "c.xml").write_text('<dblp><article key="a"><author>Mary A</author>'
                                    "<year>1980</year></article></dblp>")
    (tmp_path / "ledger.csv").write_text("key,gender,year_from,year_to,venue,source_note\n"
                                         "mary a,F,,,,note\n")
    assert not modules_after(tmp_path, argv, prefix=("dataclasses", "inspect"))


def test_table_commands_on_a_snapshot_do_not_load_importlib_resources(tmp_path):
    # Without site, which loads it on some installs, only the bundled fixture
    # would load it.
    snapshot = tmp_path / "table.bin"
    nc.write_snapshot(nc.load_fixture(), snapshot)
    table = ["--table", str(snapshot)]
    pf = ["pf", "Leslie", "--year", "1950", *table]
    shifts = ["shifts", "--from", "1925", "--to", "1975", "--top", "3", *table]
    script = ("import sys\nfrom namecohort.cli import main\n"
              f"codes = [main({pf!r}), main({shifts!r})]\n"
              "print(codes, 'importlib.resources' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


def test_corpus_commands_load_what_they_use(tmp_path):
    corpus = tmp_path / "c.csv"
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A\n")
    for command in (["analyze"], ["bias-report", "--reference-year", "2000"]):
        loaded = modules_after(tmp_path, [*command, "--corpus", str(corpus), "--out", "s.csv"])
        assert loaded == TABLE_MODULES | {"namecohort.corpus", "namecohort.trend"}


@pytest.mark.parametrize("via", ["corpus", "package"])
def test_records_and_mentions_are_still_dataclasses(via):
    import dataclasses
    import pickle

    from namecohort import corpus
    api = corpus if via == "corpus" else nc
    assert nc.AuthorMention is corpus.AuthorMention
    assert nc.CorpusRecord is corpus.CorpusRecord
    mention = corpus.make_mention("Ada Lovelace")
    record = api.CorpusRecord("r1", "V", 1980, (api.AuthorMention("A. Turing", None), mention))
    for value in (mention, record):
        assert dataclasses.is_dataclass(value)
        assert pickle.loads(pickle.dumps(value)) == value
    stamped = dataclasses.replace(mention, override_gender=nc.Gender.FEMALE)
    assert (stamped.raw, stamped.first_name, stamped.override_gender) == \
        ("Ada Lovelace", "ada", nc.Gender.FEMALE)
    assert dataclasses.asdict(record) == {
        "record_id": "r1", "venue": "V", "publication_year": 1980,
        "authors": ({"raw": "A. Turing", "first_name": None, "override_gender": None},
                    {"raw": "Ada Lovelace", "first_name": "ada", "override_gender": None})}
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.venue = "W"


def test_the_record_api_loads_dataclasses_on_first_use():
    script = ("import sys\nimport namecohort.corpus as corpus\n"
              "before = 'dataclasses' in sys.modules\n"
              "from namecohort.corpus import make_mention\n"
              "print(before, 'dataclasses' in sys.modules, corpus.make_mention is make_mention)\n"
              "corpus.nonexistent\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stdout == "False True True\n"
    assert proc.stderr.endswith(
        "AttributeError: module 'namecohort.corpus' has no attribute 'nonexistent'\n")


def test_only_manifests_with_inputs_load_hashlib(tmp_path):
    corpus = tmp_path / "c.csv"
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A\n")
    for argv in (["pf", "Leslie", "--year", "1950"],
                 ["pf", "Leslie", "--year", "1950", "--out", "pf.json"],
                 ["shifts", "--from", "1925", "--to", "1975", "--top", "3"],
                 ["analyze", "--corpus", str(corpus)]):
        assert not modules_after(tmp_path, argv, prefix="hashlib"), argv
    assert "hashlib" in modules_after(
        tmp_path, ["analyze", "--corpus", str(corpus), "--out", "s.csv"], prefix="hashlib")


def test_only_unmatched_ledger_entries_load_logging(tmp_path):
    corpus = tmp_path / "c.csv"
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A\n")
    header = "key,gender,year_from,year_to,venue,source_note\n"
    matched, unmatched = tmp_path / "matched.csv", tmp_path / "unmatched.csv"
    matched.write_text(header + "mary a,F,,,,note\n")
    unmatched.write_text(header + "mary a,F,,,,note\nzoe q,F,,,,note\n")
    analyze = ["analyze", "--corpus", str(corpus), "--out", "s.csv"]
    for argv in (["pf", "Leslie", "--year", "1950"],
                 ["shifts", "--from", "1925", "--to", "1975", "--unstable"],
                 analyze, [*analyze, "--overrides", str(matched)]):
        assert not modules_after(tmp_path, argv, prefix="logging"), argv
    assert "logging" in modules_after(tmp_path, [*analyze, "--overrides", str(unmatched)],
                                      prefix="logging")


def test_only_json_output_and_manifests_load_json(tmp_path):
    corpus = tmp_path / "c.csv"
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A\n")
    commands = (["analyze", "--corpus", str(corpus)],
                ["analyze", "--corpus", str(corpus), "--estimator", "classified-share"],
                ["bias-report", "--corpus", str(corpus), "--reference-year", "2000"])
    for argv in commands:
        assert "json" not in modules_after(tmp_path, argv, prefix="json"), argv
        for extra in (["--format", "json"], ["--out", "s.csv"]):
            assert "json" in modules_after(tmp_path, [*argv, *extra], prefix="json"), extra
    for argv in (["pf", "Leslie", "--year", "1950"],
                 ["shifts", "--from", "1925", "--to", "1975", "--top", "3"],
                 ["sample", "--population-size", "600"],
                 ["ingest", FIXTURE_DIR, "--out", "table.bin"]):
        assert "json" in modules_after(tmp_path, argv, prefix="json"), argv


def test_csv_corpus_commands_do_not_load_expat(tmp_path):
    corpus = tmp_path / "c.csv"
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A\n")
    xml = tmp_path / "c.xml"
    xml.write_text('<dblp><article key="a"><author>Mary A</author><year>1980</year></article>'
                   "</dblp>")
    assert "xml.parsers.expat" not in modules_after(
        tmp_path, ["analyze", "--corpus", str(corpus), "--out", "s.csv"], prefix="xml")
    assert "xml.parsers.expat" in modules_after(
        tmp_path, ["analyze", "--corpus", str(xml), "--out", "s.csv"], prefix="xml")


@pytest.mark.parametrize("name", EXPORTED + SUBMODULES)
def test_every_exported_name_resolves_and_is_listed(name):
    assert getattr(nc, name) is not None
    assert name in dir(nc)


def test_exports_resolve_to_their_modules_objects():
    from namecohort import corpus, model, ssa, trend
    assert nc.NameYearTable is ssa.NameYearTable
    assert nc.Gender is model.Gender
    assert nc.parse_dblp_subset is corpus.parse_dblp_subset
    assert nc.Estimator is trend.Estimator
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        nc.nonexistent  # noqa: B018


def test_star_import_brings_every_export():
    namespace: dict = {}
    exec("from namecohort import *", namespace)
    assert set(EXPORTED) - {"__version__"} <= namespace.keys()


def test_parser_estimator_choices_are_the_estimators():
    from namecohort import trend
    assert cli.ESTIMATORS == tuple(e.value for e in trend.Estimator)
    assert cli.ESTIMATORS[0] == trend.Estimator.WEIGHTED_MEAN.value


def test_parser_sample_years_default_is_the_shifts_default():
    from namecohort import shifts
    assert cli.SAMPLE_YEARS == shifts.DEFAULT_SAMPLE_YEARS
    args = cli.build_parser().parse_args(["shifts", "--from", "1925", "--to", "1975",
                                          "--unstable"])
    assert args.sample_years == shifts.DEFAULT_SAMPLE_YEARS
