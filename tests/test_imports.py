"""The package loads its modules lazily: a command imports only what it uses."""

from __future__ import annotations

import json
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

# Every name namecohort/__init__.py exported when it imported all its modules.
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
    "NameCountRecord", "NameYearTable", "build_table", "load_directory", "load_fixture",
    "parse_year_file", "read_snapshot", "serialize_table", "write_snapshot",
    "BiasPoint", "BiasReport", "DisplayEncoding", "Estimator", "EstimatorConfig", "TrendPoint",
    "annual_share", "emit_series", "parse_series_json", "present_bias_report",
    "__version__",
]
SUBMODULES = ["cli", "corpus", "model", "names", "sampling", "shifts", "ssa", "trend"]


def modules_after(tmp_path: Path, argv: list[str], prefix: str = "namecohort") -> set[str]:
    """The modules under prefix loaded by a fresh interpreter that ran the CLI on argv."""
    script = ("import json, sys\nfrom namecohort.cli import main\n"
              f"code = main({argv!r})\n"
              "print(json.dumps([code, sorted(m for m in sys.modules"
              f" if m.startswith({prefix!r}))]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
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


def test_corpus_commands_load_what_they_use(tmp_path):
    corpus = tmp_path / "c.csv"
    corpus.write_text("record_id,venue,year,authors\na1,X,1980,Mary A\n")
    for command in (["analyze"], ["bias-report", "--reference-year", "2000"]):
        loaded = modules_after(tmp_path, [*command, "--corpus", str(corpus), "--out", "s.csv"])
        assert loaded == TABLE_MODULES | {"namecohort.corpus", "namecohort.trend"}


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
