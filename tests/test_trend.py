import csv
import io
import json
import random
import re
from dataclasses import replace

import pytest

import namecohort as nc
from namecohort.corpus import AuthorMention, make_mention
from namecohort import model
from namecohort.model import Gender
from namecohort.trend import Estimator

from oracles import NAME_POOL, oracle_annual_share, oracle_bias_report, random_counts


def rec(year, *authors, venue="V", rid=None):
    """Record builder; an author given as (raw, Gender) carries an override."""
    mentions = []
    for author in authors:
        if isinstance(author, tuple):
            raw, gender = author
            mentions.append(replace(make_mention(raw), override_gender=gender))
        else:
            mentions.append(make_mention(author))
    return nc.CorpusRecord(record_id=rid or f"r{year}", venue=venue,
                           publication_year=year, authors=tuple(mentions))


def single_sex_table(n_names=10, seed=0):
    """Names that are certainly female (p=1) or male (p=0) at every year."""
    rng = random.Random(seed)
    counts = {}
    for i in range(n_names):
        for year in range(1900, 1991, 10):
            counts[(f"fonly{i}", year)] = (rng.randint(5, 500), 0)
            counts[(f"monly{i}", year)] = (0, rng.randint(5, 500))
    return nc.NameYearTable(counts)


class TestAnnualShare:
    def test_display_encoded_pair_averages_to_half(self, fixture_table):
        record = rec(1970, ("Leslie One", Gender.FEMALE), ("Leslie Two", Gender.MALE))
        config = nc.EstimatorConfig(display_encoding=nc.DisplayEncoding())
        [point] = nc.annual_share([record], fixture_table, config=config)
        assert point.share_female == 0.5
        assert point.n_identified == 2

    def test_all_initial_only_bin_is_exactly_unknown_value(self, fixture_table):
        records = [rec(1975, "B. Liskov", "R.C. Archibald"), rec(1976, "J. Q.")]
        points = nc.annual_share(records, fixture_table)
        assert [p.share_female for p in points] == [0.5, 0.5]
        assert all(p.n_identified == 0 for p in points)
        custom = nc.annual_share(records, fixture_table,
                                 config=nc.EstimatorConfig(unknown_value=0.25))
        assert [p.share_female for p in custom] == [0.25, 0.25]

    def test_classified_share_counts_only_classified(self, fixture_table):
        record = rec(1980, ("A One", Gender.FEMALE), ("B Two", Gender.FEMALE),
                     ("C Three", Gender.FEMALE), ("D Four", Gender.MALE),
                     "E. Initial")
        config = nc.EstimatorConfig(estimator=Estimator.CLASSIFIED_SHARE)
        [point] = nc.annual_share([record], fixture_table, config=config)
        assert point.share_female == 0.75
        assert point.n_identified == 4
        assert point.n_unidentified == 1
        assert point.n_authors == 5

    def test_classified_share_flags_empty_denominator(self, fixture_table):
        record = rec(1980, "B. Liskov", "J. Q.")
        config = nc.EstimatorConfig(estimator=Estimator.CLASSIFIED_SHARE)
        [point] = nc.annual_share([record], fixture_table, config=config)
        assert point.share_female is None
        assert point.n_identified == 0

    def test_weighted_mean_uses_shifted_lookup(self, fixture_table):
        # publication 1990 -> birth cohort 1960 -> johnnie = 405/1536
        [point] = nc.annual_share([rec(1990, "Johnnie Author")], fixture_table)
        assert point.share_female == 405 / 1536
        assert point.n_identified == 1

    def test_override_outranks_table(self, fixture_table):
        [point] = nc.annual_share([rec(1990, ("Johnnie Author", Gender.FEMALE))],
                                  fixture_table)
        assert point.share_female == 1.0

    def test_estimators_agree_when_all_certain(self):
        table = single_sex_table()
        rng = random.Random(17)
        for _ in range(50):
            records = []
            for i in range(rng.randint(1, 12)):
                year = rng.choice(range(1930, 2021, 10))
                authors = [f"{rng.choice(['fonly', 'monly'])}{rng.randint(0, 9)} X"
                           for _ in range(rng.randint(1, 6))]
                records.append(rec(year, *authors, rid=f"r{i}"))
            weighted = nc.annual_share(records, table)
            classified = nc.annual_share(
                records, table,
                config=nc.EstimatorConfig(estimator=Estimator.CLASSIFIED_SHARE))
            assert [(p.bin, p.share_female) for p in weighted] == \
                [(p.bin, p.share_female) for p in classified]
            assert all(p.n_unidentified == 0 for p in weighted)

    def test_weighted_mean_permutation_invariant(self, fixture_table):
        authors = ["Madison A", "Sidney B", "B. Liskov", "Mary C", "George D"]
        rng = random.Random(3)
        baseline = None
        for _ in range(10):
            rng.shuffle(authors)
            [point] = nc.annual_share([rec(1980, *authors)], fixture_table)
            baseline = baseline if baseline is not None else point.share_female
            assert point.share_female == baseline

    def test_adding_unknown_moves_share_toward_unknown_value(self, fixture_table):
        [before] = nc.annual_share([rec(1980, "Mary A", "Mary B")], fixture_table)
        [after] = nc.annual_share([rec(1980, "Mary A", "Mary B", "X. Init")],
                                  fixture_table)
        assert abs(after.share_female - 0.5) < abs(before.share_female - 0.5)

    def test_empty_bins_are_omitted(self, fixture_table):
        points = nc.annual_share([rec(1950, "Mary A"), rec(1953, "Mary B")],
                                 fixture_table)
        assert [p.bin for p in points] == [1950, 1953]

    def test_bin_width_groups_years(self, fixture_table):
        records = [rec(1951, "Mary A"), rec(1958, "Mary B"), rec(1962, "Mary C")]
        points = nc.annual_share(records, fixture_table,
                                 config=nc.EstimatorConfig(bin_width=10))
        assert [(p.bin, p.n_authors) for p in points] == [(1950, 2), (1960, 1)]

    def test_group_by_venue_labels_bins_venue_major(self, fixture_table):
        records = [rec(1981, "Mary A", venue="SIGB", rid="a"),
                   rec(1980, "Mary B", venue="SIGA", rid="b"),
                   rec(1981, "Mary C", venue="SIGA", rid="c")]
        points = nc.annual_share(records, fixture_table,
                                 config=nc.EstimatorConfig(group_by_venue=True))
        assert [p.bin for p in points] == ["SIGA:1980", "SIGA:1981", "SIGB:1981"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            nc.EstimatorConfig(unknown_value=1.5)
        with pytest.raises(ValueError):
            nc.EstimatorConfig(bin_width=0)


class TestPresentBias:
    def test_gap_zero_when_reference_matches_shifted_year(self, fixture_table):
        records = [rec(1990, "Johnnie A", "Mary B", "George C")]
        report = nc.present_bias_report(records, fixture_table, reference_year=1960)
        [point] = report.points
        assert point.gap == 0.0
        assert report.mean_gap == 0.0

    def test_no_records_give_no_gaps(self, fixture_table):
        report = nc.present_bias_report([], fixture_table)
        assert (report.points, report.mean_gap, report.max_gap) == ((), None, None)

    def test_stable_names_have_small_gap(self, fixture_table):
        records = [rec(year, "George A", "Mary B") for year in range(1950, 1960)]
        report = nc.present_bias_report(records, fixture_table, reference_year=2000)
        assert all(abs(p.gap) < 0.05 for p in report.points)

    def test_unstable_1955_corpus_overstates_under_static(self, fixture_table,
                                                          bias_corpus):
        report = nc.present_bias_report(bias_corpus, fixture_table,
                                        reference_year=2000)
        assert len(report.points) == 10
        assert all(p.gap > 0 for p in report.points)
        # golden values derived from the fixture counts
        assert report.mean_gap == pytest.approx(0.42, abs=1e-12)
        assert all(p.temporal_share == pytest.approx(0.26875, abs=1e-12)
                   for p in report.points)
        assert all(p.static_share == pytest.approx(0.68875, abs=1e-12)
                   for p in report.points)

    def test_overrides_cancel_in_both_arms(self, fixture_table):
        records = [rec(1955, ("Madison Q", Gender.FEMALE))]
        report = nc.present_bias_report(records, fixture_table, reference_year=2000)
        assert report.points[0].gap == 0.0


class TestEmitSeries:
    def test_empty_series_is_header_only(self):
        assert nc.emit_series([], "csv") == \
            b"bin,share_female,n_authors,n_identified,n_unidentified,estimator\n"

    def test_single_point_is_two_lines(self, fixture_table):
        points = nc.annual_share([rec(1970, "Mary A")], fixture_table)
        data = nc.emit_series(points, "csv")
        assert data.decode().count("\n") == 2
        assert data.decode().splitlines()[1].startswith("1970,")

    def test_json_round_trip(self, fixture_table):
        records = [rec(1970, "Mary A", "B. Liskov"), rec(1980, "Madison B")]
        points = nc.annual_share(records, fixture_table)
        assert json.loads(nc.emit_series(points, "json")) == [
            dict(point._asdict(), estimator=point.estimator.value) for point in points]

    def test_none_share_serializes_as_empty_cell(self, fixture_table):
        config = nc.EstimatorConfig(estimator=Estimator.CLASSIFIED_SHARE)
        points = nc.annual_share([rec(1980, "B. Liskov")], fixture_table,
                                 config=config)
        line = nc.emit_series(points, "csv").decode().splitlines()[1]
        assert line == "1980,,1,0,1,classified-share"

    def test_bias_report_formats(self, fixture_table, bias_corpus):
        report = nc.present_bias_report(bias_corpus, fixture_table,
                                        reference_year=2000)
        csv_lines = nc.emit_series(report, "csv").decode().splitlines()
        assert csv_lines[0] == "bin,temporal_share,static_share,gap"
        assert len(csv_lines) == 11
        payload = json.loads(nc.emit_series(report, "json"))
        assert payload["reference_year"] == 2000
        assert len(payload["bins"]) == 10
        assert payload["mean_gap"] == pytest.approx(0.42)

    def test_csv_quotes_only_the_cells_that_need_it(self, fixture_table):
        venues = ["Plain", "Proc. A, Vol 1", 'The "Best" Conf', "Two\nLines"]
        records = [rec(1990, "Mary A", venue=venue, rid=venue) for venue in venues]
        points = nc.annual_share(records, fixture_table,
                                 config=nc.EstimatorConfig(group_by_venue=True))
        data = nc.emit_series(points, "csv").decode()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["bin", "share_female", "n_authors", "n_identified",
                         "n_unidentified", "estimator"])
        for p in sorted(points, key=lambda p: p.bin):
            writer.writerow([p.bin, repr(p.share_female), 1, 1, 0, "weighted-mean"])
        assert data == buffer.getvalue()
        assert f"\nPlain:1990,{points[0].share_female!r},1,1,0,weighted-mean\n" in data
        rows = list(csv.reader(io.StringIO(data)))
        assert [row[0] for row in rows[1:]] == sorted(f"{v}:1990" for v in venues)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            nc.emit_series([], "yaml")

    def test_emission_is_deterministic(self, fixture_table, bias_corpus):
        points = nc.annual_share(bias_corpus, fixture_table)
        assert nc.emit_series(points, "json") == nc.emit_series(points, "json")
        assert nc.emit_series(points, "csv") == nc.emit_series(points, "csv")


def test_override_u_counts_as_unidentified(fixture_table):
    record = rec(1980, ("Mary A", Gender.UNIDENTIFIED), ("Mary B", Gender.FEMALE))
    [weighted] = nc.annual_share([record], fixture_table)
    assert weighted.share_female == 0.75  # (0.5 + 1.0) / 2
    assert weighted.n_identified == 1
    config = nc.EstimatorConfig(estimator=Estimator.CLASSIFIED_SHARE)
    [classified] = nc.annual_share([record], fixture_table, config=config)
    assert classified.share_female == 1.0
    assert classified.n_unidentified == 1


def test_emit_series_sorts_rows_by_bin(fixture_table):
    records = [rec(1990, "Mary A", rid="late"), rec(1950, "Mary B", rid="early")]
    points = nc.annual_share(records, fixture_table)
    shuffled = list(reversed(points))
    lines = nc.emit_series(shuffled, "csv").decode().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1950", "1990"]


def test_each_distinct_key_is_looked_up_once(fixture_table, monkeypatch):
    # Every table lookup bisects one name's span of the years column once:
    # count the bisects.
    years = []
    bisect = model.bisect_left
    monkeypatch.setattr(model, "bisect_left", lambda column, year, *span:
                        years.append(year) or bisect(column, year, *span))
    # Zzyzx and Qwxqq are both absent from the table, so they share its
    # empty span: in 1955 they are one key, and one static span.
    records = [rec(1990, "Mary A", "Mary B", ("Mary C", Gender.FEMALE), "J. Q.",
                   "Zzyzx D", rid="a"),
               rec(1990, "Mary E", "George F", ("Leslie G", Gender.MALE), venue="W", rid="b"),
               rec(1991, "Mary H", "Leslie I", ("George J", Gender.UNIDENTIFIED), rid="c"),
               rec(1955, "Madison K", "Zzyzx L", "R.C. Archibald", "Qwxqq M", rid="d")]
    plain = {(fixture_table.span(m.first_name), r.publication_year)
             for r in records for m in r.authors
             if m.first_name is not None and m.override_gender is None}
    assert len(plain) == 7
    forms = [{}, {"estimator": Estimator.CLASSIFIED_SHARE},
             {"display_encoding": nc.DisplayEncoding()}]
    for form in forms:
        for binning in ({}, {"bin_width": 5, "group_by_venue": True}):
            years.clear()
            nc.annual_share(records, fixture_table, config=nc.EstimatorConfig(**form, **binning))
            assert sorted(years) == sorted(year - 30 for _, year in plain), (form, binning)
    years.clear()
    nc.present_bias_report(records, fixture_table, reference_year=2000)
    static = {span for span, _ in plain}
    assert len(static) == 5
    assert sorted(years) == sorted([year - 30 for _, year in plain] + [2000] * len(static))


@pytest.mark.parametrize("report", [
    lambda rows, table: nc.annual_share(rows, table),
    lambda rows, table: nc.annual_share(
        rows, table, config=nc.EstimatorConfig(estimator=Estimator.CLASSIFIED_SHARE)),
    lambda rows, table: nc.present_bias_report(rows, table, reference_year=2000),
], ids=["weighted-mean", "classified-share", "bias-report"])
def test_a_row_with_no_mentions_is_refused(fixture_table, report):
    # A CorpusRecord cannot be built without authors; a bare row can.
    rows = [("r1", "V", 1990, [("Mary A", "mary", None)])]
    assert report(rows, fixture_table)
    for record_id, echo in (("r", "'r'"), ("x" * 5000, f"{'x' * 40!r}… (5000 characters)")):
        with pytest.raises(ValueError, match=f"^record {re.escape(echo)} has no authors$"):
            report([*rows, (record_id, "V", 1990, [])], fixture_table)


@pytest.mark.parametrize("years", [(1990, 1990), (1990, 1991)], ids=["one-year", "two-years"])
def test_names_absent_from_the_table_share_one_lookup_per_year(fixture_table, monkeypatch,
                                                               years):
    # Both given names are absent from the table, so both have its empty
    # span: the memo keyed by (span, year) looks them up once per year.
    assert fixture_table.span("zzyzx") == fixture_table.span("qwxqq") == (0, 0)
    bisected = []
    bisect = model.bisect_left
    monkeypatch.setattr(model, "bisect_left", lambda column, year, *span:
                        bisected.append(year) or bisect(column, year, *span))
    records = [rec(years[0], "Zzyzx A", rid="a"), rec(years[1], "Qwxqq B", rid="b")]
    temporal = sorted({year - 30 for year in years})
    for config in (nc.EstimatorConfig(),
                   nc.EstimatorConfig(estimator=Estimator.CLASSIFIED_SHARE)):
        bisected.clear()
        nc.annual_share(records, fixture_table, config=config)
        assert sorted(bisected) == temporal
    bisected.clear()
    nc.present_bias_report(records, fixture_table, reference_year=2000)
    assert sorted(bisected) == temporal + [2000]


def random_plain_corpus(rng, counts):
    """A corpus as the oracles' plain tuples: names in the table or absent
    from it, initial-only mentions, and F/M/U overrides.

    A few names and a six-year window of publication years make (name,
    year) keys repeat within and across records, and the last record holds
    one key both overridden and plain.
    """
    in_table = sorted({name for name, _ in counts})
    names = rng.sample(in_table, min(len(in_table), rng.randint(1, 4))) + \
        rng.sample(NAME_POOL, 2)
    first_year = rng.randint(1900, 2040)
    corpus = []
    for _ in range(rng.randint(1, 20)):
        mentions = [(rng.choice(names + [None]),
                     rng.choice([None, None, None, "F", "M", "U"]))
                    for _ in range(rng.randint(1, 5))]
        corpus.append((rng.choice(["VA", "VB", "VC"]),
                       rng.randint(first_year, first_year + 5), mentions))
    name = rng.choice(names)
    corpus.append((rng.choice(["VA", "VB", "VC"]), rng.randint(first_year, first_year + 5),
                   [(name, rng.choice("FMU")), (name, None)]))
    return corpus


def library_corpus(plain):
    return [nc.CorpusRecord(
        record_id=f"r{i}", venue=venue, publication_year=year,
        authors=tuple(AuthorMention(raw=f"{first or 'X.'} Doe", first_name=first,
                                    override_gender=Gender(override) if override else None)
                      for first, override in mentions))
        for i, (venue, year, mentions) in enumerate(plain)]


def test_trend_matches_brute_force_oracles_exactly():
    rng = random.Random(2024)
    for _ in range(100):
        counts = random_counts(rng, max_names=20)
        # The same names with other counts: a lookup memo that outlived its
        # call would answer the second table from the first.
        swapped = {key: (male, female) for key, (female, male) in counts.items()}
        plain = random_plain_corpus(rng, counts)
        records = library_corpus(plain)
        model_config = nc.ModelConfig(year_shift=rng.choice([0, 30, 45]),
                                      max_fallback_distance=rng.choice([0, 3, 10]))
        model_kwargs = {"year_shift": model_config.year_shift,
                        "max_fallback": model_config.max_fallback_distance}
        tau_female, tau_male = rng.choice([(0.8, 0.2), (0.6, 0.4), (0.95, 0.05)])
        thresholds = nc.Thresholds(tau_female=tau_female, tau_male=tau_male)
        encoding = rng.choice([nc.DisplayEncoding(), nc.DisplayEncoding(0.9, 0.1, 0.4)])
        reference_year = rng.randint(1890, 2010)
        settings = [(estimator, unknown_value, display, rng.choice([1, 1, 5, 7]),
                     rng.random() < 0.5)
                    for estimator, unknown_value, display in [
                        (Estimator.WEIGHTED_MEAN, 0.5, None),
                        (Estimator.WEIGHTED_MEAN, rng.random(), None),
                        (Estimator.WEIGHTED_MEAN, 0.5, encoding),
                        (Estimator.CLASSIFIED_SHARE, 0.5, None),
                        (Estimator.CLASSIFIED_SHARE, 0.5, encoding)]]
        for table_counts in (counts, swapped):
            table = nc.NameYearTable(table_counts)
            for estimator, unknown_value, display, bin_width, group_by_venue in settings:
                config = nc.EstimatorConfig(estimator=estimator, unknown_value=unknown_value,
                                            display_encoding=display, bin_width=bin_width,
                                            group_by_venue=group_by_venue)
                points = nc.annual_share(records, table, model_config, thresholds, config)
                want = oracle_annual_share(
                    table_counts, plain, estimator=estimator.value,
                    unknown_value=unknown_value,
                    encoding=(display.female, display.male, display.unknown) if display
                    else None, bin_width=bin_width, group_by_venue=group_by_venue,
                    tau_female=tau_female, tau_male=tau_male, **model_kwargs)
                assert [(p.bin, p.share_female, p.n_authors, p.n_identified,
                         p.n_unidentified) for p in points] == want
                assert all(p.estimator is estimator for p in points)
            report = nc.present_bias_report(records, table, model_config,
                                            reference_year=reference_year)
            want_points, want_mean, want_max = oracle_bias_report(
                table_counts, plain, reference_year, **model_kwargs)
            assert [(p.bin, p.temporal_share, p.static_share, p.gap)
                    for p in report.points] == want_points
            assert (report.reference_year, report.mean_gap, report.max_gap) == \
                (reference_year, want_mean, want_max)


def rows_of(records):
    """The corpus rows (:data:`corpus.Row`) of records, built field by field."""
    return [(r.record_id, r.venue, r.publication_year,
             [(m.raw, m.first_name, m.override_gender) for m in r.authors])
            for r in records]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_records_and_rows_aggregate_alike(seed):
    rng = random.Random(seed)
    for _ in range(20):
        counts = random_counts(rng, max_names=20)
        table = nc.NameYearTable(counts)
        records = library_corpus(random_plain_corpus(rng, counts))
        rows = rows_of(records)
        model_config = nc.ModelConfig(year_shift=rng.choice([0, 30]),
                                      max_fallback_distance=rng.choice([0, 10]))
        for estimator in Estimator:
            for display in (None, nc.DisplayEncoding()):
                for bin_width in (1, 5):
                    for group_by_venue in (False, True):
                        config = nc.EstimatorConfig(
                            estimator=estimator, display_encoding=display,
                            bin_width=bin_width, group_by_venue=group_by_venue)
                        want = nc.annual_share(records, table, model_config, config=config)
                        assert want  # every corpus has a record
                        assert nc.annual_share(rows, table, model_config, config=config) == want
                        # a stream of rows is read once, as the CLI passes it
                        assert nc.annual_share(iter(rows), table, model_config,
                                               config=config) == want
        reference_year = rng.randint(1890, 2010)
        want = nc.present_bias_report(records, table, model_config, reference_year)
        assert nc.present_bias_report(rows, table, model_config, reference_year) == want
        assert nc.present_bias_report(iter(rows), table, model_config, reference_year) == want
