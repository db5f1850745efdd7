import random

import pytest

import namecohort as nc
from namecohort.shifts import EndpointMissingError, net_shift
from conftest import FIXTURE_UNSTABLE
from oracles import (
    EXTRA_YEARS,
    SAMPLE_YEARS,
    oracle_find_unstable,
    oracle_net,
    oracle_top_shifts,
    random_counts,
)

# Pinned from the bundled fixture: weight-normalized mean delta of the
# unstable set between 1925 and 1975 (2062.5 / 6850).
FIXTURE_NET_SHIFT_1925_1975 = 165 / 548


def test_gender_shift_leslie_century(fixture_table):
    record = nc.gender_shift(fixture_table, "Leslie", 1900, 2000)
    assert record.p_start == pytest.approx(0.08)
    assert record.p_end == pytest.approx(0.96)
    assert record.delta == pytest.approx(0.88, abs=0.001)


def test_gender_shift_identical_counts_is_zero():
    table = nc.NameYearTable({("ada", 1900): (30, 70), ("ada", 2000): (30, 70)})
    assert nc.gender_shift(table, "ada", 1900, 2000).delta == 0.0


def test_gender_shift_sidney_exceeds_default_threshold(fixture_table):
    record = nc.gender_shift(fixture_table, "Sidney", 1900, 2000)
    assert abs(record.delta) >= 0.3
    assert record.delta < 0  # sidney moved toward male in the fixture


def test_gender_shift_weight_is_mean_of_totals(fixture_table):
    record = nc.gender_shift(fixture_table, "Leslie", 1925, 1975)
    assert record.weight == (1200 + 1600) / 2


def test_gender_shift_missing_endpoint_names_the_year(fixture_table):
    with pytest.raises(EndpointMissingError, match="1975"):
        nc.gender_shift(fixture_table, "Gertrude", 1950, 1975)
    with pytest.raises(ValueError):
        nc.gender_shift(fixture_table, "Leslie", 2000, 1900)


def test_gender_shift_antisymmetry(fixture_table):
    for name in FIXTURE_UNSTABLE:
        forward = nc.gender_shift(fixture_table, name, 1925, 1975).delta
        # reversed endpoints are invalid input, so check via the components
        backward = nc.gender_shift(fixture_table, name, 1925, 1975)
        assert backward.p_start - backward.p_end == -forward


def test_find_unstable_fixture_membership(fixture_table):
    unstable = nc.find_unstable(fixture_table)
    assert set(FIXTURE_UNSTABLE) <= set(unstable)
    assert "leslie" in unstable and "johnnie" in unstable
    assert "george" not in unstable and "mary" not in unstable
    assert "arie" not in unstable  # unstable trajectory but too rare


def test_find_unstable_sorted_by_descending_range(fixture_table):
    assert nc.find_unstable(fixture_table) == FIXTURE_UNSTABLE


def test_find_unstable_extreme_threshold_requires_full_flip():
    table = nc.NameYearTable({
        ("flip", 1900): (0, 1000), ("flip", 2000): (1000, 0),
        ("near", 1900): (10, 990), ("near", 2000): (990, 10),
    })
    config = nc.InstabilityConfig(sample_years=(1900, 2000), range_threshold=1.0,
                                  min_total_births=0)
    assert nc.find_unstable(table, config) == ["flip"]


def test_find_unstable_min_births_filter(fixture_table):
    config = nc.InstabilityConfig(min_total_births=0)
    assert "arie" in nc.find_unstable(fixture_table, config)


def test_instability_config_validation():
    with pytest.raises(ValueError):
        nc.InstabilityConfig(sample_years=(1950, 1900))
    with pytest.raises(ValueError):
        nc.InstabilityConfig(range_threshold=0.0)


def test_top_shift_names_fixture_membership(fixture_table):
    records = nc.top_shift_names(fixture_table, 1925, 1975, k=24)
    names = [r.name for r in records]
    for expected in ("leslie", "addison", "jan", "kendall", "madison",
                     "morgan", "sidney"):
        assert expected in names


def test_top_shift_k1_picks_largest_absolute_delta():
    table = nc.NameYearTable({
        ("up", 1900): (20, 80), ("up", 2000): (80, 20),
        ("flat", 1900): (50, 50), ("flat", 2000): (40, 60),
    })
    [record] = nc.top_shift_names(table, 1900, 2000, k=1)
    assert record.name == "up"
    assert record.delta == pytest.approx(0.6)


def test_top_shift_returns_short_list_when_few_eligible(fixture_table):
    records = nc.top_shift_names(fixture_table, 1925, 1975, k=500)
    assert len(records) < 500
    with pytest.raises(ValueError):
        nc.top_shift_names(fixture_table, 1925, 1975, k=0)


def test_top_shift_skips_missing_endpoints_without_raising(fixture_table, monkeypatch):
    expected = nc.top_shift_names(fixture_table, 1925, 1975, k=500)

    def refuse(*args):
        raise AssertionError("top_shift_names built an EndpointMissingError")

    monkeypatch.setattr(EndpointMissingError, "__init__", refuse)
    assert nc.top_shift_names(fixture_table, 1925, 1975, k=500) == expected


@pytest.mark.parametrize("k", [1, 3, 500])
@pytest.mark.parametrize("weighted", [False, True])
def test_top_shift_builds_only_the_records_it_keeps(fixture_table, monkeypatch, k, weighted):
    eligible = len(nc.top_shift_names(fixture_table, 1925, 1975, k=10**6))
    built = 0

    def counting_init(self, *args, _init=nc.ShiftRecord.__init__, **kwargs):
        nonlocal built
        built += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(nc.ShiftRecord, "__init__", counting_init)
    records = nc.top_shift_names(fixture_table, 1925, 1975, k=k, weighted=weighted)
    assert built == len(records) == min(k, eligible)
    assert 3 < eligible < 500


def test_net_female_shift_symmetry_and_single_name():
    table = nc.NameYearTable({
        ("up", 1900): (20, 80), ("up", 2000): (80, 20),
        ("down", 1900): (80, 20), ("down", 2000): (20, 80),
        ("solo", 1900): (20, 80), ("solo", 2000): (80, 20),
    })
    assert nc.net_female_shift(table, ["up", "down"], 1900, 2000) == pytest.approx(0.0)
    assert nc.net_female_shift(table, ["solo"], 1900, 2000) == pytest.approx(0.6)


def test_net_female_shift_rejects_empty_names(fixture_table):
    with pytest.raises(ValueError):
        nc.net_female_shift(fixture_table, [], 1925, 1975)


def test_net_shift_of_no_records_is_null():
    assert net_shift([]) is None


def test_net_female_shift_fixture_golden_value(fixture_table):
    value = nc.net_female_shift(fixture_table, FIXTURE_UNSTABLE, 1925, 1975)
    assert value > 0
    assert value == pytest.approx(FIXTURE_NET_SHIFT_1925_1975, abs=1e-12)


def test_net_female_shift_scale_invariant_and_bounded():
    rng = random.Random(3)
    for _ in range(50):
        counts = random_counts(rng, max_names=10)
        table = nc.NameYearTable(counts)
        eligible = [name for name in table.names()
                    if nc.p_female(table, name, 1925).known
                    and nc.p_female(table, name, 1975).known]
        if not eligible:
            continue
        records = [nc.gender_shift(table, n, 1925, 1975) for n in eligible]
        net = nc.net_female_shift(table, eligible, 1925, 1975)
        deltas = [r.delta for r in records]
        assert min(deltas) - 1e-12 <= net <= max(deltas) + 1e-12
        # scaling all weights uniformly must not move the aggregate
        scaled = nc.NameYearTable({k: (f * 3, m * 3) for k, (f, m) in counts.items()})
        assert nc.net_female_shift(scaled, eligible, 1925, 1975) == pytest.approx(net)


def test_stable_anchor_names_barely_move(fixture_table):
    for name in ("george", "mary"):
        assert abs(nc.gender_shift(fixture_table, name, 1900, 2000).delta) < 0.05


def test_against_brute_force_oracles_spot_check():
    rng = random.Random(2024)
    for _ in range(100):
        counts = random_counts(rng)
        table = nc.NameYearTable(counts)
        threshold = rng.choice([0.1, 0.3, 0.5, 1.0])
        min_births = rng.choice([0, 100, 500])
        config = nc.InstabilityConfig(range_threshold=threshold,
                                      min_total_births=min_births)
        assert nc.find_unstable(table, config) == oracle_find_unstable(
            counts, range_threshold=threshold, min_total_births=min_births)

        y1, y2 = sorted(rng.sample((1900, 1925, 1950, 1975, 2000), 2))
        k = rng.randint(1, 30)
        weighted = rng.random() < 0.5
        got = nc.top_shift_names(table, y1, y2, k=k, weighted=weighted)
        want = oracle_top_shifts(counts, y1, y2, k=k, weighted=weighted)
        assert [(r.name, r.p_start, r.p_end, r.delta, r.weight) for r in got] == want

        if want:
            names = [row[0] for row in want[: rng.randint(1, len(want))]]
            assert nc.net_female_shift(table, names, y1, y2) == oracle_net(
                counts, names, y1, y2)


def test_max_fallback_distance_matches_oracles():
    rng = random.Random(7)
    for _ in range(60):
        counts = random_counts(rng, max_names=20)
        table = nc.NameYearTable(counts)
        max_fallback = rng.choice([0, 2, 5, 10, 30])
        assert nc.find_unstable(table, nc.InstabilityConfig(min_total_births=0),
                                max_fallback_distance=max_fallback) == \
            oracle_find_unstable(counts, min_total_births=0, max_fallback=max_fallback)

        y1, y2 = sorted(rng.sample(SAMPLE_YEARS + EXTRA_YEARS + (1915, 1961, 2013), 2))
        weighted = rng.random() < 0.5
        got = nc.top_shift_names(table, y1, y2, k=10**6, weighted=weighted,
                                 max_fallback_distance=max_fallback)
        want = oracle_top_shifts(counts, y1, y2, k=10**6, weighted=weighted,
                                 max_fallback=max_fallback)
        assert [(r.name, r.p_start, r.p_end, r.delta, r.weight) for r in got] == want

        if want:
            names = [row[0] for row in want[: rng.randint(1, len(want))]]
            assert nc.net_female_shift(table, names, y1, y2,
                                       max_fallback_distance=max_fallback) == \
                oracle_net(counts, names, y1, y2, max_fallback=max_fallback)


@pytest.mark.parametrize("call", [
    lambda table: nc.gender_shift(table, "leslie", 1925, 1975, max_fallback_distance=-1),
    lambda table: nc.find_unstable(table, max_fallback_distance=-1),
    lambda table: nc.top_shift_names(table, 1925, 1975, k=3, max_fallback_distance=-1),
    lambda table: nc.net_female_shift(table, ["leslie"], 1925, 1975,
                                      max_fallback_distance=-1),
])
def test_negative_fallback_cap_is_refused(fixture_table, call):
    with pytest.raises(ValueError, match=r"^max_fallback_distance must be >= 0$"):
        call(fixture_table)


@pytest.mark.parametrize("call", [
    lambda table: nc.gender_shift(table, "leslie", 1975, 1925),
    lambda table: nc.top_shift_names(table, 1975, 1925, k=3),
    lambda table: nc.net_female_shift(table, ["leslie"], 1975, 1925),
    lambda table: nc.net_female_shift(table, [], 1975, 1925),
])
@pytest.mark.parametrize("names", [["leslie"], []])
def test_inverted_year_pair_is_refused_whatever_names_are_read(call, names):
    # a table with no names reads none, so no per-name check could fire
    table = nc.NameYearTable({(name, year): (50, 50) for name in names
                              for year in (1925, 1975)})
    with pytest.raises(ValueError, match=r"^require y1 < y2$"):
        call(table)
