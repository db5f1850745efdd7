import random

import pytest

import namecohort as nc
from namecohort.model import Gender


def test_p_female_johnnie_1960_exact(fixture_table):
    estimate = nc.p_female(fixture_table, "Johnnie", 1960)
    assert estimate.p_female == 405 / 1536
    assert (estimate.female_count, estimate.male_count) == (405, 1131)
    assert estimate.lookup_year == 1960
    assert estimate.fallback_distance == 0


def test_single_sex_name_is_certain(fixture_table):
    estimate = nc.p_female(fixture_table, "Gertrude", 1950)
    assert estimate.p_female == 1.0
    assert estimate.male_count == 0


def test_absent_name_is_unknown(fixture_table):
    estimate = nc.p_female(fixture_table, "Zzyzx", 1960)
    assert not estimate.known
    assert estimate.p_female is None
    assert estimate.total == 0
    assert estimate.lookup_year == 1960


def test_fallback_uses_nearest_year_within_cap(fixture_table):
    # 1955 has no data; 1950 (distance 5) beats 1960 (distance 10).
    estimate = nc.p_female(fixture_table, "Johnnie", 1955)
    assert estimate.lookup_year == 1950
    assert estimate.fallback_distance == 5


def test_fallback_tie_breaks_toward_earlier_year():
    table = nc.NameYearTable({("ada", 1950): (10, 10), ("ada", 1960): (20, 5)})
    estimate = nc.p_female(table, "ada", 1955)
    assert estimate.lookup_year == 1950


def test_fallback_beyond_cap_is_unknown(fixture_table):
    # gertrude's last data year is 1950; 1975 is 25 years out.
    assert not nc.p_female(fixture_table, "Gertrude", 1975).known


def test_fallback_cap_is_configurable(fixture_table):
    assert nc.p_female(fixture_table, "Gertrude", 1975, max_fallback_distance=25).known


@pytest.mark.parametrize("name", ["Leslie", "Zzyzx"])
def test_negative_fallback_cap_is_refused(fixture_table, name):
    with pytest.raises(ValueError, match=r"^max_fallback_distance must be >= 0$"):
        nc.p_female(fixture_table, name, 1960, max_fallback_distance=-1)


def test_shifted_lookup_equals_direct_lookup(fixture_table):
    shifted = nc.shifted_lookup(fixture_table, "Johnnie", 1990)
    assert shifted == nc.p_female(fixture_table, "Johnnie", 1960)
    assert shifted.fallback_distance == 0


def test_shifted_lookup_clamps_to_table_start():
    table = nc.NameYearTable({("ada", 1880): (10, 30)})
    estimate = nc.shifted_lookup(table, "ada", 1905)
    assert estimate.lookup_year == 1880
    assert estimate.fallback_distance == 5  # 1875 clamped to 1880
    assert estimate.p_female == 0.25


def test_shifted_lookup_leslie_1930_is_male_leaning(fixture_table):
    estimate = nc.shifted_lookup(fixture_table, "Leslie", 1930)
    assert estimate.p_female == pytest.approx(0.08, abs=0.01)


def test_classify_johnnie_value_is_unidentified():
    estimate = nc.GenderEstimate(405 / 1536, 405, 1131, 1960)
    assert nc.classify(estimate) is Gender.UNIDENTIFIED


def test_classify_thresholds():
    assert nc.classify(0.96) is Gender.FEMALE
    assert nc.classify(0.8) is Gender.FEMALE
    assert nc.classify(0.2) is Gender.MALE
    assert nc.classify(0.5) is Gender.UNIDENTIFIED
    assert nc.classify(None) is Gender.UNIDENTIFIED


def test_classify_unknown_estimate_is_unidentified(fixture_table):
    assert nc.classify(nc.p_female(fixture_table, "Zzyzx", 1960)) is Gender.UNIDENTIFIED


def test_config_validation():
    with pytest.raises(ValueError):
        nc.ModelConfig(year_shift=-1)
    with pytest.raises(ValueError):
        nc.ModelConfig(max_fallback_distance=-1)
    with pytest.raises(ValueError):
        nc.Thresholds(tau_female=0.2, tau_male=0.8)
    with pytest.raises(ValueError):
        nc.Thresholds(tau_female=1.2, tau_male=0.2)


def test_complementarity_is_exact():
    rng = random.Random(7)
    for _ in range(2000):
        female = rng.randint(0, 10**6)
        male = rng.randint(0, 10**6)
        if female == 0 and male == 0:
            continue
        estimate = nc.GenderEstimate(female / (female + male), female, male, 1950)
        assert estimate.p_female + male / estimate.total == 1.0


def test_monotonic_in_female_count():
    rng = random.Random(11)
    for _ in range(500):
        male = rng.randint(0, 1000)
        female = rng.randint(0, 1000)
        low = female / (female + male) if female + male else None
        high = (female + 1) / (female + 1 + male)
        if low is not None:
            assert high > low


def test_threshold_symmetry():
    for tau_female in (0.6, 0.7, 0.8, 0.95):
        thresholds = nc.Thresholds(tau_female=tau_female, tau_male=1 - tau_female)
        for p in [i / 200 for i in range(201)]:
            forward = nc.classify(p, thresholds)
            mirrored = nc.classify(1 - p, thresholds)
            assert (forward is Gender.FEMALE) == (mirrored is Gender.MALE)


def test_shift_identity_on_fixture(fixture_table):
    for name in ("mary", "george", "leslie"):
        for pub_year in (1930, 1955, 1980, 2005):
            direct = nc.p_female(fixture_table, name, pub_year - 30)
            if direct.fallback_distance == 0 and direct.known:
                assert nc.shifted_lookup(fixture_table, name, pub_year) == direct


def test_estimates_are_deterministic(fixture_table):
    first = nc.shifted_lookup(fixture_table, "Johnnie", 1990)
    second = nc.shifted_lookup(fixture_table, "Johnnie", 1990)
    assert first == second


def test_zero_year_shift_config(fixture_table):
    config = nc.ModelConfig(year_shift=0)
    direct = nc.p_female(fixture_table, "Mary", 1950)
    assert nc.shifted_lookup(fixture_table, "Mary", 1950, config) == direct


def test_estimate_invariants_enforced():
    with pytest.raises(ValueError):
        nc.GenderEstimate(None, 5, 3, 1950)
    with pytest.raises(ValueError):
        nc.GenderEstimate(0.9, 5, 5, 1950)
    with pytest.raises(ValueError):
        nc.GenderEstimate(0.5, 5, 5, 1950, fallback_distance=-1)
