"""The record and config types are frozen values that behave as the frozen
dataclasses they replace: equal and hashed by their fields, shown by the
same repr, never reassigned, and checked when built, as a table's rows are
checked by build_table."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

import namecohort as nc
from namecohort.model import Gender
from namecohort.trend import Estimator

# Each value type, the fields of one value, and another last field.
VALUES = {
    nc.GenderEstimate: ((0.25, 1, 3, 1950, 2), 3),
    nc.ModelConfig: ((20, 5), 6),
    nc.Thresholds: ((0.7, 0.3), 0.2),
    nc.ShiftRecord: (("ann", 0.1, 0.4, 0.3, 12.5), 13.0),
    nc.InstabilityConfig: (((1900, 1950), 0.4, 100), 101),
    nc.DisplayEncoding: ((0.9, 0.1, 0.4), 0.5),
    nc.EstimatorConfig: ((Estimator.CLASSIFIED_SHARE, 0.25, nc.DisplayEncoding(), 5, True),
                         False),
    nc.TrendPoint: ((1970, 0.5, 4, 2, 2, Estimator.WEIGHTED_MEAN), Estimator.CLASSIFIED_SHARE),
    nc.BiasPoint: ((1970, 0.4, 0.5, 0.1), 0.2),
    nc.BiasReport: ((2000, (nc.BiasPoint(1970, 0.4, 0.5, 0.1),), 0.1, 0.1), -0.1),
    nc.OverrideEntry: (("ann lee", Gender.FEMALE, 1980, 1990, "SIGX", "biography"), "memoir"),
    nc.SampleSpec: ((600, 0.05, 0.95, 235), 236),
    nc.TierRecommendation: ((nc.Tier.MIXED, "mixed methods"), "other"),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_behaves_as_its_frozen_dataclass(cls):
    fields, other_last = VALUES[cls]
    value = cls(*fields)
    twin = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)(*fields)
    assert repr(value) == repr(twin)
    assert hash(value) == hash(twin)
    assert value != twin and value != fields and not value == fields
    by_keyword = cls(**dict(zip(cls.__slots__, fields)))
    assert value == by_keyword and hash(value) == hash(by_keyword)
    assert value != cls(*fields[:-1], other_last)
    assert value._asdict() == dataclasses.asdict(twin)
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*fields)


def test_defaults_are_the_dataclass_defaults():
    assert nc.GenderEstimate(None, 0, 0, 1950) == nc.GenderEstimate(None, 0, 0, 1950, 0)
    assert nc.ModelConfig() == nc.ModelConfig(30, 10)
    assert nc.Thresholds() == nc.Thresholds(0.8, 0.2)
    assert nc.InstabilityConfig() == nc.InstabilityConfig((1900, 1925, 1950, 1975, 2000),
                                                          0.3, 500)
    assert nc.DisplayEncoding() == nc.DisplayEncoding(0.95, 0.05, 0.5)
    assert nc.EstimatorConfig() == nc.EstimatorConfig(Estimator.WEIGHTED_MEAN, 0.5, None, 1,
                                                      False)
    assert (nc.OverrideEntry("ann", Gender.MALE, source_note="bio")
            == nc.OverrideEntry("ann", Gender.MALE, None, None, None, "bio"))
    first, second = nc.CorpusParseResult(), nc.CorpusParseResult()
    first.records.append(None)
    first.skipped += 1
    assert (second.records, second.skipped, second.unmatched) == ([], 0, [])


@pytest.mark.parametrize("cls, args, message", [
    (nc.build_table, ([("Ann", "X", 5, 1990)],), "sex must be F or M, got 'X'"),
    (nc.build_table, ([("Ann", "F", 0, 1990)],), "count must be >= 1"),
    (nc.build_table, ([("", "F", 5, 1990)],), "name must be non-empty"),
    (nc.GenderEstimate, (0.5, 0, 0, 1950),
     "p_female must be None exactly when no counts were used"),
    (nc.GenderEstimate, (None, 1, 0, 1950),
     "p_female must be None exactly when no counts were used"),
    (nc.GenderEstimate, (0.4, 1, 1, 1950), "p_female must equal female_count / total exactly"),
    (nc.GenderEstimate, (0.5, 1, 1, 1950, -1), "fallback_distance must be >= 0"),
    (nc.ModelConfig, (-1,), "year_shift must be >= 0"),
    (nc.ModelConfig, (30, -1), "max_fallback_distance must be >= 0"),
    (nc.Thresholds, (0.2, 0.8), "require 0 <= tau_male < tau_female <= 1"),
    (nc.InstabilityConfig, ((1950, 1900),), "sample_years must be strictly increasing"),
    (nc.InstabilityConfig, ((1900,), 0), "range_threshold must be in (0, 1]"),
    (nc.InstabilityConfig, ((1900,), 0.3, -1), "min_total_births must be >= 0"),
    (nc.EstimatorConfig, (Estimator.WEIGHTED_MEAN, 1.5), "unknown_value must be in [0, 1]"),
    (nc.EstimatorConfig, (Estimator.WEIGHTED_MEAN, 0.5, None, 0), "bin_width must be >= 1"),
    (nc.OverrideEntry, ("", Gender.FEMALE, None, None, None, "bio"),
     "override with an empty key"),
    (nc.OverrideEntry, ("ann", Gender.FEMALE), "override for 'ann' lacks a source note"),
    (nc.OverrideEntry, ("ann", Gender.FEMALE, 1990, 1980, None, "bio"),
     "override for 'ann' has year_from 1990 after year_to 1980"),
], ids=lambda item: item.__name__ if callable(item) else None)
def test_a_value_is_checked_when_built(cls, args, message):
    with pytest.raises(ValueError) as excinfo:
        cls(*args)
    assert str(excinfo.value) == message
