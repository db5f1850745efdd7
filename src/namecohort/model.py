"""Year-aware female-probability estimates and threshold classification.

The core quantity is p(F) for a (name, year) pair: female births divided by
total births for that name in that year. Because a publication year is not a
birth year, lookups for authors shift back by a configurable number of years
(default 30) to approximate the birth cohort. Absence of data is a value
(Unknown), never an error, and no prior is imputed here.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

from .ssa import NameYearTable

DEFAULT_YEAR_SHIFT = 30
DEFAULT_MAX_FALLBACK = 10


class Gender(enum.Enum):
    FEMALE = "F"
    MALE = "M"
    UNIDENTIFIED = "U"


@dataclass(frozen=True, slots=True)
class GenderEstimate:
    """A p(F) value with the counts and lookup provenance behind it.

    p_female is None exactly when no usable counts were found (total 0);
    otherwise it equals female_count / (female_count + male_count).
    lookup_year is the year whose counts were used (the queried year when
    unknown); fallback_distance is 0 when the exact year had data, else the
    distance travelled to the year used (including any clamp to the start
    of the table).
    """

    p_female: float | None
    female_count: int
    male_count: int
    lookup_year: int
    fallback_distance: int = 0

    def __post_init__(self):
        total = self.female_count + self.male_count
        if (self.p_female is None) != (total == 0):
            raise ValueError("p_female must be None exactly when no counts were used")
        if self.p_female is not None and self.p_female != self.female_count / total:
            raise ValueError("p_female must equal female_count / total exactly")
        if self.fallback_distance < 0:
            raise ValueError("fallback_distance must be >= 0")

    @property
    def known(self) -> bool:
        return self.p_female is not None

    @property
    def total(self) -> int:
        return self.female_count + self.male_count


@dataclass(frozen=True, slots=True)
class ModelConfig:
    """Lookup behavior: cohort shift and how far nearest-year fallback may go."""

    year_shift: int = DEFAULT_YEAR_SHIFT
    max_fallback_distance: int = DEFAULT_MAX_FALLBACK

    def __post_init__(self):
        if self.year_shift < 0:
            raise ValueError("year_shift must be >= 0")
        _check_max_fallback(self.max_fallback_distance)


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Classification cutoffs: Female at or above tau_female, Male at or below tau_male."""

    tau_female: float = 0.8
    tau_male: float = 0.2

    def __post_init__(self):
        if not (0 <= self.tau_male < self.tau_female <= 1):
            raise ValueError("require 0 <= tau_male < tau_female <= 1")


def _check_max_fallback(max_fallback_distance: int) -> None:
    """Refuse a negative fallback cap, which would silently mean exact years only."""
    if max_fallback_distance < 0:
        raise ValueError("max_fallback_distance must be >= 0")


# A lookup's result as a plain tuple, in GenderEstimate's field order:
# (p_female, female_count, male_count, lookup_year, fallback_distance).
Estimate = tuple[float | None, int, int, int, int]


def p_female(table: NameYearTable, name: str, year: int,
             max_fallback_distance: int = DEFAULT_MAX_FALLBACK) -> GenderEstimate:
    """Estimate p(F) for a name at a year, with bounded nearest-year fallback.

    Exact-year counts are used when present. Otherwise the nearest year with
    data for that name within max_fallback_distance is used (ties broken
    toward the earlier year) and the distance is recorded. When no year
    qualifies the estimate is Unknown.
    """
    _check_max_fallback(max_fallback_distance)
    return GenderEstimate(*lookup(table, table.span(name), year, max_fallback_distance))


def lookup(table: NameYearTable, span: tuple[int, int], year: int,
           max_fallback_distance: int) -> Estimate:
    """:func:`p_female` as a plain tuple, over the slice ``span`` of the table's
    columns that the caller has already fetched (so the name is not
    normalized again)."""
    lo, hi = span
    years = table.years
    i = bisect_left(years, year, lo, hi)
    if i < hi and years[i] == year:
        female, male = table.females[i], table.males[i]
        return female / (female + male), female, male, year, 0
    # The nearest years with data are years[i - 1] below and years[i] above.
    best = None
    if i > lo and year - years[i - 1] <= max_fallback_distance:
        best = i - 1
    if i < hi and years[i] - year <= max_fallback_distance and (
            best is None or years[i] - year < year - years[best]):
        best = i
    if best is None:
        return None, 0, 0, year, 0
    nearest, female, male = years[best], table.females[best], table.males[best]
    return female / (female + male), female, male, nearest, abs(nearest - year)


def shifted_lookup(table: NameYearTable, name: str, publication_year: int,
                   config: ModelConfig = ModelConfig()) -> GenderEstimate:
    """p(F) at the birth-cohort year: publication year minus the configured shift.

    A shifted year before the table's first year is clamped to that first
    year; the clamp distance is folded into fallback_distance so provenance
    stays visible.
    """
    return GenderEstimate(*cohort_lookup(table, table.span(name), publication_year, config))


def cohort_lookup(table: NameYearTable, span: tuple[int, int], publication_year: int,
                  config: ModelConfig) -> Estimate:
    """:func:`shifted_lookup` as a plain tuple, over a span already fetched from table."""
    target = publication_year - config.year_shift
    clamp = 0
    if table.year_range is not None and target < table.year_range[0]:
        clamp = table.year_range[0] - target
        target = table.year_range[0]
    result = lookup(table, span, target, config.max_fallback_distance)
    if clamp and result[0] is not None:
        p, female, male, used, distance = result
        result = p, female, male, used, distance + clamp
    return result


def classify(estimate: GenderEstimate | float | None,
             thresholds: Thresholds = Thresholds()) -> Gender:
    """Classify an estimate (or bare probability) as Female, Male, or Unidentified.

    Unknown estimates, including initial-only author names that never reach
    the table, classify as Unidentified.
    """
    p = estimate.p_female if isinstance(estimate, GenderEstimate) else estimate
    if p is None:
        return Gender.UNIDENTIFIED
    if p >= thresholds.tau_female:
        return Gender.FEMALE
    if p <= thresholds.tau_male:
        return Gender.MALE
    return Gender.UNIDENTIFIED
