"""Temporal gender-instability analytics over the name-year table.

A name's gender association can drift across decades; these operations
quantify that drift per name (delta of p(F) between two years), detect
unstable names across a grid of sample years, rank the largest movers, and
aggregate a birth-weighted net shift for a set of names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import DEFAULT_MAX_FALLBACK, _check_max_fallback, lookup
from .names import normalize_name
from .ssa import NameYearTable

DEFAULT_SAMPLE_YEARS = (1900, 1925, 1950, 1975, 2000)


class EndpointMissingError(ValueError):
    """A shift endpoint had no usable counts even after fallback."""

    def __init__(self, name: str, year: int):
        self.name = name
        self.year = year
        super().__init__(f"no usable counts for {name!r} at year {year}")


@dataclass(frozen=True, slots=True)
class ShiftRecord:
    """One name's p(F) movement between two years, with a births-based weight."""

    name: str
    p_start: float
    p_end: float
    delta: float
    weight: float


@dataclass(frozen=True, slots=True)
class InstabilityConfig:
    """Detection rule knobs: the year grid, the p(F) range cutoff, and a floor
    on total births so vanishingly rare names do not dominate."""

    sample_years: tuple[int, ...] = DEFAULT_SAMPLE_YEARS
    range_threshold: float = 0.3
    min_total_births: int = 500

    def __post_init__(self):
        if list(self.sample_years) != sorted(set(self.sample_years)):
            raise ValueError("sample_years must be strictly increasing")
        if not (0 < self.range_threshold <= 1):
            raise ValueError("range_threshold must be in (0, 1]")
        if self.min_total_births < 0:
            raise ValueError("min_total_births must be >= 0")


def gender_shift(table: NameYearTable, name: str, y1: int, y2: int,
                 max_fallback_distance: int = DEFAULT_MAX_FALLBACK) -> ShiftRecord:
    """Shift record for one name between years y1 < y2.

    The weight is the mean of the total births actually used at the two
    endpoints, which avoids favoring either endpoint when ranking by size.
    Raises EndpointMissingError naming the year that had no data.
    """
    _check_max_fallback(max_fallback_distance)
    record = _shift(table, normalize_name(name), y1, y2, max_fallback_distance)
    if isinstance(record, int):
        raise EndpointMissingError(name, record)
    return record


def _shift(table: NameYearTable, key: str, y1: int, y2: int,
           max_fallback_distance: int) -> ShiftRecord | int:
    """:func:`gender_shift` of the name whose normalized key is given, or
    the first endpoint year without usable counts: the key's span is
    fetched once and read at both years."""
    if y1 >= y2:
        raise ValueError("require y1 < y2")
    span = table.key_span(key)
    p_start, start_female, start_male, _, _ = lookup(table, span, y1, max_fallback_distance)
    if p_start is None:
        return y1
    p_end, end_female, end_male, _, _ = lookup(table, span, y2, max_fallback_distance)
    if p_end is None:
        return y2
    return ShiftRecord(name=key, p_start=p_start, p_end=p_end, delta=p_end - p_start,
                       weight=(start_female + start_male + end_female + end_male) / 2)


def find_unstable(table: NameYearTable, config: InstabilityConfig = InstabilityConfig(),
                  max_fallback_distance: int = DEFAULT_MAX_FALLBACK) -> list[str]:
    """Names whose p(F) range across the sample years meets the threshold.

    A name qualifies when it has known p(F) at two or more sample years
    (after fallback), its total births across those years reach
    min_total_births, and max p(F) minus min p(F) reaches range_threshold.
    Output is sorted by descending range, ties broken lexicographically.
    """
    _check_max_fallback(max_fallback_distance)
    qualifying = []
    for name in table.names():
        span = table.key_span(name)
        ps = []
        births = 0
        for year in config.sample_years:
            p, female, male, _, _ = lookup(table, span, year, max_fallback_distance)
            if p is not None:
                ps.append(p)
                births += female + male
        if len(ps) < 2 or births < config.min_total_births:
            continue
        p_range = max(ps) - min(ps)
        if p_range >= config.range_threshold:
            qualifying.append((p_range, name))
    qualifying.sort(key=lambda item: (-item[0], item[1]))
    return [name for _, name in qualifying]


def top_shift_names(table: NameYearTable, y1: int, y2: int, k: int,
                    weighted: bool = False,
                    max_fallback_distance: int = DEFAULT_MAX_FALLBACK) -> list[ShiftRecord]:
    """The k largest movers between y1 and y2, descending.

    Unweighted ranks by |delta|; weighted ranks by |delta| * weight. Names
    unresolvable at either endpoint are simply ineligible, and fewer than k
    eligible names yields a shorter list. Ties break lexicographically.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_max_fallback(max_fallback_distance)
    shifted = (_shift(table, name, y1, y2, max_fallback_distance) for name in table.names())
    records = [record for record in shifted if not isinstance(record, int)]
    if weighted:
        records.sort(key=lambda r: (-(abs(r.delta) * r.weight), r.name))
    else:
        records.sort(key=lambda r: (-abs(r.delta), r.name))
    return records[:k]


def net_female_shift(table: NameYearTable, names: list[str], y1: int, y2: int,
                     max_fallback_distance: int = DEFAULT_MAX_FALLBACK) -> float:
    """Weight-normalized mean delta over the given names; positive means the
    set moved toward female association between y1 and y2.

    Every name must resolve at both years. The normalization keeps the
    result in [-1, 1] and invariant under uniform scaling of the weights.
    """
    return net_shift([gender_shift(table, name, y1, y2, max_fallback_distance)
                      for name in names])


def net_shift(records: list[ShiftRecord]) -> float:
    """Weight-normalized mean delta of shift records already computed."""
    if not records:
        raise ValueError("names must be non-empty")
    total_weight = sum(r.weight for r in records)
    return sum(r.delta * r.weight for r in records) / total_weight
