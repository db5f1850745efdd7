"""Longitudinal aggregation of resolved author genders into trend series.

Two estimators are provided because counting conventions differ and the
choice matters: WeightedMean averages per-author female probabilities with
unidentified authors contributing a fixed unknown value (default 0.5),
while ClassifiedShare counts only threshold-classified authors (female
divided by female-plus-male). An optional display encoding maps classified
mentions to 0.95/0.05/0.5 before averaging, for plot-style series. The
bias report contrasts cohort-shifted lookups against a predictor pinned to
one reference year, which is how present-day name tables misread history.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .model import Gender, ModelConfig, Thresholds, classify, cohort_lookup, lookup
from .names import Value, csv_text
from .ssa import NameYearTable, _excerpt

if TYPE_CHECKING:
    from .corpus import CorpusRecord, Row

__all__ = [
    "BiasPoint", "BiasReport", "DisplayEncoding", "Estimator", "EstimatorConfig",
    "TrendPoint", "annual_share", "emit_series", "present_bias_report",
]


class Estimator(enum.Enum):
    WEIGHTED_MEAN = "weighted-mean"
    CLASSIFIED_SHARE = "classified-share"


class DisplayEncoding(Value):
    """Plot-style values for classified mentions."""

    __slots__ = ("female", "male", "unknown")

    def __init__(self, female: float = 0.95, male: float = 0.05, unknown: float = 0.5):
        super().__init__(female, male, unknown)


class EstimatorConfig(Value):
    __slots__ = ("estimator", "unknown_value", "display_encoding", "bin_width", "group_by_venue")

    def __init__(self, estimator: Estimator = Estimator.WEIGHTED_MEAN,
                 unknown_value: float = 0.5, display_encoding: DisplayEncoding | None = None,
                 bin_width: int = 1, group_by_venue: bool = False):
        if not (0 <= unknown_value <= 1):
            raise ValueError("unknown_value must be in [0, 1]")
        if bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        super().__init__(estimator, unknown_value, display_encoding, bin_width, group_by_venue)


class TrendPoint(Value):
    """One bin of the participation series.

    bin is the bin's start year, or "venue:year" when grouped by venue.
    share_female is None only for a ClassifiedShare bin in which nothing
    was classified (flagged rather than faked). n_identified counts
    mentions that contributed a definite value under the estimator in
    force; n_identified + n_unidentified = n_authors always.
    """

    __slots__ = ("bin", "share_female", "n_authors", "n_identified", "n_unidentified", "estimator")

    def __init__(self, bin: int | str, share_female: float | None, n_authors: int,
                 n_identified: int, n_unidentified: int, estimator: Estimator):
        super().__init__(bin, share_female, n_authors, n_identified, n_unidentified, estimator)


class BiasPoint(Value):
    __slots__ = ("bin", "temporal_share", "static_share", "gap")  # gap = static - temporal

    def __init__(self, bin: int, temporal_share: float, static_share: float, gap: float):
        super().__init__(bin, temporal_share, static_share, gap)


class BiasReport(Value):
    """Per-bin comparison of cohort-shifted vs reference-year-pinned shares;
    both summary gaps are None when there are no bins. max_gap is the gap of
    largest magnitude, sign preserved."""

    __slots__ = ("reference_year", "points", "mean_gap", "max_gap")

    def __init__(self, reference_year: int, points: tuple[BiasPoint, ...],
                 mean_gap: float | None, max_gap: float | None):
        super().__init__(reference_year, points, mean_gap, max_gap)


def _value(gender: Gender | None, config: EstimatorConfig) -> float | None:
    """The contribution to its bin's share of a mention of class gender (None
    for an initial-only mention), or None when unidentified. The display
    encoding gives a class its own value; the plain weighted mean and the
    classified share (which ignores any display encoding) give 1 and 0."""
    encoding = config.display_encoding if config.estimator is Estimator.WEIGHTED_MEAN else None
    if gender is Gender.FEMALE:
        return 1.0 if encoding is None else encoding.female
    if gender is Gender.MALE:
        return 0.0 if encoding is None else encoding.male
    return None


def _shares(records: Iterable[CorpusRecord | Row], table: NameYearTable,
            resolve: Callable[[tuple[int, int], int], tuple[float | None, ...]], count: int,
            config: EstimatorConfig) -> list[list[tuple[int | str, float | None, int, int]]]:
    """For each of count series, (bin label, share, n_authors, n_identified)
    for each non-empty bin, in order, from one pass over the mentions of the
    records or corpus rows (see :data:`corpus.Row`).

    resolve maps (span, publication_year) to the values of a mention in each
    series, None where unidentified, where span is the first name's slice of
    the table columns. Each distinct first name's span, with the year memo
    that the names of that span share, is fetched once per call, and each
    distinct (span, year) resolved once: every name absent from the table has
    the span (0, 0), so the absent names of one year cost one resolve, and
    the memo grows with the table names and years met, not with the distinct
    names of the corpus. A record's bin is found once per distinct year (per
    venue and year when grouped by venue). Overridden and initial-only
    mentions take the value of their override (or none), since an override
    outranks any estimate. The weighted mean fills unidentified mentions with
    unknown_value (the display encoding with its own unknown value) and
    divides by n_authors; the classified share drops them and divides by
    n_identified. fsum is exact, so the order of the fill values cannot
    change a share. A record with no mentions is refused with a ValueError,
    as :class:`corpus.CorpusRecord` refuses it.
    """
    unresolved = {gender: (_value(gender, config),) * count for gender in (None, *Gender)}
    memos: dict[tuple[int, int], dict[int, tuple[float | None, ...]]] = {}

    @functools.cache
    def memo_of(name: str) -> tuple[tuple[int, int], dict[int, tuple[float | None, ...]]]:
        """The name's span and the year memo of that span."""
        span = table.span(name)
        return span, memos.setdefault(span, {})

    width, by_venue = config.bin_width, config.group_by_venue
    bins: dict[tuple[str, int], list[tuple[float | None, ...]]] = {}
    bin_of: dict[int | tuple[str, int], list[tuple[float | None, ...]]] = {}
    for record_id, venue, year, mentions in records:
        if not mentions:
            raise ValueError(f"record {_excerpt(record_id)} has no authors")
        key = (venue, year) if by_venue else year
        values = bin_of.get(key)
        if values is None:
            values = bin_of[key] = bins.setdefault(
                (venue if by_venue else "", year // width * width), [])
        for _, name, override in mentions:
            if name is None or override is not None:
                values.append(unresolved[override])
                continue
            span, memo = memo_of(name)
            value = memo.get(year)
            if value is None:
                value = memo[year] = resolve(span, year)
            values.append(value)

    encoding = config.display_encoding
    fill = (None if config.estimator is Estimator.CLASSIFIED_SHARE
            else config.unknown_value if encoding is None else encoding.unknown)
    series: list[list[tuple[int | str, float | None, int, int]]] = [[] for _ in range(count)]
    for venue, start in sorted(bins):
        label = f"{venue}:{start}" if by_venue else start
        values = bins[(venue, start)]
        for i, shares in enumerate(series):
            known = [value[i] for value in values if value[i] is not None]
            n_authors, identified = len(values), len(known)
            if fill is not None:
                share = math.fsum(known + [fill] * (n_authors - identified)) / n_authors
            else:
                share = math.fsum(known) / identified if identified else None
            shares.append((label, share, n_authors, identified))
    return series


def annual_share(records: Iterable[CorpusRecord | Row], table: NameYearTable,
                 model_config: ModelConfig = ModelConfig(),
                 thresholds: Thresholds = Thresholds(),
                 config: EstimatorConfig = EstimatorConfig()) -> list[TrendPoint]:
    """Aggregate author mentions into a per-bin women's-share series.

    records are CorpusRecords or corpus rows (:data:`corpus.Row`), which
    unpack alike, and are read once, so a stream of them is never held.
    Records should already carry any qualitative overrides; an override
    outranks the table estimate for its mention. Bins with no records are
    omitted, never zero-filled. Each distinct (table span of the first
    name, publication year) is resolved once, by one lookup and, unless the
    plain weighted mean is in force, one classify, so the first names absent
    from the table cost one lookup per publication year. A record with no
    mentions raises ValueError.
    """
    if config.estimator is Estimator.WEIGHTED_MEAN and config.display_encoding is None:
        def resolve(span: tuple[int, int], year: int) -> tuple[float | None]:
            return cohort_lookup(table, span, year, model_config)[:1]
    else:
        by_class = {gender: (_value(gender, config),) for gender in Gender}

        def resolve(span: tuple[int, int], year: int) -> tuple[float | None]:
            return by_class[classify(cohort_lookup(table, span, year, model_config)[0],
                                     thresholds)]
    [shares] = _shares(records, table, resolve, 1, config)
    return [TrendPoint(bin=label, share_female=share, n_authors=n_authors,
                       n_identified=identified, n_unidentified=n_authors - identified,
                       estimator=config.estimator)
            for label, share, n_authors, identified in shares]


def present_bias_report(records: Iterable[CorpusRecord | Row], table: NameYearTable,
                        model_config: ModelConfig = ModelConfig(),
                        reference_year: int = 2000) -> BiasReport:
    """Per-year gap between cohort-shifted shares and a static predictor.

    The temporal arm resolves each mention through the cohort shift; the
    static arm pins every lookup to reference_year, mimicking software
    built from present-day tables. Both arms use the weighted-mean
    convention with unknown = 0.5, and overrides apply identically, so any
    gap comes purely from the lookup year. One pass over the mentions
    serves both arms: each distinct (table span of the first name,
    publication year) is resolved once to both arms' values, by one
    temporal lookup and the static lookup of its span, which is made once
    per distinct span. So the first names absent from the table cost one
    temporal lookup per publication year and one static lookup in all.
    The records are read as :func:`annual_share` reads them, and a record
    with no mentions raises ValueError.
    """
    static = functools.cache(lambda span: lookup(table, span, reference_year,
                                                 model_config.max_fallback_distance)[0])
    temporal_shares, static_shares = _shares(
        records, table,
        lambda span, year: (cohort_lookup(table, span, year, model_config)[0], static(span)),
        2, EstimatorConfig())
    points = tuple(BiasPoint(bin=year, temporal_share=t_share, static_share=s_share,
                             gap=s_share - t_share)
                   for (year, t_share, _, _), (_, s_share, _, _)
                   in zip(temporal_shares, static_shares))
    gaps = [p.gap for p in points]
    return BiasReport(reference_year=reference_year, points=points,
                      mean_gap=math.fsum(gaps) / len(gaps) if gaps else None,
                      max_gap=max(gaps, key=abs, default=None))


def _field(row: TrendPoint | BiasPoint, column: str) -> object:
    value = getattr(row, column)
    return value.value if isinstance(value, Estimator) else value


def _bin_order(point: TrendPoint | BiasPoint) -> tuple[str, int]:
    """The point's (venue, start year); the venue of an ungrouped bin is ""."""
    if isinstance(point.bin, str):
        venue, _, start = point.bin.rpartition(":")
        return venue, int(start)
    return "", point.bin


def emit_series(obj: Sequence[TrendPoint] | BiasReport, fmt: str = "csv") -> bytes:
    """Serialize a trend series or bias report deterministically.

    Rows are sorted by bin start year, or by venue and then start year when
    grouped by venue, which is the order :func:`annual_share` gives; the
    columns are the point's fields. CSV carries one row per bin (bias-report
    summary statistics appear only in the JSON form). CSV cells follow
    :func:`names.csv_text`.
    """
    if isinstance(obj, BiasReport):
        columns, points = BiasPoint.__slots__, obj.points
    else:
        columns, points = TrendPoint.__slots__, obj
    points = sorted(points, key=_bin_order)
    rows = [[_field(point, column) for column in columns] for point in points]
    if fmt == "csv":
        return csv_text([columns, *rows]).encode("utf-8")
    if fmt == "json":
        import json  # a CSV run does without it

        payload: object = [dict(zip(columns, row)) for row in rows]
        if isinstance(obj, BiasReport):
            payload = {"reference_year": obj.reference_year, "mean_gap": obj.mean_gap,
                       "max_gap": obj.max_gap, "bins": payload}
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r} (expected csv or json)")
