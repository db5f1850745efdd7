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
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .corpus import CorpusRecord, Row
from .model import Gender, ModelConfig, Thresholds, classify, cohort_lookup, lookup
from .names import csv_text
from .ssa import NameYearTable

__all__ = [
    "BiasPoint", "BiasReport", "DisplayEncoding", "Estimator", "EstimatorConfig",
    "TrendPoint", "annual_share", "emit_series", "parse_series_json",
    "present_bias_report",
]


class Estimator(enum.Enum):
    WEIGHTED_MEAN = "weighted-mean"
    CLASSIFIED_SHARE = "classified-share"


@dataclass(frozen=True, slots=True)
class DisplayEncoding:
    """Plot-style values for classified mentions."""

    female: float = 0.95
    male: float = 0.05
    unknown: float = 0.5


@dataclass(frozen=True, slots=True)
class EstimatorConfig:
    estimator: Estimator = Estimator.WEIGHTED_MEAN
    unknown_value: float = 0.5
    display_encoding: DisplayEncoding | None = None
    bin_width: int = 1
    group_by_venue: bool = False

    def __post_init__(self):
        if not (0 <= self.unknown_value <= 1):
            raise ValueError("unknown_value must be in [0, 1]")
        if self.bin_width < 1:
            raise ValueError("bin_width must be >= 1")


@dataclass(frozen=True, slots=True)
class TrendPoint:
    """One bin of the participation series.

    bin is the bin's start year, or "venue:year" when grouped by venue.
    share_female is None only for a ClassifiedShare bin in which nothing
    was classified (flagged rather than faked). n_identified counts
    mentions that contributed a definite value under the estimator in
    force; n_identified + n_unidentified = n_authors always.
    """

    bin: int | str
    share_female: float | None
    n_authors: int
    n_identified: int
    n_unidentified: int
    estimator: Estimator


@dataclass(frozen=True, slots=True)
class BiasPoint:
    bin: int
    temporal_share: float
    static_share: float
    gap: float  # static_share - temporal_share


@dataclass(frozen=True, slots=True)
class BiasReport:
    """Per-bin comparison of cohort-shifted vs reference-year-pinned shares."""

    reference_year: int
    points: tuple[BiasPoint, ...]
    mean_gap: float
    max_gap: float  # gap of largest magnitude, sign preserved


def _value(gender: Gender | None, p: float | None,
           config: EstimatorConfig, thresholds: Thresholds) -> float | None:
    """A mention's contribution to its bin's share, or None when unidentified.

    gender is the mention's override, which outranks p, its estimated p(F)
    (None when unknown or never looked up). The plain weighted mean
    contributes p(F) itself; the display encoding and the classified share
    contribute the value of the mention's class (the classified share
    ignores any display encoding).
    """
    weighted = config.estimator is Estimator.WEIGHTED_MEAN
    encoding = config.display_encoding if weighted else None
    if gender is None:
        if p is None:
            return None
        if weighted and encoding is None:
            return p
        gender = classify(p, thresholds)
    if gender is Gender.FEMALE:
        return 1.0 if encoding is None else encoding.female
    if gender is Gender.MALE:
        return 0.0 if encoding is None else encoding.male
    return None


def _shares(records: Iterable[CorpusRecord | Row], table: NameYearTable,
            resolvers: Sequence[Callable[[tuple[int, int], int], float | None]],
            config: EstimatorConfig, thresholds: Thresholds
            ) -> list[list[tuple[int | str, float | None, int, int]]]:
    """For each resolver, (bin label, share, n_authors, n_identified) for each
    non-empty bin, in order, from one pass over the mentions of the records
    or corpus rows (see :data:`corpus.Row`).

    A resolver maps (span, publication_year) to p(F), or None when unknown,
    where span is the first name's slice of the table columns. Each distinct
    first name's span, with the year memo that the names of that span share, is
    fetched once per call, and each distinct (span, year) resolved and valued
    once: every name absent from the table has the span (0, 0), so the absent
    names of one year cost one lookup, and the memo grows with the table names
    and years met, not with the distinct names of the corpus. Overridden and
    initial-only mentions take the value of their override (or none), since an
    override outranks any estimate. The weighted mean fills unidentified
    mentions with unknown_value (the display encoding with its own unknown
    value) and divides by n_authors; the classified share drops them and
    divides by n_identified. fsum is exact, so the order of the fill values
    cannot change a share.
    """
    unresolved = {gender: (_value(gender, None, config, thresholds),) * len(resolvers)
                  for gender in (None, *Gender)}
    memos: dict[tuple[int, int], dict[int, tuple[float | None, ...]]] = {}

    @functools.cache
    def memo_of(name: str) -> tuple[tuple[int, int], dict[int, tuple[float | None, ...]]]:
        """The name's span and the year memo of that span."""
        span = table.span(name)
        return span, memos.setdefault(span, {})

    bins: dict[tuple[str, int], list[tuple[float | None, ...]]] = {}
    for _, venue, year, mentions in records:
        start = (year // config.bin_width) * config.bin_width
        values = bins.setdefault((venue if config.group_by_venue else "", start), [])
        for _, name, override in mentions:
            if name is None or override is not None:
                values.append(unresolved[override])
                continue
            span, memo = memo_of(name)
            value = memo.get(year)
            if value is None:
                value = memo[year] = tuple(
                    _value(None, resolve(span, year), config, thresholds) for resolve in resolvers)
            values.append(value)

    encoding = config.display_encoding
    fill = (None if config.estimator is Estimator.CLASSIFIED_SHARE
            else config.unknown_value if encoding is None else encoding.unknown)
    series: list[list[tuple[int | str, float | None, int, int]]] = [[] for _ in resolvers]
    for venue, start in sorted(bins):
        label = f"{venue}:{start}" if config.group_by_venue else start
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


def _cohort(table: NameYearTable,
            model_config: ModelConfig) -> Callable[[tuple[int, int], int], float | None]:
    """The p(F) of :func:`shifted_lookup` of a span of the table."""
    return lambda span, year: cohort_lookup(table, span, year, model_config)[0]


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
    name, publication year) is looked up once, so the first names absent
    from the table cost one lookup per publication year.
    """
    [shares] = _shares(records, table, [_cohort(table, model_config)], config, thresholds)
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
    serves both arms: the temporal arm looks up each distinct (table span
    of the first name, publication year) once, the static arm each
    distinct span once, so the first names absent from the table cost one
    temporal lookup per publication year and one static lookup in all.
    The records are read as :func:`annual_share` reads them.
    """
    static = functools.cache(lambda span: lookup(table, span, reference_year,
                                                 model_config.max_fallback_distance)[0])
    temporal_shares, static_shares = _shares(
        records, table, [_cohort(table, model_config), lambda span, _: static(span)],
        EstimatorConfig(), Thresholds())
    points = tuple(BiasPoint(bin=year, temporal_share=t_share, static_share=s_share,
                             gap=s_share - t_share)
                   for (year, t_share, _, _), (_, s_share, _, _)
                   in zip(temporal_shares, static_shares))
    gaps = [p.gap for p in points]
    mean_gap = math.fsum(gaps) / len(gaps) if gaps else 0.0
    max_gap = max(gaps, key=abs) if gaps else 0.0
    return BiasReport(reference_year=reference_year, points=points,
                      mean_gap=mean_gap, max_gap=max_gap)


_POINT_COLUMNS = ("bin", "share_female", "n_authors", "n_identified", "n_unidentified",
                  "estimator")
_BIAS_COLUMNS = ("bin", "temporal_share", "static_share", "gap")


def _field(row: TrendPoint | BiasPoint, column: str) -> object:
    value = getattr(row, column)
    return value.value if isinstance(value, Estimator) else value


def emit_series(obj: Sequence[TrendPoint] | BiasReport, fmt: str = "csv") -> bytes:
    """Serialize a trend series or bias report deterministically.

    Rows are sorted by bin label; CSV carries one row per bin (bias-report
    summary statistics appear only in the JSON form). CSV cells follow
    :func:`names.csv_text`.
    """
    if isinstance(obj, BiasReport):
        columns, points = _BIAS_COLUMNS, sorted(obj.points, key=lambda p: p.bin)
    else:
        columns, points = _POINT_COLUMNS, sorted(obj, key=lambda p: str(p.bin))
    rows = [[_field(point, column) for column in columns] for point in points]
    if fmt == "csv":
        return csv_text([columns, *rows]).encode("utf-8")
    if fmt == "json":
        payload: object = [dict(zip(columns, row)) for row in rows]
        if isinstance(obj, BiasReport):
            payload = {"reference_year": obj.reference_year, "mean_gap": obj.mean_gap,
                       "max_gap": obj.max_gap, "bins": payload}
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r} (expected csv or json)")


def parse_series_json(data: bytes | str) -> list[TrendPoint]:
    """Parse a JSON series emitted by :func:`emit_series` back into points."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return [TrendPoint(**{column: item[column] for column in _POINT_COLUMNS[:-1]},
                       estimator=Estimator(item["estimator"]))
            for item in json.loads(data)]
