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
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import AuthorMention, CorpusRecord
from .model import (Gender, GenderEstimate, ModelConfig, Thresholds, classify,
                    p_female, shifted_lookup)
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


def _value(mention: AuthorMention, estimate: GenderEstimate | None,
           config: EstimatorConfig, thresholds: Thresholds) -> float | None:
    """A mention's contribution to its bin's share, or None when unidentified.

    Overrides outrank the estimate. The plain weighted mean contributes
    p(F) itself; the display encoding and the classified share contribute
    the value of the mention's class (the classified share ignores any
    display encoding).
    """
    weighted = config.estimator is Estimator.WEIGHTED_MEAN
    encoding = config.display_encoding if weighted else None
    gender = mention.override_gender
    if gender is None:
        if estimate is None:
            return None
        if weighted and encoding is None:
            return estimate.p_female
        gender = classify(estimate, thresholds)
    if gender is Gender.FEMALE:
        return 1.0 if encoding is None else encoding.female
    if gender is Gender.MALE:
        return 0.0 if encoding is None else encoding.male
    return None


def _shares(records: Sequence[CorpusRecord],
            resolve: Callable[[str, int], GenderEstimate], config: EstimatorConfig,
            thresholds: Thresholds) -> list[tuple[int | str, float | None, int, int]]:
    """(bin label, share, n_authors, n_identified) for each non-empty bin, in order.

    resolve maps (first_name, publication_year) to an estimate. The weighted
    mean fills unidentified mentions with unknown_value (the display
    encoding with its own unknown value) and divides by n_authors; the
    classified share drops them and divides by n_identified. fsum is exact,
    so the order of the fill values cannot change a share.
    """
    bins: dict[tuple[str, int], list[float | None]] = {}
    for record in records:
        year = record.publication_year
        start = (year // config.bin_width) * config.bin_width
        values = bins.setdefault((record.venue if config.group_by_venue else "", start), [])
        for mention in record.authors:
            estimate = None if mention.first_name is None else resolve(mention.first_name, year)
            values.append(_value(mention, estimate, config, thresholds))

    encoding = config.display_encoding
    fill = (None if config.estimator is Estimator.CLASSIFIED_SHARE
            else config.unknown_value if encoding is None else encoding.unknown)
    shares = []
    for venue, start in sorted(bins):
        values = bins[(venue, start)]
        known = [v for v in values if v is not None]
        n_authors, identified = len(values), len(known)
        if fill is not None:
            share = math.fsum(known + [fill] * (n_authors - identified)) / n_authors
        else:
            share = math.fsum(known) / identified if identified else None
        label = f"{venue}:{start}" if config.group_by_venue else start
        shares.append((label, share, n_authors, identified))
    return shares


def annual_share(records: Sequence[CorpusRecord], table: NameYearTable,
                 model_config: ModelConfig = ModelConfig(),
                 thresholds: Thresholds = Thresholds(),
                 config: EstimatorConfig = EstimatorConfig()) -> list[TrendPoint]:
    """Aggregate author mentions into a per-bin women's-share series.

    Records should already carry any qualitative overrides; an override
    outranks the table estimate for its mention. Bins with no records are
    omitted, never zero-filled.
    """
    shares = _shares(records, lambda name, year: shifted_lookup(table, name, year, model_config),
                     config, thresholds)
    return [TrendPoint(bin=label, share_female=share, n_authors=n_authors,
                       n_identified=identified, n_unidentified=n_authors - identified,
                       estimator=config.estimator)
            for label, share, n_authors, identified in shares]


def present_bias_report(records: Sequence[CorpusRecord], table: NameYearTable,
                        model_config: ModelConfig = ModelConfig(),
                        reference_year: int = 2000) -> BiasReport:
    """Per-year gap between cohort-shifted shares and a static predictor.

    The temporal arm resolves each mention through the cohort shift; the
    static arm pins every lookup to reference_year, mimicking software
    built from present-day tables. Both arms use the weighted-mean
    convention with unknown = 0.5, and overrides apply identically, so any
    gap comes purely from the lookup year.
    """
    config, thresholds = EstimatorConfig(), Thresholds()
    temporal = _shares(records,
                       lambda name, year: shifted_lookup(table, name, year, model_config),
                       config, thresholds)
    static = _shares(records, lambda name, _: p_female(table, name, reference_year,
                                                        model_config.max_fallback_distance),
                     config, thresholds)
    points = tuple(BiasPoint(bin=year, temporal_share=t_share, static_share=s_share,
                             gap=s_share - t_share)
                   for (year, t_share, _, _), (_, s_share, _, _) in zip(temporal, static))
    gaps = [p.gap for p in points]
    mean_gap = math.fsum(gaps) / len(gaps) if gaps else 0.0
    max_gap = max(gaps, key=abs) if gaps else 0.0
    return BiasReport(reference_year=reference_year, points=points,
                      mean_gap=mean_gap, max_gap=max_gap)


_POINT_COLUMNS = "bin,share_female,n_authors,n_identified,n_unidentified,estimator"
_BIAS_COLUMNS = "bin,temporal_share,static_share,gap"


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def emit_series(obj: Sequence[TrendPoint] | BiasReport, fmt: str = "csv") -> bytes:
    """Serialize a trend series or bias report deterministically.

    Rows are sorted by bin label; CSV carries one row per bin (bias-report
    summary statistics appear only in the JSON form).
    """
    if isinstance(obj, BiasReport):
        rows = sorted(obj.points, key=lambda p: p.bin)
    else:
        rows = sorted(obj, key=lambda p: str(p.bin))
    if fmt == "csv":
        if isinstance(obj, BiasReport):
            lines = [_BIAS_COLUMNS] + [
                f"{p.bin},{_fmt(p.temporal_share)},{_fmt(p.static_share)},{_fmt(p.gap)}"
                for p in rows
            ]
        else:
            lines = [_POINT_COLUMNS] + [
                f"{p.bin},{_fmt(p.share_female)},{p.n_authors},{p.n_identified},"
                f"{p.n_unidentified},{p.estimator.value}"
                for p in rows
            ]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        if isinstance(obj, BiasReport):
            payload = {
                "reference_year": obj.reference_year,
                "mean_gap": obj.mean_gap,
                "max_gap": obj.max_gap,
                "bins": [{"bin": p.bin, "temporal_share": p.temporal_share,
                          "static_share": p.static_share, "gap": p.gap}
                         for p in rows],
            }
        else:
            payload = [{"bin": p.bin, "share_female": p.share_female,
                        "n_authors": p.n_authors, "n_identified": p.n_identified,
                        "n_unidentified": p.n_unidentified,
                        "estimator": p.estimator.value}
                       for p in rows]
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r} (expected csv or json)")


def parse_series_json(data: bytes | str) -> list[TrendPoint]:
    """Parse a JSON series emitted by :func:`emit_series` back into points."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return [
        TrendPoint(bin=item["bin"], share_female=item["share_female"],
                   n_authors=item["n_authors"], n_identified=item["n_identified"],
                   n_unidentified=item["n_unidentified"],
                   estimator=Estimator(item["estimator"]))
        for item in json.loads(data)
    ]
