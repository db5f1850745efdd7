"""Sample sizing, seeded reproducible draws, author dedup, and method tiers.

Large author populations are impractical to research person by person, so a
statistically valid subset is drawn instead: worst-case proportion sample
sizing with finite population correction, and a deterministic seeded draw so
published analyses can be re-run bit for bit.
"""

from __future__ import annotations

import enum
import math
import random
import sys
from statistics import NormalDist
from typing import Iterable, Sequence

from .names import Value, normalize_full_name
from .ssa import _excerpt


class SampleSpec(Value):
    """A sizing request and its computed minimum sample size."""

    __slots__ = ("population_size", "margin", "confidence", "computed_n")

    def __init__(self, population_size: int, margin: float, confidence: float, computed_n: int):
        super().__init__(population_size, margin, confidence, computed_n)


class Tier(enum.Enum):
    QUALITATIVE = "qualitative"
    MIXED = "mixed"
    MIXED_OR_SAMPLED = "mixed-or-sampled"
    SAMPLED = "sampled"


class TierRecommendation(Value):
    __slots__ = ("tier", "rationale")

    def __init__(self, tier: Tier, rationale: str):
        super().__init__(tier, rationale)


def _check_settings(population_size: int | None, margin: float, confidence: float) -> None:
    """Raise ValueError for a setting :func:`sample_size` refuses; a
    population of None is not checked."""
    if population_size is not None and population_size < 1:
        raise ValueError("population_size must be >= 1")
    if not (0 < margin <= 0.5):
        raise ValueError("margin must be in (0, 0.5]")
    # A confidence so near 1 that (1 + confidence) / 2 rounds to 1 has an
    # infinite quantile.
    if not (0.5 < confidence < 1) or (1 + confidence) / 2 == 1:
        raise ValueError("confidence must be in (0.5, 1)")


def sample_size(population_size: int, margin: float = 0.05,
                confidence: float = 0.95) -> SampleSpec:
    """Minimum sample size for estimating a proportion at the given margin
    and confidence, corrected for a finite population.

    Uses the worst-case proportion p = 0.5: n0 = z^2 * 0.25 / margin^2 at
    the two-sided normal quantile z, then n = n0 / (1 + (n0 - 1) / N),
    rounded up. z is the standard two-decimal table value (1.96 at 95%),
    matching survey practice. The result never exceeds the population, and
    is the population for a margin so small that n0 overflows. A population
    beyond the float range gets the limit, ceil(n0).
    """
    _check_settings(population_size, margin, confidence)
    z = round(NormalDist().inv_cdf((1 + confidence) / 2), 2)
    n0 = z * z * 0.25 / (margin * margin) if margin * margin else math.inf
    # Where n0 overflows, the corrected size is its limit, the population;
    # a population past the float range divides as the largest float.
    divisor = min(population_size, sys.float_info.max)
    corrected = n0 / (1 + (n0 - 1) / divisor) if n0 < math.inf else population_size
    return SampleSpec(population_size, margin, confidence,
                      computed_n=max(1, math.ceil(corrected)))


def draw_sample(ids: Sequence[str], n: int, seed: int) -> list[str]:
    """Simple random sample of n ids without replacement, reproducibly.

    The ids are put in canonical sorted order before the seeded draw, so
    the selection depends only on the id set, n, and seed -- never on the
    order the ids arrived in. The selection is returned sorted.
    """
    pool = sorted(set(ids))
    if len(pool) != len(ids):
        raise ValueError("ids must be unique")
    if n < 0 or n > len(pool):
        raise ValueError(f"cannot draw {_excerpt(n)} from population of {len(pool)}")
    return sorted(random.Random(seed).sample(pool, n))


def dedup_authors(mentions: Iterable[str]) -> list[str]:
    """Unique normalized author names, sorted.

    Exact-match deduplication after full-name normalization (case fold,
    whitespace collapse, diacritic strip, honorific drop); distinct people
    sharing one name string still collapse to one entry. Each distinct raw
    string is normalized once.
    """
    return sorted(set(map(normalize_full_name, set(mentions))) - {""})


def tier_recommendation(population_size: int) -> TierRecommendation:
    """Suggest a research method for a population of the given size.

    Small groups reward straight qualitative lookups; mid-sized groups mix
    qualitative work with name-table estimates; very large groups justify
    statistical sampling. The 500-1000 band is genuinely borderline and is
    reported as such rather than forced to one side.
    """
    n = population_size
    if n < 1:
        raise ValueError("population_size must be >= 1")
    if n < 100:
        return TierRecommendation(
            Tier.QUALITATIVE,
            f"{n} people is small enough to research each one individually",
        )
    if n <= 500:
        return TierRecommendation(
            Tier.MIXED,
            f"{n} people suits qualitative lookups supplemented with "
            "year-aware name-table estimates",
        )
    if n <= 1000:
        return TierRecommendation(
            Tier.MIXED_OR_SAMPLED,
            f"{n} people is borderline: a mixed method still works but "
            "sampling starts to pay off",
        )
    return TierRecommendation(
        Tier.SAMPLED,
        f"{n} people is too many for per-person research; draw a sized "
        "random sample and analyze that",
    )
