import math
import random
from fractions import Fraction
from statistics import NormalDist

import pytest

import namecohort as nc
from namecohort.sampling import Tier


def brute_force_sample_size(population, margin, confidence):
    """Same formula, assembled independently step by step (table-value z)."""
    z = round(NormalDist().inv_cdf(1 - (1 - confidence) / 2), 2)
    n0 = (z ** 2) * 0.5 * (1 - 0.5) / margin ** 2
    return math.ceil(n0 / (1 + (n0 - 1) / population))


def test_sample_size_reference_populations():
    assert nc.sample_size(600, 0.05, 0.95).computed_n == 235
    assert nc.sample_size(7358, 0.05, 0.95).computed_n == 366


def test_sample_size_never_exceeds_population():
    for population in (1, 2, 5, 10, 50):
        assert nc.sample_size(population, 0.05, 0.95).computed_n <= population


def test_sample_size_asymptote():
    assert nc.sample_size(10**6, 0.05, 0.95).computed_n == 385
    assert nc.sample_size(10**9, 0.05, 0.95).computed_n == 385


def test_a_population_beyond_the_float_range_gets_the_limit():
    assert nc.sample_size(10**400).computed_n == nc.sample_size(10**300).computed_n == 385


def test_sample_size_matches_independent_assembly():
    rng = random.Random(5)
    for _ in range(200):
        population = rng.randint(1, 100_000)
        margin = rng.choice([0.01, 0.02, 0.05, 0.1, 0.25])
        confidence = rng.choice([0.8, 0.9, 0.95, 0.99])
        assert nc.sample_size(population, margin, confidence).computed_n == \
            brute_force_sample_size(population, margin, confidence)


def exact_sample_size(population, margin, confidence):
    """The corrected size in exact rational arithmetic, from the table-value
    z, as N / (1 + 4 (N - 1) margin^2 / z^2), rounded up."""
    z = Fraction(round(NormalDist().inv_cdf((1 + confidence) / 2), 2))
    margin = Fraction(margin)
    return max(1, math.ceil(population / (1 + 4 * (population - 1) * margin ** 2 / z ** 2)))


def test_sample_size_agrees_with_exact_arithmetic():
    # (385, 0.03, 0.85) is exactly 231: the algebraically equal float form
    # N / (1 + 4 (N - 1) margin^2 / z^2) gives 231.00000000000003 there.
    assert nc.sample_size(385, 0.03, 0.85).computed_n == 231
    grid = [(population, margin, confidence)
            for population in (1, 2, 3, 10, 385, 600, 10**4, 10**6, 10**9, 10**12)
            for margin in (0.5, 0.25, 0.1, 0.05, 0.03, 0.01, 0.001, 1e-4)
            for confidence in (0.8, 0.85, 0.9, 0.95, 0.99, 0.999)]
    rng = random.Random(22)
    grid += [(max(1, int(10 ** rng.uniform(0, 12))), 10 ** rng.uniform(-4, math.log10(0.5)),
              rng.uniform(0.8, 0.999)) for _ in range(2000)]
    for setting in grid:
        assert nc.sample_size(*setting).computed_n == exact_sample_size(*setting), setting


@pytest.mark.parametrize("margin", [1e-300, 1e-160, 5e-324])
@pytest.mark.parametrize("population", [1, 10, 10**12])
def test_sample_size_of_a_vanishing_margin_is_the_population(population, margin):
    # margin * margin underflows to 0, or its quotient overflows to inf; the
    # limit of the corrected size as the margin goes to 0 is the population.
    assert nc.sample_size(population, margin, 0.95).computed_n == population


def test_sample_size_monotone_in_population():
    previous = 0
    for population in (10, 50, 100, 238, 600, 1000, 7358, 10**5, 10**7):
        current = nc.sample_size(population).computed_n
        assert current >= previous
        previous = current


def test_sample_size_monotone_in_margin_and_confidence():
    sizes = [nc.sample_size(5000, margin=m).computed_n for m in (0.01, 0.03, 0.05, 0.1)]
    assert sizes == sorted(sizes, reverse=True)
    sizes = [nc.sample_size(5000, confidence=c).computed_n for c in (0.8, 0.9, 0.95, 0.99)]
    assert sizes == sorted(sizes)


def test_sample_size_validation():
    for bad in [(0, 0.05, 0.95), (100, 0.0, 0.95), (100, 0.6, 0.95),
                (100, 0.05, 0.5), (100, 0.05, 1.0)]:
        with pytest.raises(ValueError):
            nc.sample_size(*bad)


def test_a_confidence_whose_quantile_rounds_to_1_is_refused():
    # (1 + confidence) / 2 rounds to 1.0, whose normal quantile is infinite.
    with pytest.raises(ValueError, match=r"^confidence must be in \(0.5, 1\)$"):
        nc.sample_size(100, 0.05, 0.9999999999999999)


def test_draw_sample_is_reproducible_and_duplicate_free():
    ids = [f"id{i}" for i in range(100)]
    first = nc.draw_sample(ids, 10, seed=99)
    second = nc.draw_sample(ids, 10, seed=99)
    assert first == second
    assert len(set(first)) == 10
    assert set(first) <= set(ids)
    assert nc.draw_sample(ids, 10, seed=100) != first


def test_draw_sample_edge_sizes():
    ids = ["a", "b", "c"]
    assert nc.draw_sample(ids, 3, seed=1) == sorted(ids)
    assert nc.draw_sample(ids, 0, seed=1) == []
    with pytest.raises(ValueError):
        nc.draw_sample(ids, 4, seed=1)
    with pytest.raises(ValueError):
        nc.draw_sample(["a", "a", "b"], 1, seed=1)


def test_draw_sample_selection_ignores_input_order():
    ids = [f"id{i}" for i in range(50)]
    shuffled = list(ids)
    random.Random(0).shuffle(shuffled)
    assert nc.draw_sample(ids, 7, seed=31) == nc.draw_sample(shuffled, 7, seed=31)


def test_draw_sample_inclusion_frequency():
    ids = [f"id{i}" for i in range(10)]
    hits = {i: 0 for i in ids}
    draws = 10_000
    for seed in range(draws):
        for chosen in nc.draw_sample(ids, 2, seed=seed):
            hits[chosen] += 1
    for i in ids:
        assert hits[i] / draws == pytest.approx(0.2, abs=0.02)


def test_dedup_authors_folds_case_and_whitespace():
    assert nc.dedup_authors(["Jean Bartik", "Jean  Bartik "]) == ["jean bartik"]


def test_dedup_authors_keeps_disjoint_names():
    mentions = ["Alpha One", "Beta Two", "Gamma Three"]
    assert len(nc.dedup_authors(mentions)) == len(mentions)


def test_dedup_authors_surname_first_and_diacritics():
    assert nc.dedup_authors(["Bartik, Jean", "jean bartik"]) == ["jean bartik"]
    assert nc.dedup_authors(["José Álvarez", "Jose Alvarez"]) == ["jose alvarez"]


def test_dedup_workflow_corpus_yields_660(workflow_corpus):
    mentions = [m.raw for record in workflow_corpus for m in record.authors]
    assert len(workflow_corpus) == 480
    assert len(nc.dedup_authors(mentions)) == 660


@pytest.mark.parametrize("population, tier", [
    (1, Tier.QUALITATIVE),
    (80, Tier.QUALITATIVE),
    (99, Tier.QUALITATIVE),
    (100, Tier.MIXED),
    (300, Tier.MIXED),
    (500, Tier.MIXED),
    (501, Tier.MIXED_OR_SAMPLED),
    (1000, Tier.MIXED_OR_SAMPLED),
    (1001, Tier.SAMPLED),
    (5000, Tier.SAMPLED),
])
def test_tier_boundaries(population, tier):
    recommendation = nc.tier_recommendation(population)
    assert recommendation.tier is tier
    assert recommendation.rationale


def test_tier_is_total_function_over_range():
    for population in range(1, 10_001):
        tier = nc.tier_recommendation(population).tier
        if population < 100:
            assert tier is Tier.QUALITATIVE
        elif population <= 500:
            assert tier is Tier.MIXED
        elif population <= 1000:
            assert tier is Tier.MIXED_OR_SAMPLED
        else:
            assert tier is Tier.SAMPLED
    with pytest.raises(ValueError):
        nc.tier_recommendation(0)
