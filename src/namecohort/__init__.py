"""namecohort: year-aware name-gender estimation for bibliographic corpora.

A first name's gender association is not fixed: many names drifted from
male to female (or back) over the twentieth century, so applying today's
name tables to historical authors systematically misreads the past. This
package looks names up in per-birth-year count tables, shifts publication
years back to the author's likely birth cohort, quantifies per-name drift,
sizes and draws reproducible samples of large author populations, and
aggregates longitudinal participation series.

The names below are imported from their modules on first use (PEP 562),
so a command loads only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": ("AuthorMention", "CorpusParseResult", "CorpusRecord", "OverrideEntry",
               "OverrideLedger", "apply_overrides", "extract_first_name", "parse_corpus_csv",
               "parse_dblp_subset", "read_override_ledger", "serialize_corpus_csv"),
    "model": ("Gender", "GenderEstimate", "ModelConfig", "Thresholds", "classify",
              "p_female", "shifted_lookup"),
    "names": ("normalize_full_name", "normalize_name"),
    "sampling": ("SampleSpec", "Tier", "TierRecommendation", "dedup_authors", "draw_sample",
                 "sample_size", "tier_recommendation"),
    "shifts": ("InstabilityConfig", "ShiftRecord", "find_unstable", "gender_shift",
               "net_female_shift", "top_shift_names"),
    "ssa": ("NameCountRecord", "NameYearTable", "build_table", "load_directory",
            "load_fixture", "parse_year_file", "read_snapshot", "serialize_table",
            "write_snapshot"),
    "trend": ("BiasPoint", "BiasReport", "DisplayEncoding", "Estimator", "EstimatorConfig",
              "TrendPoint", "annual_share", "emit_series", "parse_series_json",
              "present_bias_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
