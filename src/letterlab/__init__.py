"""letterlab: letter-counting statistics and classical cryptanalysis.

Counting letters is the common root of three crafts: breaking simple
substitution ciphers by symbol frequencies, measuring style through
vowel/consonant proportions, and treating text as a stochastic source.
This package implements the desk-scale versions of all of them over
configurable alphabets, plus a CLI (`letterlab`) that wires corpora and
analyses into reproducible reports.

The names below load on first use: `import letterlab` imports no
submodule, and `letterlab.X` or `from letterlab import X` imports the
module that defines X (PEP 562), so a CLI command loads only what it runs.
"""

import importlib

_EXPORTS = {
    "alphabet": "Alphabet AlphabetSpecError LetterSequence WordSequence builtin_alphabet builtin_names "
    "load_alphabet normalize tokenize_words",
    "cipher": "Cryptogram LanguageModel LengthWarning RestartRecord SolverReport SubstitutionKey decrypt encrypt "
    "frequency_match_key hill_climb_solve length_check parse_cryptogram score",
    "errors": "InputError",
    "freq": "ConfidenceInterval DigramTable FrequencyTable PositionalStats TableDistance compare_tables "
    "count_digrams count_letters merge positional_stats proportion_ci rank_order stability_curve",
    "markov": "EntropyReport MarkovTestReport TransitionCounts VC_ALPHABET entropy_estimates fit_transitions "
    "generate independence_test to_vc_sequence",
    "stylometry": "AlbertiVerdict LipogramFlag VariationSummary VCProfile alberti_test compass_of_variation "
    "lipogram_scan two_sample_proportion_test vc_profile",
    "zipf": "PowerLawFit RankEntry RankFrequency fit_power_law word_rank_frequency",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
