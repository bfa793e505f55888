import importlib

import pytest

import letterlab

# every public name of the package, by the module that defines it
PUBLIC = {
    "alphabet": [
        "Alphabet", "AlphabetSpecError", "LetterSequence", "WordSequence", "builtin_alphabet", "builtin_names",
        "load_alphabet", "normalize", "tokenize_words",
    ],
    "cipher": [
        "Cryptogram", "LanguageModel", "LengthWarning", "RestartRecord", "SolverReport", "SubstitutionKey",
        "decrypt", "encrypt", "frequency_match_key", "hill_climb_solve", "length_check", "parse_cryptogram",
        "score",
    ],
    "errors": ["InputError"],
    "freq": [
        "ConfidenceInterval", "DigramTable", "FrequencyTable", "PositionalStats", "TableDistance",
        "compare_tables", "count_digrams", "count_letters", "merge", "positional_stats", "proportion_ci",
        "rank_order", "stability_curve",
    ],
    "markov": [
        "EntropyReport", "MarkovTestReport", "TransitionCounts", "VC_ALPHABET", "entropy_estimates",
        "fit_transitions", "generate", "independence_test", "to_vc_sequence",
    ],
    "stylometry": [
        "AlbertiVerdict", "LipogramFlag", "VariationSummary", "VCProfile", "alberti_test", "compass_of_variation",
        "lipogram_scan", "two_sample_proportion_test", "vc_profile",
    ],
    "zipf": ["PowerLawFit", "RankEntry", "RankFrequency", "fit_power_law", "word_rank_frequency"],
}


def test_all_lists_every_public_name_once():
    assert len(letterlab.__all__) == len(set(letterlab.__all__)) == 59
    assert sorted(letterlab.__all__) == sorted(name for names in PUBLIC.values() for name in names)


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_the_object_its_module_defines(module):
    defining = importlib.import_module(f"letterlab.{module}")
    for name in PUBLIC[module]:
        assert getattr(letterlab, name) is getattr(defining, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from letterlab import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(letterlab.__all__)
    assert all(value is getattr(letterlab, name) for name, value in namespace.items())


def test_dir_lists_every_public_name():
    assert set(letterlab.__all__) <= set(dir(letterlab))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        letterlab.nope
    assert not hasattr(letterlab, "nope")
    with pytest.raises(ImportError):
        exec("from letterlab import nope", {})
