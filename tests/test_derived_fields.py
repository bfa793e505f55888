"""Result fields that the other fields determine are computed by their type:
no constructor takes them, and every copy keeps or recomputes them."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from letterlab import (
    AlbertiVerdict,
    DigramTable,
    FrequencyTable,
    MarkovTestReport,
    PositionalStats,
    VCProfile,
    alberti_test,
    builtin_alphabet,
    count_digrams,
    count_letters,
    fit_transitions,
    independence_test,
    normalize,
    positional_stats,
    to_vc_sequence,
    tokenize_words,
)
from letterlab.markov import chi_square_tail_df1
from letterlab.stylometry import ORATOR_THRESHOLD, POETRY_THRESHOLD

EN = builtin_alphabet("en")
TEXT = "the quick brown fox jumps over the lazy dog and the cat sees it"


def samples():
    """One value of each type with derived fields, built the way the library builds it."""
    seq = normalize(TEXT, EN)
    return {
        FrequencyTable: count_letters(seq),
        DigramTable: count_digrams(seq),
        PositionalStats: positional_stats(tokenize_words(TEXT, EN)),
        MarkovTestReport: independence_test(fit_transitions(to_vc_sequence(seq))),
        AlbertiVerdict: alberti_test(VCProfile(5, 7)),
    }


DERIVED = {
    FrequencyTable: ["total"],
    DigramTable: ["total"],
    PositionalStats: ["word_count"],
    MarkovTestReport: ["degrees_of_freedom", "p_value"],
    AlbertiVerdict: ["above_poetry_threshold", "above_orator_threshold", "label"],
}
CASES = [(cls, name) for cls, names in DERIVED.items() for name in names]
IDS = [f"{cls.__name__}.{name}" for cls, name in CASES]


def init_kwargs(value) -> dict:
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}


def reference_verdict(share: Fraction) -> tuple[bool, bool, str]:
    """Flags and label of a share, read off the two thresholds one comparison at a time."""
    above_poetry, above_orator = share > POETRY_THRESHOLD, share > ORATOR_THRESHOLD
    if share in (POETRY_THRESHOLD, ORATOR_THRESHOLD):
        return above_poetry, above_orator, "boundary"
    if above_poetry:
        return True, True, "poetry-consistent"
    return False, above_orator, "orator-consistent" if above_orator else "below-both"


def check_derived(value) -> None:
    """Each derived field equals what it is derived from."""
    if isinstance(value, (FrequencyTable, DigramTable)):
        assert type(value.total) is int and value.total == sum(value.counts.values())
    elif isinstance(value, PositionalStats):
        assert value.word_count == value.initial.total
    elif isinstance(value, MarkovTestReport):
        assert value.degrees_of_freedom == 1
        assert value.p_value == chi_square_tail_df1(value.chi_square)
    else:
        flags = value.above_poetry_threshold, value.above_orator_threshold, value.label
        assert flags == reference_verdict(value.vowel_share)


@pytest.mark.parametrize("cls, name", CASES, ids=IDS)
def test_a_derived_field_is_no_constructor_parameter(cls, name):
    names = [f.name for f in dataclasses.fields(cls)]
    assert dataclasses.fields(cls)[names.index(name)].init is False
    value = samples()[cls]
    with pytest.raises(TypeError):
        cls(**init_kwargs(value), **{name: getattr(value, name)})


@pytest.mark.parametrize("cls", DERIVED, ids=lambda cls: cls.__name__)
def test_a_derived_field_equals_what_it_is_derived_from(cls):
    value = samples()[cls]
    check_derived(value)
    # rebuilt from its constructor parameters alone, the value is the same
    assert cls(**init_kwargs(value)) == value


def test_positional_stats_of_words_counts_each_word():
    ps = positional_stats(tokenize_words(TEXT, EN))
    assert ps.word_count == len(TEXT.split()) == 14


def test_hand_built_positional_stats_reports_its_word_count():
    initial = FrequencyTable.from_counts(EN, {"a": 2, "b": 1})
    empty = FrequencyTable.empty(EN)
    ps = PositionalStats(initial, initial, empty, empty, dict(empty.counts))
    assert ps.word_count == 3


@pytest.mark.parametrize(
    "share",
    [Fraction(1, 2), POETRY_THRESHOLD, Fraction(87, 200), ORATOR_THRESHOLD, Fraction(2, 5), Fraction(0), Fraction(1)],
    ids=["poetry", "at-poetry", "orator", "at-orator", "below", "zero", "one"],
)
def test_alberti_verdict_follows_its_share(share):
    v = AlbertiVerdict(share)
    check_derived(v)
    assert alberti_test(VCProfile(share.numerator, share.denominator - share.numerator)) == v


def test_a_contradictory_alberti_verdict_cannot_be_built():
    with pytest.raises(TypeError):
        AlbertiVerdict(Fraction(1, 2), False, False, "below-both")
    with pytest.raises(TypeError):
        AlbertiVerdict(Fraction(1, 2), label="below-both")
    assert AlbertiVerdict(Fraction(1, 2)).label == "poetry-consistent"


def test_markov_report_p_value_follows_its_chi_square():
    report = MarkovTestReport(chi_square=3.841458820694124, transition_probabilities={})
    assert report.degrees_of_freedom == 1
    assert report.p_value == chi_square_tail_df1(3.841458820694124)


@pytest.mark.parametrize("cls", DERIVED, ids=lambda cls: cls.__name__)
def test_copies_keep_every_derived_field(cls):
    value = samples()[cls]
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert c == value
        for name in DERIVED[cls]:
            assert getattr(c, name) == getattr(value, name)
    # asdict lists the derived fields where they are declared, with their values
    d = dataclasses.asdict(value)
    assert list(d) == [f.name for f in dataclasses.fields(cls)]
    for name in DERIVED[cls]:
        assert d[name] == getattr(value, name)


@pytest.mark.parametrize("cls", DERIVED, ids=lambda cls: cls.__name__)
def test_replace_recomputes_every_derived_field(cls):
    value = samples()[cls]
    assert dataclasses.replace(value) == value
    for name in DERIVED[cls]:
        with pytest.raises(ValueError):
            dataclasses.replace(value, **{name: getattr(value, name)})
    other = {
        FrequencyTable: lambda v: dataclasses.replace(v, counts={**v.counts, "z": v.counts["z"] + 5}),
        DigramTable: lambda v: dataclasses.replace(v, counts={**v.counts, ("z", "z"): 5}),
        PositionalStats: lambda v: dataclasses.replace(v, initial=FrequencyTable.from_counts(EN, {"q": 2})),
        MarkovTestReport: lambda v: dataclasses.replace(v, chi_square=v.chi_square + 1.0),
        AlbertiVerdict: lambda v: dataclasses.replace(v, vowel_share=Fraction(7, 16)),
    }[cls](value)
    check_derived(other)
    assert any(getattr(other, name) != getattr(value, name) for name in DERIVED[cls])
