import math

import pytest

from letterlab import (
    InputError,
    RankEntry,
    RankFrequency,
    WordSequence,
    fit_power_law,
    tokenize_words,
    word_rank_frequency,
)


def rf_from_counts(counts):
    entries = tuple(
        RankEntry(rank=i, word=w, count=c) for i, (w, c) in enumerate(counts, start=1)
    )
    return RankFrequency(entries=entries)


def test_word_rank_frequency_basic(en):
    rf = word_rank_frequency(tokenize_words("the cat, the!", en))
    assert [(e.rank, e.word, e.count) for e in rf.entries] == [(1, "the", 2), (2, "cat", 1)]


def test_word_rank_frequency_all_distinct_lexicographic(en):
    rf = word_rank_frequency(tokenize_words("delta alpha charlie bravo", en))
    assert [e.word for e in rf.entries] == ["alpha", "bravo", "charlie", "delta"]
    assert all(e.count == 1 for e in rf.entries)


def test_word_rank_frequency_conserves_tokens(en):
    words = tokenize_words("to be or not to be", en)
    assert word_rank_frequency(words).total == len(words)


def test_word_rank_frequency_empty_errors(en):
    with pytest.raises(InputError):
        word_rank_frequency(WordSequence(en, ()))


def test_rank_frequency_invariants():
    with pytest.raises(InputError):
        rf_from_counts([("a", 1), ("b", 2)])  # increasing counts
    with pytest.raises(InputError):
        RankFrequency(entries=(RankEntry(rank=2, word="a", count=1),))


def test_fit_exact_inverse_rank():
    # counts exactly proportional to 1/r: scale by lcm(1..100) so every
    # count is integral, which the fit's scale invariance makes
    # equivalent to 1000 * r^-1
    m = math.lcm(*range(1, 101))
    rf = rf_from_counts([(f"w{r:03d}", m // r) for r in range(1, 101)])
    fit = fit_power_law(rf, min_count=1)
    assert abs(fit.exponent - 1.0) < 1e-9
    assert abs(fit.r_squared - 1.0) < 1e-9
    assert fit.points_used == 100


def test_fit_exact_inverse_square():
    m = math.lcm(*range(1, 101))
    rf = rf_from_counts([(f"w{r:03d}", (m // r) ** 2) for r in range(1, 101)])
    fit = fit_power_law(rf, min_count=1)
    assert abs(fit.exponent - 2.0) < 1e-9
    assert abs(fit.r_squared - 1.0) < 1e-9


def test_fit_scale_invariance():
    rf1 = rf_from_counts([(f"w{r}", 10**9 // r) for r in range(1, 51)])
    rf10 = rf_from_counts([(f"w{r}", 10 * (10**9 // r)) for r in range(1, 51)])
    f1 = fit_power_law(rf1, min_count=1)
    f10 = fit_power_law(rf10, min_count=1)
    assert abs(f1.exponent - f10.exponent) < 1e-12
    assert abs((f10.intercept - f1.intercept) - math.log(10)) < 1e-9


def test_fit_depends_only_on_rank_count_pairs(en):
    # same multiset of words in any order gives the same fit
    words = "a a a a b b b c c d".split()
    rf_fwd = word_rank_frequency(WordSequence(en, tuple(words)))
    rf_rev = word_rank_frequency(WordSequence(en, tuple(reversed(words))))
    assert fit_power_law(rf_fwd, min_count=1) == fit_power_law(rf_rev, min_count=1)


def test_fit_flat_counts_is_exact():
    # for [6, 6, 6] and [7] * 5 the mean of the equal logs rounds off the log
    for n in range(2, 31):
        for c in range(1, 31):
            fit = fit_power_law(rf_from_counts([(f"w{r:02d}", c) for r in range(n)]), min_count=1)
            assert (math.copysign(1.0, fit.exponent), fit.exponent, fit.r_squared) == (1.0, 0.0, 1.0), (n, c)


def test_fit_min_count_filters():
    rf = rf_from_counts([("a", 100), ("b", 50), ("c", 2), ("d", 1)])
    fit = fit_power_law(rf, min_count=5)
    assert fit.points_used == 2


def test_fit_needs_two_points():
    rf = rf_from_counts([("a", 100), ("b", 1)])
    with pytest.raises(InputError):
        fit_power_law(rf, min_count=5)
