import math
import random
from collections import Counter
from statistics import NormalDist

import pytest
from hypothesis import example, given, settings, strategies as st

from letterlab import (
    Alphabet,
    DigramTable,
    FrequencyTable,
    InputError,
    LetterSequence,
    PositionalStats,
    WordSequence,
    builtin_alphabet,
    builtin_names,
    compare_tables,
    count_digrams,
    count_letters,
    merge,
    positional_stats,
    proportion_ci,
    rank_order,
    stability_curve,
    tokenize_words,
)
from letterlab.rng import substream

from conftest import read_data

# Wilson bounds computed beforehand by solving the score quadratic
# symbolically (sympy), independent of the closed form used in freq.py.
WILSON_ORACLE = {
    (300, 700, 0.95): (0.39239944342145316, 0.4655231061146984),
    (400, 2320, 0.95): (0.15758767094264614, 0.18832295724135595),
    (50, 100, 0.95): (0.4038315303659957, 0.5961684696340044),
}


def seq(en, s):
    return LetterSequence(en, s)


def test_count_letters_basic(en):
    t = count_letters(seq(en, "abb"))
    assert t.counts["a"] == 1 and t.counts["b"] == 2 and t.total == 3
    assert t.counts["z"] == 0  # zero-count letters stay present


def test_count_letters_empty(en):
    t = count_letters(seq(en, ""))
    assert t.total == 0
    assert all(v == 0 for v in t.counts.values())


def test_e_tops_english_corpus(analysis_corpus):
    t = count_letters(analysis_corpus)
    assert rank_order(t)[0] == "e"


def test_count_digrams_basic(en):
    t = count_digrams(seq(en, "aba"))
    assert t.count("a", "b") == 1 and t.count("b", "a") == 1
    assert t.total == 2


def test_count_digrams_single_letter(en):
    t = count_digrams(seq(en, "a"))
    assert t.total == 0 and not t.counts


@pytest.mark.parametrize(
    "counts, total, message",
    [
        ({("a", "b"): 1, ("a", "é"): 1}, 2, "pair ('a','é') not in alphabet 'en'"),
        ({("é", "a"): 1}, 1, "pair ('é','a') not in alphabet 'en'"),
        ({("a", "b"): -1, ("a", "é"): 1}, 0, "negative count"),
        ({("a", "é"): 1, ("a", "b"): -1}, 0, "pair ('a','é') not in alphabet 'en'"),
        ({("a", "b"): 1}, 2, "total does not match counts"),
        ({}, 1, "total does not match counts"),
    ],
    ids=["foreign-second", "foreign-first", "negative-then-foreign", "foreign-then-negative", "total", "empty-total"],
)
def test_digram_table_messages(en, counts, total, message):
    # the first bad pair in insertion order decides the message
    with pytest.raises(InputError) as excinfo:
        DigramTable(en, counts, total)
    assert str(excinfo.value) == message


@given(st.text(alphabet="abcz", max_size=60))
@example("")
@example("a")
@example("abab")
@example("zzzz")
def test_counts_match_counter(s):
    en = builtin_alphabet("en")
    letters = count_letters(LetterSequence(en, s))
    assert letters.counts == {ch: s.count(ch) for ch in en.letters}
    pairs = Counter(zip(s, s[1:]))
    digrams = count_digrams(LetterSequence(en, s))
    assert digrams.counts == pairs
    # first-occurrence order, which entropy_estimates sums h2 in
    assert list(digrams.counts) == list(pairs)


def test_digram_order_on_corpus(analysis_corpus):
    s = analysis_corpus.symbols
    assert list(count_digrams(analysis_corpus).counts.items()) == list(Counter(zip(s, s[1:])).items())


def test_digram_concatenation_brute_force(en):
    # count of the concatenation = merged halves + the one boundary pair
    rng = random.Random(4)
    for _ in range(200):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(1, 12)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(1, 12)))
        whole = count_digrams(seq(en, a + b))
        parts = merge(count_digrams(seq(en, a)), count_digrams(seq(en, b)))
        boundary = (a[-1], b[0])
        expected = dict(parts.counts)
        expected[boundary] = expected.get(boundary, 0) + 1
        assert whole.counts == {k: v for k, v in expected.items() if v}
        assert whole.total == parts.total + 1


def test_merge_equals_whole_count(en):
    assert merge(count_letters(seq(en, "ab")), count_letters(seq(en, "b"))) == count_letters(
        seq(en, "abb")
    )


def test_merge_identity_and_mismatch(en):
    t = count_letters(seq(en, "hello"))
    assert merge(t, FrequencyTable.empty(en)) == t
    fr = builtin_alphabet("fr")
    with pytest.raises(InputError):
        merge(t, FrequencyTable.empty(fr))


def test_merge_random_splits(en):
    rng = random.Random(11)
    letters = "".join(rng.choice("etaoinsh") for _ in range(500))
    whole = count_letters(seq(en, letters))
    cuts = sorted(rng.randint(0, 500) for _ in range(9))
    pieces = []
    prev = 0
    for c in cuts + [500]:
        pieces.append(letters[prev:c])
        prev = c
    folded = FrequencyTable.empty(en)
    for p in pieces:
        folded = merge(folded, count_letters(seq(en, p)))
    assert folded == whole


IBN_ADLAN_COUNTS = {"ā": 600, "l": 400, "m": 320, "h": 270, "w": 260, "y": 250, "n": 220}


def ibn_adlan_table():
    ab = Alphabet(name="arabic-top7", letters=tuple("ālmhwyn"), vowels=frozenset("ā"))
    return FrequencyTable.from_counts(ab, IBN_ADLAN_COUNTS)


def test_rank_order_ibn_adlan_fixture():
    assert rank_order(ibn_adlan_table()) == list("ālmhwyn")


def test_rank_order_all_zero_falls_back_to_alphabet_order(en):
    assert rank_order(FrequencyTable.empty(en)) == list(en.letters)


def test_rank_order_tie_break(en):
    t = FrequencyTable.from_counts(en, {"a": 2, "b": 2, "c": 1})
    assert rank_order(t)[:3] == ["a", "b", "c"]


def test_rank_order_is_permutation(en):
    t = count_letters(seq(en, "mississippi"))
    assert sorted(rank_order(t)) == sorted(en.letters)


# letters out of code-point order, so a tie kept in code-point order would show
UNSORTED = Alphabet(name="unsorted", letters=tuple("zqéab"), vowels=frozenset("éa"))


@given(
    st.sampled_from([*map(builtin_alphabet, builtin_names()), UNSORTED]).flatmap(
        lambda ab: st.tuples(st.just(ab), st.lists(st.integers(0, 2), min_size=len(ab), max_size=len(ab)))
    )
)
def test_rank_order_matches_count_then_index_key(case):
    ab, counts = case
    t = FrequencyTable.from_counts(ab, dict(zip(ab.letters, counts)))
    assert rank_order(t) == sorted(ab.letters, key=lambda ch: (-t.counts[ch], ab.index(ch)))


def test_wilson_zero_count_lower_bound_is_zero():
    ci = proportion_ci(0, 100, 0.95)
    assert ci.lower == 0.0
    assert ci.estimate == 0.0
    assert ci.upper > 0.0


def test_wilson_symmetric_at_half():
    ci = proportion_ci(50, 100, 0.95)
    assert ci.estimate == 0.5
    assert math.isclose(0.5 - ci.lower, ci.upper - 0.5, rel_tol=1e-12)
    lo, hi = WILSON_ORACLE[(50, 100, 0.95)]
    assert math.isclose(ci.lower, lo, abs_tol=1e-9)
    assert math.isclose(ci.upper, hi, abs_tol=1e-9)


def test_wilson_against_independent_oracle():
    for (count, total, level), (lo, hi) in WILSON_ORACLE.items():
        ci = proportion_ci(count, total, level)
        assert math.isclose(ci.lower, lo, abs_tol=1e-9)
        assert math.isclose(ci.upper, hi, abs_tol=1e-9)


def test_wilson_narrows_with_sample_size():
    small = proportion_ci(30, 100, 0.95)
    large = proportion_ci(120, 400, 0.95)
    assert large.upper - large.lower < small.upper - small.lower


def test_wilson_errors():
    with pytest.raises(InputError):
        proportion_ci(1, 0, 0.95)
    with pytest.raises(InputError):
        proportion_ci(5, 10, 1.0)
    with pytest.raises(InputError):
        proportion_ci(11, 10, 0.95)


def four_clamp_wilson(count, total, level):
    """Wilson bounds clamped to [0, 1] and then to the estimate. The estimate
    lies in [0, 1], so the lower bound's clamp at 1 and the upper bound's
    clamp at 0 never decide, and proportion_ci leaves them out."""
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    n = total
    phat = count / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    lower = min(min(max(center - half, 0.0), 1.0), phat)
    upper = max(max(min(center + half, 1.0), 0.0), phat)
    return phat, lower, upper


@example((0, 1), 0.95)
@example((1, 1), 0.95)
@example((0, 10**15), 1 - 2**-52)
@example((10**15, 10**15), 1 - 2**-52)
@example((10**15 - 1, 10**15), 5e-324)
@example((1, 10**15), 1e-300)
@settings(max_examples=300)
@given(
    st.integers(1, 10**15).flatmap(
        lambda total: st.tuples(st.one_of(st.just(0), st.just(total), st.integers(0, total)), st.just(total))
    ),
    # up to the last level below 1 whose (1 + level) / 2 also stays below 1
    st.one_of(
        st.floats(0.0, 1 - 2**-52, exclude_min=True),
        st.sampled_from([5e-324, 1e-300, 1e-9, 1 - 1e-9, 1 - 2**-52]),
    ),
)
def test_wilson_matches_the_four_clamp_formula(case, level):
    count, total = case
    ci = proportion_ci(count, total, level)
    expected = four_clamp_wilson(count, total, level)
    assert (ci.estimate.hex(), ci.lower.hex(), ci.upper.hex()) == tuple(x.hex() for x in expected)


@given(st.integers(0, 50), st.integers(1, 8))
def test_wilson_contains_estimate(count, scale):
    total = max(count, 1) * scale
    ci = proportion_ci(min(count, total), total, 0.9)
    assert ci.lower <= ci.estimate <= ci.upper


def test_compare_identical_tables(en):
    t = count_letters(seq(en, "thequickbrownfox"))
    d = compare_tables(t, t)
    assert d.total_variation == 0.0
    assert d.chi_square == 0.0
    assert d.rank_correlation == 1.0


def test_compare_hand_example(en):
    a = FrequencyTable.from_counts(en, {"x": 1, "y": 1})
    b = FrequencyTable.from_counts(en, {"x": 2})
    d = compare_tables(a, b)
    assert math.isclose(d.total_variation, 0.5)


def test_compare_symmetry_and_errors(en):
    a = count_letters(seq(en, "aaabbc"))
    b = count_letters(seq(en, "abcccc"))
    assert math.isclose(
        compare_tables(a, b).total_variation, compare_tables(b, a).total_variation
    )
    with pytest.raises(InputError):
        compare_tables(a, FrequencyTable.empty(en))


def test_positional_stats_doubles(en):
    words = tokenize_words("letter bell", en)
    ps = positional_stats(words)
    assert ps.doubles["t"] == 1 and ps.doubles["l"] == 1
    assert sum(ps.doubles.values()) == 2


def test_positional_stats_overlapping_doubles(en):
    ps = positional_stats(tokenize_words("aaa", en))
    assert ps.doubles["a"] == 2


def test_positional_stats_initial_final(en):
    ps = positional_stats(tokenize_words("banana bread", en))
    assert ps.initial.counts["b"] == 2
    assert ps.final.counts["a"] == 1 and ps.final.counts["d"] == 1
    assert ps.initial.total == ps.final.total == 2
    assert ps.second.counts["a"] == 1 and ps.second.counts["r"] == 1
    assert ps.penultimate.counts["n"] == 1 and ps.penultimate.counts["a"] == 1


def test_positional_stats_second_total_counts_long_words(en):
    ps = positional_stats(tokenize_words("a ox be", en))
    assert ps.initial.total == 3
    assert ps.second.total == ps.penultimate.total == 2


def positional_reference(words: WordSequence) -> PositionalStats:
    """The per-word loop that positional_stats replaced."""
    ab = words.alphabet
    initial, final, second, penult, doubles = ({ch: 0 for ch in ab.letters} for _ in range(5))
    for w in words.words:
        initial[w[0]] += 1
        final[w[-1]] += 1
        if len(w) >= 2:
            second[w[1]] += 1
            penult[w[-2]] += 1
        for x, y in zip(w, w[1:]):
            if x == y:
                doubles[x] += 1
    n = len(words.words)
    n2 = sum(1 for w in words.words if len(w) >= 2)
    return PositionalStats(
        initial=FrequencyTable(ab, initial, n),
        final=FrequencyTable(ab, final, n),
        second=FrequencyTable(ab, second, n2),
        penultimate=FrequencyTable(ab, penult, n2),
        doubles=doubles,
        word_count=n,
    )


# letters at the lowest code points, so the word separator is "\x02"
LOW = Alphabet(name="low", letters=("\x00", "\x01", "a"), vowels=frozenset("a"))


@pytest.mark.parametrize("ab", [builtin_alphabet("en"), LOW], ids=["en", "low"])
@given(data=st.data())
def test_positional_stats_matches_per_word_reference(ab, data):
    words = data.draw(st.lists(st.text(alphabet=ab.letters[:3], min_size=1, max_size=6), max_size=10))
    ws = WordSequence(ab, tuple(words))
    assert positional_stats(ws) == positional_reference(ws)


@pytest.mark.parametrize("words", [(), ("a",), ("b", "a", "b"), ("aaa", "ab", "bb", "a")])
def test_positional_stats_edge_cases_match_reference(en, words):
    ws = WordSequence(en, words)
    assert positional_stats(ws) == positional_reference(ws)


def test_positional_stats_on_corpus_matches_reference(en):
    words = tokenize_words(read_data("english_analysis.txt"), en)
    assert positional_stats(words) == positional_reference(words)


def test_words_rarely_end_in_i(en):
    # Thicknesse's observation, checked on the committed corpus
    words = tokenize_words(read_data("english_analysis.txt"), en)
    ps = positional_stats(words)
    assert ps.final.counts["i"] / ps.final.total < 0.01


def test_stability_curve_full_length_is_zero(en):
    s = seq(en, "abcabcabc")
    for seed in (None, 3):
        (size, d), = stability_curve(s, [9], seed=seed)
        assert size == 9 and d.total_variation == 0.0


def test_stability_curve_seeded_samples(en, analysis_corpus):
    s = LetterSequence(en, analysis_corpus.symbols[:5000])
    curve = stability_curve(s, [90, 1000], seed=4)
    assert curve == stability_curve(s, [90, 1000], seed=4)
    assert curve != stability_curve(s, [90, 1000], seed=5)
    assert curve != stability_curve(s, [90, 1000])
    # the k-th sample depends on the seed, k and its size only
    assert curve[1] == stability_curve(s, [500, 1000], seed=4)[1]


def seeded_sample_reference(symbols: str, size: int, seed: int, k: int) -> str:
    """The list-based partial Fisher-Yates that seeded stability_curve replaced."""
    rng = substream(seed, k)
    pool = list(symbols)
    n = len(pool)
    for i in range(size):
        j = i + rng.next_below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return "".join(pool[:size])


def test_stability_curve_matches_per_sample_reference(en, analysis_corpus):
    s = LetterSequence(en, analysis_corpus.symbols[:3000])
    full = count_letters(s)
    sizes = [1, 2, 90, 1000, 2999, 3000]

    def curve(sample):
        return [(size, compare_tables(count_letters(LetterSequence(en, sample(k, size))), full))
                for k, size in enumerate(sizes)]

    assert stability_curve(s, sizes) == curve(lambda k, size: s.symbols[:size])
    for seed in (0, 7):
        expected = curve(lambda k, size: seeded_sample_reference(s.symbols, size, seed, k))
        assert stability_curve(s, sizes, seed=seed) == expected


def test_stability_curve_size_one(en):
    s = seq(en, "aab")
    full = count_letters(s)
    (_, d), = stability_curve(s, [1])
    assert math.isclose(d.total_variation, 1.0 - full.proportion("a"))


def test_stability_curve_errors(en):
    s = seq(en, "abc")
    with pytest.raises(InputError):
        stability_curve(s, [4])
    with pytest.raises(InputError):
        stability_curve(s, [0])
    with pytest.raises(InputError):
        stability_curve(s, [1, 4], seed=1)
