import copy
import functools
import math
import pickle
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from letterlab import (
    Alphabet,
    DigramTable,
    FrequencyTable,
    InputError,
    LanguageModel,
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
    score,
    stability_curve,
    tokenize_words,
)
from letterlab import alphabet as alphabet_module
from letterlab.freq import _pair_tally
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
    "counts, message",
    [
        ({("a", "b"): 1, ("a", "é"): 1}, "pair ('a','é') not in alphabet 'en'"),
        ({("é", "a"): 1}, "pair ('é','a') not in alphabet 'en'"),
        ({("a", "b"): -1, ("a", "é"): 1}, "negative count"),
        ({("a", "é"): 1, ("a", "b"): -1}, "pair ('a','é') not in alphabet 'en'"),
    ],
    ids=["foreign-second", "foreign-first", "negative-then-foreign", "foreign-then-negative"],
)
def test_digram_table_messages(en, counts, message):
    # the first bad pair in insertion order decides the message
    with pytest.raises(InputError) as excinfo:
        DigramTable(en, counts)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "key",
    [
        ("a", "b", "c"),
        ("a",),
        5,
        # unpacks like ("a", "b"), yet count("a", "b") would never find it
        "ab",
    ],
    ids=["three", "one", "int", "two-letter-string"],
)
def test_digram_table_key_that_is_not_a_pair(en, key):
    # keyed after a good pair: the per-pair loop reaches it as it always did
    with pytest.raises(InputError) as excinfo:
        DigramTable(en, {("a", "b"): 1, key: 1})
    assert str(excinfo.value) == f"digram key {key!r} is not a pair"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"é": 1}, "counts must key every alphabet letter exactly once"),
        ({"a": None}, "counts must key every alphabet letter exactly once"),
        ({"e": -1}, "negative count"),
    ],
    ids=["extra", "missing", "negative"],
)
def test_frequency_table_messages(en, change, message):
    counts = {ch: 0 for ch in en.letters} | change
    counts = {ch: n for ch, n in counts.items() if n is not None}
    with pytest.raises(InputError) as excinfo:
        FrequencyTable(en, counts)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("n", ["1", 1.5, 2.0, None, Fraction(2), np.float64(1)], ids=repr)
def test_a_count_that_is_not_an_integer_is_an_input_error(en, n):
    counts = {ch: 0 for ch in en.letters} | {"e": n}
    with pytest.raises(InputError) as excinfo:
        FrequencyTable(en, counts)
    assert str(excinfo.value) == f"count {n!r} of 'e' is not an integer"
    with pytest.raises(InputError) as excinfo:
        DigramTable(en, {("a", "b"): 1, ("a", "c"): n, ("a", "d"): -1})
    assert str(excinfo.value) == f"count {n!r} of ('a', 'c') is not an integer"


@pytest.mark.parametrize(
    "counts, message",
    [
        ({("a", "b"): "x", ("a", "é"): 1}, "count 'x' of ('a', 'b') is not an integer"),
        ({("a", "é"): "x"}, "pair ('a','é') not in alphabet 'en'"),
        ({("a", "b"): -1, ("a", "c"): 1.5}, "negative count"),
    ],
    ids=["text-then-foreign", "foreign-text", "negative-then-float"],
)
def test_digram_count_messages_name_the_first_bad_entry(en, counts, message):
    with pytest.raises(InputError) as excinfo:
        DigramTable(en, counts)
    assert str(excinfo.value) == message


def test_numpy_integer_counts_give_an_int_total(en):
    table = FrequencyTable(en, {ch: np.int64(2) for ch in en.letters})
    assert table.total == 52 and type(table.total) is int
    digrams = DigramTable(en, {("a", "b"): np.uint8(3), ("b", "a"): True})
    assert digrams.total == 4 and type(digrams.total) is int


@given(st.text(alphabet="abcz", max_size=60))
@example("")
@example("a")
@example("abab")
@example("zzzz")
@example("zz")  # pair code 675, past what one byte holds
@example("yzzy")
def test_counts_match_counter(s):
    en = builtin_alphabet("en")
    letters = count_letters(LetterSequence(en, s))
    assert letters.counts == {ch: s.count(ch) for ch in en.letters}
    pairs = Counter(zip(s, s[1:]))
    digrams = count_digrams(LetterSequence(en, s))
    assert digrams.counts == pairs
    # first-occurrence order, which entropy_estimates sums h2 in
    assert list(digrams.counts) == list(pairs)


def test_a_sequence_is_encoded_once(en, training_model, monkeypatch):
    calls = []
    code_points = alphabet_module._code_points

    def counted(symbols):
        calls.append(symbols)
        return code_points(symbols)

    monkeypatch.setattr(alphabet_module, "_code_points", counted)
    s = seq(en, "thequickbrownfoxjumpsoverthelazydog")
    count_letters(s)
    codes = s._codes
    count_digrams(s)
    stability_curve(s, [5, 10], seed=1)
    score(s, training_model)
    assert s._codes is codes
    assert calls.count(s.symbols) == 1


def test_codes_and_lookup_are_read_only(en):
    s = seq(en, "abc")
    count_letters(s)
    with pytest.raises(ValueError):
        s._codes[0] = 1
    with pytest.raises(ValueError):
        en._lookup[ord("a")] = 1
    assert en._lookup[ord(en.separator)] == len(en)
    assert s._codes.tolist() == [0, 1, 2]


def test_codes_wider_than_one_byte():
    # 300 letters, so codes and pair codes need more than one byte each
    letters = tuple(chr(0x4E00 + i) for i in range(300))
    wide = Alphabet("cjk", letters, frozenset(letters[:5]))
    rng = random.Random(9)
    s = "".join(rng.choice(letters[250:] + letters[:3]) for _ in range(2000))
    sequence = LetterSequence(wide, s)
    assert count_letters(sequence).counts == {ch: s.count(ch) for ch in letters}
    pairs = Counter(zip(s, s[1:]))
    digrams = count_digrams(sequence)
    assert list(digrams.counts.items()) == list(pairs.items())
    assert sequence._codes.max() == 299


@pytest.mark.parametrize("protocol", [*range(pickle.HIGHEST_PROTOCOL + 1), "deepcopy"])
def test_a_counted_sequence_counts_the_same_after_a_copy(protocol, en, training_model, analysis_corpus):
    s = LetterSequence(en, analysis_corpus.symbols[:3000])
    letters, digrams, scored = count_letters(s), count_digrams(s), score(s, training_model)
    back = copy.deepcopy(s) if protocol == "deepcopy" else pickle.loads(pickle.dumps(s, protocol))
    assert back == s and "_codes" in vars(back)  # the cached codes travel with the value
    assert count_letters(back) == letters
    assert list(count_digrams(back).counts.items()) == list(digrams.counts.items())
    assert score(back, training_model).hex() == scored.hex()


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


@pytest.mark.parametrize("value", [1, "ab", None, seq(builtin_alphabet("en"), "ab")], ids=["int", "str", "none", "sequence"])
def test_merge_of_values_that_are_not_tables_is_an_input_error(value):
    with pytest.raises(InputError) as excinfo:
        merge(value, value)
    assert str(excinfo.value) == f"cannot merge {type(value).__name__}"


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


def test_wilson_level_whose_quantile_rounds_to_one():
    level = 1 - 2**-53  # the largest float below 1
    assert (1.0 + level) / 2.0 == 1.0
    with pytest.raises(InputError, match="level"):
        proportion_ci(5, 10, level)


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
    return PositionalStats(
        initial=FrequencyTable(ab, initial),
        final=FrequencyTable(ab, final),
        second=FrequencyTable(ab, second),
        penultimate=FrequencyTable(ab, penult),
        doubles=doubles,
    )


# letters at the lowest code points, so the word separator is "\x02"
LOW = Alphabet(name="low", letters=("\x00", "\x01", "a"), vowels=frozenset("a"))


# 256 letters, so the separator's code, 256, needs a second byte
WIDE = Alphabet(name="wide", letters=tuple(map(chr, range(0x4E00, 0x4F00))), vowels=frozenset("\u4e00"))


@pytest.mark.parametrize("ab", [builtin_alphabet("en"), LOW, WIDE], ids=["en", "low", "wide"])
@given(data=st.data())
def test_positional_stats_matches_per_word_reference(ab, data):
    words = data.draw(st.lists(st.text(alphabet=ab.letters[:3], min_size=1, max_size=6), max_size=10))
    ws = WordSequence(ab, tuple(words))
    assert positional_stats(ws) == positional_reference(ws)
    assert positional_stats(ws).word_count == len(words)


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


# 300 letters, so codes and pair codes take two bytes each
CJK = Alphabet("cjk", tuple(chr(0x4E00 + i) for i in range(300)), frozenset("\u4e00"))


def pool(ab: Alphabet) -> tuple[str, ...]:
    """Letters the block tests draw from: the last ones too, whose pair codes overflow one byte."""
    return ab.letters[:3] + ab.letters[-2:]


@functools.cache
def pool_model(ab: Alphabet) -> LanguageModel:
    return LanguageModel.train(LetterSequence(ab, "".join(pool(ab)) * 2))


def raw_pool(ab: Alphabet) -> tuple[str, ...]:
    """pool(ab), and characters that tokenize_words lowercases, folds or drops: İ
    lowercases to two characters, which are no letter."""
    return pool(ab) + tuple(ch.upper() for ch in pool(ab)) + tuple(src for src, _ in ab.folds) + (" ", "'", "İ")


def words_reference(raw: str, ab: Alphabet) -> list[str]:
    """Maximal letter runs of `raw`, read one character at a time."""
    folds, words, word = dict(ab.folds), [], ""
    for ch in raw:
        ch = folds.get(ch.lower(), ch.lower())
        if ch is not None and ch in ab:
            word += ch
        elif word:
            words.append(word)
            word = ""
    return words + [word] if word else words


def check_blocked_passes(ab: Alphabet, raw: str, block: int) -> None:
    """Tokenizing, encoding and every count, made `block` characters or codes
    at a time, equal their per-character references."""
    words = words_reference(raw, ab)
    s = "".join(words)
    with mock.patch.object(alphabet_module, "BLOCK", block):
        assert tokenize_words(raw, ab).words == tuple(words)
        sequence = LetterSequence(ab, s)
        assert sequence._codes.tolist() == [ab.index(ch) for ch in s]
        framed = ab.separator.join(("", *words, ""))
        assert ab._encode(framed).tolist() == [len(ab) if ch == ab.separator else ab.index(ch) for ch in framed]
        assert count_letters(sequence).counts == {ch: s.count(ch) for ch in ab.letters}
        pairs = Counter(zip(s, s[1:]))
        digrams = count_digrams(sequence)
        assert list(digrams.counts.items()) == list(pairs.items()) and digrams.total == max(0, len(s) - 1)
        tally = _pair_tally(sequence._codes, len(ab)).tolist()
        assert {ab._pairs[p]: n for p, n in enumerate(tally) if n} == pairs
        ws = WordSequence(ab, tuple(words))
        assert positional_stats(ws) == positional_reference(ws)
        if s:
            model = pool_model(ab)
            total = 0.0  # added left to right, as score adds
            for x, y in zip(s, s[1:]):
                total += model._log_probs[ab.index(x), ab.index(y)]
            assert score(sequence, model) == total
            full = FrequencyTable.from_counts(ab, Counter(s))
            sizes = list(range(1, len(s) + 1))
            expected = [(k, compare_tables(FrequencyTable.from_counts(ab, Counter(s[:k])), full)) for k in sizes]
            assert stability_curve(sequence, sizes) == expected


@pytest.mark.parametrize("ab", [builtin_alphabet("en"), builtin_alphabet("la"), CJK], ids=["en", "la", "cjk"])
@given(block=st.integers(1, 5), data=st.data())
def test_blocked_passes_match_per_character_references(ab, block, data):
    check_blocked_passes(ab, data.draw(st.text(alphabet=raw_pool(ab), max_size=40)), block)


@pytest.mark.parametrize(
    "words, block",
    [
        (["ab", "ba"], 2),  # bb spans the codes' block boundary; ba is first seen in the second block
        (["zz", "az"], 2),  # az, first seen in the second block, has a lower code than both pairs before it
        (["zaz"], 1),  # one pair a block
        (["abcab", "zab"], 3),  # ab repeats in later blocks; its first offset stays 0
        (["qqqqq", "a"], 5),  # qa, the last pair of a full block, reads the first code past it
    ],
)
def test_pairs_across_block_boundaries(en, words, block):
    check_blocked_passes(en, " ".join(words), block)


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
def test_words_across_block_edges(block):
    # under la, J and j fold to i and v to u; İ lowercases to two characters and ends a word
    check_blocked_passes(builtin_alphabet("la"), "Jab'vAZİjjv  cabİ'z", block)


def test_equal_words_of_one_block_are_one_object(en):
    with mock.patch.object(alphabet_module, "BLOCK", 6):
        words = tokenize_words("ab ab|cd cd|ab", en).words  # blocks "ab ab|", "cd cd|" and "ab"
    assert words == ("ab", "ab", "cd", "cd", "ab")
    assert words[0] is words[1] and words[2] is words[3]


def test_a_block_shares_its_words_only_if_its_first_ones_repeat(en):
    with mock.patch.object(alphabet_module, "BLOCK", 12), mock.patch.object(alphabet_module, "SHARE_PROBE", 2):
        words = tokenize_words("ab cd ab cd|ab ab cd cd|", en).words  # two blocks of 12 characters
    assert words == ("ab", "cd", "ab", "cd", "ab", "ab", "cd", "cd")
    assert words[0] is not words[2] and words[1] is not words[3]  # "ab cd" repeats nothing: kept as split
    assert words[4] is words[5] and words[6] is words[7]  # "ab ab" repeats: all of the block is shared


def test_counting_temporaries_do_not_grow_with_the_text(en, training_corpus):
    # 2M letters, so one intp temporary of the whole text (16 MB) would be far over the bound
    n = 2_000_000
    s = (training_corpus.symbols * (n // len(training_corpus) + 1))[:n]
    fresh, counted = LetterSequence(en, s), LetterSequence(en, s)
    count_letters(counted)  # encodes it, and imports numpy, outside the traced calls
    raw = read_data("english_training.txt")
    raw = (raw * (n // len(raw) + 1))[:n]
    words = tokenize_words(raw, en)
    calls = {
        "_codes": lambda: fresh._codes,
        "count_letters": lambda: count_letters(counted),
        "count_digrams": lambda: count_digrams(counted),
        "LanguageModel.train": lambda: LanguageModel.train(counted),
        "stability_curve": lambda: stability_curve(counted, [n]),
        "positional_stats": lambda: positional_stats(words),
        "tokenize_words": lambda: tokenize_words(raw, en),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            kept = call()  # held while `now` is read, so `now` is what the call keeps
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        allowed = 0
        if name == "tokenize_words":
            # it keeps one string per distinct word of a block, not one per word (16 MB here),
            # and lists the words before it makes their tuple
            allowed = sys.getsizeof(kept.words)
            assert now - allowed < 4 * 2**20, f"{name}: {now - allowed} bytes of strings"
        assert peak - now < allowed + 4 * 2**20, f"{name}: {peak - now} bytes of temporaries"
