import dataclasses
import hashlib
import math
import pickle
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from letterlab import (
    Alphabet,
    Cryptogram,
    DigramTable,
    FrequencyTable,
    InputError,
    LanguageModel,
    LetterSequence,
    SubstitutionKey,
    builtin_alphabet,
    count_letters,
    decrypt,
    encrypt,
    frequency_match_key,
    hill_climb_solve,
    length_check,
    load_alphabet,
    normalize,
    parse_cryptogram,
    rank_order,
    score,
)
from conftest import read_data
from letterlab.cipher import _swap_plan
from letterlab.rng import substream

ABC = Alphabet(name="abc", letters=("a", "b", "c"), vowels=frozenset("a"))


def en_key(en, targets: str) -> SubstitutionKey:
    return SubstitutionKey.from_target_string(en, targets)


def test_encrypt_identity(en):
    seq = normalize("abc", en)
    c = encrypt(seq, en_key(en, "".join(en.letters)))
    assert c.symbols == "abc"


def test_encrypt_caesar_shift(en):
    shifted = "bcdefghijklmnopqrstuvwxyza"
    c = encrypt(normalize("ab", en), en_key(en, shifted))
    assert c.symbols == "bc"


def test_round_trip_fixed_random_keys(en):
    rng = random.Random(17)
    lengths = [1000] + [rng.randint(0, 100) for _ in range(49)]
    for n in lengths:
        targets = list(en.letters)
        rng.shuffle(targets)
        key = en_key(en, "".join(targets))
        text = "".join(rng.choice(en.letters) for _ in range(n))
        seq = LetterSequence(en, text)
        assert decrypt(encrypt(seq, key), key) == seq


@settings(max_examples=60)
@given(
    st.permutations("abcdefghijklmnopqrstuvwxyz"),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=60),
)
def test_round_trip_property(perm, text):
    en = builtin_alphabet("en")
    key = en_key(en, "".join(perm))
    seq = LetterSequence(en, text)
    assert decrypt(encrypt(seq, key), key).symbols == text


def test_key_must_be_bijection(en):
    mapping = {ch: "a" for ch in en.letters}
    with pytest.raises(InputError):
        SubstitutionKey(en, mapping)


def test_foreign_cryptogram_symbol_messages_name_the_first_one(en):
    # "É" / "Q" come first in the text but sort after "!" / "A"
    with pytest.raises(InputError, match="cryptogram symbol 'É' outside the expected inventory"):
        Cryptogram(en, "aÉb!", tuple(en.letters))
    upper = Cryptogram(en, "QAZ", tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    with pytest.raises(InputError, match="cryptogram symbol 'Q' not produced by this key"):
        decrypt(upper, en_key(en, "".join(en.letters)))


def test_cryptogram_symbols_are_single_characters(en):
    # the solver maps the inventory onto the letters one character each
    for bad in ("zz", ""):
        with pytest.raises(InputError, match="^cipher symbols must be single characters$"):
            Cryptogram(en, "bcd", (bad, *en.letters[1:]))


@pytest.mark.parametrize("symbols", [list("abc"), ("a", "b"), b"abc", None, 5], ids=repr)
def test_cryptogram_symbols_must_be_a_string(en, symbols):
    with pytest.raises(InputError, match=f"^symbols must be a string, not {type(symbols).__name__}$"):
        Cryptogram(en, symbols, tuple(en.letters))


def test_parse_cryptogram_ignores_whitespace_rejects_unknown(en):
    c = parse_cryptogram("AB c\nd", en)
    assert c.symbols == "abcd"
    with pytest.raises(InputError):
        parse_cryptogram("ab!", en)


def parse_reference(text: str, alphabet) -> str:
    """The per-character loop that parse_cryptogram replaced."""
    out = []
    for ch in text:
        if ch.isspace():
            continue
        low = ch if ch in alphabet else ch.lower()
        if low not in alphabet:
            raise InputError(f"unexpected cryptogram symbol {ch!r}")
        out.append(low)
    return "".join(out)


# "Σ" lowercases to "σ" on its own but to "ς" at a word end in str.lower()
MIXED = load_alphabet("name: mixed\nletters: abikσ\nvowels: a\n")
PARSE_CHARS = "aAbBiIkK\u212aσΣςİé!, \n\t\x1c\u3000\u00a0"


def assert_parses_like_reference(text, alphabet):
    try:
        expected = parse_reference(text, alphabet)
    except InputError as exc:
        with pytest.raises(InputError, match=re.escape(str(exc))):
            parse_cryptogram(text, alphabet)
    else:
        assert parse_cryptogram(text, alphabet).symbols == expected


@pytest.mark.parametrize(
    "text",
    ["Ab\x1cc\u3000D \n", "aΣ", "ΑΣ", "ab Σ\tσΣ", "abİc", "İ!", "ab\u212aK", "aÉb!", "a!bÉ", ""],
)
def test_parse_cryptogram_matches_per_character_reference(text):
    assert_parses_like_reference(text, MIXED)


def test_parse_cryptogram_lowercases_per_character():
    assert parse_cryptogram("aΣ", MIXED).symbols == "aσ"


@given(st.text(alphabet=PARSE_CHARS, max_size=20))
def test_parse_cryptogram_matches_per_character_reference_random(text):
    assert_parses_like_reference(text, MIXED)


UPPER = load_alphabet(
    "name: upper\nletters: ABCDEFGHIJKLMNOPQRSTUVWXYZ\nvowels: AEIOU\n"
    + "".join(f"fold: {ch.lower()} > {ch}\n" for ch in "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
)


def test_parse_cryptogram_keeps_uppercase_letters():
    assert parse_cryptogram("WKH TXLFN", UPPER).symbols == "WKHTXLFN"
    with pytest.raises(InputError, match="^unexpected cryptogram symbol 'w'$"):
        parse_cryptogram("wkh", UPPER)


def test_parse_cryptogram_keeps_a_letter_that_lowercasing_changes():
    # "A" is a letter in its own right, not another spelling of "a"
    mixed_case = load_alphabet("name: mixed-case\nletters: aAbc\nvowels: a\nfold: ä > A\n")
    assert parse_cryptogram("A a b c", mixed_case).symbols == "Aabc"
    assert parse_cryptogram("B C", mixed_case).symbols == "bc"


def test_frequency_match_key_definitional():
    xyz = Alphabet(name="xyz", letters=("x", "y", "z"), vowels=frozenset("x"))
    eta = Alphabet(name="eta", letters=("e", "t", "a"), vowels=frozenset("e"))
    cipher_table = FrequencyTable.from_counts(xyz, {"x": 9, "y": 4, "z": 2})
    reference = FrequencyTable.from_counts(eta, {"e": 5, "t": 3, "a": 1})
    key = frequency_match_key(cipher_table, reference)
    assert key.mapping == {"e": "x", "t": "y", "a": "z"}


def test_frequency_match_key_all_tied_uses_alphabet_order(en):
    cipher_table = FrequencyTable.from_counts(en, {ch: 7 for ch in en.letters})
    reference = FrequencyTable.from_counts(en, {ch: 7 for ch in en.letters})
    key = frequency_match_key(cipher_table, reference)
    assert key.mapping == {ch: ch for ch in en.letters}


def test_frequency_match_key_size_mismatch(en):
    with pytest.raises(InputError):
        frequency_match_key(FrequencyTable.empty(ABC), FrequencyTable.empty(en))


def test_frequency_match_recovers_top_letter(en, analysis_corpus, training_model):
    rng = random.Random(23)
    targets = list(en.letters)
    rng.shuffle(targets)
    true_key = en_key(en, "".join(targets))
    c = encrypt(analysis_corpus, true_key)
    cipher_table = count_letters(LetterSequence(en, c.symbols))
    key = frequency_match_key(cipher_table, training_model.unigram)
    top_reference_letter = rank_order(training_model.unigram)[0]
    assert top_reference_letter == "e"
    assert key.mapping["e"] == true_key.mapping["e"]


def test_score_prefers_its_own_training_text(en):
    ab_text = normalize("ab" * 40, en)
    trained = LanguageModel.train(ab_text)
    empty = LanguageModel(
        unigram=FrequencyTable.empty(en),
        digram=DigramTable(en, {}, 0),
    )
    assert score(ab_text, trained) > score(ab_text, empty)


def test_score_uniform_model_closed_form(en):
    # a model with no observations scores every pair at log(1/26)
    empty = LanguageModel(
        unigram=FrequencyTable.empty(en),
        digram=DigramTable(en, {}, 0),
    )
    seq = normalize("lettercounting", en)
    expected = (len(seq.symbols) - 1) * math.log(1 / 26)
    assert math.isclose(score(seq, empty), expected, rel_tol=1e-12)


def test_score_matches_per_pair_reference(en, analysis_corpus, training_model):
    s, m = analysis_corpus.symbols[:3000], training_model
    total = 0.0
    for a, b in zip(s, s[1:]):
        den = m.unigram.counts[a] + m.smoothing * len(en.letters)
        total += math.log((m.digram.count(a, b) + m.smoothing) / den)
    assert score(LetterSequence(en, s), m) == total


def test_score_empty_sequence_errors(en, training_model):
    with pytest.raises(InputError):
        score(LetterSequence(en, ""), training_model)


def test_a_model_builds_its_log_probability_table_once(monkeypatch, en, training_corpus, solver_plaintext):
    model = LanguageModel.train(training_corpus)
    c = encrypt(LetterSequence(en, solver_plaintext.symbols[:300]), en_key(en, "zyxwvutsrqponmlkjihgfedcba"))
    # the table takes one math.log per letter pair, so each build makes 26 * 26 calls
    real_log, calls = math.log, []
    monkeypatch.setattr(math, "log", lambda x: calls.append(x) or real_log(x))
    first = hill_climb_solve(c, model, restarts=2, seed=3)
    assert len(calls) == 26 * 26
    # a later solve or score on the same model reads the same table
    assert hill_climb_solve(c, model, restarts=2, seed=3) == first
    assert score(first.plaintext, model) == first.best_score
    assert len(calls) == 26 * 26


def test_log_probability_table_is_read_only(en, training_model, solver_plaintext):
    seq = LetterSequence(en, solver_plaintext.symbols[:200])
    before = score(seq, training_model)
    with pytest.raises(ValueError):
        training_model._log_probs[0, 0] = 0.0
    assert score(seq, training_model) == before


def test_replaced_smoothing_scores_with_the_new_pseudo_count(en, training_model, solver_plaintext):
    seq = LetterSequence(en, solver_plaintext.symbols[:500])
    at_half = score(seq, training_model)  # the 0.5 table exists before the replace
    replaced = dataclasses.replace(training_model, smoothing=2.0)
    direct = LanguageModel(training_model.unigram, training_model.digram, smoothing=2.0)
    assert score(seq, replaced).hex() == score(seq, direct).hex()
    assert score(seq, replaced) != at_half


@pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf, 0.0, -0.5], ids=repr)
def test_smoothing_must_be_positive_and_finite(training_model, smoothing):
    # a NaN or infinite pseudo-count would make every log-probability NaN
    for make in (
        lambda: dataclasses.replace(training_model, smoothing=smoothing),
        lambda: LanguageModel(training_model.unigram, training_model.digram, smoothing=smoothing),
    ):
        with pytest.raises(InputError) as excinfo:
            make()
        assert str(excinfo.value) == f"smoothing pseudo-count must be positive and finite, got {smoothing!r}"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickled_model_that_has_scored_scores_the_same(protocol, en, training_model, solver_plaintext):
    seq = LetterSequence(en, solver_plaintext.symbols[:500])
    before = score(seq, training_model)
    back = pickle.loads(pickle.dumps(training_model, protocol))
    assert back == training_model
    assert score(seq, back).hex() == before.hex()


def test_score_invariant_under_relabeling(en, training_model):
    rng = random.Random(31)
    targets = list(en.letters)
    rng.shuffle(targets)
    relabel = dict(zip(en.letters, targets))
    seq = normalize("the quick brown fox jumps over the lazy dog", en)
    seq2 = LetterSequence(en, "".join(relabel[ch] for ch in seq.symbols))
    uni2 = FrequencyTable.from_counts(
        en, {relabel[ch]: training_model.unigram.counts[ch] for ch in en.letters}
    )
    dig2 = DigramTable(
        en,
        {(relabel[a], relabel[b]): n for (a, b), n in training_model.digram.counts.items()},
        training_model.digram.total,
    )
    model2 = LanguageModel(unigram=uni2, digram=dig2, smoothing=training_model.smoothing)
    assert score(seq, training_model) == score(seq2, model2)


def test_score_english_beats_shuffled(en, analysis_corpus, training_model):
    rng = random.Random(41)
    wins = 0
    trials = 100
    for i in range(trials):
        start = rng.randint(0, len(analysis_corpus.symbols) - 100)
        chunk = analysis_corpus.symbols[start : start + 100]
        shuffled = list(chunk)
        rng.shuffle(shuffled)
        s_real = score(LetterSequence(en, chunk), training_model)
        s_shuf = score(LetterSequence(en, "".join(shuffled)), training_model)
        if s_real > s_shuf:
            wins += 1
    assert wins >= 95


def test_length_check_thresholds(en):
    short = Cryptogram(en, "a" * 89, tuple(en.letters))
    exact = Cryptogram(en, "a" * 90, tuple(en.letters))
    empty = Cryptogram(en, "", tuple(en.letters))
    assert length_check(short) is not None
    assert length_check(short).threshold == 90
    assert length_check(exact) is None
    assert length_check(empty) is not None
    assert length_check(exact, threshold=91) is not None
    # 0 is a threshold no cryptogram falls below; a negative one is an error
    assert length_check(empty, threshold=0) is None
    with pytest.raises(InputError, match="^length warning threshold must be at least 0, got -3$"):
        length_check(exact, threshold=-3)


def test_solver_on_plaintext_returns_plaintext(en, analysis_corpus):
    seq = LetterSequence(en, analysis_corpus.symbols[:1500])
    model = LanguageModel.train(seq)
    c = parse_cryptogram(seq.symbols, en)
    report = hill_climb_solve(c, model, restarts=2, seed=5)
    assert report.plaintext.symbols == seq.symbols


def test_solver_warns_on_short_cryptogram(en, training_model):
    c = parse_cryptogram("shortmessageonly" * 3, en)  # 48 symbols
    report = hill_climb_solve(c, training_model, restarts=2, seed=1)
    assert report.length_warning is not None
    assert report.length_warning.length == 48


def test_solver_monotone_improvement(en, training_model, solver_plaintext):
    rng = random.Random(77)
    targets = list(en.letters)
    rng.shuffle(targets)
    c = encrypt(solver_plaintext, en_key(en, "".join(targets)))
    cipher_table = count_letters(LetterSequence(en, c.symbols))
    seed_key = frequency_match_key(cipher_table, training_model.unigram)
    seed_score = score(decrypt(c, seed_key), training_model)
    report = hill_climb_solve(c, training_model, restarts=3, seed=2)
    assert report.best_score >= seed_score
    assert report.best_score == score(report.plaintext, training_model)


def test_solver_reproducible(en, training_model, solver_plaintext):
    rng = random.Random(88)
    targets = list(en.letters)
    rng.shuffle(targets)
    c = encrypt(solver_plaintext, en_key(en, "".join(targets)))
    r1 = hill_climb_solve(c, training_model, restarts=4, seed=99)
    r2 = hill_climb_solve(c, training_model, restarts=4, seed=99)
    assert r1 == r2
    assert r1.restarts_run == 4


def solve_reference(c, model, restarts, seed, with_score=False):
    """Best key of the per-swap double loop (swap, rescore, swap back) that
    hill_climb_solve's one-expression sweep replaced, and with `with_score`
    its full score too."""
    size = len(c.symbol_set)
    logp = model._log_probs
    codes = np.array([c.symbol_set.index(ch) for ch in c.symbols])
    ndig = np.bincount(codes[:-1] * size + codes[1:], minlength=size * size).reshape(size, size).astype(float)

    def evaluate(a):
        return float((ndig * logp[np.ix_(a, a)]).sum())

    seed_key = frequency_match_key(count_letters(LetterSequence(c.alphabet, c.symbols)), model.unigram)
    best, best_score = None, -math.inf
    for r in range(1, restarts + 1):
        if r == 1:
            a = np.array([c.alphabet.index(ch) for ch in sorted(seed_key.mapping, key=seed_key.mapping.get)])
        else:
            perm = list(range(size))
            substream(seed, r).shuffle(perm)
            a = np.array(perm)
        current = evaluate(a)
        while True:
            best_swap, best_gain = None, current
            for i in range(size - 1):
                for j in range(i + 1, size):
                    a[i], a[j] = a[j], a[i]
                    cand = evaluate(a)
                    a[i], a[j] = a[j], a[i]
                    if cand > best_gain:
                        best_gain, best_swap = cand, (i, j)
            if best_swap is None:
                break
            i, j = best_swap
            a[i], a[j] = a[j], a[i]
            current = best_gain
        if current > best_score:
            best, best_score = a.copy(), current
    key = "".join(c.symbol_set[list(best).index(k)] for k in range(size))
    return (key, best_score) if with_score else key


def test_solver_matches_double_loop_reference(en, analysis_corpus):
    model = LanguageModel.train(LetterSequence(en, analysis_corpus.symbols[:20000]))
    rng = random.Random(5)
    for length in (60, 150):
        targets = list(en.letters)
        rng.shuffle(targets)
        c = encrypt(LetterSequence(en, analysis_corpus.symbols[-length:]), en_key(en, "".join(targets)))
        report = hill_climb_solve(c, model, restarts=3, seed=8)
        assert report.best_key.target_string() == solve_reference(c, model, restarts=3, seed=8)


def test_solver_takes_the_first_of_equal_best_swaps():
    abcd = Alphabet(name="abcd", letters=tuple("abcd"), vowels=frozenset("a"))
    model = LanguageModel.train(LetterSequence(abcd, "ab" * 50))
    c = parse_cryptogram("aaaaaaaa", abcd)
    # the model never saw c or d, so giving symbol a either one scores the
    # same; swap (0, 2) comes before (0, 3)
    report = hill_climb_solve(c, model, restarts=1)
    assert report.plaintext.symbols == "cccccccc"
    assert report.best_key.target_string() == solve_reference(c, model, restarts=1, seed=0)


ABCD = Alphabet(name="abcd", letters=tuple("abcd"), vowels=frozenset("a"))
LA = builtin_alphabet("la")


# real ties between swaps whose deltas or full scores differ in the last bit
@example((LA, "bca", "gbag"), 0, 1)
@example((LA, "cadcbec", "aaabac"), 0, 1)
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([ABCD, LA]).flatmap(
        lambda ab: st.tuples(
            st.just(ab),
            st.text(alphabet="".join(ab.letters), max_size=300),
            st.text(alphabet="".join(ab.letters), min_size=1, max_size=300),
        )
    ),
    st.integers(0, 2**64 - 1),
    st.integers(1, 3),
)
def test_solver_matches_double_loop_reference_random(case, seed, restarts):
    # on four letters most swaps tie, so the first-of-equal rule is exercised
    alphabet, training, symbols = case
    model = LanguageModel.train(LetterSequence(alphabet, training))
    c = Cryptogram(alphabet, symbols, tuple(alphabet.letters))
    report = hill_climb_solve(c, model, restarts=restarts, seed=seed)
    expected_key, expected_score = solve_reference(c, model, restarts, seed, with_score=True)
    assert report.best_key.target_string() == expected_key
    assert max(r.final_score for r in report.restarts) == expected_score


def test_solver_reads_any_inventory_by_position(en, training_model, solver_plaintext):
    # the same key into lowercase and into uppercase symbols: the inventories
    # sort alike, so each symbol stands in for the same letter in both solves
    targets = list(en.letters)
    random.Random(21).shuffle(targets)
    plain = LetterSequence(en, solver_plaintext.symbols[:300])
    lower = hill_climb_solve(encrypt(plain, en_key(en, "".join(targets))), training_model, restarts=3, seed=6)
    upper = hill_climb_solve(encrypt(plain, en_key(en, "".join(targets).upper())), training_model, restarts=3, seed=6)
    assert upper.best_key.target_string() == lower.best_key.target_string().upper()
    assert upper.plaintext == lower.plaintext
    assert upper.best_score.hex() == lower.best_score.hex()
    assert upper.restarts == lower.restarts


def test_solver_on_a_300_letter_alphabet():
    # letter codes past 255 are two bytes wide, and pair codes reach 89,999:
    # the solver widens them before it counts digrams. The model's letter i
    # occurs 300 - i times; the cryptogram adds three runs of the last 100
    # letters, so its ranks tie and cross there and the climb must swap.
    letters = tuple(chr(0x4E00 + i) for i in range(300))
    ab = Alphabet(name="cjk", letters=letters, vowels=frozenset(letters[:60]))
    text = "".join("".join(letters[:k]) for k in range(300, 0, -1))
    model = LanguageModel.train(LetterSequence(ab, text))
    targets = list(letters)
    random.Random(300).shuffle(targets)
    key = SubstitutionKey.from_target_string(ab, "".join(targets))
    report = hill_climb_solve(encrypt(LetterSequence(ab, text + "".join(letters[200:]) * 3), key), model, restarts=1)
    assert report.best_key == key
    assert report.best_score.hex() == "-0x1.dacd89537c23cp+14"
    (record,) = report.restarts
    assert (record.start_score.hex(), record.final_score.hex(), record.swaps) == (
        "-0x1.026c4f6705c0ep+15",
        "-0x1.dacd89537c20ep+14",
        6,
    )


def test_solver_on_the_23_letter_latin_alphabet_is_pinned_to_the_bit():
    # recorded before the sweep gathered its deltas at four corners per swap:
    # the flat corner positions are then checked at a size other than 26
    la = builtin_alphabet("la")
    model = LanguageModel.train(normalize(read_data("english_training.txt"), la))
    plain = normalize(read_data("solver_plaintext.txt"), la).symbols[:500]
    targets = list(la.letters)
    random.Random(23).shuffle(targets)
    c = encrypt(LetterSequence(la, plain), SubstitutionKey.from_target_string(la, "".join(targets)))
    report = hill_climb_solve(c, model, restarts=3, seed=23)
    assert report.best_key.target_string() == "qgtifaulrxecdpbknozhmys"
    assert report.best_score.hex() == "-0x1.4e98c280bd605p+10"
    assert tuple((r.start_score.hex(), r.final_score.hex(), r.swaps) for r in report.restarts) == (
        ("-0x1.a235a094563b1p+10", "-0x1.4e98c280bd5fcp+10", 9),
        ("-0x1.47e14438670bep+11", "-0x1.78fb5285fd1f5p+10", 20),
        ("-0x1.0d367909b1f3dp+11", "-0x1.74285c1c4b6ecp+10", 23),
    )


def test_solver_on_a_two_letter_alphabet_makes_its_single_swap():
    # one swap only; the restarts that start from the wrong key make it
    ab = Alphabet(name="ab", letters=("a", "b"), vowels=frozenset("a"))
    rng = random.Random(2)
    model = LanguageModel.train(LetterSequence(ab, "".join(rng.choice(["a", "ab", "abb"]) for _ in range(300))))
    plain = "".join(rng.choice(["a", "ab", "abb", "bb"]) for _ in range(40))
    key = SubstitutionKey.from_target_string(ab, "ba")
    report = hill_climb_solve(encrypt(LetterSequence(ab, plain), key), model, restarts=4, seed=2)
    assert report.best_key == key
    assert report.best_score.hex() == "-0x1.b2d65194a48dcp+5"
    assert tuple((r.start_score.hex(), r.final_score.hex(), r.swaps) for r in report.restarts) == (
        ("-0x1.b2d65194a48dcp+5", "-0x1.b2d65194a48dcp+5", 0),
        ("-0x1.b5cda5a9fc7b2p+5", "-0x1.b2d65194a48dcp+5", 1),
        ("-0x1.b2d65194a48dcp+5", "-0x1.b2d65194a48dcp+5", 0),
        ("-0x1.b5cda5a9fc7b2p+5", "-0x1.b2d65194a48dcp+5", 1),
    )


def test_solver_skips_swaps_of_symbols_the_cryptogram_never_uses():
    # 101 of 300 symbols occur, so most swaps move only zero rows and columns
    # of the digram counts. Key, hex score and record were recorded before such
    # swaps were left out, when this solve took 11 s: rescoring them in full
    # changed nothing.
    letters = tuple(chr(0x4E00 + i) for i in range(300))
    ab = Alphabet(name="cjk", letters=letters, vowels=frozenset(letters[:60]))
    rng = random.Random(22)
    weights = [1 / (i + 1) for i in range(300)]
    model = LanguageModel.train(LetterSequence(ab, "".join(rng.choices(letters, weights, k=30_000))))
    plain = "".join(rng.choices(letters, weights, k=300))
    targets = list(letters)
    rng.shuffle(targets)
    c = encrypt(LetterSequence(ab, plain), SubstitutionKey.from_target_string(ab, "".join(targets)))
    assert len(set(c.symbols)) == 101
    report = hill_climb_solve(c, model, restarts=1)
    key = "".join(report.best_key.mapping[ch] for ch in letters)
    assert hashlib.sha256(key.encode()).hexdigest() == "179e62e4754c88096098fe8c8f346aa82c5f9ee9e73356142db30fdf7a043863"
    assert report.best_score.hex() == "-0x1.26ce06ecf5cb1p+10"
    (record,) = report.restarts
    assert (record.start_score.hex(), record.final_score.hex(), record.swaps) == (
        "-0x1.3fbeae39465fep+10",
        "-0x1.26ce06ecf5cb3p+10",
        69,
    )


def test_solver_on_a_one_symbol_cryptogram_makes_no_swap(en, training_model):
    report = hill_climb_solve(parse_cryptogram("q", en), training_model, restarts=3, seed=5)
    assert [r.swaps for r in report.restarts] == [0, 0, 0]
    assert all(r.start_score == r.final_score == 0.0 for r in report.restarts)


def test_solver_keeps_one_record_per_restart(en, training_model, solver_plaintext):
    rng = random.Random(61)
    targets = list(en.letters)
    rng.shuffle(targets)
    c = encrypt(LetterSequence(en, solver_plaintext.symbols[:400]), en_key(en, "".join(targets)))
    report = hill_climb_solve(c, training_model, restarts=5, seed=4)
    records = report.restarts
    assert len(records) == 5
    seed_key = frequency_match_key(count_letters(LetterSequence(en, c.symbols)), training_model.unigram)
    assert records[0].start_score == pytest.approx(score(decrypt(c, seed_key), training_model), rel=1e-12)
    for r in records:
        assert r.final_score >= r.start_score
        assert (r.swaps == 0) == (r.final_score == r.start_score)
    best = max(r.final_score for r in records)
    winner = next(i for i, r in enumerate(records, start=1) if r.final_score == best)
    assert report.best_score == pytest.approx(best, rel=1e-12)
    # the earlier restarts alone end lower; adding the winner reaches its key
    if winner > 1:
        assert hill_climb_solve(c, training_model, restarts=winner - 1, seed=4).best_score < report.best_score
    assert hill_climb_solve(c, training_model, restarts=winner, seed=4).best_key == report.best_key
    # the records trace the search; they take no part in equality
    assert dataclasses.replace(report, restarts=()) == report


# hill_climb_solve(restarts=4, seed=19) on the first `length` letters of the
# solver plaintext, under the key random.Random(length) shuffles: the key, the
# best score and each restart's (start_score, final_score, swaps), every
# float as its hex, so a change in the last bit of a record shows here
SOLVER_PINS = [
    (120, "xtwzrhsvigykoaejbpflmnuqcd", "-0x1.4a90b41e8bb16p+8", (
        ("-0x1.b25881880136bp+8", "-0x1.60a0cfefbdb12p+8", 9),
        ("-0x1.30f295de5fe96p+9", "-0x1.52c8ddbc38a18p+8", 24),
        ("-0x1.2dd48a02486dap+9", "-0x1.4d3594e961a31p+8", 16),
        ("-0x1.3ccc4c18aeb2bp+9", "-0x1.4a90b41e8bb18p+8", 17),
    )),
    (400, "falbemquytwgkdhzxvnopscirj", "-0x1.fef7ffeb16cdap+9", (
        ("-0x1.4d2174af6d646p+10", "-0x1.285b43802e184p+10", 10),
        ("-0x1.f651d0994809ap+10", "-0x1.2c592e72c368ap+10", 17),
        ("-0x1.d118e0e1fe45ep+10", "-0x1.32d4508591d31p+10", 22),
        ("-0x1.11adf20420041p+11", "-0x1.fef7ffeb16cdcp+9", 39),
    )),
    (2000, "qncyuzjxhldarwvktgmesfipbo", "-0x1.44062078d7e31p+12", (
        ("-0x1.a18ad227f3ddap+12", "-0x1.44062078d7e32p+12", 13),
        ("-0x1.2dc213d98b1bcp+13", "-0x1.881bbe027a9dcp+12", 23),
        ("-0x1.2a7ee74f9c200p+13", "-0x1.44062078d7e32p+12", 26),
        ("-0x1.50be56ecd302ep+13", "-0x1.44062078d7e32p+12", 24),
    )),
]


@pytest.mark.parametrize("length, key, best, records", SOLVER_PINS, ids=[f"len{p[0]}" for p in SOLVER_PINS])
def test_solver_results_are_pinned_to_the_bit(en, training_model, solver_plaintext, length, key, best, records):
    targets = list(en.letters)
    random.Random(length).shuffle(targets)
    c = encrypt(LetterSequence(en, solver_plaintext.symbols[:length]), en_key(en, "".join(targets)))
    report = hill_climb_solve(c, training_model, restarts=4, seed=19)
    assert report.best_key.target_string() == key
    assert report.best_score.hex() == best
    assert tuple((r.start_score.hex(), r.final_score.hex(), r.swaps) for r in report.restarts) == records


def reference_hill_climb(c, model, restarts, seed):
    """hill_climb_solve with a sweep that always rescores in full: every swap
    within slack of the best delta, and the current key, whose full score is
    known at every sweep. Returns the best key's target string, the hex of its
    score() and each restart's (start, final, swaps) with the scores in hex."""
    ab, size = c.alphabet, len(c.symbol_set)
    logp = model._log_probs
    stand_in = LetterSequence(ab, c.symbols.translate(str.maketrans("".join(c.symbol_set), "".join(ab.letters))))
    pairs = np.multiply(stand_in._codes[:-1], size, dtype=np.intp) + stand_in._codes[1:]
    ndig = np.bincount(pairs, minlength=size * size).reshape(size, size).astype(float)
    inverse = frequency_match_key(count_letters(stand_in), model.unigram).inverse()
    first, second, deltas = _swap_plan(ndig, logp)
    slack = 1e-9 * ndig.sum() * np.abs(logp).max()

    def full_score(a):
        return (ndig * logp.take(a, 0).take(a, 1)).sum()

    finals, records = [], []
    for r in range(1, restarts + 1):
        if r == 1:
            assignment = np.array([ab.index(inverse[letter]) for letter in ab.letters], dtype=np.intp)
        else:
            perm = list(range(size))
            substream(seed, r).shuffle(perm)
            assignment = np.array(perm, dtype=np.intp)
        start = current = full_score(assignment)
        swaps = 0
        while len(first):
            delta = deltas(assignment)
            cands = []
            for k in (delta >= delta.max() - slack).nonzero()[0]:
                cand, i, j = assignment.copy(), first[k], second[k]
                cand[i], cand[j] = assignment[j], assignment[i]
                cands.append(cand)
            scores = [full_score(cand) for cand in cands]
            k = scores.index(max(scores))
            if not scores[k] > current:
                break
            assignment, current, swaps = cands[k], scores[k], swaps + 1
        finals.append(assignment)
        records.append((float(start), float(current), swaps))
    best = max(range(restarts), key=lambda i: records[i][1])
    key = SubstitutionKey(ab, {ab.letters[t]: s for t, s in zip(finals[best], c.symbol_set)})
    hexes = tuple((start.hex(), final.hex(), swaps) for start, final, swaps in records)
    return key.target_string(), score(decrypt(c, key), model).hex(), hexes


TWO_LETTERS = Alphabet(name="ab", letters=("a", "b"), vowels=frozenset("a"))


def solver_texts(ab, rng):
    """(text to encrypt, training corpus): the English fixtures, or random
    text for TWO_LETTERS."""
    if ab is TWO_LETTERS:
        text = "".join(rng.choice(["a", "ab", "abb", "bb"]) for _ in range(3000))
        return text, LetterSequence(ab, text[:600])
    return normalize(read_data("english_analysis.txt"), ab).symbols, normalize(read_data("english_training.txt"), ab)


def solver_cases(ab, text, rng, count):
    """`count` (cryptogram, restarts, seed): a random key applied to a slice of
    `text` of 2 to 1,200 letters, with 1 to 6 restarts."""
    cases = []
    for _ in range(count):
        length = rng.choice([2, 15, 60, 150, 400, 1200])
        at = rng.randrange(len(text) - length)
        targets = list(ab.letters)
        rng.shuffle(targets)
        c = encrypt(LetterSequence(ab, text[at : at + length]), SubstitutionKey.from_target_string(ab, "".join(targets)))
        cases.append((c, rng.randint(1, 6), rng.randrange(2**64)))
    return cases


@pytest.mark.parametrize("training", ["full", "short", "one letter", "empty"])
@pytest.mark.parametrize("alphabet", ["en", "la", "two letters"])
def test_solver_matches_the_always_rescoring_sweep(alphabet, training):
    # "full" trains on the English training text (random text for two
    # letters), "short" on a few letters, whose many unseen digrams tie
    # deltas and full scores, "one letter" on no digrams, and "empty" on no
    # counts at all, so every log-probability and every delta is equal
    ab = TWO_LETTERS if alphabet == "two letters" else builtin_alphabet(alphabet)
    rng = random.Random(f"{alphabet} {training}")
    text, corpus = solver_texts(ab, rng)
    if training == "empty":
        model = LanguageModel(FrequencyTable.empty(ab), DigramTable(ab, {}, 0))
    else:
        train = {"full": corpus.symbols, "short": "".join(rng.choices(ab.letters, k=rng.randint(2, 12)))}
        model = LanguageModel.train(LetterSequence(ab, train.get(training, ab.letters[-1])))
    for c, restarts, seed in solver_cases(ab, text, rng, 12):
        report = hill_climb_solve(c, model, restarts=restarts, seed=seed)
        records = tuple((r.start_score.hex(), r.final_score.hex(), r.swaps) for r in report.restarts)
        assert (report.best_key.target_string(), report.best_score.hex(), records) == reference_hill_climb(
            c, model, restarts, seed
        )


@pytest.mark.parametrize("alphabet", ["en", "la", "two letters"])
def test_solver_results_survive_noise_in_the_deltas(monkeypatch, alphabet):
    # every decision of a sweep leaves a margin of slack, so deltas off by
    # about 1e-3 * slack, far beyond their own rounding, change no key, no
    # best_score bit and no record; the one-letter model's deltas tie, and
    # full scores decide
    ab = TWO_LETTERS if alphabet == "two letters" else builtin_alphabet(alphabet)
    rng = random.Random(f"noise {alphabet}")
    text, corpus = solver_texts(ab, rng)
    models = [LanguageModel.train(corpus), LanguageModel.train(LetterSequence(ab, ab.letters[-1]))]
    cases = solver_cases(ab, text, rng, 8)

    def solve_all():
        reports = [hill_climb_solve(c, m, restarts=r, seed=seed) for m in models for c, r, seed in cases]
        return [
            (rep.best_key.target_string(), rep.best_score.hex())
            + tuple((r.start_score.hex(), r.final_score.hex(), r.swaps) for r in rep.restarts)
            for rep in reports
        ]

    unperturbed = solve_all()
    noise, sweeps = np.random.default_rng(len(alphabet)), []

    def noisy_plan(ndig, logp):
        first, second, deltas = _swap_plan(ndig, logp)
        slack = 1e-9 * ndig.sum() * np.abs(logp).max()

        def noisy(a):
            sweeps.append(len(first))
            return deltas(a) + noise.uniform(-1e-3, 1e-3, len(first)) * slack

        return first, second, noisy

    monkeypatch.setattr("letterlab.cipher._swap_plan", noisy_plan)
    assert solve_all() == unperturbed
    assert len(sweeps) >= len(cases) * len(models)  # every solve swept with noise


@st.composite
def swap_cases(draw):
    """Digram counts, log-probabilities and an assignment of one size, from a
    seeded generator: doubled letters put counts on the diagonal, a letter
    that never leads a digram leaves its row all zero, and an unused symbol
    leaves its row and its column all zero."""
    size, seed = draw(st.integers(2, 30)), draw(st.integers(0, 2**64 - 1))
    doubled, empty_rows, unused = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(seed)
    ndig = rng.integers(0, rng.choice([2, 10, 1000]), (size, size)).astype(float)
    if doubled:
        np.fill_diagonal(ndig, rng.integers(1, 50, size))
    if empty_rows:
        ndig[rng.random(size) < 0.3] = 0.0
    if unused:
        gone = rng.random(size) < 0.5
        ndig[gone] = 0.0
        ndig[:, gone] = 0.0
    p = rng.random((size, size)) ** 3 + 1e-12
    return ndig, np.log(p / p.sum(1, keepdims=True)), rng.permutation(size)


@settings(max_examples=150, deadline=None)
@given(swap_cases())
def test_swap_deltas_match_a_full_rescore(case):
    ndig, logp, a = case
    size = len(a)

    def terms(b):
        return (ndig * logp[np.ix_(b, b)]).ravel().tolist()

    first, second, deltas = _swap_plan(ndig, logp)
    delta = deltas(a)
    assert len(delta) == len(first) == len(second)
    # the solver's slack, which must stay far above a delta's rounding error
    slack = 1e-9 * ndig.sum() * np.abs(logp).max()
    # one fsum over both keys' terms rounds the exact change once
    minus_base = [-t for t in terms(a)]
    live = dict(zip(zip(first.tolist(), second.tolist()), delta.tolist()))
    assert list(live) == sorted(live)  # ties go to the first swap in (i, j) order
    used = ndig.any(0) | ndig.any(1)
    # Rounding bounds, with u = 2**-53 and gamma(k) = k*u / (1 - k*u) the
    # relative bound of k roundings in a row (Higham 2002, Lemma 3.1). Each
    # term of a delta, N[p,l]*M[q,l] in S at one of its four corners or E*M
    # at one corner, passes through at most size + 5 roundings: the product
    # and size - 1 sums of its dot product (in any order BLAS sums), the sum
    # of N*M.T and N.T*M, the sum with E*M (or that product), and three sums
    # over the corners. So |delta - exact| <= gamma(size + 5) * (sum of the
    # terms' magnitudes). The reference rounds each product N*logp once and
    # their fsum once; products outside rows and columns i and j are equal in
    # both keys and cancel exactly, so it is within gamma(2) times the
    # magnitudes of the products in those rows and columns.
    u = 2.0**-53

    def gamma(k):
        return k * u / (1 - k * u)

    m = np.abs(logp[np.ix_(a, a)])
    mag = ndig @ m.T + ndig.T @ m
    for i in range(size - 1):
        for j in range(i + 1, size):
            b = a.copy()
            b[[i, j]] = a[[j, i]]
            if (i, j) in live:
                corners = ([i, j, i, j], [j, i, i, j])
                e = ndig[i, j] + ndig[j, i] - ndig[i, i] - ndig[j, j]
                moved = np.zeros((size, size), dtype=bool)
                moved[[i, j]] = moved[:, [i, j]] = True
                products = (ndig * (m + np.abs(logp[np.ix_(b, b)])))[moved].sum()
                bound = gamma(size + 5) * (mag[corners].sum() + abs(e) * m[corners].sum()) + gamma(2) * products
                assert abs(live[i, j] - math.fsum(terms(b) + minus_base)) <= bound
                assert bound <= 1e-4 * slack
            else:
                # a swap of two unused symbols keeps the full score exactly
                assert not used[i] and not used[j]
                assert (ndig * logp[np.ix_(b, b)]).sum() == (ndig * logp[np.ix_(a, a)]).sum()


@settings(max_examples=150, deadline=None)
@given(swap_cases())
def test_a_swap_delta_beyond_slack_decides_the_full_score(case):
    # hill_climb_solve makes a lone near-best swap with delta > slack without
    # scoring it, and ends a restart when the best delta is below -slack
    ndig, logp, a = case
    first, second, deltas = _swap_plan(ndig, logp)
    slack = 1e-9 * ndig.sum() * np.abs(logp).max()

    def full_score(b):
        return (ndig * logp.take(b, 0).take(b, 1)).sum()

    base = full_score(a)
    for i, j, d in zip(first, second, deltas(a)):
        b = a.copy()
        b[[i, j]] = a[[j, i]]
        if d > slack:
            assert full_score(b) > base
        elif d < -slack:
            assert full_score(b) < base


def test_solver_rejects_a_negative_length_threshold_before_any_restart(monkeypatch, en, training_model):
    c = parse_cryptogram("wkh txlfn eurzq ira mxpsv ryhu wkh odcb grj", en)
    assert hill_climb_solve(c, training_model, restarts=1, warning_threshold=0).length_warning is None

    def refuse(*args, **kwargs):
        raise AssertionError("the solve started before the threshold check")

    monkeypatch.setattr(LanguageModel, "_log_probs", property(refuse))
    with pytest.raises(InputError, match="^length warning threshold must be at least 0, got -3$"):
        hill_climb_solve(c, training_model, restarts=50, warning_threshold=-3)


def test_solver_empty_cryptogram_errors(en, training_model):
    with pytest.raises(InputError):
        hill_climb_solve(Cryptogram(en, "", tuple(en.letters)), training_model)


def test_solver_rejects_a_model_over_another_alphabet_before_any_restart(monkeypatch, training_model):
    # en-y-vowel has as many letters as en, so only the alphabets themselves differ
    y_vowel = builtin_alphabet("en-y-vowel")
    c = parse_cryptogram("wkh txlfn eurzq ira mxpsv ryhu wkh odcb grj", y_vowel)

    def refuse(*args, **kwargs):
        raise AssertionError("the solve started before the alphabet check")

    monkeypatch.setattr(LanguageModel, "_log_probs", property(refuse))
    with pytest.raises(InputError, match="^alphabet mismatch$"):
        hill_climb_solve(c, training_model, restarts=50)


def test_homophonic_encryption_degrades_solver(en, analysis_corpus, training_model):
    # leveling out frequencies is the classic countermeasure: hiding
    # alternate e's behind an unused symbol must cost the solver accuracy
    text = "".join(ch for ch in analysis_corpus.symbols if ch != "z")[:1200]
    plain = LetterSequence(en, text)
    rng = random.Random(99)
    targets = list(en.letters)
    rng.shuffle(targets)
    key = en_key(en, "".join(targets))

    mono = encrypt(plain, key)
    sym_e, sym_z = key.mapping["e"], key.mapping["z"]
    out, toggle = [], False
    for p, c in zip(plain.symbols, mono.symbols):
        if p == "e":
            out.append(sym_z if toggle else sym_e)
            toggle = not toggle
        else:
            out.append(c)
    homophonic = Cryptogram(en, "".join(out), mono.symbol_set)

    def accuracy(report):
        hits = sum(1 for a, b in zip(report.plaintext.symbols, plain.symbols) if a == b)
        return hits / len(plain.symbols)

    acc_mono = accuracy(hill_climb_solve(mono, training_model, restarts=6, seed=3))
    acc_homo = accuracy(hill_climb_solve(homophonic, training_model, restarts=6, seed=3))
    assert acc_mono > 0.95
    assert acc_homo < acc_mono


def test_model_save_load_round_trip(tmp_path, en, analysis_corpus):
    seq = LetterSequence(en, analysis_corpus.symbols[:2000])
    model = LanguageModel.train(seq)
    prefix = str(tmp_path / "en.model")
    upath, dpath = model.save(prefix)
    loaded = LanguageModel.load(prefix, en)
    assert loaded.unigram == model.unigram
    assert loaded.digram == model.digram
    with open(upath, encoding="utf-8") as fh:
        assert fh.readline().strip() == "letter,count"
    with open(dpath, encoding="utf-8") as fh:
        assert fh.readline().strip() == "first,second,count"


def test_model_load_rejects_bad_header(tmp_path, en):
    (tmp_path / "m.unigram.csv").write_text("letter;count\n", encoding="utf-8")
    (tmp_path / "m.digram.csv").write_text("first,second,count\n", encoding="utf-8")
    with pytest.raises(InputError):
        LanguageModel.load(str(tmp_path / "m"), en)
    (tmp_path / "m.unigram.csv").write_bytes("letter,count\n".encode("utf-16"))
    with pytest.raises(InputError, match="cannot decode"):
        LanguageModel.load(str(tmp_path / "m"), en)


@pytest.mark.parametrize(
    "unigram, digram, message",
    [
        ("letter,count\na,3\nb,1\na,2\n", "first,second,count\n", "unigram file line 4: repeated letter 'a'"),
        ("letter,count\na,3\n", "first,second,count\na,b,1\na,b,1\n", "digram file line 3: repeated pair 'ab'"),
    ],
    ids=["unigram", "digram"],
)
def test_model_load_rejects_repeated_rows(tmp_path, en, unigram, digram, message):
    (tmp_path / "m.unigram.csv").write_text(unigram, encoding="utf-8")
    (tmp_path / "m.digram.csv").write_text(digram, encoding="utf-8")
    with pytest.raises(InputError, match=message):
        LanguageModel.load(str(tmp_path / "m"), en)


@pytest.mark.parametrize(
    "unigram, digram, message",
    [
        (b"letter;count\n", b"first,second,count\n", "unigram file must start with header 'letter,count'"),
        (b"", b"first,second,count\n", "unigram file must start with header 'letter,count'"),
        (b"letter,count\n", b"first,count\n", "digram file must start with header 'first,second,count'"),
        (b"letter,count\na,1,2\n", b"first,second,count\n", "unigram file line 2: expected 2 fields"),
        (b"letter,count\n", b"first,second,count\na,b,1\nab,1\n", "digram file line 3: expected 3 fields"),
        (b"letter,count\na,x\n", b"first,second,count\n", "unigram file line 2: bad count 'x'"),
        (b"letter,count\n", b"first,second,count\na,b,1.5\n", "digram file line 2: bad count '1.5'"),
        (b"letter,count\na,-4\n", b"first,second,count\n", "unigram file line 2: bad count '-4'"),
        (b"letter,count\n", b"first,second,count\na,b,+1\n", "digram file line 2: bad count '+1'"),
        (b"letter,count\n", b"first,second,count\na,b,%d\n" % 10**18, f"digram file line 2: bad count '{10**18}'"),
        # digits other than ASCII ones, Arabic-Indic and fullwidth, are not read as numbers
        ("letter,count\na,١٢\n".encode(), b"first,second,count\n", "unigram file line 2: bad count '١٢'"),
        (b"letter,count\n", "first,second,count\na,b,１\n".encode(), "digram file line 2: bad count '１'"),
        (b"letter,count\na,3\nb,1\na,2\n", b"first,second,count\n", "unigram file line 4: repeated letter 'a'"),
        (b"letter,count\n", b"first,second,count\na,b,1\na,b,1\n", "digram file line 3: repeated pair 'ab'"),
        (
            b"letter,count\na,1\n\xff\n",
            b"first,second,count\n",
            "cannot decode '{prefix}.unigram.csv' as UTF-8: invalid start byte at byte 17",
        ),
        # a record is named by the line it starts on: this one ends on line 3
        (
            b'letter,count\n"a\nb",1\na,2\na,3\n',
            b"first,second,count\n",
            "unigram file line 2: letter 'a\\nb' not in alphabet 'en'",
        ),
        (
            b"letter,count\n",
            b'first,second,count\na,b,1\n"c\n",d,1\n',
            "digram file line 3: letter 'c\\n' not in alphabet 'en'",
        ),
        (
            "letter,count\né,1\n".encode(),
            b"first,second,count\n",
            "unigram file line 2: letter 'é' not in alphabet 'en'",
        ),
        (
            b"letter,count\nab,1\n",
            b"first,second,count\n",
            "unigram file line 2: letter 'ab' not in alphabet 'en'",
        ),
        (
            b"letter,count\n",
            "first,second,count\na,é,1\n".encode(),
            "digram file line 2: letter 'é' not in alphabet 'en'",
        ),
        (
            b"letter,count\n",
            b"first,second,count\na,b,1\nab,c,1\n",
            "digram file line 3: letter 'ab' not in alphabet 'en'",
        ),
        (
            b"letter,count\n" + b"a" * 200_000 + b",1\n",
            b"first,second,count\n",
            "unigram file line 2: field larger than field limit (131072)",
        ),
        (
            b"letter,count\na\x00,1\n",
            b"first,second,count\n",
            # the csv module reads NUL from Python 3.11 on
            "unigram file line 2: "
            + ("line contains NUL" if sys.version_info < (3, 11) else "letter 'a\\x00' not in alphabet 'en'"),
        ),
    ],
    ids=[
        "unigram-header",
        "empty-unigram",
        "digram-header",
        "unigram-fields",
        "digram-fields",
        "unigram-count",
        "digram-count",
        "negative-count",
        "signed-count",
        "huge-count",
        "arabic-indic-count",
        "fullwidth-count",
        "repeated-letter",
        "repeated-pair",
        "undecodable",
        "multiline-record",
        "multiline-record-after-lines",
        "unigram-foreign-letter",
        "unigram-two-letters",
        "digram-foreign-letter",
        "digram-two-letters",
        "field-limit",
        "nul",
    ],
)
def test_model_file_error_messages(tmp_path, en, unigram, digram, message):
    prefix = str(tmp_path / "m")
    (tmp_path / "m.unigram.csv").write_bytes(unigram)
    (tmp_path / "m.digram.csv").write_bytes(digram)
    with pytest.raises(InputError) as excinfo:
        LanguageModel.load(prefix, en)
    assert str(excinfo.value) == message.format(prefix=prefix)


def test_model_counts_of_up_to_18_digits_load(tmp_path, en):
    (tmp_path / "m.unigram.csv").write_text(f"letter,count\na,{10**18 - 1}\n", encoding="utf-8")
    (tmp_path / "m.digram.csv").write_text(f"first,second,count\na,b,{10**18 - 1}\n", encoding="utf-8")
    model = LanguageModel.load(str(tmp_path / "m"), en)
    assert model.unigram.counts["a"] == model.digram.counts["a", "b"] == 10**18 - 1


def test_model_file_decode_error_counts_bytes_from_the_file_start(tmp_path, en):
    # past the first 8 KiB a line-by-line read reports the offset within a later chunk
    pairs = [(a, b) for a in en.letters for b in en.letters]
    rows = "".join(f"{a},{b},{10**12 + i}\n" for i, (a, b) in enumerate(pairs))
    data = ("first,second,count\n" + rows).encode()
    assert len(data) > 10_001
    (tmp_path / "m.unigram.csv").write_text("letter,count\n", encoding="utf-8")
    (tmp_path / "m.digram.csv").write_bytes(data[:10_000] + b"\xff" + data[10_000:])
    with pytest.raises(InputError, match="invalid start byte at byte 10000$"):
        LanguageModel.load(str(tmp_path / "m"), en)


def test_model_save_load_round_trip_quotes_cells_and_keeps_zero_pairs(tmp_path):
    ab = Alphabet(name="punct", letters=("a", ",", '"'), vowels=frozenset("a"))
    pairs = {('"', "a"): 2, ("a", ","): 0, (",", '"'): 3, ("a", "a"): 0}
    model = LanguageModel(FrequencyTable.from_counts(ab, {"a": 2, ",": 0, '"': 3}), DigramTable(ab, pairs, 5))
    upath, dpath = model.save(str(tmp_path / "p"))
    with open(upath, encoding="utf-8", newline="") as fh:
        assert fh.read() == 'letter,count\r\na,2\r\n",",0\r\n"""",3\r\n'
    with open(dpath, encoding="utf-8", newline="") as fh:
        assert fh.read() == (
            'first,second,count\r\na,a,0\r\na,",",0\r\n",","""",3\r\n"""",a,2\r\n'
        )
    loaded = LanguageModel.load(str(tmp_path / "p"), ab)
    assert loaded == model
    assert loaded.digram.counts == pairs
