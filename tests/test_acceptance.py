"""Acceptance suite: one test per release criterion, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import bisect
import math
import random
import time
from fractions import Fraction

from letterlab import (
    Alphabet,
    DigramTable,
    FrequencyTable,
    LetterSequence,
    SubstitutionKey,
    VCProfile,
    WordSequence,
    alberti_test,
    compare_tables,
    count_letters,
    decrypt,
    encrypt,
    fit_power_law,
    fit_transitions,
    hill_climb_solve,
    independence_test,
    lipogram_scan,
    merge,
    normalize,
    proportion_ci,
    rank_order,
    to_vc_sequence,
    tokenize_words,
    word_rank_frequency,
)
from letterlab.markov import entropy_estimates


def ok(line: str):
    print(f"PASS {line}")


def test_criterion_1_threshold_arithmetic():
    gap = Fraction(7, 16) - Fraction(3, 7)
    assert gap == Fraction(1, 112)
    assert gap < Fraction(1, 100)
    assert math.isclose(float(gap), 0.0089285714, abs_tol=1e-9)
    verdict = alberti_test(VCProfile(vowel_count=300, consonant_count=400))
    assert verdict.vowel_share == Fraction(3, 7)
    assert not verdict.above_orator_threshold
    assert verdict.label == "boundary"
    ok("criterion 1: threshold arithmetic (7/16 - 3/7 = 1/112, boundary at 3/7)")


def test_criterion_2_rank_fixture_and_wilson():
    letters = tuple("ālmhwyn")
    ab = Alphabet(name="arabic-top7", letters=letters, vowels=frozenset("ā"))
    counts = {"ā": 600, "l": 400, "m": 320, "h": 270, "w": 260, "y": 250, "n": 220}
    table = FrequencyTable.from_counts(ab, counts)
    assert rank_order(table) == list(letters)
    # Wilson bounds for the 400-count letter out of 2320, frozen from an
    # independent symbolic derivation (quadratic solved with sympy)
    ci = proportion_ci(400, 2320, 0.95)
    assert abs(ci.lower - 0.15758767094264614) < 1e-9
    assert abs(ci.upper - 0.18832295724135595) < 1e-9
    ok("criterion 2: seven-letter rank fixture and Wilson interval at 1e-9")


def test_criterion_3_stability(analysis_corpus):
    assert len(analysis_corpus) >= 20000
    started = time.perf_counter()
    en = analysis_corpus.alphabet
    half1 = count_letters(LetterSequence(en, analysis_corpus.symbols[:10000]))
    half2 = count_letters(LetterSequence(en, analysis_corpus.symbols[10000:20000]))
    distance = compare_tables(half1, half2)
    assert distance.total_variation < 0.02
    assert rank_order(half1)[:6] == rank_order(half2)[:6]
    from letterlab import stability_curve

    curve = dict(stability_curve(analysis_corpus, [90, 10000]))
    assert curve[10000].total_variation < curve[90].total_variation
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(
        f"criterion 3: half-vs-half total variation {distance.total_variation:.4f} < 0.02, "
        f"identical top-6, curve decreasing, {elapsed:.2f}s"
    )


# (best_key.target_string(), best_score to 12 significant digits) per
# criterion-4 trial; any change to the search or its scoring shows here
CRITERION_4_KEYS = [
    ("jptagibuxhqrskwezfoclmdvny", "-5184.38292775"),
    ("ytkipeqwdohvsajxulnfmrcgbz", "-5184.38292775"),
    ("olfwbrjzkgsmdayxcupivehntq", "-5184.38292775"),
    ("dxcjqgzfestniwbkamuyvohlrp", "-5184.38292775"),
    ("hosplvmcayiufjzebkwgqrtxdn", "-5184.38292775"),
    ("hovkcigewadyqtbzfxljusnrmp", "-5184.38292775"),
    ("izdfwxnmerqypctjuvksgaohbl", "-5184.38292775"),
    ("iucnmvydrkaplewosgzqhxjftb", "-5184.38292775"),
    ("zyxnjgupwhrtfmialvsebdckoq", "-5184.38292775"),
    ("lskuntewrojmdybighvzxqcpaf", "-5184.38292775"),
]


def test_criterion_4_solver(en, training_model, solver_plaintext):
    assert len(solver_plaintext) == 2000
    assert training_model.unigram.total >= 100000
    successes = 0
    worst_time = 0.0
    for trial in range(10):
        rng = random.Random(1000 + trial)
        targets = list(en.letters)
        rng.shuffle(targets)
        true_key = SubstitutionKey.from_target_string(en, "".join(targets))
        cryptogram = encrypt(solver_plaintext, true_key)

        from letterlab import frequency_match_key, score

        cipher_table = count_letters(LetterSequence(en, cryptogram.symbols))
        seed_key = frequency_match_key(cipher_table, training_model.unigram)
        seed_score = score(decrypt(cryptogram, seed_key), training_model)

        started = time.perf_counter()
        report = hill_climb_solve(cryptogram, training_model, restarts=20, seed=7)
        elapsed = time.perf_counter() - started
        worst_time = max(worst_time, elapsed)
        assert elapsed < 10.0
        assert report.best_score >= seed_score  # monotone improvement
        pinned = (report.best_key.target_string(), f"{report.best_score:.12g}")
        assert pinned == CRITERION_4_KEYS[trial]
        correct = sum(
            1 for ch in en.letters if report.best_key.mapping[ch] == true_key.mapping[ch]
        )
        if correct >= 24:
            successes += 1
    assert successes >= 9
    ok(
        f"criterion 4: solver recovered >= 24/26 mapping entries in {successes}/10 trials, "
        f"slowest run {worst_time:.2f}s"
    )


def test_criterion_5_markov_dependence(analysis_corpus):
    en = analysis_corpus.alphabet
    sample = LetterSequence(en, analysis_corpus.symbols[:20000])
    assert len(sample) == 20000
    report = independence_test(fit_transitions(to_vc_sequence(sample)))
    assert report.p_value < 1e-6

    rng = random.Random(202)
    symbols = list(sample.symbols)
    rejections = 0
    for _ in range(100):
        rng.shuffle(symbols)
        shuffled = LetterSequence(en, "".join(symbols))
        rep = independence_test(fit_transitions(to_vc_sequence(shuffled)))
        if rep.p_value < 0.05:
            rejections += 1
    assert 1 <= rejections <= 11
    ok(
        f"criterion 5: natural-text p {report.p_value:.3g} < 1e-6; "
        f"{rejections}/100 shuffle rejections inside [1, 11]"
    )


def test_criterion_6_entropy(en, analysis_corpus):
    uniform = FrequencyTable.from_counts(en, {ch: 1 for ch in en.letters})
    pairs = {(a, b): 1 for a in en.letters for b in en.letters}
    rep = entropy_estimates(uniform, DigramTable(en, pairs, 26 * 26))
    assert abs(rep.h1 - math.log2(26)) < 1e-9

    from letterlab import count_digrams

    rep_en = entropy_estimates(count_letters(analysis_corpus), count_digrams(analysis_corpus))
    assert rep_en.h2 < rep_en.h1 < rep_en.h0

    # random small joint tables; the unigram is taken as the digram's
    # second-letter marginal, the consistency under which the chain
    # h2 <= h1 <= h0 is an exact information inequality
    rng = random.Random(12)
    for _ in range(1000):
        size = rng.randint(2, 8)
        letters = tuple(chr(ord("a") + i) for i in range(size))
        ab = Alphabet(name=f"rand{size}", letters=letters, vowels=frozenset(letters[:1]))
        counts = {}
        for a in letters:
            for b in letters:
                n = rng.randint(0, 12)
                if n:
                    counts[(a, b)] = n
        if not counts:
            counts[(letters[0], letters[0])] = 1
        cols = {ch: 0 for ch in letters}
        for (_, b), n in counts.items():
            cols[b] += n
        r = entropy_estimates(
            FrequencyTable.from_counts(ab, cols),
            DigramTable(ab, counts, sum(counts.values())),
        )
        assert r.h2 <= r.h1 + 1e-12
        assert r.h1 <= r.h0 + 1e-12
    ok(
        f"criterion 6: uniform h1 = log2 26 at 1e-9; English {rep_en.h2:.3f} < "
        f"{rep_en.h1:.3f} < {rep_en.h0:.3f}; inequality held on 1000 random tables"
    )


def _rank_word(r: int) -> str:
    out = []
    while True:
        out.append(chr(ord("a") + r % 26))
        r //= 26
        if r == 0:
            return "".join(reversed(out))


def test_criterion_7_zipf(en):
    scale = math.lcm(*range(1, 101))
    from letterlab import RankEntry, RankFrequency

    exact = RankFrequency(
        entries=tuple(
            RankEntry(rank=r, word=_rank_word(r), count=scale // r) for r in range(1, 101)
        )
    )
    fit = fit_power_law(exact, min_count=1)
    assert abs(fit.exponent - 1.0) < 1e-9

    vocabulary = 5000
    weights = [1.0 / r for r in range(1, vocabulary + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    rng = random.Random(2026)
    words = []
    for _ in range(100000):
        r = bisect.bisect_right(cumulative, rng.random()) + 1
        words.append(_rank_word(r))
    sampled_fit = fit_power_law(word_rank_frequency(WordSequence(en, tuple(words))), min_count=5)
    assert abs(sampled_fit.exponent - 1.0) <= 0.1
    ok(
        f"criterion 7: exact inverse-rank exponent at 1e-9; sampled corpus "
        f"exponent {sampled_fit.exponent:.3f} within 1 +- 0.1"
    )


def test_criterion_8_algebraic_suites(en):
    rng = random.Random(81)

    # merge monoid over random splits
    for _ in range(1000):
        text = "".join(rng.choice(en.letters) for _ in range(rng.randint(0, 60)))
        whole = count_letters(LetterSequence(en, text))
        k = rng.randint(1, 6)
        cuts = sorted(rng.randint(0, len(text)) for _ in range(k - 1))
        folded = FrequencyTable.empty(en)
        prev = 0
        for cut in cuts + [len(text)]:
            folded = merge(folded, count_letters(LetterSequence(en, text[prev:cut])))
            prev = cut
        assert folded == whole

    # encrypt/decrypt round trip under random keys
    for _ in range(1000):
        targets = list(en.letters)
        rng.shuffle(targets)
        key = SubstitutionKey.from_target_string(en, "".join(targets))
        text = "".join(rng.choice(en.letters) for _ in range(rng.randint(0, 40)))
        seq = LetterSequence(en, text)
        assert decrypt(encrypt(seq, key), key) == seq

    # normalize idempotence and tokenize concatenation on noisy strings
    pool = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,;:'-!?éüß"
    for _ in range(1000):
        raw = "".join(rng.choice(pool) for _ in range(rng.randint(0, 80)))
        once = normalize(raw, en)
        assert normalize(once.symbols, en).symbols == once.symbols
        assert "".join(tokenize_words(raw, en).words) == once.symbols
    ok("criterion 8: merge monoid, round trip, idempotence, concatenation (1000 cases each)")


def test_criterion_9_lipogram(en, analysis_corpus):
    reference = count_letters(analysis_corpus)
    e_free = LetterSequence(
        en, "".join(ch for ch in analysis_corpus.symbols if ch != "e")[:5000]
    )
    flags = lipogram_scan(count_letters(e_free), reference, alpha=1e-6)
    assert "e" in {f.letter for f in flags}

    proportions = [reference.proportion(ch) for ch in en.letters]
    cumulative = []
    acc = 0.0
    for p in proportions:
        acc += p
        cumulative.append(acc)
    rng = random.Random(5)
    clean = 0
    for _ in range(100):
        text = "".join(
            en.letters[min(bisect.bisect_right(cumulative, rng.random()), 25)]
            for _ in range(2000)
        )
        observed = count_letters(LetterSequence(en, text))
        if not lipogram_scan(observed, reference, alpha=0.01):
            clean += 1
    assert clean >= 95
    ok(
        f"criterion 9: e-free text flagged at alpha 1e-6; {clean}/100 "
        f"reference-sampled trials produced no flags"
    )
