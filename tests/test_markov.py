import math
import random

import pytest

from letterlab import (
    VC_ALPHABET,
    Alphabet,
    InputError,
    LanguageModel,
    LetterSequence,
    TransitionCounts,
    count_digrams,
    count_letters,
    entropy_estimates,
    fit_transitions,
    generate,
    independence_test,
    normalize,
    to_vc_sequence,
    vc_profile,
)
from letterlab.alphabet import BLOCK
from letterlab.markov import _walk, chi_square_tail_df1
from letterlab.rng import SplitMix64


def vc_seq(states):
    return LetterSequence(VC_ALPHABET, states)


def counts(vv, vc, cv, cc, initial="V"):
    return TransitionCounts(
        n={("V", "V"): vv, ("V", "C"): vc, ("C", "V"): cv, ("C", "C"): cc},
        initial=initial,
    )


def test_to_vc_sequence(en):
    assert to_vc_sequence(normalize("onegin", en)) == vc_seq("VCVCVC")
    assert to_vc_sequence(normalize("rhythm", en)) == vc_seq("CCCCCC")
    assert to_vc_sequence(normalize("onegin", en)).alphabet is VC_ALPHABET


def test_vc_counts_agree_with_stylometry(en, analysis_corpus):
    b = to_vc_sequence(analysis_corpus)
    assert b.symbols.count("V") == vc_profile(analysis_corpus).vowel_count


def test_to_vc_commutes_with_concatenation(en):
    a = normalize("letter", en)
    b = normalize("counting", en)
    joined = LetterSequence(en, a.symbols + b.symbols)
    assert to_vc_sequence(joined).symbols == to_vc_sequence(a).symbols + to_vc_sequence(b).symbols


def test_fit_transitions_alternating():
    t = fit_transitions(vc_seq("VCVCVC"))
    assert t.n[("V", "C")] == 3 and t.n[("C", "V")] == 2
    assert t.n[("V", "V")] == 0 and t.n[("C", "C")] == 0
    assert t.initial == "V"


def test_fit_transitions_runs():
    t = fit_transitions(vc_seq("VVV"))
    assert t.n[("V", "V")] == 2 and t.total == 2


@pytest.mark.parametrize("states", ["VVVV", "CCVCC", "CCCCCCV", "VC", "CV", "VVVCCCCVVVVVC", "CCCCVVVV"])
def test_fit_transitions_matches_direct_pair_count(states):
    pairs = {(a, b): 0 for a in "VC" for b in "VC"}
    for a, b in zip(states, states[1:]):
        pairs[(a, b)] += 1
    t = fit_transitions(vc_seq(states))
    assert t.n == pairs
    assert list(t.n) == [("V", "V"), ("V", "C"), ("C", "V"), ("C", "C")]
    assert t.initial == states[0]


def test_fit_transitions_matches_direct_pair_count_random():
    rng = random.Random(9)
    for _ in range(200):
        states = "".join(rng.choice("VC") * rng.randint(1, 6) for _ in range(rng.randint(1, 12)))
        if len(states) < 2:
            continue
        expected = {(a, b): 0 for a in "VC" for b in "VC"}
        for pair in zip(states, states[1:]):
            expected[pair] += 1
        assert fit_transitions(vc_seq(states)).n == expected


# a binary sequence is a V/C sequence: a LetterSequence over VC_ALPHABET
def test_binary_sequence_rejects_other_states():
    with pytest.raises(InputError, match="^symbol 'x' not in alphabet 'vc'$"):
        vc_seq("VCx")


@pytest.mark.parametrize("states", ["VCx", "x", "VC\n", "vc", "V C"])
def test_binary_sequence_message_for_other_states(states):
    with pytest.raises(InputError) as excinfo:
        vc_seq(states)
    bad = next(ch for ch in states if ch not in "VC")
    assert str(excinfo.value) == f"symbol {bad!r} not in alphabet 'vc'"


def test_binary_sequence_accepts_every_v_c_string():
    for states in ("", "V", "C", "VCCV" * 50):
        assert vc_seq(states).symbols == states


@pytest.mark.parametrize("states", [list("VCVV"), ("V", "C"), b"VC", None], ids=repr)
def test_binary_sequence_must_be_a_string(states):
    with pytest.raises(InputError, match=f"^symbols must be a string, not {type(states).__name__}$"):
        vc_seq(states)


def test_fit_transitions_needs_the_vc_alphabet(en):
    # the same letters under another name, or any other alphabet, are not V/C states
    for seq in (normalize("onegin", en), LetterSequence(Alphabet("vc2", ("V", "C"), frozenset("V")), "VCV")):
        with pytest.raises(InputError) as excinfo:
            fit_transitions(seq)
        assert str(excinfo.value) == f"transitions need a sequence over alphabet 'vc', not {seq.alphabet.name!r}"
    # an alphabet equal to VC_ALPHABET is the V/C alphabet
    same = Alphabet("vc", ("V", "C"), frozenset("V"))
    assert fit_transitions(LetterSequence(same, "VCV")) == fit_transitions(vc_seq("VCV"))


def test_fit_transitions_counts_sum_to_length_minus_one():
    rng = random.Random(5)
    for _ in range(200):
        states = "".join(rng.choice("VC") for _ in range(rng.randint(2, 40)))
        assert fit_transitions(vc_seq(states)).total == len(states) - 1


def test_fit_transitions_needs_two_states():
    with pytest.raises(InputError):
        fit_transitions(vc_seq("V"))


def test_independence_balanced_counts():
    report = independence_test(counts(50, 50, 50, 50))
    assert report.chi_square == 0.0
    assert report.p_value == 1.0
    assert report.degrees_of_freedom == 1


def test_independence_perfect_alternation():
    # V,C,V,...,length 1001: 500 of each transition direction, expected
    # cells all 250, so chi-square is exactly 4 * 250 = 1000
    t = fit_transitions(vc_seq("VC" * 500 + "V"))
    report = independence_test(t)
    assert math.isclose(report.chi_square, 1000.0, rel_tol=1e-12)
    assert report.p_value < 1e-15


def test_independence_natural_text(analysis_corpus):
    t = fit_transitions(to_vc_sequence(analysis_corpus))
    report = independence_test(t)
    assert report.p_value < 1e-6
    # vowels avoid following vowels in English
    assert report.transition_probabilities[("V", "C")] > report.transition_probabilities[("V", "V")]


def test_independence_zero_row_is_degenerate():
    with pytest.raises(InputError):
        independence_test(counts(5, 0, 0, 0))


def test_independence_report_json_fields():
    p = independence_test(counts(10, 20, 20, 10)).transition_probabilities
    assert set(p) == {("V", "V"), ("V", "C"), ("C", "V"), ("C", "C")}
    for a in "VC":
        assert math.isclose(p[a, "V"] + p[a, "C"], 1.0)


def test_chi_square_tail_reference_point():
    # 3.841459 is the familiar 5% critical value at one degree of freedom
    assert math.isclose(chi_square_tail_df1(3.8414588206941254), 0.05, rel_tol=1e-9)


def test_entropy_uniform(en):
    from letterlab import DigramTable, FrequencyTable

    uni = FrequencyTable.from_counts(en, {ch: 10 for ch in en.letters})
    dig = DigramTable(en, {(a, b): 1 for a in en.letters for b in en.letters})
    rep = entropy_estimates(uni, dig)
    assert math.isclose(rep.h1, math.log2(26), abs_tol=1e-9)
    assert math.isclose(rep.h2, math.log2(26), abs_tol=1e-9)
    assert rep.h0 == math.log2(26)


def test_entropy_single_letter(en):
    s = normalize("aaaa", en)
    rep = entropy_estimates(count_letters(s), count_digrams(s))
    assert rep.h1 == 0.0 and rep.h2 == 0.0


def test_entropy_english_conditioning_helps(analysis_corpus):
    rep = entropy_estimates(count_letters(analysis_corpus), count_digrams(analysis_corpus))
    assert rep.h2 < rep.h1 < rep.h0


def test_entropy_empty_errors(en):
    from letterlab import DigramTable, FrequencyTable

    with pytest.raises(InputError):
        entropy_estimates(FrequencyTable.empty(en), DigramTable(en, {}))


def test_generate_length_zero(en, training_model):
    assert generate(counts(1, 1, 1, 1), 0, seed=1) == vc_seq("")
    assert generate(counts(0, 0, 0, 0), 0, seed=1) == vc_seq("")
    assert generate(training_model, 0, seed=1).symbols == ""
    # an empty table raises only when the walk has to draw from it
    from letterlab import DigramTable, FrequencyTable

    empty = LanguageModel(unigram=FrequencyTable.empty(en), digram=DigramTable(en, {}))
    for order in (0, 1):
        assert generate(empty, 0, seed=1, order=order).symbols == ""
        with pytest.raises(InputError, match="empty unigram table"):
            generate(empty, 1, seed=1, order=order)


def test_generate_degenerate_unigram(en):
    from letterlab import DigramTable, FrequencyTable

    model = LanguageModel(
        unigram=FrequencyTable.from_counts(en, {"q": 7}),
        digram=DigramTable(en, {}),
    )
    out = generate(model, 20, seed=3, order=0)
    assert out.symbols == "q" * 20


def test_generate_deterministic(en, training_model):
    a = generate(training_model, 200, seed=42, order=1)
    b = generate(training_model, 200, seed=42, order=1)
    assert a.symbols == b.symbols
    c = generate(training_model, 200, seed=43, order=1)
    assert a.symbols != c.symbols


def test_generate_states_match_model():
    # law of large numbers: at 100k steps the binomial standard error of
    # each row probability is under 0.003, so 0.01 is a comfortable band
    t = counts(30, 70, 40, 60)
    out = generate(t, 100000, seed=9)
    fitted = fit_transitions(out).probabilities()
    want = t.probabilities()
    for pair in want:
        assert abs(fitted[pair] - want[pair]) < 0.01


def test_generate_errors():
    with pytest.raises(InputError):
        generate(counts(0, 0, 0, 0), 5, seed=1)
    with pytest.raises(InputError):
        generate(counts(1, 1, 1, 1), -1, seed=1)


def test_generate_order_applies_to_language_models_only(training_model):
    for order in (1, 7):
        with pytest.raises(InputError, match="V/C chain"):
            generate(counts(1, 1, 1, 1), 20, seed=1, order=order)
    assert generate(training_model, 50, seed=1).symbols == generate(training_model, 50, seed=1, order=1).symbols


def test_generate_unreachable_zero_row_is_fine():
    # row C is empty but the chain starting at V never needs it
    t = counts(10, 0, 0, 0)
    out = generate(t, 50, seed=2)
    assert out == vc_seq("V" * 50)


def _scan_walk(rng, labels, start, rows, length):
    # the linear scan _walk replaced: the first label whose running sum
    # of probabilities exceeds the draw, else the last label
    out, probs = [], start
    for _ in range(length):
        u, acc, pick = rng.next_float(), 0.0, len(probs) - 1
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                pick = i
                break
        out.append(labels[pick])
        probs = rows[pick]
    return "".join(out)


def test_walk_draws_match_linear_scan():
    rng = random.Random(11)
    for trial in range(500):
        labels = "abcdefg"[: rng.randint(1, 7)]
        # rows with zeros, and rows summing below 1 so draws can run past the end
        rows = []
        for _ in labels:
            weights = [rng.choice((0.0, rng.random())) for _ in labels]
            scale = rng.choice((1.0, rng.random())) / (sum(weights) or 1.0)
            rows.append([w * scale for w in weights])
        start = rows[rng.randrange(len(rows))]
        # every 100th walk runs past the end of its first block of draws
        length = BLOCK + 7 if trial % 100 == 0 else 60
        want = _scan_walk(SplitMix64(trial), labels, start, rows, length)
        assert _walk(SplitMix64(trial), labels, start, rows, length) == want
