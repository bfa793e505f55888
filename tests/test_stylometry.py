import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from letterlab import (
    Alphabet,
    FrequencyTable,
    InputError,
    LetterSequence,
    VCProfile,
    alberti_test,
    builtin_alphabet,
    compass_of_variation,
    count_letters,
    lipogram_scan,
    normalize,
    two_sample_proportion_test,
    vc_profile,
)
from letterlab import alphabet as alphabet_module
from letterlab.markov import VC_ALPHABET
from letterlab.stylometry import LipogramFlag, _binom_cdf, blocks_of


def test_vc_profile_banana(en):
    p = vc_profile(normalize("banana", en))
    assert p.vowel_count == 3 and p.consonant_count == 3
    assert p.vowels_per_100 == 100.0
    assert p.vowel_share == 0.5


def test_vc_profile_alberti_page():
    p = VCProfile(vowel_count=300, consonant_count=400)
    assert math.isclose(p.vowel_share, 3 / 7)


@pytest.mark.parametrize("bad", ["3", 2.5, None])
def test_vc_profile_counts_must_be_integers(bad):
    for args, name in (((bad, 1), "vowel_count"), ((1, bad), "consonant_count")):
        with pytest.raises(InputError) as excinfo:
            VCProfile(*args)
        assert str(excinfo.value) == f"count {bad!r} of {name!r} is not an integer"
    with pytest.raises(InputError, match="^negative count$"):
        VCProfile(2, -1)


def test_vc_profile_all_vowels(en):
    p = vc_profile(normalize("aeiou", en))
    assert p.vowels_per_100 is None
    assert p.vowel_share == 1.0


def test_vc_profile_empty_has_no_share(en):
    p = vc_profile(normalize("", en))
    assert p.vowel_share is None and p.vowels_per_100 is None


def test_vowel_share_complements_consonant_share(analysis_corpus):
    p = vc_profile(analysis_corpus)
    assert p.vowel_count + p.consonant_count == len(analysis_corpus)
    assert math.isclose(p.vowel_share, 1.0 - p.consonant_count / p.total)


def test_alberti_above_both():
    v = alberti_test(VCProfile(45, 55))
    assert v.above_poetry_threshold and v.above_orator_threshold
    assert v.label == "poetry-consistent"


def test_alberti_exact_orator_threshold_is_boundary():
    v = alberti_test(VCProfile(300, 400))
    assert v.vowel_share == Fraction(3, 7)
    assert not v.above_orator_threshold  # strictly-above comparison
    assert v.label == "boundary"


def test_alberti_exact_poetry_threshold_is_boundary():
    v = alberti_test(VCProfile(7, 9))
    assert v.vowel_share == Fraction(7, 16)
    assert not v.above_poetry_threshold
    assert v.above_orator_threshold
    assert v.label == "boundary"


def test_alberti_below_both():
    v = alberti_test(VCProfile(40, 60))
    assert not v.above_orator_threshold
    assert v.label == "below-both"


def test_alberti_between_thresholds():
    # 0.43 sits between 3/7 ~ 0.4286 and 7/16 = 0.4375
    v = alberti_test(VCProfile(43, 57))
    assert v.above_orator_threshold and not v.above_poetry_threshold
    assert v.label == "orator-consistent"


def test_alberti_scale_invariance():
    rng = random.Random(3)
    for _ in range(100):
        v = rng.randint(1, 50)
        c = rng.randint(1, 50)
        k = rng.randint(2, 9)
        assert alberti_test(VCProfile(v, c)).label == alberti_test(VCProfile(k * v, k * c)).label


def test_alberti_empty_profile():
    with pytest.raises(InputError):
        alberti_test(VCProfile(0, 0))


def test_two_sample_identical():
    p = VCProfile(30, 70)
    z, pv = two_sample_proportion_test(p, p)
    assert z == 0.0 and pv == 1.0


def test_two_sample_alberti_gap_detectable_at_large_n():
    # oracle values computed beforehand from the pooled-z power formula
    a = VCProfile(43750, 100000 - 43750)  # share 7/16
    b = VCProfile(42857, 100000 - 42857)  # share ~3/7
    z, p = two_sample_proportion_test(a, b)
    assert math.isclose(z, 4.029924, abs_tol=5e-4)
    assert p < 0.05


def test_two_sample_alberti_gap_invisible_at_small_n():
    a = VCProfile(44, 56)
    b = VCProfile(43, 57)
    z, p = two_sample_proportion_test(a, b)
    assert math.isclose(z, 0.14263, abs_tol=5e-4)
    assert p > 0.05


def test_two_sample_antisymmetric():
    a = VCProfile(300, 400)
    b = VCProfile(350, 350)
    za, pa = two_sample_proportion_test(a, b)
    zb, pb = two_sample_proportion_test(b, a)
    assert math.isclose(za, -zb) and math.isclose(pa, pb)


def test_two_sample_empty_errors():
    with pytest.raises(InputError):
        two_sample_proportion_test(VCProfile(0, 0), VCProfile(1, 1))


def test_compass_pughe_bible_range():
    profiles = [VCProfile(50, 100), VCProfile(56, 100), VCProfile(68, 100)]
    s = compass_of_variation(profiles)
    assert (s.minimum, s.median, s.maximum) == (50.0, 56.0, 68.0)
    assert s.sample_count == 3


def test_compass_single_sample():
    s = compass_of_variation([VCProfile(61, 100)])
    assert s.minimum == s.median == s.maximum == 61.0


def test_compass_even_count_takes_lower_middle():
    s = compass_of_variation([VCProfile(60, 100), VCProfile(62, 100)])
    assert s.median == 60.0


def test_compass_errors():
    with pytest.raises(InputError):
        compass_of_variation([])
    with pytest.raises(InputError):
        compass_of_variation([VCProfile(3, 0)])


def test_blocks_of_splits_fixed_sizes(analysis_corpus):
    profiles = blocks_of(analysis_corpus, block_size=1000)
    assert sum(p.total for p in profiles) == len(analysis_corpus)
    assert all(p.total == 1000 for p in profiles[:-1])


@pytest.mark.parametrize("block_size", [1, 7, 1000, 5000, 10**6])
def test_blocks_of_matches_vc_profile_of_each_slice(analysis_corpus, block_size):
    ab, s = analysis_corpus.alphabet, analysis_corpus.symbols[:5000]
    expected = [vc_profile(LetterSequence(ab, s[i : i + block_size])) for i in range(0, len(s), block_size)]
    assert blocks_of(LetterSequence(ab, s), block_size) == expected
    assert blocks_of(LetterSequence(ab, ""), block_size) == []


ORACLE_ALPHABETS = [
    builtin_alphabet("en"),
    builtin_alphabet("en-y-vowel"),
    builtin_alphabet("la"),
    VC_ALPHABET,
    Alphabet("upper", tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"), frozenset("AEIOU")),  # V and C are consonants
    Alphabet("meta", tuple("]^-\\[.*abc"), frozenset("a^")),
    Alphabet("grc", tuple("αβγδεζηθικλμνξοπρστυφχψω"), frozenset("αεηιουω")),
    Alphabet("mixed", tuple("abcαβγ"), frozenset("aα")),  # slices of one text on both sides of isascii
]


def per_character_profile(text: str, ab: Alphabet) -> VCProfile:
    vowels = sum(ch in ab.vowels for ch in text)
    return VCProfile(vowels, len(text) - vowels)


@pytest.mark.parametrize("ab", ORACLE_ALPHABETS, ids=lambda ab: ab.name)
def test_vowel_counts_agree_with_a_per_character_count(ab):
    # ASCII text is counted a BLOCK at a time through the V/C table, other
    # text once per vowel; the reference reads only the vowel set
    s = "".join(random.Random(ab.name).choices(ab.letters, k=2500))
    with mock.patch.object(alphabet_module, "BLOCK", 16):
        for text in (s, s[:16], s[:17], ""):
            seq = LetterSequence(ab, text)
            assert vc_profile(seq) == per_character_profile(text, ab)
            for size in (1, 7, 1000, len(text) + 1):
                chunks = [text[i : i + size] for i in range(0, len(text), size)]
                assert blocks_of(seq, size) == [per_character_profile(c, ab) for c in chunks]


def test_binom_cdf_against_closed_forms():
    # P(X <= 0) = (1-p)^n and P(X <= n) = 1
    assert math.isclose(_binom_cdf(0, 50, 0.1), 0.9**50, rel_tol=1e-12)
    assert _binom_cdf(50, 50, 0.3) == 1.0
    # two-term case: (1-p)^n + n p (1-p)^(n-1)
    expected = 0.8**10 + 10 * 0.2 * 0.8**9
    assert math.isclose(_binom_cdf(1, 10, 0.2), expected, rel_tol=1e-12)


def test_lipogram_flags_missing_e(en, analysis_corpus):
    reference = count_letters(analysis_corpus)
    e_free = LetterSequence(en, "".join(ch for ch in analysis_corpus.symbols if ch != "e")[:5000])
    flags = lipogram_scan(count_letters(e_free), reference, alpha=1e-6)
    assert "e" in {f.letter for f in flags}
    e_flag = next(f for f in flags if f.letter == "e")
    # oracle: lower tail at observed 0 is exactly (1 - p_e)^n, which
    # underflows to 0 at this length, and expected count is n * p_e
    p_e = reference.proportion("e")
    assert e_flag.observed == 0
    assert math.isclose(e_flag.p_value, (1.0 - p_e) ** 5000, rel_tol=1e-9)
    assert math.isclose(e_flag.expected, 5000 * p_e)


def test_lipogram_zero_reference_proportion_never_flagged(en):
    reference = FrequencyTable.from_counts(en, {"a": 10, "b": 10})
    observed = FrequencyTable.from_counts(en, {"b": 1000})
    flags = lipogram_scan(observed, reference, alpha=0.01)
    # a (expected half the text) is flagged; letters with reference
    # proportion 0 are not, even though they were never observed either
    assert [f.letter for f in flags] == ["a"]


def last_term(k, n, p):
    """t(k), the last term of _binom_cdf's sum, by the expression of its loop."""
    lp, lq = math.log(p), math.log1p(-p)
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10**6),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 50) | st.integers(1, 10**6),
    st.floats(1e-12, 0.5),
)
@example(10, 0.5, 1, last_term(4, 10, 0.5))  # the skip fires at a cutoff equal to t(k)
@example(10**6, 0.5, 1, 1e-12)  # about 19,500 terms summed up to k
@example(10**6, 1e-5, 1, last_term(9, 10**6, 1e-5))
def test_a_last_term_at_the_cutoff_means_a_tail_at_the_cutoff(n, p, below, cutoff):
    """The rule that lets lipogram_scan skip a tail: t(k) >= cutoff implies P(X <= k) >= cutoff."""
    k = max(0, math.ceil(n * p) - below)  # below = 1 gives the largest k below n * p
    assert k < n * p
    if last_term(k, n, p) >= cutoff:
        assert _binom_cdf(k, n, p) >= cutoff


def every_tail_scan(observed, reference, alpha):
    """lipogram_scan as it was when it computed a tail for every letter with p_ref > 0."""
    n = observed.total
    cutoff = alpha / len(observed.alphabet.letters)
    flags = []
    for ch in observed.alphabet.letters:
        p_ref = reference.proportion(ch)
        if p_ref == 0.0:
            continue
        obs = observed.counts[ch]
        p_val = _binom_cdf(obs, n, p_ref)
        if obs >= n * p_ref:
            assert p_val >= 0.5  # the median bound that lets lipogram_scan skip this tail
        if p_val < cutoff:
            flags.append(LipogramFlag(letter=ch, observed=obs, expected=n * p_ref, p_value=p_val))
    return flags


SMALL_ALPHABETS = {
    size: Alphabet(name=f"first{size}", letters=tuple("abcdefghijklmnopqrstuvwxyz"[:size]), vowels=frozenset("a"))
    for size in range(2, 27)
}


def table(counts: list[int]) -> FrequencyTable:
    ab = SMALL_ALPHABETS[len(counts)]
    return FrequencyTable.from_counts(ab, dict(zip(ab.letters, counts)))


@st.composite
def lipogram_cases(draw):
    size = draw(st.integers(2, 26))
    counts = st.lists(st.just(0) | st.integers(0, 400), min_size=size, max_size=size)
    one_letter = st.tuples(st.integers(0, size - 1), st.integers(1, 10**6)).map(
        lambda c: [c[1] if i == c[0] else 0 for i in range(size)]
    )
    observed = draw(counts | st.just([0] * size))
    reference = draw((counts | one_letter).filter(any))
    alpha = draw(st.floats(1e-12, 0.999999) | st.just(0.999999))
    return table(observed), table(reference), alpha


def flag_bits(flags):
    return [(f.letter, f.observed, f.expected.hex(), f.p_value.hex()) for f in flags]


@settings(max_examples=200, deadline=None)
@given(lipogram_cases())
@example((table([0, 0, 0]), table([5, 1, 0]), 0.5))  # an observed total of 0
@example((table([3, 9]), table([0, 7]), 0.999999))  # a one-letter reference: p_ref is 0 for a and 1 for b
@example((table([2, 2]), table([1, 1]), 0.999999))  # observed exactly at the expected count
@example((table([4, 6]), table([1, 1]), 2 * last_term(4, 10, 0.5)))  # t(k) equals the cutoff: a's tail is skipped
# t(k) one ulp below the cutoff: a's tail is summed, and with k = 0 it is t(k) alone, so a is flagged
@example((table([0, 10]), table([1, 1]), 2 * math.nextafter(last_term(0, 10, 0.5), math.inf)))
def test_lipogram_scan_matches_a_tail_for_every_letter(case):
    observed, reference, alpha = case
    expected = every_tail_scan(observed, reference, alpha)
    assert flag_bits(lipogram_scan(observed, reference, alpha)) == flag_bits(expected)


def test_lipogram_computes_tails_only_below_the_expected_count(en, analysis_corpus, monkeypatch):
    """A tail is summed only for a letter below its expected count whose last term t(k) is below the cutoff."""
    import letterlab.stylometry

    reference = count_letters(analysis_corpus)
    calls = []

    def counting_binom_cdf(k, n, p):
        calls.append((k, n, p))
        return _binom_cdf(k, n, p)

    monkeypatch.setattr(letterlab.stylometry, "_binom_cdf", counting_binom_cdf)
    e_free = "".join(ch for ch in analysis_corpus.symbols if ch != "e")[:5000]
    for symbols, alpha in [(analysis_corpus.symbols[:3000], 0.01), (e_free, 1e-6)]:
        observed = count_letters(LetterSequence(en, symbols))
        n, cutoff = observed.total, alpha / len(en.letters)
        tails = [(observed.counts[ch], n, reference.proportion(ch)) for ch in en.letters]
        below = [t for t in tails if t[0] < n * t[2]]
        assert 0 < len(below) < len(en.letters)
        calls.clear()
        lipogram_scan(observed, reference, alpha)
        assert calls == [t for t in below if last_term(*t) < cutoff]
    # the e-free sample still sums the tail of e
    assert (0, 5000, reference.proportion("e")) in calls
    calls.clear()
    # a, b, c and d each sit exactly at their expected count 20 * 1/4; the other letters at 0 * 0
    at_expected = FrequencyTable.from_counts(en, dict.fromkeys("abcd", 5))
    lipogram_scan(at_expected, FrequencyTable.from_counts(en, dict.fromkeys("abcd", 1)))
    assert calls == []


def test_lipogram_monotone_in_alpha(en, analysis_corpus):
    reference = count_letters(analysis_corpus)
    observed = count_letters(LetterSequence(en, analysis_corpus.symbols[:3000]))
    for hi, lo in [(0.05, 0.01), (0.01, 0.001)]:
        flags_hi = {f.letter for f in lipogram_scan(observed, reference, alpha=hi)}
        flags_lo = {f.letter for f in lipogram_scan(observed, reference, alpha=lo)}
        assert flags_lo <= flags_hi


def test_lipogram_alphabet_mismatch(en):
    from letterlab import builtin_alphabet

    fr_table = FrequencyTable.empty(builtin_alphabet("fr"))
    with pytest.raises(InputError):
        lipogram_scan(FrequencyTable.empty(en), fr_table)
