"""Every reported float sum runs left to right.

The references below are the plain loops these statistics were first
written with, each term and each `+=` in its original order. The
library must match them bit for bit, signed zeros included, on every
interpreter: the builtin `sum()` is compensated from Python 3.12 on,
so a reference built on it would drift with the interpreter too. The
binomial tail skips the terms whose exp() is exactly 0.0; its
reference adds every one of them.
"""

import math

from hypothesis import example, given, settings, strategies as st

from letterlab import (
    DigramTable,
    FrequencyTable,
    RankEntry,
    RankFrequency,
    TransitionCounts,
    builtin_alphabet,
    compare_tables,
    entropy_estimates,
    fit_power_law,
    independence_test,
)
from letterlab.freq import ordered_sum
from letterlab.markov import STATES
from letterlab.stylometry import _binom_cdf

EN = builtin_alphabet("en")
SMALL = "abcde"  # few letters, so ties and repeated cells are common


def bits(*values: float) -> tuple[str, ...]:
    return tuple(v.hex() for v in values)


def plain_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def reference_compare(a: FrequencyTable, b: FrequencyTable) -> tuple[float, float, float]:
    letters = a.alphabet.letters
    tv = 0.5 * plain_sum(abs(a.proportion(ch) - b.proportion(ch)) for ch in letters)
    chi = 0.0
    na, nb = a.total, b.total
    for ch in letters:
        pooled = a.counts[ch] + b.counts[ch]
        if pooled == 0:
            continue
        ea = na * pooled / (na + nb)
        eb = nb * pooled / (na + nb)
        chi += (a.counts[ch] - ea) ** 2 / ea + (b.counts[ch] - eb) ** 2 / eb

    def average_ranks(values):
        order = sorted(range(len(values)), key=lambda i: -values[i])
        ranks = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                ranks[order[k]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return ranks

    xs = average_ranks([a.counts[ch] for ch in letters])
    ys = average_ranks([b.counts[ch] for ch in letters])
    n = len(xs)
    mx, my = plain_sum(xs) / n, plain_sum(ys) / n
    sxx = plain_sum((x - mx) ** 2 for x in xs)
    syy = plain_sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return tv, chi, 1.0 if xs == ys else 0.0
    return tv, chi, plain_sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / math.sqrt(sxx * syy)


def reference_entropy(unigram: FrequencyTable, digram: DigramTable) -> tuple[float, float]:
    h1 = 0.0
    for ch in unigram.alphabet.letters:
        p = unigram.proportion(ch)
        if p > 0.0:
            h1 -= p * math.log2(p)
    rows = digram.row_totals()
    h2 = 0.0
    for (a, _), n in digram.counts.items():
        if n == 0:
            continue
        h2 -= n / digram.total * math.log2(n / rows[a])
    return h1, h2


def reference_chi_square(t: TransitionCounts, continuity_correction: bool) -> float:
    rows = {a: t.row_total(a) for a in STATES}
    cols = {b: t.n[(STATES[0], b)] + t.n[(STATES[1], b)] for b in STATES}
    chi = 0.0
    for a in STATES:
        for b in STATES:
            expected = rows[a] * cols[b] / t.total
            if expected == 0.0:
                continue
            diff = abs(t.n[(a, b)] - expected)
            if continuity_correction:
                diff = max(diff - 0.5, 0.0)
            chi += diff * diff / expected
    return chi


def reference_fit(rf: RankFrequency, min_count: int) -> tuple[float, float, float]:
    points = [(math.log(e.rank), math.log(e.count)) for e in rf.entries if e.count >= min_count]
    n = len(points)
    mx = plain_sum(x for x, _ in points) / n
    my = plain_sum(y for _, y in points) / n
    sxx = plain_sum((x - mx) ** 2 for x, _ in points)
    sxy = plain_sum((x - mx) * (y - my) for x, y in points)
    syy = plain_sum((y - my) ** 2 for _, y in points)
    if points[0][1] == points[-1][1]:
        slope, r_squared = 0.0, 1.0
    else:
        slope = sxy / sxx
        r_squared = (sxy * sxy) / (sxx * syy)
    return 0.0 - slope, my - slope * mx, r_squared


def reference_binom_cdf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    total = 0.0
    for i in range(k + 1):
        total += math.exp(lg_n - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq)
    return min(total, 1.0)


def test_ordered_sum_is_not_compensated():
    assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0  # a compensated sum gives 2.0
    assert bits(ordered_sum([])) == bits(0.0)


counts = st.one_of(st.integers(0, 4), st.integers(0, 10**9))


@given(st.lists(counts, min_size=26, max_size=26), st.lists(counts, min_size=26, max_size=26))
@example([1] * 26, [1] * 26)
@example([5] + [0] * 25, [0] * 25 + [5])
@example(  # (o - e) * (o - e) instead of (o - e) ** 2 would change chi_square
    [2, 2, 3, 4, 2, 1, 1, 1, 0, 1, 0, 3, 4, 2, 0, 0, 1, 3, 0, 4, 1, 4, 0, 2, 1, 2],
    [4, 1, 1, 4, 1, 0, 0, 1, 0, 3, 4, 1, 0, 4, 0, 0, 2, 2, 1, 4, 0, 0, 3, 0, 0, 2],
)
def test_compare_tables_matches_reference(xs, ys):
    a = FrequencyTable.from_counts(EN, dict(zip(EN.letters, xs)))
    b = FrequencyTable.from_counts(EN, dict(zip(EN.letters, ys)))
    if a.total == 0 or b.total == 0:
        return
    d = compare_tables(a, b)
    assert bits(d.total_variation, d.chi_square, d.rank_correlation) == bits(*reference_compare(a, b))


@given(
    st.dictionaries(st.sampled_from(SMALL), counts, min_size=1),
    st.dictionaries(st.tuples(st.sampled_from(SMALL), st.sampled_from(SMALL)), counts, min_size=1),
)
@example({"a": 4}, {("a", "a"): 3})  # one letter: both sums are zero and must print 0.0
def test_entropy_estimates_matches_reference(unigram, digram):
    u = FrequencyTable.from_counts(EN, unigram)
    d = DigramTable(EN, digram, sum(digram.values()))
    if u.total == 0 or d.total == 0:
        return
    e = entropy_estimates(u, d)
    assert bits(e.h1, e.h2) == bits(*reference_entropy(u, d))


def test_entropy_of_one_letter_is_positive_zero():
    e = entropy_estimates(FrequencyTable.from_counts(EN, {"a": 4}), DigramTable(EN, {("a", "a"): 3}, 3))
    assert bits(e.h1, e.h2) == bits(0.0, 0.0)


@given(st.lists(counts, min_size=4, max_size=4), st.booleans())
@example([3, 0, 2, 0], True)  # a zero column: its cells drop out
@example([895, 157, 460, 133], False)  # d ** 2 instead of d * d would change both
@example([571530, 916, 2, 226697], True)
def test_independence_test_matches_reference(cells, continuity_correction):
    t = TransitionCounts(n=dict(zip([(a, b) for a in STATES for b in STATES], cells)), initial=STATES[0])
    if t.row_total(STATES[0]) == 0 or t.row_total(STATES[1]) == 0:
        return
    chi = independence_test(t, continuity_correction=continuity_correction).chi_square
    assert bits(chi) == bits(reference_chi_square(t, continuity_correction))


@given(st.lists(st.integers(1, 10**6), min_size=2, max_size=60), st.integers(1, 20))
@example([7, 7, 7], 1)  # flat counts
@example([5, 5, 1], 2)  # flat once the count under min_count drops out: the exponent is +0.0
@example([6, 6, 6], 1)  # flat, but the mean of the three logs rounds off log(6)
@example([7, 7, 7, 7, 7], 1)  # and of five logs off log(7)
@example([65, 55, 50, 35], 1)  # (x - mx) * (x - mx) instead of ** 2 would change it
def test_fit_power_law_matches_reference(values, min_count):
    ordered = sorted(values, reverse=True)
    rf = RankFrequency(tuple(RankEntry(rank=i, word=f"w{i}", count=c) for i, c in enumerate(ordered, start=1)))
    if sum(c >= min_count for c in ordered) < 2:
        return
    fit = fit_power_law(rf, min_count=min_count)
    assert bits(fit.exponent, fit.intercept, fit.r_squared) == bits(*reference_fit(rf, min_count))


@st.composite
def binomial_cases(draw):
    n, p = draw(st.integers(0, 2_000_000)), draw(st.floats(0.0, 1.0))
    mode, sd = int((n + 1) * p), math.sqrt(n * p * (1.0 - p))
    # any k, or one near the mode, where the tail is neither 0 nor 1
    k = draw(st.integers(-1, n + 1) | st.integers(int(mode - 60 * sd) - 2, int(mode + 60 * sd) + 2))
    return k, n, p


# the reference costs O(k) lgamma calls, up to 2e6 of them
@settings(max_examples=50, deadline=None)
@given(binomial_cases())
@example((81021, 1208895, float.fromhex("0x1.3768733d4b066p-4")))  # 'a' lipogram tail, subnormal: 1.693903e-317
@example((112300, 1_000_000, 0.1))  # 41 sigma above the mode: the terms above the window add 0.0
@example((700, 75619, 0.01))  # the log-term at i = 0 just above -760
@example((700, 75620, 0.01))  # and just below
@example((200, 2_000_000, 1e-9))
@example((99_880, 100_000, 0.999))
@example((10, 1_000_000, 0.1))  # every term through k is zero: k lies below the window
@example((0, 2_000_000, 0.0004))  # the window starts at 0, whose term is already 0.0
@example((100_002, 1_000_000, 0.1))  # k just above the mean
@example((775, 3000, 0.6))  # p >= 1/2, so v = 1/4; the tail is subnormal: 2.148295e-315
@example((3, 200, 0.001))  # a mean below 1: the window starts at 0
@example((600_000, 1_200_000, 0.08))  # k far above the mean
def test_binom_cdf_matches_reference(case):
    k, n, p = case
    assert bits(_binom_cdf(k, n, p)) == bits(reference_binom_cdf(k, n, p))


def test_binom_cdf_sums_only_its_window(monkeypatch):
    calls = 0
    lgamma = math.lgamma

    def counting_lgamma(x):
        nonlocal calls
        calls += 1
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", counting_lgamma)
    _binom_cdf(80_904, 1_208_772, 0.0760)  # the window starts about 400 terms below k
    assert calls < 2_000
