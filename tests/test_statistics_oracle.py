"""The package's hand-written statistics against scipy.stats (test-only dependency)."""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from letterlab import (
    DigramTable,
    FrequencyTable,
    RankEntry,
    RankFrequency,
    TransitionCounts,
    VCProfile,
    builtin_alphabet,
    compare_tables,
    entropy_estimates,
    fit_power_law,
    independence_test,
    proportion_ci,
    two_sample_proportion_test,
)
from letterlab.markov import chi_square_tail_df1
from letterlab.stylometry import _binom_cdf

stats = pytest.importorskip("scipy.stats")


@pytest.mark.parametrize(
    "k, n, p",
    [(0, 50, 0.1), (1, 10, 0.2), (3, 10, 0.5), (40, 1000, 0.05), (500, 1200, 0.45), (11, 12, 0.7), (2, 2000, 0.01)],
)
def test_binom_cdf(k, n, p):
    assert math.isclose(_binom_cdf(k, n, p), stats.binom.cdf(k, n, p), rel_tol=1e-9)


@pytest.mark.parametrize("x", [0.0, 0.01, 0.5, 1.0, 3.841458820694124, 10.0, 50.0])
def test_chi_square_tail_df1(x):
    assert math.isclose(chi_square_tail_df1(x), stats.chi2.sf(x, 1), rel_tol=1e-10)


@pytest.mark.parametrize("vv, vc, cv, cc", [(10, 20, 20, 10), (30, 10, 12, 40), (5, 95, 90, 10), (7, 3, 2, 8)])
@pytest.mark.parametrize("correction", [False, True])
def test_independence_test(vv, vc, cv, cc, correction):
    t = TransitionCounts(n={("V", "V"): vv, ("V", "C"): vc, ("C", "V"): cv, ("C", "C"): cc}, initial="V")
    report = independence_test(t, continuity_correction=correction)
    oracle = stats.chi2_contingency([[vv, vc], [cv, cc]], correction=correction)
    assert math.isclose(report.chi_square, oracle.statistic, rel_tol=1e-12)
    assert math.isclose(report.p_value, oracle.pvalue, rel_tol=1e-10)


def test_independence_test_yates_hand_values():
    t = TransitionCounts(n={("V", "V"): 10, ("V", "C"): 20, ("C", "V"): 20, ("C", "C"): 10}, initial="V")
    assert math.isclose(independence_test(t).chi_square, 20 / 3, rel_tol=1e-12)
    assert math.isclose(independence_test(t, continuity_correction=True).chi_square, 5.4, rel_tol=1e-12)


@pytest.mark.parametrize(
    "count, total, level",
    [(400, 2320, 0.95), (300, 700, 0.95), (50, 100, 0.95), (0, 100, 0.95), (100, 100, 0.9), (3, 17, 0.99)],
)
def test_proportion_ci_wilson(count, total, level):
    ci = proportion_ci(count, total, level)
    oracle = stats.binomtest(count, total).proportion_ci(confidence_level=level, method="wilson")
    assert math.isclose(ci.lower, oracle.low, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(ci.upper, oracle.high, rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("a, b", [((437, 563), (429, 571)), ((4370, 5630), (4290, 5710)), ((5, 20), (12, 13))])
def test_two_sample_proportion_p_value(a, b):
    z, p = two_sample_proportion_test(VCProfile(*a), VCProfile(*b))
    assert math.isclose(p, 2 * stats.norm.sf(abs(z)), rel_tol=1e-10)


EN = builtin_alphabet("en")
LETTER = st.sampled_from(EN.letters)
COUNT = st.integers(0, 10**6)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(LETTER, COUNT, min_size=1).filter(lambda d: any(d.values())),
    st.dictionaries(st.tuples(LETTER, LETTER), COUNT, min_size=1).filter(lambda d: any(d.values())),
)
@example({"a": 5}, {("a", "a"): 4})  # one letter, one pair: every entropy is 0
@example({"a": 1, "b": 1}, {("a", "b"): 1, ("b", "a"): 1})  # each letter fixes the next: h2 is 0
def test_entropy_estimates(unigram, digram):
    # h1 is the unigram entropy; h2 = H(joint) - H(first-letter marginal) of
    # the digram table. Both sides are sums of at most 676 terms of at most
    # log2(676) bits, so 1e-12 relative or absolute is far above their rounding
    # (absolute for h2, a difference that is 0 when each letter fixes the next)
    report = entropy_estimates(FrequencyTable.from_counts(EN, unigram), DigramTable(EN, digram, sum(digram.values())))
    assert math.isclose(report.h1, stats.entropy(list(unigram.values()), base=2), rel_tol=1e-12, abs_tol=1e-12)
    first = Counter()
    for (a, _), n in digram.items():
        first[a] += n
    h2 = stats.entropy(list(digram.values()), base=2) - stats.entropy(list(first.values()), base=2)
    assert math.isclose(report.h2, h2, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=2, max_size=60), st.integers(1, 20))
@example([10**6, 10**6, 10**6 - 1], 1)  # the log counts differ only in their seventh digit
@example([1000, 1, 1, 1], 1)
def test_fit_power_law(values, min_count):
    ordered = sorted(values, reverse=True)
    used = [c for c in ordered if c >= min_count]
    # flat counts are fitted exactly as slope 0 and r^2 1 (linregress has no r for them)
    assume(len(used) >= 2 and used[0] != used[-1])
    rf = RankFrequency(tuple(RankEntry(rank=i, word=f"w{i}", count=c) for i, c in enumerate(ordered, start=1)))
    fit = fit_power_law(rf, min_count=min_count)
    xs, ys = [math.log(r) for r in range(1, len(used) + 1)], [math.log(c) for c in used]
    oracle = stats.linregress(xs, ys)
    # Both fits centre the log counts y, so each deviation from the mean
    # carries a rounding error of a few ulps of max|y|, while the deviations
    # span max y - min y. The tolerance is 1e-12 times the ratio of the two:
    # over 20,000 random fits the largest error was 0.2% of it. The
    # intercept's error also grows with |slope| times the largest log rank.
    tol = 1e-12 * max(map(abs, ys)) / (max(ys) - min(ys))
    assert math.isclose(fit.exponent, -oracle.slope, rel_tol=tol)
    assert math.isclose(fit.intercept, oracle.intercept, rel_tol=tol, abs_tol=tol * abs(oracle.slope) * xs[-1])
    assert math.isclose(fit.r_squared, oracle.rvalue**2, rel_tol=tol)
    assert fit.points_used == len(used)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(LETTER, COUNT, min_size=1).filter(lambda d: any(d.values())),
    st.dictionaries(LETTER, COUNT, min_size=1).filter(lambda d: any(d.values())),
)
@example({"a": 5}, {"a": 7})  # one nonempty column: chi-square 0, one tied rank each
@example({"a": 10**6, "b": 999_999}, {"a": 2 * 10**6 - 2, "b": 1_999_998})  # rows nearly proportional
@example({ch: 1 for ch in "abcdefghijklmnopqrstuvwxyz"}, {"e": 3, "t": 1})  # a constant row
def test_compare_tables(a, b):
    ta, tb = FrequencyTable.from_counts(EN, a), FrequencyTable.from_counts(EN, b)
    d = compare_tables(ta, tb)
    row_a, row_b = [ta.counts[ch] for ch in EN.letters], [tb.counts[ch] for ch in EN.letters]
    # chi-square: the uncorrected homogeneity statistic of the 2 x k table of
    # nonempty columns (chi2_contingency rejects an expected count of 0). Each
    # expected count carries a relative error of a few ulps, which moves the
    # statistic by about 2 eps sum|o - e| <= 2 eps sqrt(chi N) (Cauchy-Schwarz,
    # N the grand total); 1e-12 times that, plus 1e-12 relative, is over 1,000
    # times the largest error seen in 50,000 random tables
    columns = [(x, y) for x, y in zip(row_a, row_b) if x + y]
    oracle = stats.chi2_contingency([[x for x, _ in columns], [y for _, y in columns]], correction=False).statistic
    scale = math.sqrt(max(d.chi_square, oracle) * (ta.total + tb.total))
    assert math.isclose(d.chi_square, oracle, rel_tol=1e-12, abs_tol=1e-12 * scale)
    # Spearman's rho is undefined for a constant row. Ranks are multiples of
    # 1/2 and their mean 13.5, so the centred sums are exact and only the
    # final division and square root round: 1e-12 is far above that
    if len(set(row_a)) > 1 and len(set(row_b)) > 1:
        rho = stats.spearmanr(row_a, row_b).statistic
        assert math.isclose(d.rank_correlation, rho, rel_tol=1e-12, abs_tol=1e-12)
    # total variation against the exact rational value: 26 proportions, each
    # rounded once, and a left-to-right sum of 26 terms whose sum is at most
    # 2 stay under 30 eps, about 7e-15
    exact = sum(abs(Fraction(x, ta.total) - Fraction(y, tb.total)) for x, y in zip(row_a, row_b)) / 2
    assert abs(Fraction(d.total_variation) - exact) < 1e-14


@settings(max_examples=300, deadline=None)
@given(COUNT, COUNT, COUNT, COUNT)
@example(965_571, 0, 0, 1)  # pooled share 1 - 1e-6: 1 - pooled cancels
@example(1_000_000, 999_999, 3_000_000, 2_999_998)  # p1 - p2 cancels
@example(3, 3, 5, 5)  # equal shares: z is 0
def test_two_sample_proportion_z_squared_is_the_uncorrected_chi_square(v1, c1, v2, c2):
    # a pooled two-proportion z-test is the 2 x 2 homogeneity test: z**2 = chi-square
    assume(v1 + c1 and v2 + c2 and v1 + v2 and c1 + c2)
    z, _ = two_sample_proportion_test(VCProfile(v1, c1), VCProfile(v2, c2))
    oracle = stats.chi2_contingency([[v1, c1], [v2, c2]], correction=False).statistic
    # z is (p1 - p2) / se. p1 - p2 is off by up to about eps, which moves z**2
    # by 2 |z| eps / se; 1 - pooled is off by eps / (1 - pooled) relatively,
    # and likewise pooled, so z**2 is off by up to eps N / min(v1 + v2, c1 + c2)
    # relatively. The oracle's o - e is off by about eps e in each cell, which
    # moves it by about 2 |z| eps sqrt(N). 1e-12 times these is over 1,000
    # times the largest error seen in 200,000 random tables.
    n1, n2 = v1 + c1, v2 + c2
    pooled = (v1 + v2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    rel_tol = 1e-12 * (n1 + n2) / min(v1 + v2, c1 + c2)
    assert math.isclose(z * z, oracle, rel_tol=rel_tol, abs_tol=1e-12 * abs(z) * (1 / se + math.sqrt(n1 + n2)))


EPS = 2.0**-52
# scipy's chi2.sf goes through the regularized upper incomplete gamma
# function, whose documented peak relative error (Cephes igamc, shape 0.5)
# is 1.4e-13; over 5,000 random x from 1e-6 to 316 it was at most 3.1e-14
CHI2_SF_ERROR = 1.4e-13


def chi_tail_rel_tol(x: float) -> float:
    # erfc(sqrt(x / 2)): the square root rounds by up to 2**-53 relatively,
    # which moves erfc by up to x 2**-53 relatively (d ln erfc(y) / dy is
    # about -2y), and erfc rounds by about an ulp more; 2 (1 + x) eps covers
    # that with over 3x margin against a 40-digit reference
    return CHI2_SF_ERROR + 2 * (1 + x) * EPS


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 2000))
@example(120, 120, 30, 210)  # "banana " * 40 against "strength " * 30: z 8.86, p 7.8e-19
@example(1213, 494, 13, 1134)  # z 36.9996, p 1.2e-299
def test_two_sample_proportion_p_value_keeps_its_digits_in_the_tail(v1, c1, v2, c2):
    assume(v1 + c1 and v2 + c2 and v1 + v2 and c1 + c2)
    z, p = two_sample_proportion_test(VCProfile(v1, c1), VCProfile(v2, c2))
    # past |z| about 37.7 scipy's norm.sf flushes p to 0 while erfc still
    # gives a subnormal; up to 37, p is at least 1e-299, a normal float
    assume(abs(z) <= 37)
    # Each side rounds |z| / sqrt(2) by up to 2**-52 relatively, which moves
    # p by up to z**2 2**-52 relatively, and rounds its erfc by a few ulps
    # (norm.sf takes 1 - erf below |z| = sqrt(2)). 8 (1 + z**2) eps covers
    # both sides: over 40,000 random tables the largest error was a quarter of it.
    assert math.isclose(p, 2 * stats.norm.sf(abs(z)), rel_tol=8 * (1 + z * z) * EPS)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-6, 316))
@example(1e-6)
@example(316.0)
def test_chi_square_tail_df1_against_chi2_sf(x):
    assert math.isclose(chi_square_tail_df1(x), stats.chi2.sf(x, 1), rel_tol=chi_tail_rel_tol(x))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**5), st.integers(0, 10**5), st.integers(0, 10**5), st.integers(0, 10**5))
@example(10, 20, 20, 10)
@example(3, 6, 2, 4)  # proportional rows: chi-square 0, p 1
@example(740, 0, 0, 740)  # p a subnormal 1e-323, which scipy flushes to 0
def test_independence_test_against_chi2_contingency(vv, vc, cv, cc):
    # chi2_contingency rejects a table with a zero margin; independence_test
    # rejects a zero row and skips a zero column
    assume(vv + vc and cv + cc and vv + cv and vc + cc)
    t = TransitionCounts(n={("V", "V"): vv, ("V", "C"): vc, ("C", "V"): cv, ("C", "C"): cc}, initial="V")
    report = independence_test(t)
    oracle = stats.chi2_contingency([[vv, vc], [cv, cc]], correction=False)
    # Both sides round each expected count row * column / N once (the
    # product is exact below 2**53) and each term (o - e)**2 / e alike, so
    # they differ at most in the order they add four nonnegative terms:
    # each order is within 3 eps of the exact sum
    assert math.isclose(report.chi_square, oracle.statistic, rel_tol=6 * EPS)
    assert report.degrees_of_freedom == oracle.dof == 1
    # p = chi2.sf(chi, 1), and 6 eps of chi moves it by up to 3 chi eps
    # relatively. Below the smallest normal float a value keeps only its
    # absolute precision, and scipy flushes p to 0 where erfc is still subnormal.
    rel_tol = chi_tail_rel_tol(report.chi_square) + 3 * report.chi_square * EPS
    assert math.isclose(report.p_value, oracle.pvalue, rel_tol=rel_tol, abs_tol=sys.float_info.min)
