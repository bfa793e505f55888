"""The package's hand-written statistics against scipy.stats (test-only dependency)."""

import math

import pytest

from letterlab import TransitionCounts, VCProfile, independence_test, proportion_ci, two_sample_proportion_test
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
