"""Vowel/consonant proportion statistics.

The vowel share of a text, V/(V+C), separates styles: poetry-leaning
material sits above 7/16, oratory-leaning material above 3/7, a gap of
only 1/112 (under one percent). Threshold comparisons therefore use
exact rational arithmetic; equality gets its own "boundary" verdict
rather than drowning in float noise. The module also covers the
vowels-per-100-consonants normalization with its min/median/max spread
across samples, a pooled two-proportion z-test, and a letter-avoidance
(lipogram) scan based on exact binomial tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .alphabet import LetterSequence
from .errors import InputError
from .freq import FrequencyTable

POETRY_THRESHOLD = Fraction(7, 16)
ORATOR_THRESHOLD = Fraction(3, 7)


@dataclass(frozen=True)
class VCProfile:
    """Vowel and consonant totals of one sample."""

    vowel_count: int
    consonant_count: int

    def __post_init__(self):
        if self.vowel_count < 0 or self.consonant_count < 0:
            raise InputError("negative count")

    @property
    def total(self) -> int:
        return self.vowel_count + self.consonant_count

    @property
    def vowel_share(self) -> float | None:
        """V/(V+C), or None for an empty sample."""
        if self.total == 0:
            return None
        return self.vowel_count / self.total

    @property
    def vowels_per_100(self) -> float | None:
        """100*V/C; undefined (None) when there are no consonants."""
        if self.consonant_count == 0:
            return None
        return 100.0 * self.vowel_count / self.consonant_count


@dataclass(frozen=True)
class AlbertiVerdict:
    """A vowel share and where it falls: both threshold flags and the label are computed from it."""

    vowel_share: Fraction
    above_poetry_threshold: bool = field(init=False)
    above_orator_threshold: bool = field(init=False)
    label: str = field(init=False)  # poetry-consistent | orator-consistent | below-both | boundary

    def __post_init__(self):
        share = self.vowel_share
        poetry, orator = share > POETRY_THRESHOLD, share > ORATOR_THRESHOLD
        object.__setattr__(self, "above_poetry_threshold", poetry)
        object.__setattr__(self, "above_orator_threshold", orator)
        label = "poetry-consistent" if poetry else "orator-consistent" if orator else "below-both"
        object.__setattr__(self, "label", "boundary" if share in (POETRY_THRESHOLD, ORATOR_THRESHOLD) else label)


@dataclass(frozen=True)
class VariationSummary:
    minimum: float
    median: float
    maximum: float
    sample_count: int

    def __post_init__(self):
        if not (self.minimum <= self.median <= self.maximum):
            raise InputError("summary must satisfy min <= median <= max")


@dataclass(frozen=True)
class LipogramFlag:
    letter: str
    observed: int
    expected: float
    p_value: float


def _profile(symbols: str, vowels) -> VCProfile:
    v = sum(map(symbols.count, vowels))
    return VCProfile(vowel_count=v, consonant_count=len(symbols) - v)


def vc_profile(seq: LetterSequence) -> VCProfile:
    """Partition a letter sequence by the alphabet's vowel set."""
    return _profile(seq.symbols, seq.alphabet.vowels)


def alberti_test(p: VCProfile) -> AlbertiVerdict:
    """Classify a sample against the poetry (7/16) and oratory (3/7) thresholds.

    Comparisons are strict and exact; a share equal to either threshold
    is labelled "boundary". The verdict is invariant under scaling both
    counts by the same factor.
    """
    if p.total == 0:
        raise InputError("empty profile")
    return AlbertiVerdict(Fraction(p.vowel_count, p.total))


def two_sample_proportion_test(a: VCProfile, b: VCProfile) -> tuple[float, float]:
    """Pooled two-proportion z-test on vowel shares.

    Returns (z, two-sided p). Antisymmetric in its arguments: swapping
    them negates z and keeps p.
    """
    if a.total == 0 or b.total == 0:
        raise InputError("empty profile")
    n1, n2 = a.total, b.total
    p1, p2 = a.vowel_count / n1, b.vowel_count / n2
    if p1 == p2:
        return 0.0, 1.0
    pooled = (a.vowel_count + b.vowel_count) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = (p1 - p2) / se
    # erfc keeps its digits in the tail, where 1 + erf cancels
    return z, math.erfc(abs(z) / math.sqrt(2.0))


def compass_of_variation(profiles: list[VCProfile]) -> VariationSummary:
    """Min/median/max of vowels-per-100-consonants across samples.

    The median takes the lower middle value for even sample counts.
    """
    if not profiles:
        raise InputError("no samples")
    values = []
    for p in profiles:
        v = p.vowels_per_100
        if v is None:
            raise InputError("sample without consonants has no vowels-per-100 value")
        values.append(v)
    values.sort()
    return VariationSummary(
        minimum=values[0],
        median=values[(len(values) - 1) // 2],
        maximum=values[-1],
        sample_count=len(values),
    )


def blocks_of(seq: LetterSequence, block_size: int = 1000) -> list[VCProfile]:
    """Fixed-size block profiles of one long text (last partial block kept)."""
    if block_size <= 0:
        raise InputError("block size must be positive")
    s, vowels = seq.symbols, seq.alphabet.vowels
    return [_profile(s[start : start + block_size], vowels) for start in range(0, len(s), block_size)]


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), exact log-space summation.

    The sum runs from a window's lower edge below mu = n*p up to k. The
    Taylor bound on the KL divergence gives log P(X <= mu - d) <= -d^2/(2nv),
    with v = p(1-p) for p < 1/2 and 1/4 otherwise. It is -760 at the edge and
    a computed log-term is off by under 1 for n below 1e12, so a term below
    the edge has exp() exactly 0.0, and skipping it keeps every bit.
    """
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
    mu, v = n * p, (p * (1.0 - p) if p < 0.5 else 0.25)
    start = max(0, math.floor(mu - math.sqrt(1520.0 * n * v)))
    total = 0.0
    # inline, not ordered_sum: ~58k terms per corpus pass, where a generator is 10-15% slower
    for i in range(start, k + 1):
        total += math.exp(lg_n - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq)
    return min(total, 1.0)


def lipogram_scan(
    observed: FrequencyTable, reference: FrequencyTable, alpha: float = 0.01
) -> list[LipogramFlag]:
    """Flag letters suspiciously underused relative to a reference table.

    For each letter, the p-value is the exact lower binomial tail
    P(X <= observed) with n = observed total and the reference
    proportion as success rate. A letter is flagged when its p-value
    clears the Bonferroni-corrected level alpha / |alphabet|, below 1/2.
    A letter observed at or above its expected count n * p gets no tail
    and no flag, because the binomial median is at most ceil(n * p)
    (Kaas & Buhrman 1980), so its tail is at least 1/2.
    A letter below it is skipped too when its tail's last term t(k), from
    the summing loop's own expression, is at least the cutoff: the loop adds
    t(k) last to terms >= 0, so the computed tail cannot fall below t(k).
    """
    if observed.alphabet != reference.alphabet:
        raise InputError("alphabet mismatch")
    if reference.total == 0:
        raise InputError("empty reference table")
    if not 0 < alpha < 1:
        raise InputError("alpha must lie strictly between 0 and 1")
    n = observed.total
    cutoff = alpha / len(observed.alphabet.letters)
    lg_n = math.lgamma(n + 1)
    flags = []
    for ch in observed.alphabet.letters:
        p_ref, obs = reference.proportion(ch), observed.counts[ch]
        if obs >= n * p_ref:
            continue
        if p_ref < 1.0:  # t(k) exactly as _binom_cdf's loop adds it, with its lp and lq
            lp, lq = math.log(p_ref), math.log1p(-p_ref)
            if math.exp(lg_n - math.lgamma(obs + 1) - math.lgamma(n - obs + 1) + obs * lp + (n - obs) * lq) >= cutoff:
                continue
        p_val = _binom_cdf(obs, n, p_ref)
        if p_val < cutoff:
            flags.append(LipogramFlag(letter=ch, observed=obs, expected=n * p_ref, p_value=p_val))
    return flags
