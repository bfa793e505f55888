"""Word rank-frequency extraction and power-law fitting.

The fit is plain least squares on (ln rank, ln count) over entries at
or above a count cutoff; the exponent is the negated slope. This is the
transparent desk-scale estimator, not a maximum-likelihood power-law
fit, and it weights the head of the distribution accordingly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .alphabet import WordSequence
from .errors import InputError
from .freq import moments


@dataclass(frozen=True)
class RankEntry:
    rank: int
    word: str
    count: int


@dataclass(frozen=True)
class RankFrequency:
    """Words ordered by decreasing count, ties broken lexicographically."""

    entries: tuple[RankEntry, ...]

    def __post_init__(self):
        prev = None
        for i, e in enumerate(self.entries, start=1):
            if e.rank != i:
                raise InputError("ranks must run 1..n")
            if e.count <= 0:
                raise InputError("counts must be positive")
            if prev is not None and e.count > prev:
                raise InputError("counts must be non-increasing with rank")
            prev = e.count

    @property
    def total(self) -> int:
        return sum(e.count for e in self.entries)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    intercept: float
    r_squared: float
    points_used: int

    def __post_init__(self):
        if self.points_used < 2:
            raise InputError("fit needs at least two points")


def word_rank_frequency(words: WordSequence) -> RankFrequency:
    """Rank distinct words by count; the counts sum to the token total.
    A reverse sort is still stable, so equal counts stay in word order."""
    if not words.words:
        raise InputError("empty word sequence")
    counts = Counter(words.words)
    ordered = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
    entries = tuple(RankEntry(rank=i, word=w, count=counts[w]) for i, w in enumerate(ordered, start=1))
    return RankFrequency(entries=entries)


def fit_power_law(rf: RankFrequency, min_count: int = 5) -> PowerLawFit:
    """Least-squares fit of ln count against ln rank.

    Only entries with count >= min_count enter the fit; at least two
    such points are required. Scaling all counts by a constant moves
    the intercept and leaves the exponent unchanged.
    """
    used = [e for e in rf.entries if e.count >= min_count]
    n = len(used)
    if n < 2:
        raise InputError(f"need at least 2 entries with count >= {min_count}, have {n}")
    mx, my, sxx, syy, sxy = moments([math.log(e.rank) for e in used], [math.log(e.count) for e in used])
    # counts are non-increasing, so equal ends mean flat counts, which the
    # zero-slope line fits exactly; their logs' rounded mean can leave syy and
    # sxy a few ulps off zero
    if used[0].count == used[-1].count:
        slope, r_squared = 0.0, 1.0
    else:
        slope = sxy / sxx
        r_squared = (sxy * sxy) / (sxx * syy)
    intercept = my - slope * mx
    return PowerLawFit(exponent=0.0 - slope, intercept=intercept, r_squared=r_squared, points_used=n)
