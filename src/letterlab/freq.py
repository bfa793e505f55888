"""Letter and digram counting, ranking, comparison, and interval estimates.

Tables are immutable value objects over a fixed :class:`Alphabet`
universe; counting functions are pure, and chunked counts combine with
:func:`merge` (an exact monoid, so splitting a corpus never changes the
totals). Proportion intervals use the Wilson score construction, which
behaves sensibly at zero counts and small samples. Table distances
bundle total variation, a two-sample chi-square, and Spearman rank
correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import alphabet as _alphabet  # BLOCK is read through the module at each call
from .alphabet import Alphabet, LetterSequence, WordSequence
from .errors import InputError
from .rng import substream


def _total(counts: dict, keys_ok: bool = True, check_key=lambda key: None) -> int:
    """Sum of `counts`, each a nonnegative integer: one that operator.index takes, so numpy's too. The
    sum is an int exactly when every count is one, so the loop runs only to name the first bad entry."""
    values = counts.values()
    try:  # not min(values, default=0), whose keyword parse alone doubles the cost of a short table
        if type(total := sum(values)) is int and keys_ok and (not values or min(values) >= 0):
            return total
    except TypeError:  # a count that sum() cannot add
        pass
    for key, n in counts.items():
        check_key(key)
        if not hasattr(type(n), "__index__"):
            raise InputError(f"count {n!r} of {key!r} is not an integer")
        if n < 0:
            raise InputError("negative count")
    return sum(map(int, counts.values()))


@dataclass(frozen=True)
class FrequencyTable:
    """Counts per letter. Every alphabet letter is keyed, zeros included; `total`, their sum, is computed."""

    alphabet: Alphabet
    counts: dict[str, int]
    total: int = field(init=False)

    def __post_init__(self):
        if self.counts.keys() != self.alphabet._index.keys():
            raise InputError("counts must key every alphabet letter exactly once")
        object.__setattr__(self, "total", _total(self.counts))  # not via __dict__, which slows every read

    @classmethod
    def from_counts(cls, alphabet: Alphabet, counts: dict[str, int]) -> "FrequencyTable":
        if foreign := [ch for ch in counts if ch not in alphabet._index]:
            raise InputError(f"letter {foreign[0]!r} not in alphabet {alphabet.name!r}")
        return cls(alphabet, {ch: counts.get(ch, 0) for ch in alphabet.letters})

    @classmethod
    def empty(cls, alphabet: Alphabet) -> "FrequencyTable":
        return cls.from_counts(alphabet, {})

    def proportion(self, letter: str) -> float:
        return self.counts[letter] / self.total if self.total else 0.0


@dataclass(frozen=True)
class DigramTable:
    """Counts per ordered letter pair, pairs never seen absent; `total`, their sum, is computed."""

    alphabet: Alphabet
    counts: dict[tuple[str, str], int]
    total: int = field(init=False)

    def __post_init__(self):
        keys_ok = self.counts.keys() <= self.alphabet._pair_set
        object.__setattr__(self, "total", _total(self.counts, keys_ok, self._check_pair))

    def _check_pair(self, key) -> None:
        if not (isinstance(key, tuple) and len(key) == 2):  # a two-letter string would unpack
            raise InputError(f"digram key {key!r} is not a pair")
        a, b = key
        if a not in self.alphabet._index or b not in self.alphabet._index:
            raise InputError(f"pair ({a!r},{b!r}) not in alphabet {self.alphabet.name!r}")

    def count(self, first: str, second: str) -> int:
        return self.counts.get((first, second), 0)

    def row_totals(self) -> dict[str, int]:
        rows = {ch: 0 for ch in self.alphabet.letters}
        for (a, _), n in self.counts.items():
            rows[a] += n
        return rows

    def _ordered_pairs(self):
        return [pair for pair in self.alphabet._pairs if pair in self.counts]


@dataclass(frozen=True)
class ConfidenceInterval:
    estimate: float
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.estimate <= self.upper <= 1.0):
            raise InputError("interval must satisfy 0 <= lower <= estimate <= upper <= 1")


@dataclass(frozen=True)
class TableDistance:
    total_variation: float
    chi_square: float
    rank_correlation: float

    def __post_init__(self):
        if not (-1e-12 <= self.total_variation <= 1.0 + 1e-12):
            raise InputError("total variation out of [0,1]")
        if self.chi_square < 0:
            raise InputError("negative chi-square")
        if not (-1.0 - 1e-12 <= self.rank_correlation <= 1.0 + 1e-12):
            raise InputError("rank correlation out of [-1,1]")


@dataclass(frozen=True)
class PositionalStats:
    """Per-word letter placement tallies: first, last, second, penultimate positions, plus counts
    of immediate doublings inside words. `word_count` is computed: it is `initial.total`."""

    initial: FrequencyTable
    final: FrequencyTable
    second: FrequencyTable
    penultimate: FrequencyTable
    doubles: dict[str, int]
    word_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "word_count", self.initial.total)


def _tally(alphabet: Alphabet, codes: np.ndarray) -> FrequencyTable:
    """Table of letter codes (positions in `alphabet.letters`), one count each."""
    import numpy as np

    block, size = _alphabet.BLOCK, len(alphabet)
    counts = np.bincount(codes[:block], minlength=size)
    for i in range(block, len(codes), block):
        counts += np.bincount(codes[i : i + block], minlength=size)
    return FrequencyTable(alphabet, dict(zip(alphabet.letters, counts.tolist())))


def count_letters(seq: LetterSequence) -> FrequencyTable:
    """Count every letter of the sequence; zero-count letters stay present."""
    return _tally(seq.alphabet, seq._codes)


def _pair_blocks(codes: np.ndarray, size: int):
    """Offset and pair codes ``a * size + b`` of each block of BLOCK
    overlapping pairs ab of `codes`, in order: one empty block if there is
    no pair."""
    import numpy as np

    block, n = _alphabet.BLOCK, max(0, len(codes) - 1)
    for i in range(0, n or 1, block):
        j = min(i + block, n)
        # widened first: one-byte codes (up to 255 letters) overflow as pair codes
        pairs = np.multiply(codes[i:j], size, dtype=np.intp)
        pairs += codes[i + 1 : j + 1]
        yield i, pairs


def _pair_tally(codes: np.ndarray, size: int, first: np.ndarray | None = None) -> np.ndarray:
    """Count of each pair code (of `size`² in all) over the overlapping pairs
    of `codes`. Given `first`, each pair's entry in it is lowered to the
    offset of the pair's first occurrence; a block in which no pair is seen
    for the first time cannot lower any, so it is not searched."""
    import numpy as np

    for i, pairs in _pair_blocks(codes, size):
        counts = np.bincount(pairs, minlength=size * size)
        if i:
            fresh = counts[tally == 0].any()  # a pair not seen in an earlier block
            tally += counts
        else:
            fresh, tally = True, counts
        if first is not None and fresh:
            np.minimum.at(first, pairs, np.arange(i, i + len(pairs)))
    return tally


def count_digrams(seq: LetterSequence) -> DigramTable:
    """Count overlapping adjacent pairs, keyed by first occurrence; total is max(0, len - 1).

    The pairs are coded and counted BLOCK at a time, so the temporaries stay
    the same size however long the text (see :mod:`letterlab.alphabet`).
    """
    import numpy as np

    size, n = len(seq.alphabet), max(0, len(seq.symbols) - 1)
    first = np.full(size * size, n)
    tally = _pair_tally(seq._codes, size, first).tolist()
    seen = np.flatnonzero(first < n)
    order = seen[np.argsort(first[seen])].tolist()
    names = seq.alphabet._pairs
    return DigramTable(seq.alphabet, {names[p]: tally[p] for p in order})


def merge(a, b):
    """Pointwise sum of two tables of the same kind over the same alphabet."""
    if type(a) is not type(b):
        raise InputError("cannot merge tables of different kinds")
    if not isinstance(a, (FrequencyTable, DigramTable)):
        raise InputError(f"cannot merge {type(a).__name__}")
    if a.alphabet != b.alphabet:
        raise InputError("alphabet mismatch")
    counts = dict(a.counts)
    for key, n in b.counts.items():
        counts[key] = counts.get(key, 0) + n
    return type(a)(a.alphabet, counts)


def rank_order(t: FrequencyTable) -> list[str]:
    """Letters by decreasing count; a stable sort keeps ties in alphabet letter order."""
    return sorted(t.alphabet.letters, key=lambda ch: -t.counts[ch])


def proportion_ci(count: int, total: int, level: float = 0.95) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    With z the standard normal quantile at (1+level)/2 and p^ = count/total:

        center = (p^ + z^2/2n) / (1 + z^2/n)
        half   = z * sqrt(p^(1-p^)/n + z^2/4n^2) / (1 + z^2/n)

    Bounds are clamped to [0, p^] and [p^, 1] against float round-off. At
    count 0 the lower bound is exactly 0, which the Wald approximation gets wrong.
    """
    from statistics import NormalDist

    if total <= 0:
        raise InputError("total must be positive")
    if not 0 < level < 1:
        raise InputError("level must lie strictly between 0 and 1")
    quantile = (1.0 + level) / 2.0
    if quantile == 1.0:
        raise InputError("level is too close to 1: (1 + level) / 2 rounds to 1")
    if count < 0 or count > total:
        raise InputError("count must lie in [0, total]")
    z = NormalDist().inv_cdf(quantile)
    n = total
    phat = count / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    lower = min(max(center - half, 0.0), phat)
    upper = max(min(center + half, 1.0), phat)
    return ConfidenceInterval(estimate=phat, lower=lower, upper=upper, level=level)


def _average_ranks(values: list[int]) -> list[float]:
    # rank 1 = largest value; tied values share the mean of their first and last rank
    first, last = {}, {}
    for rank, v in enumerate(sorted(values, reverse=True), start=1):
        first.setdefault(v, rank)
        last[v] = rank
    return [(first[v] + last[v]) / 2 for v in values]


def ordered_sum(values) -> float:
    """Sum added strictly left to right from 0.0, for every float a report
    prints: sum() (compensated from Python 3.12) and np.sum (pairwise)
    would move the last bits of the result."""
    total = 0.0
    for v in values:
        total += v
    return total


def moments(xs: list[float], ys: list[float]) -> tuple[float, float, float, float, float]:
    """Means and centred sums of squares and products: (mx, my, sxx, syy, sxy)."""
    mx, my = ordered_sum(xs) / len(xs), ordered_sum(ys) / len(ys)
    sxx = ordered_sum((x - mx) ** 2 for x in xs)
    syy = ordered_sum((y - my) ** 2 for y in ys)
    return mx, my, sxx, syy, ordered_sum((x - mx) * (y - my) for x, y in zip(xs, ys))


def compare_tables(a: FrequencyTable, b: FrequencyTable) -> TableDistance:
    """Distance bundle between two letter distributions.

    total_variation is half the L1 distance between the proportion
    vectors. chi_square is the two-sample homogeneity statistic with
    pooled expected counts (letters with pooled count 0 are skipped).
    rank_correlation is the Spearman correlation of the two rank
    vectors, ties averaged.
    """
    if a.alphabet != b.alphabet:
        raise InputError("alphabet mismatch")
    if a.total == 0 or b.total == 0:
        raise InputError("cannot compare an empty table")
    letters = a.alphabet.letters
    tv = 0.5 * ordered_sum(abs(a.proportion(ch) - b.proportion(ch)) for ch in letters)

    def cell(observed: int, expected: float) -> float:
        return (observed - expected) ** 2 / expected

    na, nb = a.total, b.total
    chi = ordered_sum(
        cell(a.counts[ch], na * pooled / (na + nb)) + cell(b.counts[ch], nb * pooled / (na + nb))
        for ch in letters
        if (pooled := a.counts[ch] + b.counts[ch])
    )

    ranks_a = _average_ranks([a.counts[ch] for ch in letters])
    ranks_b = _average_ranks([b.counts[ch] for ch in letters])
    _, _, sxx, syy, sxy = moments(ranks_a, ranks_b)
    if sxx == 0.0 or syy == 0.0:
        rho = 1.0 if ranks_a == ranks_b else 0.0
    else:
        rho = sxy / math.sqrt(sxx * syy)
    return TableDistance(total_variation=tv, chi_square=chi, rank_correlation=rho)


def positional_stats(words: WordSequence) -> PositionalStats:
    """Babbage-style word position tallies.

    initial/final cover every word; second/penultimate cover words of
    length at least 2 (for two-letter words they coincide). doubles
    counts adjacent equal letters inside words, overlapping, so "aaa"
    contributes two doublings of a.
    """
    import numpy as np

    ab, block, sep = words.alphabet, _alphabet.BLOCK, words.alphabet.separator
    tallies = np.zeros((5, len(ab)), dtype=np.intp)  # initial, final, second, penultimate, doubles
    i, step, seen = 0, 1, 0  # seen: the letters, and one separator a word, of the groups so far
    while i < len(words):
        # a group of words between single separators, which ab._lookup codes
        # as len(ab), so equal neighbours are always two letters of one word
        codes = ab._encode(f"{sep}{sep.join(words.words[i : i + step])}{sep}")
        gaps = np.flatnonzero(codes == len(ab))
        starts, ends = gaps[:-1] + 1, gaps[1:] - 1
        long = starts < ends
        picks = starts, ends, starts[long] + 1, ends[long] - 1
        doubled = np.compress(codes[:-1] == codes[1:], codes[:-1])
        for row, picked in zip(tallies, (*map(codes.take, picks), doubled)):
            row += np.bincount(picked, minlength=len(ab))
        # the first group is one word; each next one about a block of characters
        i, seen = i + step, seen + len(codes) - 1
        step = max(1, block * i // seen)
    *tables, doubles = (FrequencyTable(ab, dict(zip(ab.letters, row))) for row in tallies.tolist())
    return PositionalStats(*tables, doubles.counts)


def stability_curve(
    seq: LetterSequence, sizes: list[int], seed: int | None = None
) -> list[tuple[int, TableDistance]]:
    """Distance of sample tables to the full-corpus table, per sample size.

    With `seed` None each sample is a prefix, which keeps the curve
    deterministic; at size == len(seq) every distance is exactly zero.
    With a seed, the k-th sample is a selection sample of its size: a
    partial Fisher-Yates shuffle of the symbols driven by substream k of
    the seed, so each entry is independent of the other sizes asked for.
    """
    ab = seq.alphabet
    codes = seq._codes
    full = _tally(ab, codes)
    if full.total == 0:
        raise InputError("empty corpus")
    n = len(codes)
    out = []
    for k, size in enumerate(sizes):
        if size <= 0:
            raise InputError(f"sample size must be positive, got {size}")
        if size > n:
            raise InputError(f"sample size {size} exceeds corpus length {n}")
        if seed is None:
            sample = codes[:size]
        else:
            # the shuffle's swaps, recorded only where they moved a position
            rng = substream(seed, k)
            moved: dict[int, int] = {}
            picks = []
            for i in range(size):
                j = i + rng.next_below(n - i)
                picks.append(moved.get(j, j))
                moved[j] = moved.get(i, i)
            sample = codes[picks]
        out.append((size, compare_tables(_tally(ab, sample), full)))
    return out
