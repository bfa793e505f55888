"""Vowel/consonant chains, dependence testing, entropy, and generation.

A text reduces to its V/C state string; adjacent-state counts form a
2x2 transition table. The chi-square independence test (one degree of
freedom, no continuity correction) asks whether the observed
transitions are consistent with independent draws from the marginals;
its tail probability comes from the closed form erfc(sqrt(x/2)), so no
numerical integration is involved. Entropy estimates h0 >= h1 >= h2
quantify how much successive conditioning compresses the source, and
`generate` runs the chain forward with the package's deterministic
generator.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain

from . import alphabet as _alphabet  # BLOCK is read through the module at each call
from .alphabet import CONSONANT, VOWEL, Alphabet, LetterSequence, _unchecked
from .errors import InputError
from .freq import DigramTable, FrequencyTable, _total, ordered_sum
from .rng import SplitMix64

STATES = (VOWEL, CONSONANT)
# the alphabet of a V/C sequence: the two states, V the vowel
VC_ALPHABET = Alphabet("vc", STATES, frozenset({VOWEL}))
# a walk draws one label at a time in Python, so the length bounds its time
MAX_GENERATE_LENGTH = 10_000_000


@dataclass(frozen=True)
class TransitionCounts:
    """Adjacent-pair counts of a two-state chain, plus the initial state."""

    n: dict[tuple[str, str], int]
    initial: str

    def __post_init__(self):
        if set(self.n) != {(a, b) for a in STATES for b in STATES}:
            raise InputError("transition counts must key all four state pairs")
        _total(self.n)  # each count a nonnegative integer
        if self.initial not in STATES:
            raise InputError("initial state must be V or C")

    def row_total(self, state: str) -> int:
        return self.n[(state, VOWEL)] + self.n[(state, CONSONANT)]

    @property
    def total(self) -> int:
        return sum(self.n.values())

    def probabilities(self) -> dict[tuple[str, str], float]:
        """Maximum-likelihood row-conditional probabilities."""
        out = {}
        for a in STATES:
            row = self.row_total(a)
            for b in STATES:
                out[(a, b)] = self.n[(a, b)] / row if row else 0.0
        return out


@dataclass(frozen=True)
class MarkovTestReport:
    """2x2 independence test; `degrees_of_freedom` (always 1) and `p_value`, the tail of `chi_square`, are computed."""

    chi_square: float
    degrees_of_freedom: int = field(init=False, default=1)
    p_value: float = field(init=False)
    transition_probabilities: dict[tuple[str, str], float]

    def __post_init__(self):
        object.__setattr__(self, "p_value", chi_square_tail_df1(self.chi_square))


@dataclass(frozen=True)
class EntropyReport:
    """Bits per letter under progressively stronger models."""

    h0: float
    h1: float
    h2: float


def to_vc_sequence(seq: LetterSequence) -> LetterSequence:
    """Map each letter to V or C by the alphabet's vowel set: a sequence over :data:`VC_ALPHABET`."""
    return _unchecked(LetterSequence, VC_ALPHABET, seq.symbols.translate(seq.alphabet._vc), seq.source)


def fit_transitions(b: LetterSequence) -> TransitionCounts:
    """Count overlapping adjacent state pairs of a sequence over
    :data:`VC_ALPHABET`; needs length >= 2."""
    if b.alphabet != VC_ALPHABET:
        raise InputError(f"transitions need a sequence over alphabet {VC_ALPHABET.name!r}, not {b.alphabet.name!r}")
    s = b.symbols
    if len(s) < 2:
        raise InputError("need at least two states to fit transitions")
    # "VC" cannot overlap itself, so str.count sees every one; runs of V and C
    # alternate, so VC and CV differ only by whether the ends are V; VV and CC
    # are the other pairs led by V and by C
    vc = s.count(VOWEL + CONSONANT)
    cv = vc - (s[0] == VOWEL) + (s[-1] == VOWEL)
    led_by_v = s.count(VOWEL, 0, len(s) - 1)
    vv, cc = led_by_v - vc, len(s) - 1 - led_by_v - cv
    n = {(VOWEL, VOWEL): vv, (VOWEL, CONSONANT): vc, (CONSONANT, VOWEL): cv, (CONSONANT, CONSONANT): cc}
    return TransitionCounts(n=n, initial=s[0])


def chi_square_tail_df1(x: float) -> float:
    """Upper tail of the chi-square distribution with one degree of freedom."""
    if x < 0:
        raise InputError("chi-square statistic cannot be negative")
    return math.erfc(math.sqrt(x / 2.0))


def independence_test(t: TransitionCounts, continuity_correction: bool = False) -> MarkovTestReport:
    """2x2 chi-square test of serial independence.

    Expected cells come from the marginal products; cells with zero
    expectation contribute nothing. Both row totals must be positive.
    The optional Yates continuity correction is off by default.
    """
    rows = {a: t.row_total(a) for a in STATES}
    if any(r == 0 for r in rows.values()):
        raise InputError("degenerate chain: a row total is zero")
    total = t.total
    cols = {b: t.n[(VOWEL, b)] + t.n[(CONSONANT, b)] for b in STATES}
    shift = 0.5 if continuity_correction else 0.0
    expected = {(a, b): rows[a] * cols[b] / total for a in STATES for b in STATES}
    cells = [(max(abs(t.n[k] - e) - shift, 0.0), e) for k, e in expected.items() if e != 0.0]
    chi = ordered_sum(d * d / e for d, e in cells)
    return MarkovTestReport(chi_square=chi, transition_probabilities=t.probabilities())


def entropy_estimates(unigram: FrequencyTable, digram: DigramTable) -> EntropyReport:
    """Zeroth, first, and conditional second order entropy in bits/letter.

    h0 = log2 of the alphabet size; h1 is the unigram entropy; h2 is the
    conditional entropy of the next letter given the current one, taken
    over the digram joint distribution. Zero-probability terms drop out.
    The chain h2 <= h1 <= h0 is guaranteed when the unigram table agrees
    with the digram's second-letter marginal (as it nearly does for
    tables counted from one long text).
    """
    if unigram.alphabet != digram.alphabet:
        raise InputError("alphabet mismatch")
    if unigram.total == 0 or digram.total == 0:
        raise InputError("empty table")
    h0 = math.log2(len(unigram.alphabet.letters))
    # 0.0 - x, not -x: a zero sum must print as 0.0, not -0.0
    h1 = 0.0 - ordered_sum(p * math.log2(p) for p in map(unigram.proportion, unigram.alphabet.letters) if p > 0.0)
    rows = digram.row_totals()
    h2 = 0.0 - ordered_sum(n / digram.total * math.log2(n / rows[a]) for (a, _), n in digram.counts.items() if n)
    return EntropyReport(h0=h0, h1=h1, h2=h2)


def generate(model, length: int, seed: int, order: int | None = None):
    """Run a fitted model forward; deterministic for a given seed.

    Both kinds of model return a :class:`LetterSequence`. With a
    :class:`TransitionCounts` the walk starts from the marginal state
    distribution and follows the row-conditional probabilities, and its
    sequence is over :data:`VC_ALPHABET`; an `order` raises. With a
    :class:`~letterlab.cipher.LanguageModel`, order 0 samples the raw
    unigram proportions and order 1 (the default) samples smoothed digram
    rows, the row of letter a being (digram count of ab + s) / (digram row
    total of a + s * alphabet size) with s the smoothing pseudo-count, which
    keeps every row normalizable. A row that cannot be normalized
    raises :class:`InputError` when the walk reaches it. A length above
    :data:`MAX_GENERATE_LENGTH` raises before the walk starts.
    """
    if length < 0:
        raise InputError("length must be nonnegative")
    if length > MAX_GENERATE_LENGTH:
        raise InputError(f"length must be at most {MAX_GENERATE_LENGTH}, got {length}")
    rng = SplitMix64(seed)
    if isinstance(model, TransitionCounts):
        if order is not None:
            raise InputError("order applies to a language model only, not a V/C chain")
        return _generate_states(model, length, rng)
    # duck-typed language model: unigram/digram/smoothing attributes
    if not hasattr(model, "unigram") or not hasattr(model, "digram"):
        raise InputError(f"cannot generate from {type(model).__name__}")
    if order not in (None, 0, 1):
        raise InputError("order must be 0 or 1")
    return _generate_letters(model, length, rng, 1 if order is None else order)


def _walk(rng: SplitMix64, labels, start: list[float], rows: list, length: int) -> str:
    """`length` labels of a first-order chain: the first drawn from `start`,
    each next one from the row of the one before. A draw picks the first
    label whose cumulative probability exceeds it, else the last label.
    A None row raises only when the walk has to leave it."""
    # the last label takes every draw that no earlier one does
    cumulative = [None if r is None else [*accumulate(r[:-1]), math.inf] for r in rows]
    out = []
    cum = None if start is None else [*accumulate(start[:-1]), math.inf]
    # BLOCK draws at a time, so a walk's memory does not grow with its length
    block = _alphabet.BLOCK
    blocks = (rng.floats(min(block, length - b)) for b in range(0, length, block))
    for u in chain.from_iterable(blocks):
        if cum is None:
            raise InputError(f"non-normalizable row for state {out[-1]!r}")
        i = bisect_right(cum, u)
        out.append(labels[i])
        cum = cumulative[i]
    return "".join(out)


def _generate_states(t: TransitionCounts, length: int, rng: SplitMix64) -> LetterSequence:
    total = t.total
    if length > 0 and total == 0:
        raise InputError("non-normalizable row: no transitions observed")
    totals = [t.row_total(a) for a in STATES]
    marginal = [r / total for r in totals] if total else None
    rows = [[t.n[(a, b)] / r for b in STATES] if r else None for a, r in zip(STATES, totals)]
    states = _walk(rng, STATES, marginal, rows, length)
    return _unchecked(LetterSequence, VC_ALPHABET, states, "generated order-1 chain")


def _generate_letters(model, length: int, rng: SplitMix64, order: int) -> LetterSequence:
    alphabet: Alphabet = model.unigram.alphabet
    letters = alphabet.letters
    if length > 0 and model.unigram.total == 0:
        raise InputError("non-normalizable row: empty unigram table")
    marginal = [model.unigram.proportion(ch) for ch in letters]
    if order == 0:
        rows = [marginal] * len(letters)
    else:
        lam, totals = model.smoothing, model.digram.row_totals()
        dens = [totals[a] + lam * len(letters) for a in letters]
        rows = [[(model.digram.count(a, b) + lam) / den for b in letters] for a, den in zip(letters, dens)]
    symbols = _walk(rng, letters, marginal, rows, length)
    return _unchecked(LetterSequence, alphabet, symbols, f"generated order-{order}")
