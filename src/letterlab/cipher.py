"""Monoalphabetic substitution ciphers and frequency-analysis solving.

A key is a bijection from plaintext letters onto a same-sized cipher
symbol inventory. Rank matching alone (most frequent symbol = most
frequent letter, and so on down) seeds the attack; digram log-likelihood
scoring plus hill climbing over key swaps finishes it. Every restart is
deterministic for a given seed, and ties across restarts go to the
lowest restart index, so reports are reproducible regardless of how
restarts are scheduled.

Short cryptograms are flagged: below about ninety symbols the frequency
ranks carry too little signal for the seed key to mean much.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field

from .alphabet import Alphabet, LetterSequence, encode, first_foreign
from .errors import InputError, read_text
from .freq import DigramTable, FrequencyTable, count_digrams, count_letters, ordered_sum, rank_order
from .rng import substream

LENGTH_WARNING_THRESHOLD = 90
# restarts run one after another, so the count bounds the time of a solve
MAX_RESTARTS = 10_000


@dataclass(frozen=True)
class SubstitutionKey:
    """Bijection from plaintext letters to cipher symbols."""

    alphabet: Alphabet
    mapping: dict[str, str]

    def __post_init__(self):
        if set(self.mapping) != set(self.alphabet.letters):
            raise InputError("key must map every alphabet letter exactly once")
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            raise InputError("key mapping must be injective")
        for v in values:
            if len(v) != 1:
                raise InputError(f"cipher symbol {v!r} must be one character")

    @classmethod
    def from_target_string(cls, alphabet: Alphabet, targets: str) -> "SubstitutionKey":
        """Key sending the i-th alphabet letter to the i-th character of `targets`."""
        if len(targets) != len(alphabet.letters):
            raise InputError("target string length must match the alphabet")
        return cls(alphabet, dict(zip(alphabet.letters, targets)))

    def target_string(self) -> str:
        return "".join(self.mapping[ch] for ch in self.alphabet.letters)

    def inverse(self) -> dict[str, str]:
        return {v: k for k, v in self.mapping.items()}


@dataclass(frozen=True)
class Cryptogram:
    """Ciphertext over a fixed symbol inventory of alphabet size."""

    alphabet: Alphabet
    symbols: str
    symbol_set: tuple[str, ...]
    source: str = field(default="", compare=False)

    def __post_init__(self):
        if len(self.symbol_set) != len(self.alphabet.letters):
            raise InputError("symbol inventory must match the alphabet size")
        if len(set(self.symbol_set)) != len(self.symbol_set):
            raise InputError("symbol inventory must be distinct")
        ch = first_foreign(self.symbols, self.symbol_set)
        if ch is not None:
            raise InputError(f"cryptogram symbol {ch!r} outside the expected inventory")

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class LengthWarning:
    """Cryptogram shorter than the reliable-analysis threshold."""

    length: int
    threshold: int

    def message(self) -> str:
        return (
            f"cryptogram has {self.length} symbols; frequency analysis is "
            f"unreliable below {self.threshold}"
        )


@dataclass(frozen=True)
class LanguageModel:
    """Unigram and digram tables with a smoothing pseudo-count."""

    unigram: FrequencyTable
    digram: DigramTable
    smoothing: float = 0.5

    def __post_init__(self):
        if self.unigram.alphabet != self.digram.alphabet:
            raise InputError("unigram and digram tables must share an alphabet")
        if self.smoothing <= 0:
            raise InputError("smoothing pseudo-count must be positive")

    @property
    def alphabet(self) -> Alphabet:
        return self.unigram.alphabet

    @classmethod
    def train(cls, seq: LetterSequence) -> "LanguageModel":
        return cls(unigram=count_letters(seq), digram=count_digrams(seq))

    @functools.cached_property
    def _log_probs(self) -> np.ndarray:
        """Read-only table of the digram log-probabilities :func:`score` sums."""
        import numpy as np

        letters, lam = self.alphabet.letters, self.smoothing
        dens = [self.unigram.counts[a] + lam * len(letters) for a in letters]
        logp = np.array(
            [[math.log((self.digram.count(a, b) + lam) / den) for b in letters] for a, den in zip(letters, dens)]
        )
        logp.flags.writeable = False
        return logp

    def save(self, prefix: str) -> tuple[str, str]:
        """Write <prefix>.unigram.csv and <prefix>.digram.csv; returns the paths."""
        if not prefix:
            raise InputError("empty model file prefix")
        paths = f"{prefix}.unigram.csv", f"{prefix}.digram.csv"
        tables = (
            [["letter", "count"]] + [[ch, self.unigram.counts[ch]] for ch in self.alphabet.letters],
            [["first", "second", "count"]] + [[*p, self.digram.counts[p]] for p in self.digram._ordered_pairs()],
        )
        for path, rows in zip(paths, tables):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows(rows)
        return paths

    @classmethod
    def load(cls, prefix: str, alphabet: Alphabet) -> "LanguageModel":
        """Read the two CSV tables written by :meth:`save`."""
        if not prefix:
            raise InputError("empty model file prefix")
        ucounts = _model_table(f"{prefix}.unigram.csv", "unigram", ["letter", "count"], alphabet)
        dcounts = _model_table(f"{prefix}.digram.csv", "digram", ["first", "second", "count"], alphabet)
        unigram = FrequencyTable.from_counts(alphabet, {letter: n for (letter,), n in ucounts.items()})
        return cls(unigram, DigramTable(alphabet, dcounts, sum(dcounts.values())))


def _model_table(path: str, kind: str, header: list[str], alphabet: Alphabet) -> dict[tuple[str, ...], int]:
    """Counts of a model CSV keyed by each row's letters. An error names the
    file kind and the line its record starts on, such as a letter outside
    `alphabet` or a letter (unigram file) or pair (digram file) listed twice."""
    rows = csv.reader(io.StringIO(read_text(path), newline=""))
    counts: dict[tuple[str, ...], int] = {}
    start = 1  # the line the next record starts on
    try:
        if next(rows, None) != header:
            raise InputError(f"{kind} file must start with header '{','.join(header)}'")
        start = rows.line_num + 1
        for row in rows:
            # a quoted cell may hold newlines, so a record can end lines after it starts
            where, start = f"{kind} file line {start}", rows.line_num + 1
            if len(row) != len(header):
                raise InputError(f"{where}: expected {len(header)} fields")
            key, count = tuple(row[:-1]), row[-1]
            for ch in key:
                if ch not in alphabet:
                    raise InputError(f"{where}: letter {ch!r} not in alphabet {alphabet.name!r}")
            if key in counts:
                what = "letter" if len(key) == 1 else "pair"
                raise InputError(f"{where}: repeated {what} {''.join(key)!r}")
            # plain digits, below 10**18: every sum of counts then converts to a float
            if not (count.isdecimal() and len(count) <= 18):
                raise InputError(f"{where}: bad count {count!r}")
            counts[key] = int(count)
    except csv.Error as e:  # from the reader: a cell over its size limit, or NUL before Python 3.11
        raise InputError(f"{kind} file line {start}: {e}") from None
    return counts


@dataclass(frozen=True)
class RestartRecord:
    """What one restart of the hill climb did: the score of its start key,
    the score it climbed to, and how many swaps it accepted on the way."""

    start_score: float
    final_score: float
    swaps: int


@dataclass(frozen=True)
class SolverReport:
    best_key: SubstitutionKey
    best_score: float
    plaintext: LetterSequence
    restarts_run: int
    length_warning: LengthWarning | None
    # a trace of how the result was found, not part of the result
    restarts: tuple[RestartRecord, ...] = field(compare=False)


def parse_cryptogram(text: str, alphabet: Alphabet, source: str = "cryptogram") -> Cryptogram:
    """Read ciphertext whose symbol inventory is the alphabet itself.

    Whitespace is ignored and letters are lowercased one character at a
    time; any other character is rejected, since a monoalphabetic
    cryptogram has a fixed symbol inventory.
    """
    symbols = "".join(text.split())
    lower = {ch: ch.lower() for ch in set(symbols)}
    ch = first_foreign(symbols, [ch for ch, low in lower.items() if low in alphabet])
    if ch is not None:
        raise InputError(f"unexpected cryptogram symbol {ch!r}")
    symbols = symbols.translate(str.maketrans(lower))
    return Cryptogram(alphabet, symbols, tuple(alphabet.letters), source=source)


def encrypt(seq: LetterSequence, key: SubstitutionKey) -> Cryptogram:
    """Apply the key letter by letter; inverse of :func:`decrypt`."""
    if seq.alphabet != key.alphabet:
        raise InputError("alphabet mismatch")
    symbols = seq.symbols.translate(str.maketrans(key.mapping))
    return Cryptogram(
        alphabet=seq.alphabet,
        symbols=symbols,
        symbol_set=tuple(sorted(key.mapping.values())),
        source=f"encrypted {seq.source}".strip(),
    )


def decrypt(c: Cryptogram, key: SubstitutionKey) -> LetterSequence:
    """Invert the key over the cryptogram."""
    if c.alphabet != key.alphabet:
        raise InputError("alphabet mismatch")
    inv = key.inverse()
    ch = first_foreign(c.symbols, inv)
    if ch is not None:
        raise InputError(f"cryptogram symbol {ch!r} not produced by this key")
    plain = c.symbols.translate(str.maketrans(inv))
    return LetterSequence(c.alphabet, plain, source=f"decrypted {c.source}".strip())


def length_check(c: Cryptogram, threshold: int = LENGTH_WARNING_THRESHOLD) -> LengthWarning | None:
    """Warn when the cryptogram is shorter than `threshold` symbols."""
    if len(c.symbols) < threshold:
        return LengthWarning(length=len(c.symbols), threshold=threshold)
    return None


def frequency_match_key(cipher_table: FrequencyTable, reference: FrequencyTable) -> SubstitutionKey:
    """Key pairing the i-th ranked cipher symbol with the i-th ranked letter.

    The two tables may live over different symbol universes, as long as
    the sizes agree; ties break by each table's own letter order.
    """
    if len(cipher_table.alphabet.letters) != len(reference.alphabet.letters):
        raise InputError("symbol sets differ in size")
    cipher_ranked = rank_order(cipher_table)
    reference_ranked = rank_order(reference)
    mapping = dict(zip(reference_ranked, cipher_ranked))
    return SubstitutionKey(reference.alphabet, mapping)


def score(seq: LetterSequence, model: LanguageModel) -> float:
    """Digram log likelihood of a letter sequence under the model.

    Sum over adjacent pairs of log((digram count + s) / (first-letter
    count + s * alphabet size)) with s the smoothing pseudo-count.
    Higher is better; an all-zero model scores (len-1) * log(1/size).
    """
    if seq.alphabet != model.alphabet:
        raise InputError("alphabet mismatch")
    if len(seq.symbols) == 0:
        raise InputError("empty sequence")
    codes = encode(seq.symbols, seq.alphabet.letters)
    return ordered_sum(model._log_probs[codes[:-1], codes[1:]].tolist())


def hill_climb_solve(
    c: Cryptogram,
    model: LanguageModel,
    restarts: int = 20,
    seed: int = 0,
    warning_threshold: int = LENGTH_WARNING_THRESHOLD,
) -> SolverReport:
    """Recover a substitution key by best-improvement hill climbing.

    Restart 1 starts from the frequency-match key; later restarts start
    from seeded random keys. Each sweep scores every pairwise swap of
    mapping targets at once by its score change alone (Jakobsen, 1995):
    a swap of symbols i and j moves only rows i, j and columns i, j of
    the scored digram matrix. The full score then decides among the
    swaps whose change is within rounding of the best one: the highest
    full score wins, the first swap in (i, j) order among equal scores,
    and it is accepted only if it strictly beats the current full score.
    So a sweep picks what rescoring every swapped key in full would
    pick, and the climb always ends. A restart ends on the first sweep
    without an accepted swap, since a sweep is a pure function of the
    assignment and repeating it would change nothing.
    The best key across restarts wins, earliest restart first on ties,
    which also guarantees the result never scores below the
    frequency-match seed. The report keeps one :class:`RestartRecord`
    per restart.
    """
    import numpy as np

    if len(c.symbols) == 0:
        raise InputError("empty cryptogram")
    if restarts < 1:
        raise InputError("need at least one restart")
    if restarts > MAX_RESTARTS:
        raise InputError(f"at most {MAX_RESTARTS} restarts, got {restarts}")
    if c.alphabet != model.alphabet:
        raise InputError("alphabet mismatch")

    size = len(c.symbol_set)
    logp = model._log_probs
    codes = encode(c.symbols, c.symbol_set)
    ndig = np.bincount(codes[:-1] * size + codes[1:], minlength=size * size).reshape(size, size).astype(float)
    # frequency match as `matched[symbol index] = letter index`: symbols by
    # decreasing count, ties in inventory order, take the letters by rank
    matched = np.empty(size, dtype=np.intp)
    matched[np.argsort(-np.bincount(codes, minlength=size), kind="stable")] = [
        model.alphabet.index(letter) for letter in rank_order(model.unigram)
    ]

    # row k of `swapped` is the identity with the k-th pair (i < j) exchanged
    first, second = np.triu_indices(size, 1)
    swapped = np.tile(np.arange(size), (len(first), 1))
    swapped[np.arange(len(first)), first] = second
    swapped[np.arange(len(first)), second] = first
    # the digram counts that the k-th swap moves from row (column) i to j
    drow = ndig[second] - ndig[first]
    dcol = ndig[:, second].T - ndig[:, first].T
    # far above the rounding error of a delta plus that of two full scores:
    # a swap whose delta is this far below the best cannot score best in full
    slack = 1e-9 * ndig.sum() * np.abs(logp).max()

    # np.sum only ranks swaps here; the reported best_score comes from score()
    def full_score(a: np.ndarray) -> float:
        return (ndig * logp[a[:, None], a[None, :]]).sum()

    best_assignment: np.ndarray | None = None
    best_score_val = -math.inf
    records = []

    for r in range(1, restarts + 1):
        if r == 1:
            assignment = matched
        else:
            perm = list(range(size))
            substream(seed, r).shuffle(perm)
            assignment = np.array(perm, dtype=np.intp)
        start = current = full_score(assignment)
        swaps = 0
        while True:
            m = logp[assignment[:, None], assignment[None, :]]
            delta = (drow * np.take_along_axis(m[first] - m[second], swapped, 1)).sum(1) + (
                dcol * (m[:, first].T - m[:, second].T)
            ).sum(1)
            # the full score decides among the near-best swaps, as it did among all
            cands = assignment[swapped[delta >= delta.max() - slack]]
            scores = [full_score(cand) for cand in cands]
            k = int(np.argmax(scores))
            if not scores[k] > current:
                break
            assignment, current, swaps = cands[k], scores[k], swaps + 1
        records.append(RestartRecord(float(start), float(current), swaps))
        if current > best_score_val:
            best_score_val = current
            best_assignment = assignment

    letters = model.alphabet.letters
    mapping = {letters[best_assignment[s]]: c.symbol_set[s] for s in range(size)}
    best_key = SubstitutionKey(model.alphabet, mapping)
    plaintext = decrypt(c, best_key)
    return SolverReport(
        best_key=best_key,
        best_score=score(plaintext, model),
        plaintext=plaintext,
        restarts_run=restarts,
        length_warning=length_check(c, warning_threshold),
        restarts=tuple(records),
    )
