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
from itertools import chain
from dataclasses import dataclass, field

from .alphabet import Alphabet, LetterSequence, first_foreign
from .errors import InputError, read_text
from .freq import (
    DigramTable, FrequencyTable, _pair_blocks, _pair_tally, count_digrams, count_letters, ordered_sum, rank_order
)
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
        if any(len(s) != 1 for s in self.symbol_set):
            raise InputError("cipher symbols must be single characters")
        if not isinstance(self.symbols, str):
            raise InputError(f"symbols must be a string, not {type(self.symbols).__name__}")
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


@dataclass(frozen=True)
class LanguageModel:
    """Unigram and digram tables with a smoothing pseudo-count."""

    unigram: FrequencyTable
    digram: DigramTable
    smoothing: float = 0.5

    def __post_init__(self):
        if self.unigram.alphabet != self.digram.alphabet:
            raise InputError("unigram and digram tables must share an alphabet")
        if not (math.isfinite(self.smoothing) and self.smoothing > 0):
            raise InputError(f"smoothing pseudo-count must be positive and finite, got {self.smoothing!r}")

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
            # plain ASCII digits, below 10**18: every sum of counts then converts to a float
            if not (count.isascii() and count.isdecimal() and len(count) <= 18):
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

    Whitespace is ignored. A symbol that is a letter is kept as is, any
    other is lowercased, and one that is still no letter is rejected,
    since a monoalphabetic cryptogram has a fixed symbol inventory.
    """
    symbols = "".join(text.split())
    lower = {ch: ch if ch in alphabet else ch.lower() for ch in set(symbols)}
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
    if threshold < 0:
        raise InputError(f"length warning threshold must be at least 0, got {threshold}")
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

    Sum over adjacent pairs ab of log((digram count of ab + s) / (unigram
    count of a + s * alphabet size)) with s the smoothing pseudo-count.
    Higher is better; an all-zero model scores (len-1) * log(1/size).
    """
    if seq.alphabet != model.alphabet:
        raise InputError("alphabet mismatch")
    if len(seq.symbols) == 0:
        raise InputError("empty sequence")
    logp = model._log_probs.ravel()  # indexed by pair code
    blocks = _pair_blocks(seq._codes, len(seq.alphabet))
    return ordered_sum(chain.from_iterable(logp.take(pairs).tolist() for _, pairs in blocks))


def _swap_plan(ndig: np.ndarray, logp: np.ndarray):
    """(first, second, deltas): swap k exchanges the targets of symbols
    first[k] < second[k], at least one of which the digram counts `ndig` use,
    and deltas(a)[k] is the change of the full score of assignment `a` when
    swap k is made."""
    import numpy as np

    size = len(ndig)
    first, second = np.triu_indices(size, 1)
    used = ndig.any(0) | ndig.any(1)
    live = used[first] | used[second]
    first, second = first[live], second[live]
    # flat positions of (i, j), (j, i), (i, i) and (j, j) per swap (i, j)
    corners = np.stack([first * size + second, second * size + first, first * (size + 1), second * (size + 1)])
    w = np.array([1.0, 1.0, -1.0, -1.0])
    block = w @ ndig.take(corners)  # -E, fixed per cryptogram

    def deltas(a: np.ndarray) -> np.ndarray:
        m = logp.take(a, 0).take(a, 1)
        s = ndig @ m.T + ndig.T @ m
        return w @ (s.take(corners) + block * m.take(corners))

    return first, second, deltas


def hill_climb_solve(
    c: Cryptogram,
    model: LanguageModel,
    restarts: int = 20,
    seed: int = 0,
    warning_threshold: int = LENGTH_WARNING_THRESHOLD,
) -> SolverReport:
    """Recover a substitution key by best-improvement hill climbing.

    Restart 1 starts from :func:`frequency_match_key` of the cryptogram
    read as a letter sequence, letter i standing in for symbol i of the
    inventory (so ties go in inventory order); later restarts start
    from seeded random keys. Each sweep scores every swap of the targets
    of symbols i < j at once by its score change alone (Jakobsen, 1995),
    from two matrix products: with N the cipher digram counts, M =
    logp[a][:, a] for the assignment a and S = N·Mᵀ + Nᵀ·M, it is
    S[i,j] + S[j,i] - S[i,i] - S[j,j] + E[i,j]·D[i,j], where the last term
    corrects the 2x2 block where the moved rows and columns meet, with
    E[i,j] = N[i,i] + N[j,j] - N[i,j] - N[j,i] and D[i,j] the same in M.
    Swaps of two symbols the cryptogram never uses are left out once per
    solve: each moves only zero rows and columns of N, so it keeps the
    full score exactly, can never be accepted and changes no pick. E
    depends on N alone, so it is gathered once per solve for the live
    swaps, and a sweep reads S and M at only the four corners (i,j),
    (j,i), (i,i) and (j,j) of each. A change's rounding (it varies with
    the BLAS build), plus that of two full scores, is far below `slack`,
    so a sweep ends the restart if the best change is below -`slack`,
    and makes a swap without scoring it if it alone is within `slack` of
    a best change above `slack`. Otherwise the full scores of the swaps
    within `slack` of the best decide: the highest wins, the first in
    (i, j) order among equal scores, and it is accepted only if it
    strictly beats the current key's, scored then if still unknown. A
    restart's final key is scored in full at its end. So a sweep picks
    what rescoring every swapped key in full would pick, and rounding
    cannot alter a pick, key or record. With no swap left (a cryptogram
    of one symbol) a restart ends at once. Otherwise a
    restart ends on the first sweep without an accepted swap, since a
    sweep is a pure function of the assignment, so the climb always
    ends. The best key across restarts wins, earliest restart first on
    ties, so the result never scores below the frequency-match seed. The
    report keeps one :class:`RestartRecord` per restart.
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
    warning = length_check(c, warning_threshold)

    ab, size = c.alphabet, len(c.symbol_set)
    logp = model._log_probs
    stand_in = LetterSequence(ab, c.symbols.translate(str.maketrans("".join(c.symbol_set), "".join(ab.letters))))
    ndig = _pair_tally(stand_in._codes, size).reshape(size, size).astype(float)
    inverse = frequency_match_key(count_letters(stand_in), model.unigram).inverse()
    matched = np.array([ab.index(inverse[letter]) for letter in ab.letters], dtype=np.intp)

    first, second, deltas = _swap_plan(ndig, logp)
    # far above the rounding error of a delta plus that of two full scores:
    # a swap whose delta is this far below the best cannot score best in full
    slack = 1e-9 * ndig.sum() * np.abs(logp).max()

    # np.sum only ranks swaps here; the reported best_score comes from score()
    def full_score(a: np.ndarray) -> float:
        return (ndig * logp.take(a, 0).take(a, 1)).sum()

    finals, records = [], []
    for r in range(1, restarts + 1):
        if r == 1:
            assignment = matched
        else:
            perm = list(range(size))
            substream(seed, r).shuffle(perm)
            assignment = np.array(perm, dtype=np.intp)
        start = current = full_score(assignment)
        swaps = 0
        while len(first):
            delta = deltas(assignment)
            best = delta.max()
            if best < -slack:  # every swap lowers the full score
                break
            near = (delta >= best - slack).nonzero()[0]
            if len(near) == 1 and best > slack:  # the one near swap raises the full score
                i, j = first[near[0]], second[near[0]]
                assignment[i], assignment[j] = assignment[j], assignment[i]
                current, swaps = None, swaps + 1
                continue
            current = full_score(assignment) if current is None else current
            # the full score decides among the near-best swaps
            cands = []
            for k in near:
                cand, i, j = assignment.copy(), first[k], second[k]
                cand[i], cand[j] = assignment[j], assignment[i]
                cands.append(cand)
            scores = [full_score(cand) for cand in cands]
            k = scores.index(max(scores))
            if not scores[k] > current:
                break
            assignment, current, swaps = cands[k], scores[k], swaps + 1
        current = full_score(assignment) if current is None else current
        finals.append(assignment)
        records.append(RestartRecord(float(start), float(current), swaps))

    best = max(range(restarts), key=lambda i: records[i].final_score)  # max() keeps the earliest of ties
    mapping = {ab.letters[t]: s for t, s in zip(finals[best], c.symbol_set)}
    best_key = SubstitutionKey(ab, mapping)
    plaintext = decrypt(c, best_key)
    return SolverReport(
        best_key=best_key,
        best_score=score(plaintext, model),
        plaintext=plaintext,
        restarts_run=restarts,
        length_warning=warning,
        restarts=tuple(records),
    )
