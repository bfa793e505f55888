"""Alphabets and text normalization.

An :class:`Alphabet` fixes the universe for every count in the package:
an ordered letter inventory (the order doubles as the tie-break for
frequency ranks), the vowel subset, and fold rules mapping external
characters onto letters (or discarding them). :func:`normalize` turns
raw text into a :class:`LetterSequence`; :func:`tokenize_words` splits
it into maximal letter runs.

Both translate through tables (lowercase, fold, keep letters) that each
:class:`Alphabet` fills on demand and keeps. It also keeps, built on first
use, a pattern of its letters (one ``fullmatch`` checks a sequence), its
V/C table, which maps each letter to its Markov state, and its code table:
letter i has code i and the word separator code ``len(alphabet)``. A
sequence's letter codes, the integer array every counter reads, are
computed on its first count and kept, read-only, with it. They are the one
encoded form of text: the solver reads a cryptogram as the letter sequence
in which letter i stands in for its i-th symbol.

A text is encoded in blocks of :data:`BLOCK` characters, and the letter
and digram counters walk its codes in blocks of as many, so their
temporaries (code points, index arrays, pair codes) stay the same size
however long the text is: only the code array grows with it. Counting a
16 MB text peaks at about 56 MB of resident memory, where whole-text
temporaries took 157 MB (``letterlab count``) and 261 MB (``letterlab
digrams``). The word path works the same way: :func:`tokenize_words`
splits a text longer than a block a block at a time and keeps one string
per distinct word of a block, not one per word, and the position tallies
read the words in groups of about a block. On the same text ``letterlab
positions`` and ``letterlab zipf`` each peak at 93 to 110 MB, where one
string per word and whole-text word arrays took 329 and 255 to 262 MB. A
block whose first words are all distinct, as in a word list, keeps its
words as split: hashing them would cost time and save no memory.

Alphabets can be defined in a small line-oriented document::

    # comment
    name: en
    letters: abcdefghijklmnopqrstuvwxyz
    vowels: aeiou
    fold: é > e
    fold: ' > -

``fold: x > -`` discards ``x``. Lowercasing happens before fold lookup,
so fold sources must be lowercase. Builtin names ("en", "en-y-vowel",
"la", "fr", "it") resolve without a document, to one shared object each.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .errors import InputError

# the two states of Markov's vowel/consonant chain
VOWEL = "V"
CONSONANT = "C"

# characters or codes per block of a pass over a text; a text of at most this
# many is passed over in one piece
BLOCK = 65_536

# words at the head of each block of a text that tokenize_words always shares;
# the rest of the block is shared only if a word repeats among these
SHARE_PROBE = 256


class AlphabetSpecError(InputError):
    """Malformed alphabet spec document; message includes the line number."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered letter inventory with vowel subset and fold rules.

    Invariants checked at construction: letters are distinct single
    characters; vowels form a nonempty strict subset of letters; every
    fold source is one lowercase character given once, and its target a
    letter or None (discard). `folds` is given as a mapping or as
    (source, target) pairs and kept as those pairs sorted by source: a
    hashable value.
    """

    name: str
    letters: tuple[str, ...]
    vowels: frozenset[str]
    folds: tuple[tuple[str, str | None], ...] = ()

    def __post_init__(self):
        if not self.letters:
            raise InputError(f"alphabet {self.name!r}: no letters")
        for ch in self.letters:
            if len(ch) != 1:
                raise InputError(f"alphabet {self.name!r}: symbol {ch!r} is not a single character")
        index = {ch: i for i, ch in enumerate(self.letters)}
        if len(index) != len(self.letters):
            raise InputError(f"alphabet {self.name!r}: duplicate letters")
        if not self.vowels:
            raise InputError(f"alphabet {self.name!r}: vowels must be nonempty")
        if not self.vowels <= index.keys():
            bad = sorted(self.vowels.difference(index))
            raise InputError(f"alphabet {self.name!r}: vowels not in letters: {bad}")
        if self.vowels == index.keys():
            raise InputError(f"alphabet {self.name!r}: vowels must be a strict subset of letters")
        try:
            folds = dict(self.folds)
        except (TypeError, ValueError):
            raise InputError(f"alphabet {self.name!r}: folds must be (source, target) pairs") from None
        if len(folds) != len(self.folds):
            raise InputError(f"alphabet {self.name!r}: a fold source is given twice")
        for src, dst in folds.items():
            if len(src) != 1:
                raise InputError(f"alphabet {self.name!r}: fold source {src!r} is not one character")
            if src.lower() != src:
                raise InputError(f"alphabet {self.name!r}: fold source {src!r} is not lowercase")
            if dst is not None and dst not in index:
                raise InputError(f"alphabet {self.name!r}: fold target {dst!r} not a letter")
        # separator: the lowest code point that is no letter, one of the first len + 1
        gap = min(set(map(chr, range(len(index) + 1))).difference(index))
        keep, split = _LetterTable(folds, index), _LetterTable(folds, index, gap)
        # frozen, so the sorted folds and the derived state go straight into __dict__
        self.__dict__.update(folds=tuple(sorted(folds.items())), separator=gap, _index=index, _keep=keep, _split=split)

    def __len__(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        """Position of `letter` in the tie-break order."""
        return self._index[letter]

    def is_vowel(self, letter: str) -> bool:
        return letter in self.vowels

    def __contains__(self, ch: str) -> bool:
        return ch in self._index

    @functools.cached_property
    def _lookup(self) -> np.ndarray:
        """Read-only array from code point to code, built on first use: letter i
        has code i and the word separator len(self), in the narrowest unsigned
        dtype that holds them all, so widen before doing arithmetic on codes."""
        import numpy as np

        points = _code_points("".join(self.letters) + self.separator)
        lookup = np.zeros(int(points.max()) + 1, dtype=np.min_scalar_type(len(self)))
        lookup[points] = np.arange(len(points))
        lookup.flags.writeable = False
        return lookup

    def _encode(self, symbols: str) -> np.ndarray:
        """Code of each symbol (letters and the separator only), filled BLOCK
        symbols at a time."""
        import numpy as np

        if len(symbols) <= BLOCK:
            return self._lookup.take(_code_points(symbols))  # three times as fast as _lookup[...]
        codes = np.empty(len(symbols), self._lookup.dtype)
        for i in range(0, len(symbols), BLOCK):
            self._lookup.take(_code_points(symbols[i : i + BLOCK]), out=codes[i : i + BLOCK])
        return codes

    @functools.cached_property
    def _pairs(self) -> tuple[tuple[str, str], ...]:
        """Every ordered letter pair, indexed by pair code ``first * len + second``."""
        return tuple((a, b) for a in self.letters for b in self.letters)

    @functools.cached_property
    def _pair_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._pairs)

    @functools.cached_property
    def _letter_run(self) -> re.Pattern:
        """Pattern that a string of letters only, the empty one included, matches in full."""
        return re.compile(f"[{''.join(map(re.escape, self.letters))}]*")

    @functools.cached_property
    def _vc(self) -> dict[int, str]:
        """``str.translate`` table from each letter to its chain state, VOWEL or CONSONANT."""
        states = (VOWEL if ch in self.vowels else CONSONANT for ch in self.letters)
        return str.maketrans("".join(self.letters), "".join(states))


@dataclass(frozen=True)
class LetterSequence:
    """Normalized symbols over one alphabet. `source` is provenance only."""

    alphabet: Alphabet
    symbols: str
    source: str = field(default="", compare=False)

    def __post_init__(self):
        _check_letters(self.symbols, self.alphabet)

    def __len__(self) -> int:
        return len(self.symbols)

    @functools.cached_property
    def _codes(self) -> np.ndarray:
        """Read-only letter code of each symbol, encoded on first use."""
        codes = self.alphabet._encode(self.symbols)
        codes.flags.writeable = False
        return codes


@dataclass(frozen=True)
class WordSequence:
    """Words (nonempty letter strings) over one alphabet."""

    alphabet: Alphabet
    words: tuple[str, ...]
    source: str = field(default="", compare=False)

    def __post_init__(self):
        if "" in self.words:
            raise InputError("empty word")
        try:
            joined = "".join(self.words)
        except TypeError:
            raise InputError("words must be strings") from None
        _check_letters(joined, self.alphabet)

    def __len__(self) -> int:
        return len(self.words)


_BUILTIN_SPECS = {
    "en": """
        name: en
        letters: abcdefghijklmnopqrstuvwxyz
        vowels: aeiou
    """,
    # Alternate English alphabet treating y as a vowel.
    "en-y-vowel": """
        name: en-y-vowel
        letters: abcdefghijklmnopqrstuvwxyz
        vowels: aeiouy
    """,
    # Classical Latin: 23 letters, i/j and u/v merged by folding.
    "la": """
        name: la
        letters: abcdefghiklmnopqrstuxyz
        vowels: aeiouy
        fold: j > i
        fold: v > u
    """,
    "fr": """
        name: fr
        letters: abcdefghijklmnopqrstuvwxyz
        vowels: aeiouy
        fold: à > a
        fold: â > a
        fold: æ > a
        fold: ç > c
        fold: é > e
        fold: è > e
        fold: ê > e
        fold: ë > e
        fold: î > i
        fold: ï > i
        fold: ô > o
        fold: œ > o
        fold: ù > u
        fold: û > u
        fold: ü > u
        fold: ÿ > y
    """,
    # Italian: traditional 21-letter alphabet (no j, k, w, x, y).
    "it": """
        name: it
        letters: abcdefghilmnopqrstuvz
        vowels: aeiou
        fold: à > a
        fold: è > e
        fold: é > e
        fold: ì > i
        fold: î > i
        fold: ò > o
        fold: ó > o
        fold: ù > u
    """,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTIN_SPECS)


def load_alphabet(spec_text: str) -> Alphabet:
    """Parse an alphabet spec document.

    Raises :class:`AlphabetSpecError` with line context for malformed
    documents, duplicate letters, vowels outside the letter set, or
    letters that lowercasing changes and no fold produces.
    """
    # key -> (line number, value) for the keys that must appear exactly once
    fields: dict[str, tuple[int, str]] = {}
    folds: dict[str, str | None] = {}

    for lineno, raw_line in enumerate(spec_text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise AlphabetSpecError(f"line {lineno}: expected 'key: value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key in ("name", "letters", "vowels"):
            if key in fields:
                raise AlphabetSpecError(f"line {lineno}: duplicate {key!r}")
            if not value:
                raise AlphabetSpecError(f"line {lineno}: no {key} given")
            fields[key] = lineno, value
        elif key == "fold":
            parts = value.split(">")
            if len(parts) != 2:
                raise AlphabetSpecError(f"line {lineno}: fold must look like 'x > y' or 'x > -'")
            src, dst = parts[0].strip(), parts[1].strip()
            if len(src) != 1:
                raise AlphabetSpecError(f"line {lineno}: fold source must be one character, got {src!r}")
            if len(dst) != 1:
                raise AlphabetSpecError(f"line {lineno}: fold target must be one character or '-', got {dst!r}")
            src = src.lower()
            if src in folds:
                raise AlphabetSpecError(f"line {lineno}: duplicate fold for {src!r}")
            folds[src] = None if dst == "-" else dst
        else:
            raise AlphabetSpecError(f"line {lineno}: unknown key {key!r}")

    for key in ("name", "letters", "vowels"):
        if key not in fields:
            raise AlphabetSpecError(f"missing {key!r} line")
    (_, name), (letters_line, letters), (vowels_line, vowels) = fields["name"], fields["letters"], fields["vowels"]
    letters, vowels = "".join(letters.split()), "".join(vowels.split())
    letter_set = set(letters)
    if len(letter_set) != len(letters):
        dups = sorted({ch for ch in letters if letters.count(ch) > 1})
        raise AlphabetSpecError(f"line {letters_line}: duplicate letters {dups}")
    bad_vowels = [v for v in vowels if v not in letter_set]
    if bad_vowels:
        raise AlphabetSpecError(f"line {vowels_line}: vowels not in letters: {bad_vowels}")
    if set(vowels) == letter_set:
        raise AlphabetSpecError(f"line {vowels_line}: vowels must be a strict subset of letters")
    for dst in folds.values():
        if dst is not None and dst not in letter_set:
            raise AlphabetSpecError(f"fold target {dst!r} not in letters (line {letters_line})")
    unreachable = [ch for ch in letters if ch.lower() != ch and ch not in folds.values()]
    if unreachable:
        raise AlphabetSpecError(f"line {letters_line}: letters lost to lowercasing, no fold to them: {unreachable}")

    return Alphabet(name=name, letters=tuple(letters), vowels=frozenset(vowels), folds=folds)


@functools.cache
def builtin_alphabet(name: str) -> Alphabet:
    """Return one of the builtin alphabets by name, one shared object each."""
    if name not in _BUILTIN_SPECS:
        raise InputError(f"unknown builtin alphabet {name!r}; have {', '.join(_BUILTIN_SPECS)}")
    return load_alphabet(_BUILTIN_SPECS[name])


def first_foreign(symbols: str, inventory) -> str | None:
    """The first symbol of `symbols` that is not in `inventory`, or None."""
    foreign = set(symbols).difference(inventory)
    return min(foreign, key=symbols.index) if foreign else None


def _check_letters(symbols: str, alphabet: Alphabet) -> None:
    if not isinstance(symbols, str):
        raise InputError(f"symbols must be a string, not {type(symbols).__name__}")
    if alphabet._letter_run.fullmatch(symbols) is None:
        ch = first_foreign(symbols, alphabet.letters)
        raise InputError(f"symbol {ch!r} not in alphabet {alphabet.name!r}")


def _code_points(symbols: str) -> np.ndarray:
    import numpy as np

    return np.frombuffer(symbols.encode("utf-32-le"), dtype="<u4")


class _LetterTable(dict):
    """``str.translate`` table, filled on demand: a character is lowercased
    (``İ`` gives two characters) and folded, and kept if it is then a
    letter; any other character becomes `discard` (None deletes it)."""

    def __init__(self, folds: dict[str, str | None], letters: dict[str, int], discard: str | None = None):
        self.folds, self.letters, self.discard = folds, letters, discard

    def __missing__(self, code: int) -> str | None:
        ch = chr(code).lower()
        ch = self.folds.get(ch, ch)
        self[code] = letter = ch if ch is not None and ch in self.letters else self.discard
        return letter


def normalize(raw: str, alphabet: Alphabet, source: str = "text") -> LetterSequence:
    """Reduce raw text to a letter sequence.

    Characters are lowercased, folded, and kept if they are alphabet
    letters; everything else is discarded (the discard count lands in
    the provenance label). Idempotent on its own rendered output.
    """
    symbols = raw.translate(alphabet._keep)
    return LetterSequence(alphabet, symbols, source=f"{source} (discarded {len(raw) - len(symbols)})")


def tokenize_words(raw: str, alphabet: Alphabet, source: str = "text") -> WordSequence:
    """Split raw text into maximal runs of letters.

    Any character that does not map to a letter (including explicit
    discard folds, apostrophes, hyphens) ends the current word, so the
    concatenation of the words equals ``normalize(raw).symbols``. A text
    longer than BLOCK is split BLOCK characters at a time, and equal words of
    one block are one string: a text mostly repeats a few words. Sharing
    hashes every word, which is only worth it where words repeat, so a block
    whose first SHARE_PROBE words are all distinct keeps the rest of its
    words as split. A text of at most BLOCK characters is split whole and
    shares nothing, since sharing would cost it more time than the little
    memory it saves.
    """
    split, sep = alphabet._split, alphabet.separator
    if len(raw) <= BLOCK:
        return WordSequence(alphabet, tuple(filter(None, raw.translate(split).split(sep))), source=source)
    words, head = [], []  # head: the pieces of a word that runs on past its block
    for i in range(0, len(raw), BLOCK):
        parts = raw[i : i + BLOCK].translate(split).split(sep)
        head.append(parts[0])
        if len(parts) > 1:
            parts[0], head = "".join(head), [parts.pop()]
            parts = list(filter(None, parts))
            shared, probe = {}, parts[:SHARE_PROBE]  # a new dict each block, so none outgrows a block
            words += map(shared.setdefault, probe, probe)
            rest = parts[len(probe) :]
            words += map(shared.setdefault, rest, rest) if len(shared) < len(probe) else rest
    if last := "".join(head):
        words.append(last)
    words = tuple(words)  # the list is let go before the words are checked
    return WordSequence(alphabet, words, source=source)
