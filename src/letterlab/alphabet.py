"""Alphabets and text normalization.

An :class:`Alphabet` fixes the universe for every count in the package:
an ordered letter inventory (the order doubles as the tie-break for
frequency ranks), the vowel subset, and fold rules mapping external
characters onto letters (or discarding them). :func:`normalize` turns
raw text into a :class:`LetterSequence`; :func:`tokenize_words` splits
it into maximal letter runs.

Both translate through tables (lowercase, fold, keep letters) that each
:class:`Alphabet` fills on demand and keeps. :func:`encode` turns symbols
into their positions in an inventory, the integer array every counter uses.

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
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import InputError


class AlphabetSpecError(InputError):
    """Malformed alphabet spec document; message includes the line number."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered letter inventory with vowel subset and fold rules.

    Invariants checked at construction: letters are distinct single
    characters; vowels form a nonempty strict subset of letters; every
    fold source is lowercase, and its target a letter or None (discard).
    `folds` is read-only, so the state derived here never goes stale.
    """

    name: str
    letters: tuple[str, ...]
    vowels: frozenset[str]
    folds: Mapping[str, str | None] = field(default_factory=dict)
    separator: str = field(init=False, repr=False, compare=False)  # lowest code point that is no letter
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _keep: _LetterTable = field(init=False, repr=False, compare=False)
    _split: _LetterTable = field(init=False, repr=False, compare=False)

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
        for src, dst in self.folds.items():
            if src.lower() != src:
                raise InputError(f"alphabet {self.name!r}: fold source {src!r} is not lowercase")
            if dst is not None and dst not in index:
                raise InputError(f"alphabet {self.name!r}: fold target {dst!r} not a letter")
        folds = types.MappingProxyType(dict(self.folds))
        # one of the first len + 1 code points is no letter
        gap = min(set(map(chr, range(len(index) + 1))).difference(index))
        keep, split = _LetterTable(folds, index), _LetterTable(folds, index, gap)
        # frozen, so the derived fields go straight into __dict__
        self.__dict__.update(folds=folds, separator=gap, _index=index, _keep=keep, _split=split)

    def __reduce__(self):
        # a mapping proxy cannot be pickled, so rebuild from the init fields
        return type(self), (self.name, self.letters, self.vowels, dict(self.folds))

    def __len__(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        """Position of `letter` in the tie-break order."""
        return self._index[letter]

    def is_vowel(self, letter: str) -> bool:
        return letter in self.vowels

    def __contains__(self, ch: str) -> bool:
        return ch in self._index


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


@dataclass(frozen=True)
class WordSequence:
    """Words (nonempty letter strings) over one alphabet."""

    alphabet: Alphabet
    words: tuple[str, ...]
    source: str = field(default="", compare=False)

    def __post_init__(self):
        if "" in self.words:
            raise InputError("empty word")
        _check_letters("".join(self.words), self.alphabet)

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
    ch = first_foreign(symbols, alphabet.letters)
    if ch is not None:
        raise InputError(f"symbol {ch!r} not in alphabet {alphabet.name!r}")


def encode(symbols: str, inventory) -> np.ndarray:
    """Position of each symbol in `inventory` (distinct characters that include every symbol)."""
    import numpy as np

    points = np.frombuffer("".join(inventory).encode("utf-32-le"), dtype="<u4")
    lookup = np.zeros(int(points.max()) + 1, dtype=np.intp)
    lookup[points] = np.arange(len(points))
    return lookup[np.frombuffer(symbols.encode("utf-32-le"), dtype="<u4")]


class _LetterTable(dict):
    """``str.translate`` table, filled on demand: a character is lowercased
    (``İ`` gives two characters) and folded, and kept if it is then a
    letter; any other character becomes `discard` (None deletes it)."""

    def __init__(self, folds: Mapping[str, str | None], letters: dict[str, int], discard: str | None = None):
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
    concatenation of the words equals ``normalize(raw).symbols``.
    """
    words = raw.translate(alphabet._split).split(alphabet.separator)
    return WordSequence(alphabet, tuple(filter(None, words)), source=source)
