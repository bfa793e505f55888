import pytest
from hypothesis import given, strategies as st

from letterlab import (
    AlphabetSpecError,
    InputError,
    LetterSequence,
    WordSequence,
    builtin_alphabet,
    builtin_names,
    load_alphabet,
    normalize,
    tokenize_words,
)


def test_en_builtin(en):
    assert len(en.letters) == 26
    assert "".join(en.letters) == "abcdefghijklmnopqrstuvwxyz"
    assert en.vowels == frozenset("aeiou")
    assert not en.is_vowel("y")


def test_en_y_vowel_builtin():
    ab = builtin_alphabet("en-y-vowel")
    assert ab.is_vowel("y")


def test_all_builtins_satisfy_invariants():
    for name in builtin_names():
        ab = builtin_alphabet(name)
        assert len(set(ab.letters)) == len(ab.letters)
        assert ab.vowels < set(ab.letters)
        for dst in ab.folds.values():
            assert dst is None or dst in set(ab.letters)


def test_latin_builtin_folds():
    la = builtin_alphabet("la")
    assert len(la.letters) == 23
    for absent in "jvw":
        assert absent not in la
    assert normalize("Iulius", la) == normalize("IVLIVS", la)
    assert normalize("Iulius", la).symbols == "iulius"


def test_load_alphabet_document():
    ab = load_alphabet(
        """
        # a toy alphabet
        name: toy
        letters: abc
        vowels: a
        fold: d > a
        fold: e > -
        """
    )
    assert ab.letters == ("a", "b", "c")
    assert normalize("dead", ab).symbols == "aaa"


def test_load_alphabet_vowels_must_be_strict_subset():
    with pytest.raises(AlphabetSpecError):
        load_alphabet("name: bad\nletters: ab\nvowels: ab\n")


def test_load_alphabet_errors_carry_line_context():
    with pytest.raises(AlphabetSpecError, match="line 2"):
        load_alphabet("name: x\nletters: aab\nvowels: a\n")
    with pytest.raises(AlphabetSpecError, match="line 3"):
        load_alphabet("name: x\nletters: ab\nvowels: q\n")
    with pytest.raises(AlphabetSpecError, match="line 1"):
        load_alphabet("nonsense without a colon\n")
    with pytest.raises(AlphabetSpecError, match="missing"):
        load_alphabet("name: x\nvowels: a\n")


SPEC = "name: t\nletters: abc\nvowels: a\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("name t\n", "line 1: expected 'key: value', got 'name t'"),
        (SPEC + "name: u\n", "line 4: duplicate 'name'"),
        (SPEC + "letters: abc\n", "line 4: duplicate 'letters'"),
        (SPEC + "vowels: a\n", "line 4: duplicate 'vowels'"),
        ("name:\nletters: abc\nvowels: a\n", "line 1: no name given"),
        ("name: t\nletters:  \nvowels: a\n", "line 2: no letters given"),
        ("name: t\nletters: abc\nvowels:\n", "line 3: no vowels given"),
        (SPEC + "fold: b\n", "line 4: fold must look like 'x > y' or 'x > -'"),
        (SPEC + "fold: b > c > a\n", "line 4: fold must look like 'x > y' or 'x > -'"),
        (SPEC + "fold:  > a\n", "line 4: fold source must be one character, got ''"),
        (SPEC + "fold: éé > a\n", "line 4: fold source must be one character, got 'éé'"),
        (SPEC + "fold: é >\n", "line 4: fold target must be one character or '-', got ''"),
        (SPEC + "fold: é > ab\n", "line 4: fold target must be one character or '-', got 'ab'"),
        (SPEC + "fold: É > a\nfold: é > -\n", "line 5: duplicate fold for 'é'"),
        (SPEC + "colour: red\n", "line 4: unknown key 'colour'"),
        ("letters: abc\nvowels: a\n", "missing 'name' line"),
        ("name: t\nvowels: a\n", "missing 'letters' line"),
        ("name: t\nletters: abc\n", "missing 'vowels' line"),
        ("name: t\nletters: ab cab\nvowels: a\n", "line 2: duplicate letters ['a', 'b']"),
        ("name: t\nletters: abc\nvowels: a q z\n", "line 3: vowels not in letters: ['q', 'z']"),
        ("name: t\nletters: abc\nvowels: cba\n", "line 3: vowels must be a strict subset of letters"),
        ("name: t\n# folds\nletters: abc\nvowels: a\nfold: é > e\n", "fold target 'e' not in letters (line 3)"),
    ],
    ids=[
        "no-colon",
        "repeated-name",
        "repeated-letters",
        "repeated-vowels",
        "empty-name",
        "empty-letters",
        "empty-vowels",
        "fold-no-arrow",
        "fold-two-arrows",
        "fold-empty-source",
        "fold-long-source",
        "fold-empty-target",
        "fold-long-target",
        "fold-repeated",
        "unknown-key",
        "missing-name",
        "missing-letters",
        "missing-vowels",
        "duplicate-letters",
        "vowel-not-letter",
        "vowels-are-letters",
        "fold-target-not-letter",
    ],
)
def test_load_alphabet_error_messages(spec, message):
    with pytest.raises(AlphabetSpecError) as excinfo:
        load_alphabet(spec)
    assert str(excinfo.value) == message


def test_load_alphabet_reads_a_builtin_name_as_a_document():
    # only builtin_alphabet resolves names; a spec holding one is malformed
    with pytest.raises(AlphabetSpecError, match="line 1"):
        load_alphabet("la")


def test_normalize_basic(en):
    assert normalize("Crypto-Logy!", en).symbols == "cryptology"
    assert normalize("", en).symbols == ""


def test_normalize_discard_tally(en):
    seq = normalize("a-b!c", en, source="demo")
    assert seq.symbols == "abc"
    assert "discarded 2" in seq.source


def test_normalize_french_fold():
    fr = builtin_alphabet("fr")
    assert normalize("Étude", fr).symbols == "etude"


def test_tokenize_words(en):
    assert tokenize_words("the cat, the!", en).words == ("the", "cat", "the")
    assert tokenize_words("---", en).words == ()
    assert tokenize_words("don't", en).words == ("don", "t")


def test_letter_sequence_rejects_foreign_symbols(en):
    with pytest.raises(InputError):
        LetterSequence(en, "abÉ")


def test_foreign_symbol_message_names_the_first_one(en):
    # "É" comes first in the text but sorts after "!"
    with pytest.raises(InputError, match="symbol 'É' not in alphabet"):
        LetterSequence(en, "aÉb!")
    with pytest.raises(InputError, match="symbol 'É' not in alphabet"):
        WordSequence(en, ("ab", "cÉ", "!"))


text_strategy = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=200
)


@given(text_strategy)
def test_normalize_idempotent(raw):
    en = builtin_alphabet("en")
    once = normalize(raw, en)
    twice = normalize(once.symbols, en)
    assert twice.symbols == once.symbols


@given(text_strategy)
def test_tokenize_concatenation_matches_normalize(raw):
    en = builtin_alphabet("en")
    assert "".join(tokenize_words(raw, en).words) == normalize(raw, en).symbols


@given(text_strategy)
def test_normalize_never_longer_than_input(raw):
    en = builtin_alphabet("en")
    assert len(normalize(raw, en)) <= len(raw)


# characters whose lowercase form is longer, odd, or a fold source
TRICKY = "İ\u212aßﬁÉé'x"  # \u212a is the Kelvin sign
FOLD_SPEC = "name: toy\nletters: abcdefikstx\nvowels: aei\nfold: é > e\nfold: x > -\nfold: ' > -\n"
ALPHABETS = [builtin_alphabet(name) for name in builtin_names()] + [load_alphabet(FOLD_SPEC)]
mixed_text = st.text(
    alphabet=st.one_of(st.characters(min_codepoint=32, max_codepoint=0x2FF), st.sampled_from(TRICKY)),
    max_size=200,
)


def reference_letters(raw, ab):
    """The letter each character becomes, or None, one character at a time."""
    out = []
    for ch in raw:
        low = ch.lower()
        low = ab.folds.get(low, low)
        out.append(low if low is not None and low in ab else None)
    return out


@given(mixed_text, st.sampled_from(ALPHABETS))
def test_normalize_and_tokenize_match_per_character_reference(raw, ab):
    mapped = reference_letters(raw, ab)
    seq = normalize(raw, ab, source="t")
    assert seq.symbols == "".join(m for m in mapped if m is not None)
    assert seq.source == f"t (discarded {mapped.count(None)})"
    words, current = [], ""
    for m in mapped:
        if m is None:
            if current:
                words.append(current)
            current = ""
        else:
            current += m
    if current:
        words.append(current)
    assert tokenize_words(raw, ab).words == tuple(words)


def test_tricky_characters(en):
    # İ lowercases to two characters, the Kelvin sign to k; ß and ﬁ are no letters
    assert normalize("İ\u212aßﬁÉ", en).symbols == "k"
    assert tokenize_words("aİb\u212ac", en).words == ("a", "bkc")
    assert tokenize_words("x-x", load_alphabet(FOLD_SPEC)).words == ()
