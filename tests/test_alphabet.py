import copy
import dataclasses
import gc
import pickle
import weakref

import pytest
from hypothesis import given, strategies as st

from letterlab import (
    Alphabet,
    AlphabetSpecError,
    InputError,
    LanguageModel,
    LetterSequence,
    SubstitutionKey,
    WordSequence,
    builtin_alphabet,
    builtin_names,
    count_digrams,
    count_letters,
    encrypt,
    hill_climb_solve,
    load_alphabet,
    normalize,
    positional_stats,
    to_vc_sequence,
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
        for dst in dict(ab.folds).values():
            assert dst is None or dst in set(ab.letters)


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_alphabet_is_one_shared_object(name):
    assert builtin_alphabet(name) is builtin_alphabet(name)


def test_folds_are_read_only():
    fr = builtin_alphabet("fr")
    with pytest.raises(TypeError):
        fr.folds["q"] = None
    assert normalize("quoi", builtin_alphabet("fr")).symbols == "quoi"
    assert builtin_alphabet("la").folds == (("j", "i"), ("v", "u"))


def test_alphabet_keeps_its_own_copy_of_the_folds():
    folds = {"é": "e"}
    ab = Alphabet(name="t", letters=tuple("abe"), vowels=frozenset("ae"), folds=folds)
    folds["a"] = None
    assert normalize("é a", ab).symbols == "ea"
    assert dict(ab.folds) == {"é": "e"}


def test_fold_sources_must_be_lowercase():
    # lookup happens after lowercasing, so an uppercase source could never fold
    with pytest.raises(InputError, match="fold source 'É' is not lowercase"):
        Alphabet(name="t", letters=tuple("abe"), vowels=frozenset("ae"), folds={"É": "e"})
    with pytest.raises(InputError, match="fold source 'İ' is not lowercase"):
        Alphabet(name="t", letters=tuple("abi"), vowels=frozenset("ai"), folds={"İ": "i"})
    # a spec document lowercases its sources, so the same rule there folds
    ab = load_alphabet("name: t\nletters: abe\nvowels: ae\nfold: É > e\n")
    assert dict(ab.folds) == {"é": "e"}
    assert normalize("É é", ab).symbols == "ee"


def test_fold_sources_must_be_given_once():
    # a mapping cannot repeat a source, but pairs can, and dict() would keep the last
    with pytest.raises(InputError, match="a fold source is given twice"):
        Alphabet(name="t", letters=tuple("abe"), vowels=frozenset("ae"), folds=(("é", "e"), ("é", "a")))
    with pytest.raises(InputError, match="a fold source is given twice"):
        Alphabet(name="t", letters=tuple("abe"), vowels=frozenset("ae"), folds=(("é", "e"), ("é", "e")))


def test_fold_sources_are_one_character():
    # translation is per character, so a longer or empty source could never fold
    for src in ("xy", ""):
        with pytest.raises(InputError, match=f"fold source {src!r} is not one character"):
            Alphabet(name="t", letters=("a", "b"), vowels=frozenset("a"), folds=[(src, "a")])


def test_folds_must_be_pairs():
    for folds in ([("x",)], [("x", "a", "b")], [None]):
        with pytest.raises(InputError, match=r"^alphabet 't': folds must be \(source, target\) pairs$"):
            Alphabet(name="t", letters=("a", "b"), vowels=frozenset("a"), folds=folds)


def test_folds_are_pairs_sorted_by_source_whatever_the_order_given():
    letters, vowels = tuple("abe"), frozenset("ae")
    ab = Alphabet(name="t", letters=letters, vowels=vowels, folds={"é": "e", "'": None, "à": "a"})
    back = Alphabet(name="t", letters=letters, vowels=vowels, folds={"à": "a", "é": "e", "'": None})
    pairs = Alphabet(name="t", letters=letters, vowels=vowels, folds=[("é", "e"), ("à", "a"), ("'", None)])
    assert ab.folds == (("'", None), ("à", "a"), ("é", "e"))
    assert ab == back == pairs
    assert hash(ab) == hash(back) == hash(pairs)
    assert len({ab, back, pairs}) == 1
    assert ab != Alphabet(name="t", letters=letters, vowels=vowels, folds={"é": "e"})


@pytest.mark.parametrize("name", builtin_names())
def test_an_alphabet_is_a_plain_value(name):
    ab = builtin_alphabet(name)
    assert [f.name for f in dataclasses.fields(ab)] == ["name", "letters", "vowels", "folds"]
    for other in (copy.deepcopy(ab), dataclasses.replace(ab)):
        assert other == ab and hash(other) == hash(ab)
        assert normalize("Où est l'été, Iulius ?", other) == normalize("Où est l'été, Iulius ?", ab)
    assert dataclasses.asdict(ab) == {"name": ab.name, "letters": ab.letters, "vowels": ab.vowels, "folds": ab.folds}


def alphabets_in(tree):
    """Every dict in `tree` (nested dicts, lists and tuples) that has an alphabet's fields."""
    if isinstance(tree, dict):
        found = [tree] if tree.keys() == {"name", "letters", "vowels", "folds"} else []
        return found + [ab for v in tree.values() for ab in alphabets_in(v)]
    if isinstance(tree, (list, tuple)):
        return [ab for v in tree for ab in alphabets_in(v)]
    return []


def test_asdict_works_on_every_value_that_carries_an_alphabet():
    en = builtin_alphabet("en")
    seq = normalize("The quick brown fox jumps over the lazy dog, and the dog sleeps.", en)
    words = tokenize_words("The quick brown fox", en)
    key = SubstitutionKey.from_target_string(en, "qwertyuiopasdfghjklzxcvbnm")
    model = LanguageModel.train(seq)
    report = hill_climb_solve(encrypt(seq, key), model, restarts=2, seed=1)
    values = [count_letters(seq), count_digrams(seq), seq, words, positional_stats(words), encrypt(seq, key)]
    values += [key, model, report]
    assert sorted(type(v).__name__ for v in values) == sorted(
        "FrequencyTable DigramTable LetterSequence WordSequence PositionalStats "
        "Cryptogram SubstitutionKey LanguageModel SolverReport".split()
    )
    for value in values:
        found = alphabets_in(dataclasses.asdict(value))
        assert found and all(ab == dataclasses.asdict(en) for ab in found), type(value).__name__


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_values_carrying_an_alphabet_pickle(protocol):
    fr = builtin_alphabet("fr")
    seq = normalize("Où est l'été ?", fr)
    back = pickle.loads(pickle.dumps(seq, protocol))
    assert back == seq and back.source == seq.source
    assert back.alphabet.folds == fr.folds
    assert hash(back.alphabet) == hash(fr)
    assert hash(pickle.loads(pickle.dumps(fr, protocol))) == hash(fr)
    assert normalize("Où est l'été ?", back.alphabet) == seq
    words = tokenize_words("Où est l'été ?", fr)
    assert pickle.loads(pickle.dumps(words, protocol)) == words
    table = count_letters(seq)
    assert pickle.loads(pickle.dumps(table, protocol)) == table


def test_separator_is_the_lowest_code_point_that_is_no_letter(en):
    assert en.separator == "\x00"
    assert LOW.separator == "\x02"
    assert tokenize_words("\x00\x02\x01a\x01", LOW).words == ("\x00", "\x01a\x01")


def test_alphabet_is_freed_without_the_cycle_collector():
    # the translate tables hold the folds and the letter index, not the alphabet
    ab = load_alphabet(FOLD_SPEC)
    normalize("dead", ab)
    tokenize_words("de ad", ab)
    ref = weakref.ref(ab)
    gc.disable()
    try:
        del ab
        assert ref() is None
    finally:
        gc.enable()


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


def test_fold_may_produce_a_letter_lowercasing_changes():
    ab = load_alphabet("name: t\nletters: Abc\nvowels: A\nfold: a > A\n")
    assert normalize("a bAc", ab).symbols == "AbAc"


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
        ("name: t\nletters: ABC\nvowels: A\n", "line 2: letters lost to lowercasing, no fold to them: ['A', 'B', 'C']"),
        (
            "name: t\nletters: aBCİ\nvowels: a\nfold: ç > C\n",
            "line 2: letters lost to lowercasing, no fold to them: ['B', 'İ']",
        ),
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
        "cased-letters",
        "cased-letters-not-folded",
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
TRICKY = "İ\u212aßﬁÉé'x\x00\x01\x02"  # \u212a is the Kelvin sign
FOLD_SPEC = "name: toy\nletters: abcdefikstx\nvowels: aei\nfold: é > e\nfold: x > -\nfold: ' > -\n"
# letters at the lowest code points, so the word separator is "\x02"
LOW = Alphabet(name="low", letters=("\x00", "\x01", "a", "b"), vowels=frozenset("a"))
# letters that are re metacharacters, in and out of a character class
META = Alphabet(name="meta", letters=tuple("]^-\\[.*a"), vowels=frozenset("a^"))
ALPHABETS = [builtin_alphabet(name) for name in builtin_names()] + [load_alphabet(FOLD_SPEC), LOW, META]
mixed_text = st.text(
    alphabet=st.one_of(st.characters(min_codepoint=32, max_codepoint=0x2FF), st.sampled_from(TRICKY)),
    max_size=200,
)


def reference_letters(raw, ab):
    """The letter each character becomes, or None, one character at a time."""
    out = []
    for ch in raw:
        low = ch.lower()
        low = dict(ab.folds).get(low, low)
        out.append(low if low is not None and low in ab else None)
    return out


@given(mixed_text, st.sampled_from(ALPHABETS))
def test_normalize_and_tokenize_match_per_character_reference(raw, ab):
    mapped = reference_letters(raw, ab)
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
    # each alphabet keeps its translate tables, so the second round (and any
    # later example on a module-level alphabet) reads entries already filled
    for _ in range(2):
        seq = normalize(raw, ab, source="t")
        assert seq.symbols == "".join(m for m in mapped if m is not None)
        assert seq.source == f"t (discarded {mapped.count(None)})"
        assert tokenize_words(raw, ab).words == tuple(words)


def test_tricky_characters(en):
    # İ lowercases to two characters, the Kelvin sign to k; ß and ﬁ are no letters
    assert normalize("İ\u212aßﬁÉ", en).symbols == "k"
    assert tokenize_words("aİb\u212ac", en).words == ("a", "bkc")
    assert tokenize_words("x-x", load_alphabet(FOLD_SPEC)).words == ()


CJK = Alphabet(
    name="cjk",
    letters=tuple(chr(0x4E00 + i) for i in range(300)),
    vowels=frozenset(chr(0x4E00 + i) for i in range(60)),
)


def test_a_300_letter_alphabet_is_checked_whole():
    first, last_vowel, first_consonant, last = CJK.letters[0], CJK.letters[59], CJK.letters[60], CJK.letters[299]
    raw = f"{first}{last}, {last_vowel}A{first_consonant}!"
    seq = normalize(raw, CJK)
    assert seq.symbols == first + last + last_vowel + first_consonant
    assert tokenize_words(raw, CJK).words == (first + last, last_vowel, first_consonant)
    assert to_vc_sequence(seq).symbols == "VCVC"
    foreign = chr(0x4E00 + 300)
    for make in (lambda: LetterSequence(CJK, first + foreign + "a"), lambda: WordSequence(CJK, (first, foreign + "a"))):
        with pytest.raises(InputError) as excinfo:
            make()
        assert str(excinfo.value) == f"symbol {foreign!r} not in alphabet 'cjk'"


@given(st.text(alphabet=st.one_of(st.sampled_from(META.letters), st.characters(max_codepoint=0x7F)), max_size=40))
def test_letters_that_are_re_metacharacters(symbols):
    # a foreign symbol is named, the first one in the text, whatever it is to re
    foreign = [ch for ch in symbols if ch not in META.letters]
    if not foreign:
        assert LetterSequence(META, symbols).symbols == symbols
        assert to_vc_sequence(LetterSequence(META, symbols)).symbols == "".join("V" if ch in "a^" else "C" for ch in symbols)
        return
    for make in (lambda: LetterSequence(META, symbols), lambda: WordSequence(META, (symbols,))):
        with pytest.raises(InputError) as excinfo:
            make()
        assert str(excinfo.value) == f"symbol {foreign[0]!r} not in alphabet 'meta'"


def test_metacharacter_letters_normalize_and_tokenize():
    assert normalize("a.b*c\\d]", META).symbols == "a.*\\]"
    assert tokenize_words("a.b*c\\d]", META).words == ("a.", "*", "\\", "]")
    assert tokenize_words("^-[ x ]", META).words == ("^-[", "]")


@pytest.mark.parametrize("ab", [builtin_alphabet("en"), META, CJK], ids=lambda ab: ab.name)
def test_the_empty_sequence_passes(ab):
    assert LetterSequence(ab, "").symbols == ""
    assert WordSequence(ab, ()).words == ()
    assert to_vc_sequence(LetterSequence(ab, "")).symbols == ""


@pytest.mark.parametrize("symbols", [list("abc"), ("a", "b"), b"abc", None, 5], ids=repr)
def test_a_letter_sequence_must_be_a_string(en, symbols):
    with pytest.raises(InputError, match="^symbols must be a string, not "):
        LetterSequence(en, symbols)


@pytest.mark.parametrize("words", [(list("ab"),), ("ab", ("c",)), ("ab", b"cd"), (None,)], ids=repr)
def test_each_word_must_be_a_string(en, words):
    with pytest.raises(InputError, match="^words must be strings$"):
        WordSequence(en, words)
