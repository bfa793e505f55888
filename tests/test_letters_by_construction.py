"""Sequences built through an alphabet's own tables skip the letter check.

`normalize`, `tokenize_words`, `to_vc_sequence`, both `generate` walks,
`decrypt` and the solver's stand-in for a cryptogram make their symbols or
words through an alphabet's translate tables or from its letters, so they
hold only letters by construction and are built without the public
constructors' scan. These tests check that each such sequence is the one the
checking constructor builds from the same fields, and that none of them runs
the scan.
"""

import contextlib
import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from letterlab import (
    InputError,
    LanguageModel,
    LetterSequence,
    SubstitutionKey,
    WordSequence,
    builtin_alphabet,
    builtin_names,
    decrypt,
    encrypt,
    fit_transitions,
    generate,
    hill_climb_solve,
    load_alphabet,
    normalize,
    to_vc_sequence,
    tokenize_words,
)
from letterlab import alphabet as alphabet_module, cipher, markov

# letters that are re metacharacters, in and out of a character class
META = load_alphabet("name: meta\nletters: ] ^ - \\ [ . * a b c\nvowels: a ^\n")
# uppercase letters reached by folds, so V and C are letters, and consonants
UPPER = load_alphabet(
    "name: upper\nletters: ABCDEFGHIJKLMNOPQRSTUVWXYZ\nvowels: AEIOU\n"
    + "".join(f"fold: {ch} > {ch.upper()}\n" for ch in "abcdefghijklmnopqrstuvwxyz")
)
ALPHABETS = [builtin_alphabet(name) for name in builtin_names()] + [META, UPPER]
# upper case, folded accents, a lowercase of two characters, the Kelvin sign
ODD = "ABCVYZÉéÀàÇçÆæŒœÿİK'-"


@contextlib.contextmanager
def recording(built: list):
    """Record (class, fields, sequence) for every sequence built without the check."""
    unchecked = alphabet_module._unchecked

    def record(cls, *fields):
        seq = unchecked(cls, *fields)
        built.append((cls, fields, seq))
        return seq

    with contextlib.ExitStack() as stack:
        for module in (alphabet_module, markov, cipher):
            stack.enter_context(mock.patch.object(module, "_unchecked", record))
        yield


def run_builders(raw: str, ab, seed: int) -> list:
    """The sequences each builder returns for `raw`; the solver also builds its stand-in."""
    seq = normalize(raw, ab, source="t")
    vc = to_vc_sequence(seq)
    out = [seq, tokenize_words(raw, ab, source="t"), vc]
    if len(vc) >= 2:
        with contextlib.suppress(InputError):  # a walk may reach a state the text never leaves
            out.append(generate(fit_transitions(vc), 30, seed))
    if len(seq):
        model = LanguageModel.train(seq)
        key = SubstitutionKey.from_target_string(ab, "".join(reversed(ab.letters)))
        c = encrypt(seq, key)
        out += [generate(model, 30, seed, order=0), generate(model, 30, seed), decrypt(c, key)]
        out.append(hill_climb_solve(c, model, restarts=1, seed=seed).plaintext)
    return out


def field_values(seq) -> list:
    return [getattr(seq, f.name) for f in dataclasses.fields(seq)]


@st.composite
def texts(draw):
    ab = draw(st.sampled_from(ALPHABETS))
    chars = st.one_of(st.characters(max_codepoint=0x2FF), st.sampled_from(ODD + ab.separator + "".join(ab.letters)))
    return ab, draw(st.text(alphabet=chars, max_size=60))


@settings(deadline=None)
@given(texts(), st.sampled_from([alphabet_module.BLOCK, 1, 4, 9]), st.integers(0, 2**64 - 1))
def test_every_unchecked_sequence_is_what_the_checking_constructor_builds(text, block, seed):
    ab, raw = text
    built = []
    with mock.patch.object(alphabet_module, "BLOCK", block), recording(built):
        out = run_builders(raw, ab, seed)
    for cls, fields, seq in built:
        assert type(seq) is cls
        assert field_values(seq) == field_values(cls(*fields))
    assert all(any(seq is done for *_, done in built) for seq in out)
    assert len(built) == len(out) + (len(out[0]) > 0)  # and the solver's stand-in


def fail(symbols, alphabet):
    raise AssertionError("letter check ran")


def test_no_builder_runs_the_letter_check(monkeypatch, en):
    raw = "A cat, a Cab; ÉTÉ... the quick brown fox jumps over the lazy dog! " * 4
    seq = normalize(raw, en)
    model, key = LanguageModel.train(seq), SubstitutionKey.from_target_string(en, "qwertyuiopasdfghjklzxcvbnm")
    c, chain = encrypt(seq, key), fit_transitions(to_vc_sequence(seq))
    monkeypatch.setattr(alphabet_module, "_check_letters", fail)
    for block in (alphabet_module.BLOCK, 16):  # one piece, then the block-by-block path
        monkeypatch.setattr(alphabet_module, "BLOCK", block)
        assert normalize(raw, en).symbols == seq.symbols
        assert "".join(tokenize_words(raw, en).words) == seq.symbols
        assert to_vc_sequence(seq).symbols == seq.symbols.translate(en._vc)
        assert len(generate(chain, 40, 1)) == 40
        assert len(generate(model, 40, 1, order=0)) == len(generate(model, 40, 1)) == 40
        assert decrypt(c, key) == seq
        assert hill_climb_solve(c, model, restarts=1).plaintext.alphabet == en
    # input from outside is still checked
    with pytest.raises(AssertionError, match="letter check ran"):
        LetterSequence(en, "abc")
    with pytest.raises(AssertionError, match="letter check ran"):
        WordSequence(en, ("ab", "c"))
