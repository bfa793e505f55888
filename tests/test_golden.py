"""Byte-for-byte CLI golden outputs.

`tests/golden/cli.json` holds, for every invocation in `invocations()`,
the exit status and the exact stdout and stderr of `main(argv)`; of a
usage error (exit 2) only the last stderr line is kept, because argparse
wraps the usage lines above it to the terminal width. Every invocation
runs inside a scratch directory that `prepare()` fills from the
committed fixtures, so every path in the argv lists (and every path
that `train-model` echoes) is relative and the file does not depend on
where the checkout lives.

After an intended output change, rewrite the golden file with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import builtins
import contextlib
import io
import json
import math
import os
import shutil
import sys

from letterlab.cli import main

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS_DIR, "golden", "cli.json")

# fixed substitution key for the cryptogram fixture
CIPHER_KEY = "qwertyuiopasdfghjklzxcvbnm"
CIPHER_LETTERS = 600


def prepare(workdir: str) -> None:
    """Write every input file the invocations read into `workdir`."""
    for name in ("english_analysis.txt", "english_training.txt", "solver_plaintext.txt"):
        shutil.copy(os.path.join(TESTS_DIR, "data", name), os.path.join(workdir, name))
    with open(os.path.join(workdir, "solver_plaintext.txt"), encoding="utf-8") as fh:
        plain = fh.read()
    letters = "".join(ch for ch in plain.lower() if "a" <= ch <= "z")[:CIPHER_LETTERS]
    cipher = letters.translate(str.maketrans("abcdefghijklmnopqrstuvwxyz", CIPHER_KEY))
    files = {
        "cipher.txt": " ".join(cipher[i : i + 5] for i in range(0, len(cipher), 5)) + "\n",
        "tiny.alphabet": "name: tiny\nletters: abct\nvowels: a\nfold: é > a\n",
        "tiny.txt": "a cab, a cat! Ébé tact.\n",
        "dup.alphabet": "name: dup\nletters: abab\nvowels: a\n",
        "bad.unigram.csv": "letter,count\na,x\n",
        "bad.digram.csv": "first,second,count\n",
        "digit-cipher.txt": "qwert y1uio\n",
        "vowels.txt": "aeiou eai ou\n",
        "empty.txt": "",
        "one.txt": "a\n",
    }
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


A, T, P = "english_analysis.txt", "english_training.txt", "solver_plaintext.txt"

# train-model comes first: solve and generate read the files it writes
COMMANDS = [
    ["train-model", T, "--out", "model"],
    ["count", P],
    ["count", "--alphabet", "la", P],
    ["count", "--alphabet", "tiny.alphabet", "tiny.txt"],
    ["digrams", P],
    ["compare", A, P],
    ["stability", A, "--sizes", "90,1000,10000"],
    ["stability", A, "--sizes", "90,1000", "--random", "--seed", "4"],
    ["positions", P],
    ["style", "vc", P],
    ["style", "vc", "--alphabet", "en-y-vowel", P],
    ["style", "alberti", P],
    ["style", "compare", A, P],
    ["style", "compass", A, "--block-size", "1000"],
    ["style", "compass", "--alphabet", "la", A, "--block-size", "700"],
    ["lipogram", P, "--reference", T],  # flags f
    ["lipogram", P, "--reference", T, "--alpha", "1e-6"],  # flags nothing
    ["markov", "test", A],
    ["entropy", P],
    ["entropy", "--alphabet", "la", P],
    ["generate", "--model", "model", "--order", "1", "--length", "200", "--seed", "3"],
    ["generate", "--model", "model", "--order", "0", "--length", "100", "--seed", "3"],
    ["generate", "--vc-corpus", A, "--length", "50", "--seed", "1"],
    ["zipf", P],
    ["zipf", P, "--min-count", "1000"],
    ["solve", "cipher.txt", "--model", "model", "--restarts", "3", "--seed", "7"],
    ["solve", "cipher.txt", "--model", "model", "--restarts", "2", "--length-threshold", "1000"],
]

# usage and data errors: exit status and message pinned, stdout must stay empty
ERRORS = [
    ["count"],
    ["count", "missing.txt"],
    ["count", "--alphabet", "xx", P],
    ["count", P, "--seed", "-1"],
    ["stability", A, "--sizes", "0"],
    ["stability", A, "--sizes", "1,99999999", "--random"],
    ["generate", "--length", "5"],
    ["style", "compare", A],
    ["count", "--alphabet", "dup.alphabet", P],
    ["generate", "--model", "bad", "--length", "5"],
    ["solve", "digit-cipher.txt", "--model", "model"],
    ["markov", "test", "vowels.txt"],
    ["train-model", "empty.txt", "--out", "model-empty"],
    ["zipf", "empty.txt"],
    ["train-model", P, "--out", "nodir/model"],
    ["style", "compass", "empty.txt"],
    ["style", "alberti", "empty.txt"],
    ["style", "compass", "vowels.txt"],
    ["style", "compass", A, "--block-size", "0"],
    ["markov", "test", "one.txt"],
]


def invocations() -> list[list[str]]:
    out = []
    for argv in COMMANDS:
        out += [argv + ["--format", fmt] for fmt in ("csv", "json", "text")]
        out.append(argv)  # the command's default format
    return out + ERRORS


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stderr = err.getvalue()
    if code == 2:
        stderr = "".join(stderr.splitlines(keepends=True)[-1:])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": stderr}


LONG_MIN, LONG_MAX = -(1 << 63), (1 << 63) - 1


def compensated_sum(iterable, /, start=0):
    """The builtin `sum` of CPython 3.12 and 3.13 (`builtin_sum_impl` in
    Python/bltinmodule.c), for a 64-bit C long.

    Exact ints add exactly while the total fits a long. From the first
    exact float on, floats add by Neumaier's compensated rule (ZAMM 54,
    1974), and ints that fit a long are converted and added without
    compensation. The compensation joins the total only if it is nonzero
    and finite: at the end, or before anything else forces plain `+` for
    the rest of the items.
    """
    it = iter(iterable)
    result = start
    if type(result) is int and LONG_MIN <= result <= LONG_MAX:
        for item in it:
            if type(item) in (int, bool) and LONG_MIN <= item <= LONG_MAX and LONG_MIN <= result + item <= LONG_MAX:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, c = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and LONG_MIN <= item <= LONG_MAX:
                total += float(item)
            else:
                result = (total + c if c and math.isfinite(c) else total) + item
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in it:
        result = result + item
    return result


def test_compensated_sum_is_not_left_to_right():
    # a replay under a plain sum would pass without showing anything
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert compensated_sum([0.1] * 10) == 1.0  # 0.9999999999999999 left to right
    assert compensated_sum([1, 2, True]) == 4


def mismatched_cases(tmp_path, monkeypatch) -> list[list[str]]:
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    monkeypatch.chdir(tmp_path)
    prepare(str(tmp_path))
    assert [case["argv"] for case in golden] == invocations()
    return [case["argv"] for case in golden if run(case["argv"]) != case]


def test_cli_matches_golden_outputs(tmp_path, monkeypatch):
    assert mismatched_cases(tmp_path, monkeypatch) == []


def test_cli_matches_golden_outputs_under_compensated_sum(tmp_path, monkeypatch):
    # every reported float is summed left to right, so the sum() of CPython
    # 3.12+ cannot move the last digit of a report
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert mismatched_cases(tmp_path, monkeypatch) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        prepare(workdir)
        here = os.getcwd()
        os.chdir(workdir)
        try:
            cases = [run(argv) for argv in invocations()]
        finally:
            os.chdir(here)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
