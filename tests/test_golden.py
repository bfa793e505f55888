"""Byte-for-byte CLI golden outputs.

`tests/golden/cli.json` holds, for every invocation in `invocations()`,
the exit status and the exact stdout of `main(argv)`. Every invocation
runs inside a scratch directory that `prepare()` fills from the
committed fixtures, so every path in the argv lists (and every path
that `train-model` echoes) is relative and the file does not depend on
where the checkout lives.

After an intended output change, rewrite the golden file with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
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
    ["style", "alberti", P],
    ["style", "compare", A, P],
    ["style", "compass", A, "--block-size", "1000"],
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

# usage and data errors: exit status pinned, stdout must stay empty
ERRORS = [
    ["count"],
    ["count", "missing.txt"],
    ["count", "--alphabet", "xx", P],
    ["count", P, "--seed", "-1"],
    ["stability", A, "--sizes", "0"],
    ["stability", A, "--sizes", "1,99999999", "--random"],
    ["generate", "--length", "5"],
    ["style", "compare", A],
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
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_cli_matches_golden_outputs(tmp_path, monkeypatch):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    monkeypatch.chdir(tmp_path)
    prepare(str(tmp_path))
    assert [case["argv"] for case in golden] == invocations()
    mismatched = [case["argv"] for case in golden if run(case["argv"]) != case]
    assert mismatched == []


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
